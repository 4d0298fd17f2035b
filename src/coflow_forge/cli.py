"""Command-line front end: generation, ordering, scheduling, ingestion, eval.

Every stochastic subcommand takes an explicit seed, so reruns with the same
flags produce byte-identical files. Wall-clock timing columns are zero unless
--timing is passed, for the same reason.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .model import (
    DocumentError,
    Instance,
    InvalidInstanceError,
    JobSet,
    document_to_instance,
    document_to_jobset,
    instance_to_document,
    render,
    validate_instance,
)
from .assignment import assignment_to_payload
from .generator import (
    DENSITY_MODES,
    GeneratorParams,
    generate_instance,
)
from .metrics_report import (
    ALGORITHMS,
    PIPELINE,
    EvaluationReport,
    emit_report,
    evaluate,
    run_algorithm,
)
from .primal_dual import DEFAULT_KAPPA, dual_to_document
from .simulator import schedule_payload
from .trace_io import TraceError, filter_by_min_flows, parse_trace, to_instance

def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from exc


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load(path: str, jobs: bool, text: str | None = None) -> Instance | JobSet:
    """The job set or the instance in the document at `path`, whose text
    is read unless given. The pipeline validates it."""
    text = _read(path) if text is None else text
    return _named(path, document_to_jobset if jobs else document_to_instance,
                  text)


def _named(path: str, run, *args, **kwargs):
    """run(*args, **kwargs), naming `path` in the error of a malformed
    document or trace and in a subject's violations."""
    try:
        return run(*args, **kwargs)
    except (DocumentError, TraceError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except InvalidInstanceError as exc:
        raise ValueError(f"{path}: " + "; ".join(exc.violations)) from exc


def _number(flag: str, text: str, kind=int):
    """kind(text), or a ValueError that names `flag` and `text`."""
    try:
        return kind(text)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ValueError(f"{flag}: {text!r} is not {what}") from None


def _seed_range(spec: str) -> list[int]:
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        return list(range(_number("--seeds", lo), _number("--seeds", hi)))
    return [_number("--seeds", s) for s in spec.split(",")]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    params = GeneratorParams(
        n=args.n, num_ports=args.ports, num_cores=args.cores, deg=args.deg,
        p=args.p, weight_range=(args.weight_min, args.weight_max),
        density_mode=args.density, seed=args.seed,
        release_horizon=args.release_horizon, conforming=args.conforming)
    _write(args.output, instance_to_document(generate_instance(params)))
    return 0


def _cmd_order(args) -> int:
    subject = _load(args.instance, PIPELINE[args.alg][2])
    perm, dual = _named(args.instance, PIPELINE[args.alg][0], subject,
                        args.kappa)
    payload = {"algorithm": args.alg, "kappa": args.kappa,
               "order": render(1, perm.order)}
    _write(args.output, render(0, payload).text)
    if args.emit_dual:
        _write(args.emit_dual, dual_to_document(dual, subject))
    return 0


def _cmd_schedule(args) -> int:
    subject = _load(args.instance, PIPELINE[args.alg][2])
    perm, _, assignment, sched = _named(args.instance, run_algorithm,
                                        subject, args.alg, args.kappa)
    payload = {"algorithm": args.alg, "kappa": args.kappa,
               "order": render(1, perm.order)}
    if assignment is not None:
        payload["assignment"] = render(1, assignment_to_payload(assignment))
    payload["schedule"] = render(1, schedule_payload(sched, 1))
    _write(args.output, render(0, payload).text)
    return 0


def _evaluate_one(path: str, algorithms: list[str], kappa: float,
                  timing: bool) -> list:
    text = _read(path)
    subjects: dict[bool, Instance | JobSet] = {}
    records = []
    for alg in algorithms:
        # An unknown name reads an instance; run_algorithm rejects it.
        jobs = alg in PIPELINE and PIPELINE[alg][2]
        if jobs not in subjects:
            subjects[jobs] = _load(path, jobs, text)
        records.append(_named(path, evaluate, subjects[jobs], alg, kappa,
                              instance_id=os.path.basename(path),
                              timing=timing))
    return records


def _cmd_eval(args) -> int:
    algorithms = args.alg.split(",")
    records = []
    for path in args.instances:
        records.extend(_evaluate_one(path, algorithms, args.kappa, args.timing))
    _write(args.output, emit_report(EvaluationReport(records), args.format))
    return 0


def _cmd_ingest(args) -> int:
    port_count, coflows = _named(args.trace, parse_trace, _read(args.trace))
    instance = to_instance(port_count, coflows, num_cores=args.cores,
                           weight_mode=args.weight_mode,
                           release_mode=args.release_mode, seed=args.seed)
    if args.min_flows:
        instance = filter_by_min_flows(instance, args.min_flows)
    # A trace may repeat a coflow id or, as arrivals, give negative releases.
    if violations := validate_instance(instance).violations:
        raise ValueError(f"{args.trace}: " + "; ".join(violations))
    _write(args.output, instance_to_document(instance))
    return 0


# The bench flags that shape a generated instance, with their defaults. A
# trace fixes the instance, so none of them may be given with --trace.
_GENERATOR_FLAGS = {"n": 25, "ports": 10, "deg": 3, "p": 1.0,
                    "density": "default", "conforming": False}


def _cmd_bench(args) -> int:
    given = [name for name in _GENERATOR_FLAGS
             if getattr(args, name) is not None]
    if args.trace and given:
        raise ValueError(", ".join(f"--{name}" for name in given)
                         + " cannot be used with --trace")
    gen = {**_GENERATOR_FLAGS, **{name: getattr(args, name) for name in given}}
    algorithms = args.alg.split(",")
    for alg in algorithms:
        if alg not in PIPELINE or PIPELINE[alg][2]:
            raise ValueError(f"bench supports fdls/cdls, not {alg!r}")
    if (args.vary is None) != (args.values is None):
        raise ValueError("--vary and --values must be given together")
    if args.trace and args.vary in ("n", "p"):
        raise ValueError(f"--vary {args.vary} does not apply to --trace")
    if not args.trace and args.vary == "threshold":
        raise ValueError("--vary threshold needs --trace")
    seeds = _seed_range(args.seeds)
    if not seeds:
        raise ValueError(f"--seeds {args.seeds} selects no seed")
    values = args.values.split(",") if args.vary else []
    if "" in values:
        raise ValueError(f"--values {args.values!r} has an empty value")
    # Each run's tag and the axis value it sets.
    kind = float if args.vary == "p" else int
    runs = [(f"{args.vary}={v}", {args.vary: _number("--values", v, kind)})
            for v in values] or [("base", {})]
    trace = args.trace and _named(args.trace, parse_trace, _read(args.trace))

    def build(axis, seed):
        axes = {"n": gen["n"], "m": args.cores, "p": gen["p"], "threshold": 0,
                **axis}
        if trace:
            instance = filter_by_min_flows(to_instance(
                *trace, num_cores=axes["m"], weight_mode="uniform",
                seed=seed), axes["threshold"])
            if instance.coflows:
                return instance
            raise ValueError(f"{args.trace}: threshold {axes['threshold']} "
                             "keeps no coflow")
        params = GeneratorParams(n=axes["n"], num_ports=gen["ports"],
                                 num_cores=axes["m"], deg=gen["deg"],
                                 p=axes["p"], density_mode=gen["density"],
                                 seed=seed, conforming=gen["conforming"])
        return generate_instance(params)

    records = []
    for tag, axis in runs:
        for seed in seeds:
            instance = build(axis, seed)
            records.extend(_named(args.trace or "generated instance",
                                  evaluate, instance, alg, args.kappa,
                                  instance_id=tag, seed=seed,
                                  timing=args.timing) for alg in algorithms)
    _write(args.output, emit_report(EvaluationReport(records), args.format))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coflow-forge",
        description="Primal-dual coflow ordering and list scheduling on "
                    "identical parallel networks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a seeded synthetic instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--cores", type=int, required=True)
    g.add_argument("--ports", type=int, required=True)
    g.add_argument("--deg", type=int, default=3)
    g.add_argument("--p", type=float, default=1.0)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--density", choices=DENSITY_MODES, default="default")
    g.add_argument("--weight-min", type=int, default=1)
    g.add_argument("--weight-max", type=int, default=100)
    g.add_argument("--release-horizon", type=int, default=0)
    g.add_argument("--conforming", action="store_true")
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=_cmd_generate)

    o = sub.add_parser("order", help="run a permutation algorithm")
    o.add_argument("instance")
    o.add_argument("--alg", choices=ALGORITHMS, default="fdls")
    o.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    o.add_argument("--emit-dual", metavar="PATH", default=None)
    o.add_argument("-o", "--output", default=None)
    o.set_defaults(func=_cmd_order)

    s = sub.add_parser("schedule", help="order, assign and simulate")
    s.add_argument("instance")
    s.add_argument("--alg", choices=ALGORITHMS, default="fdls")
    s.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=_cmd_schedule)

    e = sub.add_parser("eval", help="evaluate algorithms against the dual bound")
    e.add_argument("instances", nargs="+")
    e.add_argument("--alg", default="fdls")
    e.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    e.add_argument("--format", choices=("csv", "summary"), default="csv")
    e.add_argument("--timing", action="store_true")
    e.add_argument("-o", "--output", default=None)
    e.set_defaults(func=_cmd_eval)

    i = sub.add_parser("ingest", help="convert a rack-level trace")
    i.add_argument("trace")
    i.add_argument("--cores", type=int, default=1)
    i.add_argument("--min-flows", type=int, default=0)
    i.add_argument("--weight-mode", choices=("unit", "uniform"), default="unit")
    i.add_argument("--release-mode", choices=("zero", "arrival"), default="zero")
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("-o", "--output", default=None)
    i.set_defaults(func=_cmd_ingest)

    b = sub.add_parser("bench", help="seed sweep over one experiment axis")
    b.add_argument("--seeds", required=True, metavar="LO:HI|A,B,...")
    b.add_argument("--vary", choices=("n", "m", "p", "threshold"), default=None)
    b.add_argument("--values", default=None,
                   help="comma-separated values for the varied axis")
    # None marks a generator flag as not given; see _GENERATOR_FLAGS.
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--cores", type=int, default=5)
    b.add_argument("--ports", type=int, default=None)
    b.add_argument("--deg", type=int, default=None)
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--density", choices=DENSITY_MODES, default=None)
    b.add_argument("--conforming", action="store_true", default=None)
    b.add_argument("--alg", default="fdls,cdls")
    b.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    b.add_argument("--trace", default=None)
    b.add_argument("--format", choices=("csv", "summary"), default="csv")
    b.add_argument("--timing", action="store_true")
    b.add_argument("-o", "--output", default=None)
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"coflow-forge: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
