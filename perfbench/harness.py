"""Workloads, output checks and traced replay of the coflow-forge benchmark.

One caller issues every op after the previous one returned (a closed loop
with a single client, one thread). Ops enter the library through its public
functions only. The traced run replays each op as the sequence of public
calls the library makes inside it and records one span per call, so the
library itself carries no instrumentation. See README.md for why each
workload exists and which end-to-end metric each layer metric should move.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from coflow_forge import (
    Coflow,
    Instance,
    Job,
    JobSet,
    PrecedenceDag,
    check_dual_feasibility,
    document_to_instance,
    document_to_jobset,
    dual_objective,
    dual_to_document,
    instance_to_document,
    is_conforming,
    jobset_to_document,
    longest_path_chi,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
    validate_instance,
)
from coflow_forge import cli
from coflow_forge.assignment import assign_coflows_cdls, assign_flows_fdls
from coflow_forge.generator import GeneratorParams, generate_instance
from coflow_forge.metrics_report import (
    EvaluationReport,
    RunRecord,
    approximation_ratio,
    emit_report,
    evaluate,
    parse_report,
    theorem_bound,
    total_weighted_completion,
    weight_ratio_R,
)
from coflow_forge.simulator import (
    schedule_to_document,
    simulate,
    simulate_jobs,
    verify_schedule,
)

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

# Every public call the benchmark makes, in report order. Each becomes a
# `<name>.s` and a `<name>.calls` per-layer metric, 0 where not called.
LAYER_CALLS = (
    "generator.generate_instance",
    "model.instance_to_document",
    "model.document_to_instance",
    "model.jobset_to_document",
    "model.document_to_jobset",
    "model.validate_instance",
    "model.is_conforming",
    "model.longest_path_chi",
    "primal_dual.permute_flow_level",
    "primal_dual.permute_coflow_level",
    "primal_dual.permute_jobs",
    "primal_dual.check_dual_feasibility",
    "primal_dual.dual_objective",
    "primal_dual.dual_to_document",
    "assignment.assign_flows_fdls",
    "assignment.assign_coflows_cdls",
    "simulator.simulate",
    "simulator.simulate_jobs",
    "simulator.verify_schedule",
    "metrics_report.weight_ratio_R",
    "metrics_report.theorem_bound",
    "metrics_report.total_weighted_completion",
    "metrics_report.approximation_ratio",
    "metrics_report.emit_report",
    "cli.read_document",
    "cli.write_report",
)

# Per-layer counts and derived values: (name, unit).
LAYER_COUNTS = (
    ("simulator.us_per_segment", "us"),
    ("simulator.segments", "count"),
    ("simulator.preemptions", "count"),
    ("simulator.events", "count"),
    ("primal_dual.dual_doc_bytes", "bytes"),
    ("primal_dual.beta_records", "count"),
    ("primal_dual.alpha_records", "count"),
    ("primal_dual.gamma_edges", "count"),
    ("primal_dual.snapshot_ids", "count"),
    ("assignment.port_load_skew", "1"),
    ("cli.residual.s", "s"),
    ("trace.coverage", "1"),
    ("trace.overhead_frac", "1"),
)

# FDLS layer times of the sparse n=500 seed-77 instance in the ROADMAP
# Baseline table (seconds); the traced run prints its own beside them.
ROADMAP_FDLS_BASELINE = (
    ("primal_dual.permute_flow_level", 0.065),
    ("assignment.assign_flows_fdls", 0.085),
    ("simulator.simulate", 8.6),
    ("simulator.verify_schedule", 0.14),
    ("primal_dual.dual_objective", 0.078),
)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, op id) kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, str]] = []
        self.op = "setup"

    def call(self, name: str, fn: Callable, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.op))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "op": op}) + "\n")


class _Direct:
    """Tracer stand-in for untraced runs: calls straight through."""

    @staticmethod
    def call(name: str, fn: Callable, *args):
        return fn(*args)


DIRECT = _Direct()


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Result:
    """An op's checked output: digest of its document, and what is wrong."""

    digest: str
    problems: list[str]
    record: RunRecord | None = None


@dataclass
class Op:
    key: str
    flows: int
    run: Callable[[], object]
    # Checks the raw output of `run` or `replay`; outside the timed region.
    result: Callable[[object], Result]
    # Same raw output as `run`, plus one dict per schedule or dual made, of
    # the things the counters read.
    replay: Callable[[Tracer], tuple[object, list[dict]]]
    via_cli: bool = False


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record_result(record: RunRecord, csv: str) -> Result:
    problems = []
    if not record.dual > 0:
        problems.append(f"non-positive dual {record.dual}")
    if record.dual > record.twc:
        problems.append(f"dual {record.dual} above twc {record.twc}")
    return Result(_sha(csv), problems, record)


def replay_evaluate(tr, subject, algorithm: str,
                    instance_id: str = "instance") -> tuple[RunRecord, dict]:
    """`metrics_report.evaluate` as its sequence of public calls."""
    if algorithm == "jobs":
        perm, dual = tr.call("primal_dual.permute_jobs", permute_jobs, subject)
        schedule = tr.call("simulator.simulate_jobs", simulate_jobs,
                           subject, perm)
        base = Instance(subject.config, subject.coflows, subject.intra_job_dag)
        audit = tr.call("simulator.verify_schedule", verify_schedule,
                        schedule, base)
        conforming = tr.call("model.is_conforming", is_conforming, base)
        chi = tr.call("model.longest_path_chi", longest_path_chi,
                      subject.intra_job_dag)
        assignment, kind = None, "job"
    else:
        if algorithm == "fdls":
            perm, dual = tr.call("primal_dual.permute_flow_level",
                                 permute_flow_level, subject)
            assignment = tr.call("assignment.assign_flows_fdls",
                                 assign_flows_fdls, subject, perm)
        else:
            perm, dual = tr.call("primal_dual.permute_coflow_level",
                                 permute_coflow_level, subject)
            assignment = tr.call("assignment.assign_coflows_cdls",
                                 assign_coflows_cdls, subject, perm)
        schedule = tr.call("simulator.simulate", simulate,
                           subject, assignment, perm)
        audit = tr.call("simulator.verify_schedule", verify_schedule,
                        schedule, subject, assignment)
        conforming = tr.call("model.is_conforming", is_conforming, subject)
        chi = tr.call("model.longest_path_chi", longest_path_chi, subject.dag)
        kind = "flow" if algorithm == "fdls" else "coflow"
    with_release = any(c.release > 0 for c in subject.coflows)
    R = tr.call("metrics_report.weight_ratio_R", weight_ratio_R, subject)
    bound = tr.call("metrics_report.theorem_bound", theorem_bound, kind,
                    max(chi, 1), subject.config.num_cores, R, with_release,
                    conforming)
    feasible = tr.call("primal_dual.check_dual_feasibility",
                       check_dual_feasibility, dual, subject).feasible
    twc = tr.call("metrics_report.total_weighted_completion",
                  total_weighted_completion, schedule, subject)
    lower = tr.call("primal_dual.dual_objective", dual_objective,
                    dual, subject)
    ratio = tr.call("metrics_report.approximation_ratio",
                    approximation_ratio, twc, lower)
    record = RunRecord(instance_id, 0, algorithm, len(subject.coflows),
                       subject.config.num_cores, subject.config.num_ports,
                       max(chi, 1), R, twc, lower, ratio, bound, conforming,
                       0.0)
    trail = {"schedule": schedule, "dual": dual, "assignment": assignment,
             "audit_ok": audit.ok, "dual_feasible": feasible}
    return record, trail


def evaluate_op(instance: Instance, algorithm: str) -> Op:
    """`metrics_report.evaluate(instance, algorithm)`; output is its CSV."""
    def result(record: RunRecord) -> Result:
        return _record_result(record, emit_report(EvaluationReport([record])))

    def replay(tr):
        record, trail = replay_evaluate(tr, instance, algorithm)
        return record, [trail]

    return Op(algorithm, _flow_count(instance),
              lambda: evaluate(instance, algorithm), result, replay)


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def cli_op(key: str, doc: Path, algorithm: str, flows: int, out: Path) -> Op:
    """`coflow-forge eval DOC --alg A -o OUT`; output is the CSV file."""
    argv = ["eval", str(doc), "--alg", algorithm, "-o", str(out)]

    def result(code: int) -> Result:
        if code != 0:
            return Result("", [f"cli exit code {code}"])
        csv = _read_text(str(out))
        (record,) = parse_report(csv).records
        return _record_result(record, csv)

    def replay(tr) -> tuple[int, list[dict]]:
        text = tr.call("cli.read_document", _read_text, str(doc))
        if algorithm == "jobs":
            subject = tr.call("model.document_to_jobset", document_to_jobset,
                              text)
        else:
            subject = tr.call("model.document_to_instance",
                              document_to_instance, text)
            if not tr.call("model.validate_instance", validate_instance,
                           subject).ok:
                return 1, []
        record, trail = replay_evaluate(tr, subject, algorithm, doc.name)
        csv = tr.call("metrics_report.emit_report", emit_report,
                      EvaluationReport([record]))
        tr.call("cli.write_report", _write_text, str(out), csv)
        return 0, [trail]

    return Op(key, flows, lambda: cli.main(argv), result, replay, True)


def certify(tr, instance: Instance):
    """`order --emit-dual` plus the bound, at the flow and then the coflow
    level: order, check the dual, evaluate it, write its document."""
    outputs, trails = [], []
    for level, permute in (("flow", permute_flow_level),
                           ("coflow", permute_coflow_level)):
        perm, dual = tr.call(f"primal_dual.permute_{level}_level", permute,
                             instance)
        report = tr.call("primal_dual.check_dual_feasibility",
                         check_dual_feasibility, dual, instance)
        bound = tr.call("primal_dual.dual_objective", dual_objective,
                        dual, instance)
        doc = tr.call("primal_dual.dual_to_document", dual_to_document,
                      dual, instance)
        outputs.append((level, report.feasible, bound, doc))
        trails.append({"dual": dual, "doc_bytes": len(doc)})
    return outputs, trails


def certify_op(instance: Instance) -> Op:
    """Both levels make one op. A run holds only two or three rounds, and
    the median of a mix of flow- and coflow-level ops would fall in the gap
    between their times, moved by whichever two ops border it."""
    def result(outputs) -> Result:
        problems = []
        for level, feasible, bound, _ in outputs:
            if not feasible:
                problems.append(f"{level}: dual infeasible")
            if not bound > 0:
                problems.append(f"{level}: non-positive dual bound {bound}")
        return Result(_sha("".join(doc for *_, doc in outputs)), problems)
    return Op("flow+coflow", 2 * _flow_count(instance),
              lambda: certify(DIRECT, instance)[0], result,
              lambda tr: certify(tr, instance))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _flow_count(subject) -> int:
    return sum(len(c.flows) for c in subject.coflows)


LADDER_SEED = 77


def relabel(instance: Instance, seed: int) -> Instance:
    """`instance` with its ports and coflow ids permuted by `seed`."""
    rng = random.Random(seed)
    ports = list(range(1, instance.config.num_ports + 1))
    port = dict(zip(ports, rng.sample(ports, len(ports))))
    ids = sorted(c.id for c in instance.coflows)
    cid = dict(zip(ids, rng.sample(ids, len(ids))))
    coflows = sorted((Coflow.make(cid[c.id], c.release, c.weight,
                                  [(port[f.source], port[f.dest], f.size)
                                   for f in c.flows])
                      for c in instance.coflows), key=lambda c: c.id)
    return Instance(instance.config, tuple(coflows), PrecedenceDag.make(
        ids, [(cid[a], cid[b]) for a, b in instance.dag.edges]))


def ladder_instance(tr, n: int, seed: int) -> Instance:
    """The sparse ladder instance of size n: generator seed 77, N=50, m=5.

    Any other seed permutes its ports and coflow ids. A single generated
    instance of this size varies by about 20% in cost from one generator
    seed to the next (its DAG has between 1 and 2*sqrt(n) levels), which
    would swamp the run-to-run spread; a relabelled copy keeps the traffic
    and DAG shape, so every seed costs about the same work, while its
    tie-breaks and outputs differ.
    """
    inst = tr.call("generator.generate_instance", generate_instance,
                   GeneratorParams(n=n, num_ports=50, num_cores=5, deg=3,
                                   p=1.0, density_mode="sparse",
                                   seed=LADDER_SEED))
    if seed != LADDER_SEED:
        inst = relabel(inst, seed)
    text = tr.call("model.instance_to_document", instance_to_document, inst)
    return tr.call("model.document_to_instance", document_to_instance, text)


def build_sparse_500(seed: int, tr, work: Path) -> list[list[Op]]:
    inst = ladder_instance(tr, 500, seed)
    return [[evaluate_op(inst, "fdls"), evaluate_op(inst, "cdls")]]


def jobset_from_instance(instance: Instance, group_size: int) -> JobSet:
    """Jobs of `group_size` coflows by id, by the rule of the test suite's
    conftest helper. Releases are raised to the group maximum and edges
    between groups are dropped, so the result is always a valid job set."""
    ids = sorted(c.id for c in instance.coflows)
    by_id = instance.coflow_by_id()
    groups = [ids[i:i + group_size] for i in range(0, len(ids), group_size)]
    owner = {}
    jobs = []
    coflows = []
    for gi, group in enumerate(groups, start=1):
        release = max(by_id[k].release for k in group)
        weight = sum(by_id[k].weight for k in group)
        jobs.append(Job(gi, weight, tuple(group)))
        for k in group:
            owner[k] = gi
            c = by_id[k]
            coflows.append(Coflow.make(k, release, c.weight,
                                       [(f.source, f.dest, f.size)
                                        for f in c.flows]))
    edges = [(a, b) for a, b in instance.dag.edges if owner[a] == owner[b]]
    return JobSet(instance.config, tuple(jobs), tuple(coflows),
                  PrecedenceDag.make(ids, edges))


# Each seed is a new set of instances, and a set's median op time moves with
# its instances: over ten seeds, sets of 34 put it 11% apart (quartile
# distance over median), sets of 102 6%. One pass over 68 fits a run.
DENSE_INSTANCES = 68
DENSE_JOB_SIZE = 5


def build_dense_sweep(seed: int, tr, work: Path,
                      instances: int = DENSE_INSTANCES) -> list[list[Op]]:
    """One round per instance: `eval` with fdls, cdls and jobs.

    Instance i uses generator seed 1000 * seed + i, so a smaller sweep (as
    the benchmark's tests run) is a prefix of the full one and shares its
    recorded digests. Odd instances have releases in [0, 25].
    """
    rounds = []
    for i in range(instances):
        params = GeneratorParams(n=25, num_ports=10, num_cores=5, deg=3,
                                 p=1.0, density_mode="dense",
                                 seed=1000 * seed + i,
                                 release_horizon=25 if i % 2 else 0)
        inst = tr.call("generator.generate_instance", generate_instance,
                       params)
        text = tr.call("model.instance_to_document", instance_to_document,
                       inst)
        inst = tr.call("model.document_to_instance", document_to_instance,
                       text)
        jobs_text = tr.call("model.jobset_to_document", jobset_to_document,
                            jobset_from_instance(inst, DENSE_JOB_SIZE))
        inst_doc = work / f"dense-{seed}-{i:02d}.json"
        jobs_doc = work / f"dense-{seed}-{i:02d}-jobs.json"
        _write_text(str(inst_doc), text)
        _write_text(str(jobs_doc), jobs_text)
        flows = _flow_count(inst)
        rounds.append([cli_op(f"i{i:02d}-{alg}", doc, alg, flows,
                              work / f"out-{alg}.csv")
                       for alg, doc in (("fdls", inst_doc),
                                        ("cdls", inst_doc),
                                        ("jobs", jobs_doc))])
    return rounds


def build_certify_2000(seed: int, tr, work: Path) -> list[list[Op]]:
    inst = ladder_instance(tr, 2000, seed)
    return [[certify_op(inst)]]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., list[list[Op]]]
    default_seed: int  # digests.json also holds a held-out seed's digests
    # Ops last seconds each: scale them by samples taken during them.
    sampled: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("sparse-500", build_sparse_500, 77, sampled=True),
    Workload("dense-sweep", build_dense_sweep, 0),
    Workload("certify-2000", build_certify_2000, 77, sampled=True),
)}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


class Checker:
    """Output checks, outside the timed region. An op fails if it raises, if
    a check on its output fails, or if its output differs from the digest
    recorded for this seed or from an earlier repeat of it in this run."""

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.seen: dict[str, str] = {}

    def digest(self, key: str, digest: str) -> list[str]:
        want = self.recorded.get(key, self.seen.setdefault(key, digest))
        if want != digest:
            return [f"{key}: digest {digest[:12]} differs from {want[:12]}"]
        return []

    def check(self, op: Op, raw, error: Exception | None
              ) -> tuple[Result | None, list[str]]:
        if error is not None:
            return None, [f"{op.key}: raised {error!r}"]
        try:
            res = op.result(raw)
        except Exception as exc:  # unreadable output fails the op
            return None, [f"{op.key}: output check raised {exc!r}"]
        problems = [f"{op.key}: {p}" for p in res.problems]
        if res.digest:
            problems += self.digest(op.key, res.digest)
        return res, problems


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------
# Other tenants of the host slow this process by up to 2x for seconds to
# minutes at a time. A fixed pure-Python reference timed in a short block
# right after a short timed part slows by the same factor, so set-ups and
# rounds of ops up to SCALED_ROUND_S long are scaled to the reference's
# nominal speed: its median repetition time on an otherwise idle 2-vCPU
# x86-64 VM under CPython 3.11.7. Blocks between rounds of 8 s or more do
# not track the speed during them; such rounds are sampled (see `Sampler`)
# or, in a workload that is not, reported as measured.
REFERENCE_NOMINAL_S = 0.008
# A block lasts at least this long, or this share of the part it follows.
REFERENCE_BLOCK_S = 0.05
REFERENCE_BLOCK_SHARE = 0.05
SCALED_ROUND_S = 5.0


def reference_work() -> float:
    """Fixed work independent of coflow_forge: tuple-keyed dict building,
    a keyed sort and float arithmetic."""
    table = {}
    for i in range(12000):
        table[(i * 7919) % 10007, i % 13] = i * 0.5
    total = 0.0
    for (a, b), v in sorted(table.items(), key=lambda kv: (kv[1], kv[0])):
        total += a * b - v
    return total


def reference_seconds(budget: float) -> float:
    """Median time of one reference repetition over about `budget` s."""
    times = []
    start = time.perf_counter()
    while len(times) < 5 or time.perf_counter() - start < budget:
        t = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Speed:
    """Scale factors to nominal speed for consecutive timed parts, each
    judged by the reference blocks run just before and just after it."""

    def __init__(self) -> None:
        self.last = reference_seconds(REFERENCE_BLOCK_S)

    def scaled(self, seconds: float) -> float:
        """`seconds`, taken by the part that just ended, at nominal speed."""
        block = reference_seconds(max(REFERENCE_BLOCK_S,
                                      REFERENCE_BLOCK_SHARE * seconds))
        around = (self.last + block) / 2
        self.last = block
        return seconds * REFERENCE_NOMINAL_S / around


# Ops of several seconds are scaled by samples taken during them instead: a
# SIGALRM handler times one reference repetition every SAMPLE_EVERY_S of
# wall time. Each sample's speed is nominal over its time, and the op time,
# less the handlers' own time, is multiplied by the mean speed of the
# round's samples: at uniform wall-time intervals, that mean is the share
# of nominal speed the round ran at.
SAMPLE_EVERY_S = 0.25


class Sampler:
    """Reference repetitions timed by a SIGALRM handler while armed."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        # A collection of the op's whole heap must not land in a sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_work()
            self.times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            self.stolen += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def timed(self, fn: Callable, *args):
        """`_timed(fn, *args)`, armed, less the handlers' time."""
        stolen = self.stolen
        with self:
            out, error, dt = _timed(fn, *args)
        return out, error, dt - (self.stolen - stolen)

    def speed(self, first: int) -> float:
        """Mean share of nominal speed over the samples from `first` on."""
        return statistics.fmean(REFERENCE_NOMINAL_S / t
                                for t in self.times[first:])


def _timed(fn: Callable, *args):
    start = time.perf_counter()
    try:
        out, error = fn(*args), None
    except Exception as exc:  # an op that raises is a failed op
        out, error = None, exc
    return out, error, time.perf_counter() - start


def run_measured(workload: Workload, seed: int, seconds: float, work: Path,
                 recorded: dict[str, str], setups: int = 1,
                 speed: Speed | None = None, **build_args) -> dict:
    """Untraced closed loop. Every round runs once; further passes over
    every round run while one more, at the mean pass time so far, would end
    within `seconds` of op time, so each op is timed equally often. Checks run between ops and are not timed. Set-ups are also
    given at nominal speed (see `Speed`), and so are ops: those of a
    sampled workload by the samples taken during their round (see
    `Sampler`), others in rounds up to SCALED_ROUND_S long by the blocks
    around their round, and the rest as measured. Peak RSS is read after
    the first pass over every round, so that the number of rounds that fit
    does not move it."""
    speed = speed or Speed()
    sampler = Sampler() if workload.sampled else None
    setup_times, setup_scaled = [], []
    for _ in range(setups):
        start = time.perf_counter()
        rounds = workload.build(seed, DIRECT, work, **build_args)
        setup_times.append(time.perf_counter() - start)
        setup_scaled.append(speed.scaled(setup_times[-1]))

    checker = Checker(recorded)
    samples: list[float] = []
    scaled: list[float] = []
    failures: list[str] = []
    flows = 0
    ratios: dict[str, float] = {}
    elapsed = 0.0
    done = 0
    while (done < len(rounds) or done % len(rounds)
           or elapsed * (done + len(rounds)) / done <= seconds):
        first = len(samples)
        first_sample = len(sampler.times) if sampler else 0
        for op in rounds[done % len(rounds)]:
            raw, error, dt = (sampler.timed(op.run) if sampler
                              else _timed(op.run))
            elapsed += dt
            samples.append(dt)
            flows += op.flows
            res, problems = checker.check(op, raw, error)
            del raw  # an op's output must not weigh on the next op's RSS
            if problems:
                failures.append("; ".join(problems))
            elif res.record is not None:
                ratios.setdefault(op.key, res.record.ratio)
        taken = sum(samples[first:])
        if sampler and len(sampler.times) > first_sample:
            factor = sampler.speed(first_sample)
        elif 0 < taken <= SCALED_ROUND_S:
            factor = speed.scaled(taken) / taken
        else:
            factor = 1.0
        scaled += [dt * factor for dt in samples[first:]]
        done += 1
        if done == len(rounds):
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_times": setup_times,
        "setup_scaled": setup_scaled,
        "samples": samples,
        "scaled": scaled,
        "elapsed": elapsed,
        "flows": flows,
        "ratios": ratios,
        "rounds": done,
        "failures": failures,
        "rss_mb": rss_kb / 1024.0,
    }


def run_traced(workload: Workload, seed: int, work: Path,
               recorded: dict[str, str], **build_args) -> dict:
    """Every op once untraced and right after it once as its traced
    replay, so that both see about the same machine speed.

    The replay must give the untraced output byte for byte. Counts read the
    replay's schedules, duals, assignments and documents.
    """
    tr = Tracer()
    rounds = workload.build(seed, tr, work, **build_args)
    ops = [op for rnd in rounds for op in rnd]
    checker = Checker(recorded)
    problems: dict[str, list[str]] = {op.key: [] for op in ops}
    counts = dict.fromkeys((name for name, _ in LAYER_COUNTS), 0.0)
    untraced: dict[str, float] = {}
    replayed: dict[str, float] = {}
    covered: dict[str, float] = {}
    ratios: dict[str, float] = {}
    for op in ops:
        raw, error, untraced[op.key] = _timed(op.run)
        want, found = checker.check(op, raw, error)
        del raw
        problems[op.key] += found
        tr.op = op.key
        first = len(tr.spans)
        out, error, replayed[op.key] = _timed(op.replay, tr)
        covered[op.key] = sum(end - start
                              for _, start, end, _ in tr.spans[first:])
        res, found = checker.check(op, None if error else out[0], error)
        problems[op.key] += found
        if res is None:
            continue
        problems[op.key] += _replay_problems(op.key, res, want, out[1],
                                             checker)
        if res.record is not None:
            ratios[op.key] = res.record.ratio
        for trail in out[1]:
            _count(counts, trail)

    layer = {name: 0.0 for name in LAYER_CALLS}
    calls = {name: 0 for name in LAYER_CALLS}
    for name, start, end, _ in tr.spans:
        layer[name] += end - start
        calls[name] += 1
    sim_s = layer["simulator.simulate"] + layer["simulator.simulate_jobs"]
    if counts["simulator.segments"]:
        counts["simulator.us_per_segment"] = (
            sim_s * 1e6 / counts["simulator.segments"])
    counts["cli.residual.s"] = sum(untraced[op.key] - covered[op.key]
                                   for op in ops if op.via_cli)
    counts["trace.coverage"] = sum(covered.values()) / sum(replayed.values())
    counts["trace.overhead_frac"] = (sum(replayed.values())
                                     / sum(untraced.values()) - 1.0)
    return {
        "ops": len(ops),
        "layer": layer,
        "calls": calls,
        "counts": counts,
        "ratios": ratios,
        "failures": ["; ".join(p) for p in problems.values() if p],
        "tracer": tr,
        "digests": dict(checker.seen),
    }


def _replay_problems(key: str, res: Result, want: Result | None,
                     trails: list[dict], checker: Checker) -> list[str]:
    """The replay must equal the untraced op, and its schedules and duals
    must pass the audit and the feasibility check."""
    problems = []
    if want is None or want.digest != res.digest:
        problems.append(f"{key}: replay output differs from the untraced op")
    elif res.record is not None and (
            (res.record.twc, res.record.dual, res.record.ratio)
            != (want.record.twc, want.record.dual, want.record.ratio)):
        problems.append(f"{key}: replay twc/dual/ratio differ")
    for trail in trails:
        if trail.get("audit_ok") is False:
            problems.append(f"{key}: verify_schedule rejects the schedule")
        if trail.get("dual_feasible") is False:
            problems.append(f"{key}: dual infeasible")
        if trail.get("schedule") is not None:
            problems += checker.digest(
                key + ".schedule",
                _sha(schedule_to_document(trail["schedule"])))
    return problems


def _count(counts: dict[str, float], trail: dict) -> None:
    schedule = trail.get("schedule")
    if schedule is not None:
        segments = len(schedule.segments)
        counts["simulator.segments"] += segments
        counts["simulator.preemptions"] += segments - len(
            schedule.flow_completions)
        counts["simulator.events"] += len(
            {t for seg in schedule.segments for t in (seg.start, seg.end)})
    dual = trail.get("dual")
    if dual is not None:
        counts["primal_dual.beta_records"] += len(dual.beta)
        counts["primal_dual.alpha_records"] += len(dual.alpha)
        counts["primal_dual.gamma_edges"] += len(dual.gamma)
        counts["primal_dual.snapshot_ids"] += sum(len(rec.coflows)
                                                  for rec in dual.beta)
    counts["primal_dual.dual_doc_bytes"] += trail.get("doc_bytes", 0)
    assignment = trail.get("assignment")
    if assignment is not None:
        counts["assignment.port_load_skew"] = max(
            counts["assignment.port_load_skew"], port_load_skew(assignment))


def port_load_skew(assignment) -> float:
    """Largest (port, side, core) load over that port's total load / m."""
    worst = 0.0
    for load in (assignment.load_in, assignment.load_out):
        m = load.shape[1]
        for row in load.tolist():
            total = sum(row)
            if total:
                worst = max(worst, max(row) * m / total)
    return worst


def spans_path(workload: str, seed: int) -> Path:
    return HERE.parent / ".perfbench" / f"spans-{workload}-{seed}.jsonl"


def work_dir(workload: str) -> Path:
    path = HERE.parent / ".perfbench" / f"work-{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
