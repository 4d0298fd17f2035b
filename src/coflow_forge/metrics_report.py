"""Objective values, empirical approximation ratios and theorem-bound checks.

The empirical approximation ratio divides an algorithm's total weighted
completion time by the dual objective, which certifies a lower bound on the
optimum; a ratio below one therefore indicates a bug, never luck.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields
from math import isfinite
from statistics import mean, pstdev
from typing import get_type_hints

from .model import (
    Instance,
    InvalidInstanceError,
    JobSet,
    is_conforming,
    longest_path_chi,
)
from .assignment import CoreAssignment, assign_coflows_cdls, assign_flows_fdls
from .primal_dual import (
    DEFAULT_KAPPA,
    DualSolution,
    Permutation,
    check_dual_feasibility,
    dual_objective,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
)
from .simulator import Schedule, simulate, simulate_jobs, verify_schedule

CSV_HEADER = "instance,seed,algorithm,n,m,N,chi,R,twc,dual,ratio,bound,conforming,ms"

# Each algorithm's (ordering, core assignment, takes a job set, bound kind);
# the jobs algorithm has no assignment stage: `simulate_jobs` assigns.
PIPELINE = {
    "fdls": (permute_flow_level, assign_flows_fdls, False, "flow"),
    "cdls": (permute_coflow_level, assign_coflows_cdls, False, "coflow"),
    "jobs": (permute_jobs, None, True, "job"),
}
ALGORITHMS = tuple(PIPELINE)


@dataclass(frozen=True)
class RunRecord:
    instance_id: str
    seed: int
    algorithm: str
    n: int
    m: int
    num_ports: int
    chi: int
    weight_ratio: float
    twc: float
    dual: float
    ratio: float
    bound: float
    conforming: bool
    ms: float


@dataclass
class EvaluationReport:
    records: list[RunRecord]


def total_weighted_completion(schedule: Schedule,
                              subject: Instance | JobSet) -> float:
    """Sum of weight times completion over coflows (or jobs for a JobSet)."""
    if isinstance(subject, JobSet):
        what, entities, done = "job", subject.jobs, schedule.job_completions
    else:
        what, entities, done = ("coflow", subject.coflows,
                                schedule.coflow_completions)
    total = 0.0
    for e in entities:
        if e.id not in done:
            raise ValueError(f"schedule lacks completion for {what} {e.id}")
        total += e.weight * done[e.id]
    return total


def approximation_ratio(alg_value: float, dual_bound: float) -> float:
    """Cost over bound. Both are 0 only for an instance without flows whose
    releases are all 0, which the schedule meets exactly: its ratio is 1.
    A side past float range has no ratio: InvalidInstanceError, so that a
    command names its file."""
    if alg_value == 0 and dual_bound == 0:
        return 1.0
    if not (isfinite(alg_value) and isfinite(dual_bound)):
        raise InvalidInstanceError([f"twc {alg_value} and dual {dual_bound} "
                                    "must both be finite"])
    if dual_bound <= 0:
        raise ValueError("degenerate bound: dual objective must be positive")
    return alg_value / dual_bound


def weight_ratio_R(subject: Instance | JobSet) -> float:
    """Ratio of maximum to minimum weight. A subject without coflows has
    none: InvalidInstanceError, so that a command names its file."""
    weights = [e.weight for e in (subject.jobs if isinstance(subject, JobSet)
                                  else subject.coflows)]
    if not weights:
        raise InvalidInstanceError(["empty instance has no weight ratio"])
    return max(weights) / min(weights)


def theorem_bound(kind: str, chi: int, m: int, R: float = 1.0,
                  with_release: bool = True,
                  conforming_weights: bool = True) -> float:
    """Closed-form approximation-ratio guarantee for conforming instances.

    Flow-level: 4*chi + 2 - 2/m with releases, 4*chi + 1 - 2/m without;
    with non-conforming weights the chi term scales by R and the release
    variant gains another R. Coflow-level trades the additive constants for
    a factor m. Job-level ordering never sets gamma, so the flow-level
    constants apply without any weight conformity requirement.
    """
    if chi < 1 or m < 1 or R < 1:
        raise ValueError("need chi >= 1, m >= 1, R >= 1")
    a = 1.0 if with_release else 0.0
    # The release term R is added only with releases: 0 * inf is nan.
    aR = R if with_release else 0.0
    if kind in ("flow", "job"):
        if conforming_weights or kind == "job":
            return 4.0 * chi + 1.0 + a - 2.0 / m
        return 4.0 * R * chi + aR + 1.0 - 2.0 / m
    if kind == "coflow":
        if conforming_weights:
            return 4.0 * chi * m + a
        return 4.0 * R * chi * m + aR
    raise ValueError(f"unknown bound kind {kind!r}")


def run_algorithm(subject: Instance | JobSet, algorithm: str,
                  kappa: float = DEFAULT_KAPPA
                  ) -> tuple[Permutation, DualSolution,
                             CoreAssignment | None, Schedule]:
    """Order, assign and transmit by the algorithm's `PIPELINE` stages;
    returns (permutation, dual, assignment or None for jobs, schedule)."""
    if algorithm not in PIPELINE:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    permute, assign, jobs, _ = PIPELINE[algorithm]
    if jobs != isinstance(subject, JobSet):
        raise ValueError(f"algorithm {algorithm!r} requires "
                         + ("a job set" if jobs else "an instance"))
    perm, dual = permute(subject, kappa)
    if assign is None:
        return perm, dual, None, simulate_jobs(subject, perm)
    assignment = assign(subject, perm)
    return perm, dual, assignment, simulate(subject, assignment, perm)


def evaluate(subject: Instance | JobSet, algorithm: str,
             kappa: float = DEFAULT_KAPPA, instance_id: str = "instance",
             seed: int = 0, timing: bool = False) -> RunRecord:
    """Run one algorithm end to end and assemble its report record.

    The schedule is audited before anything is reported; an infeasible
    schedule or dual is an internal error, not a data point.
    """
    started = time.perf_counter()
    _, dual, assignment, schedule = run_algorithm(subject, algorithm, kappa)
    violations = verify_schedule(schedule, subject, assignment).violations
    if violations:
        raise RuntimeError("internal error: infeasible schedule: "
                           + "; ".join(violations[:3]))
    m = subject.config.num_cores
    conforming = is_conforming(subject)
    chi = max(longest_path_chi(subject.dag), 1)
    R = weight_ratio_R(subject)
    with_release = any(c.release > 0 for c in subject.coflows)
    bound = theorem_bound(PIPELINE[algorithm][3], chi, m, R, with_release,
                          conforming)

    feas = check_dual_feasibility(dual, subject)
    if not feas.feasible:
        raise RuntimeError("internal error: infeasible dual solution "
                           f"(violation {feas.max_violation})")
    twc = total_weighted_completion(schedule, subject)
    lower = dual_objective(dual, subject)
    ratio = approximation_ratio(twc, lower)
    ms = (time.perf_counter() - started) * 1000.0 if timing else 0.0
    return RunRecord(instance_id, seed, algorithm, len(subject.coflows), m,
                     subject.config.num_ports, chi, R, twc, lower, ratio,
                     bound, conforming, ms)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: EvaluationReport, format: str = "csv") -> str:
    """Render the report as CSV rows or a per-algorithm summary."""
    records = sorted(report.records,
                     key=lambda r: (r.instance_id, r.algorithm, r.seed))
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows([_csv_cell(getattr(r, f.name))
                          for f in fields(RunRecord)] for r in records)
        return out.getvalue()
    if format == "summary":
        by_alg: dict[str, list[float]] = {}
        for r in records:
            by_alg.setdefault(r.algorithm, []).append(r.ratio)
        lines = []
        for alg in sorted(by_alg):
            ratios = by_alg[alg]
            lines.append(f"{alg}: runs={len(ratios)} "
                         f"mean_ratio={mean(ratios):.6f} "
                         f"stddev={pstdev(ratios):.6f} "
                         f"max_ratio={max(ratios):.6f}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def parse_report(text: str) -> EvaluationReport:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or rows[0] != CSV_HEADER.split(","):
        raise ValueError("missing or unexpected CSV header")
    types = list(get_type_hints(RunRecord).values())
    records = []
    for i, row in enumerate(rows[1:], 2):
        if len(row) != len(types):
            raise ValueError(f"CSV row {i} has {len(row)} cells, not "
                             f"{len(types)}: {row}")
        records.append(RunRecord(*(cell == "true" if t is bool else t(cell)
                                   for t, cell in zip(types, row))))
    return EvaluationReport(records)
