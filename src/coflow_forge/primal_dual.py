"""Primal-dual ordering of coflows and jobs, plus the dual lower bound.

The three permutation builders share one right-to-left loop. Each iteration
fills the last open position: either the alpha rule fires (the most recently
released entity is pushed to the back because its release dominates the
remaining bottleneck load) or the beta rule raises the dual variable of the
bottleneck port until some entity's constraint becomes tight. An entity picked
by the beta rule that still has unscheduled successors is traded, via a gamma
variable on the final chain edge, for a successor-free descendant so the
emitted order can respect precedence.

All dual variables stay non-negative, every constraint stays feasible and the
constraint of each placed entity is tight at the moment of placement, which
makes the dual objective a certified lower bound on the optimal total
weighted completion time.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    INTEGER, LIST, NUMBER, SIDE, STRING, TRIPLE, Coflow, DocumentError,
    Instance, InvalidInstanceError, JobSet, coflow_port_loads, entries,
    fields, parse_json, typed, validate_instance, validate_jobset)

FLOW_LEVEL = "flow-level"
COFLOW_LEVEL = "coflow-level"
JOB_LEVEL = "job-level"

DEFAULT_KAPPA = 0.5

# Tiny residual noise below this scale is rounding, not signal.
_EPS = 1e-9


@dataclass(frozen=True)
class Permutation:
    order: tuple[int, ...]


@dataclass(frozen=True)
class BetaRecord:
    """One raise of a port's dual variable.

    `coflows` freezes the unscheduled set at that moment; for flow-level
    duals the underlying subset is the flows of those coflows at the port.
    """

    side: str  # "in" | "out"
    port: int  # 1..N
    coflows: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class DualSolution:
    kind: str  # FLOW_LEVEL | COFLOW_LEVEL | JOB_LEVEL
    kappa: float
    alpha: dict[tuple[str, int, int], float]  # (side, port, entity id) -> value
    beta: tuple[BetaRecord, ...]
    gamma: dict[tuple[int, int], float]  # (pred, succ) -> value


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_violation: float  # worst relative overshoot of any constraint, >= 0
    tight_set: tuple[int, ...]
    lhs: dict[int, float] = field(default_factory=dict)


def f_set(sizes: Iterable[float], m: int) -> float:
    """(sum(d)^2 + sum(d^2)) / (2m) over a multiset of flow sizes."""
    total = 0.0
    squares = 0.0
    for d in sizes:
        total += d
        squares += d * d
    return _f_sums(total, squares, m)


def _f_sums(total: float, squares: float, m: int) -> float:
    if m < 1:
        raise ValueError("m must be >= 1")
    return (total * total + squares) / (2.0 * m)


# ---------------------------------------------------------------------------
# shared right-to-left engine
# ---------------------------------------------------------------------------

class _Entities:
    """Dense arrays for the entities being permuted (coflows or jobs)."""

    def __init__(self, ids: Sequence[int], release: Sequence[int],
                 weight: Sequence[float], load_in: np.ndarray,
                 load_out: np.ndarray,
                 successors: Mapping[int, Sequence[int]]):
        self.ids = list(ids)
        self.index = {e: i for i, e in enumerate(ids)}
        self.release = np.asarray(release, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.load_in = np.asarray(load_in, dtype=np.float64)
        self.load_out = np.asarray(load_out, dtype=np.float64)
        self.successors = {self.index[a]: sorted(self.index[b] for b in bs)
                           for a, bs in successors.items()}


def _run_engine(ent: _Entities, m: int, kappa: float, kind: str,
                snapshot_ids) -> tuple[Permutation, DualSolution]:
    n = len(ent.ids)
    port_in = ent.load_in.sum(axis=0)
    port_out = ent.load_out.sum(axis=0)
    resid = ent.weight.astype(np.float64).copy()
    unsched = np.ones(n, dtype=bool)

    alpha: dict[tuple[str, int, int], float] = {}
    beta: list[BetaRecord] = []
    gamma: dict[tuple[int, int], float] = {}
    sigma = [0] * n
    scale = max(1.0, float(ent.weight.max())) if n else 1.0

    for pos in range(n, 0, -1):
        mu1 = int(np.argmax(port_in))
        mu2 = int(np.argmax(port_out))
        # Strict ">" so the output side wins ties, matching the branch test.
        if port_in[mu1] > port_out[mu2]:
            side, port = "in", mu1
            loads = ent.load_in[:, mu1]
            bottleneck = port_in[mu1]
        else:
            side, port = "out", mu2
            loads = ent.load_out[:, mu2]
            bottleneck = port_out[mu2]

        krel = int(np.argmax(np.where(unsched, ent.release, -1)))
        cand_mask = unsched & (loads > 0)

        if ent.release[krel] > kappa * bottleneck / m or not cand_mask.any():
            # Alpha rule: release dominates (or, degenerately, nothing loads
            # the bottleneck port); raising alpha makes krel tight.
            chosen = krel
            alpha[(side, port + 1, ent.ids[krel])] = float(resid[krel])
        else:
            ratios = np.full(n, np.inf)
            np.divide(resid, loads, out=ratios, where=cand_mask)
            cand = int(np.argmin(ratios))
            f1 = float(ratios[cand])

            t1 = cand
            t0 = -1
            while True:
                nxt = next((s for s in ent.successors.get(t1, ())
                            if unsched[s]), None)
                if nxt is None:
                    break
                t0, t1 = t1, nxt
            if t1 != cand:
                g = float(resid[t1] - loads[t1] * f1)
                if g < -_EPS * scale:
                    raise RuntimeError(
                        "internal error: negative gamma for edge "
                        f"({ent.ids[t0]},{ent.ids[t1]}): {g}")
                if g > _EPS * scale:
                    gamma[(ent.ids[t0], ent.ids[t1])] = g
                    resid[t0] += g
                    resid[t1] -= g

            beta.append(BetaRecord(side, port + 1,
                                   snapshot_ids(unsched, side, port + 1, loads),
                                   f1))
            resid[unsched] -= f1 * loads[unsched]
            chosen = t1

        sigma[pos - 1] = ent.ids[chosen]
        unsched[chosen] = False
        port_in = port_in - ent.load_in[chosen]
        port_out = port_out - ent.load_out[chosen]
        if unsched.any():
            worst = float(resid[unsched].min())
            if worst < -1e-6 * scale:
                raise RuntimeError(
                    f"internal error: residual weight went negative ({worst})")
            np.clip(resid, 0.0, None, out=resid)

    dual = DualSolution(kind, kappa, alpha, tuple(beta), gamma)
    return Permutation(tuple(sigma)), dual


def _checked(subject: Instance | JobSet, kappa: float) -> None:
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    report = validate_jobset(subject) if isinstance(subject, JobSet) \
        else validate_instance(subject)
    if not report.ok:
        raise InvalidInstanceError(report.violations)


def _permute_coflows(instance: Instance, kappa: float,
                     kind: str) -> tuple[Permutation, DualSolution]:
    _checked(instance, kappa)
    coflows = sorted(instance.coflows, key=lambda c: c.id)
    load_in = np.zeros((len(coflows), instance.config.num_ports))
    load_out = np.zeros_like(load_in)
    for i, c in enumerate(coflows):
        load_in[i], load_out[i] = coflow_port_loads(c, instance.config)
    ent = _Entities([c.id for c in coflows], [c.release for c in coflows],
                    [c.weight for c in coflows], load_in, load_out,
                    instance.dag.successors())

    def snapshot(unsched, side, port, loads):
        # Flow level freezes only the coflows with flows at the port, whose
        # flows there form the frozen flow set; coflow level freezes the
        # whole unscheduled set, loaded or not.
        if kind == FLOW_LEVEL:
            unsched = unsched & (loads > 0)
        return tuple(ent.ids[i] for i in np.flatnonzero(unsched))

    return _run_engine(ent, instance.config.num_cores, kappa, kind, snapshot)


def permute_flow_level(instance: Instance,
                       kappa: float = DEFAULT_KAPPA
                       ) -> tuple[Permutation, DualSolution]:
    """Order coflows for flow-level scheduling; returns (order, feasible dual)."""
    return _permute_coflows(instance, kappa, FLOW_LEVEL)


def permute_coflow_level(instance: Instance,
                         kappa: float = DEFAULT_KAPPA
                         ) -> tuple[Permutation, DualSolution]:
    """Order coflows for coflow-level scheduling; returns (order, dual)."""
    return _permute_coflows(instance, kappa, COFLOW_LEVEL)


def permute_jobs(jobset: JobSet,
                 kappa: float = DEFAULT_KAPPA
                 ) -> tuple[Permutation, DualSolution]:
    """Order jobs; gamma stays empty since jobs have no mutual precedence."""
    _checked(jobset, kappa)
    jobs = sorted(jobset.jobs, key=lambda j: j.id)
    by_id = jobset.coflow_by_id()
    num_ports = jobset.config.num_ports
    n = len(jobs)
    load_in = np.zeros((n, num_ports))
    load_out = np.zeros((n, num_ports))
    release = []
    coflow_in = {}
    coflow_out = {}
    for c in jobset.coflows:
        coflow_in[c.id], coflow_out[c.id] = coflow_port_loads(c, jobset.config)
    for i, job in enumerate(jobs):
        for k in job.coflows:
            load_in[i] += coflow_in[k]
            load_out[i] += coflow_out[k]
        release.append(by_id[job.coflows[0]].release)

    ent = _Entities([j.id for j in jobs], release, [j.weight for j in jobs],
                    load_in, load_out, {})
    members = {ent.index[j.id]: sorted(j.coflows) for j in jobs}

    def snapshot(unsched, side, port, loads):
        # Freeze the coflows (not the jobs) carrying load at the port.
        per = coflow_in if side == "in" else coflow_out
        return tuple(k for i in np.flatnonzero(unsched) for k in members[i]
                     if per[k][port - 1] > 0)

    return _run_engine(ent, jobset.config.num_cores, kappa, JOB_LEVEL,
                       snapshot)


# The ordering stage of each algorithm, by algorithm name.
PERMUTE = {"fdls": permute_flow_level, "cdls": permute_coflow_level,
           "jobs": permute_jobs}


# ---------------------------------------------------------------------------
# dual objective and feasibility
# ---------------------------------------------------------------------------

class _PortDemand:
    """Every coflow's demand at a (side, port), computed once per call.

    Rows follow the subject's coflow order. Sides other than "in" count as
    "out". Sums are float64 and exact while they stay below 2**53, as the
    sizes are integers.
    """

    def __init__(self, subject: Instance | JobSet):
        coflows = subject.coflows
        self.n = len(coflows)
        self.row = {c.id: i for i, c in enumerate(coflows)}
        flows = [f for c in coflows for f in c.flows]
        self._owner = np.repeat(np.arange(len(coflows)),
                                [len(c.flows) for c in coflows])
        self._size = np.array([f.size for f in flows], dtype=np.float64)
        self._port = {"in": np.array([f.source for f in flows]),
                      "out": np.array([f.dest for f in flows])}
        self._cache: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        try:
            return np.fromiter(map(self.row.__getitem__, ids), np.intp,
                               len(ids))
        except KeyError as exc:
            raise ValueError(
                f"dual references unknown coflow {exc.args[0]}") from None

    def at(self, side: str, port: int) -> tuple[np.ndarray, np.ndarray]:
        """(load, sum of squared flow sizes) of every coflow at the port."""
        key = ("in" if side == "in" else "out", port)
        if key not in self._cache:
            mask = self._port[key[0]] == port
            owner, size = self._owner[mask], self._size[mask]
            self._cache[key] = (np.bincount(owner, size, self.n),
                                np.bincount(owner, size * size, self.n))
        return self._cache[key]


def _slot_demand(coflow: Coflow, side: str, port: int) -> int:
    # The alpha variable of the flow-level dual sits on slot (port, 1) or
    # (1, port); its objective coefficient is that slot's demand.
    for f in coflow.flows:
        if side == "in" and f.source == port and f.dest == 1:
            return f.size
        if side == "out" and f.source == 1 and f.dest == port:
            return f.size
    return 0


def dual_objective(dual: DualSolution,
                   subject: Instance | JobSet) -> float:
    """Value of the feasible dual solution: the certified lower bound.

    Gamma variables are kept as per-edge aggregates; the underlying per-slot
    variables are placed on a zero-coefficient slot, so the precedence terms
    contribute nothing here. That choice never overstates the certificate
    (any other distribution of the same aggregate is also feasible and only
    adds non-negative terms).
    """
    m = subject.config.num_cores
    demand = _PortDemand(subject)

    def coflow(k: int) -> Coflow:
        return subject.coflows[demand.rows((k,))[0]]

    total = 0.0
    if dual.kind == JOB_LEVEL:
        if not isinstance(subject, JobSet):
            raise ValueError("job-level dual requires a JobSet")
        if dual.gamma:
            raise ValueError("job-level dual must not carry gamma variables")
        jobs = {j.id: j for j in subject.jobs}
        for (side, port, t), value in dual.alpha.items():
            if t not in jobs:
                raise ValueError(f"dual references unknown job {t}")
            total += value * coflow(jobs[t].coflows[0]).release
    elif dual.kind in (FLOW_LEVEL, COFLOW_LEVEL):
        # Unknown references are an error even at zero coefficient.
        demand.rows([k for _, k in dual.gamma])
        for (side, port, k), value in dual.alpha.items():
            c = coflow(k)
            if dual.kind == FLOW_LEVEL:
                size = _slot_demand(c, side, port)
            else:
                size = float(demand.at(side, port)[0][demand.row[k]])
            total += value * (c.release + size)
    else:
        raise ValueError(f"unknown dual kind {dual.kind!r}")

    # Flow level sums the squares of the flow sizes; coflow and job level
    # treat each coflow's port load as one item.
    for rec in dual.beta:
        idx = demand.rows(rec.coflows)
        load, squares = demand.at(rec.side, rec.port)
        s = load[idx]
        q = squares[idx] if dual.kind == FLOW_LEVEL else s * s
        total += rec.value * _f_sums(float(s.sum()), float(q.sum()), m)
    return total


def constraint_lhs(dual: DualSolution,
                   subject: Instance | JobSet) -> dict[int, float]:
    """Left-hand side of every entity's dual constraint."""
    demand = _PortDemand(subject)
    beta_lhs = np.zeros(demand.n)
    for rec in dual.beta:
        idx = demand.rows(rec.coflows)
        # add.at adds a repeated id once per occurrence, in record order.
        np.add.at(beta_lhs, idx,
                  rec.value * demand.at(rec.side, rec.port)[0][idx])
    coflow_lhs = dict(zip(demand.row, beta_lhs.tolist()))
    for (a, b), value in dual.gamma.items():
        demand.rows((a, b))  # raises ValueError on an unknown id
        coflow_lhs[b] += value
        coflow_lhs[a] -= value

    if dual.kind == JOB_LEVEL:
        assert isinstance(subject, JobSet)
        lhs = {j.id: sum(coflow_lhs[k] for k in j.coflows)
               for j in subject.jobs}
        for (_, _, t), value in dual.alpha.items():
            if t not in lhs:
                raise ValueError(f"dual references unknown job {t}")
            lhs[t] += value
        return lhs

    for (_, _, k), value in dual.alpha.items():
        demand.rows((k,))
        coflow_lhs[k] += value
    return coflow_lhs


def check_dual_feasibility(dual: DualSolution, subject: Instance | JobSet,
                           rel_tol: float = 1e-6) -> FeasibilityReport:
    """Evaluate every dual constraint: feasible iff every dual value is
    non-negative and every LHS <= w (1 + rel_tol)."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    lhs = constraint_lhs(dual, subject)
    feasible = min([*dual.alpha.values(), *(r.value for r in dual.beta),
                    *dual.gamma.values()], default=0.0) >= 0
    if dual.kind == JOB_LEVEL:
        assert isinstance(subject, JobSet)
        weights = {j.id: float(j.weight) for j in subject.jobs}
    else:
        weights = {c.id: float(c.weight) for c in subject.coflows}

    worst = 0.0
    tight: list[int] = []
    for eid, w in sorted(weights.items()):
        excess = (lhs[eid] - w) / w
        worst = max(worst, excess)
        if excess > rel_tol:
            feasible = False
        if abs(lhs[eid] - w) <= rel_tol * w:
            tight.append(eid)
    return FeasibilityReport(feasible, worst, tuple(tight), lhs)


# ---------------------------------------------------------------------------
# dual document format
# ---------------------------------------------------------------------------
# {"kind": ..., "kappa": ..., "alpha": [{"side","port","id","value"}],
#  "beta": [{"side","port","snapshot","value"}], "gamma": [{"pred","succ",
#  "value"}]}. Flow-level beta snapshots list [src, dst, coflow] triples,
#  each a flow at the record's port (src for side "in", dst for "out");
#  coflow- and job-level snapshots list coflow ids. The reader keeps only
#  the coflow id of a triple; whether the triple names a flow of the
#  instance can be checked only with the instance in hand, so it is not.

# Snapshot items sit at depth 8 of the indent=2 rendering, their inner
# values (flow-level triples) at depth 10.
_ITEM = "\n" + " " * 8
_INNER = "\n" + " " * 10


def _snapshot_items(dual: DualSolution, subject: Instance | JobSet):
    """(side, port) -> the rendered snapshot items of every coflow row, with
    "" where a coflow has none. Coflow- and job-level items are the ids;
    flow-level items are the triples of the coflow's flows at the port."""
    n = len(subject.coflows)
    if dual.kind != FLOW_LEVEL:
        ids = np.array([str(c.id) for c in subject.coflows], dtype=object)
        return lambda side, port: ids
    triples: dict[tuple[str, int], dict[int, list[str]]] = {}
    for i, c in enumerate(subject.coflows):
        for f in sorted(c.flows, key=lambda f: (f.source, f.dest)):
            text = (f"[{_INNER}{f.source},{_INNER}{f.dest},{_INNER}{c.id}"
                    f"{_ITEM}]")
            for key in (("in", f.source), ("out", f.dest)):
                triples.setdefault(key, {}).setdefault(i, []).append(text)
    columns = {}
    for key, by_row in triples.items():
        columns[key] = np.full(n, "", dtype=object)
        for i, texts in by_row.items():
            columns[key][i] = ("," + _ITEM).join(texts)
    empty = np.full(n, "", dtype=object)
    return lambda side, port: columns.get((side, port), empty)


def dual_to_document(dual: DualSolution, subject: Instance | JobSet) -> str:
    demand = _PortDemand(subject)
    items = _snapshot_items(dual, subject)

    def snapshot(rec: BetaRecord) -> str:
        idx = demand.rows(sorted(rec.coflows))
        body = ("," + _ITEM).join(
            filter(None, items(rec.side, rec.port)[idx].tolist()))
        return f"[{_ITEM}{body}\n{' ' * 6}]" if body else "[]"

    # json renders everything but the snapshots, which are spliced in at the
    # null placeholders: '"snapshot": ' can only occur as that key.
    payload = {
        "kind": dual.kind,
        "kappa": dual.kappa,
        "alpha": [{"side": s, "port": p, "id": e, "value": v}
                  for (s, p, e), v in sorted(dual.alpha.items())],
        "beta": [{"side": rec.side, "port": rec.port, "snapshot": None,
                  "value": rec.value} for rec in dual.beta],
        "gamma": [{"pred": a, "succ": b, "value": v}
                  for (a, b), v in sorted(dual.gamma.items())],
    }
    head, *tails = json.dumps(payload, indent=2).split('"snapshot": null')
    out = [head]
    for rec, tail in zip(dual.beta, tails, strict=True):
        out += ['"snapshot": ', snapshot(rec), tail]
    out.append("\n")
    return "".join(out)


def document_to_dual(text: str) -> DualSolution:
    """Parse a dual document strictly: any malformed field raises
    DocumentError with a one-line message."""
    doc = parse_json(text, "dual document")
    kind, kappa, alphas, betas, gammas = fields(
        doc, "dual document", kind=STRING, kappa=NUMBER, alpha=LIST,
        beta=LIST, gamma=LIST)
    if kind not in (FLOW_LEVEL, COFLOW_LEVEL, JOB_LEVEL):
        raise DocumentError(f"unknown dual kind {kind!r}")

    alpha = {(side, port, eid): value
             for side, port, eid, value in entries(
                 alphas, "alpha entry", side=SIDE, port=INTEGER, id=INTEGER,
                 value=NUMBER)}
    beta = []
    for i, (side, port, snap, value) in enumerate(entries(
            betas, "beta entry", side=SIDE, port=INTEGER, snapshot=LIST,
            value=NUMBER)):
        where = f"beta entry {i}"
        if kind == FLOW_LEVEL:
            ids = set()
            for j, item in enumerate(snap):
                src, dst, k = typed(item, TRIPLE, f"{where} snapshot item {j}")
                if (src if side == "in" else dst) != port:
                    raise DocumentError(f"{where} snapshot item {j} {item} "
                                        f"is not a flow at {side} port {port}")
                ids.add(k)
            ids = sorted(ids)
        else:
            ids = [typed(item, INTEGER, f"{where} snapshot item {j}")
                   for j, item in enumerate(snap)]
        beta.append(BetaRecord(side, port, tuple(ids), value))
    gamma = {(pred, succ): value
             for pred, succ, value in entries(
                 gammas, "gamma entry", pred=INTEGER, succ=INTEGER,
                 value=NUMBER)}
    return DualSolution(kind, kappa, alpha, tuple(beta), gamma)
