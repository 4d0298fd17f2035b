"""Primal-dual ordering of coflows and jobs, plus the dual lower bound.

The three permutation builders share one entity map (`_Entities`: each
coflow, or each job's coflows), which the certificate reads too, and one
right-to-left loop. Each iteration fills the last open position: either the
alpha rule fires (the most recently released entity is pushed to the back
because its release dominates the remaining bottleneck load) or the beta rule
raises the dual variable of the bottleneck port until some entity's constraint
becomes tight. An entity picked by the beta rule that still has unscheduled
successors is traded, via a gamma variable on the final chain edge, for a
successor-free descendant so the emitted order can respect precedence.

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
    Instance, InvalidInstanceError, JobSet, entries, fields, parse_json,
    typed, validate_instance, validate_jobset)

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

    `coflows` freezes, in ascending id order, the coflows that were
    unscheduled at that moment (at the job level, those of the unscheduled
    jobs); flow and job level keep only those with load at the port, and at
    flow level the frozen set is their flows there.
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

def _run_engine(ent: _Entities, load: dict[str, np.ndarray],
                successors: Mapping[int, Sequence[int]], m: int,
                kappa: float, kind: str,
                snapshot_ids) -> tuple[Permutation, DualSolution]:
    n = len(ent.ids)
    port_in = load["in"].sum(axis=0)
    port_out = load["out"].sum(axis=0)
    successors = {ent.index[a]: sorted(ent.index[b] for b in bs)
                  for a, bs in successors.items()}
    resid = ent.weight.copy()
    unsched = np.ones(n, dtype=bool)

    alpha: dict[tuple[str, int, int], float] = {}
    beta: list[BetaRecord] = []
    gamma: dict[tuple[int, int], float] = {}
    sigma = [0] * n
    scale = max(1.0, float(ent.weight.max())) if n else 1.0

    for pos in range(n, 0, -1):
        mu1, mu2 = int(np.argmax(port_in)), int(np.argmax(port_out))
        # Strict ">" so the output side wins ties, matching the branch test.
        if port_in[mu1] > port_out[mu2]:
            side, port = "in", mu1
            bottleneck = port_in[mu1]
        else:
            side, port = "out", mu2
            bottleneck = port_out[mu2]
        loads = load[side][:, port]

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

            t0, t1 = -1, cand
            while True:
                nxt = next((s for s in successors.get(t1, ())
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

            frozen = snapshot_ids(unsched, side, port + 1, loads)
            beta.append(BetaRecord(side, port + 1, frozen, f1))
            # Scheduled residuals go stale: nothing reads them again.
            resid -= f1 * loads
            chosen = t1

        sigma[pos - 1] = ent.ids[chosen]
        unsched[chosen] = False
        port_in -= load["in"][chosen]
        port_out -= load["out"][chosen]
        if unsched.any():
            worst = float(resid[unsched].min())
            if worst < -1e-6 * scale:
                raise RuntimeError(
                    f"internal error: residual weight went negative ({worst})")
            np.clip(resid, 0.0, None, out=resid)

    dual = DualSolution(kind, kappa, alpha, tuple(beta), gamma)
    return Permutation(tuple(sigma)), dual


def _permute(subject: Instance | JobSet, kappa: float,
             kind: str) -> tuple[Permutation, DualSolution]:
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    report = validate_jobset(subject) if isinstance(subject, JobSet) \
        else validate_instance(subject)
    if not report.ok:
        raise InvalidInstanceError(report.violations)
    demand = _PortDemand(subject)
    ent = _Entities(subject, kind, demand)
    # entity[r] is the entity of coflow row r, whose load sums its rows.
    entity = np.empty(demand.n, dtype=np.intp)
    entity[[r for rows in ent.rows for r in rows]] = np.repeat(
        np.arange(len(ent.ids)), [len(rows) for rows in ent.rows])
    load = {}
    for side, table in demand.load.items():
        load[side] = np.zeros((len(ent.ids), table.shape[1]))
        np.add.at(load[side], entity, table)
    # The coflows in ascending id order: their rows, entities and ids.
    ids = sorted(demand.row)
    rows = demand.rows(ids)
    owner = entity[rows]
    id_array = np.array(ids, dtype=object)

    def snapshot(unsched, side, port, loads):
        # One masked gather; coflow-level entities are these coflows.
        if kind == JOB_LEVEL:
            unsched, loads = unsched[owner], demand.at(side, port)[0][rows]
        if kind != COFLOW_LEVEL:
            unsched = unsched & (loads > 0)
        return tuple(id_array[unsched].tolist())

    successors = {} if kind == JOB_LEVEL else subject.dag.successors()
    return _run_engine(ent, load, successors, subject.config.num_cores,
                       kappa, kind, snapshot)


def permute_flow_level(instance: Instance,
                       kappa: float = DEFAULT_KAPPA
                       ) -> tuple[Permutation, DualSolution]:
    """Order coflows for flow-level scheduling; returns (order, feasible dual)."""
    return _permute(instance, kappa, FLOW_LEVEL)


def permute_coflow_level(instance: Instance,
                         kappa: float = DEFAULT_KAPPA
                         ) -> tuple[Permutation, DualSolution]:
    """Order coflows for coflow-level scheduling; returns (order, dual)."""
    return _permute(instance, kappa, COFLOW_LEVEL)


def permute_jobs(jobset: JobSet,
                 kappa: float = DEFAULT_KAPPA
                 ) -> tuple[Permutation, DualSolution]:
    """Order jobs; gamma stays empty since jobs have no mutual precedence."""
    return _permute(jobset, kappa, JOB_LEVEL)


# ---------------------------------------------------------------------------
# entities and port demand, dual objective and feasibility
# ---------------------------------------------------------------------------

class _PortDemand:
    """Every coflow's load and sum of squared flow sizes at every (side, port).

    `load[side]` and `squares[side]` are n x N float64 tables whose rows
    follow the subject's coflow order and whose column p - 1 is port p. The
    subject's flows must lie on ports 1..N, as `validate_instance` checks.
    Sums are exact while they stay below 2**53, as the sizes are integers.
    """

    def __init__(self, subject: Instance | JobSet):
        coflows = subject.coflows
        self.n, ports = len(coflows), subject.config.num_ports
        self.row = {c.id: i for i, c in enumerate(coflows)}
        flows = [f for c in coflows for f in c.flows]
        # A flow's cell in the flattened table is row * N + port - 1.
        first = np.repeat(np.arange(self.n) * ports,
                          [len(c.flows) for c in coflows]) - 1
        size = np.array([f.size for f in flows], dtype=np.float64)
        self.load, self.squares = {}, {}
        for side, end in (("in", "source"), ("out", "dest")):
            cell = first + np.array([getattr(f, end) for f in flows], np.intp)
            for table, weights in ((self.load, size),
                                   (self.squares, size * size)):
                table[side] = np.bincount(cell, weights, self.n * ports
                                          ).reshape(self.n, ports)

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        try:
            return np.fromiter(map(self.row.__getitem__, ids), np.intp,
                               len(ids))
        except KeyError as exc:
            raise ValueError(
                f"dual references unknown coflow {exc.args[0]}") from None

    def at(self, side: str, port: int) -> tuple[np.ndarray, np.ndarray]:
        """(load, sum of squared flow sizes) of every coflow at the port: 0
        outside ports 1..N. Sides other than "in" count as "out"."""
        side = "in" if side == "in" else "out"
        if not 1 <= port <= self.load[side].shape[1]:
            return np.zeros(self.n), np.zeros(self.n)
        return self.load[side][:, port - 1], self.squares[side][:, port - 1]


class _Entities:
    """The entities of one dual level: each coflow at the flow and coflow
    levels, each job at the job level.

    `ids` ascend; `weight`, `release` (that of the entity's first coflow) and
    `rows` (its coflows' rows in `demand`, a job's in the job's own order)
    follow them. Raises ValueError for an unknown kind, for a job level
    without a JobSet and for a job naming a coflow not in `subject`.
    """

    def __init__(self, subject: Instance | JobSet, kind: str,
                 demand: _PortDemand):
        if kind == JOB_LEVEL:
            if not isinstance(subject, JobSet):
                raise ValueError("job-level dual requires a JobSet")
            found = sorted(subject.jobs, key=lambda j: j.id)
            self.rows = [demand.rows(j.coflows).tolist() for j in found]
        elif kind in (FLOW_LEVEL, COFLOW_LEVEL):
            found = sorted(subject.coflows, key=lambda c: c.id)
            self.rows = [[demand.row[c.id]] for c in found]
        else:
            raise ValueError(f"unknown dual kind {kind!r}")
        self.ids = [e.id for e in found]
        self.index = {e: i for i, e in enumerate(self.ids)}
        self.weight = np.array([e.weight for e in found], dtype=np.float64)
        self.release = np.array([subject.coflows[r[0]].release
                                 for r in self.rows], dtype=np.int64)


def _slot_demand(coflow: Coflow, side: str, port: int) -> int:
    # The alpha variable of the flow-level dual sits on slot (port, 1) or
    # (1, port); its objective coefficient is that slot's demand.
    slot = (port, 1) if side == "in" else (1, port)
    return sum(f.size for f in coflow.flows if (f.source, f.dest) == slot)


def _entities_of(dual: DualSolution, subject: Instance | JobSet
                 ) -> tuple[_PortDemand, _Entities]:
    """The port demand of `subject` and the entities of the dual's level.
    Raises ValueError for a dual of unknown kind, or one that names an entity
    or coflow not in `subject`."""
    demand = _PortDemand(subject)
    ent = _Entities(subject, dual.kind, demand)
    if dual.kind == JOB_LEVEL and dual.gamma:
        raise ValueError("job-level dual must not carry gamma variables")
    demand.rows([k for edge in dual.gamma for k in edge])
    what = "job" if dual.kind == JOB_LEVEL else "coflow"
    for _, _, e in dual.alpha:
        if e not in ent.index:
            raise ValueError(f"dual references unknown {what} {e}")
    return demand, ent


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
    demand, ent = _entities_of(dual, subject)

    # An alpha pays the release of its entity's first coflow plus the slot
    # demand at flow level, the port load at coflow level, or 0 at job level.
    total = 0.0
    for (side, port, e), value in dual.alpha.items():
        row = ent.rows[ent.index[e]][0]
        c = subject.coflows[row]
        term = (_slot_demand(c, side, port) if dual.kind == FLOW_LEVEL
                else float(demand.at(side, port)[0][row])
                if dual.kind == COFLOW_LEVEL else 0)
        total += value * (c.release + term)

    # Flow level sums the squares of the flow sizes; coflow and job level
    # treat each coflow's port load as one item.
    for rec in dual.beta:
        idx = demand.rows(rec.coflows)
        load, squares = demand.at(rec.side, rec.port)
        s = load[idx]
        q = squares[idx] if dual.kind == FLOW_LEVEL else s * s
        total += rec.value * _f_sums(float(s.sum()), float(q.sum()), m)
    return total


def check_dual_feasibility(dual: DualSolution, subject: Instance | JobSet,
                           rel_tol: float = 1e-6) -> FeasibilityReport:
    """Evaluate every dual constraint: feasible iff every dual value is
    non-negative and every LHS <= w (1 + rel_tol). An entity's LHS is the
    sum over its coflow rows, plus its alpha."""
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    demand, ent = _entities_of(dual, subject)
    beta_lhs = np.zeros(demand.n)
    for rec in dual.beta:
        idx = demand.rows(rec.coflows)
        # add.at adds a repeated id once per occurrence, in record order.
        np.add.at(beta_lhs, idx,
                  rec.value * demand.at(rec.side, rec.port)[0][idx])
    row_lhs = beta_lhs.tolist()
    for (a, b), value in dual.gamma.items():
        row_lhs[demand.row[b]] += value
        row_lhs[demand.row[a]] -= value

    lhs = {e: sum(row_lhs[i] for i in r) for e, r in zip(ent.ids, ent.rows)}
    for (_, _, e), value in dual.alpha.items():
        lhs[e] += value
    feasible = min([*dual.alpha.values(), *(r.value for r in dual.beta),
                    *dual.gamma.values()], default=0.0) >= 0

    worst = 0.0
    tight: list[int] = []
    for eid, w in zip(ent.ids, ent.weight.tolist()):
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
#  "value"}]}. Beta snapshots list coflow ids in ascending order at every
#  level; at flow level each id becomes the [src, dst, coflow] triples of
#  its flows at the record's port (src for side "in", dst for "out"). The
#  reader keeps only the coflow id of a triple; whether the triple names a
#  flow of the instance can be checked only with the instance in hand.

# Snapshot items sit at depth 8 of the indent=2 rendering, their inner
# values (flow-level triples) at depth 10.
_ITEM = "\n" + " " * 8
_INNER = "\n" + " " * 10


def _snapshot_items(dual: DualSolution, subject: Instance | JobSet):
    """(side, port) -> {coflow id: its rendered snapshot items} over every
    coflow of `subject`, with "" where a coflow has none. Coflow- and
    job-level items are the ids; flow-level items are the triples of the
    coflow's flows at the port."""
    empty = {c.id: "" for c in subject.coflows}
    if dual.kind != FLOW_LEVEL:
        ids = {k: str(k) for k in empty}
        return lambda side, port: ids
    triples: dict[tuple[str, int], dict[int, list[str]]] = {}
    for c in subject.coflows:
        for f in sorted(c.flows, key=lambda f: (f.source, f.dest)):
            text = (f"[{_INNER}{f.source},{_INNER}{f.dest},{_INNER}{c.id}"
                    f"{_ITEM}]")
            for key in (("in", f.source), ("out", f.dest)):
                triples.setdefault(key, {}).setdefault(c.id, []).append(text)
    columns = {key: {**empty, **{k: ("," + _ITEM).join(texts)
                                 for k, texts in by_id.items()}}
               for key, by_id in triples.items()}
    return lambda side, port: columns.get((side, port), empty)


def dual_to_document(dual: DualSolution, subject: Instance | JobSet) -> str:
    items = _snapshot_items(dual, subject)

    def snapshot(rec: BetaRecord) -> str:
        column = items(rec.side, rec.port)
        try:
            body = ("," + _ITEM).join(
                filter(None, map(column.__getitem__, sorted(rec.coflows))))
        except KeyError as exc:
            raise ValueError(
                f"dual references unknown coflow {exc.args[0]}") from None
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
