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

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Mapping, Sequence

import numpy as np

from .model import (
    INTEGER, LIST, NUMBER, SIDE, STRING, TRIPLE, Coflow, DocumentError,
    Instance, InvalidInstanceError, JobSet, JsonText, PortDemand, _int64,
    entries, fields, keyed, parse_json, render, typed, validate_instance,
    validate_jobset)

FLOW_LEVEL = "flow-level"
COFLOW_LEVEL = "coflow-level"
JOB_LEVEL = "job-level"

DEFAULT_KAPPA = 0.5

# Tiny residual noise below this scale is rounding, not signal.
_EPS = 1e-9
# A dual constraint's LHS may pass its weight by this share; within it, tight.
_REL_TOL = 1e-6


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


def _f_sums(total: float, squares: float, m: int) -> float:
    """f(S) = (sum(d)^2 + sum(d^2)) / (2m), from S's sum and sum of squares."""
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
    column = _port_major(load)
    resid = ent.weight.copy()
    unsched = np.ones(n, dtype=bool)
    # The latest-released unscheduled entity is the first unplaced one in
    # this order, which breaks ties by the smallest index.
    by_release = np.argsort(-ent.release, kind="stable").tolist()
    latest = 0

    alpha: dict[tuple[str, int, int], float] = {}
    beta: list[BetaRecord] = []
    gamma: dict[tuple[int, int], float] = {}
    sigma = [0] * n
    scale = float(ent.weight.max(initial=1.0))

    for pos in range(n, 0, -1):
        mu1, mu2 = int(port_in.argmax()), int(port_out.argmax())
        # Strict ">" so the output side wins ties, matching the branch test.
        if port_in[mu1] > port_out[mu2]:
            side, port = "in", mu1
            bottleneck = port_in[mu1]
        else:
            side, port = "out", mu2
            bottleneck = port_out[mu2]
        loads = column(side, port + 1)

        while not unsched[by_release[latest]]:
            latest += 1
        krel = by_release[latest]
        cands = (unsched & (loads > 0)).nonzero()[0]

        if ent.release[krel] > kappa * bottleneck / m or not len(cands):
            # Alpha rule: release dominates (or, degenerately, nothing loads
            # the bottleneck port); raising alpha makes krel tight.
            chosen = krel
            alpha[(side, port + 1, ent.ids[krel])] = float(resid[krel])
        else:
            # argmin over the ascending candidates picks the smallest index.
            cand_loads = loads[cands]
            ratios = resid[cands] / cand_loads
            i = int(ratios.argmin())
            cand, f1 = int(cands[i]), float(ratios[i])

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
            chosen = t1
            # Only the candidates' residuals fall (t0's rose by gamma), and
            # only theirs need the check and the clip; the chosen one's goes
            # stale, as nothing reads a placed residual again.
            left = resid[cands] - f1 * cand_loads
            worst = float(left[cands != chosen].min(initial=0.0))
            if worst < -1e-6 * scale:
                raise RuntimeError(
                    f"internal error: residual weight went negative ({worst})")
            resid[cands] = np.maximum(left, 0.0)

        sigma[pos - 1] = ent.ids[chosen]
        unsched[chosen] = False
        port_in -= load["in"][chosen]
        port_out -= load["out"][chosen]

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
    demand = PortDemand(subject)
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
    rows = _rows(demand, ids)
    owner = entity[rows]
    id_array = np.array(ids, dtype=object)

    def snapshot(unsched, side, port, loads):
        # One masked gather; coflow-level entities are these coflows.
        if kind == JOB_LEVEL:
            unsched, loads = unsched[owner], demand.load[side][rows, port - 1]
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
# entities, dual objective and feasibility
# ---------------------------------------------------------------------------

def _known(table: Mapping[int, object], ids: Sequence[int]) -> tuple:
    """table[k] for each coflow id k of `ids`, in order, fetched in one
    C-level call; a ValueError names the first id that `table` lacks."""
    try:
        return (itemgetter(*ids)(table) if len(ids) > 1
                else tuple(map(table.__getitem__, ids)))
    except KeyError as exc:
        raise ValueError(
            f"dual references unknown coflow {exc.args[0]}") from None


def _rows(demand: PortDemand, ids: Sequence[int]) -> np.ndarray:
    """The rows of the coflows `ids` in `demand`'s tables."""
    return _int64(_known(demand.row, ids), len(ids))


class _Entities:
    """The entities of one dual level: each coflow at the flow and coflow
    levels, each job at the job level.

    `ids` ascend; `weight`, `release` (that of the entity's first coflow) and
    `rows` (its coflows' rows in `demand`, a job's in the job's own order)
    follow them. Raises ValueError for an unknown kind, for a job level
    without a JobSet and for a job naming a coflow not in `subject`.
    """

    def __init__(self, subject: Instance | JobSet, kind: str,
                 demand: PortDemand):
        if kind == JOB_LEVEL:
            if not isinstance(subject, JobSet):
                raise ValueError("job-level dual requires a JobSet")
            found = sorted(subject.jobs, key=lambda j: j.id)
            self.rows = [_rows(demand, j.coflows).tolist() for j in found]
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


def _port_major(tables: Mapping[str, np.ndarray]):
    """column(side, port): column port - 1 of `tables[side]` (one row per
    coflow or entity, one column per port), read from a float64 copy that
    holds one port per row; zeros outside ports 1..N, and sides other than
    "in" count as "out"."""
    rows = {}
    for side, table in tables.items():
        rows[side] = np.zeros((table.shape[1] + 1, table.shape[0]))
        rows[side][:-1] = table.T

    def column(side: str, port: int) -> np.ndarray:
        by_port = rows["in" if side == "in" else "out"]
        return by_port[port - 1 if 1 <= port < len(by_port) else -1]
    return column


def _slot_demand(coflow: Coflow, side: str, port: int) -> int:
    # The alpha variable of the flow-level dual sits on slot (port, 1) or
    # (1, port); its objective coefficient is that slot's demand.
    slot = (port, 1) if side == "in" else (1, port)
    return sum(f.size for f in coflow.flows if (f.source, f.dest) == slot)


def _entities_of(dual: DualSolution, subject: Instance | JobSet):
    """The port demand of `subject`, the entities of the dual's level, its
    port loads' reader, and each beta record, as iterated, with its coflows'
    rows and their loads at its port. Raises ValueError for an unknown dual
    kind, or one that names an entity or coflow not in `subject`."""
    demand = PortDemand(subject)
    ent = _Entities(subject, dual.kind, demand)
    if dual.kind == JOB_LEVEL and dual.gamma:
        raise ValueError("job-level dual must not carry gamma variables")
    _rows(demand, [k for edge in dual.gamma for k in edge])
    what = "job" if dual.kind == JOB_LEVEL else "coflow"
    for _, _, e in dual.alpha:
        if e not in ent.index:
            raise ValueError(f"dual references unknown {what} {e}")
    loads = _port_major(demand.load)
    beta = ((rec, idx, loads(rec.side, rec.port)[idx]) for rec in dual.beta
            for idx in [_rows(demand, rec.coflows)])
    return demand, ent, loads, beta


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
    demand, ent, loads, beta = _entities_of(dual, subject)

    # An alpha pays the release of its entity's first coflow plus the slot
    # demand at flow level, the port load at coflow level, or 0 at job level.
    total = 0.0
    for (side, port, e), value in dual.alpha.items():
        row = ent.rows[ent.index[e]][0]
        c = subject.coflows[row]
        term = (_slot_demand(c, side, port) if dual.kind == FLOW_LEVEL
                else float(loads(side, port)[row])
                if dual.kind == COFLOW_LEVEL else 0)
        total += value * (c.release + term)

    # Flow level sums the squares of the flow sizes; coflow and job level
    # treat each coflow's port load as one item.
    if dual.kind == FLOW_LEVEL:
        squares = _port_major(demand.squares)
    for rec, idx, s in beta:
        q = (squares(rec.side, rec.port)[idx] if dual.kind == FLOW_LEVEL
             else s * s)
        total += rec.value * _f_sums(float(s.sum()), float(q.sum()), m)
    return total


def check_dual_feasibility(dual: DualSolution, subject: Instance | JobSet
                           ) -> FeasibilityReport:
    """Evaluate every dual constraint: feasible iff every dual value is
    non-negative and every LHS <= w (1 + _REL_TOL). An entity's LHS is the
    sum over its coflow rows, plus its alpha."""
    demand, ent, _, beta = _entities_of(dual, subject)
    beta_lhs = np.zeros(demand.n)
    for rec, idx, load in beta:
        # add.at adds a repeated id once per occurrence, in record order.
        np.add.at(beta_lhs, idx, rec.value * load)
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
        if excess > _REL_TOL:
            feasible = False
        if abs(lhs[eid] - w) <= _REL_TOL * w:
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

# Snapshot items sit at depth 4 of the indent=2 rendering, their inner
# values (flow-level triples) at depth 5.
_ITEM = "\n" + " " * 8
_INNER = "\n" + " " * 10
_SEP = "," + _ITEM
_TRIPLE = f"[{_INNER}%s,{_INNER}%s,{_INNER}%s{_ITEM}]"


def _snapshot_items(dual: DualSolution, subject: Instance | JobSet):
    """(side, port) -> {coflow id: its rendered snapshot items} over every
    coflow of `subject`, with "" where a coflow has none. Coflow- and
    job-level items are the ids; flow-level items are the triples of the
    coflow's flows at the port."""
    empty = {c.id: "" for c in subject.coflows}
    if dual.kind != FLOW_LEVEL:
        ids = {k: str(k) for k in empty}
        return lambda side, port: ids
    columns: dict[tuple[str, int], dict[int, str]] = {}
    for c in subject.coflows:
        ins: dict[int, list[str]] = {}
        outs: dict[int, list[str]] = {}
        for f in sorted(c.flows, key=attrgetter("source", "dest")):
            text = _TRIPLE % (f.source, f.dest, c.id)
            ins.setdefault(f.source, []).append(text)
            outs.setdefault(f.dest, []).append(text)
        for side, by_port in (("in", ins), ("out", outs)):
            for port, texts in by_port.items():
                column = columns.get((side, port))
                if column is None:
                    column = columns[side, port] = empty.copy()
                column[c.id] = _SEP.join(texts)
    return lambda side, port: columns.get((side, port), empty)


def dual_to_document(dual: DualSolution, subject: Instance | JobSet) -> str:
    items = _snapshot_items(dual, subject)

    def snapshot(rec: BetaRecord) -> JsonText:
        column = items(rec.side, rec.port)
        try:
            texts = _known(column, sorted(rec.coflows))
        except (TypeError, ValueError):
            # Name the first unknown id in record order, as the checks do.
            _known(column, rec.coflows)
            raise
        body = _SEP.join(filter(None, texts))
        return JsonText("%s", (f"[{_ITEM}{body}\n{' ' * 6}]" if body
                               else "[]",))

    return render(0, {
        "kind": dual.kind,
        "kappa": dual.kappa,
        "alpha": render(1, [(*key, v) for key, v in sorted(
            dual.alpha.items())], "side port id value"),
        "beta": render(1, [(rec.side, rec.port, snapshot(rec), rec.value)
                           for rec in dual.beta], "side port snapshot value"),
        "gamma": render(1, [(*key, v) for key, v in sorted(
            dual.gamma.items())], "pred succ value"),
    }).text


def document_to_dual(text: str) -> DualSolution:
    """Parse a dual document strictly: any malformed field raises
    DocumentError with a one-line message."""
    doc = parse_json(text, "dual document")
    kind, kappa, alphas, betas, gammas = fields(
        doc, "dual document", kind=STRING, kappa=NUMBER, alpha=LIST,
        beta=LIST, gamma=LIST)
    if kind not in (FLOW_LEVEL, COFLOW_LEVEL, JOB_LEVEL):
        raise DocumentError(f"unknown dual kind {kind!r}")

    alpha = keyed(alphas, "alpha entry", side=SIDE, port=INTEGER, id=INTEGER,
                  value=NUMBER)
    beta = []
    for i, (side, port, snap, value) in enumerate(entries(
            betas, "beta entry", side=SIDE, port=INTEGER, snapshot=LIST,
            value=NUMBER)):
        # The items are checked a list at a time; a snapshot that fails is
        # walked item by item, only to name its first bad item.
        end = itemgetter(0 if side == "in" else 1)
        if kind == FLOW_LEVEL:
            good = (set(map(type, snap)) <= {list}
                    and set(map(len, snap)) <= {3}
                    and set(map(type, chain.from_iterable(snap))) <= {int}
                    and set(map(end, snap)) <= {port}
                    and len(set(map(tuple, snap))) == len(snap))
        else:
            good = set(map(type, snap)) <= {int} and len(set(snap)) == len(snap)
        seen = set()
        for j, item in enumerate(() if good else snap):
            where = f"beta entry {i} snapshot item {j}"
            if kind == FLOW_LEVEL:
                key = tuple(typed(item, TRIPLE, where))
                if end(key) != port:
                    raise DocumentError(f"{where} {item} is not a flow at "
                                        f"{side} port {port}")
            else:
                key = typed(item, INTEGER, where)
            # A repeat would count its coflow twice in the certificate.
            if key in seen:
                raise DocumentError(f"{where} {item} repeats an earlier item")
            seen.add(key)
        ids = (sorted(set(map(itemgetter(2), snap))) if kind == FLOW_LEVEL
               else snap)
        beta.append(BetaRecord(side, port, tuple(ids), value))
    gamma = keyed(gammas, "gamma entry", pred=INTEGER, succ=INTEGER,
                  value=NUMBER)
    return DualSolution(kind, kappa, alpha, tuple(beta), gamma)
