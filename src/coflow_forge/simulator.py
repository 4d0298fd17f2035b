"""Deterministic event-driven execution of the list-scheduling transmission phase.

Time is a non-negative integer in data units. At every event (a flow
completes, a coflow is released, a predecessor finishes and unblocks its
successors) each core admits flows greedily: coflows in priority order, flows
within a coflow by non-increasing remaining size (flow-level) or by the
coflow's fixed list order (coflow-level), admitting a flow only when its
input and output port on that core are both idle. Admitted flows transmit at
rate 1 until the next event, so preemption happens at event boundaries only.

The loop keeps its state between events: each core holds its ready coflows
in priority order (a coflow enters when its release and its last predecessor
are behind it and leaves when its flows on that core are done), each
(core, coflow) pair its pending flows, and each core its admitted set and
the coflows that admission drew from, which are recomputed only when one of
those lists changed. At flow level only those coflows are re-sorted after
an event; a core that re-admits anyway sorts them without comparing orders.
"""
from __future__ import annotations

from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, count, repeat
from math import inf, prod
from operator import itemgetter, length_hint
from typing import NamedTuple

import numpy as np

from .model import (INTEGER, LIST, Instance, JobSet, PrecedenceDag,
                    ValidationReport, _int64, entries, fields, flow_rows,
                    keyed, parse_json, render, topological_order)
from .assignment import (CoreAssignment, _check_perm, assign_flows_fdls,
                         list_order)
from .primal_dual import COFLOW_LEVEL, FLOW_LEVEL, Permutation


class Segment(NamedTuple):
    source: int
    dest: int
    coflow: int
    core: int
    start: int
    end: int


class Segments(Sequence):
    """Segments held as one read-only (S, 6) int64 array, `rows`, whose
    columns follow `Segment`'s fields; it reads as the tuple of them."""

    def __init__(self, rows: np.ndarray):
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(Segment._make, self.rows[i].tolist()))
        return Segment._make(self.rows[i].tolist())

    def __iter__(self):
        return map(Segment._make, self.rows.tolist())

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, Sequence) \
            else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Schedule:
    flow_completions: dict[tuple[int, int, int], int]
    coflow_completions: dict[int, int]
    job_completions: dict[int, int]
    segments: Sequence[Segment]


def simulate(instance: Instance, assignment: CoreAssignment,
             priority: Permutation) -> Schedule:
    """Run the per-core transmission loop; all event times are integers.
    The instance must pass `validate_instance`: the segments are int64
    `Segments`, and a segment field past 64 bits raises ValueError."""
    ids = _check_perm(instance, priority)
    if assignment.kind not in (FLOW_LEVEL, COFLOW_LEVEL):
        raise ValueError(f"unknown assignment kind {assignment.kind!r}")
    flow_level = assignment.kind == FLOW_LEVEL

    by_id = instance.coflow_by_id()
    rank = {k: r for r, k in enumerate(priority.order)}

    # One pass fills the dense flow tables (fid indexes every flow), each
    # pending[h][k], coflow k's pending flows on core h in list order (flow
    # level re-sorts them by remaining size), and flows_left.
    m = instance.config.num_cores
    src: list[int] = []
    dst: list[int] = []
    owner: list[int] = []
    remaining: list[int] = []
    core: list[int] = []
    pending: list[dict[int, list[int]]] = [{} for _ in range(m + 1)]
    flows_left = dict.fromkeys(ids, 0)
    for k in ids:
        for f in list_order(by_id[k]):
            h = assignment.flow_to_core.get((f.source, f.dest, k))
            if h is None:
                raise ValueError(f"flow ({f.source},{f.dest},{k}) "
                                 "has no core assignment")
            if not 1 <= h <= m:
                raise ValueError(f"flow ({f.source},{f.dest},{k}) is "
                                 f"assigned to core {h}, outside cores "
                                 f"1..{m}")
            pending[h].setdefault(k, []).append(len(src))
            flows_left[k] += 1
            src.append(f.source)
            dst.append(f.dest)
            owner.append(k)
            remaining.append(f.size)
            core.append(h)
    nflows = len(src)

    # rank_key[fid] orders a coflow's flows by (-remaining, src, dst) as one
    # integer; at flow level it rises by `stride` per unit sent.
    pairs = sorted(set(zip(src, dst)))
    stride = len(pairs)
    pair_rank = {pair: i for i, pair in enumerate(pairs)}
    rank_key = [pair_rank[src[fid], dst[fid]] - remaining[fid] * stride
                for fid in range(nflows)]
    by_key = rank_key.__getitem__
    # ports[fid] has one bit for the flow's input port and one for its output
    # port, numbered over the ports in use; a core is full once every input
    # or every output port in use is busy.
    in_bit = {p: 1 << i for i, p in enumerate(sorted(set(src)))}
    out_bit = {p: 1 << (len(in_bit) + i)
               for i, p in enumerate(sorted(set(dst)))}
    ports = [in_bit[src[fid]] | out_bit[dst[fid]] for fid in range(nflows)]
    full = min(len(in_bit), len(out_bit))

    # A coflow waits for its release and for each predecessor; it becomes
    # ready when the count reaches zero, and then sits in the ready list of
    # every core holding one of its pending flows, in rank order.
    preds = instance.dag.predecessors()
    succs = instance.dag.successors()
    waiting = {k: len(preds.get(k, ())) + 1 for k in ids}
    by_release = sorted(map(by_id.get, ids), key=lambda c: c.release)
    next_rel = 0
    woken: list[int] = []
    ready: list[list[int]] = [[] for _ in range(m + 1)]
    # admitted[h] and sent_from[h] are core h's admitted set and the pending
    # lists it drew from, recomputed only for the cores in `changed`.
    admitted: list[list[int]] = [[] for _ in range(m + 1)]
    sent_from: list[list[list[int]]] = [[] for _ in range(m + 1)]
    changed: set[int] = set()
    active: list[int] = []

    flow_completions: dict[tuple[int, int, int], int] = {}
    coflow_completions: dict[int, int] = {}
    # (fid, start, end) of each closed segment, three ints a segment.
    closed: list[int] = []
    open_seg: dict[int, int] = {}

    def unblock(k: int) -> None:
        waiting[k] -= 1
        if waiting[k] == 0:
            woken.append(k)

    def complete_coflow(k: int, at: int) -> None:
        coflow_completions[k] = at
        for s in succs.get(k, ()):
            unblock(s)

    def wake(at: int) -> None:
        # Release what is due at `at` and file every coflow that became
        # ready; a coflow without flows completes the moment it is ready.
        nonlocal next_rel
        while next_rel < len(ids) and by_release[next_rel].release <= at:
            unblock(by_release[next_rel].id)
            next_rel += 1
        while woken:
            k = woken.pop()
            if flows_left[k] == 0:
                complete_coflow(k, at)
                continue
            for h in range(1, m + 1):
                if k in pending[h]:
                    insort(ready[h], k, key=rank.__getitem__)
                    changed.add(h)

    def admit(h: int) -> None:
        # Greedy list scheduling on core h under port exclusivity. Each
        # admitted flow takes one input and one output port.
        chosen: list[int] = []
        drawn: list[list[int]] = []
        busy = 0
        flows_of = pending[h]
        for k in ready[h]:
            before = len(chosen)
            for fid in flows_of[k]:
                if not busy & ports[fid]:
                    busy |= ports[fid]
                    chosen.append(fid)
            if len(chosen) > before:
                drawn.append(flows_of[k])
                if len(chosen) == full:
                    break
        kept = set(chosen)
        for fid in admitted[h]:
            if remaining[fid] and fid not in kept:
                closed.extend((fid, open_seg.pop(fid), t))
        for fid in chosen:
            if fid not in open_seg:
                open_seg[fid] = t
        admitted[h] = chosen
        sent_from[h] = drawn

    t = 0
    wake(t)
    while len(coflow_completions) < len(ids):
        if changed:
            for h in changed:
                admit(h)
            changed.clear()
            active = [fid for h in range(1, m + 1) for fid in admitted[h]]
        # The next event: an admitted flow completes or the next release.
        dt = min(map(remaining.__getitem__, active), default=inf)
        if next_rel < len(ids):
            dt = min(dt, by_release[next_rel].release - t)
        if dt == inf:
            raise RuntimeError("simulation stalled: coflows left but "
                               "nothing admissible and no future release")
        t += dt
        step = dt * stride
        for fid in active:
            remaining[fid] -= dt
            if flow_level:
                rank_key[fid] += step
            if remaining[fid]:
                continue
            h, k = core[fid], owner[fid]
            closed.extend((fid, open_seg.pop(fid), t))
            flow_completions[(src[fid], dst[fid], k)] = t
            flows = pending[h][k]
            flows.remove(fid)
            if not flows:
                ready[h].remove(k)
            changed.add(h)
            flows_left[k] -= 1
            if flows_left[k] == 0:
                complete_coflow(k, t)
        if flow_level:
            # Only the admitted flows' remaining sizes moved; a core whose
            # lists keep their order keeps its admitted set, and a core that
            # re-admits anyway needs no compare.
            for h, lists in enumerate(sent_from):
                for flows in lists:
                    if h in changed:
                        flows.sort(key=by_key)
                        continue
                    before = flows[:]
                    flows.sort(key=by_key)
                    if flows != before:
                        changed.add(h)
        wake(t)

    # The rows gather their flows' fields in place. A core's input port
    # sends one segment at a time, so (start, core, src) is document order.
    spans = _int64(closed, len(closed) // 3, 3)
    table = _int64(chain(src, dst, owner, core), 4, nflows)
    if spans is None or table is None:
        raise ValueError(f"segment field exceeds the 64-bit limit {2**63 - 1}")
    rows = np.empty((6, len(spans)), np.int64)
    np.take(table, spans[:, 0], 1, rows[:4], "clip")
    rows[4:] = spans[:, 1:].T
    order = np.lexsort((rows[0], rows[3], rows[4]))
    for col in rows:
        col[:] = col[order]
    return Schedule(flow_completions, coflow_completions, {},
                    Segments(rows.T))


def simulate_jobs(jobset: JobSet, job_perm: Permutation) -> Schedule:
    """Transmit jobs sequentially; inside a job, coflows follow topological
    order. Flows are assigned to cores by FDLS on that global priority."""
    job_ids = sorted(j.id for j in jobset.jobs)
    if sorted(job_perm.order) != job_ids:
        raise ValueError("job permutation does not cover the job set")
    jobs = {j.id: j for j in jobset.jobs}

    # Global coflow priority: per-job topological order, jobs in given order.
    # No edge leaves a job, so the whole DAG's smallest-id Kahn order,
    # restricted to one job, is that job's own order.
    position = {k: i for i, t in enumerate(job_perm.order)
                for k in jobs[t].coflows}
    priority = sorted(topological_order(jobset.intra_job_dag),
                      key=position.__getitem__)

    # Sequential jobs: every coflow of an earlier job precedes every coflow
    # of the next job (transitively, of all later jobs).
    edges = set(jobset.intra_job_dag.edges)
    for prev, nxt in zip(job_perm.order, job_perm.order[1:]):
        for a in jobs[prev].coflows:
            for b in jobs[nxt].coflows:
                edges.add((a, b))
    gated = Instance(jobset.config, jobset.coflows,
                     PrecedenceDag.make((c.id for c in jobset.coflows), edges))

    perm = Permutation(tuple(priority))
    sched = simulate(gated, assign_flows_fdls(gated, perm), perm)

    # A coflow without flows sends nothing, so the job order holds it
    # back from nothing: it completes when ready under the intra-job DAG.
    done = dict(sched.coflow_completions)
    _complete_when_ready(jobset, done)
    return Schedule(sched.flow_completions, done, {
        t: max(map(done.get, jobs[t].coflows)) for t in job_perm.order},
        sched.segments)


def _segment_fields(segments, v: list[str]) -> tuple[Sequence, np.ndarray]:
    """The segments whose six fields are integers that fit in 64 bits, and
    those fields as one (S, 6) int64 array in `Segment` field order; each
    other segment, of any other length too, is reported in `v` and left
    out. `Segments` hold that array already."""
    if isinstance(segments, Segments):
        return segments, segments.rows
    # A segment without a length has a length hint of 0.
    if not set(map(length_hint, segments)) - {6}:
        fields = _int64(chain.from_iterable(segments), len(segments), 6)
        if fields is not None:
            return segments, fields
    kept = []
    for seg in segments:
        if _int64(seg, 6) is None:
            v.append(f"segment {seg} has a field that is not a 64-bit "
                     "integer")
        else:
            kept.append(seg)
    return kept, _int64(chain.from_iterable(kept), len(kept), 6)


def _key_lookup(keys: np.ndarray, limit: int):
    """A function from (source, dest, coflow) int64 rows to their rows in
    `keys`, the distinct flow keys, or len(keys) for any other key, read
    from a table of the keys' offsets from their least values; None if
    that table would have more than `limit` entries."""
    low = keys.min(axis=0)
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(low, keys.max(axis=0))]
    if prod(spans) > limit:
        return None
    rows = np.full(prod(spans), len(keys), np.min_scalar_type(len(keys)))
    rows[np.ravel_multi_index(tuple((keys - low).T), spans)] = \
        np.arange(len(keys))

    def find(fields: np.ndarray) -> np.ndarray:
        # A negative offset, or one past int64 that wraps, is out of span.
        offsets = fields - low
        inside = (offsets.view(np.uint64) < np.array(spans, np.uint64)).all(1)
        return np.where(inside, rows[np.ravel_multi_index(
            tuple(offsets.T), spans, mode="clip")], len(keys))
    return find


def _overlapping_neighbours(start: np.ndarray, end: np.ndarray,
                            keys: tuple, order: np.ndarray):
    """The index pairs (i, j) of neighbours in `order` that share every key
    and where j starts before i ends, a few thousand neighbours at a time.
    In an order by the keys and start, segments that share the keys
    overlap only if two neighbours do."""
    for at in range(1, len(order), 4096):
        j = order[at:at + 4096]
        i = order[at - 1:at - 1 + len(j)]
        keep = start[j] < end[i]
        for key in keys:
            keep &= key[i] == key[j]
        yield from zip(i[keep].tolist(), j[keep].tolist())


def _complete_when_ready(subject: Instance | JobSet, done: dict) -> list:
    """Complete each coflow without flows, in `done`, when it is ready: at
    the later of its release and its predecessors' completions in `done`
    (None if one has none), in topological order. Returns the coflows
    that a precedence cycle holds back."""
    release = {c.id: c.release for c in subject.coflows if not c.flows}
    preds, succs = (subject.dag.predecessors(), subject.dag.successors()) \
        if release else ({}, {})
    wait = {k: sum(p in release for p in preds.get(k, ())) for k in release}
    ready = [k for k, n in wait.items() if not n]
    for k in ready:
        ends = [release[k], *map(done.get, preds.get(k, ()))]
        done[k] = None if None in ends else max(ends)
        for s in filter(wait.__contains__, succs.get(k, ())):
            wait[s] -= 1
            if not wait[s]:
                ready.append(s)
    return [k for k, n in wait.items() if n]


def verify_schedule(schedule: Schedule, instance: Instance | JobSet,
                    assignment: CoreAssignment | None = None
                    ) -> ValidationReport:
    """Independent feasibility audit: segments on the network's cores, port
    capacity, each flow on one core at a time, releases, precedence and
    transmitted volume, then one completion rule: each stated completion
    equals the one derived from the segments and the subject. A flow
    completes at its last segment's end, a coflow at its last flow, one
    without flows when it is ready and a job at its last coflow. A job
    set's coflows are audited under its intra-job DAG.

    The segments are audited as one int64 field array; a segment that is
    not six integers in 64 bits is reported and audited no further. Array
    operations decide every check, and the code that words a violation
    runs only once one has flagged it."""
    v: list[str] = []
    m = instance.config.num_cores

    # Each segment's flow in the instance; unknown flows map to `nflows`.
    # When no key repeats and all fit in 64 bits, `table` holds every flow's
    # key and size.
    rows = [(f.source, f.dest, c.id, f.size)
            for c in instance.coflows for f in c.flows]
    index = dict(zip(map(itemgetter(0, 1, 2), rows), count()))
    if len(index) < len(rows):  # a repeated key keeps its first number
        index = dict(zip(dict.fromkeys(map(itemgetter(0, 1, 2), rows)),
                         count()))
    nflows = len(index)
    table = _int64(chain.from_iterable(rows), nflows, 4) \
        if 0 < nflows == len(rows) else None
    del rows
    # A lookup of the keys maps segments to flows, or the dict where the
    # lookup would be long. Each (core, port) is coded in 16 bits: equal
    # pairs get equal codes, and pairs on the instance's ports distinct ones
    # while they fit.
    find = None if table is None else _key_lookup(
        table[:, :3], 4 * (len(schedule.segments) + nflows))
    stride = 1 if table is None else int(table[:, :2].max()) % 2**16 + 1

    segments, fields = _segment_fields(schedule.segments, v)
    core, start, end = fields[:, 3], fields[:, 4], fields[:, 5]
    codes = [(core * stride + fields[:, k]).astype(np.uint16) for k in (0, 1)]
    flow = (find(fields[:, :3]) if find else np.fromiter(
        map(index.get, zip(*fields[:, :3].T.tolist()), repeat(nflows)),
        np.int64, len(fields))).astype(np.min_scalar_type(nflows), copy=False)

    # (a) cores within 1..m; port-exclusive transmission per core and side
    v.extend(f"segment {segments[i]} has non-positive duration"
             for i in np.flatnonzero(end <= start).tolist())
    v.extend(f"segments on core {h}, outside cores 1..{m}"
             for h in sorted(set(core[(core < 1) | (core > m)].tolist())))
    # Sorted by start, then stably by a key of 16 bits (a radix sort), the
    # segments that share the key are in start order. Codes that may merge
    # (core, port) pairs but never split one thus find every overlap, which
    # the order by (core, port, start, end) then names. The simulator and
    # the documents list segments by start, and then no order by start is
    # held, which lowers peak memory.
    by_start = None if (start[1:] >= start[:-1]).all() \
        else np.argsort(start, kind="stable")

    def by(key):
        if by_start is None:
            return np.argsort(key, kind="stable")
        return by_start[np.argsort(key[by_start], kind="stable")]

    overlaps = {}
    for (side, k), code in zip((("in", 0), ("out", 1)), codes):
        if any(_overlapping_neighbours(start, end, (code,), by(code))):
            port = fields[:, k]
            order = np.lexsort((end, start, port, core))
            for i, j in _overlapping_neighbours(start, end, (core, port),
                                                order):
                overlaps.setdefault((int(core[i]), side, int(port[i])),
                                    (i, j))
    del codes, code  # freeing each column once used lowers peak memory
    v.extend(f"core {h} {side}-port {p}: overlapping transmissions "
             f"[{start[i]},{end[i]}) and [{start[j]},{end[j]})"
             for (h, side, p), (i, j) in sorted(overlaps.items()))

    # A flow sent on two cores at once; the port check takes one core's.
    twice = {}
    for i, j in _overlapping_neighbours(start, end, (flow,), by(flow)):
        if flow[i] < nflows and core[i] != core[j]:
            twice.setdefault(flow[i], (segments[i], segments[j]))
    del by_start
    v.extend(f"flow {s[:3]} transmits on cores {s.core} and {t.core} at "
             f"once: [{s.start},{s.end}) and [{t.start},{t.end})"
             for s, t in twice.values())

    # (b) segments of flows the subject lacks, or off their assigned core
    flagged = flow == nflows
    if assignment is not None:
        want = np.fromiter(map(assignment.flow_to_core.get, index,
                               repeat(0)), np.int64, nflows)
        flagged |= core != np.append(want, 0)[flow]
    for i in np.flatnonzero(flagged).tolist():
        seg = segments[i]
        v.append(f"segment for unknown flow {seg[:3]}" if flow[i] == nflows
                 else f"flow {seg[:3]} transmitted on core {seg.core}, "
                 f"assigned to {assignment.flow_to_core.get(seg[:3])}")

    # Derived completions: a flow's last segment end, a coflow's last flow's;
    # none for a flow without a segment (its volume is short) or its coflow.
    coflow_rank = {c.id: r for r, c in enumerate(instance.coflows)}
    ranks = np.fromiter(map(coflow_rank.__getitem__,
                            map(itemgetter(2), index)), np.int64, nflows)
    rank = np.append(ranks, len(instance.coflows))[flow]
    last = np.full(nflows + 1, np.iinfo(np.int64).min)
    np.maximum.at(last, flow, end)
    coflow_last = np.full(len(instance.coflows) + 1, np.iinfo(np.int64).min)
    np.maximum.at(coflow_last, rank, end)
    unsent = np.bincount(flow, minlength=nflows + 1) == 0
    short = np.bincount(ranks, unsent[:-1], len(instance.coflows) + 1) > 0
    flow_ends = np.where(unsent, None, last)[:-1].tolist()
    done = {c.id: t for c, t in zip(instance.coflows, np.where(
        short, None, coflow_last).tolist()) if c.flows}
    cycle = _complete_when_ready(instance, done)

    # (c) release and precedence gating, on each coflow's earliest start,
    # in the subject's order; one without a segment starts at int64's
    # largest value, which no release or completion in 64 bits passes
    earliest = np.full(len(instance.coflows) + 1, np.iinfo(np.int64).max)
    np.minimum.at(earliest, rank, start)
    preds = instance.dag.predecessors()
    for c, at in zip(instance.coflows, earliest.tolist()):
        if at < c.release:
            v.append(f"coflow {c.id} starts at {at} before release "
                     f"{c.release}")
        v.extend(f"coflow {c.id} starts at {at} before predecessor {p} "
                 "completes" for p in preds.get(c.id, ())
                 if done.get(p) is not None and at < done[p])
    v.extend(f"coflow {k} without flows waits on a precedence cycle"
             for k in cycle)

    # (d) volume conservation. Volumes as high and low 32-bit halves of
    # each duration, summed exactly in int64; with the low half's carry
    # moved up, they equal a size's halves exactly when the volume equals
    # the size. Arrays decide it when `table` holds every size.
    high = np.zeros(nflows + 1, dtype=np.int64)
    np.add.at(high, flow, end >> 32)
    np.subtract.at(high, flow, start >> 32)
    low = np.zeros(nflows + 1, dtype=np.int64)
    np.add.at(low, flow, end & 0xFFFFFFFF)
    np.subtract.at(low, flow, start & 0xFFFFFFFF)
    high, low = high[:-1] + (low[:-1] >> 32), low[:-1] & 0xFFFFFFFF
    if table is None or not ((high == table[:, 3] >> 32)
                             & (low == table[:, 3] & 0xFFFFFFFF)).all():
        volume = [(a << 32) + b for a, b in zip(high.tolist(), low.tolist())]
        v.extend(f"flow {key} transmitted {volume[index[key]]} of {f.size} "
                 "units" for c in instance.coflows for f in c.flows
                 for key in [(f.source, f.dest, c.id)]
                 if volume[index[key]] != f.size)

    # One completion rule: each stated map equals its derived map. A key
    # missing or differing is named in the subject's order, then one the
    # subject lacks, by type name, then by key, as an int and a tuple do
    # not compare; a plain instance has no jobs.
    def differs(what, key, got, want) -> str:
        if what == "flow":
            return (f"flow {key} transmits until {want} after its completion "
                    f"{got}" if got < want else f"flow {key} completes at "
                    f"{got} after its last segment ends at {want}")
        basis = "last coflow" if what == "job" else "last flow" \
            if instance.coflows[coflow_rank[key]].flows else "ready time"
        return f"{what} {key} completion {got} != {basis} {want}"

    kinds = [("flow", schedule.flow_completions, index, flow_ends),
             ("coflow", schedule.coflow_completions, coflow_rank,
              list(map(done.get, coflow_rank)))]
    if isinstance(instance, JobSet):
        kinds.append(("job", schedule.job_completions,
                      [j.id for j in instance.jobs],
                      [None if None in ends else max(ends, default=None)
                       for ends in ([done.get(k) for k in j.coflows]
                                    for j in instance.jobs)]))
    for what, stated, keys, derived in kinds:
        got = list(map(stated.get, keys))
        if got != derived:
            for key, g, d in zip(keys, got, derived):
                if g is None:
                    v.append(f"{what} {key} has no completion time")
                elif d is not None and g != d:
                    v.append(differs(what, key, g, d))
        v.extend(f"completion for unknown {what} {key}" for key in sorted(
            stated.keys() - keys, key=lambda k: (type(k).__name__, k)))
    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# schedule document format
# ---------------------------------------------------------------------------

def schedule_payload(schedule: Schedule, depth: int) -> dict:
    segs = schedule.segments
    return {
        "flows": render(depth + 1, flow_rows(schedule.flow_completions),
                        "src dst coflow completion"),
        "coflows": render(depth + 1, sorted(
            schedule.coflow_completions.items()), "id completion"),
        "jobs": render(depth + 1, sorted(schedule.job_completions.items()),
                       "id completion"),
        "segments": render(depth + 1, segs.rows.tolist() if isinstance(
            segs, Segments) else segs, "src dst coflow core start end"),
    }


def schedule_to_document(schedule: Schedule) -> str:
    return render(0, schedule_payload(schedule, 0)).text


def document_to_schedule(text: str) -> Schedule:
    doc = parse_json(text, "schedule document")
    flows, coflows, jobs, segments = fields(
        doc, "schedule document", flows=LIST, coflows=LIST, jobs=LIST,
        segments=LIST)
    return Schedule(
        keyed(flows, "flow entry", src=INTEGER, dst=INTEGER, coflow=INTEGER,
              completion=INTEGER),
        keyed(coflows, "coflow entry", id=INTEGER, completion=INTEGER),
        keyed(jobs, "job entry", id=INTEGER, completion=INTEGER),
        tuple(Segment(*g) for g in entries(
            segments, "segment", src=INTEGER, dst=INTEGER, coflow=INTEGER,
            core=INTEGER, start=INTEGER, end=INTEGER)),
    )
