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
(core, coflow) pair its unfinished flows, and each core its admitted set,
which is recomputed only when one of those lists changed.
"""
from __future__ import annotations

import json
import struct
from bisect import insort
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .model import (INTEGER, LIST, Instance, JobSet, PrecedenceDag,
                    ValidationReport, entries, fields, parse_json,
                    topological_order)
from .assignment import CoreAssignment, assign_flows_fdls
from .primal_dual import COFLOW_LEVEL, FLOW_LEVEL, Permutation


class Segment(NamedTuple):
    source: int
    dest: int
    coflow: int
    core: int
    start: int
    end: int


@dataclass(frozen=True)
class Schedule:
    flow_completions: dict[tuple[int, int, int], int]
    coflow_completions: dict[int, int]
    job_completions: dict[int, int]
    segments: tuple[Segment, ...]


def simulate(instance: Instance, assignment: CoreAssignment,
             priority: Permutation) -> Schedule:
    """Run the per-core transmission loop; all event times are integers."""
    ids = sorted(c.id for c in instance.coflows)
    if sorted(priority.order) != ids:
        raise ValueError("priority permutation does not cover the instance")
    if assignment.kind not in (FLOW_LEVEL, COFLOW_LEVEL):
        raise ValueError(f"unknown assignment kind {assignment.kind!r}")
    flow_level = assignment.kind == FLOW_LEVEL
    if not ids:
        return Schedule({}, {}, {}, ())

    by_id = instance.coflow_by_id()
    rank = {k: r for r, k in enumerate(priority.order)}
    release = {k: by_id[k].release for k in ids}

    # Dense flow tables. fid indexes every flow of the instance.
    m = instance.config.num_cores
    src: list[int] = []
    dst: list[int] = []
    owner: list[int] = []
    size: list[int] = []
    core: list[int] = []
    for k in ids:
        for f in sorted(by_id[k].flows, key=lambda f: (-f.size, f.source, f.dest)):
            h = assignment.flow_to_core.get((f.source, f.dest, k))
            if h is None:
                raise ValueError(f"flow ({f.source},{f.dest},{k}) "
                                 "has no core assignment")
            if not 1 <= h <= m:
                raise ValueError(f"flow ({f.source},{f.dest},{k}) is "
                                 f"assigned to core {h}, outside cores "
                                 f"1..{m}")
            src.append(f.source)
            dst.append(f.dest)
            owner.append(k)
            size.append(f.size)
            core.append(h)
    remaining = list(size)
    nflows = len(src)

    # rank_key[fid] orders a coflow's flows by (-remaining, src, dst) as one
    # integer; it rises by `stride` per unit sent.
    pairs = sorted(set(zip(src, dst)))
    stride = len(pairs)
    pair_rank = {pair: i for i, pair in enumerate(pairs)}
    rank_key = [pair_rank[src[fid], dst[fid]] - size[fid] * stride
                for fid in range(nflows)]
    # ports[fid] has one bit for the flow's input port and one for its output
    # port, numbered over the ports in use; a core is full once every input
    # or every output port in use is busy.
    in_bit = {p: 1 << i for i, p in enumerate(sorted(set(src)))}
    out_bit = {p: 1 << (len(in_bit) + i)
               for i, p in enumerate(sorted(set(dst)))}
    ports = [in_bit[src[fid]] | out_bit[dst[fid]] for fid in range(nflows)]
    full = min(len(in_bit), len(out_bit))

    # unfinished[h][k]: coflow k's unfinished flows on core h in list order
    # (size desc, then ports). Flow level keeps them sorted by remaining
    # size; coflow level keeps the initial order.
    unfinished: list[dict[int, list[int]]] = [{} for _ in range(m + 1)]
    for fid in range(nflows):
        unfinished[core[fid]].setdefault(owner[fid], []).append(fid)
    cores_of: dict[int, list[int]] = {k: [] for k in ids}
    for h in range(1, m + 1):
        for k in unfinished[h]:
            cores_of[k].append(h)
    flows_left = {k: 0 for k in ids}
    for fid in range(nflows):
        flows_left[owner[fid]] += 1

    # A coflow waits for its release and for each predecessor; it becomes
    # ready when the count reaches zero, and then sits in the ready list of
    # every core holding one of its unfinished flows, in rank order.
    preds = instance.dag.predecessors()
    succs = instance.dag.successors()
    waiting = {k: len(preds.get(k, ())) + 1 for k in ids}
    by_release = sorted(ids, key=lambda k: release[k])
    next_rel = 0
    woken: list[int] = []
    ready: list[list[int]] = [[] for _ in range(m + 1)]
    # admitted[h] is core h's admitted set and sent_from[h] the coflows it
    # draws on, both recomputed only for the cores in `changed`.
    admitted: list[list[int]] = [[] for _ in range(m + 1)]
    sent_from: list[list[int]] = [[] for _ in range(m + 1)]
    changed: set[int] = set()
    active: list[int] = []

    flow_completions: dict[tuple[int, int, int], int] = {}
    coflow_completions: dict[int, int] = {}
    # (start, core, src, dst, coflow, end), which sorts in document order.
    segments: list[tuple[int, int, int, int, int, int]] = []
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
        while next_rel < len(ids) and release[by_release[next_rel]] <= at:
            unblock(by_release[next_rel])
            next_rel += 1
        while woken:
            k = woken.pop()
            if flows_left[k] == 0:
                complete_coflow(k, at)
                continue
            for h in cores_of[k]:
                insort(ready[h], k, key=rank.__getitem__)
                changed.add(h)

    def admit(h: int) -> None:
        # Greedy list scheduling on core h under port exclusivity. Each
        # admitted flow takes one input and one output port.
        chosen: list[int] = []
        owners: list[int] = []
        busy = 0
        flows_of = unfinished[h]
        for k in ready[h]:
            before = len(chosen)
            for fid in flows_of[k]:
                if not busy & ports[fid]:
                    busy |= ports[fid]
                    chosen.append(fid)
            if len(chosen) > before:
                owners.append(k)
                if len(chosen) == full:
                    break
        kept = set(chosen)
        for fid in admitted[h]:
            if remaining[fid] and fid not in kept:
                segments.append((open_seg.pop(fid), h, src[fid], dst[fid],
                                 owner[fid], t))
        for fid in chosen:
            if fid not in open_seg:
                open_seg[fid] = t
        admitted[h] = chosen
        sent_from[h] = owners

    incomplete = nflows
    t = release[by_release[0]]
    wake(t)
    while incomplete > 0 or len(coflow_completions) < len(ids):
        if changed:
            for h in changed:
                admit(h)
            changed.clear()
            active = [fid for h in range(1, m + 1) for fid in admitted[h]]
        next_release = (release[by_release[next_rel]]
                        if next_rel < len(ids) else None)

        if not active:
            if incomplete == 0 and len(coflow_completions) == len(ids):
                break
            if next_release is None:
                raise RuntimeError("simulation stalled: incomplete flows but "
                                   "nothing admissible and no future release")
            t = next_release
            wake(t)
            continue

        dt = min(map(remaining.__getitem__, active))
        if next_release is not None:
            dt = min(dt, next_release - t)
        t += dt
        step = dt * stride
        finished: list[int] = []
        for fid in active:
            remaining[fid] -= dt
            rank_key[fid] += step
            if not remaining[fid]:
                finished.append(fid)
        for fid in finished:
            h, k = core[fid], owner[fid]
            segments.append((open_seg.pop(fid), h, src[fid], dst[fid], k, t))
            flow_completions[(src[fid], dst[fid], k)] = t
            incomplete -= 1
            flows = unfinished[h][k]
            flows.remove(fid)
            if not flows:
                ready[h].remove(k)
            changed.add(h)
            flows_left[k] -= 1
            if flows_left[k] == 0:
                complete_coflow(k, t)
        if flow_level:
            # Only the admitted flows' remaining sizes moved; a core whose
            # lists keep their order keeps its admitted set.
            for h in range(1, m + 1):
                for k in sent_from[h]:
                    flows = unfinished[h][k]
                    before = flows[:]
                    flows.sort(key=rank_key.__getitem__)
                    if flows != before:
                        changed.add(h)
        wake(t)

    segments.sort()
    return Schedule(flow_completions, coflow_completions, {},
                    tuple(map(tuple.__new__, repeat(Segment),
                              map(itemgetter(2, 3, 4, 1, 0, 5), segments))))


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

    job_completions = {t: max(sched.coflow_completions[k]
                              for k in jobs[t].coflows)
                       for t in job_perm.order}
    return Schedule(sched.flow_completions, sched.coflow_completions,
                    job_completions, sched.segments)


def _segment_columns(segments, v: list[str]) -> tuple[list, list]:
    """The segments whose six fields are integers that fit in 64 bits, and
    their source, dest, core, start and end as int64 columns; each other
    segment is reported in `v` and left out. The fields are packed a block
    at a time, so that no copy of them all is made at once."""
    def columns(kept) -> list[np.ndarray]:
        out = [np.empty(len(kept), dtype=np.int64) for _ in range(5)]
        for i in range(0, len(kept), 1024):
            block = kept[i:i + 1024]
            fields = np.frombuffer(
                struct.pack(f"{6 * len(block)}q", *chain.from_iterable(block)),
                np.int64).reshape(-1, 6)
            for column, j in zip(out, (0, 1, 3, 4, 5)):
                column[i:i + len(block)] = fields[:, j]
        return out

    try:
        return segments, columns(segments)
    except (struct.error, TypeError):
        pass
    kept = []
    for seg in segments:
        try:
            struct.pack("6q", *seg)
        except (struct.error, TypeError):
            v.append(f"segment {seg} has a field that is not a 64-bit "
                     "integer")
        else:
            kept.append(seg)
    return kept, columns(kept)


def _first_overlaps(side: str, port: np.ndarray, core: np.ndarray,
                    start: np.ndarray, end: np.ndarray) -> list[tuple]:
    """(core, side, port, s1, e1, s2, e2) for each (core, port) whose
    segments, sorted by (start, end), hold a neighbour that starts before
    the one before it ends: the first such pair [s1, e1), [s2, e2)."""
    order = np.lexsort((end, start, port, core))
    # Neighbours that overlap in time, kept where they share core and port.
    pairs = np.flatnonzero(start[order[1:]] < end[order[:-1]])
    a, b = order[pairs], order[pairs + 1]
    same = (core[a] == core[b]) & (port[a] == port[b])
    a, b = a[same], b[same]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (core[a[1:]] != core[a[:-1]]) | (port[a[1:]] != port[a[:-1]])
    a, b = a[first], b[first]
    return list(zip(core[a].tolist(), repeat(side), port[a].tolist(),
                    start[a].tolist(), end[a].tolist(), start[b].tolist(),
                    end[b].tolist()))


def verify_schedule(schedule: Schedule, instance: Instance,
                    assignment: CoreAssignment | None = None
                    ) -> ValidationReport:
    """Independent feasibility audit: segments on the network's cores, port
    capacity, segments within their flow's completion, releases,
    precedence, transmitted volume and per-flow completion bounds.

    The segments are audited as int64 columns; a segment with a field that
    is not an integer in 64 bits is reported and audited no further."""
    v: list[str] = []
    release = {c.id: c.release for c in instance.coflows}
    m = instance.config.num_cores
    segments, (source, dest, core, start, end) = _segment_columns(
        schedule.segments, v)

    # (a) cores within 1..m; port-exclusive transmission per core and side
    v.extend(f"segment {segments[i]} has non-positive duration"
             for i in np.flatnonzero(end <= start).tolist())
    v.extend(f"segments on core {h}, outside cores 1..{m}"
             for h in sorted(set(core[(core < 1) | (core > m)].tolist())))
    overlaps = (_first_overlaps("in", source, core, start, end)
                + _first_overlaps("out", dest, core, start, end))
    del source, dest  # not needed below; freeing them lowers peak memory
    v.extend(f"core {h} {side}-port {p}: overlapping transmissions "
             f"[{s1},{e1}) and [{s2},{e2})"
             for h, side, p, s1, e1, s2, e2 in sorted(overlaps))

    # Each segment's flow in the instance; unknown flows map to `nflows`.
    index: dict[tuple[int, int, int], int] = {}
    for c in instance.coflows:
        for f in c.flows:
            index.setdefault((f.source, f.dest, c.id), len(index))
    nflows = len(index)
    flow = np.fromiter(map(index.get, map(itemgetter(0, 1, 2), segments),
                           repeat(nflows)), np.int64, len(segments))

    # (b) no transmission after the flow's recorded completion, which
    # makes the completions a sound gate for successors below
    completions = schedule.flow_completions
    done = list(map(completions.get, index))
    last = np.full(nflows + 1, np.iinfo(np.int64).min)
    np.maximum.at(last, flow, end)
    late = np.zeros(nflows + 1, dtype=bool)
    late[:nflows] = [d is not None and t > d
                     for t, d in zip(last.tolist(), done)]
    flagged = (flow == nflows) | late[flow]
    if assignment is not None:
        want = np.fromiter(map(assignment.flow_to_core.get, index,
                               repeat(0)), np.int64, nflows)
        wrong = core != np.append(want, 0)[flow]
        flagged |= wrong
    for i in np.flatnonzero(flagged).tolist():
        seg = segments[i]
        key = (seg.source, seg.dest, seg.coflow)
        j = index.get(key)
        if j is None:
            v.append(f"segment for unknown flow {key}")
            continue
        if done[j] is not None and seg.end > done[j]:
            v.append(f"flow {key} transmits until {seg.end} after its "
                     f"completion {done[j]}")
        if assignment is not None and wrong[i]:
            v.append(f"flow {key} transmitted on core {seg.core}, "
                     f"assigned to {assignment.flow_to_core.get(key)}")

    # (c) release and precedence gating, on each coflow's earliest start,
    # coflows in the order of their first segment; then, on its completion,
    # each coflow without flows, which has no segment to gate
    coflow_rank = {c.id: r for r, c in enumerate(instance.coflows)}
    ranks = np.fromiter(map(coflow_rank.__getitem__,
                            map(itemgetter(2), index)), np.int64, nflows)
    rank = np.append(ranks, len(instance.coflows))[flow]
    earliest = np.full(len(instance.coflows) + 1, np.iinfo(np.int64).max)
    np.minimum.at(earliest, rank, start)
    first_row = np.full(len(instance.coflows) + 1, len(segments))
    np.minimum.at(first_row, rank, np.arange(len(segments)))
    gated = [(instance.coflows[r].id, "starts", int(earliest[r]))
             for r in np.argsort(first_row[:-1], kind="stable").tolist()
             if first_row[r] < len(segments)]
    gated += [(c.id, "without flows completes",
               schedule.coflow_completions[c.id]) for c in instance.coflows
              if not c.flows and c.id in schedule.coflow_completions]
    preds = instance.dag.predecessors()
    for k, event, at in gated:
        if at < release[k]:
            v.append(f"coflow {k} {event} at {at} before release "
                     f"{release[k]}")
        for p in preds.get(k, ()):
            done_p = schedule.coflow_completions.get(p)
            if done_p is None or at < done_p:
                v.append(f"coflow {k} {event} at {at} before predecessor {p} "
                         "completes")

    # Volumes as high and low 32-bit halves of each duration, summed
    # exactly in int64 and joined as Python ints.
    high = np.zeros(nflows + 1, dtype=np.int64)
    np.add.at(high, flow, end >> 32)
    np.subtract.at(high, flow, start >> 32)
    low = np.zeros(nflows + 1, dtype=np.int64)
    np.add.at(low, flow, end & 0xFFFFFFFF)
    np.subtract.at(low, flow, start & 0xFFFFFFFF)
    volume = [(a << 32) + b for a, b in zip(high.tolist(), low.tolist())]
    for c in instance.coflows:
        for f in c.flows:
            key = (f.source, f.dest, c.id)
            j = index[key]
            # (d) volume conservation
            if volume[j] != f.size:
                v.append(f"flow {key} transmitted {volume[j]} of {f.size} "
                         "units")
            done_f = done[j]
            if done_f is None:
                v.append(f"flow {key} has no completion time")
                continue
            # (e) completion no earlier than release plus size
            if done_f < c.release + f.size:
                v.append(f"flow {key} completes at {done_f} < release + "
                         f"size = {c.release + f.size}")
        ck = schedule.coflow_completions.get(c.id)
        if ck is None:
            v.append(f"coflow {c.id} has no completion time")
        elif c.flows:
            last_f = max(completions.get((f.source, f.dest, c.id), 0)
                         for f in c.flows)
            if ck != last_f:
                v.append(f"coflow {c.id} completion {ck} != last flow "
                         f"{last_f}")
    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# schedule document format
# ---------------------------------------------------------------------------

def schedule_to_document(schedule: Schedule) -> str:
    payload = {
        "flows": [{"src": s, "dst": d, "coflow": k, "completion": c}
                  for (s, d, k), c in sorted(schedule.flow_completions.items(),
                                             key=lambda it: (it[0][2], it[0]))],
        "coflows": [{"id": k, "completion": c}
                    for k, c in sorted(schedule.coflow_completions.items())],
        "jobs": [{"id": t, "completion": c}
                 for t, c in sorted(schedule.job_completions.items())],
        "segments": [{"src": g.source, "dst": g.dest, "coflow": g.coflow,
                      "core": g.core, "start": g.start, "end": g.end}
                     for g in schedule.segments],
    }
    return json.dumps(payload, indent=2) + "\n"


def document_to_schedule(text: str) -> Schedule:
    doc = parse_json(text, "schedule document")
    flows, coflows, jobs, segments = fields(
        doc, "schedule document", flows=LIST, coflows=LIST, jobs=LIST,
        segments=LIST)
    return Schedule(
        {(src, dst, k): done for src, dst, k, done in entries(
            flows, "flow entry", src=INTEGER, dst=INTEGER, coflow=INTEGER,
            completion=INTEGER)},
        dict(entries(coflows, "coflow entry", id=INTEGER, completion=INTEGER)),
        dict(entries(jobs, "job entry", id=INTEGER, completion=INTEGER)),
        tuple(Segment(*g) for g in entries(
            segments, "segment", src=INTEGER, dst=INTEGER, coflow=INTEGER,
            core=INTEGER, start=INTEGER, end=INTEGER)),
    )
