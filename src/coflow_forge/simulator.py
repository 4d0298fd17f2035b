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
from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple

from .model import (INTEGER, LIST, Instance, JobSet, PrecedenceDag, entries,
                    fields, parse_json, topological_order)
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


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


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
            src.append(f.source)
            dst.append(f.dest)
            owner.append(k)
            size.append(f.size)
            core.append(h)
    remaining = list(size)
    nflows = len(src)
    m = instance.config.num_cores

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
                    tuple(Segment(s, d, k, h, start, end)
                          for start, h, s, d, k, end in segments))


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


def verify_schedule(schedule: Schedule, instance: Instance,
                    assignment: CoreAssignment | None = None
                    ) -> VerificationReport:
    """Independent feasibility audit: segments on the network's cores, port
    capacity, segments within their flow's completion, releases,
    precedence, transmitted volume and per-flow completion bounds."""
    v: list[str] = []
    release = {c.id: c.release for c in instance.coflows}
    m = instance.config.num_cores

    # (a) cores within 1..m; port-exclusive transmission per core and side
    usage: dict[tuple[int, str, int], list[tuple[int, int]]] = {}
    for seg in schedule.segments:
        if seg.end <= seg.start:
            v.append(f"segment {seg} has non-positive duration")
        usage.setdefault((seg.core, "in", seg.source), []).append(
            (seg.start, seg.end))
        usage.setdefault((seg.core, "out", seg.dest), []).append(
            (seg.start, seg.end))
    for core in sorted({key[0] for key in usage}.difference(range(1, m + 1))):
        v.append(f"segments on core {core}, outside cores 1..{m}")
    for (core, side, port), ivals in sorted(usage.items()):
        ivals.sort()
        for (s1, e1), (s2, e2) in zip(ivals, ivals[1:]):
            if s2 < e1:
                v.append(f"core {core} {side}-port {port}: overlapping "
                         f"transmissions [{s1},{e1}) and [{s2},{e2})")
                break

    known = {(f.source, f.dest, c.id) for c in instance.coflows
             for f in c.flows}
    vol: dict[tuple[int, int, int], int] = {}
    first: dict[int, int] = {}  # coflow -> its earliest segment start
    for seg in schedule.segments:
        key = (seg.source, seg.dest, seg.coflow)
        if key not in known:
            v.append(f"segment for unknown flow {key}")
            continue
        vol[key] = vol.get(key, 0) + (seg.end - seg.start)
        # (b) no transmission after the flow's recorded completion, which
        # makes the completions a sound gate for successors below
        done = schedule.flow_completions.get(key)
        if done is not None and seg.end > done:
            v.append(f"flow {key} transmits until {seg.end} after its "
                     f"completion {done}")
        if first.get(seg.coflow, seg.start) >= seg.start:
            first[seg.coflow] = seg.start
        if assignment is not None:
            want = assignment.core_of(seg.source, seg.dest, seg.coflow)
            if seg.core != want:
                v.append(f"flow {key} transmitted on core {seg.core}, "
                         f"assigned to {want}")

    # (c) release and precedence gating, on each coflow's earliest start
    preds = instance.dag.predecessors()
    for k, start in first.items():
        if start < release[k]:
            v.append(f"coflow {k} starts at {start} before release "
                     f"{release[k]}")
        for p in preds.get(k, ()):
            done = schedule.coflow_completions.get(p)
            if done is None or start < done:
                v.append(f"coflow {k} starts at {start} before "
                         f"predecessor {p} completes")

    for c in instance.coflows:
        for f in c.flows:
            key = (f.source, f.dest, c.id)
            # (d) volume conservation
            if vol.get(key, 0) != f.size:
                v.append(f"flow {key} transmitted {vol.get(key, 0)} of "
                         f"{f.size} units")
            done = schedule.flow_completions.get(key)
            if done is None:
                v.append(f"flow {key} has no completion time")
                continue
            # (e) completion no earlier than release plus size
            if done < c.release + f.size:
                v.append(f"flow {key} completes at {done} < release + size "
                         f"= {c.release + f.size}")
        ck = schedule.coflow_completions.get(c.id)
        if ck is None:
            v.append(f"coflow {c.id} has no completion time")
        elif c.flows:
            last = max(schedule.flow_completions.get(
                (f.source, f.dest, c.id), 0) for f in c.flows)
            if ck != last:
                v.append(f"coflow {c.id} completion {ck} != last flow {last}")
    return VerificationReport(tuple(v))


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
