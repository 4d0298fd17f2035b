"""Deterministic event-driven execution of the list-scheduling transmission phase.

Time is a non-negative integer in data units. At every event (a flow
completes, a coflow is released, a predecessor finishes and unblocks its
successors) each core rebuilds its active set greedily: coflows in priority
order, flows within a coflow by non-increasing remaining size (flow-level) or
by the coflow's fixed list order (coflow-level), admitting a flow only when
its input and output port on that core are both idle. Admitted flows transmit
at rate 1 until the next event, so preemption happens at event boundaries
only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .model import (INTEGER, LIST, Instance, JobSet, PrecedenceDag, entries,
                    fields, parse_json, topological_order)
from .assignment import CoreAssignment, assign_coflows_cdls, assign_flows_fdls
from .primal_dual import COFLOW_LEVEL, FLOW_LEVEL, Permutation


@dataclass(frozen=True)
class Segment:
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
            if (f.source, f.dest, f.coflow) not in assignment.flow_to_core and \
                    f.coflow not in assignment.coflow_to_core:
                raise ValueError(f"flow ({f.source},{f.dest},{f.coflow}) "
                                 "has no core assignment")
            src.append(f.source)
            dst.append(f.dest)
            owner.append(k)
            size.append(f.size)
            core.append(assignment.core_of(f.source, f.dest, f.coflow))
    remaining = list(size)
    nflows = len(src)

    # Per (core, coflow) flow lists in list order (size desc, then ports).
    m = instance.config.num_cores
    num_ports = instance.config.num_ports
    core_flows: dict[tuple[int, int], list[int]] = {}
    for fid in range(nflows):
        core_flows.setdefault((core[fid], owner[fid]), []).append(fid)
    core_order: list[list[int]] = [[] for _ in range(m + 1)]
    for h in range(1, m + 1):
        ks = {k for (c, k) in core_flows if c == h}
        core_order[h] = sorted(ks, key=lambda k: rank[k])

    preds = instance.dag.predecessors()
    succs = instance.dag.successors()
    preds_left = {k: len(preds.get(k, ())) for k in ids}
    flows_left = {k: 0 for k in ids}
    for fid in range(nflows):
        flows_left[owner[fid]] += 1

    flow_completions: dict[tuple[int, int, int], int] = {}
    coflow_completions: dict[int, int] = {}
    segments: list[Segment] = []
    open_seg: dict[int, int] = {}

    if not ids:
        return Schedule({}, {}, {}, ())
    release_times = sorted({release[k] for k in ids})
    t = release_times[0]
    rel_idx = 1

    def complete_coflow(k: int, at: int) -> None:
        coflow_completions[k] = at
        for s in succs.get(k, ()):
            preds_left[s] -= 1

    def settle_empty(at: int) -> None:
        # Coflows without flows finish the moment they are released and ready.
        changed = True
        while changed:
            changed = False
            for k in ids:
                if flows_left[k] == 0 and k not in coflow_completions \
                        and release[k] <= at and preds_left[k] == 0:
                    complete_coflow(k, at)
                    changed = True

    def rebuild() -> list[int]:
        admitted: list[int] = []
        for h in range(1, m + 1):
            busy_in = [False] * (num_ports + 1)
            busy_out = [False] * (num_ports + 1)
            free_in = num_ports
            free_out = num_ports
            for k in core_order[h]:
                if free_in == 0 or free_out == 0:
                    break
                if release[k] > t or preds_left[k] > 0 or flows_left[k] == 0:
                    continue
                flows = [fid for fid in core_flows[(h, k)] if remaining[fid] > 0]
                if flow_level:
                    flows.sort(key=lambda fid: (-remaining[fid], src[fid], dst[fid]))
                for fid in flows:
                    if free_in == 0 or free_out == 0:
                        break
                    if not busy_in[src[fid]] and not busy_out[dst[fid]]:
                        busy_in[src[fid]] = True
                        busy_out[dst[fid]] = True
                        free_in -= 1
                        free_out -= 1
                        admitted.append(fid)
        return admitted

    incomplete = nflows
    active: set[int] = set()
    settle_empty(t)
    while incomplete > 0 or len(coflow_completions) < len(ids):
        admitted = rebuild()
        new_active = set(admitted)
        for fid in active - new_active:
            segments.append(Segment(src[fid], dst[fid], owner[fid], core[fid],
                                    open_seg.pop(fid), t))
        for fid in new_active - active:
            open_seg[fid] = t
        active = new_active

        next_release = None
        while rel_idx < len(release_times):
            if release_times[rel_idx] > t:
                next_release = release_times[rel_idx]
                break
            rel_idx += 1

        if not admitted:
            if incomplete == 0 and len(coflow_completions) == len(ids):
                break
            if next_release is None:
                raise RuntimeError("simulation stalled: incomplete flows but "
                                   "nothing admissible and no future release")
            t = next_release
            settle_empty(t)
            continue

        dt = min(remaining[fid] for fid in admitted)
        if next_release is not None:
            dt = min(dt, next_release - t)
        t += dt
        finished: list[int] = []
        for fid in admitted:
            remaining[fid] -= dt
            if remaining[fid] == 0:
                finished.append(fid)
        for fid in finished:
            segments.append(Segment(src[fid], dst[fid], owner[fid], core[fid],
                                    open_seg.pop(fid), t))
            active.discard(fid)
            flow_completions[(src[fid], dst[fid], owner[fid])] = t
            incomplete -= 1
            k = owner[fid]
            flows_left[k] -= 1
            if flows_left[k] == 0:
                complete_coflow(k, t)
        settle_empty(t)

    segments.sort(key=lambda s: (s.start, s.core, s.source, s.dest, s.coflow))
    return Schedule(flow_completions, coflow_completions, {}, tuple(segments))


def simulate_jobs(jobset: JobSet, job_perm: Permutation,
                  assign: str = "fdls") -> Schedule:
    """Transmit jobs sequentially; inside a job, coflows follow topological order.

    `assign` picks the core-assignment rule applied to the global coflow
    priority: "fdls" (flow-level) or "cdls" (coflow-level).
    """
    job_ids = sorted(j.id for j in jobset.jobs)
    if sorted(job_perm.order) != job_ids:
        raise ValueError("job permutation does not cover the job set")
    jobs = {j.id: j for j in jobset.jobs}

    # Global coflow priority: per-job topological order, jobs in given order.
    intra_succ = jobset.intra_job_dag.successors()
    priority: list[int] = []
    for t in job_perm.order:
        group = set(jobs[t].coflows)
        sub = PrecedenceDag.make(group, [(a, b) for a, bs in intra_succ.items()
                                         if a in group for b in bs if b in group])
        priority.extend(topological_order(sub))

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
    if assign == "fdls":
        assignment = assign_flows_fdls(gated, perm)
    elif assign == "cdls":
        assignment = assign_coflows_cdls(gated, perm)
    else:
        raise ValueError(f"unknown assignment rule {assign!r}")
    sched = simulate(gated, assignment, perm)

    job_completions = {t: max(sched.coflow_completions[k]
                              for k in jobs[t].coflows)
                       for t in job_perm.order}
    return Schedule(sched.flow_completions, sched.coflow_completions,
                    job_completions, sched.segments)


def verify_schedule(schedule: Schedule, instance: Instance,
                    assignment: CoreAssignment | None = None
                    ) -> VerificationReport:
    """Independent feasibility audit: port capacity, releases, precedence,
    transmitted volume and per-flow completion bounds."""
    v: list[str] = []
    by_id = instance.coflow_by_id()
    release = {c.id: c.release for c in instance.coflows}

    # (a) port-exclusive transmission per core and side
    usage: dict[tuple[int, str, int], list[tuple[int, int]]] = {}
    for seg in schedule.segments:
        if seg.end <= seg.start:
            v.append(f"segment {seg} has non-positive duration")
        usage.setdefault((seg.core, "in", seg.source), []).append(
            (seg.start, seg.end))
        usage.setdefault((seg.core, "out", seg.dest), []).append(
            (seg.start, seg.end))
    for (core, side, port), ivals in sorted(usage.items()):
        ivals.sort()
        for (s1, e1), (s2, e2) in zip(ivals, ivals[1:]):
            if s2 < e1:
                v.append(f"core {core} {side}-port {port}: overlapping "
                         f"transmissions [{s1},{e1}) and [{s2},{e2})")
                break

    known = {(f.source, f.dest, c.id) for c in instance.coflows
             for f in c.flows}
    preds = instance.dag.predecessors()
    vol: dict[tuple[int, int, int], int] = {}
    for seg in schedule.segments:
        key = (seg.source, seg.dest, seg.coflow)
        if key not in known:
            v.append(f"segment for unknown flow {key}")
            continue
        vol[key] = vol.get(key, 0) + (seg.end - seg.start)
        # (b) release gating
        if seg.start < release.get(seg.coflow, 0):
            v.append(f"flow {key} starts at {seg.start} before release "
                     f"{release[seg.coflow]}")
        # (c) precedence gating
        for p in preds.get(seg.coflow, ()):
            done = schedule.coflow_completions.get(p)
            if done is None or seg.start < done:
                v.append(f"flow {key} starts at {seg.start} before "
                         f"predecessor {p} completes")
        if assignment is not None:
            want = assignment.core_of(seg.source, seg.dest, seg.coflow)
            if seg.core != want:
                v.append(f"flow {key} transmitted on core {seg.core}, "
                         f"assigned to {want}")

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
