import hashlib
import json
import math
import random

import pytest

from coflow_forge import (
    DocumentError,
    Instance,
    Job,
    JobSet,
    Permutation,
    PrecedenceDag,
    coflow_port_loads,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
)
from coflow_forge.assignment import assign_coflows_cdls, assign_flows_fdls
from coflow_forge.generator import GeneratorParams, generate_instance
from coflow_forge.model import topological_order
from coflow_forge.simulator import (
    Schedule,
    Segment,
    document_to_schedule,
    schedule_to_document,
    simulate,
    simulate_jobs,
    verify_schedule,
)

from conftest import jobset_from_instance, mk_instance


def _run_fdls(inst, order=None):
    perm = Permutation(tuple(order or sorted(c.id for c in inst.coflows)))
    asg = assign_flows_fdls(inst, perm)
    return simulate(inst, asg, perm), asg, perm


# ---------------------------------------------------------------------------
# simulate examples
# ---------------------------------------------------------------------------

def test_single_flow():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 5)])])
    sched, asg, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 5}
    assert verify_schedule(sched, inst, asg).ok


def test_shared_input_port_serializes():
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 3), (1, 2, 2)])])
    sched, _, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 5}
    assert sched.flow_completions[(1, 1, 1)] == 3
    assert sched.flow_completions[(1, 2, 1)] == 5


def test_two_cores_run_in_parallel():
    inst = mk_instance(2, 2, [(1, 0, 1, [(1, 1, 3), (1, 2, 2)])])
    sched, _, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 3}


def test_precedence_gates_successor():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, 1, [(1, 1, 3)])],
                       edges=[(1, 2)])
    sched, _, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 2, 2: 5}


def test_release_gates_start():
    inst = mk_instance(1, 1, [(1, 4, 1, [(1, 1, 2)])])
    sched, _, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 6}
    assert sched.segments[0].start == 4


def test_priority_preemption_at_release():
    # Low-priority coflow 2 starts at 0 but yields port 1 when coflow 1
    # (earlier in priority) is released at time 3.
    inst = mk_instance(1, 1, [(1, 3, 5, [(1, 1, 2)]),
                              (2, 0, 1, [(1, 1, 10)])])
    sched, asg, _ = _run_fdls(inst, order=[1, 2])
    assert sched.coflow_completions[1] == 5
    assert sched.coflow_completions[2] == 12
    assert verify_schedule(sched, inst, asg).ok


def test_empty_coflow_completes_at_readiness():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 4)]), (2, 2, 1, [])],
                       edges=[(1, 2)])
    sched, _, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 4, 2: 4}


def test_empty_coflow_chain_completes_when_unblocked():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 4)]), (2, 0, 1, []),
                              (3, 1, 1, []), (4, 0, 1, [])],
                       edges=[(1, 2), (2, 3), (3, 4)])
    sched, _, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 4, 2: 4, 3: 4, 4: 4}


def test_empty_coflow_released_after_all_flows_completes_at_release():
    # Nothing is admissible after time 2, so the loop jumps to release 10.
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]), (2, 10, 1, []),
                              (3, 0, 1, [])],
                       edges=[(2, 3)])
    sched, _, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 2, 2: 10, 3: 10}


def test_successor_of_empty_coflow_starts_at_its_completion():
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 3)]), (2, 0, 1, []),
                              (3, 0, 1, [(2, 2, 2)])],
                       edges=[(1, 2), (2, 3)])
    sched, asg, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 3, 2: 3, 3: 5}
    assert [(g.coflow, g.start, g.end) for g in sched.segments] \
        == [(1, 0, 3), (3, 3, 5)]
    assert verify_schedule(sched, inst, asg).ok


def test_unassigned_flow_errors():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 1)])])
    other = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)])])
    asg = assign_flows_fdls(other, Permutation((1,)))
    asg.flow_to_core.clear()
    with pytest.raises(ValueError, match="no core assignment"):
        simulate(inst, asg, Permutation((1,)))


@pytest.mark.parametrize("core", [0, 3])
def test_flow_on_core_outside_network_errors(core):
    inst = mk_instance(2, 1, [(1, 0, 1, [(1, 1, 1)])])
    asg = assign_flows_fdls(inst, Permutation((1,)))
    asg.flow_to_core[(1, 1, 1)] = core
    with pytest.raises(ValueError, match=rf"flow \(1,1,1\) is assigned to "
                       rf"core {core}, outside cores 1\.\.2"):
        simulate(inst, asg, Permutation((1,)))


def test_priority_mismatch_errors():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 1)])])
    asg = assign_flows_fdls(inst, Permutation((1,)))
    with pytest.raises(ValueError, match="does not cover"):
        simulate(inst, asg, Permutation((1, 2)))


# ---------------------------------------------------------------------------
# simulate_jobs examples
# ---------------------------------------------------------------------------

def test_jobs_single_job_single_coflow():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 4)])])
    js = JobSet(inst.config, (Job(1, 1, (1,)),), inst.coflows, inst.dag)
    sched = simulate_jobs(js, Permutation((1,)))
    assert sched.job_completions == {1: 4}


def test_jobs_sequential_on_shared_port():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, 1, [(1, 1, 3)])])
    js = JobSet(inst.config, (Job(1, 1, (1,)), Job(2, 1, (2,))),
                inst.coflows, inst.dag)
    sched = simulate_jobs(js, Permutation((1, 2)))
    assert sched.job_completions == {1: 2, 2: 5}


def test_jobs_chain_inside_job():
    inst = mk_instance(2, 2, [(1, 0, 1, [(1, 1, 1)]),
                              (2, 0, 1, [(2, 2, 1)])],
                       edges=[(1, 2)])
    js = JobSet(inst.config, (Job(1, 1, (1, 2)),), inst.coflows, inst.dag)
    sched = simulate_jobs(js, Permutation((1,)))
    assert sched.job_completions == {1: 2}


def test_jobs_respect_job_barrier():
    # Coflows of job 2 use disjoint ports but still wait for job 1.
    inst = mk_instance(2, 4, [(1, 0, 1, [(1, 1, 5)]),
                              (2, 0, 1, [(3, 3, 1)])])
    js = JobSet(inst.config, (Job(1, 1, (1,)), Job(2, 1, (2,))),
                inst.coflows, inst.dag)
    sched = simulate_jobs(js, Permutation((1, 2)))
    assert sched.job_completions == {1: 5, 2: 6}
    for seg in sched.segments:
        if seg.coflow == 2:
            assert seg.start >= 5


# ---------------------------------------------------------------------------
# verify_schedule
# ---------------------------------------------------------------------------

def test_verify_accepts_simulator_output():
    inst = generate_instance(GeneratorParams(n=8, num_ports=4, num_cores=2,
                                             deg=2, seed=3,
                                             release_horizon=10))
    sched, asg, _ = _run_fdls(inst)
    assert verify_schedule(sched, inst, asg).ok


def test_verify_flags_port_overlap():
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 2), (1, 2, 2)])])
    bad = Schedule({(1, 1, 1): 2, (1, 2, 1): 2}, {1: 2}, {},
                   (Segment(1, 1, 1, 1, 0, 2), Segment(1, 2, 1, 1, 0, 2)))
    report = verify_schedule(bad, inst)
    assert any("overlapping" in v for v in report.violations)


@pytest.mark.parametrize("core", [0, -1, 3, 99])
def test_verify_flags_core_outside_network(core):
    # Without an assignment, a segment moved off cores 1..2 is still caught.
    inst = mk_instance(2, 1, [(1, 0, 1, [(1, 1, 2)])])
    bad = Schedule({(1, 1, 1): 2}, {1: 2}, {}, (Segment(1, 1, 1, core, 0, 2),))
    assert verify_schedule(bad, inst).violations == (
        f"segments on core {core}, outside cores 1..2",)


@pytest.mark.parametrize("field, value", [
    ("start", 0.5), ("end", "2"), ("core", None), ("source", 2**63),
    ("end", -2**63 - 1)])
def test_verify_reports_fields_that_are_not_int64(field, value):
    # The broken segment is named and left out of the audit, which then
    # finds its flow short of volume; nothing raises.
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)])])
    bad = Segment(1, 1, 1, 1, 0, 2)._replace(**{field: value})
    sched = Schedule({(1, 1, 1): 2}, {1: 2}, {}, (bad,))
    assert verify_schedule(sched, inst).violations == (
        f"segment {bad} has a field that is not a 64-bit integer",
        "flow (1, 1, 1) transmitted 0 of 2 units")


def test_verify_sums_volumes_exactly_past_int64():
    big = 2**62 + 1
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, big)])])
    sched = Schedule({(1, 1, 1): big}, {1: big}, {},
                     (Segment(1, 1, 1, 1, 0, big),))
    assert verify_schedule(sched, inst).ok
    # Two segments of 2**63 - 1 units each sum past int64.
    wide = Schedule({(1, 1, 1): 2**63 - 1}, {1: 2**63 - 1}, {},
                    (Segment(1, 1, 1, 1, 0, 2**63 - 1),
                     Segment(1, 1, 1, 2, 0, 2**63 - 1)))
    assert f"flow (1, 1, 1) transmitted {2**64 - 2} of {big} units" \
        in verify_schedule(wide, inst).violations


def test_verify_flags_precedence_violation():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, 1, [(1, 1, 1)])],
                       edges=[(1, 2)])
    bad = Schedule({(1, 1, 1): 2, (1, 1, 2): 3}, {1: 2, 2: 3}, {},
                   (Segment(1, 1, 2, 1, 0, 1), Segment(1, 1, 1, 1, 1, 3)))
    report = verify_schedule(bad, inst)
    assert any("before predecessor" in v for v in report.violations)


def test_verify_flags_missing_volume():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 5)])])
    bad = Schedule({(1, 1, 1): 3}, {1: 3}, {}, (Segment(1, 1, 1, 1, 0, 3),))
    report = verify_schedule(bad, inst)
    assert any("transmitted 3 of 5" in v for v in report.violations)


def test_verify_flags_release_violation():
    inst = mk_instance(1, 1, [(1, 4, 1, [(1, 1, 2)])])
    bad = Schedule({(1, 1, 1): 2}, {1: 2}, {}, (Segment(1, 1, 1, 1, 0, 2),))
    report = verify_schedule(bad, inst)
    assert any("before release" in v for v in report.violations)


def test_verify_flags_segment_after_completion():
    # The only segment [5,8) ends after the recorded completion 3.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 3)])])
    bad = Schedule({(1, 1, 1): 3}, {1: 3}, {}, (Segment(1, 1, 1, 1, 5, 8),))
    report = verify_schedule(bad, inst)
    assert report.violations == (
        "flow (1, 1, 1) transmits until 8 after its completion 3",)


def test_verify_flags_successor_overlapping_predecessor():
    # Coflow 1 records completion 3 but still transmits in [4,6), while its
    # successor runs in [3,5).
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 3)]),
                              (2, 0, 1, [(2, 2, 2)])], edges=[(1, 2)])
    bad = Schedule({(1, 1, 1): 3, (2, 2, 2): 5}, {1: 3, 2: 5}, {},
                   (Segment(1, 1, 1, 1, 0, 1), Segment(2, 2, 2, 1, 3, 5),
                    Segment(1, 1, 1, 1, 4, 6)))
    report = verify_schedule(bad, inst)
    assert report.violations == (
        "flow (1, 1, 1) transmits until 6 after its completion 3",)


def test_verify_gates_a_coflow_without_flows_on_its_completion():
    # Chain 1 -> 2 -> 3 on 2 cores; coflow 2 has no flows. Coflow 2 claims
    # completion 0 while coflow 1 runs on [0,10), so coflow 3 may start at 0.
    flows = {1: [(1, 1, 10)], 2: [], 3: [(2, 2, 5)]}
    segments = (Segment(1, 1, 1, 1, 0, 10), Segment(2, 2, 3, 2, 0, 5))
    inst = mk_instance(2, 2, [(k, 0, 1, fl) for k, fl in flows.items()],
                       edges=[(1, 2), (2, 3)])
    bad = Schedule({(1, 1, 1): 10, (2, 2, 3): 5}, {1: 10, 2: 0, 3: 5}, {},
                   segments)
    assert verify_schedule(bad, inst).violations == (
        "coflow 2 without flows completes at 0 before predecessor 1 "
        "completes",)
    # Released at 12, coflow 2 cannot complete at 10.
    late = mk_instance(2, 2, [(k, 12 if k == 2 else 0, 1, fl)
                              for k, fl in flows.items()])
    early = Schedule(bad.flow_completions, {1: 10, 2: 10, 3: 5}, {}, segments)
    assert verify_schedule(early, late).violations == (
        "coflow 2 without flows completes at 10 before release 12",)


# ---------------------------------------------------------------------------
# schedule invariants on seeded instances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(15))
def test_fuzz_feasibility_and_bounds(seed):
    inst = generate_instance(GeneratorParams(
        n=4 + seed % 8, num_ports=5, num_cores=1 + seed % 3,
        deg=0 if seed % 3 == 0 else 2, seed=seed,
        release_horizon=0 if seed % 2 else 25))
    perm = Permutation(tuple(sorted(c.id for c in inst.coflows)))
    for assigner in (assign_flows_fdls, assign_coflows_cdls):
        asg = assigner(inst, perm)
        sched = simulate(inst, asg, perm)
        assert verify_schedule(sched, inst, asg).ok
        for c in inst.coflows:
            for f in c.flows:
                assert sched.flow_completions[(f.source, f.dest, c.id)] \
                    >= c.release + f.size
            if c.flows:
                # weak bound: port parallelism is at most m cores
                li, lo = coflow_port_loads(c, inst.config)
                weak = max(math.ceil(max(max(li), max(lo))
                                     / inst.config.num_cores),
                           max(f.size for f in c.flows))
                assert sched.coflow_completions[c.id] >= c.release + weak
        # segments and completions are integral
        for seg in sched.segments:
            assert isinstance(seg.start, int) and isinstance(seg.end, int)
        assert all(isinstance(v, int)
                   for v in sched.coflow_completions.values())


@pytest.mark.parametrize("seed", range(6))
def test_determinism(seed):
    inst = generate_instance(GeneratorParams(n=7, num_ports=4, num_cores=2,
                                             deg=2, seed=seed))
    a = _run_fdls(inst)[0]
    b = _run_fdls(inst)[0]
    assert a == b


def _replay_admissions(inst, sched, asg, perm, flow_level):
    # At every event instant, re-running the greedy admission from scratch
    # over the recorded remaining state must admit exactly the recorded
    # active set. Flow level orders a coflow's flows by remaining size;
    # coflow level keeps the fixed list order (size, then ports).
    by_id = inst.coflow_by_id()
    rank = {k: r for r, k in enumerate(perm.order)}
    preds = inst.dag.predecessors()
    events = sorted({t for seg in sched.segments for t in (seg.start, seg.end)})
    for t in events:
        active = {(s.source, s.dest, s.coflow): s.core
                  for s in sched.segments if s.start <= t < s.end}
        remaining = {}
        for c in inst.coflows:
            for f in c.flows:
                sent = sum(min(s.end, t) - s.start
                           for s in sched.segments
                           if (s.source, s.dest, s.coflow)
                           == (f.source, f.dest, c.id) and s.start < t)
                remaining[(f.source, f.dest, c.id)] = f.size - sent
        expected = {}
        for h in range(1, inst.config.num_cores + 1):
            busy_in, busy_out = set(), set()
            for k in sorted(by_id, key=lambda k: rank[k]):
                if by_id[k].release > t:
                    continue
                if any(sched.coflow_completions[p] > t
                       for p in preds.get(k, ())):
                    continue
                flows = [f for f in by_id[k].flows
                         if asg.flow_to_core[(f.source, f.dest, k)] == h
                         and remaining[(f.source, f.dest, k)] > 0]
                if flow_level:
                    flows.sort(key=lambda f: (
                        -remaining[(f.source, f.dest, k)], f.source, f.dest))
                else:
                    flows.sort(key=lambda f: (-f.size, f.source, f.dest))
                for f in flows:
                    if f.source not in busy_in and f.dest not in busy_out:
                        busy_in.add(f.source)
                        busy_out.add(f.dest)
                        expected[(f.source, f.dest, k)] = h
        assert expected == active, t


@pytest.mark.parametrize("seed", range(8))
def test_work_conservation_replay(seed):
    inst = generate_instance(GeneratorParams(n=6, num_ports=4, num_cores=2,
                                             deg=2, seed=seed,
                                             release_horizon=15))
    perm = Permutation(tuple(sorted(c.id for c in inst.coflows)))
    for assigner, flow_level in ((assign_flows_fdls, True),
                                 (assign_coflows_cdls, False)):
        asg = assigner(inst, perm)
        sched = simulate(inst, asg, perm)
        _replay_admissions(inst, sched, asg, perm, flow_level)


@pytest.mark.parametrize("seed", range(4))
def test_work_conservation_replay_jobs(seed):
    # simulate_jobs gates job i+1 behind every coflow of job i and orders
    # coflows topologically inside each job; rebuild that instance here.
    js = jobset_from_instance(generate_instance(GeneratorParams(
        n=7, num_ports=4, num_cores=2, deg=2, seed=seed,
        release_horizon=15)))
    jobs = {j.id: j for j in js.jobs}
    job_order = tuple(sorted(jobs, reverse=True))
    intra = js.intra_job_dag.edges
    priority = [k for t in job_order for k in topological_order(
        PrecedenceDag.make(jobs[t].coflows,
                           [(a, b) for a, b in intra
                            if a in jobs[t].coflows and b in jobs[t].coflows]))]
    edges = set(intra) | {(a, b) for prev, nxt in zip(job_order, job_order[1:])
                          for a in jobs[prev].coflows for b in jobs[nxt].coflows}
    gated = Instance(js.config, js.coflows,
                     PrecedenceDag.make(priority, edges))
    perm = Permutation(tuple(priority))
    sched = simulate_jobs(js, Permutation(job_order))
    _replay_admissions(gated, sched, assign_flows_fdls(gated, perm), perm,
                       True)


def test_restriction_removing_last_priority_coflow():
    # Dropping the priority-last, successor-free coflow leaves every other
    # completion unchanged.
    for seed in range(6):
        inst = generate_instance(GeneratorParams(n=6, num_ports=4,
                                                 num_cores=2, deg=2,
                                                 seed=seed))
        perm = Permutation(tuple(sorted(c.id for c in inst.coflows)))
        sched_full, _, _ = _run_fdls(inst, order=perm.order)
        last = perm.order[-1]
        if any(a == last for a, _ in inst.dag.edges):
            continue
        kept = tuple(c for c in inst.coflows if c.id != last)
        edges = [(a, b) for a, b in inst.dag.edges if last not in (a, b)]
        sub = Instance(inst.config, kept,
                       PrecedenceDag.make((c.id for c in kept), edges))
        sub_order = tuple(k for k in perm.order if k != last)
        sched_sub, _, _ = _run_fdls(sub, order=sub_order)
        for k in sub_order:
            assert sched_sub.coflow_completions[k] \
                == sched_full.coflow_completions[k], (seed, k)


def test_schedule_document_round_trip():
    inst = generate_instance(GeneratorParams(n=5, num_ports=4, num_cores=2,
                                             seed=2))
    sched, _, _ = _run_fdls(inst)
    text = schedule_to_document(sched)
    back = document_to_schedule(text)
    assert back == sched
    assert schedule_to_document(back) == text


def test_schedule_document_flow_without_completion():
    inst = generate_instance(GeneratorParams(n=5, num_ports=4, num_cores=2,
                                             seed=2))
    sched, _, _ = _run_fdls(inst)
    doc = json.loads(schedule_to_document(sched))
    del doc["flows"][0]["completion"]
    with pytest.raises(DocumentError,
                       match="missing field 'completion' in flow entry 0"):
        document_to_schedule(json.dumps(doc))


# ---------------------------------------------------------------------------
# pinned schedules: simulator output stays byte-exact
# ---------------------------------------------------------------------------

DENSITY_CASES = ["default", "dense", "sparse", "combined"]
CORPUS = [(mode, horizon, deg) for mode in DENSITY_CASES
          for horizon in (0, 25) for deg in (0, 3)]


def _corpus_instance(mode, horizon, deg):
    seed = 100 * DENSITY_CASES.index(mode) + 10 * (horizon > 0) + deg
    return generate_instance(GeneratorParams(
        n=12, num_ports=6, num_cores=3, deg=deg, seed=seed,
        density_mode=mode, release_horizon=horizon))


def _sha16(sched):
    return hashlib.sha256(
        schedule_to_document(sched).encode()).hexdigest()[:16]


def _corpus_schedules():
    out = {}
    for mode, horizon, deg in CORPUS:
        inst = _corpus_instance(mode, horizon, deg)
        name = f"{mode}-r{horizon}-d{deg}"
        fperm, _ = permute_flow_level(inst)
        out[f"{name}-fdls"] = _sha16(
            simulate(inst, assign_flows_fdls(inst, fperm), fperm))
        cperm, _ = permute_coflow_level(inst)
        out[f"{name}-cdls"] = _sha16(
            simulate(inst, assign_coflows_cdls(inst, cperm), cperm))
        js = jobset_from_instance(inst)
        jperm, _ = permute_jobs(js)
        out[f"{name}-jobs-fdls"] = _sha16(simulate_jobs(js, jperm))
    return out


PINNED_SCHEDULES = {
    "default-r0-d0-fdls": "b4b1eb169b2873e4",
    "default-r0-d0-cdls": "c9531a7c7f9494fb",
    "default-r0-d0-jobs-fdls": "5b2da027bb84d1af",
    "default-r0-d3-fdls": "481a25a118a3bb26",
    "default-r0-d3-cdls": "3f7cb5b096844ef3",
    "default-r0-d3-jobs-fdls": "7e84a6b0249f2c6e",
    "default-r25-d0-fdls": "83749a7425a40148",
    "default-r25-d0-cdls": "921c2d265ea92219",
    "default-r25-d0-jobs-fdls": "6ba16614678a4330",
    "default-r25-d3-fdls": "9101ced349312594",
    "default-r25-d3-cdls": "13e9e345ebb84c0d",
    "default-r25-d3-jobs-fdls": "288aeda56c80ce56",
    "dense-r0-d0-fdls": "88f5548f35f0a881",
    "dense-r0-d0-cdls": "a0f1732da7d4b6cf",
    "dense-r0-d0-jobs-fdls": "627c05961932b67b",
    "dense-r0-d3-fdls": "1b0c2e1727cb3011",
    "dense-r0-d3-cdls": "3b3e7a0d4bfac27e",
    "dense-r0-d3-jobs-fdls": "de90c227fe9fe654",
    "dense-r25-d0-fdls": "eb9ff50aaa74b7cf",
    "dense-r25-d0-cdls": "cb625d80000706d6",
    "dense-r25-d0-jobs-fdls": "d1b2fc1a078de636",
    "dense-r25-d3-fdls": "2b795feef1282441",
    "dense-r25-d3-cdls": "61fe8c201a23f105",
    "dense-r25-d3-jobs-fdls": "746faf5295b50442",
    "sparse-r0-d0-fdls": "3f6a19b1eef0f872",
    "sparse-r0-d0-cdls": "f1ebe05ff5c68cd3",
    "sparse-r0-d0-jobs-fdls": "fb0da515d8c8918b",
    "sparse-r0-d3-fdls": "071b06c3c200cb92",
    "sparse-r0-d3-cdls": "b58f3afcf9c6c155",
    "sparse-r0-d3-jobs-fdls": "d1bcb2c5c22f7a04",
    "sparse-r25-d0-fdls": "8065b1aa560a79a5",
    "sparse-r25-d0-cdls": "52740827cea4cb17",
    "sparse-r25-d0-jobs-fdls": "6286d34ac9feed79",
    "sparse-r25-d3-fdls": "bd3a270139c51990",
    "sparse-r25-d3-cdls": "a42e9f7b52d47adb",
    "sparse-r25-d3-jobs-fdls": "22e29bb390a73cd3",
    "combined-r0-d0-fdls": "65ac390e0e240e12",
    "combined-r0-d0-cdls": "e50d78c7b82023ae",
    "combined-r0-d0-jobs-fdls": "cf09de5213bd3f80",
    "combined-r0-d3-fdls": "5c44c13ebafd3f7e",
    "combined-r0-d3-cdls": "8dd0132b198d26ad",
    "combined-r0-d3-jobs-fdls": "bdfce73b54d45bb5",
    "combined-r25-d0-fdls": "f0b75125ba83093d",
    "combined-r25-d0-cdls": "65d3192645e55caa",
    "combined-r25-d0-jobs-fdls": "98838b5ae920103d",
    "combined-r25-d3-fdls": "2c9bf8de6a67750f",
    "combined-r25-d3-cdls": "f92b35a0180897a3",
    "combined-r25-d3-jobs-fdls": "ebbc0d9e22d4af6c",
}


def test_schedules_match_pinned_corpus():
    assert _corpus_schedules() == PINNED_SCHEDULES


# ---------------------------------------------------------------------------
# pinned audits: verify_schedule reports the same violations, in order
# ---------------------------------------------------------------------------

def _audit_mutations(schedule, inst, i):
    """Named ways of breaking `schedule` at its i-th segment."""
    segs = schedule.segments
    seg = segs[i]
    key = (seg.source, seg.dest, seg.coflow)
    m = inst.config.num_cores
    by_id = inst.coflow_by_id()
    preds = inst.dag.predecessors()[seg.coflow]

    def spliced(new):
        return Schedule(schedule.flow_completions, schedule.coflow_completions,
                        schedule.job_completions, segs[:i] + new + segs[i + 1:])

    yield "drop", spliced(())
    yield "shorten", spliced((seg._replace(end=seg.end - 1),))
    yield "lengthen", spliced((seg._replace(end=seg.end + 1),))
    yield "core 0", spliced((seg._replace(core=0),))
    yield "core m+1", spliced((seg._replace(core=m + 1),))
    yield "other core", spliced((seg._replace(core=seg.core % m + 1),))
    yield "before release", spliced(
        (seg._replace(start=by_id[seg.coflow].release - 1),))
    if preds:
        done = max(schedule.coflow_completions[p] for p in preds)
        yield "before predecessor", spliced((seg._replace(start=done - 1),))
    yield "unknown coflow", spliced(
        (seg._replace(coflow=max(by_id) + 1),))
    last_end = max(g.end for g in segs if (g.source, g.dest, g.coflow) == key)
    yield "early completion", Schedule(
        {**schedule.flow_completions, key: last_end - 1},
        schedule.coflow_completions, schedule.job_completions, segs)
    # A copy of the segment over another flow's interval on a shared port.
    other = next((g for g in segs if (g.source, g.dest, g.coflow) != key
                  and (g.source == seg.source or g.dest == seg.dest)), None)
    if other is not None:
        yield "overlap", spliced(
            (seg, seg._replace(core=other.core, start=other.start,
                               end=other.end)))


def _audit_corpus():
    out = {}
    for mode, horizon, deg in CORPUS:
        inst = _corpus_instance(mode, horizon, deg)
        js = jobset_from_instance(inst)
        jbase = Instance(js.config, js.coflows, js.intra_job_dag)
        fperm, _ = permute_flow_level(inst)
        fasg = assign_flows_fdls(inst, fperm)
        cperm, _ = permute_coflow_level(inst)
        casg = assign_coflows_cdls(inst, cperm)
        jperm, _ = permute_jobs(js)
        runs = {"fdls": (simulate(inst, fasg, fperm), inst, fasg),
                "cdls": (simulate(inst, casg, cperm), inst, casg),
                "jobs": (simulate_jobs(js, jperm), jbase, None)}
        for alg, (sched, base, asg) in runs.items():
            rng = random.Random(f"{mode}-{horizon}-{deg}-{alg}")
            picks = sorted(rng.sample(range(len(sched.segments)),
                                      min(3, len(sched.segments))))
            cases = [("unmutated", sched)] + [
                (f"{name} @{i}", mutated) for i in picks
                for name, mutated in _audit_mutations(sched, base, i)]
            audits = [(name, with_asg, verify_schedule(
                mutated, base, asg if with_asg else None).violations)
                      for name, mutated in cases
                      for with_asg in ((False, True) if asg else (False,))]
            out[f"{mode}-r{horizon}-d{deg}-{alg}"] = hashlib.sha256(
                json.dumps(audits).encode()).hexdigest()[:16]
    return out


PINNED_AUDITS = {
    "default-r0-d0-fdls": "da294c275f1324fe",
    "default-r0-d0-cdls": "d14270191d814fdf",
    "default-r0-d0-jobs": "59ef9d007da83814",
    "default-r0-d3-fdls": "018de99318141a4c",
    "default-r0-d3-cdls": "a2726dcc7b1c299d",
    "default-r0-d3-jobs": "4f87eeb9fb2f19da",
    "default-r25-d0-fdls": "e37663406e2acb77",
    "default-r25-d0-cdls": "0a2be2fc2553326c",
    "default-r25-d0-jobs": "9964e47e8ae3b49a",
    "default-r25-d3-fdls": "2dcdc9a57134115a",
    "default-r25-d3-cdls": "245de12c1912056a",
    "default-r25-d3-jobs": "283b193c822bfd3f",
    "dense-r0-d0-fdls": "37f7b31733871c78",
    "dense-r0-d0-cdls": "3f575c9cf87d4f32",
    "dense-r0-d0-jobs": "89ebae63cb8b92b4",
    "dense-r0-d3-fdls": "cfe31086b09c39dd",
    "dense-r0-d3-cdls": "fcd294a2c7e8109c",
    "dense-r0-d3-jobs": "cdc31e65d7637963",
    "dense-r25-d0-fdls": "bbf23f6b4bf80bde",
    "dense-r25-d0-cdls": "3af254588de20c99",
    "dense-r25-d0-jobs": "fe41db1c25acd398",
    "dense-r25-d3-fdls": "db45017968908025",
    "dense-r25-d3-cdls": "d89a9e072aa50b14",
    "dense-r25-d3-jobs": "c5cb89c2141c60cc",
    "sparse-r0-d0-fdls": "2ab6f2dfae4fd094",
    "sparse-r0-d0-cdls": "2f7f79bb6bb6b631",
    "sparse-r0-d0-jobs": "480caed2ff87c3ad",
    "sparse-r0-d3-fdls": "41dfad779cf9dac2",
    "sparse-r0-d3-cdls": "23b0e3e28545e3f1",
    "sparse-r0-d3-jobs": "7447ab26cbd30113",
    "sparse-r25-d0-fdls": "1ad6508b642109b5",
    "sparse-r25-d0-cdls": "4bf9c891b38ace1b",
    "sparse-r25-d0-jobs": "c7af8ef382a2ef6d",
    "sparse-r25-d3-fdls": "3209c06a9b80a683",
    "sparse-r25-d3-cdls": "a9fc7fe8293e3cc2",
    "sparse-r25-d3-jobs": "440749417e5d4656",
    "combined-r0-d0-fdls": "0d0d34df38d0a3ef",
    "combined-r0-d0-cdls": "d53f942956e19bda",
    "combined-r0-d0-jobs": "85dff67829259a66",
    "combined-r0-d3-fdls": "df8f6f5d8c91896a",
    "combined-r0-d3-cdls": "93d46b5ffd25fded",
    "combined-r0-d3-jobs": "371f443ccf9f991a",
    "combined-r25-d0-fdls": "85c7948bc42ff59b",
    "combined-r25-d0-cdls": "7719eac3c558e0fe",
    "combined-r25-d0-jobs": "eb32c02cf0d0a08b",
    "combined-r25-d3-fdls": "80f33d905c4b6c9d",
    "combined-r25-d3-cdls": "6d2d3d830bf68778",
    "combined-r25-d3-jobs": "3213f25a6e95d094",
}


def test_audits_match_pinned_violation_corpus():
    assert _audit_corpus() == PINNED_AUDITS
