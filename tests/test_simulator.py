import json
import math

import pytest

from coflow_forge import (
    DocumentError,
    Instance,
    Job,
    JobSet,
    Permutation,
    PrecedenceDag,
    coflow_port_loads,
)
from coflow_forge.assignment import assign_coflows_cdls, assign_flows_fdls
from coflow_forge.generator import GeneratorParams, generate_instance
from coflow_forge.simulator import (
    Schedule,
    Segment,
    document_to_schedule,
    schedule_to_document,
    simulate,
    simulate_jobs,
    verify_schedule,
)

from conftest import mk_instance


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


def test_unassigned_flow_errors():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 1)])])
    other = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)])])
    asg = assign_flows_fdls(other, Permutation((1,)))
    asg.flow_to_core.clear()
    with pytest.raises(ValueError, match="no core assignment"):
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


@pytest.mark.parametrize("seed", range(8))
def test_work_conservation_replay(seed):
    # At every event instant, re-running the greedy admission over the
    # recorded remaining state must admit exactly the recorded active set.
    inst = generate_instance(GeneratorParams(n=6, num_ports=4, num_cores=2,
                                             deg=2, seed=seed,
                                             release_horizon=15))
    sched, asg, perm = _run_fdls(inst)
    by_id = inst.coflow_by_id()
    rank = {k: r for r, k in enumerate(perm.order)}
    preds = inst.dag.predecessors()
    events = sorted({seg.start for seg in sched.segments})
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
                         if asg.core_of(f.source, f.dest, k) == h
                         and remaining[(f.source, f.dest, k)] > 0]
                flows.sort(key=lambda f: (-remaining[(f.source, f.dest, k)],
                                          f.source, f.dest))
                for f in flows:
                    if f.source not in busy_in and f.dest not in busy_out:
                        busy_in.add(f.source)
                        busy_out.add(f.dest)
                        expected[(f.source, f.dest, k)] = h
        assert expected == active, (seed, t)


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
