import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from coflow_forge import (
    Coflow,
    DocumentError,
    Flow,
    Instance,
    Job,
    JobSet,
    NetworkConfig,
    Permutation,
    PrecedenceDag,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
)
from coflow_forge.assignment import assign_coflows_cdls, assign_flows_fdls
from coflow_forge.generator import GeneratorParams, generate_instance
from coflow_forge.metrics_report import (run_algorithm,
                                         total_weighted_completion)
from coflow_forge.model import (PortDemand, topological_order,
                                validate_instance)
from coflow_forge.simulator import (
    Schedule,
    Segment,
    Segments,
    document_to_schedule,
    schedule_to_document,
    simulate,
    simulate_jobs,
    verify_schedule,
)

from conftest import PARAMS, jobset_from_instance, mk_instance


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


STALLED = ("^simulation stalled: coflows left but nothing admissible and "
           "no future release$")


@pytest.mark.parametrize("coflows, edges", [
    # Two coflows that wait on each other from the start.
    ([(1, 0, 1, [(1, 1, 2)]), (2, 0, 1, [(2, 2, 1)])], [(1, 2), (2, 1)]),
    # Coflow 1 waits for its release at 5 and completes at 7; coflows 2
    # and 3 never leave their cycle.
    ([(1, 5, 1, [(1, 1, 2)]), (2, 0, 1, [(2, 2, 1)]), (3, 0, 1, [(1, 2, 1)])],
     [(2, 3), (3, 2)])])
def test_a_cyclic_dag_stalls_the_simulation(coflows, edges):
    # Only the ordering step validates the DAG, so simulate meets the cycle.
    inst = mk_instance(1, 2, coflows, edges=edges)
    perm = Permutation(tuple(c.id for c in inst.coflows))
    with pytest.raises(RuntimeError, match=STALLED):
        simulate(inst, assign_flows_fdls(inst, perm), perm)


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


def _fdls_then_simulate(instance, perm):
    assignment = assign_flows_fdls(instance, Permutation((1, 2)))
    return simulate(instance, assignment, perm)


@pytest.mark.parametrize("order", [(1,), (1, 2, 3), (1, 1, 2)],
                         ids=["missing", "extra", "repeated"])
@pytest.mark.parametrize("stage", [assign_flows_fdls, assign_coflows_cdls,
                                   _fdls_then_simulate],
                         ids=["fdls", "cdls", "simulate"])
def test_every_stage_rejects_a_permutation_with_one_message(stage, order):
    # One rule, owned by assignment._check_perm, guards each public stage.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 1)]), (2, 0, 1, [(2, 2, 1)])])
    with pytest.raises(ValueError, match="^permutation does not cover the "
                                         "instance's coflows$"):
        stage(inst, Permutation(order))


def test_unknown_assignment_kind_errors():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 1)])])
    asg = replace(assign_flows_fdls(inst, Permutation((1,))), kind="rack")
    with pytest.raises(ValueError, match="^unknown assignment kind 'rack'$"):
        simulate(inst, asg, Permutation((1,)))


@pytest.mark.parametrize("coflow, release", [(1, 2**63), (2**63, 0),
                                             (-2**63 - 1, 0)],
                         ids=["release", "id", "negative-id"])
def test_simulate_raises_past_the_64_bit_limit(coflow, release):
    # simulate's precondition is a valid instance; the one that breaks it
    # here fails validation, and simulate names the limit it would pass.
    inst = mk_instance(1, 2, [(coflow, release, 1, [(1, 1, 4)])])
    assert not validate_instance(inst).ok
    perm = Permutation((coflow,))
    with pytest.raises(ValueError, match=r"^segment field exceeds the "
                       r"64-bit limit 9223372036854775807$"):
        simulate(inst, assign_flows_fdls(inst, perm), perm)


def test_simulate_reaches_the_64_bit_limit():
    inst = mk_instance(1, 2, [(-2**63, 2**63 - 5, 1, [(1, 1, 4)])])
    sched, _, _ = _run_fdls(inst)
    assert sched.segments == (Segment(1, 1, -2**63, 1, 2**63 - 5, 2**63 - 1),)


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


def test_jobs_permutation_must_cover_the_jobs():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, 1, [(1, 1, 3)])])
    js = JobSet(inst.config, (Job(1, 1, (1,)), Job(2, 1, (2,))),
                inst.coflows, inst.dag)
    for order in ((1,), (1, 3), (1, 2, 2)):
        with pytest.raises(ValueError, match="^job permutation does not "
                                             "cover the job set$"):
            simulate_jobs(js, Permutation(order))


def test_jobs_complete_a_coflow_without_flows_when_it_is_ready():
    # Coflow 3 of job 2 has no flows and nothing before it in its job, so
    # it completes at its release 0 while job 1 transmits; the segments
    # still follow the job order, and the schedule audits clean.
    inst = mk_instance(1, 2, [(1, 0, 9, [(1, 1, 5)]), (2, 0, 1, [(1, 1, 1)]),
                              (3, 0, 1, [])])
    js = JobSet(inst.config, (Job(1, 9, (1,)), Job(2, 1, (2, 3))),
                inst.coflows, inst.dag)
    sched = simulate_jobs(js, Permutation((1, 2)))
    assert sched.coflow_completions == {1: 5, 2: 6, 3: 0}
    assert sched.job_completions == {1: 5, 2: 6}
    assert verify_schedule(sched, js).ok
    assert run_algorithm(js, "jobs")[3] == sched


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


def test_verify_audits_the_good_segments_beside_a_bad_one():
    # Only the broken segment is left out: flow (1, 1, 1) is still summed.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 2), (2, 2, 3)])])
    bad = Segment(2, 2, 1, 1, 0.5, 3)
    sched = Schedule({(1, 1, 1): 2, (2, 2, 1): 3}, {1: 3}, {},
                     (Segment(1, 1, 1, 1, 0, 2), bad))
    assert verify_schedule(sched, inst).violations == (
        f"segment {bad} has a field that is not a 64-bit integer",
        "flow (2, 2, 1) transmitted 0 of 3 units")


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


def test_verify_flags_missing_completions_without_raising():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)])])
    sched = Schedule({}, {}, {1: 2}, (Segment(1, 1, 1, 1, 0, 2),))
    missing = ("flow (1, 1, 1) has no completion time",
               "coflow 1 has no completion time")
    assert verify_schedule(sched, inst).violations == missing
    # A job whose coflow has no completion is not checked against it.
    js = jobset_from_instance(inst)
    assert verify_schedule(sched, js).violations == missing


def test_verify_flags_a_job_completion_that_is_not_its_last_coflows():
    # A job set is audited whole: its coflows under the intra-job DAG, then
    # each job's completion against its last coflow's.
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]), (2, 0, 1, [(1, 1, 3)]),
                              (3, 0, 1, [(1, 1, 1)])], edges=[(1, 2)])
    js = jobset_from_instance(inst, group_size=2)
    sched = simulate_jobs(js, Permutation((1, 2)))
    assert sched.job_completions == {1: 5, 2: 6}
    assert verify_schedule(sched, js).ok
    for wrong, shown in (
            ({1: 4, 2: 6}, "job 1 completion 4 != last coflow 5"),
            ({2: 6}, "job 1 has no completion time")):
        false = replace(sched, job_completions=wrong)
        assert verify_schedule(false, js).violations == (shown,)


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
    # The only segment [5,8) ends after the recorded completion 3, so the
    # flow and its coflow complete at 8.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 3)])])
    bad = Schedule({(1, 1, 1): 3}, {1: 3}, {}, (Segment(1, 1, 1, 1, 5, 8),))
    report = verify_schedule(bad, inst)
    assert report.violations == (
        "flow (1, 1, 1) transmits until 8 after its completion 3",
        "coflow 1 completion 3 != last flow 8")


def test_verify_flags_completion_after_last_segment():
    # The flow's whole volume is sent in [0,2), but it and its coflow
    # record completion 9.
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)])])
    bad = Schedule({(1, 1, 1): 9}, {1: 9}, {}, (Segment(1, 1, 1, 1, 0, 2),))
    report = verify_schedule(bad, inst)
    assert report.violations == (
        "flow (1, 1, 1) completes at 9 after its last segment ends at 2",
        "coflow 1 completion 9 != last flow 2")


def test_verify_flags_flow_sent_on_two_cores_at_once():
    # The size-10 flow is sent on [5,10) on core 1 and [9,14) on core 2:
    # its volume and completion are right, but it runs at rate 2 in [9,10).
    inst = mk_instance(2, 1, [(1, 0, 1, [(1, 1, 10)])])
    bad = Schedule({(1, 1, 1): 14}, {1: 14}, {},
                   (Segment(1, 1, 1, 1, 5, 10), Segment(1, 1, 1, 2, 9, 14)))
    assert verify_schedule(bad, inst).violations == (
        "flow (1, 1, 1) transmits on cores 1 and 2 at once: [5,10) and "
        "[9,14)",)


def test_verify_flags_successor_overlapping_predecessor():
    # Coflow 1 records completion 3 but still transmits in [4,6), so it
    # completes at 6, while its successor runs in [3,5).
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 3)]),
                              (2, 0, 1, [(2, 2, 2)])], edges=[(1, 2)])
    bad = Schedule({(1, 1, 1): 3, (2, 2, 2): 5}, {1: 3, 2: 5}, {},
                   (Segment(1, 1, 1, 1, 0, 1), Segment(2, 2, 2, 1, 3, 5),
                    Segment(1, 1, 1, 1, 4, 6)))
    report = verify_schedule(bad, inst)
    assert report.violations == (
        "coflow 2 starts at 3 before predecessor 1 completes",
        "flow (1, 1, 1) transmits until 6 after its completion 3",
        "coflow 1 completion 3 != last flow 6")


def test_verify_gates_a_coflow_without_flows_on_its_completion():
    # Chain 1 -> 2 -> 3 on 2 cores; coflow 2 has no flows. Coflow 2 claims
    # completion 0 while coflow 1 runs on [0,10), but it is ready, and so
    # completes, at 10, which coflow 3's start at 0 is gated on.
    flows = {1: [(1, 1, 10)], 2: [], 3: [(2, 2, 5)]}
    segments = (Segment(1, 1, 1, 1, 0, 10), Segment(2, 2, 3, 2, 0, 5))
    inst = mk_instance(2, 2, [(k, 0, 1, fl) for k, fl in flows.items()],
                       edges=[(1, 2), (2, 3)])
    bad = Schedule({(1, 1, 1): 10, (2, 2, 3): 5}, {1: 10, 2: 0, 3: 5}, {},
                   segments)
    assert verify_schedule(bad, inst).violations == (
        "coflow 3 starts at 0 before predecessor 2 completes",
        "coflow 2 completion 0 != ready time 10")
    # Released at 12, coflow 2 cannot complete at 10.
    late = mk_instance(2, 2, [(k, 12 if k == 2 else 0, 1, fl)
                              for k, fl in flows.items()])
    early = Schedule(bad.flow_completions, {1: 10, 2: 10, 3: 5}, {}, segments)
    assert verify_schedule(early, late).violations == (
        "coflow 2 completion 10 != ready time 12",)


def test_verify_flags_completions_the_subject_does_not_have():
    # A completion for a flow, coflow or job that the subject lacks is
    # flagged after the other completion messages of its kind, in key order.
    inst = generate_instance(GeneratorParams(n=3, num_ports=4, num_cores=2,
                                             seed=0))
    sched, asg, _ = _run_fdls(inst)
    extra = Schedule({**sched.flow_completions, (9, 9, 1): 5, (2, 9, 1): 4},
                     {**sched.coflow_completions, 77: 3}, {5: 1},
                     sched.segments)
    # A plain instance has no jobs, so its job completions are not read.
    assert verify_schedule(extra, inst, asg).violations == (
        "completion for unknown flow (2, 9, 1)",
        "completion for unknown flow (9, 9, 1)",
        "completion for unknown coflow 77")
    js = jobset_from_instance(inst)
    jobs = simulate_jobs(js, permute_jobs(js)[0])
    extra = replace(jobs, job_completions={**jobs.job_completions, 5: 1,
                                           0: 2})
    assert verify_schedule(extra, js).violations == (
        "completion for unknown job 0", "completion for unknown job 5")
    one = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)])])
    late = Schedule({(1, 1, 1): 3, (1, 1, 2): 1}, {1: 3, 2: 1}, {},
                    (Segment(1, 1, 1, 1, 0, 2),))
    assert verify_schedule(late, one).violations == (
        "flow (1, 1, 1) completes at 3 after its last segment ends at 2",
        "completion for unknown flow (1, 1, 2)",
        "coflow 1 completion 3 != last flow 2",
        "completion for unknown coflow 2")


def test_verify_orders_unknown_completion_keys_of_mixed_types():
    # Unknown keys that do not compare with each other are ordered by their
    # type's name first, so an int key comes before a tuple key.
    inst = generate_instance(GeneratorParams(n=3, num_ports=4, num_cores=2,
                                             seed=0))
    sched, asg, _ = _run_fdls(inst)
    extra = Schedule({**sched.flow_completions, (9, 9, 1): 5, 77: 4},
                     {**sched.coflow_completions, (9, 9, 1): 3, 77: 3}, {},
                     sched.segments)
    assert verify_schedule(extra, inst, asg).violations == (
        "completion for unknown flow 77",
        "completion for unknown flow (9, 9, 1)",
        "completion for unknown coflow 77",
        "completion for unknown coflow (9, 9, 1)")


@pytest.mark.xfail(strict=True, reason="the audit checks feasibility, not "
                   "that a ready flow waits only on a busy port (ROADMAP "
                   "item 9)")
def test_verify_flags_ready_flows_left_idle():
    # Two one-flow coflows on different ports of one core: the simulator
    # finishes both at 1, for twc 2. Sending them over [10,11) and [20,21)
    # leaves both ports idle while the flows are ready, for twc 32.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 1)]), (2, 0, 1, [(2, 2, 1)])])
    sched, asg, _ = _run_fdls(inst)
    assert total_weighted_completion(sched, inst) == 2
    idle = Schedule({(1, 1, 1): 11, (2, 2, 2): 21}, {1: 11, 2: 21}, {},
                    (Segment(1, 1, 1, 1, 10, 11), Segment(2, 2, 2, 1, 20, 21)))
    assert total_weighted_completion(idle, inst) == 32
    assert not verify_schedule(idle, inst, asg).ok


@pytest.mark.parametrize("assign", [assign_flows_fdls, assign_coflows_cdls],
                         ids=["fdls", "cdls"])
def test_verify_flags_a_late_flowless_coflow(assign):
    # Coflow 2 has no flows, so the simulator completes it at 0, for twc 2.
    # Completing it at 1000 instead gives twc 5002.
    inst = Instance(NetworkConfig(1, 2), (
        Coflow(1, 0, 1.0, (Flow(1, 1, 2),)), Coflow(2, 0, 5.0, ())),
        PrecedenceDag.make([1, 2]))
    perm = Permutation((1, 2))
    asg = assign(inst, perm)
    sched = simulate(inst, asg, perm)
    assert total_weighted_completion(sched, inst) == 2
    late = replace(sched, coflow_completions={**sched.coflow_completions,
                                              2: 1000})
    assert total_weighted_completion(late, inst) == 5002
    assert not verify_schedule(late, inst, asg).ok


def test_verify_derives_a_coflow_without_flows_from_derived_completions():
    # Coflow 2 has no flows and waits for coflow 1, which completes at 2.
    # Overstating coflow 1 does not move coflow 2, and neither does
    # completing coflow 2 before it is ready.
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]), (2, 0, 5, [])],
                       edges=[(1, 2)])
    sched, asg, _ = _run_fdls(inst)
    assert sched.coflow_completions == {1: 2, 2: 2}
    for stated, found in (
            ({1: 5, 2: 5}, ("coflow 1 completion 5 != last flow 2",
                            "coflow 2 completion 5 != ready time 2")),
            ({1: 2, 2: 1}, ("coflow 2 completion 1 != ready time 2",))):
        bad = replace(sched, coflow_completions=stated)
        assert verify_schedule(bad, inst, asg).violations == found


def test_verify_derives_a_job_from_derived_coflow_completions():
    # Coflow 2 of job 1 states 6, and job 1 states its last coflow's 6, but
    # the segments complete coflow 2, and so job 1, at 5.
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]), (2, 0, 1, [(1, 1, 3)]),
                              (3, 0, 1, [(1, 1, 1)])], edges=[(1, 2)])
    js = jobset_from_instance(inst, group_size=2)
    sched = simulate_jobs(js, Permutation((1, 2)))
    bad = replace(sched, coflow_completions={**sched.coflow_completions,
                                             2: 6},
                  job_completions={**sched.job_completions, 1: 6})
    assert verify_schedule(bad, js).violations == (
        "coflow 2 completion 6 != last flow 5",
        "job 1 completion 6 != last coflow 5")


def test_verify_reports_a_cyclic_dag_without_raising():
    # Coflows 2 and 3 have no flows and wait on each other, so neither is
    # ever ready; coflows 1 and 4 wait on each other too, and whichever
    # starts first starts before the other completes.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 2)]), (2, 0, 1, []),
                              (3, 0, 1, []), (4, 0, 1, [(2, 2, 1)])],
                       edges=[(2, 3), (3, 2), (1, 4), (4, 1)])
    assert "cycle detected in precedence dag" in \
        validate_instance(inst).violations
    sched = Schedule({(1, 1, 1): 2, (2, 2, 4): 3}, {1: 2, 2: 0, 3: 0, 4: 3},
                     {}, (Segment(1, 1, 1, 1, 0, 2), Segment(2, 2, 4, 1, 2, 3)))
    assert verify_schedule(sched, inst).violations == (
        "coflow 1 starts at 0 before predecessor 4 completes",
        "coflow 2 without flows waits on a precedence cycle",
        "coflow 3 without flows waits on a precedence cycle")


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
        demand = PortDemand(inst)
        for c in inst.coflows:
            for f in c.flows:
                assert sched.flow_completions[(f.source, f.dest, c.id)] \
                    >= c.release + f.size
            if c.flows:
                # weak bound: port parallelism is at most m cores
                busiest = max(int(demand.load[side][demand.row[c.id]].max())
                              for side in ("in", "out"))
                weak = max(math.ceil(busiest / inst.config.num_cores),
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
def test_work_conservation_replay_dense(seed):
    # Dense coflows put many flows on each port of each core, so the
    # flow-level re-sort often reorders a coflow's flows.
    inst = generate_instance(GeneratorParams(n=6, num_ports=4, num_cores=2,
                                             deg=2, seed=seed,
                                             density_mode="dense",
                                             release_horizon=15))
    perm = Permutation(tuple(sorted(c.id for c in inst.coflows)))
    for assigner, flow_level in ((assign_flows_fdls, True),
                                 (assign_coflows_cdls, False)):
        asg = assigner(inst, perm)
        sched = simulate(inst, asg, perm)
        _replay_admissions(inst, sched, asg, perm, flow_level)


def _resort_case(cores, flows, on_core):
    # One coflow whose flows (src, dst, size) sit on the given cores.
    inst = mk_instance(cores, 3, [(1, 0, 1, flows)])
    perm = Permutation((1,))
    asg = assign_flows_fdls(inst, perm)
    asg.flow_to_core.update({(s, d, 1): h for (s, d, _), h
                             in zip(flows, on_core)})
    sched = simulate(inst, asg, perm)
    _replay_admissions(inst, sched, asg, perm, True)
    assert verify_schedule(sched, inst, asg).ok
    return sched


def test_an_event_on_another_core_reorders_a_core_without_a_completion():
    # Flows (1,1) and (2,1) share output port 1 on core 1; (1,1) goes
    # first, 5 units against 4. Flow (3,3) completes on core 2 at 2, when
    # (1,1) has 3 units left: core 1 finishes nothing then, and only its
    # changed order makes it admit (2,1) in place of (1,1).
    sched = _resort_case(2, [(1, 1, 5), (2, 1, 4), (3, 3, 2)], [1, 1, 2])
    assert sched.flow_completions == {(3, 3, 1): 2, (2, 1, 1): 6,
                                      (1, 1, 1): 9}
    assert [(g.source, g.dest, g.core, g.start, g.end)
            for g in sched.segments] == [
        (1, 1, 1, 0, 2), (3, 3, 2, 0, 2), (2, 1, 1, 2, 6), (1, 1, 1, 6, 9)]


def test_a_core_that_finishes_a_flow_readmits_in_its_new_order():
    # As above on one core: (3,3) completes on core 1 itself at 2, so the
    # core re-admits anyway and must do so from the re-sorted list.
    sched = _resort_case(1, [(1, 1, 5), (2, 1, 4), (3, 3, 2)], [1, 1, 1])
    assert sched.flow_completions == {(3, 3, 1): 2, (2, 1, 1): 6,
                                      (1, 1, 1): 9}
    assert [(g.source, g.dest, g.start, g.end) for g in sched.segments] == [
        (1, 1, 0, 2), (3, 3, 0, 2), (2, 1, 2, 6), (1, 1, 6, 9)]


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


def _list_scheduling_slack(inst, sched, asg, perm):
    """ready(k) + L(f) - C_f for each flow f of coflow k on core h. ready(k)
    is the later of k's release and its predecessors' completions; L(f)
    sums the sizes of the flows on h that share f's input or output port
    and belong to coflows at or before k in `perm`. A list schedule leaves
    no slack negative."""
    by_id = inst.coflow_by_id()
    preds = inst.dag.predecessors()
    # Cumulative loads per (core, side, port) in priority order, and per
    # (core, src, dst) for the flows that both of f's ports count.
    load = Counter()
    slack = {}
    for k in perm.order:
        flows = [((f.source, f.dest, k), f) for f in by_id[k].flows]
        for key, f in flows:
            h = asg.flow_to_core[key]
            load[h, "in", f.source] += f.size
            load[h, "out", f.dest] += f.size
            load[h, f.source, f.dest] += f.size
        ready = max([by_id[k].release] + [sched.coflow_completions[p]
                                          for p in preds.get(k, ())])
        for key, f in flows:
            h = asg.flow_to_core[key]
            bound = ready + load[h, "in", f.source] + load[h, "out", f.dest] \
                - load[h, f.source, f.dest]
            slack[key] = bound - sched.flow_completions[key]
    return slack


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARAMS)
def test_list_scheduling_inequality_per_flow(params):
    inst = generate_instance(params)
    for alg in ("fdls", "cdls"):
        perm, _, asg, sched = run_algorithm(inst, alg)
        slack = _list_scheduling_slack(inst, sched, asg, perm)
        assert min(slack.values(), default=0) >= 0, alg


def test_list_scheduling_inequality_over_the_pinned_corpus():
    slack = []
    for mode, horizon, deg in CORPUS:
        inst = _corpus_instance(mode, horizon, deg)
        for alg in ("fdls", "cdls"):
            perm, _, asg, sched = run_algorithm(inst, alg)
            slack += _list_scheduling_slack(inst, sched, asg, perm).values()
    # Never broken, and met exactly by some flow.
    assert min(slack) == 0


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


def test_segments_stand_in_for_the_tuple():
    inst = generate_instance(GeneratorParams(n=5, num_ports=4, num_cores=2,
                                             seed=2))
    sched, _, _ = _run_fdls(inst)
    segs = sched.segments
    assert type(segs) is Segments and segs.rows.dtype == np.int64
    plain = tuple(segs)
    assert len(segs) == len(plain) > 2
    assert all(type(g) is Segment and set(map(type, g)) == {int}
               for g in plain)
    assert (segs[0], segs[-1], segs[1]) == (plain[0], plain[-1], plain[1])
    assert type(segs[1:]) is tuple and segs[1:] == plain[1:]
    assert segs[::-1] == plain[::-1]
    new = (plain[0]._replace(end=plain[0].end + 1),)
    assert new + segs[1:] == new + plain[1:]
    assert segs[:1] + new == plain[:1] + new
    assert list(segs) == list(plain)
    assert segs == plain and plain == segs
    assert segs == list(plain) and list(plain) == segs
    assert segs != plain[1:] and plain[1:] != segs
    assert segs != new + plain[1:] and new + plain[1:] != segs
    assert repr(segs) == repr(plain)
    with pytest.raises(ValueError, match="read-only"):
        segs.rows[0, 0] = 9
    with pytest.raises(TypeError, match="unhashable"):
        hash(segs)
    assert replace(sched, segments=plain) == sched
    assert sched == replace(sched, segments=plain)
    assert replace(sched, segments=segs[1:]) != sched
    assert document_to_schedule(schedule_to_document(sched)) == sched
    js = jobset_from_instance(inst)
    jobs = simulate_jobs(js, permute_jobs(js)[0])
    assert type(jobs.segments) is Segments
    assert document_to_schedule(schedule_to_document(jobs)) == jobs


def test_schedule_document_flow_without_completion():
    inst = generate_instance(GeneratorParams(n=5, num_ports=4, num_cores=2,
                                             seed=2))
    sched, _, _ = _run_fdls(inst)
    doc = json.loads(schedule_to_document(sched))
    del doc["flows"][0]["completion"]
    with pytest.raises(DocumentError,
                       match="missing field 'completion' in flow entry 0"):
        document_to_schedule(json.dumps(doc))


@pytest.mark.parametrize("section, where", [
    ("flows", "flow entry"), ("coflows", "coflow entry"),
    ("jobs", "job entry")])
def test_schedule_document_rejects_a_repeated_key(section, where):
    js = jobset_from_instance(generate_instance(GeneratorParams(
        n=5, num_ports=4, num_cores=2, seed=2)))
    doc = json.loads(schedule_to_document(
        simulate_jobs(js, permute_jobs(js)[0])))
    rows = doc[section]
    rows.append({**rows[0], "completion": rows[0]["completion"] + 1})
    with pytest.raises(DocumentError, match=rf"^{where} {len(rows) - 1} "
                                            "repeats an earlier entry$"):
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


def _corpus_runs():
    """Each corpus schedule as (name, algorithm, schedule, subject,
    assignment or None, rng, picks), where picks are up to three segments
    drawn from the schedule's own seeded rng. Jobs schedules are audited
    against their job set, as `evaluate` audits them."""
    for mode, horizon, deg in CORPUS:
        inst = _corpus_instance(mode, horizon, deg)
        js = jobset_from_instance(inst)
        fperm, _ = permute_flow_level(inst)
        fasg = assign_flows_fdls(inst, fperm)
        cperm, _ = permute_coflow_level(inst)
        casg = assign_coflows_cdls(inst, cperm)
        runs = {"fdls": (simulate(inst, fasg, fperm), inst, fasg),
                "cdls": (simulate(inst, casg, cperm), inst, casg),
                "jobs": (simulate_jobs(js, permute_jobs(js)[0]), js, None)}
        for alg, (sched, base, asg) in runs.items():
            rng = random.Random(f"{mode}-{horizon}-{deg}-{alg}")
            picks = sorted(rng.sample(range(len(sched.segments)),
                                      min(3, len(sched.segments))))
            yield (f"{mode}-r{horizon}-d{deg}-{alg}", alg, sched, base, asg,
                   rng, picks)


def _audit_corpus():
    out = {}
    for name, _, sched, base, asg, _, picks in _corpus_runs():
        cases = [("unmutated", sched)] + [
            (f"{what} @{i}", mutated) for i in picks
            for what, mutated in _audit_mutations(sched, base, i)]
        audits = [(what, with_asg, verify_schedule(
            mutated, base, asg if with_asg else None).violations)
                  for what, mutated in cases
                  for with_asg in ((False, True) if asg else (False,))]
        out[name] = hashlib.sha256(
            json.dumps(audits).encode()).hexdigest()[:16]
    return out


PINNED_AUDITS = {
    "default-r0-d0-fdls": "7859e330b37a2406",
    "default-r0-d0-cdls": "da698c3a3e8c3e5f",
    "default-r0-d0-jobs": "d3475c2672cd3c0c",
    "default-r0-d3-fdls": "a05ddc2e6178cb9f",
    "default-r0-d3-cdls": "c011071af9e12468",
    "default-r0-d3-jobs": "4f87eeb9fb2f19da",
    "default-r25-d0-fdls": "2cd57f53548d1ba9",
    "default-r25-d0-cdls": "03073316f5e6a440",
    "default-r25-d0-jobs": "9964e47e8ae3b49a",
    "default-r25-d3-fdls": "c6e379249447fa93",
    "default-r25-d3-cdls": "8e1c67c25e7df573",
    "default-r25-d3-jobs": "1fc9a6eaff82dc42",
    "dense-r0-d0-fdls": "330e8585a4d07aca",
    "dense-r0-d0-cdls": "5da571d5342f24ee",
    "dense-r0-d0-jobs": "7dd5e8f7713bbb1d",
    "dense-r0-d3-fdls": "a6a9595e776ebd7f",
    "dense-r0-d3-cdls": "d25e5d29f0f1a42b",
    "dense-r0-d3-jobs": "ad4fb4d811121c61",
    "dense-r25-d0-fdls": "6363a2711f5b4520",
    "dense-r25-d0-cdls": "5fee03d2d96abbfb",
    "dense-r25-d0-jobs": "aa0f132fbe7c5fa6",
    "dense-r25-d3-fdls": "0b88761602d6edbc",
    "dense-r25-d3-cdls": "837695cc954a63ba",
    "dense-r25-d3-jobs": "c5cb89c2141c60cc",
    "sparse-r0-d0-fdls": "ead2216f539ed63c",
    "sparse-r0-d0-cdls": "c20a9702049bbc7f",
    "sparse-r0-d0-jobs": "90c8a6a80ab5ed18",
    "sparse-r0-d3-fdls": "364c222e21a811ab",
    "sparse-r0-d3-cdls": "f94a10808921f1ef",
    "sparse-r0-d3-jobs": "553ac94491573a6c",
    "sparse-r25-d0-fdls": "55451b9009b6ebd6",
    "sparse-r25-d0-cdls": "33d2578b628962bc",
    "sparse-r25-d0-jobs": "c01dc147576d8eb1",
    "sparse-r25-d3-fdls": "23e8ae721c6dd5cd",
    "sparse-r25-d3-cdls": "27126050254dd0f6",
    "sparse-r25-d3-jobs": "5deae366f6c6a38d",
    "combined-r0-d0-fdls": "a898b5826f71440c",
    "combined-r0-d0-cdls": "f30aca81ec3e72bd",
    "combined-r0-d0-jobs": "3fdcf6e5ab69e1ef",
    "combined-r0-d3-fdls": "11ae1ad32fb91fc1",
    "combined-r0-d3-cdls": "620a11fb581cbbb1",
    "combined-r0-d3-jobs": "b2e74b9a9cd965eb",
    "combined-r25-d0-fdls": "9d9916996f74288f",
    "combined-r25-d0-cdls": "4de1529d6783efce",
    "combined-r25-d0-jobs": "4320dd58ea55c96e",
    "combined-r25-d3-fdls": "432027728d335fd2",
    "combined-r25-d3-cdls": "7dcadf49eac4e0f3",
    "combined-r25-d3-jobs": "2617c1c4feefe63d",
}


def test_audits_match_pinned_violation_corpus():
    assert _audit_corpus() == PINNED_AUDITS


def test_audits_of_array_and_tuple_segments_agree():
    # Each corpus audit case, its segments held as `Segments` rows and as a
    # tuple of `Segment`, gives one report with and without the assignment.
    for name, _, sched, base, asg, _, picks in _corpus_runs():
        assert type(sched.segments) is Segments
        cases = [sched] + [
            replace(mutated, segments=Segments(
                np.array(mutated.segments, np.int64).reshape(-1, 6)))
            for i in picks for _, mutated in _audit_mutations(sched, base, i)]
        for case in cases:
            plain = replace(case, segments=tuple(case.segments))
            for a in (None, asg):
                assert verify_schedule(case, base, a) \
                    == verify_schedule(plain, base, a), name


# ---------------------------------------------------------------------------
# pinned audits of reordered segments and of fields at the integer limits
# ---------------------------------------------------------------------------

def _reordered_audits():
    """The corpus audit cases, each with its segments reversed and shuffled
    by a fixed seed: orders where ties between equal starts, and the order
    of per-segment messages, differ from the simulator's. Jobs schedules are
    audited against their job set."""
    audits = {"fdls": [], "cdls": [], "jobs": []}
    for _, alg, sched, base, asg, rng, picks in _corpus_runs():
        cases = [sched] + [mutated for i in picks for _, mutated
                           in _audit_mutations(sched, base, i)]
        for case in cases:
            shuffled = list(case.segments)
            rng.shuffle(shuffled)
            for segments in (case.segments[::-1], tuple(shuffled)):
                moved = replace(case, segments=segments)
                audits[alg] += [
                    verify_schedule(moved, base, a).violations
                    for a in ((None, asg) if asg else (None,))]
    return {alg: hashlib.sha256(json.dumps(found).encode()).hexdigest()[:16]
            for alg, found in audits.items()}


# Values just inside and just past the int16, int32 and int64 ranges.
LIMITS = (2**15 - 1, 2**15, -2**15 - 1, 2**16 + 1, 2**31 - 1, 2**31,
          -2**31 - 1, 2**32 + 1, 2**63 - 1, -2**63, 2**63, 2**64 + 1)


def _limit_cases():
    """Named (schedule, subject, assignment) audits whose fields sit at or
    past the integer limits."""
    inst = mk_instance(2, 3, [(1, 0, 1, [(1, 1, 4), (1, 2, 3), (2, 1, 2)]),
                              (2, 3, 2, [(3, 3, 5), (1, 3, 1)])],
                       edges=[(1, 2)])
    sched, asg, _ = _run_fdls(inst)
    segs = sched.segments
    for x in LIMITS:
        for field in Segment._fields:
            # The field on the first segment, and on it and a copy one unit
            # later, which overlaps it on both ports when their cores agree.
            g = segs[0]._replace(**{field: x})
            copy = g._replace(start=g.start + 1, end=g.end + 1) \
                if field not in ("start", "end") else g
            for new in ((g,), (g, copy)):
                yield (f"{field}={x} x{len(new)}",
                       replace(sched, segments=new + segs[1:]), inst, asg)
        for what in ("flow", "coflow", "job"):
            flows = {**sched.flow_completions}
            coflows = {**sched.coflow_completions}
            jobs = {1: sched.coflow_completions[2]}
            {"flow": flows, "coflow": coflows, "job": jobs}[what][
                next(iter(flows)) if what == "flow" else 1] = x
            yield (f"{what} completion {x}", Schedule(flows, coflows, jobs,
                                                      segs),
                   JobSet(inst.config, (Job(1, 1, (1, 2)),), inst.coflows,
                          inst.dag), None)
    # Coflow ids and releases at the int64 limits, every segment mutated.
    edge = mk_instance(2, 3, [
        (-2**63, 0, 1, [(1, 1, 3), (2, 2, 2)]), (2**31, 0, 2, [(1, 2, 2)]),
        (2**63 - 1, 2**63 - 9, 1, [(2, 1, 1), (3, 3, 4)])],
        edges=[(-2**63, 2**31)])
    sched, asg, _ = _run_fdls(edge)
    yield "limit ids", sched, edge, asg
    for i in range(len(sched.segments)):
        for name, mutated in _audit_mutations(sched, edge, i):
            yield f"limit ids {name} @{i}", mutated, edge, asg
    # Instances that hold a flow twice, a flow key past int64, a float port
    # that equals an int one, and a segment field given as a bool.
    one = Segment(1, 1, 1, 1, 0, 2)
    for flows in ([(1, 1, 2), (1, 1, 2)], [(1, 1, 2), (2**64, 1, 3)],
                  [(1.0, 1, 2)]):
        odd = mk_instance(1, 2, [(1, 0, 1, flows)])
        keys = {(s, d, 1): 2 for s, d, _ in flows}
        for segments in ((one,), (one, one._replace(start=2, end=4)),
                         (one._replace(source=True),)):
            yield (f"{flows} {segments}", Schedule(keys, {1: 2}, {}, segments),
                   odd, None)


def _limit_audits():
    found = [(name, verify_schedule(sched, subject, asg).violations)
             for name, sched, subject, asg in _limit_cases()]
    return hashlib.sha256(json.dumps(found).encode()).hexdigest()[:16]


def test_verify_names_the_shorter_of_two_equal_starts_first():
    # [0,5) and [0,3) start together on core 1's in-port 1. In (start, end)
    # order the shorter comes first, whichever the schedule lists first.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 5), (1, 2, 3)])])
    for segments in ((Segment(1, 1, 1, 1, 0, 5), Segment(1, 2, 1, 1, 0, 3)),
                     (Segment(1, 2, 1, 1, 0, 3), Segment(1, 1, 1, 1, 0, 5))):
        bad = Schedule({(1, 1, 1): 5, (1, 2, 1): 3}, {1: 5}, {}, segments)
        assert verify_schedule(bad, inst).violations == (
            "core 1 in-port 1: overlapping transmissions [0,3) and [0,5)",)


def test_audits_of_reordered_corpus_schedules_match_pins():
    assert _reordered_audits() == {"fdls": "e4cfa45f1b7a6759",
                                   "cdls": "2ea3e1c9b857a564",
                                   "jobs": "013a921f1cf9550f"}


def test_audits_at_the_integer_limits_match_pin():
    assert _limit_audits() == "e657ccf97ec41ac1"
