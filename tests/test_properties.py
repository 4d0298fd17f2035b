"""Property tests over the generator's parameter space: for every algorithm
the dual is feasible, tight and below the schedule's cost, the schedule
passes the auditor, and every document round-trips byte-exactly and is what
json.dumps(..., indent=2) writes for its payload; every beta snapshot is the
unscheduled prefix of the order it was taken for; the port-demand table and
the conformity check agree with per-flow sums; the auditor flags every
schedule mutation that breaks feasibility."""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coflow_forge import (
    Coflow,
    Flow,
    Instance,
    InvalidInstanceError,
    JobSet,
    NetworkConfig,
    PrecedenceDag,
    check_dual_feasibility,
    document_to_dual,
    document_to_instance,
    document_to_jobset,
    dual_objective,
    dual_to_document,
    instance_to_document,
    is_conforming,
    jobset_to_document,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
    validate_instance,
    validate_jobset,
)
from coflow_forge.generator import GeneratorParams, generate_instance
from coflow_forge.model import PortDemand
from coflow_forge.metrics_report import (
    ALGORITHMS,
    evaluate,
    run_algorithm,
    total_weighted_completion,
)
from coflow_forge.simulator import (
    Schedule,
    document_to_schedule,
    schedule_to_document,
    verify_schedule,
)

from conftest import (FIELDS, PARAMS, jobset_from_instance, jobset_grouped,
                      mk_instance, with_field)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARAMS)
# The default workload mix once required at least 4 ports.
@example(GeneratorParams(n=1, num_ports=1, num_cores=1, deg=0, p=0.5))
def test_pipeline_properties_over_generator_params(params):
    inst = generate_instance(params)
    text = instance_to_document(inst)
    assert instance_to_document(document_to_instance(text)) == text
    jobset = jobset_from_instance(inst)
    jtext = jobset_to_document(jobset)
    assert jobset_to_document(document_to_jobset(jtext)) == jtext

    for alg in ALGORITHMS:
        subject = jobset if alg == "jobs" else inst
        _, dual, assignment, schedule = run_algorithm(subject, alg)
        feas = check_dual_feasibility(dual, subject)
        entities = subject.jobs if isinstance(subject, JobSet) \
            else subject.coflows
        assert feas.feasible, (alg, feas.max_violation)
        assert feas.tight_set == tuple(sorted(e.id for e in entities)), alg
        twc = total_weighted_completion(schedule, subject)
        assert dual_objective(dual, subject) <= twc * (1 + 1e-9), alg

        assert verify_schedule(schedule, subject, assignment).ok, alg

        dtext = dual_to_document(dual, subject)
        assert dual_to_document(document_to_dual(dtext), subject) == dtext
        stext = schedule_to_document(schedule)
        assert schedule_to_document(document_to_schedule(stext)) == stext


# ---------------------------------------------------------------------------
# every writer against json.dumps(payload, indent=2)
# ---------------------------------------------------------------------------

def _instance_payload(subject: Instance | JobSet) -> dict:
    dag = subject.intra_job_dag if isinstance(subject, JobSet) \
        else subject.dag
    payload = {
        "cores": subject.config.num_cores,
        "ports": subject.config.num_ports,
        "coflows": [{"id": c.id, "release": c.release, "weight": c.weight,
                     "flows": [{"src": f.source, "dst": f.dest,
                                "size": f.size}
                               for f in sorted(c.flows, key=lambda f: (
                                   f.source, f.dest))]}
                    for c in subject.coflows],
        "edges": [list(e) for e in sorted(dag.edges)],
    }
    if isinstance(subject, JobSet):
        payload["jobs"] = [{"id": j.id, "weight": j.weight,
                            "coflows": list(j.coflows)} for j in subject.jobs]
    return payload


def _schedule_payload(schedule: Schedule) -> dict:
    return {
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


def _dual_payload(dual, subject: Instance | JobSet) -> dict:
    by_id = subject.coflow_by_id()

    def snapshot(rec):
        if dual.kind != "flow-level":
            return sorted(rec.coflows)
        return [[f.source, f.dest, k] for k in sorted(rec.coflows)
                for f in sorted(by_id[k].flows, key=lambda f: (f.source,
                                                               f.dest))
                if (f.source if rec.side == "in" else f.dest) == rec.port]

    return {
        "kind": dual.kind,
        "kappa": dual.kappa,
        "alpha": [{"side": s, "port": p, "id": e, "value": v}
                  for (s, p, e), v in sorted(dual.alpha.items())],
        "beta": [{"side": rec.side, "port": rec.port,
                  "snapshot": snapshot(rec), "value": rec.value}
                 for rec in dual.beta],
        "gamma": [{"pred": a, "succ": b, "value": v}
                  for (a, b), v in sorted(dual.gamma.items())],
    }


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARAMS)
def test_writers_match_json_indent_encoder(params):
    inst = generate_instance(params)
    jobset = jobset_from_instance(inst)
    assert instance_to_document(inst) == _json(_instance_payload(inst))
    assert jobset_to_document(jobset) == _json(_instance_payload(jobset))
    for alg in ALGORITHMS:
        subject = jobset if alg == "jobs" else inst
        _, dual, _, schedule = run_algorithm(subject, alg)
        assert schedule_to_document(schedule) == \
            _json(_schedule_payload(schedule)), alg
        assert dual_to_document(dual, subject) == \
            _json(_dual_payload(dual, subject)), alg


# Values json writes in its own way, ids and sizes past 64 bits, and empty
# lists at every level.
ODD_INSTANCES = {
    "bool weight": mk_instance(1, 2, [(1, 0, True, [(1, 2, 3)])]),
    "bool size": mk_instance(1, 2, [(1, 0, 1, [(1, 2, True)])]),
    "float weight": mk_instance(1, 2, [(1, 0, 2.5, [(1, 2, 3)])]),
    "inf weight": mk_instance(1, 2, [(1, 0, math.inf, [(1, 2, 3)])]),
    "nan weight": mk_instance(1, 2, [(1, 0, math.nan, [(1, 2, 3)])]),
    "size 2**70, id -3": mk_instance(2, 2, [(-3, 0, 1, [(2, 1, 2**70),
                                                        (1, 1, 1)]),
                                            (4, 1, 7, [(2, 2, 1)])],
                                     edges=[(-3, 4)]),
    "empty": mk_instance(1, 1, []),
    "coflow without flows, no edges": mk_instance(1, 1, [(1, 0, 1, []),
                                                         (2, 0, 1, [(1, 1,
                                                                     1)])]),
}


@pytest.mark.parametrize("name", ODD_INSTANCES)
def test_writers_match_json_on_odd_values(name):
    inst = ODD_INSTANCES[name]
    assert instance_to_document(inst) == _json(_instance_payload(inst))
    for jobset in (jobset_from_instance(inst),
                   JobSet(inst.config, (), inst.coflows, inst.dag)):
        assert jobset_to_document(jobset) == _json(_instance_payload(jobset))


def test_writers_raise_json_type_error_on_numpy_scalars():
    inst = Instance(NetworkConfig(1, 1),
                    (Coflow(1, 0, np.int64(3), (Flow(1, 1, 1),)),),
                    PrecedenceDag.make([1]))
    with pytest.raises(TypeError, match="not JSON serializable"):
        instance_to_document(inst)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARAMS)
def test_beta_snapshots_are_the_unscheduled_prefixes(params):
    # Walking the order from the back, every position whose entity no alpha
    # placed was filled by the next beta record, taken while order[:pos + 1]
    # was unscheduled; a record freezes, in ascending id order, the coflows
    # of those entities, at flow and job level only those loading the
    # record's port. Coflow k goes to job k % 3, so jobs interleave ids.
    inst = generate_instance(params)
    jobset = jobset_grouped(inst, lambda k: k % 3)
    members = {j.id: j.coflows for j in jobset.jobs}
    by_id = inst.coflow_by_id()
    for permute, subject, coflows_of in (
            (permute_flow_level, inst, lambda e: (e,)),
            (permute_coflow_level, inst, lambda e: (e,)),
            (permute_jobs, jobset, members.__getitem__)):
        perm, dual = permute(subject)
        placed_by_alpha = {e for _, _, e in dual.alpha}
        prefixes = [sorted(k for e in perm.order[:pos + 1]
                           for k in coflows_of(e))
                    for pos in reversed(range(len(perm.order)))
                    if perm.order[pos] not in placed_by_alpha]
        assert len(prefixes) == len(dual.beta)
        for rec, prefix in zip(dual.beta, prefixes):
            if permute is not permute_coflow_level:
                prefix = [k for k in prefix if any(
                    (f.source if rec.side == "in" else f.dest) == rec.port
                    for f in by_id[k].flows)]
            assert list(rec.coflows) == prefix
            assert all(type(k) is int for k in rec.coflows)


# ---------------------------------------------------------------------------
# the port-demand table against per-flow sums
# ---------------------------------------------------------------------------

def _check_port_demand(inst: Instance) -> None:
    # Loads are exact Python-int sums of the flow sizes at each (side, port),
    # squares the float sums of the squared sizes in flow order, and
    # is_conforming is a loop over the edges on those loads.
    demand = PortDemand(inst)
    ports = inst.config.num_ports
    loads = {}
    for c in inst.coflows:
        for side, end in (("in", "source"), ("out", "dest")):
            load, squares = [0] * ports, [0.0] * ports
            for f in c.flows:
                load[getattr(f, end) - 1] += f.size
                squares[getattr(f, end) - 1] += float(f.size) * float(f.size)
            row = demand.row[c.id]
            assert demand.load[side].dtype == np.int64
            assert demand.load[side][row].tolist() == load
            assert demand.squares[side][row].tolist() == squares
            loads[c.id, side] = load
    by_id = inst.coflow_by_id()
    assert is_conforming(inst) == all(
        not by_id[a].weight < by_id[b].weight
        and all(x <= y for side in ("in", "out")
                for x, y in zip(loads[a, side], loads[b, side]))
        for a, b in inst.dag.edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARAMS)
def test_port_demand_matches_per_flow_sums(params):
    _check_port_demand(generate_instance(params))


PORT_DEMAND_INSTANCES = {
    # float64 would round both loads to 2**62 and 2**61.
    "size 2**62 + 1": mk_instance(1, 2, [(1, 0, 1, [(1, 2, 2**62 + 1)])]),
    "loads 2**61 + 1 before 2**61": mk_instance(
        1, 1, [(1, 0, 2, [(1, 1, 2**61 + 1)]), (2, 0, 1, [(1, 1, 2**61)])],
        edges=[(1, 2)]),
    "coflow without flows": mk_instance(2, 3, [(1, 0, 1, []),
                                               (2, 0, 1, [(3, 1, 4)])],
                                        edges=[(1, 2)]),
    "no coflows": mk_instance(1, 2, []),
    # Every edge passes the weight check, so the table is read.
    "generator conforming": generate_instance(GeneratorParams(
        n=10, num_ports=4, num_cores=2, deg=3, seed=5, conforming=True)),
}


@pytest.mark.parametrize("name", PORT_DEMAND_INSTANCES)
def test_port_demand_on_edge_cases(name):
    inst = PORT_DEMAND_INSTANCES[name]
    _check_port_demand(inst)
    if name == "generator conforming":
        assert inst.dag.edges and is_conforming(inst)


def _mutations(schedule: Schedule, i: int, num_cores: int, job_of: dict):
    """Each way of breaking `schedule` at its i-th segment, by name;
    `job_of` maps each job id to its coflows (empty for an instance)."""
    seg = schedule.segments[i]
    key = (seg.source, seg.dest, seg.coflow)
    last_end = max(g.end for g in schedule.segments
                   if (g.source, g.dest, g.coflow) == key)

    def with_segment(new):
        kept = schedule.segments[:i] + new + schedule.segments[i + 1:]
        return Schedule(schedule.flow_completions, schedule.coflow_completions,
                        schedule.job_completions, kept)

    yield "drop", with_segment(())
    yield "shorten", with_segment((seg._replace(end=seg.end - 1),))
    yield "core 0", with_segment((seg._replace(core=0),))
    yield "core m+1", with_segment((seg._replace(core=num_cores + 1),))
    yield "early completion", Schedule(
        {**schedule.flow_completions, key: last_end - 1},
        schedule.coflow_completions, schedule.job_completions,
        schedule.segments)
    yield "late completion", Schedule(
        {**schedule.flow_completions, key: last_end + 1},
        schedule.coflow_completions, schedule.job_completions,
        schedule.segments)
    if num_cores >= 2:
        yield "twice at once", with_segment(
            (seg, seg._replace(core=seg.core % num_cores + 1)))
    # A copy of the segment over another flow's interval on a shared port
    # and the same core.
    other = next((g for g in schedule.segments
                  if (g.source, g.dest, g.coflow) != key
                  and (g.source == seg.source or g.dest == seg.dest)), None)
    if other is not None:
        yield "overlap", with_segment(
            (seg, seg._replace(core=other.core, start=other.start,
                               end=other.end)))
    # The job of the segment's coflow completes a unit early.
    job = next((t for t, coflows in job_of.items() if seg.coflow in coflows),
               None)
    if job is not None:
        yield "false job completion", Schedule(
            schedule.flow_completions, schedule.coflow_completions,
            {**schedule.job_completions,
             job: schedule.job_completions[job] - 1}, schedule.segments)


# The part of a violation that each mutation must produce.
FLAGGED_BY = {"drop": "transmitted", "shorten": "transmitted",
              "core 0": "outside cores", "core m+1": "outside cores",
              "early completion": "after its completion",
              "late completion": "after its last segment ends",
              "overlap": "overlapping transmissions",
              "twice at once": "at once",
              "false job completion": "!= last coflow"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARAMS, st.sampled_from(ALGORITHMS), st.data())
def test_auditor_flags_every_infeasible_mutation(params, alg, data):
    # A dropped or shortened segment leaves its flow short of its size, a
    # segment on core 0 or m + 1 runs on no core of the network, a
    # completion before the flow's last segment end has the flow transmit
    # after it completes, one after it has the flow complete with nothing
    # left to send, a copy on another core sends the flow twice at once,
    # and a copy laid over another flow's segment shares a port with it; a
    # job that completes before its last coflow does is flagged against
    # the job set. The audit gets no assignment, as for jobs.
    inst = generate_instance(params)
    subject = jobset_from_instance(inst) if alg == "jobs" else inst
    schedule = run_algorithm(subject, alg)[3]
    assume(schedule.segments)
    job_of = {j.id: j.coflows for j in getattr(subject, "jobs", ())}
    i = data.draw(st.integers(0, len(schedule.segments) - 1), label="segment")
    for name, mutated in _mutations(schedule, i, inst.config.num_cores,
                                    job_of):
        violations = verify_schedule(mutated, subject).violations
        assert any(FLAGGED_BY[name] in v for v in violations), name


# What a Python caller might put where an integer or a number belongs.
MISTYPED_VALUES = ("x", None, True, 1.0, 1j, np.int64(1), float("nan"))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(PARAMS, st.sampled_from(FIELDS), st.sampled_from(MISTYPED_VALUES),
       st.integers(0, 2**16))
def test_a_mistyped_field_is_a_violation_never_a_traceback(params, field,
                                                            value, i):
    # The validators judge a Python-built subject by the documents' rule
    # and never raise; what they pass, evaluate runs and audits, and what
    # they reject, it rejects.
    inst = generate_instance(params)
    for subject, validate, algorithms in (
            (inst, validate_instance, ("fdls", "cdls")),
            (jobset_from_instance(inst), validate_jobset, ("jobs",))):
        mistyped = with_field(subject, field, value, i)
        if mistyped is None:
            continue
        report = validate(mistyped)
        for alg in algorithms:
            if report.ok:
                evaluate(mistyped, alg)
            else:
                with pytest.raises(InvalidInstanceError):
                    evaluate(mistyped, alg)
