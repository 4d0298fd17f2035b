"""Property tests over the generator's parameter space: for every algorithm
the dual is feasible, tight and below the schedule's cost, the schedule
passes the auditor, and every document round-trips byte-exactly; every beta
snapshot is the unscheduled prefix of the order it was taken for; the
auditor flags every schedule mutation that breaks feasibility."""
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coflow_forge import (
    Instance,
    JobSet,
    check_dual_feasibility,
    document_to_dual,
    document_to_instance,
    document_to_jobset,
    dual_objective,
    dual_to_document,
    instance_to_document,
    jobset_to_document,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
)
from coflow_forge.generator import (
    DENSITY_MODES,
    GeneratorParams,
    generate_instance,
)
from coflow_forge.metrics_report import (
    ALGORITHMS,
    run_algorithm,
    total_weighted_completion,
)
from coflow_forge.simulator import (
    Schedule,
    document_to_schedule,
    schedule_to_document,
    verify_schedule,
)

from conftest import jobset_from_instance, jobset_grouped

PARAMS = st.builds(
    GeneratorParams,
    n=st.integers(1, 12), num_ports=st.integers(1, 6),
    num_cores=st.integers(1, 4), deg=st.integers(0, 3),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    density_mode=st.sampled_from(DENSITY_MODES),
    seed=st.integers(0, 2**16), release_horizon=st.integers(0, 30),
    conforming=st.booleans())


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

        dag = jobset.intra_job_dag if alg == "jobs" else inst.dag
        base = Instance(inst.config, subject.coflows, dag)
        assert verify_schedule(schedule, base, assignment).ok, alg

        dtext = dual_to_document(dual, subject)
        assert dual_to_document(document_to_dual(dtext), subject) == dtext
        stext = schedule_to_document(schedule)
        assert schedule_to_document(document_to_schedule(stext)) == stext


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


def _mutations(schedule: Schedule, i: int, num_cores: int):
    """Each way of breaking `schedule` at its i-th segment, by name."""
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
    # A copy of the segment over another flow's interval on a shared port
    # and the same core.
    other = next((g for g in schedule.segments
                  if (g.source, g.dest, g.coflow) != key
                  and (g.source == seg.source or g.dest == seg.dest)), None)
    if other is not None:
        yield "overlap", with_segment(
            (seg, seg._replace(core=other.core, start=other.start,
                               end=other.end)))


# The part of a violation that each mutation must produce.
FLAGGED_BY = {"drop": "transmitted", "shorten": "transmitted",
              "core 0": "outside cores", "core m+1": "outside cores",
              "early completion": "after its completion",
              "overlap": "overlapping transmissions"}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARAMS, st.sampled_from(ALGORITHMS), st.data())
def test_auditor_flags_every_infeasible_mutation(params, alg, data):
    # A dropped or shortened segment leaves its flow short of its size, a
    # segment on core 0 or m + 1 runs on no core of the network, a
    # completion before the flow's last segment end has the flow transmit
    # after it completes, and a copy laid over another flow's segment shares
    # a port with it. The audit gets no assignment, as for jobs.
    inst = generate_instance(params)
    subject = jobset_from_instance(inst) if alg == "jobs" else inst
    schedule = run_algorithm(subject, alg)[3]
    assume(schedule.segments)
    dag = subject.intra_job_dag if alg == "jobs" else inst.dag
    base = Instance(inst.config, subject.coflows, dag)
    i = data.draw(st.integers(0, len(schedule.segments) - 1), label="segment")
    for name, mutated in _mutations(schedule, i, inst.config.num_cores):
        violations = verify_schedule(mutated, base).violations
        assert any(FLAGGED_BY[name] in v for v in violations), name
