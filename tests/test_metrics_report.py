from dataclasses import replace

import pytest

from coflow_forge import InvalidInstanceError, Job, JobSet, metrics_report
from coflow_forge.generator import GeneratorParams, generate_instance
from coflow_forge.metrics_report import (
    CSV_HEADER,
    EvaluationReport,
    RunRecord,
    approximation_ratio,
    emit_report,
    evaluate,
    parse_report,
    theorem_bound,
    total_weighted_completion,
    weight_ratio_R,
)
from coflow_forge.simulator import Schedule

from conftest import jobset_from_instance, mk_instance


def _sched(coflows, jobs=None):
    return Schedule({}, dict(coflows), dict(jobs or {}), ())


def test_total_weighted_completion():
    inst = mk_instance(1, 1, [(1, 0, 2, [(1, 1, 1)])])
    assert total_weighted_completion(_sched({1: 3}), inst) == 6.0
    two = mk_instance(1, 1, [(1, 0, 2, [(1, 1, 1)]),
                             (2, 0, 1, [(1, 1, 1)])])
    assert total_weighted_completion(_sched({1: 1, 2: 3}), two) == 5.0
    empty = mk_instance(1, 1, [])
    assert total_weighted_completion(_sched({}), empty) == 0.0


def test_total_weighted_completion_jobs_and_missing():
    inst = mk_instance(1, 1, [(1, 0, 2, [(1, 1, 1)])])
    js = JobSet(inst.config, (Job(1, 3, (1,)),), inst.coflows, inst.dag)
    assert total_weighted_completion(_sched({1: 2}, {1: 4}), js) == 12.0
    with pytest.raises(ValueError, match="lacks completion"):
        total_weighted_completion(_sched({}), inst)


def test_approximation_ratio():
    assert approximation_ratio(5, 5) == 1.0
    assert approximation_ratio(10, 4) == 2.5
    assert approximation_ratio(0, 0) == 1.0
    with pytest.raises(ValueError, match="degenerate"):
        approximation_ratio(1, 0)


def test_weight_ratio():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 1)]),
                              (2, 0, 100, [(1, 1, 1)])])
    assert weight_ratio_R(inst) == 100.0
    same = mk_instance(1, 1, [(1, 0, 7, [(1, 1, 1)])])
    assert weight_ratio_R(same) == 1.0
    frac = mk_instance(1, 1, [(1, 0, 2, [(1, 1, 1)]),
                              (2, 0, 5, [(1, 1, 1)])])
    assert weight_ratio_R(frac) == 2.5
    with pytest.raises(ValueError):
        weight_ratio_R(mk_instance(1, 1, []))


def test_theorem_bound_values():
    assert theorem_bound("flow", 2, 5, with_release=True,
                         conforming_weights=True) == pytest.approx(9.6)
    assert theorem_bound("flow", 2, 5, with_release=False,
                         conforming_weights=True) == pytest.approx(8.6)
    assert theorem_bound("coflow", 2, 5, with_release=True,
                         conforming_weights=True) == 41.0
    assert theorem_bound("coflow", 2, 5, with_release=False,
                         conforming_weights=True) == 40.0
    assert theorem_bound("flow", 2, 5, R=3.0, with_release=False,
                         conforming_weights=False) == pytest.approx(24.6)
    assert theorem_bound("flow", 2, 5, R=3.0, with_release=True,
                         conforming_weights=False) == pytest.approx(27.6)
    assert theorem_bound("coflow", 2, 5, R=3.0, with_release=True,
                         conforming_weights=False) == pytest.approx(123.0)
    assert theorem_bound("job", 2, 5, R=9.0, with_release=True,
                         conforming_weights=False) == pytest.approx(9.6)
    with pytest.raises(ValueError):
        theorem_bound("mystery", 1, 1)
    with pytest.raises(ValueError):
        theorem_bound("flow", 0, 1)


def _record(**overrides):
    base = dict(instance_id="i", seed=0, algorithm="fdls", n=2, m=1,
                num_ports=2, chi=1, weight_ratio=1.0, twc=5.0, dual=5.0,
                ratio=1.0, bound=5.0, conforming=True, ms=0.0)
    base.update(overrides)
    return RunRecord(**base)


def test_emit_csv_shapes():
    empty = emit_report(EvaluationReport([]))
    assert empty == CSV_HEADER + "\n"
    one = emit_report(EvaluationReport([_record()]))
    lines = one.strip().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 2


def test_emit_summary_per_algorithm():
    rep = EvaluationReport([_record(algorithm="fdls", ratio=2.0),
                            _record(algorithm="fdls", ratio=3.0, seed=1),
                            _record(algorithm="cdls", ratio=4.0)])
    text = emit_report(rep, format="summary")
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("cdls:") and lines[1].startswith("fdls:")
    assert "mean_ratio=2.500000" in lines[1]


def test_csv_round_trip_precision():
    rec = _record(twc=12345.678901234567, dual=1.0000000000000002e-3,
                  ratio=2.718281828459045, ms=0.1234567890123)
    text = emit_report(EvaluationReport([rec]))
    back = parse_report(text).records[0]
    assert back == rec


def test_parse_report_names_a_row_with_the_wrong_cell_count():
    text = emit_report(EvaluationReport([_record(), _record(seed=1)]))
    with pytest.raises(ValueError, match=r"CSV row 3 has 15 cells, not 14"):
        parse_report(text.replace("i,1,fdls", "i,1,fdls,x"))


def test_report_sorted_records():
    report = EvaluationReport([_record(instance_id="b"),
                               _record(instance_id="a")])
    assert [r.instance_id for r in report.sorted_records()] == ["a", "b"]


@pytest.mark.parametrize("alg", ["fdls", "cdls"])
def test_evaluate_end_to_end(alg):
    inst = generate_instance(GeneratorParams(n=8, num_ports=5, num_cores=2,
                                             deg=2, seed=1))
    rec = evaluate(inst, alg, instance_id="x", seed=1)
    assert rec.algorithm == alg
    assert rec.ratio >= 1.0 - 1e-9
    assert rec.ratio == pytest.approx(rec.twc / rec.dual)
    assert rec.n == 8 and rec.m == 2 and rec.num_ports == 5
    assert rec.ms == 0.0


@pytest.mark.parametrize("weight", [float("inf"), 10**400],
                         ids=["inf", "10**400"])
@pytest.mark.parametrize("alg", ["fdls", "cdls", "jobs"])
def test_evaluate_rejects_weights_past_the_float_range(weight, alg):
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, weight, [(1, 1, 3)])])
    subject = jobset_from_instance(inst, 1) if alg == "jobs" else inst
    with pytest.raises(InvalidInstanceError, match="must be a finite number"):
        evaluate(subject, alg)


def test_evaluate_jobs():
    inst = generate_instance(GeneratorParams(n=6, num_ports=4, num_cores=2,
                                             deg=2, seed=3))
    js = jobset_from_instance(inst)
    rec = evaluate(js, "jobs", instance_id="j", seed=3)
    assert rec.algorithm == "jobs"
    assert rec.ratio >= 1.0 - 1e-9


def test_evaluate_rejects_a_job_completion_that_is_not_its_last_coflows(
        monkeypatch):
    inst = generate_instance(GeneratorParams(n=9, num_ports=4, num_cores=2,
                                             deg=2, seed=3))
    simulate_jobs = metrics_report.simulate_jobs

    def zeroed(jobset, perm):
        schedule = simulate_jobs(jobset, perm)
        return replace(schedule, job_completions=dict.fromkeys(
            schedule.job_completions, 0))

    monkeypatch.setattr(metrics_report, "simulate_jobs", zeroed)
    with pytest.raises(RuntimeError, match=r"internal error: infeasible "
                       r"schedule: job 1 completion 0 != last coflow [1-9]"):
        evaluate(jobset_from_instance(inst), "jobs")


def test_evaluate_rejects_mismatched_subject():
    inst = generate_instance(GeneratorParams(n=4, num_ports=4, num_cores=2,
                                             seed=0))
    with pytest.raises(ValueError):
        evaluate(inst, "jobs")
    with pytest.raises(ValueError):
        evaluate(jobset_from_instance(inst), "fdls")
    with pytest.raises(ValueError):
        evaluate(inst, "weaver")
