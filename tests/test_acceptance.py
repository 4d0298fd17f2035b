"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 share a 200-instance corpus (several sizes, core counts, with
and without precedence and releases) computed once per session.
"""
import itertools
import time
from pathlib import Path
from statistics import mean

import pytest

from coflow_forge import (
    Permutation,
    check_dual_feasibility,
    document_to_dual,
    document_to_instance,
    document_to_jobset,
    dual_objective,
    dual_to_document,
    instance_to_document,
    is_conforming,
    jobset_to_document,
    longest_path_chi,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
)
from coflow_forge.assignment import assign_coflows_cdls, assign_flows_fdls
from coflow_forge.generator import (
    GeneratorParams,
    WorkloadConfig,
    generate_instance,
)
from coflow_forge.metrics_report import (
    evaluate,
    theorem_bound,
    total_weighted_completion,
)
from coflow_forge.simulator import (
    document_to_schedule,
    schedule_to_document,
    simulate,
    verify_schedule,
)
from coflow_forge.trace_io import format_trace, parse_trace

from conftest import jobset_from_instance

GOLDEN = Path(__file__).parent / "golden"


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def corpus():
    """200 seeded instances with full pipeline results for criteria 1-3."""
    started = time.perf_counter()
    runs = []
    for seed in range(200):
        inst = generate_instance(GeneratorParams(
            n=1 + seed % 20, num_ports=10, num_cores=(1, 2, 5)[seed % 3],
            deg=0 if seed % 2 == 0 else 3, p=1.0, seed=seed,
            release_horizon=0 if (seed // 2) % 2 == 0 else 25))
        js = jobset_from_instance(inst)
        flow_perm, flow_dual = permute_flow_level(inst)
        coflow_perm, coflow_dual = permute_coflow_level(inst)
        job_perm, job_dual = permute_jobs(js)
        fdls_asg = assign_flows_fdls(inst, flow_perm)
        cdls_asg = assign_coflows_cdls(inst, coflow_perm)
        fdls_sched = simulate(inst, fdls_asg, flow_perm)
        cdls_sched = simulate(inst, cdls_asg, coflow_perm)
        runs.append(dict(
            seed=seed, instance=inst, jobset=js,
            flow_dual=flow_dual, coflow_dual=coflow_dual, job_dual=job_dual,
            fdls=(fdls_asg, fdls_sched), cdls=(cdls_asg, cdls_sched)))
    return runs, time.perf_counter() - started


def test_criterion_1_dual_feasibility_and_tightness(corpus):
    runs, build_time = corpus
    started = time.perf_counter()
    checked = 0
    for run in runs:
        inst, js = run["instance"], run["jobset"]
        for dual, subject, entities in (
                (run["flow_dual"], inst, len(inst.coflows)),
                (run["coflow_dual"], inst, len(inst.coflows)),
                (run["job_dual"], js, len(js.jobs))):
            report = check_dual_feasibility(dual, subject)
            assert report.feasible, (run["seed"], dual.kind,
                                     report.max_violation)
            assert len(report.tight_set) == entities, (run["seed"], dual.kind)
            checked += 1
    elapsed = build_time + time.perf_counter() - started
    _report(1, elapsed < 30.0,
            f"{checked} duals feasible and tight at 1e-6 over 200 instances "
            f"in {elapsed:.1f}s (< 30s)")


def test_criterion_2_lower_bound_soundness(corpus):
    runs, _ = corpus
    worst = 1.0
    for run in runs:
        inst = run["instance"]
        flow_bound = dual_objective(run["flow_dual"], inst)
        coflow_bound = dual_objective(run["coflow_dual"], inst)
        fdls_cost = total_weighted_completion(run["fdls"][1], inst)
        cdls_cost = total_weighted_completion(run["cdls"][1], inst)
        for cost, bound in ((fdls_cost, flow_bound),
                            (cdls_cost, flow_bound),
                            (cdls_cost, coflow_bound)):
            if bound > 0:
                ratio = cost / bound
                worst = min(worst, ratio)
                assert ratio >= 1.0 - 1e-9, (run["seed"], cost, bound)
            else:
                assert cost >= -1e-9
    _report(2, True,
            f"dual objective never exceeds FDLS/CDLS cost on 200 instances "
            f"(worst ratio {worst:.12f} >= 1 - 1e-9)")


def test_criterion_3_simulator_feasibility(corpus):
    runs, _ = corpus
    audits = 0
    for run in runs:
        inst = run["instance"]
        for asg, sched in (run["fdls"], run["cdls"]):
            report = verify_schedule(sched, inst, asg)
            assert report.ok, (run["seed"], report.violations[:3])
            audits += 1
    for seed in range(100):
        inst = generate_instance(GeneratorParams(
            n=2 + seed % 12, num_ports=(5, 10, 15)[seed % 3],
            num_cores=1 + seed % 6, deg=seed % 4, p=0.5 + (seed % 4) / 2,
            density_mode=("default", "dense", "sparse", "combined")[seed % 4],
            seed=1000 + seed, release_horizon=0 if seed % 2 else 40))
        perm, _ = permute_flow_level(inst)
        asg = assign_flows_fdls(inst, perm)
        sched = simulate(inst, asg, perm)
        report = verify_schedule(sched, inst, asg)
        assert report.ok, (seed, report.violations[:3])
        audits += 1
    _report(3, True, f"verify_schedule ok for {audits} schedules "
                     "(port capacity, releases, precedence, volume)")


def _conforming_instance(seed, horizon):
    return generate_instance(GeneratorParams(
        n=15, num_ports=10, num_cores=5, deg=3, p=1.0, seed=seed,
        conforming=True, release_horizon=horizon))


def test_criterion_4_theorem_bounds_on_conforming_instances():
    m = 5
    for horizon, flow_kind, coflow_kind in ((0, False, False),
                                            (30, True, True)):
        for seed in range(100):
            inst = _conforming_instance(seed, horizon)
            assert is_conforming(inst)
            chi = longest_path_chi(inst.dag)
            with_release = horizon > 0

            flow_perm, flow_dual = permute_flow_level(inst)
            assert flow_dual.gamma == {}, seed
            _, coflow_dual = permute_coflow_level(inst)
            assert coflow_dual.gamma == {}, seed

            fdls = evaluate(inst, "fdls", seed=seed)
            cdls = evaluate(inst, "cdls", seed=seed)
            flow_bound = theorem_bound("flow", chi, m,
                                       with_release=with_release,
                                       conforming_weights=True)
            coflow_bound = theorem_bound("coflow", chi, m,
                                         with_release=with_release,
                                         conforming_weights=True)
            assert fdls.ratio <= flow_bound, (seed, horizon, fdls.ratio)
            assert cdls.ratio <= coflow_bound, (seed, horizon, cdls.ratio)
    _report(4, True,
            "100 conforming seeds x {releases 0, random}: gamma == 0, "
            "FDLS ratio <= 4chi+1-2/m (or +2 with releases), "
            "CDLS ratio <= 4chi m (or +1)")


def test_criterion_5_brute_force_oracle():
    started = time.perf_counter()
    single_flow_mix = (WorkloadConfig(1, 1, 1, 10, 1.0),)
    checked_conforming = 0
    for seed in range(50):
        inst = generate_instance(GeneratorParams(
            n=2 + seed % 4, num_ports=4, num_cores=1 + seed % 2,
            deg=seed % 3, p=1.0, workload_mix=single_flow_mix,
            seed=3000 + seed, conforming=seed % 2 == 0))
        ids = sorted(c.id for c in inst.coflows)
        pos_ok = inst.dag.edges
        proxy_f = proxy_c = None
        for order in itertools.permutations(ids):
            pos = {k: i for i, k in enumerate(order)}
            if any(pos[a] >= pos[b] for a, b in pos_ok):
                continue
            perm = Permutation(order)
            cost_f = total_weighted_completion(
                simulate(inst, assign_flows_fdls(inst, perm), perm), inst)
            cost_c = total_weighted_completion(
                simulate(inst, assign_coflows_cdls(inst, perm), perm), inst)
            proxy_f = cost_f if proxy_f is None else min(proxy_f, cost_f)
            proxy_c = cost_c if proxy_c is None else min(proxy_c, cost_c)

        fdls = evaluate(inst, "fdls", seed=seed)
        cdls = evaluate(inst, "cdls", seed=seed)
        tol = 1e-9 * max(1.0, proxy_f)
        assert fdls.dual <= proxy_f + tol, (seed, fdls.dual, proxy_f)
        assert cdls.dual <= proxy_c + tol, (seed, cdls.dual, proxy_c)
        assert fdls.twc >= proxy_f - tol, (seed, fdls.twc, proxy_f)
        assert cdls.twc >= proxy_c - tol, (seed, cdls.twc, proxy_c)
        if is_conforming(inst):
            chi = longest_path_chi(inst.dag)
            bound = theorem_bound("flow", chi, inst.config.num_cores,
                                  with_release=False, conforming_weights=True)
            assert fdls.twc / proxy_f <= bound, (seed, fdls.twc / proxy_f)
            checked_conforming += 1
    elapsed = time.perf_counter() - started
    _report(5, elapsed < 60.0,
            f"50 brute-forced instances: dual <= permutation-optimum proxy "
            f"<= algorithm cost; {checked_conforming} conforming members "
            f"within 4chi+1-2/m; {elapsed:.1f}s (< 60s)")


def test_criterion_6_dense_figure_reproduction():
    started = time.perf_counter()
    ratios = []
    for seed in range(100):
        inst = generate_instance(GeneratorParams(
            n=25, num_ports=10, num_cores=5, deg=3, p=1.0,
            density_mode="dense", seed=seed))
        ratios.append(evaluate(inst, "fdls", seed=seed).ratio)
    elapsed = time.perf_counter() - started
    avg = mean(ratios)
    _report(6, 2.2 <= avg <= 3.1 and elapsed < 300.0,
            f"dense n=25 m=5: mean FDLS ratio {avg:.4f} in [2.2, 3.1] "
            f"over 100 seeds in {elapsed:.1f}s (< 300s)")


def test_criterion_7_parallelism_factor_trend():
    means_chi = []
    means_ratio = []
    for p in (0.5, 1.0, 2.0):
        chis, ratios = [], []
        for seed in range(100):
            inst = generate_instance(GeneratorParams(
                n=25, num_ports=10, num_cores=5, deg=3, p=p, seed=seed))
            rec = evaluate(inst, "fdls", seed=seed)
            chis.append(rec.chi)
            ratios.append(rec.ratio)
        means_chi.append(mean(chis))
        means_ratio.append(mean(ratios))
    ok = (means_chi[0] >= means_chi[1] >= means_chi[2]
          and means_ratio[0] >= means_ratio[1] >= means_ratio[2])
    _report(7, ok,
            f"p in (0.5, 1, 2): mean chi {tuple(round(c, 2) for c in means_chi)}"
            f" and mean ratio {tuple(round(r, 3) for r in means_ratio)} "
            "both non-increasing")


def test_criterion_8_large_instance_runtime():
    inst = generate_instance(GeneratorParams(
        n=2000, num_ports=50, num_cores=5, deg=3, p=1.0,
        density_mode="sparse", seed=77))
    t0 = time.perf_counter()
    permute_flow_level(inst)
    flow_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    permute_coflow_level(inst)
    coflow_s = time.perf_counter() - t0
    _report(8, flow_s < 10.0 and coflow_s < 10.0,
            f"n=2000 N=50: flow-level {flow_s:.2f}s, coflow-level "
            f"{coflow_s:.2f}s (each < 10s)")


def test_criterion_9_document_round_trips():
    inst_text = (GOLDEN / "instance.json").read_text()
    inst = document_to_instance(inst_text)
    assert instance_to_document(inst) == inst_text

    js_text = (GOLDEN / "jobset.json").read_text()
    js = document_to_jobset(js_text)
    assert jobset_to_document(js) == js_text

    for name, subject in (("dual_flow.json", inst),
                          ("dual_coflow.json", inst),
                          ("dual_job.json", js)):
        text = (GOLDEN / name).read_text()
        assert dual_to_document(document_to_dual(text), subject) == text

    sched_text = (GOLDEN / "schedule.json").read_text()
    assert schedule_to_document(document_to_schedule(sched_text)) == sched_text

    trace_text = (GOLDEN / "trace.txt").read_text()
    ports, coflows = parse_trace(trace_text)
    assert format_trace(ports, coflows) == trace_text
    _report(9, True, "instance, jobset, dual (3 kinds), schedule and trace "
                     "documents round-trip byte-exactly on golden files")
