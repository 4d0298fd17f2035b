import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from coflow_forge import (
    COFLOW_LEVEL,
    FLOW_LEVEL,
    JOB_LEVEL,
    BetaRecord,
    Coflow,
    DocumentError,
    DualSolution,
    Flow,
    Instance,
    InvalidInstanceError,
    Job,
    JobSet,
    NetworkConfig,
    PrecedenceDag,
    check_dual_feasibility,
    document_to_dual,
    dual_objective,
    dual_to_document,
    f_set,
    permute_coflow_level,
    permute_flow_level,
    permute_jobs,
    validate_instance,
)
from coflow_forge import primal_dual
from coflow_forge.generator import GeneratorParams, generate_instance
from coflow_forge.primal_dual import Permutation

from conftest import PARAMS, jobset_from_instance, jobset_grouped, mk_instance


# ---------------------------------------------------------------------------
# f_set
# ---------------------------------------------------------------------------

def test_f_set_examples():
    assert f_set([2, 2], 2) == 6.0
    assert f_set([], 5) == 0.0
    assert f_set([7], 1) == 49.0


def test_f_set_port_load_examples():
    assert f_set([1, 2], 1) == 7.0
    assert f_set([], 3) == 0.0
    assert f_set([3], 3) == 3.0


def test_f_requires_positive_m():
    with pytest.raises(ValueError):
        f_set([1], 0)


@pytest.mark.parametrize("seed", range(20))
def test_observation_squared_sum_bound(seed):
    # d(S)^2 <= 2m * f(S) for any multiset and m.
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 1000, size=rng.integers(1, 30)).tolist()
    m = int(rng.integers(1, 10))
    assert sum(sizes) ** 2 <= 2 * m * f_set(sizes, m) + 1e-9


# ---------------------------------------------------------------------------
# permute_flow_level
# ---------------------------------------------------------------------------

def test_flow_level_two_coflows(two_coflow_instance):
    perm, dual = permute_flow_level(two_coflow_instance)
    assert perm.order == (2, 1)
    assert dual.kind == FLOW_LEVEL
    assert dual.alpha == {} and dual.gamma == {}
    assert len(dual.beta) == 2
    first, second = dual.beta
    assert first.port == 1 and set(first.coflows) == {1, 2}
    assert first.value == pytest.approx(0.5)
    assert second.port == 1 and set(second.coflows) == {2}
    assert second.value == pytest.approx(1.5)


def test_flow_level_single_coflow():
    inst = mk_instance(3, 2, [(1, 0, 4, [(1, 2, 5)])])
    perm, dual = permute_flow_level(inst)
    assert perm.order == (1,)
    report = check_dual_feasibility(dual, inst)
    assert report.feasible and report.tight_set == (1,)


def test_flow_level_successor_chain_sets_gamma():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 1)]),
                              (2, 0, 10, [(1, 1, 1)])],
                       edges=[(1, 2)])
    perm, dual = permute_flow_level(inst)
    assert perm.order == (1, 2)
    assert dual.gamma == {(1, 2): pytest.approx(9.0)}
    report = check_dual_feasibility(dual, inst)
    assert report.feasible and set(report.tight_set) == {1, 2}


def test_flow_level_rejects_bad_inputs(two_coflow_instance):
    with pytest.raises(ValueError):
        permute_flow_level(two_coflow_instance, kappa=0.0)
    bad = mk_instance(1, 1, [(1, 0, -1, [(1, 1, 1)])])
    with pytest.raises(InvalidInstanceError):
        permute_flow_level(bad)


# ---------------------------------------------------------------------------
# permute_coflow_level
# ---------------------------------------------------------------------------

def test_coflow_level_two_coflows(two_coflow_instance):
    perm, dual = permute_coflow_level(two_coflow_instance)
    assert perm.order == (2, 1)
    assert dual.kind == COFLOW_LEVEL
    # coflow-level snapshots freeze the whole unscheduled set
    assert set(dual.beta[0].coflows) == {1, 2}
    assert set(dual.beta[1].coflows) == {2}


def test_coflow_level_release_triggers_alpha():
    inst = mk_instance(1, 1, [(1, 0, 1.0, [(1, 1, 1)]),
                              (2, 100, 1.0, [(1, 1, 1)])])
    perm, dual = permute_coflow_level(inst, kappa=0.5)
    assert perm.order == (1, 2)
    assert len(dual.alpha) == 1
    ((side, port, k), value), = dual.alpha.items()
    assert k == 2 and value > 0
    report = check_dual_feasibility(dual, inst)
    assert report.feasible and set(report.tight_set) == {1, 2}


def test_coflow_level_single():
    inst = mk_instance(2, 3, [(1, 0, 2, [(1, 3, 4), (2, 1, 2)])])
    perm, dual = permute_coflow_level(inst)
    assert perm.order == (1,)
    assert check_dual_feasibility(dual, inst).tight_set == (1,)


# ---------------------------------------------------------------------------
# permute_jobs
# ---------------------------------------------------------------------------

def test_jobs_single():
    js = JobSet(NetworkConfig(1, 1), (Job(1, 1, (1,)),),
                mk_instance(1, 1, [(1, 0, 1, [(1, 1, 3)])]).coflows,
                PrecedenceDag.make([1]))
    perm, dual = permute_jobs(js)
    assert perm.order == (1,)
    assert dual.kind == JOB_LEVEL and dual.gamma == {}


def test_jobs_two_single_coflow_jobs(two_coflow_instance):
    inst = two_coflow_instance
    js = JobSet(inst.config, (Job(1, 1, (1,)), Job(2, 2, (2,))),
                inst.coflows, inst.dag)
    perm, dual = permute_jobs(js)
    assert perm.order == (2, 1)
    assert [rec.value for rec in dual.beta] == pytest.approx([0.5, 1.5])


def test_jobs_smaller_load_first():
    inst = mk_instance(1, 1, [(1, 0, 3, [(1, 1, 1)]),
                              (2, 0, 3, [(1, 1, 5)])])
    js = JobSet(inst.config, (Job(1, 3, (1,)), Job(2, 3, (2,))),
                inst.coflows, inst.dag)
    perm, _ = permute_jobs(js)
    assert perm.order == (1, 2)


def test_jobs_gamma_always_empty():
    for seed in range(5):
        inst = generate_instance(GeneratorParams(n=9, num_ports=4,
                                                 num_cores=2, deg=3,
                                                 seed=seed))
        js = jobset_from_instance(inst)
        _, dual = permute_jobs(js)
        assert dual.gamma == {}


# ---------------------------------------------------------------------------
# dual_objective
# ---------------------------------------------------------------------------

def test_objective_two_coflow_example(two_coflow_instance):
    _, dual = permute_flow_level(two_coflow_instance)
    assert dual_objective(dual, two_coflow_instance) == pytest.approx(5.0)


def test_objective_empty_dual(two_coflow_instance):
    empty = DualSolution(FLOW_LEVEL, 0.5, {}, (), {})
    assert dual_objective(empty, two_coflow_instance) == 0.0


def test_objective_single_coflow_w_times_d():
    for w, d in ((3, 4), (1, 9), (7, 2)):
        inst = mk_instance(1, 1, [(1, 0, w, [(1, 1, d)])])
        _, dual = permute_flow_level(inst)
        assert dual.beta[0].value == pytest.approx(w / d)
        assert dual_objective(dual, inst) == pytest.approx(w * d)


def test_objective_unknown_reference(two_coflow_instance):
    dual = DualSolution(FLOW_LEVEL, 0.5, {},
                        (BetaRecord("in", 1, (9,), 1.0),), {})
    with pytest.raises(ValueError, match="unknown coflow"):
        dual_objective(dual, two_coflow_instance)


def test_objective_alpha_slot_demand():
    # alpha sits on slot (port, 1) / (1, port); its r + d term uses that slot.
    inst = mk_instance(1, 2, [(1, 0, 1.0, [(1, 1, 1)]),
                              (2, 50, 1.0, [(1, 1, 4)])])
    perm, dual = permute_coflow_level(inst)
    assert perm.order == (1, 2)
    # release 50 dominates: alpha pays (release + port load) at coflow level
    assert dual_objective(dual, inst) >= 50.0


# ---------------------------------------------------------------------------
# check_dual_feasibility
# ---------------------------------------------------------------------------

def test_feasibility_scaled_beta_detected(two_coflow_instance):
    _, dual = permute_flow_level(two_coflow_instance)
    scaled = DualSolution(dual.kind, dual.kappa, dual.alpha,
                          tuple(BetaRecord(r.side, r.port, r.coflows,
                                           r.value * 10)
                                for r in dual.beta), dual.gamma)
    report = check_dual_feasibility(scaled, two_coflow_instance)
    assert not report.feasible
    assert report.max_violation > 1.0


@pytest.mark.parametrize("negate", ["alpha", "beta", "gamma"])
def test_feasibility_rejects_negative_values(negate):
    inst = mk_instance(1, 2, [(1, 0, 3, [(1, 1, 2), (2, 2, 1)]),
                              (2, 0, 5, [(1, 2, 3)]),
                              (3, 0, 2, [(2, 1, 2)])])
    _, dual = permute_flow_level(inst)
    assert check_dual_feasibility(dual, inst).feasible
    assert dual_objective(dual, inst) == pytest.approx(34.0)
    alpha, beta, gamma = dict(dual.alpha), dual.beta, dict(dual.gamma)
    if negate == "alpha":
        alpha[("in", 1, 1)] = -1.0
    elif negate == "beta":
        # The objective of this dual is -160, far below the true bound.
        beta = tuple(BetaRecord(r.side, r.port, r.coflows, -5.0)
                     for r in beta)
    else:
        # Small enough to keep every constraint within its tolerance.
        gamma[(1, 2)] = -1e-9
    changed = DualSolution(dual.kind, dual.kappa, alpha, beta, gamma)
    assert not check_dual_feasibility(changed, inst).feasible


def test_feasibility_empty_dual(two_coflow_instance):
    empty = DualSolution(FLOW_LEVEL, 0.5, {}, (), {})
    report = check_dual_feasibility(empty, two_coflow_instance)
    assert report.feasible and report.tight_set == ()


@pytest.mark.parametrize("kind", [FLOW_LEVEL, COFLOW_LEVEL])
def test_feasibility_integer_beta_over_large_load_is_exact(kind):
    # 2 * 2**62 wraps to -2**63 in int64; the LHS must read 2**63 > w = 1.
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2**62)])])
    assert validate_instance(inst).ok
    dual = DualSolution(kind, 0.5, {}, (BetaRecord("in", 1, (1,), 2),), {})
    report = check_dual_feasibility(dual, inst)
    assert not report.feasible
    assert report.lhs[1] == 2.0**63


# ---------------------------------------------------------------------------
# algorithm invariants over seeded instances
# ---------------------------------------------------------------------------

def _random_instance(seed):
    return generate_instance(GeneratorParams(
        n=3 + seed % 12, num_ports=6, num_cores=1 + seed % 3,
        deg=0 if seed % 2 else 3, seed=seed,
        release_horizon=0 if seed % 4 < 2 else 30))


@pytest.mark.parametrize("seed", range(24))
def test_all_levels_feasible_and_tight(seed):
    inst = _random_instance(seed)
    js = jobset_from_instance(inst)
    for perm, dual, subject in (
            (*permute_flow_level(inst), inst),
            (*permute_coflow_level(inst), inst),
            (*permute_jobs(js), js)):
        report = check_dual_feasibility(dual, subject)
        n_entities = len(js.jobs) if dual.kind == JOB_LEVEL else len(inst.coflows)
        assert report.feasible, (seed, dual.kind, report.max_violation)
        assert len(report.tight_set) == n_entities, (seed, dual.kind)
        assert sorted(perm.order) == sorted(
            j.id for j in js.jobs) if dual.kind == JOB_LEVEL else sorted(
            c.id for c in inst.coflows)


@pytest.mark.parametrize("seed", range(12))
def test_zero_release_means_no_alpha(seed):
    inst = generate_instance(GeneratorParams(n=10, num_ports=5, num_cores=2,
                                             deg=3, seed=seed))
    for permute in (permute_flow_level, permute_coflow_level):
        _, dual = permute(inst)
        assert dual.alpha == {}


@pytest.mark.parametrize("seed", range(12))
def test_zero_release_order_is_topological(seed):
    inst = generate_instance(GeneratorParams(n=12, num_ports=5, num_cores=2,
                                             deg=3, seed=seed))
    for permute in (permute_flow_level, permute_coflow_level):
        perm, dual = permute(inst)
        assert dual.alpha == {}
        pos = {k: i for i, k in enumerate(perm.order)}
        for a, b in inst.dag.edges:
            assert pos[a] < pos[b], (seed, permute.__name__)


@pytest.mark.parametrize("seed", range(10))
def test_conforming_instances_have_no_gamma(seed):
    inst = generate_instance(GeneratorParams(n=10, num_ports=5, num_cores=2,
                                             deg=3, seed=seed,
                                             conforming=True))
    for permute in (permute_flow_level, permute_coflow_level):
        _, dual = permute(inst)
        assert dual.gamma == {}, (seed, permute.__name__)


def test_determinism(two_coflow_instance):
    for permute in (permute_flow_level, permute_coflow_level):
        a = permute(two_coflow_instance)
        b = permute(two_coflow_instance)
        assert a == b


@pytest.mark.parametrize("seed", range(6))
def test_beta_values_non_negative_and_snapshots_shrink(seed):
    inst = _random_instance(seed)
    _, dual = permute_flow_level(inst)
    for rec in dual.beta:
        assert rec.value >= 0
        assert rec.coflows == tuple(sorted(rec.coflows))
    for v in dual.gamma.values():
        assert v > 0


@pytest.mark.parametrize("kappa", [0.05, 1.0, 2.5])
def test_nondefault_kappa_still_feasible_and_tight(kappa):
    for seed in range(6):
        inst = generate_instance(GeneratorParams(n=8, num_ports=6,
                                                 num_cores=2, deg=3,
                                                 seed=seed,
                                                 release_horizon=30))
        for permute in (permute_flow_level, permute_coflow_level):
            _, dual = permute(inst, kappa)
            assert dual.kappa == kappa
            report = check_dual_feasibility(dual, inst)
            assert report.feasible
            assert len(report.tight_set) == len(inst.coflows)


def test_empty_coflow_is_handled():
    # A coflow without flows still gets placed and made tight via alpha.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 3)]), (2, 0, 2, [])])
    for permute in (permute_flow_level, permute_coflow_level):
        perm, dual = permute(inst)
        assert sorted(perm.order) == [1, 2]
        report = check_dual_feasibility(dual, inst)
        assert report.feasible and set(report.tight_set) == {1, 2}


# ---------------------------------------------------------------------------
# the engine against a reference loop
# ---------------------------------------------------------------------------

def _reference_engine(ent, load, successors, m, kappa, kind, snapshot_ids):
    """The plain right-to-left loop: every step scans all entities, divides
    by every load and clips every residual."""
    n = len(ent.ids)
    port_in = load["in"].sum(axis=0)
    port_out = load["out"].sum(axis=0)
    successors = {ent.index[a]: sorted(ent.index[b] for b in bs)
                  for a, bs in successors.items()}
    resid = ent.weight.copy()
    unsched = np.ones(n, dtype=bool)

    alpha, beta, gamma = {}, [], {}
    sigma = [0] * n
    scale = max(1.0, float(ent.weight.max())) if n else 1.0

    for pos in range(n, 0, -1):
        mu1, mu2 = int(np.argmax(port_in)), int(np.argmax(port_out))
        if port_in[mu1] > port_out[mu2]:
            side, port = "in", mu1
            bottleneck = port_in[mu1]
        else:
            side, port = "out", mu2
            bottleneck = port_out[mu2]
        loads = load[side][:, port]

        krel = int(np.argmax(np.where(unsched, ent.release, -1)))
        cand_mask = unsched & (loads > 0)

        if ent.release[krel] > kappa * bottleneck / m or not cand_mask.any():
            chosen = krel
            alpha[(side, port + 1, ent.ids[krel])] = float(resid[krel])
        else:
            ratios = np.full(n, np.inf)
            np.divide(resid, loads, out=ratios, where=cand_mask)
            cand = int(np.argmin(ratios))
            f1 = float(ratios[cand])

            t0, t1 = -1, cand
            while True:
                nxt = next((s for s in successors.get(t1, ())
                            if unsched[s]), None)
                if nxt is None:
                    break
                t0, t1 = t1, nxt
            if t1 != cand:
                g = float(resid[t1] - loads[t1] * f1)
                assert g >= -1e-9 * scale
                if g > 1e-9 * scale:
                    gamma[(ent.ids[t0], ent.ids[t1])] = g
                    resid[t0] += g
                    resid[t1] -= g

            frozen = snapshot_ids(unsched, side, port + 1, loads)
            beta.append(BetaRecord(side, port + 1, frozen, f1))
            resid -= f1 * loads
            chosen = t1

        sigma[pos - 1] = ent.ids[chosen]
        unsched[chosen] = False
        port_in -= load["in"][chosen]
        port_out -= load["out"][chosen]
        if unsched.any():
            assert float(resid[unsched].min()) >= -1e-6 * scale
            np.clip(resid, 0.0, None, out=resid)

    return (Permutation(tuple(sigma)),
            DualSolution(kind, kappa, alpha, tuple(beta), gamma))


def _assert_engine_matches_reference(subject, kappa=0.5):
    permutes = ((permute_jobs,) if isinstance(subject, JobSet)
                else (permute_flow_level, permute_coflow_level))
    for permute in permutes:
        shipped = permute(subject, kappa)
        with mock.patch.object(primal_dual, "_run_engine", _reference_engine):
            reference = permute(subject, kappa)
        # repr also tells -0.0 from 0.0 and pins the dicts' insertion order.
        assert shipped == reference and repr(shipped) == repr(reference)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PARAMS)
def test_engine_matches_reference_over_generator_params(params):
    inst = generate_instance(params)
    _assert_engine_matches_reference(inst)
    _assert_engine_matches_reference(jobset_grouped(inst, lambda k: k % 3))


def test_engine_matches_reference_on_equal_releases():
    # Releases dominate every load, so alpha places the latest-released
    # entity first, the smallest index among equal releases.
    inst = mk_instance(2, 2, [(k, rel, 1 + k % 3, [(1 + k % 2, 2, 1)])
                              for k, rel in ((1, 90), (2, 90), (3, 40),
                                             (4, 90), (5, 40), (6, 0))])
    for kappa in (0.05, 0.5, 50.0):
        _assert_engine_matches_reference(inst, kappa)
        _assert_engine_matches_reference(jobset_from_instance(inst, 2), kappa)
    _, dual = permute_coflow_level(inst, 0.05)
    assert [e for _, _, e in dual.alpha][:3] == [1, 2, 4]


def test_engine_matches_reference_on_equal_ratios():
    # Weight over load is 1 for every coflow at the bottleneck port 1.
    inst = mk_instance(1, 2, [(1, 0, 3, [(1, 1, 3)]), (2, 0, 1, [(1, 2, 1)]),
                              (3, 0, 2, [(1, 1, 2)]), (4, 0, 4, [(1, 2, 4)])])
    _assert_engine_matches_reference(inst)
    _assert_engine_matches_reference(jobset_from_instance(inst, 1))
    perm, dual = permute_coflow_level(inst)
    assert perm.order[-1] == 1 and dual.beta[0].value == 1.0


def test_engine_matches_reference_when_bottleneck_has_no_unscheduled_load():
    # Once coflows 1 and 3 are placed only flowless coflows are left, so the
    # bottleneck carries no load and alpha places them.
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 3)]), (2, 0, 2, []),
                              (3, 0, 1, [(2, 2, 1)]), (4, 0, 5, [])])
    _assert_engine_matches_reference(inst)
    _assert_engine_matches_reference(jobset_from_instance(inst, 1))
    perm, dual = permute_flow_level(inst)
    assert {e for _, _, e in dual.alpha} == {2, 4}
    assert perm.order[:2] == (4, 2)


def test_engine_matches_reference_on_a_gamma_chain():
    # Coflow 1 has the smallest ratio but two unscheduled successors in a
    # chain, so it is traded for coflow 3 through the edge (2, 3).
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 10)]),
                              (2, 0, 10, [(1, 1, 1)]),
                              (3, 0, 10, [(1, 1, 1)])], edges=[(1, 2), (2, 3)])
    _assert_engine_matches_reference(inst)
    perm, dual = permute_flow_level(inst)
    assert perm.order == (1, 2, 3)
    assert (2, 3) in dual.gamma


# ---------------------------------------------------------------------------
# dual documents
# ---------------------------------------------------------------------------

def test_dual_document_round_trip_flow(two_coflow_instance):
    _, dual = permute_flow_level(two_coflow_instance)
    text = dual_to_document(dual, two_coflow_instance)
    back = document_to_dual(text)
    assert back == dual
    assert dual_to_document(back, two_coflow_instance) == text


def test_dual_document_round_trip_coflow_and_job(two_coflow_instance):
    inst = two_coflow_instance
    _, dual = permute_coflow_level(inst)
    text = dual_to_document(dual, inst)
    assert document_to_dual(text) == dual

    js = JobSet(inst.config, (Job(1, 1, (1,)), Job(2, 2, (2,))),
                inst.coflows, inst.dag)
    _, jdual = permute_jobs(js)
    jtext = dual_to_document(jdual, js)
    assert document_to_dual(jtext) == jdual


def test_job_level_duals_round_trip_equal():
    # Job 0 holds the even coflow ids, job 1 the odd ones; coflows 3 and 5
    # do not load the first bottleneck, output port 1. A snapshot lists its
    # coflows in ascending order, as the document does.
    inst = mk_instance(1, 2, [(k, 0, 1, [(2, 2, 1) if k in (3, 5)
                                         else (1, 1, 1)])
                              for k in range(1, 9)])
    js = jobset_grouped(inst, lambda k: k % 2)
    _, dual = permute_jobs(js)
    assert dual.beta[0] == BetaRecord("out", 1, (1, 2, 4, 6, 7, 8), 1.0)
    assert document_to_dual(dual_to_document(dual, js)) == dual


def test_dual_document_flow_snapshots_are_triples(two_coflow_instance):
    import json
    _, dual = permute_flow_level(two_coflow_instance)
    doc = json.loads(dual_to_document(dual, two_coflow_instance))
    assert doc["beta"][0]["snapshot"] == [[1, 1, 1], [1, 1, 2]]


# ---------------------------------------------------------------------------
# pinned certificates: documents, objectives and tight sets stay bit-exact
# ---------------------------------------------------------------------------

def _corpus_instance(mode, horizon, deg):
    seed = 100 * DENSITY_CASES.index(mode) + 10 * (horizon > 0) + deg
    return generate_instance(GeneratorParams(
        n=10, num_ports=6, num_cores=2, deg=deg, seed=seed,
        density_mode=mode, release_horizon=horizon))


DENSITY_CASES = ["dense", "sparse", "default"]
CORPUS = [(mode, horizon, deg) for mode in DENSITY_CASES
          for horizon in (0, 30) for deg in (0, 3)]


def _scaled(dual, factor):
    return DualSolution(
        dual.kind, dual.kappa,
        {key: v * factor for key, v in dual.alpha.items()},
        tuple(BetaRecord(r.side, r.port, r.coflows, r.value * factor)
              for r in dual.beta),
        {key: v * factor for key, v in dual.gamma.items()})


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _certificate(dual, subject):
    """(document sha256, repr of the objective, tight set, and the sha256 of
    the constraint sides of the dual scaled by 0.37, where no side equals
    its weight)."""
    report = check_dual_feasibility(dual, subject)
    scaled = check_dual_feasibility(_scaled(dual, 0.37), subject)
    return (_sha16(dual_to_document(dual, subject)),
            repr(dual_objective(dual, subject)), report.tight_set,
            _sha16(repr(sorted(scaled.lhs.items()))))


def _corpus_certificates():
    out = {}
    for mode, horizon, deg in CORPUS:
        inst = _corpus_instance(mode, horizon, deg)
        js = jobset_from_instance(inst)
        for level, (_, dual), subject in (
                ("flow", permute_flow_level(inst), inst),
                ("coflow", permute_coflow_level(inst), inst),
                ("job", permute_jobs(js), js)):
            out[f"{mode}-r{horizon}-d{deg}-{level}"] = _certificate(dual,
                                                                    subject)
    return out


PINNED = {
    "dense-r0-d0-flow": ("83afb7318af56ca2", "296415.30880799296",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "3e15d3543ecfe2b2"),
    "dense-r0-d0-coflow": ("257ea61ab77e54cf", "390219.4998729976",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "3e15d3543ecfe2b2"),
    "dense-r0-d0-job": ("d8fda3225089f029", "857830.2940293151",
        (1, 2, 3, 4), "45971729328a1378"),
    "dense-r0-d3-flow": ("4b7ef06fe67baddc", "209350.75109047827",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "1f56e0527171ae8b"),
    "dense-r0-d3-coflow": ("1075e94bc766b73e", "294144.82149285544",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "1f56e0527171ae8b"),
    "dense-r0-d3-job": ("7a51b074e5dc8015", "604122.5492405115",
        (1, 2, 3, 4), "da8683dfd81d2f7d"),
    "dense-r30-d0-flow": ("e03f368b4624a1fa", "758856.0493151371",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "706183c6c65d7bd7"),
    "dense-r30-d0-coflow": ("9bbf29c399908efa", "888890.6754333542",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "706183c6c65d7bd7"),
    "dense-r30-d0-job": ("36dbc705538dbdc4", "1792044.6275796278",
        (1, 2, 3, 4), "9c03f0a3425b6c5b"),
    "dense-r30-d3-flow": ("d480fd45c6eb9a66", "439042.0081993442",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "5dadd37fc6e4804d"),
    "dense-r30-d3-coflow": ("e36ad3443d8980de", "646798.6829706277",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "5dadd37fc6e4804d"),
    "dense-r30-d3-job": ("2152e830a51f2eaf", "903074.8745441668",
        (1, 2, 3, 4), "317f4f349e6346ba"),
    "sparse-r0-d0-flow": ("b4cf78bf344fea4f", "44136.077852103794",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "6697d9a3e93e1797"),
    "sparse-r0-d0-coflow": ("b4c4c5754bc64d01", "53206.37577330866",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "6697d9a3e93e1797"),
    "sparse-r0-d0-job": ("fc9d5fe8ba52f734", "220385.7179258984",
        (1, 2, 3, 4), "e891e4f04b753b3a"),
    "sparse-r0-d3-flow": ("7ca14e967b169f1e", "165954.97729519277",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "56e948dec0ffbd6a"),
    "sparse-r0-d3-coflow": ("721fa1ea0c5b67fd", "212422.31229742643",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "56e948dec0ffbd6a"),
    "sparse-r0-d3-job": ("ce457c7cae098569", "94549.90918680547",
        (1, 2, 3, 4), "4f2681b4f3deac06"),
    "sparse-r30-d0-flow": ("1c9ed656efb843a7", "32845.947580473534",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "cbd393676b272c16"),
    "sparse-r30-d0-coflow": ("cab70ad92b7cd13f", "34268.38424980048",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "cbd393676b272c16"),
    "sparse-r30-d0-job": ("66b0c320484ae8bf", "84266.06860276834",
        (1, 2, 3, 4), "0b8ef3e3d828e614"),
    "sparse-r30-d3-flow": ("4bf5e487590c5002", "94373.26260339661",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "1853e9468e09c8b4"),
    "sparse-r30-d3-coflow": ("d362f886cceafb36", "118224.96086788065",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "1853e9468e09c8b4"),
    "sparse-r30-d3-job": ("20c6c6ff254dcec6", "346315.7431466191",
        (1, 2, 3, 4), "6cd0e6a26a0cb91a"),
    "default-r0-d0-flow": ("3a9c28eec3184e80", "977468.6222221272",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "9eb2f521040923bb"),
    "default-r0-d0-coflow": ("fc7df83e7ee704b0", "1194652.7842066495",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "9eb2f521040923bb"),
    "default-r0-d0-job": ("530965b14b811cdc", "1733564.8717087412",
        (1, 2, 3, 4), "455e16563d025539"),
    "default-r0-d3-flow": ("403b29d157cad1a8", "624550.462488335",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "9aa8a378951eca65"),
    "default-r0-d3-coflow": ("c2aa2298874da14b", "751619.2903260338",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "9aa8a378951eca65"),
    "default-r0-d3-job": ("af22b6d323697f09", "1429530.8826096202",
        (1, 2, 3, 4), "a3632d05060c8500"),
    "default-r30-d0-flow": ("25fe5f1aed8d0834", "376758.517450241",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "fae26e09baa59b98"),
    "default-r30-d0-coflow": ("d0fd7a818495c801", "473485.9331147688",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "fae26e09baa59b98"),
    "default-r30-d0-job": ("7ec058bf50a5cf93", "1282271.3643726974",
        (1, 2, 3, 4), "257c4733a307b3fa"),
    "default-r30-d3-flow": ("2bfe97734f78a17f", "1166122.5931944472",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "05763021f2cd1bad"),
    "default-r30-d3-coflow": ("7dbacf1fe569489d", "1407380.2776413462",
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), "05763021f2cd1bad"),
    "default-r30-d3-job": ("7a16e030b360d74a", "1288072.4821585922",
        (1, 2, 3, 4), "061d76907c37de91"),
}


def test_certificates_match_pinned_corpus():
    assert _corpus_certificates() == PINNED


def test_sparse_n200_dual_documents_match_pinned_digests():
    # Long, nested snapshots over many port columns: 200 beta records per
    # level, 8,217 flow-level and 20,100 coflow-level snapshot ids.
    inst = generate_instance(GeneratorParams(
        n=200, num_ports=50, num_cores=5, seed=77, density_mode="sparse"))
    assert {level: _sha16(dual_to_document(permute(inst)[1], inst))
            for level, permute in (("flow", permute_flow_level),
                                   ("coflow", permute_coflow_level))} == {
        "flow": "138a1d180f0c6eb5", "coflow": "ef4ccf2695f8154b"}


def test_sparse_n200_interleaved_job_dual_document_matches_pinned_digest():
    # Coflow k in job k % 7, so every job's coflows interleave the others'
    # ids: 7 beta records freezing 325 coflow ids.
    inst = generate_instance(GeneratorParams(
        n=200, num_ports=50, num_cores=5, seed=77, density_mode="sparse"))
    js = jobset_grouped(inst, lambda k: k % 7)
    assert _sha16(dual_to_document(permute_jobs(js)[1], js)) == \
        "fc37ca0b1615a5a7"


# ---------------------------------------------------------------------------
# hand-built duals against a naive reference
# ---------------------------------------------------------------------------

def _naive_sizes(c, side, port):
    return [f.size for f in sorted(c.flows, key=lambda f: (f.source, f.dest))
            if (f.source if side == "in" else f.dest) == port]


def _naive_objective(dual, subject):
    by_id = subject.coflow_by_id()
    m = subject.config.num_cores
    total = 0.0
    for (side, port, k), value in dual.alpha.items():
        if dual.kind == JOB_LEVEL:
            job, = (j for j in subject.jobs if j.id == k)
            total += value * by_id[job.coflows[0]].release
            continue
        c = by_id[k]
        if dual.kind == FLOW_LEVEL:
            slot = [f.size for f in c.flows
                    if (f.source, f.dest) == ((port, 1) if side == "in"
                                              else (1, port))]
            total += value * (c.release + sum(slot))
        else:
            total += value * (c.release + sum(_naive_sizes(c, side, port)))
    for rec in dual.beta:
        if dual.kind == FLOW_LEVEL:
            sizes = [d for k in rec.coflows
                     for d in _naive_sizes(by_id[k], rec.side, rec.port)]
        else:
            sizes = [sum(_naive_sizes(by_id[k], rec.side, rec.port))
                     for k in rec.coflows]
        s = float(sum(sizes))
        total += rec.value * ((s * s + sum(d * d for d in sizes)) / (2.0 * m))
    return total


def _naive_lhs(dual, subject):
    by_id = subject.coflow_by_id()
    lhs = {c.id: 0.0 for c in subject.coflows}
    for rec in dual.beta:
        for k in rec.coflows:
            lhs[k] += rec.value * float(sum(
                _naive_sizes(by_id[k], rec.side, rec.port)))
    for (a, b), value in dual.gamma.items():
        lhs[b] += value
        lhs[a] -= value
    for (_, _, k), value in dual.alpha.items():
        lhs[k] += value
    return lhs


def _naive_document(dual, subject):
    by_id = subject.coflow_by_id()

    def snapshot(rec):
        if dual.kind != FLOW_LEVEL:
            return sorted(rec.coflows)
        return [[f.source, f.dest, k] for k in sorted(rec.coflows)
                for f in sorted(by_id[k].flows, key=lambda f: (f.source,
                                                               f.dest))
                if (f.source if rec.side == "in" else f.dest) == rec.port]

    return json.dumps({
        "kind": dual.kind, "kappa": dual.kappa,
        "alpha": [{"side": s, "port": p, "id": e, "value": v}
                  for (s, p, e), v in sorted(dual.alpha.items())],
        "beta": [{"side": r.side, "port": r.port, "snapshot": snapshot(r),
                  "value": r.value} for r in dual.beta],
        "gamma": [{"pred": a, "succ": b, "value": v}
                  for (a, b), v in sorted(dual.gamma.items())],
    }, indent=2) + "\n"


def _hand_built(kind, seed):
    """Snapshots that are neither nested nor sorted, with repeats and with
    coflows that have no flow at the record's port."""
    inst = generate_instance(GeneratorParams(
        n=12, num_ports=4, num_cores=3, deg=3, seed=seed,
        density_mode="sparse", release_horizon=20))
    rng = np.random.default_rng(seed)
    beta = []
    for _ in range(9):
        ids = rng.choice(np.arange(1, 13), int(rng.integers(0, 9)))
        beta.append(BetaRecord(str(rng.choice(["in", "out"])),
                               int(rng.integers(1, 5)),
                               tuple(int(k) for k in ids),
                               float(rng.random()) / 7))
    if kind == JOB_LEVEL:
        return (DualSolution(kind, 0.5, {("out", 2, 1): 0.3}, tuple(beta),
                             {}), jobset_from_instance(inst))
    alpha = {("out", 2, 5): 0.3, ("in", 1, 9): 1.25}
    gamma = {(1, 4): 0.5, (3, 2): 0.125}
    return DualSolution(kind, 0.5, alpha, tuple(beta), gamma), inst


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", [FLOW_LEVEL, COFLOW_LEVEL])
def test_hand_built_dual_matches_naive_reference(kind, seed):
    dual, inst = _hand_built(kind, seed)
    assert any(len(set(r.coflows)) < len(r.coflows) for r in dual.beta)
    assert dual_objective(dual, inst) == _naive_objective(dual, inst)
    assert check_dual_feasibility(dual, inst).lhs == _naive_lhs(dual, inst)
    assert dual_to_document(dual, inst) == _naive_document(dual, inst)


@pytest.mark.parametrize("seed", range(4))
def test_hand_built_job_dual_matches_naive_reference(seed):
    dual, js = _hand_built(JOB_LEVEL, seed)
    lhs = _naive_lhs(DualSolution(COFLOW_LEVEL, 0.5, {}, dual.beta, {}), js)
    assert check_dual_feasibility(dual, js).lhs == {
        j.id: sum(lhs[k] for k in j.coflows) + (0.3 if j.id == 1 else 0)
        for j in js.jobs}
    assert dual_objective(dual, js) == _naive_objective(dual, js)
    assert dual_to_document(dual, js) == _naive_document(dual, js)


def test_flow_level_document_of_unsorted_flows_matches_naive_reference():
    # Coflow(...) keeps its flows in the order given, unlike Coflow.make.
    flows = {1: [(2, 1, 3), (1, 2, 4), (1, 1, 2), (2, 2, 5)],
             2: [(2, 2, 1), (1, 2, 6)], 3: [(1, 1, 7)]}
    inst = Instance(NetworkConfig(1, 2), tuple(
        Coflow(k, 0, float(k), tuple(Flow(*f) for f in fl))
        for k, fl in flows.items()), PrecedenceDag.make(flows))
    _, dual = permute_flow_level(inst)
    hand = DualSolution(FLOW_LEVEL, 0.5, {}, tuple(
        BetaRecord(side, port, (3, 1, 2), 0.25)
        for side in ("in", "out") for port in (1, 2)), {})
    for d in (dual, hand):
        assert dual_to_document(d, inst) == _naive_document(d, inst)


@pytest.mark.parametrize("kind", [FLOW_LEVEL, COFLOW_LEVEL, JOB_LEVEL])
def test_unknown_snapshot_coflow_raises_value_error(kind):
    dual, subject = _hand_built(kind, 0)
    bad = DualSolution(kind, 0.5, dual.alpha,
                       dual.beta + (BetaRecord("in", 1, (3, 99), 0.1),),
                       dual.gamma)
    with pytest.raises(ValueError, match="unknown coflow 99"):
        dual_objective(bad, subject)
    with pytest.raises(ValueError, match="unknown coflow 99"):
        check_dual_feasibility(bad, subject)
    with pytest.raises(ValueError, match="unknown coflow 99"):
        dual_to_document(bad, subject)


@pytest.mark.parametrize("evaluate", [dual_objective, check_dual_feasibility])
def test_duals_that_cannot_belong_to_the_subject_raise(evaluate):
    dual, js = _hand_built(JOB_LEVEL, 0)
    inst = Instance(js.config, js.coflows, js.intra_job_dag)
    for bad, subject, match in (
            (DualSolution(JOB_LEVEL, 0.5, dual.alpha, dual.beta,
                          {(1, 2): 0.5}), js, "must not carry gamma"),
            (dual, inst, "requires a JobSet"),
            (DualSolution(JOB_LEVEL, 0.5, {("in", 1, 9): 1.0}, (), {}), js,
             "unknown job 9"),
            (DualSolution("bogus", 0.5, {}, (), {}), inst, "unknown dual kind"),
            (DualSolution(FLOW_LEVEL, 0.5, {("in", 1, 99): 1.0}, (), {}), inst,
             "unknown coflow 99"),
            (DualSolution(COFLOW_LEVEL, 0.5, {}, (), {(1, 99): 1.0}), inst,
             "unknown coflow 99")):
        with pytest.raises(ValueError, match=match):
            evaluate(bad, subject)


@pytest.mark.parametrize("kind", [FLOW_LEVEL, COFLOW_LEVEL])
def test_out_of_range_ports_contribute_nothing(kind):
    # Every coflow loads port N = 3 on both sides and sits on the slots
    # (N, 1) and (1, N), so an index that wraps port 0 to port N would show.
    inst = mk_instance(2, 3, [(1, 0, 3, [(1, 3, 2), (3, 3, 4)]),
                              (2, 0, 5, [(3, 1, 5)]),
                              (3, 7, 2, [(1, 3, 1), (3, 2, 6)])])
    alpha = {("in", 0, 2): 0.5, ("out", 0, 1): 0.25, ("in", 4, 1): 0.75,
             ("out", 4, 3): 1.5}
    beta = tuple(BetaRecord(side, port, (1, 2, 3), 0.125)
                 for side in ("in", "out") for port in (0, 4))
    dual = DualSolution(kind, 0.5, alpha, beta, {})
    assert dual_objective(dual, inst) == 1.5 * 7
    assert check_dual_feasibility(dual, inst).lhs == {1: 1.0, 2: 0.5, 3: 1.5}
    assert dual_objective(dual, inst) == _naive_objective(dual, inst)
    text = dual_to_document(dual, inst)
    assert text == _naive_document(dual, inst)
    assert document_to_dual(text) == (
        DualSolution(kind, 0.5, alpha, tuple(
            BetaRecord(r.side, r.port, (), r.value) for r in beta), {})
        if kind == FLOW_LEVEL else dual)


# ---------------------------------------------------------------------------
# strict dual documents
# ---------------------------------------------------------------------------

def _dual_doc(permute=permute_flow_level):
    """A dual document with alpha, beta and gamma entries."""
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 1), (2, 2, 1)]),
                              (2, 0, 10, [(1, 1, 1)]),
                              (3, 100, 1, [(1, 2, 1)])], edges=[(1, 2)])
    _, dual = permute(inst)
    assert dual.alpha and dual.beta and dual.gamma
    return json.loads(dual_to_document(dual, inst))


def _rejected(doc, match):
    with pytest.raises(DocumentError, match=match) as info:
        document_to_dual(json.dumps(doc))
    assert "\n" not in str(info.value)


def test_strict_dual_alpha_entry_missing_port():
    doc = _dual_doc()
    del doc["alpha"][0]["port"]
    _rejected(doc, "missing field 'port' in alpha entry 0")


def test_strict_dual_short_snapshot_triple():
    doc = _dual_doc()
    doc["beta"][0]["snapshot"][0] = [1, 1]
    _rejected(doc, "beta entry 0 snapshot item 0 must be a .src, dst, "
                   "coflow. integer triple")


def test_strict_dual_alpha_not_a_list():
    doc = _dual_doc()
    doc["alpha"] = 5
    _rejected(doc, "alpha must be a list, got 5")


def test_strict_dual_unknown_kind():
    doc = _dual_doc()
    doc["kind"] = "bogus"
    _rejected(doc, "unknown dual kind 'bogus'")


@pytest.mark.parametrize("path", [
    ("alpha", 0, "port"), ("alpha", 0, "id"), ("beta", 0, "port"),
    ("gamma", 0, "pred"), ("gamma", 0, "succ")])
def test_strict_dual_rejects_bools_as_ints(path):
    doc = _dual_doc()
    section, i, key = path
    doc[section][i][key] = True
    _rejected(doc, f"{section} entry {i} {key} must be an integer, got True")


def test_strict_dual_rejects_bools_in_snapshots():
    doc = _dual_doc()
    doc["beta"][0]["snapshot"][0][2] = True
    _rejected(doc, "integer triple")
    coflow_doc = _dual_doc(permute_coflow_level)
    coflow_doc["beta"][0]["snapshot"][0] = False
    _rejected(coflow_doc, "snapshot item 0 must be an integer, got False")


@pytest.mark.parametrize("value, match", [
    ("x", "must be a finite number, got 'x'"),
    (True, "must be a finite number, got True"),
    (None, "must be a finite number, got None")])
def test_strict_dual_rejects_non_numeric_values(value, match):
    for section in ("alpha", "beta", "gamma"):
        doc = _dual_doc()
        doc[section][0]["value"] = value
        _rejected(doc, f"{section} entry 0 value {match}")


@pytest.mark.parametrize("mutate, match", [
    (lambda d: d["beta"][0].update(side="up"), 'side must be "in" or "out"'),
    (lambda d: d["beta"][0].update(extra=1), r"unknown field\(s\) \['extra'\]"),
    (lambda d: d["gamma"].__setitem__(0, [1, 2]), "must be an object"),
    (lambda d: d.update(kappa="0.5"), "kappa must be a finite number"),
    (lambda d: d["beta"][0].update(snapshot={}), "snapshot must be a list")])
def test_strict_dual_rejects_malformed_entries(mutate, match):
    doc = _dual_doc()
    mutate(doc)
    _rejected(doc, match)


def test_strict_dual_rejects_foreign_snapshot_triple():
    doc = _dual_doc()
    rec = doc["beta"][0]
    end = 0 if rec["side"] == "in" else 1
    foreign = list(rec["snapshot"][0])
    foreign[end] = 3 - rec["port"]
    rec["snapshot"].append(foreign)
    _rejected(doc, f"beta entry 0 snapshot item {len(rec['snapshot']) - 1} "
                   rf"\[.*\] is not a flow at {rec['side']} port {rec['port']}")


def test_strict_dual_rejects_repeated_snapshot_ids():
    # One coflow, one size-4 flow, weight 1, optimum 4. Naming the coflow
    # twice at half the value would certify 6.0 if it were read back.
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 4)])])
    _, dual = permute_coflow_level(inst)
    doc = json.loads(dual_to_document(dual, inst))
    assert doc["beta"][0]["snapshot"] == [1]
    doc["beta"][0]["snapshot"], doc["beta"][0]["value"] = [1, 1], 0.125
    _rejected(doc, r"^beta entry 0 snapshot item 1 1 repeats an earlier item$")
    _, dual = permute_jobs(jobset_from_instance(inst))
    doc = json.loads(dual_to_document(dual, inst))
    doc["beta"][0]["snapshot"] = [1, 1]
    _rejected(doc, "beta entry 0 snapshot item 1 1 repeats an earlier item")


def test_strict_dual_rejects_repeated_snapshot_triples():
    doc = _dual_doc()
    rec = doc["beta"][0]
    rec["snapshot"].append(rec["snapshot"][0])
    _rejected(doc, f"beta entry 0 snapshot item {len(rec['snapshot']) - 1} "
                   r"\[.*\] repeats an earlier item")


def test_strict_dual_root_must_be_an_object():
    with pytest.raises(DocumentError, match="must be an object, got list"):
        document_to_dual("[]")
