import hashlib
import itertools
import math
import re
from statistics import mean

import pytest

from coflow_forge import (
    Instance,
    PrecedenceDag,
    instance_to_document,
    is_conforming,
    longest_path_chi,
    validate_instance,
)
from coflow_forge.generator import (
    GeneratorParams,
    WorkloadConfig,
    default_workload_mix,
    generate_dag,
    generate_instance,
)


def test_deg_zero_gives_edgeless_dag():
    dag = generate_dag(20, 0, 1.0, seed=5)
    assert not dag.edges
    assert longest_path_chi(dag) == 1


def test_dag_deterministic_per_seed():
    assert generate_dag(15, 3, 1.0, seed=9) == generate_dag(15, 3, 1.0, seed=9)
    assert generate_dag(15, 3, 1.0, seed=9) != generate_dag(15, 3, 1.0, seed=10)


@pytest.mark.parametrize("seed", range(10))
def test_tiny_n_large_p_single_level(seed):
    # n=4, p=10: the level-count support collapses to {1}, so no edges.
    dag = generate_dag(4, 3, 10.0, seed=seed)
    assert not dag.edges


@pytest.mark.parametrize("seed", range(10))
def test_dag_is_acyclic_with_all_nodes(seed):
    dag = generate_dag(30, 4, 0.7, seed=seed)
    assert dag.nodes == frozenset(range(1, 31))
    assert longest_path_chi(dag) >= 1  # raises on cycles


def test_dag_edges_match_pinned_digest():
    # The grid reaches every way the level widths are made to sum to n:
    # cut from the back, drop trailing levels (p = 0.05) and pad the last.
    digest = hashlib.sha256()
    for n, p, deg, seed in itertools.product(
            (1, 2, 3, 5, 8, 25, 100, 400), (0.05, 0.1, 0.5, 1, 2, 8), (0, 3),
            range(8)):
        digest.update(repr(sorted(generate_dag(n, deg, p, seed).edges))
                      .encode())
    assert digest.hexdigest()[:16] == "946f84def902d9aa"


def test_chi_non_increasing_in_parallelism_factor():
    means = []
    for p in (0.5, 1.0, 2.0):
        chis = [longest_path_chi(generate_dag(25, 3, p, seed=s))
                for s in range(200)]
        means.append(mean(chis))
    assert means[0] >= means[1] >= means[2]


def test_instance_deterministic_and_valid():
    params = GeneratorParams(n=12, num_ports=6, num_cores=3, deg=2, seed=4)
    a = generate_instance(params)
    b = generate_instance(params)
    assert a == b
    assert validate_instance(a).ok
    c = generate_instance(GeneratorParams(n=12, num_ports=6, num_cores=3,
                                          deg=2, seed=5))
    assert a != c


@pytest.mark.parametrize("seed", range(5))
def test_default_workload_ranges(seed):
    mix = (WorkloadConfig(1, 4, 1, 10, 1.0),)
    inst = generate_instance(GeneratorParams(n=30, num_ports=10, num_cores=2,
                                             workload_mix=mix, seed=seed))
    for c in inst.coflows:
        assert 1 <= len(c.flows) <= 16
        assert all(1 <= f.size <= 10 for f in c.flows)
        assert 1 <= c.weight <= 100
        assert c.release == 0


def test_workload_mix_proportions():
    # Distinguish configs by disjoint size ranges and count the draws.
    mix = (WorkloadConfig(1, 1, 1, 1, 0.41),
           WorkloadConfig(1, 1, 2, 2, 0.29),
           WorkloadConfig(1, 1, 3, 3, 0.09),
           WorkloadConfig(1, 1, 4, 4, 0.21))
    inst = generate_instance(GeneratorParams(n=10_000, num_ports=2,
                                             num_cores=1, deg=0,
                                             workload_mix=mix, seed=123))
    counts = [0, 0, 0, 0]
    for c in inst.coflows:
        counts[c.flows[0].size - 1] += 1
    for got, want in zip(counts, (0.41, 0.29, 0.09, 0.21)):
        assert abs(got / 10_000 - want) < 0.02


def test_release_horizon_sampler():
    inst = generate_instance(GeneratorParams(n=40, num_ports=4, num_cores=2,
                                             seed=8, release_horizon=50))
    releases = [c.release for c in inst.coflows]
    assert all(0 <= r <= 50 for r in releases)
    assert len(set(releases)) > 1


@pytest.mark.parametrize("mode,lo,hi", [("sparse", 1, 10), ("dense", 10, 100)])
def test_density_modes_flow_counts(mode, lo, hi):
    inst = generate_instance(GeneratorParams(n=30, num_ports=10, num_cores=2,
                                             density_mode=mode, seed=3))
    for c in inst.coflows:
        assert lo <= len(c.flows) <= hi


def test_combined_density_mixes_both():
    inst = generate_instance(GeneratorParams(n=60, num_ports=10, num_cores=2,
                                             density_mode="combined", seed=3))
    counts = [len(c.flows) for c in inst.coflows]
    assert any(c <= 10 for c in counts) and any(c > 10 for c in counts)


@pytest.mark.parametrize("seed", range(8))
def test_conforming_mode(seed):
    inst = generate_instance(GeneratorParams(n=12, num_ports=6, num_cores=2,
                                             deg=3, seed=seed,
                                             conforming=True))
    assert validate_instance(inst).ok
    assert is_conforming(inst)
    assert inst.dag.edges  # conformity achieved with precedence, not without


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        generate_instance(GeneratorParams(n=0, num_ports=2, num_cores=1))
    with pytest.raises(ValueError):
        generate_instance(GeneratorParams(n=2, num_ports=2, num_cores=1,
                                          p=0.0))
    with pytest.raises(ValueError):
        generate_instance(GeneratorParams(n=2, num_ports=2, num_cores=1,
                                          density_mode="extreme"))
    bad_mix = (WorkloadConfig(1, 1, 1, 1, 0.5),)
    with pytest.raises(ValueError, match="sum to 1"):
        generate_instance(GeneratorParams(n=2, num_ports=2, num_cores=1,
                                          workload_mix=bad_mix))
    wide = (WorkloadConfig(1, 5, 1, 1, 1.0),)
    with pytest.raises(ValueError, match="fit 1..ports"):
        generate_instance(GeneratorParams(n=2, num_ports=2, num_cores=1,
                                          workload_mix=wide))


@pytest.mark.parametrize("change, message", [
    ({"deg": -1}, "deg must be >= 0"),
    ({"weight_range": (0, 5)}, "weight range must satisfy 1 <= lo <= hi"),
    ({"weight_range": (6, 5)}, "weight range must satisfy 1 <= lo <= hi"),
    ({"release_horizon": -1}, "release horizon must be >= 0"),
    ({"workload_mix": (WorkloadConfig(1, 1, 2, 1, 1.0),)},
     "workload sizes .* must satisfy 1 <= min <= max")],
    ids=["deg", "weight floor", "weight order", "release horizon",
         "workload sizes"])
def test_each_invalid_param_is_named(change, message):
    params = GeneratorParams(n=2, num_ports=2, num_cores=1, **change)
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_instance(params)


@pytest.mark.parametrize("seed", [-1, True])
def test_seed_must_be_a_non_negative_int(seed):
    # A bool is not a seed, as the document readers rule.
    params = GeneratorParams(n=2, num_ports=2, num_cores=1, seed=seed)
    with pytest.raises(ValueError, match=f"^seed must be a non-negative "
                                         f"integer, got {seed}$"):
        generate_instance(params)


@pytest.mark.parametrize("change, name, value", [
    ({"weight_range": (1, 2**63)}, "weight range", 2**63),
    ({"release_horizon": 10**20}, "release horizon", 10**20),
    ({"workload_mix": (WorkloadConfig(1, 1, 1, 2**63, 1.0),)},
     "workload size", 2**63)],
    ids=["weight range", "release horizon", "workload size"])
def test_values_past_the_int64_draw_range_are_named(change, name, value):
    params = GeneratorParams(n=2, num_ports=2, num_cores=1, **change)
    with pytest.raises(ValueError, match=re.escape(
            f"{name} {value} is past the int64 draw limit {2**63 - 1}")):
        generate_instance(params)


def test_values_at_the_int64_draw_limit_are_drawn():
    top = 2**63 - 1
    inst = generate_instance(GeneratorParams(
        n=2, num_ports=2, num_cores=1, weight_range=(top, top),
        release_horizon=top,
        workload_mix=(WorkloadConfig(1, 1, top, top, 1.0),)))
    assert {c.weight for c in inst.coflows} == {top}
    assert {f.size for c in inst.coflows for f in c.flows} == {top}
    assert all(0 <= c.release <= top for c in inst.coflows)


@pytest.mark.parametrize("n, deg, p, message", [
    (0, 1, 1.0, "n must be >= 1"), (3, -1, 1.0, "deg must be >= 0"),
    (3, 1, 0.0, "parallelism factor p must be positive"),
    # Levels are drawn one by one: p = 1e-9 would draw about 3.5e9 of them.
    *((3, 1, p, re.escape(f"parallelism factor p={p} at n=3 puts a level "
                          "count or width range past 2**20"))
      for p in (float("inf"), 1e-320, 1e308, 1e-9))])
def test_generate_dag_rejects_bad_arguments(n, deg, p, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate_dag(n, deg, p, seed=0)


def test_default_mix_uses_port_count():
    mix = default_workload_mix(24)
    assert mix[2].w_max == 24 and mix[3].w_max == 24
    assert [(c.w_min, c.w_max) for c in default_workload_mix(2)] \
        == [(1, 2), (1, 2), (2, 2), (2, 2)]
    assert abs(sum(c.probability for c in mix) - 1.0) < 1e-12


def _quadratic_dag(n, deg, p, seed):
    """The edge rule as first written: rescan every node for each node."""
    from coflow_forge.generator import (_STREAM_EDGES, _STREAM_LEVELS, _rng,
                                        _uniform_mean)
    rng = _rng(seed, _STREAM_LEVELS)
    sqrt_n = math.sqrt(n)
    num_levels = _uniform_mean(rng, sqrt_n / p)
    widths = [_uniform_mean(rng, p * sqrt_n) for _ in range(num_levels)]
    overflow = sum(widths) - n
    for i in range(len(widths) - 1, -1, -1):
        if overflow <= 0:
            break
        cut = min(overflow, widths[i] - 1)
        widths[i] -= cut
        overflow -= cut
    if overflow > 0:
        widths = widths[:len(widths) - overflow]
    if sum(widths) < n:
        widths[-1] += n - sum(widths)
    level_of = {}
    nxt = 1
    for lv, w in enumerate(widths):
        for _ in range(w):
            level_of[nxt] = lv
            nxt += 1
    nodes = range(1, n + 1)
    edges = []
    if deg > 0:
        for k in nodes:
            higher = [k2 for k2 in nodes if level_of[k2] > level_of[k]]
            if not higher:
                continue
            prob = min(1.0, deg / len(higher))
            draws = _rng(seed, _STREAM_EDGES, k).random(len(higher))
            edges.extend((k, k2) for k2, u in zip(higher, draws) if u < prob)
    return PrecedenceDag.make(nodes, edges)


@pytest.mark.parametrize("n, deg, p, seed, mode", [
    (1, 3, 1.0, 0, "default"), (2, 3, 1.0, 4, "default"),
    (7, 0, 1.0, 1, "dense"), (25, 3, 1.0, 7, "default"),
    (40, 5, 0.3, 2, "sparse"), (60, 2, 2.5, 3, "combined"),
    (90, 8, 0.7, 11, "dense"), (300, 3, 1.0, 77, "sparse"),
    (2000, 3, 1.0, 77, "sparse")])
def test_linear_dag_rule_keeps_instance_documents(n, deg, p, seed, mode):
    params = GeneratorParams(n=n, num_ports=8, num_cores=2, deg=deg, p=p,
                             seed=seed, density_mode=mode)
    dag = generate_dag(n, deg, p, seed)
    assert dag == _quadratic_dag(n, deg, p, seed)
    inst = generate_instance(params)
    old = Instance(inst.config, inst.coflows, _quadratic_dag(n, deg, p, seed))
    assert instance_to_document(inst) == instance_to_document(old)
