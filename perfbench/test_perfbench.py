"""Tests of the benchmark itself, on a two-instance prefix of dense-sweep.

Counts and ratios repeat exactly, the traced replay gives the untraced
outputs, and a wrong recorded digest fails the op.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from coflow_forge import validate_instance  # noqa: E402

DENSE = harness.WORKLOADS["dense-sweep"]
SMALL = {"instances": 2}
EXACT_COUNTS = [name for name, unit in harness.LAYER_COUNTS
                if unit in ("count", "bytes")] + ["assignment.port_load_skew"]


def _recorded() -> dict[str, str]:
    return dict(harness.load_digests()["dense-sweep"]["0"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two traced and two measured runs of seed 0 against its digests."""
    work = tmp_path_factory.mktemp("work")
    return {
        "traced": [harness.run_traced(DENSE, 0, work, _recorded(), **SMALL)
                   for _ in range(2)],
        "measured": [harness.run_measured(DENSE, 0, 0.0, work, _recorded(),
                                          **SMALL) for _ in range(2)],
    }


def test_counts_and_mean_ratio_repeat_exactly(runs):
    first, second = runs["traced"]
    assert first["calls"] == second["calls"]
    assert ([first["counts"][k] for k in EXACT_COUNTS]
            == [second["counts"][k] for k in EXACT_COUNTS])
    assert first["counts"]["simulator.segments"] > 0
    assert first["ratios"] == second["ratios"]

    first, second = runs["measured"]
    assert first["flows"] == second["flows"]
    assert len(first["samples"]) == len(second["samples"]) == 6
    assert first["ratios"] == second["ratios"]


def test_replay_equals_untraced(runs):
    traced, measured = runs["traced"][0], runs["measured"][0]
    assert traced["failures"] == []
    assert measured["failures"] == []
    assert traced["ratios"] == measured["ratios"]
    assert len(traced["ratios"]) == 6


def test_corrupted_digest_fails_the_op(tmp_path):
    recorded = _recorded()
    recorded["i01-cdls"] = "0" * 64
    measured = harness.run_measured(DENSE, 0, 0.0, tmp_path, recorded,
                                    **SMALL)
    assert len(measured["failures"]) == 1
    assert measured["failures"][0].startswith("i01-cdls: digest")

    recorded = _recorded()
    recorded["i01-jobs.schedule"] = "0" * 64
    traced = harness.run_traced(DENSE, 0, tmp_path, recorded, **SMALL)
    assert len(traced["failures"]) == 1
    assert traced["failures"][0].startswith("i01-jobs.schedule: digest")


def test_relabel_keeps_the_traffic():
    ladder = harness.ladder_instance(harness.DIRECT, 500, harness.LADDER_SEED)
    copy = harness.ladder_instance(harness.DIRECT, 500, 5)
    assert validate_instance(copy).ok
    assert copy != ladder
    assert copy == harness.ladder_instance(harness.DIRECT, 500, 5)
    assert (sorted(f.size for c in copy.coflows for f in c.flows)
            == sorted(f.size for c in ladder.coflows for f in c.flows))
    assert len(copy.dag.edges) == len(ladder.dag.edges)


def test_sampler_takes_samples_during_an_op_and_subtracts_them():
    sampler = harness.Sampler()

    def busy():
        end = harness.time.perf_counter() + 4 * harness.SAMPLE_EVERY_S
        while harness.time.perf_counter() < end:
            pass

    start = harness.time.perf_counter()
    _, error, dt = sampler.timed(busy)
    wall = harness.time.perf_counter() - start
    assert error is None
    assert len(sampler.times) >= 2
    assert sampler.speed(0) > 0
    assert dt == pytest.approx(wall - sampler.stolen, abs=0.01)
    assert harness.signal.getitimer(harness.signal.ITIMER_REAL) == (0.0, 0.0)
