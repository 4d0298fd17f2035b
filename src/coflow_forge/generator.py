"""Seeded synthetic instances: layered random DAGs plus the standard workload mix.

Level counts and widths come from uniform integer distributions whose means
are sqrt(n)/p and p*sqrt(n); a mean of mu is realized as
UniformInt[1, max(1, round(2*mu))]. Every coflow draws its workload
configuration from a fixed mix, then realizes a complete bipartite flow
pattern over the drawn port groups (or, in the density modes, a target flow
count over random distinct port pairs).

Randomness is counter-based (Philox) with one independent stream per coflow,
so generated instances do not depend on iteration order and are reproducible
from the seed alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .model import (Coflow, Instance, NetworkConfig, PrecedenceDag,
                    config_violations, topological_order)

_STREAM_LEVELS = 0
_STREAM_WORKLOAD = 1
_STREAM_EDGES = 2
_STREAM_TRACE_WEIGHTS = 3

_DRAW_MAX = 2**63 - 1

DENSITY_MODES = ("default", "dense", "sparse", "combined")


@dataclass(frozen=True)
class WorkloadConfig:
    """(W_min, W_max, L_min, L_max) with the probability of being drawn."""

    w_min: int
    w_max: int
    l_min: int
    l_max: int
    probability: float


def default_workload_mix(num_ports: int) -> tuple[WorkloadConfig, ...]:
    # Narrow coflows span 1-4 ports and wide ones 4-N; with fewer than 4
    # ports the boundary width is the port count.
    w = min(4, num_ports)
    return (
        WorkloadConfig(1, w, 1, 10, 0.41),
        WorkloadConfig(1, w, 10, 1000, 0.29),
        WorkloadConfig(w, num_ports, 1, 10, 0.09),
        WorkloadConfig(w, num_ports, 10, 1000, 0.21),
    )


@dataclass(frozen=True)
class GeneratorParams:
    n: int
    num_ports: int
    num_cores: int
    deg: int = 3
    p: float = 1.0
    workload_mix: tuple[WorkloadConfig, ...] | None = None
    weight_range: tuple[int, int] = (1, 100)
    density_mode: str = "default"
    seed: int = 0
    release_horizon: int = 0  # 0 keeps every release at time 0
    conforming: bool = False

    def mix(self) -> tuple[WorkloadConfig, ...]:
        if self.workload_mix is not None:
            return self.workload_mix
        return default_workload_mix(self.num_ports)


def _validate(params: GeneratorParams) -> None:
    # n, deg and p are checked by generate_dag, which runs next.
    if problems := config_violations(NetworkConfig(params.num_cores,
                                                   params.num_ports)):
        raise ValueError("; ".join(problems))
    if params.density_mode not in DENSITY_MODES:
        raise ValueError(f"unknown density mode {params.density_mode!r}")
    lo, hi = params.weight_range
    if not (1 <= lo <= hi):
        raise ValueError("weight range must satisfy 1 <= lo <= hi")
    if params.release_horizon < 0:
        raise ValueError("release horizon must be >= 0")
    mix = params.mix()
    if abs(sum(c.probability for c in mix) - 1.0) > 1e-9:
        raise ValueError("workload mix probabilities must sum to 1")
    for c in mix:
        if not (1 <= c.w_min <= c.w_max <= params.num_ports):
            raise ValueError(f"workload widths {c} must fit 1..ports")
        if not (1 <= c.l_min <= c.l_max):
            raise ValueError(f"workload sizes {c} must satisfy 1 <= min <= max")
    # integers(lo, hi + 1) draws in int64, so hi may be at most 2**63 - 1.
    for name, top in (("weight range", hi),
                      ("release horizon", params.release_horizon),
                      *(("workload size", c.l_max) for c in mix)):
        if top > _DRAW_MAX:
            raise ValueError(f"{name} {top} is past the int64 draw limit "
                             f"{_DRAW_MAX}")


def _rng(seed: int, stream: int, index: int = 0) -> Generator:
    """Stream `stream` of `seed` at any 64-bit `index`, taken mod 2**64."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return Generator(Philox(SeedSequence(
        seed, spawn_key=(stream, index % 2**64))))


def _uniform_mean(rng: Generator, mean: float) -> int:
    # UniformInt[1, max(1, round(2*mean))] has mean about `mean`.
    return int(rng.integers(1, max(1, round(2.0 * mean)) + 1))


def generate_dag(n: int, deg: int, p: float, seed: int) -> PrecedenceDag:
    """Layered random DAG: edges go from lower to strictly higher levels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if deg < 0:
        raise ValueError("deg must be >= 0")
    if not p > 0:
        raise ValueError("parallelism factor p must be positive")
    sqrt_n = math.sqrt(n)
    # Levels are drawn one by one, so their ranges are capped; p=inf is past.
    if 2 * max(sqrt_n / p, p * sqrt_n) > 2**20:
        raise ValueError(f"parallelism factor p={p} at n={n} puts a level "
                         "count or width range past 2**20")

    rng = _rng(seed, _STREAM_LEVELS)
    num_levels = _uniform_mean(rng, sqrt_n / p)
    widths = [_uniform_mean(rng, p * sqrt_n) for _ in range(num_levels)]
    # Truncate from the last level backwards (keeping levels non-empty),
    # keep at most n levels, then pad the last level so the widths sum to n.
    overflow = sum(widths) - n
    for i in range(len(widths) - 1, -1, -1):
        cut = min(max(overflow, 0), widths[i] - 1)
        widths[i] -= cut
        overflow -= cut
    widths = widths[:n]
    widths[-1] += n - sum(widths)

    # Nodes are numbered level by level, so the nodes on higher levels than
    # node k are the ones numbered after the last node of k's level.
    edges: list[tuple[int, int]] = []
    first = 1
    for last in itertools.accumulate(widths):
        higher = n - last
        if deg > 0 and higher > 0:
            prob = min(1.0, deg / higher)
            for k in range(first, last + 1):
                draws = _rng(seed, _STREAM_EDGES, k).random(higher)
                edges.extend((k, last + 1 + int(i))
                             for i in np.flatnonzero(draws < prob))
        first = last + 1
    return PrecedenceDag.make(range(1, n + 1), edges)


def _bipartite_flows(rng: Generator, cfg: WorkloadConfig,
                     num_ports: int) -> list[tuple[int, int, int]]:
    w1 = int(rng.integers(cfg.w_min, cfg.w_max + 1))
    w2 = int(rng.integers(cfg.w_min, cfg.w_max + 1))
    ins = sorted(int(x) + 1 for x in rng.choice(num_ports, w1, replace=False))
    outs = sorted(int(x) + 1 for x in rng.choice(num_ports, w2, replace=False))
    return [(i, j, int(rng.integers(cfg.l_min, cfg.l_max + 1)))
            for i in ins for j in outs]


def _density_flows(rng: Generator, cfg: WorkloadConfig, num_ports: int,
                   dense: bool) -> list[tuple[int, int, int]]:
    if dense:
        count = int(rng.integers(num_ports, num_ports * num_ports + 1))
    else:
        count = int(rng.integers(1, num_ports + 1))
    cells = rng.choice(num_ports * num_ports, count, replace=False)
    flows = []
    for cell in sorted(int(c) for c in cells):
        i, j = divmod(cell, num_ports)
        flows.append((i + 1, j + 1,
                      int(rng.integers(cfg.l_min, cfg.l_max + 1))))
    return flows


def _make_conforming(coflows: list[Coflow],
                     dag: PrecedenceDag) -> list[Coflow]:
    """Force weights non-increasing and demands non-decreasing along edges."""
    order = topological_order(dag)
    preds = dag.predecessors()
    demand: dict[int, dict[tuple[int, int], int]] = {}
    by_id = {c.id: c for c in coflows}
    for k in order:
        d = {(f.source, f.dest): f.size for f in by_id[k].flows}
        for p in preds.get(k, ()):
            for pair, size in demand[p].items():
                if d.get(pair, 0) < size:
                    d[pair] = size
        demand[k] = d

    weights = sorted((c.weight for c in coflows), reverse=True)
    weight_of = dict(zip(order, weights))
    return [Coflow.make(k, by_id[k].release, weight_of[k],
                        [(i, j, s) for (i, j), s in sorted(demand[k].items())])
            for k in sorted(by_id)]


def generate_instance(params: GeneratorParams) -> Instance:
    _validate(params)
    dag = generate_dag(params.n, params.deg, params.p, params.seed)
    mix = params.mix()
    probs = np.cumsum([c.probability for c in mix])
    w_lo, w_hi = params.weight_range

    coflows: list[Coflow] = []
    for k in range(1, params.n + 1):
        rng = _rng(params.seed, _STREAM_WORKLOAD, k)
        cfg = mix[int(np.searchsorted(probs, rng.random(), side="right"))]
        mode = params.density_mode
        if mode == "combined":
            mode = "sparse" if rng.random() < 0.5 else "dense"
        if mode == "default":
            flows = _bipartite_flows(rng, cfg, params.num_ports)
        else:
            flows = _density_flows(rng, cfg, params.num_ports, mode == "dense")
        weight = int(rng.integers(w_lo, w_hi + 1))
        release = 0
        if params.release_horizon > 0:
            release = int(rng.integers(0, params.release_horizon + 1))
        coflows.append(Coflow.make(k, release, weight, flows))

    if params.conforming:
        coflows = _make_conforming(coflows, dag)
    config = NetworkConfig(params.num_cores, params.num_ports)
    return Instance(config, tuple(coflows), dag)
