"""Core-assignment phase: greedy balancing of flows or whole coflows onto cores.

Flow-level assignment sends each flow, in permutation order and within a
coflow by non-increasing size, to the core where its two ports are least
loaded. Coflow-level assignment keeps a coflow together on the core that
minimizes its worst port-pair congestion. Ties go to the lowest core id so
results are reproducible.

FDLS sums loads as Python ints and CDLS in uint64: `validate_instance` holds
the total volume, and so every port's load, below 2**63, so a CDLS score, at
most two such loads summed, is exact, and either level's loads fit uint64.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

import numpy as np

from .model import Coflow, Flow, Instance, PortDemand, flow_rows, render
from .primal_dual import COFLOW_LEVEL, FLOW_LEVEL, Permutation


@dataclass(frozen=True)
class CoreAssignment:
    kind: str  # FLOW_LEVEL | COFLOW_LEVEL
    flow_to_core: dict[tuple[int, int, int], int]  # (src, dst, coflow) -> core
    coflow_to_core: dict[int, int]  # coflow -> core (coflow-level only)
    load_in: np.ndarray  # ports x cores accumulated sizes
    load_out: np.ndarray


def _check_perm(instance: Instance, perm: Permutation) -> list[int]:
    """The instance's coflow ids, sorted, once `perm` holds each exactly once."""
    ids = sorted(c.id for c in instance.coflows)
    if sorted(perm.order) != ids:
        raise ValueError("permutation does not cover the instance's coflows")
    return ids


def list_order(coflow: Coflow) -> list[Flow]:
    """The coflow's flows in list order: by non-increasing size, then ports."""
    return sorted(coflow.flows, key=lambda f: (-f.size, f.source, f.dest))


def assign_flows_fdls(instance: Instance, perm: Permutation) -> CoreAssignment:
    """Flow-driven list scheduling, assignment phase."""
    _check_perm(instance, perm)
    m = instance.config.num_cores
    num_ports = instance.config.num_ports
    load_in = [[0] * m for _ in range(num_ports)]
    load_out = [[0] * m for _ in range(num_ports)]
    flow_to_core: dict[tuple[int, int, int], int] = {}
    by_id = instance.coflow_by_id()

    for k in perm.order:
        for f in list_order(by_id[k]):
            row_in, row_out = load_in[f.source - 1], load_out[f.dest - 1]
            scores = list(map(add, row_in, row_out))
            h = scores.index(min(scores))
            flow_to_core[(f.source, f.dest, k)] = h + 1
            row_in[h] += f.size
            row_out[h] += f.size
    return CoreAssignment(FLOW_LEVEL, flow_to_core, {},
                          np.array(load_in, dtype=np.uint64),
                          np.array(load_out, dtype=np.uint64))


def assign_coflows_cdls(instance: Instance, perm: Permutation) -> CoreAssignment:
    """Coflow-driven list scheduling, assignment phase."""
    _check_perm(instance, perm)
    m = instance.config.num_cores
    num_ports = instance.config.num_ports
    load_in = np.zeros((num_ports, m), dtype=np.uint64)
    load_out = np.zeros((num_ports, m), dtype=np.uint64)
    coflow_to_core: dict[int, int] = {}
    flow_to_core: dict[tuple[int, int, int], int] = {}
    by_id = instance.coflow_by_id()
    demand = PortDemand(instance)
    tables = [demand.load[side].astype(np.uint64) for side in ("in", "out")]

    for k in perm.order:
        li, lo = (table[demand.row[k], :, None] for table in tables)
        # max over (i, j) of in(i, h) + out(j, h) separates into two maxima.
        scores = (load_in + li).max(axis=0) + (load_out + lo).max(axis=0)
        h = int(np.argmin(scores))
        coflow_to_core[k] = h + 1
        for f in by_id[k].flows:
            flow_to_core[(f.source, f.dest, k)] = h + 1
        load_in[:, h] += li[:, 0]
        load_out[:, h] += lo[:, 0]
    return CoreAssignment(COFLOW_LEVEL, flow_to_core, coflow_to_core,
                          load_in, load_out)


# ---------------------------------------------------------------------------
# assignment document (embedded in the CLI schedule output)
# ---------------------------------------------------------------------------

def assignment_to_payload(assignment: CoreAssignment) -> dict:
    """The assignment's fields, lists rendered at depth 2, where the CLI
    schedule output holds them."""
    payload = {
        "kind": assignment.kind,
        "flows": render(2, flow_rows(assignment.flow_to_core),
                        "src dst coflow core"),
        "load_in": render(2, [render(3, r)
                              for r in assignment.load_in.tolist()]),
        "load_out": render(2, [render(3, r)
                               for r in assignment.load_out.tolist()]),
    }
    if assignment.kind == COFLOW_LEVEL:
        payload["coflows"] = render(
            2, sorted(assignment.coflow_to_core.items()), "id core")
    return payload
