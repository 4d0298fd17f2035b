"""Ingestion of rack-level coflow traces (mapper/reducer form).

Grammar, one record per line after a "ports coflows" header:

    id arrival num_mappers m1 ... num_reducers r1:size1 ...

Racks map one-to-one to ports. Each reducer of s megabytes with M mappers
becomes M flows of ceil(s / M) units, one from every mapper rack to the
reducer rack; flows that land on the same (mapper, reducer) pair are merged
by summing sizes so demands stay simple.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .generator import _STREAM_TRACE_WEIGHTS, _rng
from .model import Coflow, Instance, NetworkConfig, PrecedenceDag


class TraceError(ValueError):
    """Malformed trace text; the message carries the offending line number."""


@dataclass(frozen=True)
class TraceCoflow:
    id: int
    arrival: int  # milliseconds
    mappers: tuple[int, ...]  # rack indices
    reducers: tuple[tuple[int, int], ...]  # (rack index, total megabytes)


def parse_trace(text: str) -> tuple[int, list[TraceCoflow]]:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise TraceError("line 1: missing 'ports coflows' header")
    header = lines[0].split()
    if len(header) != 2:
        raise TraceError("line 1: header must be 'ports coflows'")
    try:
        port_count, declared = int(header[0]), int(header[1])
    except ValueError as exc:
        raise TraceError(f"line 1: non-integer header: {exc}") from exc

    records: list[TraceCoflow] = []
    for ln_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tok = line.split()
        try:
            cid, arrival = int(tok[0]), int(tok[1])
            nm = int(tok[2])
            mappers = [int(x) for x in tok[3:3 + nm]]
            if len(mappers) != nm:
                raise TraceError(f"line {ln_no}: expected {nm} mappers, "
                                 f"got {len(mappers)}")
            pos = 3 + nm
            nr = int(tok[pos])
            reducer_tok = tok[pos + 1:]
            if len(reducer_tok) != nr:
                raise TraceError(f"line {ln_no}: expected {nr} reducers, "
                                 f"got {len(reducer_tok)}")
            reducers = []
            for rt in reducer_tok:
                rack, sep, size = rt.partition(":")
                if not sep:
                    raise TraceError(f"line {ln_no}: reducer '{rt}' is not "
                                     "rack:size")
                reducers.append((int(rack), int(size)))
        except TraceError:
            raise
        except (ValueError, IndexError) as exc:
            raise TraceError(f"line {ln_no}: malformed record: {exc}") from exc

        for rack in mappers:
            if not 1 <= rack <= port_count:
                raise TraceError(f"line {ln_no}: mapper rack {rack} outside "
                                 f"1..{port_count}")
        for rack, size in reducers:
            if not 1 <= rack <= port_count:
                raise TraceError(f"line {ln_no}: reducer rack {rack} outside "
                                 f"1..{port_count}")
            if size <= 0:
                raise TraceError(f"line {ln_no}: non-positive reducer size "
                                 f"{size}")
        records.append(TraceCoflow(cid, arrival, tuple(mappers),
                                   tuple(reducers)))

    if len(records) != declared:
        raise TraceError(f"header declares {declared} coflows, found "
                         f"{len(records)}")
    return port_count, records


def format_trace(port_count: int, coflows: Sequence[TraceCoflow]) -> str:
    lines = [f"{port_count} {len(coflows)}"]
    for c in coflows:
        parts = [str(c.id), str(c.arrival), str(len(c.mappers))]
        parts += [str(m) for m in c.mappers]
        parts.append(str(len(c.reducers)))
        parts += [f"{rack}:{size}" for rack, size in c.reducers]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def to_instance(port_count: int, coflows: Sequence[TraceCoflow],
                num_cores: int = 1, weight_mode: str = "unit",
                release_mode: str = "zero", seed: int = 0) -> Instance:
    """Turn parsed records into an instance with an empty precedence DAG;
    `validate_instance` judges its core and port counts and its racks."""
    if weight_mode not in ("unit", "uniform"):
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    if release_mode not in ("zero", "arrival"):
        raise ValueError(f"unknown release mode {release_mode!r}")

    out: list[Coflow] = []
    for c in coflows:
        demand: dict[tuple[int, int], int] = {}
        for rack, size in c.reducers:
            share = -(-size // len(c.mappers)) if c.mappers else 0
            for mapper in c.mappers:
                key = (mapper, rack)
                demand[key] = demand.get(key, 0) + share
        weight = (int(_rng(seed, _STREAM_TRACE_WEIGHTS, c.id).integers(1, 101))
                  if weight_mode == "uniform" else 1)
        release = c.arrival if release_mode == "arrival" else 0
        out.append(Coflow.make(c.id, release, weight,
                               [(i, j, s) for (i, j), s in sorted(demand.items())]))
    return Instance(NetworkConfig(num_cores, port_count), tuple(out),
                    PrecedenceDag.make(c.id for c in out))


def filter_by_min_flows(instance: Instance, threshold: int) -> Instance:
    """Keep coflows with at least `threshold` flows; prune dangling edges."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    kept = tuple(c for c in instance.coflows if len(c.flows) >= threshold)
    ids = {c.id for c in kept}
    edges = [(a, b) for a, b in instance.dag.edges if a in ids and b in ids]
    return Instance(instance.config, kept, PrecedenceDag.make(ids, edges))
