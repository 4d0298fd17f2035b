"""Core domain types: coflows, precedence DAGs, parallel-network configuration.

Ports are integers 1..N; the input side and the output side are separate
namespaces (a flow from input port 2 to output port 2 uses two different
physical links). Flow sizes and release times are integers, weights are
arbitrary positive numbers. All types are immutable after construction and
safe to share between threads.
"""
from __future__ import annotations

import heapq
import json
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence


# The largest core count and port count an instance may have. Ordering,
# assignment and simulation hold arrays of cores x ports and coflows x ports.
MAX_CORES_AND_PORTS = 4096


class CycleError(ValueError):
    """Raised when an operation requires an acyclic DAG but finds a cycle."""


class DocumentError(ValueError):
    """Raised when a document is malformed."""


class InvalidInstanceError(ValueError):
    """Raised by algorithms that require a valid instance or job set."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid instance: " + "; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class NetworkConfig:
    """m identical N x N non-blocking switches."""

    num_cores: int
    num_ports: int


@dataclass(frozen=True)
class Flow:
    """A (source port, destination port, size) demand inside a coflow."""

    source: int
    dest: int
    size: int


@dataclass(frozen=True)
class Coflow:
    id: int
    release: int
    weight: float
    flows: tuple[Flow, ...]

    @staticmethod
    def make(cid: int, release: int, weight: float,
             flows: Iterable[tuple[int, int, int]]) -> "Coflow":
        """Build a coflow from (src, dst, size) triples, sorted canonically."""
        fl = tuple(Flow(s, d, z) for s, d, z in sorted(flows))
        return Coflow(cid, release, weight, fl)


@dataclass(frozen=True)
class PrecedenceDag:
    """Edges (pred, succ): every flow of pred completes before succ may start."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def make(nodes: Iterable[int],
             edges: Iterable[tuple[int, int]] = ()) -> "PrecedenceDag":
        return PrecedenceDag(frozenset(nodes), frozenset(edges))

    def successors(self) -> dict[int, list[int]]:
        return self._adjacency(self.edges)

    def predecessors(self) -> dict[int, list[int]]:
        return self._adjacency((b, a) for a, b in self.edges)

    def _adjacency(self, pairs) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {n: [] for n in self.nodes}
        for a, b in pairs:
            adj.setdefault(a, []).append(b)
        for lst in adj.values():
            lst.sort()
        return adj


@dataclass(frozen=True)
class Instance:
    config: NetworkConfig
    coflows: tuple[Coflow, ...]
    dag: PrecedenceDag

    def coflow_by_id(self) -> dict[int, Coflow]:
        return {c.id: c for c in self.coflows}


@dataclass(frozen=True)
class Job:
    id: int
    weight: float
    coflows: tuple[int, ...]


@dataclass(frozen=True)
class JobSet:
    """Multi-stage jobs: each job owns a group of coflows with one release time."""

    config: NetworkConfig
    jobs: tuple[Job, ...]
    coflows: tuple[Coflow, ...]
    intra_job_dag: PrecedenceDag

    def coflow_by_id(self) -> dict[int, Coflow]:
        return {c.id: c for c in self.coflows}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def _check_cyclic(dag: PrecedenceDag) -> bool:
    # Stray edge endpoints are reported separately; ignore them here.
    inner = PrecedenceDag.make(dag.nodes,
                               ((a, b) for a, b in dag.edges
                                if a in dag.nodes and b in dag.nodes))
    try:
        topological_order(inner)
    except CycleError:
        return True
    return False


def config_violations(config: NetworkConfig) -> list[str]:
    """One message per core or port count outside 1..MAX_CORES_AND_PORTS."""
    return [f"{name} must be an integer in 1..{MAX_CORES_AND_PORTS}, "
            f"got {value!r}"
            for name, value in (("num_cores", config.num_cores),
                                ("num_ports", config.num_ports))
            if not (isinstance(value, int)
                    and 1 <= value <= MAX_CORES_AND_PORTS)]


def validate_instance(instance: Instance) -> ValidationReport:
    """Check every type invariant; violations are data, not exceptions."""
    cfg = instance.config
    v = config_violations(cfg)

    seen_ids: set[int] = set()
    volume = latest = 0
    for c in instance.coflows:
        if c.id in seen_ids:
            v.append(f"duplicate coflow id {c.id}")
        seen_ids.add(c.id)
        if not (isinstance(c.id, int) and -2**63 <= c.id < 2**63):
            v.append(f"coflow {c.id}: id exceeds the 64-bit range")
        if not c.weight > 0:
            v.append(f"coflow {c.id}: non-positive weight {c.weight!r}")
        if not (isinstance(c.release, int) and c.release >= 0):
            v.append(f"coflow {c.id}: release must be a non-negative integer, "
                     f"got {c.release!r}")
        elif c.release >= 2**63:
            v.append(f"coflow {c.id}: release {c.release} exceeds the 64-bit "
                     f"limit {2**63 - 1}")
        elif c.release > latest:
            latest = c.release
        pairs: set[tuple[int, int]] = set()
        for f in c.flows:
            if not (isinstance(f.size, int) and f.size > 0):
                v.append(f"coflow {c.id}: non-positive flow size on "
                         f"({f.source},{f.dest})")
            else:
                volume += f.size
            if isinstance(cfg.num_ports, int) and cfg.num_ports >= 1:
                if not (1 <= f.source <= cfg.num_ports
                        and 1 <= f.dest <= cfg.num_ports):
                    v.append(f"coflow {c.id}: flow ({f.source},{f.dest}) "
                             f"outside ports 1..{cfg.num_ports}")
            if (f.source, f.dest) in pairs:
                v.append(f"coflow {c.id}: duplicate flow pair "
                         f"({f.source},{f.dest})")
            pairs.add((f.source, f.dest))

    if latest + volume >= 2**63:
        # No simulated time passes the latest release plus the total
        # volume, so this bounds every segment time, and every port load.
        v.append(f"latest release {latest} plus total volume {volume} "
                 f"exceeds the 64-bit limit {2**63 - 1}")
    if instance.dag.nodes != seen_ids:
        v.append("dag nodes differ from coflow ids")
    for a, b in sorted(instance.dag.edges):
        if a not in instance.dag.nodes or b not in instance.dag.nodes:
            v.append(f"edge ({a},{b}) has endpoint outside dag nodes")
    if _check_cyclic(instance.dag):
        v.append("cycle detected in precedence dag")
    return ValidationReport(tuple(v))


def validate_jobset(jobset: JobSet) -> ValidationReport:
    base = validate_instance(
        Instance(jobset.config, jobset.coflows, jobset.intra_job_dag))
    v = list(base.violations)

    owner: dict[int, int] = {}
    seen_jobs: set[int] = set()
    for job in jobset.jobs:
        if job.id in seen_jobs:
            v.append(f"duplicate job id {job.id}")
        seen_jobs.add(job.id)
        if not job.weight > 0:
            v.append(f"job {job.id}: non-positive weight {job.weight!r}")
        if not job.coflows:
            v.append(f"job {job.id}: empty coflow group")
        for k in job.coflows:
            if k in owner:
                v.append(f"coflow {k} assigned to jobs {owner[k]} and {job.id}")
            owner[k] = job.id

    all_ids = {c.id for c in jobset.coflows}
    if set(owner) != all_ids:
        v.append("jobs do not partition the coflow set")

    releases = {c.id: c.release for c in jobset.coflows}
    for job in jobset.jobs:
        rel = {releases[k] for k in job.coflows if k in releases}
        if len(rel) > 1:
            v.append(f"job {job.id}: coflows have differing release times {sorted(rel)}")

    for a, b in sorted(jobset.intra_job_dag.edges):
        if a in owner and b in owner and owner[a] != owner[b]:
            v.append(f"edge ({a},{b}) crosses jobs {owner[a]} and {owner[b]}")
    return ValidationReport(tuple(v))


def topological_order(dag: PrecedenceDag) -> list[int]:
    """Kahn's algorithm; ties broken by ascending node id."""
    indeg = {n: 0 for n in dag.nodes}
    succ = dag.successors()
    for _, b in dag.edges:
        indeg[b] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    out: list[int] = []
    while ready:
        n = heapq.heappop(ready)
        out.append(n)
        for s in succ.get(n, ()):
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(out) != len(dag.nodes):
        raise CycleError("cyclic DAG")
    return out


def longest_path_chi(dag: PrecedenceDag) -> int:
    """Number of nodes on the longest directed path; 1 for an edgeless DAG."""
    if not dag.nodes:
        return 0
    order = topological_order(dag)  # raises CycleError on cycles
    succ = dag.successors()
    depth = {n: 1 for n in dag.nodes}
    for n in reversed(order):
        for s in succ.get(n, ()):
            depth[n] = max(depth[n], 1 + depth[s])
    return max(depth.values())


def coflow_port_loads(coflow: Coflow,
                      config: NetworkConfig) -> tuple[list[int], list[int]]:
    """Per-port load vectors (index p-1 holds port p's load)."""
    load_in = [0] * config.num_ports
    load_out = [0] * config.num_ports
    for f in coflow.flows:
        load_in[f.source - 1] += f.size
        load_out[f.dest - 1] += f.size
    return load_in, load_out


def is_conforming(instance: Instance) -> bool:
    """True iff along every edge weights are non-increasing and per-port
    loads non-decreasing (the regime of the constant-factor bounds)."""
    by_id = instance.coflow_by_id()
    loads = {c.id: coflow_port_loads(c, instance.config)
             for c in instance.coflows}
    for a, b in instance.dag.edges:
        if by_id[a].weight < by_id[b].weight:
            return False
        la_in, la_out = loads[a]
        lb_in, lb_out = loads[b]
        if any(x > y for x, y in zip(la_in, lb_in)):
            return False
        if any(x > y for x, y in zip(la_out, lb_out)):
            return False
    return True


# ---------------------------------------------------------------------------
# strict document reading
# ---------------------------------------------------------------------------
# Every document reader checks the shape and type of each entry with
# `fields` and raises only DocumentError, with a one-line message. Ranges
# (positive sizes, known ports, ...) are left to the validators.

INTEGER = "an integer"
NUMBER = "a finite number"
STRING = "a string"
LIST = "a list"
INTEGERS = "a list of integers"
PAIR = "a [pred, succ] integer pair"
TRIPLE = "a [src, dst, coflow] integer triple"
SIDE = '"in" or "out"'


def _integers(v, length: int | None = None) -> bool:
    return (type(v) is list and length in (None, len(v))
            and all(type(x) is int for x in v))


_EXPECTED = {
    INTEGER: lambda v: type(v) is int,
    # Comparisons leave out inf, nan and ints too large for a float.
    NUMBER: lambda v: (type(v) in (int, float)
                       and -sys.float_info.max <= v <= sys.float_info.max),
    STRING: lambda v: type(v) is str,
    LIST: lambda v: type(v) is list,
    INTEGERS: _integers,
    PAIR: lambda v: _integers(v, 2),
    TRIPLE: lambda v: _integers(v, 3),
    SIDE: lambda v: v in ("in", "out"),
}


def parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not a valid {what}: {exc}") from exc


def typed(value, expected: str, where: str):
    """`value`, if it is what `expected` (INTEGER, NUMBER, ...) names."""
    if not _EXPECTED[expected](value):
        shown = type(value).__name__ if isinstance(value, (list, dict)) \
            else repr(value)
        raise DocumentError(f"{where} must be {expected}, got {shown}")
    return value


def fields(obj, where: str, **expected: str) -> list:
    """The values of exactly the fields named in `expected` of the object
    `obj`, in that order, each checked to be what its `expected` names."""
    return _fields(obj, where, expected)


def entries(items: list, where: str, **expected: str) -> list[list]:
    """`fields` of each object in `items`; the i-th is named `where i`."""
    return [_fields(obj, f"{where} {i}", expected)
            for i, obj in enumerate(items)]


def _fields(obj, where: str, expected: dict) -> list:
    if type(obj) is not dict:
        raise DocumentError(f"{where} must be an object, "
                            f"got {type(obj).__name__}")
    if obj.keys() != expected.keys():
        for key in expected:
            if key not in obj:
                raise DocumentError(f"missing field '{key}' in {where}")
        raise DocumentError(f"unknown field(s) "
                            f"{sorted(set(obj) - set(expected))} in {where}")
    values = [obj[key] for key in expected]
    for value, (key, want) in zip(values, expected.items()):
        if not _EXPECTED[want](value):
            typed(value, want, f"{where} {key}")
    return values


# ---------------------------------------------------------------------------
# instance document format
# ---------------------------------------------------------------------------
# One JSON document per instance. Top-level fields: cores, ports, coflows
# (list of {id, release, weight, flows: [{src, dst, size}]}), edges (list of
# [pred, succ]) and optional jobs (list of {id, weight, coflows}). Unknown
# fields are rejected.

def _read_instance(doc, what: str, **extra: str) -> tuple[Instance, list]:
    """The instance in the parsed document `doc`, and the values of the
    root fields `extra` names."""
    cores, ports, coflow_entries, edges, *rest = fields(
        doc, what, cores=INTEGER, ports=INTEGER, coflows=LIST, edges=LIST,
        **extra)
    coflows = tuple(
        Coflow.make(cid, release, weight,
                    entries(flows, f"coflow {cid} flow", src=INTEGER,
                            dst=INTEGER, size=INTEGER))
        for cid, release, weight, flows in entries(
            coflow_entries, "coflow entry", id=INTEGER, release=INTEGER,
            weight=NUMBER, flows=LIST))
    pairs = [tuple(typed(e, PAIR, f"edge {i}")) for i, e in enumerate(edges)]
    dag = PrecedenceDag.make((c.id for c in coflows), pairs)
    return Instance(NetworkConfig(cores, ports), coflows, dag), rest


def document_to_instance(text: str) -> Instance:
    """The instance of an instance or jobset document; jobs are not read."""
    doc = parse_json(text, "instance document")
    jobs = {"jobs": LIST} if type(doc) is dict and "jobs" in doc else {}
    return _read_instance(doc, "instance document", **jobs)[0]


def document_to_jobset(text: str) -> JobSet:
    doc = parse_json(text, "jobset document")
    if type(doc) is dict and "jobs" not in doc:
        raise DocumentError("document has no 'jobs' field")
    instance, (job_entries,) = _read_instance(doc, "jobset document",
                                              jobs=LIST)
    jobs = tuple(Job(jid, weight, tuple(members))
                 for jid, weight, members in entries(
                     job_entries, "job entry", id=INTEGER, weight=NUMBER,
                     coflows=INTEGERS))
    return JobSet(instance.config, jobs, instance.coflows, instance.dag)


def _instance_payload(config: NetworkConfig, coflows: Sequence[Coflow],
                      dag: PrecedenceDag) -> dict:
    return {
        "cores": config.num_cores,
        "ports": config.num_ports,
        "coflows": [
            {
                "id": c.id,
                "release": c.release,
                "weight": c.weight,
                "flows": [{"src": f.source, "dst": f.dest, "size": f.size}
                          for f in sorted(c.flows,
                                          key=lambda f: (f.source, f.dest))],
            }
            for c in coflows
        ],
        "edges": [list(e) for e in sorted(dag.edges)],
    }


def instance_to_document(instance: Instance) -> str:
    payload = _instance_payload(instance.config, instance.coflows, instance.dag)
    return json.dumps(payload, indent=2) + "\n"


def jobset_to_document(jobset: JobSet) -> str:
    payload = _instance_payload(jobset.config, jobset.coflows,
                                jobset.intra_job_dag)
    payload["jobs"] = [{"id": j.id, "weight": j.weight,
                        "coflows": list(j.coflows)} for j in jobset.jobs]
    return json.dumps(payload, indent=2) + "\n"
