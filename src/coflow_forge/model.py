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
import struct
import sys
from dataclasses import dataclass, field
from itertools import chain
from math import prod
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np


# The largest core count and port count an instance may have. Ordering,
# assignment and simulation hold arrays of cores x ports and coflows x ports.
MAX_CORES_AND_PORTS = 4096


class CycleError(ValueError):
    """Raised when an operation requires an acyclic DAG but finds a cycle."""


class DocumentError(ValueError):
    """Raised when a document is malformed."""


class InvalidInstanceError(ValueError):
    """Raised for a subject that is invalid, or empty where R is needed."""

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

    coflow_by_id = Instance.coflow_by_id

    @property
    def dag(self) -> PrecedenceDag:
        """The intra-job DAG, under the name an `Instance` gives its DAG."""
        return self.intra_job_dag


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------

def config_violations(config: NetworkConfig) -> list[str]:
    """One message per core or port count outside 1..MAX_CORES_AND_PORTS."""
    integer = _EXPECTED[INTEGER]
    return [f"{name} must be an integer in 1..{MAX_CORES_AND_PORTS}, "
            f"got {value!r}"
            for name, value in (("num_cores", config.num_cores),
                                ("num_ports", config.num_ports))
            if not (integer(value) and 1 <= value <= MAX_CORES_AND_PORTS)]


def _weight_violations(what: str, weight) -> list[str]:
    if not _EXPECTED[NUMBER](weight):
        return [_mistyped(f"{what}: weight", NUMBER, weight)]
    if not weight > 0:
        return [f"{what}: non-positive weight {weight!r}"]
    return []


def validate_instance(instance: Instance | JobSet) -> ValidationReport:
    """Check every invariant, judging each value's type by the document
    readers' rule; violations are data, not exceptions."""
    integer = _EXPECTED[INTEGER]
    cfg = instance.config
    v = config_violations(cfg)
    ports = cfg.num_ports if integer(cfg.num_ports) else 0

    seen_ids: set[int] = set()
    volume = latest = 0
    for c in instance.coflows:
        if c.id in seen_ids:
            v.append(f"duplicate coflow id {c.id}")
        seen_ids.add(c.id)
        if not integer(c.id):
            v.append(_mistyped(f"coflow {c.id}: id", INTEGER, c.id))
        elif not -2**63 <= c.id < 2**63:
            v.append(f"coflow {c.id}: id exceeds the 64-bit range")
        v.extend(_weight_violations(f"coflow {c.id}", c.weight))
        if not (integer(c.release) and c.release >= 0):
            v.append(f"coflow {c.id}: release must be a non-negative integer, "
                     f"got {c.release!r}")
        elif c.release >= 2**63:
            v.append(f"coflow {c.id}: release {c.release} exceeds the 64-bit "
                     f"limit {2**63 - 1}")
        elif c.release > latest:
            latest = c.release
        pairs: set[tuple[int, int]] = set()
        for f in c.flows:
            source, dest, size = f.source, f.dest, f.size
            if not type(source) is type(dest) is type(size) is int:
                v.extend(_mistyped(f"coflow {c.id}: flow ({source},{dest}) "
                                   f"{name}", INTEGER, x) for name, x in (
                    ("source", source), ("dest", dest), ("size", size))
                    if not integer(x))
                continue
            if size <= 0:
                v.append(f"coflow {c.id}: non-positive flow size on "
                         f"({source},{dest})")
            else:
                volume += size
            if ports >= 1 and not (1 <= source <= ports
                                   and 1 <= dest <= ports):
                v.append(f"coflow {c.id}: flow ({source},{dest}) "
                         f"outside ports 1..{ports}")
            if (source, dest) in pairs:
                v.append(f"coflow {c.id}: duplicate flow pair "
                         f"({source},{dest})")
            pairs.add((source, dest))

    if latest + volume >= 2**63:
        # No simulated time passes the latest release plus the total
        # volume, so this bounds every segment time, and every port load.
        v.append(f"latest release {latest} plus total volume {volume} "
                 f"exceeds the 64-bit limit {2**63 - 1}")
    dag = instance.dag
    if dag.nodes != seen_ids:
        v.append("dag nodes differ from coflow ids")
    typed = sorted(e for e in dag.edges if integer(e[0]) and integer(e[1]))
    v.extend(_mistyped(f"edge ({a},{b}): endpoint", INTEGER, x)
             for a, b in sorted(dag.edges.difference(typed), key=repr)
             for x in (a, b) if not integer(x))
    for a, b in typed:
        if a not in dag.nodes or b not in dag.nodes:
            v.append(f"edge ({a},{b}) has endpoint outside dag nodes")
    # Look for a cycle among the integer nodes only; the rest are reported.
    nodes = set(filter(integer, dag.nodes))
    try:
        topological_order(PrecedenceDag.make(nodes, (
            (a, b) for a, b in typed if a in nodes and b in nodes)))
    except CycleError:
        v.append("cycle detected in precedence dag")
    return ValidationReport(tuple(v))


def validate_jobset(jobset: JobSet) -> ValidationReport:
    integer = _EXPECTED[INTEGER]
    v = list(validate_instance(jobset).violations)

    owner: dict[int, int] = {}
    seen_jobs: set[int] = set()
    for job in jobset.jobs:
        if job.id in seen_jobs:
            v.append(f"duplicate job id {job.id}")
        seen_jobs.add(job.id)
        if not integer(job.id):
            v.append(_mistyped(f"job {job.id}: id", INTEGER, job.id))
        v.extend(_weight_violations(f"job {job.id}", job.weight))
        if not job.coflows:
            v.append(f"job {job.id}: empty coflow group")
        for k in job.coflows:
            if not integer(k):
                v.append(_mistyped(f"job {job.id}: member", INTEGER, k))
            if k in owner:
                v.append(f"coflow {k} assigned to jobs {owner[k]} and {job.id}")
            owner[k] = job.id

    all_ids = {c.id for c in jobset.coflows}
    if set(owner) != all_ids:
        v.append("jobs do not partition the coflow set")

    releases = {c.id: c.release for c in jobset.coflows if integer(c.release)}
    for job in jobset.jobs:
        rel = {releases[k] for k in job.coflows if k in releases}
        if len(rel) > 1:
            v.append(f"job {job.id}: coflows have differing release times {sorted(rel)}")

    for a, b in sorted(e for e in jobset.dag.edges
                       if integer(e[0]) and integer(e[1])):
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
    order = topological_order(dag)  # raises CycleError on cycles
    succ = dag.successors()
    depth = {n: 1 for n in dag.nodes}
    for n in reversed(order):
        for s in succ.get(n, ()):
            depth[n] = max(depth[n], 1 + depth[s])
    return max(depth.values(), default=0)


def _int64(values, *shape: int) -> np.ndarray | None:
    """The values as int64 of `shape`, or None if one is not in 64 bits."""
    try:
        return np.frombuffer(struct.pack(f"{prod(shape)}q", *values),
                             np.int64).reshape(shape)
    except (struct.error, TypeError):
        return None


class PortDemand:
    """Every coflow's load and sum of squared flow sizes at every (side, port).

    `load[side]` (int64) and `squares[side]` (float64) are n x N tables whose
    rows follow the subject's coflow order, as `row` maps coflow ids to
    them, and whose column p - 1 is port p. The subject's flows must lie on
    ports 1..N, with the total volume below 2**63, as `validate_instance`
    checks: past it a load can wrap without an error.
    """

    def __init__(self, subject: Instance | JobSet):
        coflows = subject.coflows
        self.n, ports = len(coflows), subject.config.num_ports
        self.row = {c.id: i for i, c in enumerate(coflows)}
        flows = [f for c in coflows for f in c.flows]
        # A flow's cell in the flattened table is row * N + port - 1.
        first = np.repeat(np.arange(self.n) * ports,
                          [len(c.flows) for c in coflows]) - 1
        size = np.array([f.size for f in flows], dtype=np.int64)
        squares = np.square(size, dtype=np.float64)
        self.load, self.squares = {}, {}
        for side, ends in (("in", [f.source for f in flows]),
                           ("out", [f.dest for f in flows])):
            cell = first + np.array(ends, np.intp)
            load = np.zeros(self.n * ports, dtype=np.int64)
            np.add.at(load, cell, size)
            self.load[side] = load.reshape(self.n, ports)
            self.squares[side] = np.bincount(cell, squares, self.n * ports
                                             ).reshape(self.n, ports)


def is_conforming(instance: Instance | JobSet) -> bool:
    """True iff along every edge weights are non-increasing and per-port
    loads non-decreasing (the regime of the constant-factor bounds)."""
    by_id = instance.coflow_by_id()
    edges = list(instance.dag.edges)
    if any(by_id[a].weight < by_id[b].weight for a, b in edges):
        return False
    demand = PortDemand(instance)
    pred, succ = ([demand.row[e[i]] for e in edges] for i in (0, 1))
    return all((load[pred] <= load[succ]).all()
               for load in demand.load.values())


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


def _mistyped(where: str, expected: str, value) -> str:
    shown = type(value).__name__ if isinstance(value, (list, dict)) \
        else repr(value)
    return f"{where} must be {expected}, got {shown}"


def typed(value, expected: str, where: str):
    """`value`, if it is what `expected` (INTEGER, NUMBER, ...) names."""
    if not _EXPECTED[expected](value):
        raise DocumentError(_mistyped(where, expected, value))
    return value


def fields(obj, where: str, **expected: str) -> list:
    """The values of exactly the fields named in `expected` of the object
    `obj`, in that order, each checked to be what its `expected` names."""
    if type(obj) is not dict:
        raise DocumentError(f"{where} must be an object, "
                            f"got {type(obj).__name__}")
    if obj.keys() != expected.keys():
        for key in expected:
            if key not in obj:
                raise DocumentError(f"missing field '{key}' in {where}")
        raise DocumentError(f"unknown field(s) "
                            f"{sorted(set(obj) - set(expected))} in {where}")
    return [typed(obj[key], want, f"{where} {key}")
            for key, want in expected.items()]


def entries(items: list, where: str, **expected: str) -> list[Sequence]:
    """`fields` of each object in `items`; the i-th is named `where i`. A
    list whose objects all hold just the expected fields, each of its kind,
    is checked a column at a time; any other runs `fields` on each."""
    if set(map(type, items)) <= {dict} and all(
            map(expected.keys().__eq__, map(dict.keys, items))):
        columns = [[*map(itemgetter(key), items)] for key in expected]
        if all(set(map(type, column)) <= {int} if want == INTEGER
               else all(map(_EXPECTED[want], column))
               for want, column in zip(expected.values(), columns)):
            return [*zip(*columns)]
    return [fields(obj, f"{where} {i}", **expected)
            for i, obj in enumerate(items)]


def keyed(items: list, where: str, **expected: str) -> dict:
    """{key: value} over the `entries` of `items`, the key an entry's fields
    but its last (one field stands alone) and the value its last. A key
    that repeats raises DocumentError naming the entry that repeats it."""
    out: dict = {}
    for i, row in enumerate(entries(items, where, **expected)):
        key = row[0] if len(row) == 2 else tuple(row[:-1])
        if key in out:
            raise DocumentError(f"{where} {i} repeats an earlier entry")
        out[key] = row[-1]
    return out


# ---------------------------------------------------------------------------
# document writing
# ---------------------------------------------------------------------------
# Documents are json.dumps(payload, indent=2) + "\n", written from one
# %-template per kind of entry: json's indent encoder runs in pure Python.

@dataclass(frozen=True)
class JsonText:
    """JSON as indent=2 writes it at its place in a document: `template`
    with its %s slots filled by `values`, each already as %s prints it."""

    template: str
    values: tuple = ()

    @property
    def text(self) -> str:
        return self.template % self.values


def _texts(values):
    """Each of `values` in the form that %s prints as json's text for it:
    exact ints and finite floats as they are, JsonText as its text, the
    rest through json."""
    if set(map(type, values)) <= {int}:
        return values
    return [v.text if type(v) is JsonText else v if type(v) is int
            or type(v) is float and abs(v) <= sys.float_info.max
            else json.dumps(v) for v in values]


def _template(pad: str, keys) -> str:
    return "{" + ",".join(f'{pad}  "{k}": %s' for k in keys) + pad + "}"


def render(depth: int, rows: dict | Sequence, keys: str = "") -> JsonText:
    """What json.dumps(..., indent=2) writes for `rows` at nesting `depth`,
    and at depth 0 the newline that ends a document. A dict is an object;
    other `rows` are a list of objects with the fields `keys` names, one
    tuple of values per row, or without `keys` of the values themselves."""
    pad = "\n" + "  " * depth
    end = "" if depth else "\n"
    if type(rows) is dict:
        # An object takes in the templates of the JsonText it holds, so a
        # document is filled in by one % and each value copied once.
        held = [v if type(v) is JsonText else JsonText("%s", (*_texts([v]),))
                for v in rows.values()]
        slots = tuple(v.template for v in held)
        return JsonText(_template(pad, rows) % slots + end,
                        tuple(chain.from_iterable(v.values for v in held)))
    if not rows:
        return JsonText("[]" + end)
    item = _template(pad + "  ", keys.split()) if keys else "%s"
    values = [*chain.from_iterable(rows)] if keys else rows
    return JsonText(f"[{pad}  " + f",{pad}  ".join([item] * len(rows))
                    + f"{pad}]{end}", tuple(_texts(values)))


def flow_rows(by_flow: dict) -> list[tuple]:
    """The (src, dst, coflow, value) rows of `by_flow`, by coflow, src, dst."""
    return sorted([(*key, value) for key, value in by_flow.items()],
                  key=itemgetter(2, 0, 1))


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


def _instance_payload(subject: Instance | JobSet) -> dict:
    return {
        "cores": subject.config.num_cores,
        "ports": subject.config.num_ports,
        "coflows": render(1, [
            (c.id, c.release, c.weight, render(3, sorted(
                [(f.source, f.dest, f.size) for f in c.flows],
                key=itemgetter(0, 1)), "src dst size"))
            for c in subject.coflows], "id release weight flows"),
        "edges": render(1, [render(2, e) for e in sorted(subject.dag.edges)]),
    }


def instance_to_document(instance: Instance) -> str:
    return render(0, _instance_payload(instance)).text


def jobset_to_document(jobset: JobSet) -> str:
    payload = _instance_payload(jobset)
    payload["jobs"] = render(1, [
        (j.id, j.weight, render(3, j.coflows)) for j in jobset.jobs],
        "id weight coflows")
    return render(0, payload).text
