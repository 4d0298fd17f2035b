"""Shared builders for test instances and job sets."""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import strategies as st

from coflow_forge import (
    Coflow,
    Instance,
    Job,
    JobSet,
    NetworkConfig,
    PrecedenceDag,
)
from coflow_forge.generator import DENSITY_MODES, GeneratorParams

# The generator's parameter space, as the property tests draw it.
PARAMS = st.builds(
    GeneratorParams,
    n=st.integers(1, 12), num_ports=st.integers(1, 6),
    num_cores=st.integers(1, 4), deg=st.integers(0, 3),
    p=st.sampled_from([0.5, 1.0, 2.0]),
    density_mode=st.sampled_from(DENSITY_MODES),
    seed=st.integers(0, 2**16), release_horizon=st.integers(0, 30),
    conforming=st.booleans())


def mk_instance(cores, ports, coflows, edges=()):
    """coflows: iterable of (id, release, weight, [(src, dst, size), ...])."""
    built = tuple(Coflow.make(cid, rel, w, flows)
                  for cid, rel, w, flows in coflows)
    return Instance(NetworkConfig(cores, ports), built,
                    PrecedenceDag.make((c.id for c in built), edges))


def jobset_from_instance(instance, group_size=3):
    """Deterministic partition of coflows into jobs of `group_size` by id."""
    ids = sorted(c.id for c in instance.coflows)
    rank = {k: i for i, k in enumerate(ids)}
    return jobset_grouped(instance, lambda k: rank[k] // group_size + 1)


def jobset_grouped(instance, job_of):
    """The job set whose job `job_of(k)` holds coflow k: jobs in id order,
    each listing its coflows in ascending id order.

    Release times are harmonized to the job maximum and edges between jobs
    are dropped, so the result is always a valid job set.
    """
    ids = sorted(c.id for c in instance.coflows)
    by_id = instance.coflow_by_id()
    groups = {}
    for k in ids:
        groups.setdefault(job_of(k), []).append(k)
    jobs = []
    coflows = []
    for job_id, group in sorted(groups.items()):
        release = max(by_id[k].release for k in group)
        weight = sum(by_id[k].weight for k in group)
        jobs.append(Job(job_id, weight, tuple(group)))
        for k in group:
            c = by_id[k]
            coflows.append(Coflow.make(k, release, c.weight,
                                       [(f.source, f.dest, f.size)
                                        for f in c.flows]))
    edges = [(a, b) for a, b in instance.dag.edges if job_of(a) == job_of(b)]
    return JobSet(instance.config, tuple(jobs), tuple(coflows),
                  PrecedenceDag.make(ids, edges))


# The fields `with_field` can replace: a coflow's, a flow's, the network's,
# an edge's (its pred or succ endpoint) and a job's.
COFLOW_FIELDS = ("id", "release", "weight")
FLOW_FIELDS = ("source", "dest", "size")
CONFIG_FIELDS = ("num_cores", "num_ports")
EDGE_FIELDS = ("pred", "succ")
JOB_FIELDS = ("job id", "job weight", "job member")
FIELDS = COFLOW_FIELDS + FLOW_FIELDS + CONFIG_FIELDS + EDGE_FIELDS \
    + JOB_FIELDS


def with_field(subject, field, value, i=0):
    """`subject` with `field` of its i-th coflow, flow, edge (in sorted
    order) or job, or of its network, replaced by `value`; None when it
    has no such entry. Nothing else changes: a replaced coflow id is not
    carried into the DAG or the jobs."""
    if field in CONFIG_FIELDS:
        return replace(subject, config=replace(subject.config,
                                               **{field: value}))
    if field in JOB_FIELDS:
        if not getattr(subject, "jobs", ()):
            return None
        jobs = list(subject.jobs)
        job = jobs[i % len(jobs)]
        if field == "job member":
            job = replace(job, coflows=(value, *job.coflows[1:]))
        else:
            job = replace(job, **{field[4:]: value})
        jobs[i % len(jobs)] = job
        return replace(subject, jobs=tuple(jobs))
    if field in EDGE_FIELDS:
        name = "intra_job_dag" if isinstance(subject, JobSet) else "dag"
        dag = getattr(subject, name)
        edges = sorted(dag.edges)
        if not edges:
            return None
        a, b = edges.pop(i % len(edges))
        edges.append((value, b) if field == "pred" else (a, value))
        return replace(subject, **{name: PrecedenceDag(dag.nodes,
                                                       frozenset(edges))})
    coflows = list(subject.coflows)
    if field in COFLOW_FIELDS:
        if not coflows:
            return None
        j = i % len(coflows)
        coflows[j] = replace(coflows[j], **{field: value})
    else:
        places = [(j, k) for j, c in enumerate(coflows)
                  for k in range(len(c.flows))]
        if not places:
            return None
        j, k = places[i % len(places)]
        flows = list(coflows[j].flows)
        flows[k] = replace(flows[k], **{field: value})
        coflows[j] = replace(coflows[j], flows=tuple(flows))
    return replace(subject, coflows=tuple(coflows))


@pytest.fixture
def two_coflow_instance():
    """The 1-port, 1-core pair used throughout the ordering examples."""
    return mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, 2, [(1, 1, 1)])])
