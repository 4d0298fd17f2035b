"""Shared builders for test instances and job sets."""
from __future__ import annotations

import pytest

from coflow_forge import (
    Coflow,
    Instance,
    Job,
    JobSet,
    NetworkConfig,
    PrecedenceDag,
)


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


@pytest.fixture
def two_coflow_instance():
    """The 1-port, 1-core pair used throughout the ordering examples."""
    return mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, 2, [(1, 1, 1)])])
