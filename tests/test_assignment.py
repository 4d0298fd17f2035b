import numpy as np
import pytest

from coflow_forge import Permutation, validate_instance
from coflow_forge.assignment import (
    assign_coflows_cdls,
    assign_flows_fdls,
    assignment_to_payload,
)
from coflow_forge.generator import GeneratorParams, generate_instance

from conftest import mk_instance


def _shared_pair_instance(sizes, m):
    # Multiple flows on the same (1, 1) pair, one per coflow.
    coflows = [(k, 0, 1, [(1, 1, s)]) for k, s in enumerate(sizes, start=1)]
    return mk_instance(m, 2, coflows)


def test_fdls_two_flows_split_cores():
    # Sizes 5 and 3 sharing input port 1 with two cores: greedy splits them.
    inst = mk_instance(2, 2, [(1, 0, 1, [(1, 1, 5), (1, 2, 3)])])
    asg = assign_flows_fdls(inst, Permutation((1,)))
    assert asg.flow_to_core[(1, 1, 1)] == 1
    assert asg.flow_to_core[(1, 2, 1)] == 2
    assert asg.load_in[0].tolist() == [5, 3]


def test_fdls_disjoint_ports_single_core():
    inst = mk_instance(1, 4, [(1, 0, 1, [(1, 2, 3), (3, 4, 9)])])
    asg = assign_flows_fdls(inst, Permutation((1,)))
    assert set(asg.flow_to_core.values()) == {1}


def test_fdls_greedy_arithmetic_three_flows():
    # Same (i, j) across three coflows, sizes 5, 3, 2 on two cores:
    # after placing 5 on core 1 and 3 on core 2, loads are 10 vs 6, so the
    # size-2 flow also lands on core 2.
    inst = _shared_pair_instance([5, 3, 2], m=2)
    asg = assign_flows_fdls(inst, Permutation((1, 2, 3)))
    assert asg.flow_to_core[(1, 1, 1)] == 1
    assert asg.flow_to_core[(1, 1, 2)] == 2
    assert asg.flow_to_core[(1, 1, 3)] == 2
    assert asg.load_in[0].tolist() == [5, 5]


def test_fdls_orders_flows_within_coflow_by_size():
    inst = mk_instance(2, 3, [(1, 0, 1, [(1, 2, 1), (1, 3, 9)])])
    asg = assign_flows_fdls(inst, Permutation((1,)))
    # The size-9 flow is placed first and takes core 1.
    assert asg.flow_to_core[(1, 3, 1)] == 1
    assert asg.flow_to_core[(1, 2, 1)] == 2


def test_cdls_single_coflow_tie_breaks_to_core_one():
    inst = mk_instance(3, 2, [(1, 0, 1, [(1, 1, 4)])])
    asg = assign_coflows_cdls(inst, Permutation((1,)))
    assert asg.coflow_to_core == {1: 1}


def test_cdls_two_identical_coflows_alternate():
    inst = mk_instance(2, 2, [(1, 0, 1, [(1, 1, 4)]),
                              (2, 0, 1, [(1, 1, 4)])])
    asg = assign_coflows_cdls(inst, Permutation((1, 2)))
    assert asg.coflow_to_core == {1: 1, 2: 2}


def test_cdls_congestion_argmin():
    # Coflow 1 preloads core 1 (in-port 1, out-port 5, size 4). Coflow 2
    # loads 10 units through (1 -> 2): core 1 scores 14 + 10, core 2 scores
    # 10 + 10, so it takes core 2.
    inst = mk_instance(2, 5, [(1, 0, 1, [(1, 5, 4)]),
                              (2, 0, 1, [(1, 2, 10)])])
    asg = assign_coflows_cdls(inst, Permutation((1, 2)))
    assert asg.coflow_to_core == {1: 1, 2: 2}


def test_fdls_scores_do_not_wrap_past_int64():
    # Core 1 carries 2**62 + 1 on in-port 1 and on out-port 1, so the
    # second (1 -> 1) flow scores 2**63 + 2 there, past int64, and 0 on
    # core 2.
    big = 2**62 + 1
    inst = mk_instance(2, 1, [(1, 0, 1, [(1, 1, big)]),
                              (2, 0, 1, [(1, 1, 1)])])
    assert validate_instance(inst).ok
    asg = assign_flows_fdls(inst, Permutation((1, 2)))
    assert asg.flow_to_core == {(1, 1, 1): 1, (1, 1, 2): 2}


def test_cdls_scores_do_not_wrap_past_int64():
    # The second coflow would score 2 * (2**63 - 2) on core 1, past int64,
    # against 2**63 - 2 on core 2.
    big = 2**62 - 1
    inst = mk_instance(2, 1, [(1, 0, 1, [(1, 1, big)]),
                              (2, 0, 1, [(1, 1, big)])])
    assert validate_instance(inst).ok
    asg = assign_coflows_cdls(inst, Permutation((1, 2)))
    assert asg.coflow_to_core == {1: 1, 2: 2}


def test_cdls_keeps_coflow_together():
    for seed in range(5):
        inst = generate_instance(GeneratorParams(n=8, num_ports=5,
                                                 num_cores=3, seed=seed))
        perm = Permutation(tuple(sorted(c.id for c in inst.coflows)))
        asg = assign_coflows_cdls(inst, perm)
        for c in inst.coflows:
            for f in c.flows:
                assert asg.flow_to_core[(f.source, f.dest, c.id)] \
                    == asg.coflow_to_core[c.id]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("assigner", [assign_flows_fdls, assign_coflows_cdls])
def test_load_conservation(assigner, seed):
    inst = generate_instance(GeneratorParams(n=7, num_ports=5, num_cores=3,
                                             seed=seed))
    perm = Permutation(tuple(sorted(c.id for c in inst.coflows)))
    asg = assigner(inst, perm)
    total_in = np.zeros(5, dtype=np.int64)
    total_out = np.zeros(5, dtype=np.int64)
    for c in inst.coflows:
        for f in c.flows:
            total_in[f.source - 1] += f.size
            total_out[f.dest - 1] += f.size
    assert (asg.load_in.sum(axis=1) == total_in).all()
    assert (asg.load_out.sum(axis=1) == total_out).all()
    assert set(asg.flow_to_core) == {(f.source, f.dest, c.id)
                                     for c in inst.coflows for f in c.flows}


def test_balance_equal_flows_one_pair():
    # q*m equal flows on one (i, j): each core ends up with exactly q.
    q, m = 3, 2
    inst = _shared_pair_instance([4] * (q * m), m=m)
    asg = assign_flows_fdls(inst, Permutation(tuple(range(1, q * m + 1))))
    per_core = np.bincount([h - 1 for h in asg.flow_to_core.values()],
                           minlength=m)
    assert per_core.tolist() == [q] * m


def test_fdls_assignment_is_deterministic():
    inst = generate_instance(GeneratorParams(n=6, num_ports=4, num_cores=2,
                                             seed=11))
    perm = Permutation(tuple(sorted(c.id for c in inst.coflows)))
    a1 = assign_flows_fdls(inst, perm)
    a2 = assign_flows_fdls(inst, perm)
    assert a1.flow_to_core == a2.flow_to_core
    assert assignment_to_payload(a1) == assignment_to_payload(a2)
