import re

import pytest

from coflow_forge import InvalidInstanceError, validate_instance
from coflow_forge.metrics_report import evaluate
from coflow_forge.trace_io import (
    TraceCoflow,
    TraceError,
    filter_by_min_flows,
    format_trace,
    parse_trace,
    to_instance,
)

from conftest import mk_instance

SAMPLE = """3 2
1 100 2 1 2 2 3:100 2:200
2 50 1 3 1 1:101
"""


def test_parse_header_and_records():
    ports, coflows = parse_trace(SAMPLE)
    assert ports == 3
    assert coflows[0] == TraceCoflow(1, 100, (1, 2), ((3, 100), (2, 200)))
    assert coflows[1] == TraceCoflow(2, 50, (3,), ((1, 101),))


def test_parse_count_mismatch():
    with pytest.raises(TraceError, match="line 2"):
        parse_trace("3 1\n1 100 2 1 2 9:100\n")


def test_parse_declared_total_mismatch():
    with pytest.raises(TraceError, match="declares 5"):
        parse_trace("3 5\n1 100 1 1 1 2:10\n")


def test_parse_bad_reducer_format():
    with pytest.raises(TraceError, match="line 2.*rack:size"):
        parse_trace("3 1\n1 100 1 1 1 2-10\n")


def test_parse_rack_out_of_range():
    with pytest.raises(TraceError, match="line 2.*outside 1..3"):
        parse_trace("3 1\n1 100 1 9 1 2:10\n")


def test_parse_missing_header():
    with pytest.raises(TraceError, match="line 1"):
        parse_trace("")


@pytest.mark.parametrize("text, message", [
    ("3\n", "line 1: header must be 'ports coflows'"),
    ("3 x\n", "line 1: non-integer header: invalid literal"),
    ("3 1\n1 0 2 1\n", "line 2: expected 2 mappers, got 1"),
    ("3 1\n1 0 1 1 2 2:10\n", "line 2: expected 2 reducers, got 1"),
    ("3 1\n1 0 1 1\n", "line 2: malformed record: list index out of range"),
    ("3 1\n1 0 1 1 1 4:10\n", "line 2: reducer rack 4 outside 1..3"),
    ("3 1\n1 0 1 1 1 2:0\n", "line 2: non-positive reducer size 0")],
    ids=["header width", "header value", "mapper count", "reducer count",
         "short record", "reducer rack", "reducer size"])
def test_parse_rejects_each_malformed_part(text, message):
    with pytest.raises(TraceError, match="^" + re.escape(message)):
        parse_trace(text)


def test_parse_skips_blank_lines():
    assert parse_trace("3 1\n\n1 0 1 1 1 2:10\n  \n") == (
        3, [TraceCoflow(1, 0, (1,), ((2, 10),))])


def test_round_trip():
    ports, coflows = parse_trace(SAMPLE)
    assert format_trace(ports, coflows) == SAMPLE
    again = parse_trace(format_trace(ports, coflows))
    assert again == (ports, coflows)


def test_to_instance_even_split():
    ports, coflows = parse_trace("4 1\n1 0 2 1 2 1 3:100\n")
    inst = to_instance(ports, coflows)
    flows = {(f.source, f.dest): f.size for f in inst.coflows[0].flows}
    assert flows == {(1, 3): 50, (2, 3): 50}


def test_to_instance_ceil_split():
    ports, coflows = parse_trace("4 1\n1 0 2 1 2 1 3:101\n")
    inst = to_instance(ports, coflows)
    sizes = [f.size for f in inst.coflows[0].flows]
    assert sizes == [51, 51]


def test_to_instance_share_is_exact_past_float_precision():
    # ceil((2**60 + 1) / 3) in floats reads 384307168202282304.
    ports, coflows = parse_trace(f"4 1\n1 0 3 1 2 3 1 4:{2**60 + 1}\n")
    inst = to_instance(ports, coflows)
    sizes = [f.size for f in inst.coflows[0].flows]
    assert sizes == [384307168202282326] * 3


def test_to_instance_merges_duplicate_pairs():
    # Two reducers on the same rack fold into one flow per mapper.
    ports, coflows = parse_trace("4 1\n1 0 1 2 2 3:10 3:6\n")
    inst = to_instance(ports, coflows)
    flows = {(f.source, f.dest): f.size for f in inst.coflows[0].flows}
    assert flows == {(2, 3): 16}
    assert validate_instance(inst).ok


def test_to_instance_modes():
    ports, coflows = parse_trace(SAMPLE)
    zero = to_instance(ports, coflows, release_mode="zero")
    assert all(c.release == 0 for c in zero.coflows)
    arr = to_instance(ports, coflows, release_mode="arrival")
    assert [c.release for c in arr.coflows] == [100, 50]
    unit = to_instance(ports, coflows, weight_mode="unit")
    assert all(c.weight == 1 for c in unit.coflows)
    uni = to_instance(ports, coflows, weight_mode="uniform", seed=7)
    assert to_instance(ports, coflows, weight_mode="uniform", seed=7) == uni
    assert all(1 <= c.weight <= 100 for c in uni.coflows)


@pytest.mark.parametrize("mode, message", [
    ({"weight_mode": "heavy"}, "unknown weight mode 'heavy'"),
    ({"release_mode": "late"}, "unknown release mode 'late'")])
def test_to_instance_rejects_unknown_modes(mode, message):
    ports, coflows = parse_trace(SAMPLE)
    with pytest.raises(ValueError, match=f"^{message}$"):
        to_instance(ports, coflows, **mode)


def test_to_instance_conserves_volume():
    ports, coflows = parse_trace(SAMPLE)
    inst = to_instance(ports, coflows)
    import math
    want = sum(len(c.mappers) * math.ceil(size / len(c.mappers))
               for c in coflows for _, size in c.reducers)
    got = sum(f.size for c in inst.coflows for f in c.flows)
    assert got == want


def test_to_instance_rack_out_of_range():
    # parse_trace owns the rack range of trace text; a record built in
    # Python still becomes an instance, which validate_instance judges.
    inst = to_instance(3, [TraceCoflow(1, 0, (9,), ((1, 10),))])
    assert validate_instance(inst).violations == (
        "coflow 1: flow (9,1) outside ports 1..3",)
    with pytest.raises(InvalidInstanceError, match=r"flow \(9,1\) outside"):
        evaluate(inst, "fdls")


def test_filter_threshold_one_keeps_everything():
    inst = mk_instance(1, 4, [(1, 0, 1, [(1, 1, 1), (2, 2, 1)]),
                              (2, 0, 1, [(3, 3, 1)])],
                       edges=[(1, 2)])
    assert filter_by_min_flows(inst, 1) == inst


def test_filter_drops_small_coflows_and_edges():
    inst = mk_instance(1, 4, [(1, 0, 1, [(1, 1, 1), (2, 2, 1)]),
                              (2, 0, 1, [(3, 3, 1)])],
                       edges=[(1, 2)])
    kept = filter_by_min_flows(inst, 2)
    assert [c.id for c in kept.coflows] == [1]
    assert not kept.dag.edges
    assert filter_by_min_flows(inst, 99).coflows == ()


def test_filter_idempotent_and_monotone():
    inst = mk_instance(1, 4, [(1, 0, 1, [(1, 1, 1), (2, 2, 1)]),
                              (2, 0, 1, [(3, 3, 1)])])
    once = filter_by_min_flows(inst, 2)
    assert filter_by_min_flows(once, 2) == once
    low = {c.id for c in filter_by_min_flows(inst, 1).coflows}
    high = {c.id for c in filter_by_min_flows(inst, 2).coflows}
    assert high <= low
    with pytest.raises(ValueError):
        filter_by_min_flows(inst, -1)
