import copy
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coflow_forge import (
    Coflow,
    CycleError,
    DocumentError,
    Instance,
    NetworkConfig,
    PrecedenceDag,
    document_to_instance,
    document_to_jobset,
    instance_to_document,
    is_conforming,
    jobset_to_document,
    longest_path_chi,
    topological_order,
    validate_instance,
    validate_jobset,
)
from coflow_forge.generator import GeneratorParams, generate_instance
from coflow_forge.primal_dual import document_to_dual
from coflow_forge.simulator import document_to_schedule

from conftest import jobset_from_instance, mk_instance


# ---------------------------------------------------------------------------
# validate_instance
# ---------------------------------------------------------------------------

def test_validate_well_formed():
    inst = mk_instance(2, 4, [(1, 0, 1.5, [(1, 2, 3)]),
                              (2, 1, 2, [(2, 1, 1), (2, 2, 4)])],
                       edges=[(1, 2)])
    assert validate_instance(inst).ok


def test_validate_flags_zero_size_flow():
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 0)])])
    report = validate_instance(inst)
    assert not report.ok
    assert any("non-positive flow size" in v for v in report.violations)


def test_validate_flags_cycle():
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 1)]),
                              (2, 0, 1, [(2, 2, 1)])],
                       edges=[(1, 2), (2, 1)])
    report = validate_instance(inst)
    assert any("cycle detected" in v for v in report.violations)


def test_validate_flags_everything_else():
    coflows = (Coflow.make(1, 0, 0, [(1, 5, 2)]),
               Coflow.make(2, -1, 1, [(1, 1, 1), (1, 1, 2)]))
    inst = Instance(NetworkConfig(0, 2), coflows,
                    PrecedenceDag.make([1], [(1, 3)]))
    report = validate_instance(inst)
    text = " | ".join(report.violations)
    for needle in ("num_cores", "non-positive weight", "release",
                   "outside ports", "duplicate flow pair",
                   "dag nodes differ", "endpoint outside"):
        assert needle in text, needle


def test_validate_flags_times_past_int64():
    # No simulated time passes the latest release plus the total volume, so
    # that sum must stay below 2**63; it also bounds every port's load.
    limit = 2**63 - 1
    at_limit = mk_instance(1, 2, [(1, 0, 1, [(1, 1, limit - 5)]),
                                  (2, 0, 1, [(1, 2, 5)])])
    assert validate_instance(at_limit).ok
    assert validate_instance(
        mk_instance(1, 1, [(1, limit - 10, 1, [(1, 1, 10)])])).ok
    late = mk_instance(1, 1, [(1, 2**63 - 5, 1.0, [(1, 1, 10)])])
    assert validate_instance(late).violations == (
        f"latest release {2**63 - 5} plus total volume 10 exceeds the "
        f"64-bit limit {limit}",)
    spread = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 2**62)]),
                                (2, 3, 1, [(2, 2, 2**62)])])
    assert validate_instance(spread).violations == (
        f"latest release 3 plus total volume {2**63} exceeds the 64-bit "
        f"limit {limit}",)
    huge = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 10**23)])])
    assert validate_instance(huge).violations == (
        f"latest release 0 plus total volume {10**23} exceeds the 64-bit "
        f"limit {limit}",)


def test_validate_flags_id_past_int64():
    assert validate_instance(mk_instance(1, 1, [(-2**63, 0, 1, [])])).ok
    report = validate_instance(mk_instance(1, 1, [(2**63, 0, 1, [])]))
    assert report.violations == (f"coflow {2**63}: id exceeds the 64-bit "
                                 "range",)


def test_validate_flags_release_past_int64():
    assert validate_instance(mk_instance(1, 1, [(1, 2**63 - 1, 1, [])])).ok
    report = validate_instance(mk_instance(1, 1, [(1, 2**63, 1, [])]))
    assert report.violations == (
        f"coflow 1: release {2**63} exceeds the 64-bit limit {2**63 - 1}",)


@pytest.mark.parametrize("weight", [float("inf"), 10**400],
                         ids=["inf", "10**400"])
def test_validate_flags_weights_past_the_float_range(weight):
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, weight, [(1, 1, 3)])])
    assert validate_instance(inst).violations == (
        f"coflow 2: weight must be a finite number, got {weight!r}",)
    report = validate_jobset(jobset_from_instance(inst, 1))
    assert report.violations == (
        f"coflow 2: weight must be a finite number, got {weight!r}",
        f"job 2: weight must be a finite number, got {weight!r}")


def test_validate_jobset_flags_an_infinite_job_weight():
    js = jobset_from_instance(mk_instance(1, 1, [(1, 0, 1, [(1, 1, 2)])]))
    bad = dataclasses.replace(js, jobs=(dataclasses.replace(
        js.jobs[0], weight=float("inf")),))
    assert validate_jobset(bad).violations == (
        "job 1: weight must be a finite number, got inf",)


def test_validate_flags_duplicate_ids():
    coflows = (Coflow.make(1, 0, 1, [(1, 1, 1)]),
               Coflow.make(1, 0, 1, [(2, 2, 1)]))
    inst = Instance(NetworkConfig(1, 2), coflows, PrecedenceDag.make([1]))
    report = validate_instance(inst)
    assert any("duplicate coflow id" in v for v in report.violations)


def test_validate_jobset_catches_partition_and_releases():
    inst = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 1)]),
                              (2, 5, 1, [(2, 2, 1)])])
    js = jobset_from_instance(inst, group_size=2)
    assert validate_jobset(js).ok
    # splitting the same coflows across jobs with unequal releases must fail
    from coflow_forge import Job, JobSet
    bad = JobSet(inst.config, (Job(1, 1, (1, 2)),), inst.coflows, inst.dag)
    report = validate_jobset(bad)
    assert any("differing release" in v for v in report.violations)


# ---------------------------------------------------------------------------
# longest_path_chi
# ---------------------------------------------------------------------------

def test_chi_no_edges():
    assert longest_path_chi(PrecedenceDag.make([1, 2, 3, 4])) == 1


def test_chi_chain():
    assert longest_path_chi(PrecedenceDag.make([1, 2, 3],
                                               [(1, 2), (2, 3)])) == 3


def test_chi_diamond():
    dag = PrecedenceDag.make([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert longest_path_chi(dag) == 3


def test_chi_cycle_errors():
    with pytest.raises(CycleError):
        longest_path_chi(PrecedenceDag.make([1, 2], [(1, 2), (2, 1)]))


@pytest.mark.parametrize("seed", range(10))
def test_chi_bounds_random(seed):
    inst = generate_instance(GeneratorParams(n=12, num_ports=4, num_cores=2,
                                             deg=2, seed=seed))
    chi = longest_path_chi(inst.dag)
    assert 1 <= chi <= 12
    if not inst.dag.edges:
        assert chi == 1


def test_chi_full_chain_equals_n():
    n = 7
    dag = PrecedenceDag.make(range(1, n + 1),
                             [(k, k + 1) for k in range(1, n)])
    assert longest_path_chi(dag) == n


# ---------------------------------------------------------------------------
# topological_order
# ---------------------------------------------------------------------------

def test_topo_chain():
    assert topological_order(PrecedenceDag.make([1, 2, 3],
                                                [(1, 2), (2, 3)])) == [1, 2, 3]


def test_topo_tie_break_by_id():
    assert topological_order(PrecedenceDag.make([3, 1, 2])) == [1, 2, 3]


def test_topo_cycle_errors():
    with pytest.raises(CycleError):
        topological_order(PrecedenceDag.make([1, 2], [(1, 2), (2, 1)]))


@pytest.mark.parametrize("seed", range(10))
def test_topo_respects_edges(seed):
    inst = generate_instance(GeneratorParams(n=15, num_ports=4, num_cores=2,
                                             deg=3, seed=seed))
    order = topological_order(inst.dag)
    assert sorted(order) == sorted(inst.dag.nodes)
    pos = {k: i for i, k in enumerate(order)}
    for a, b in inst.dag.edges:
        assert pos[a] < pos[b]


# ---------------------------------------------------------------------------
# conformity
# ---------------------------------------------------------------------------

def test_is_conforming():
    good = mk_instance(1, 2, [(1, 0, 5, [(1, 1, 2)]),
                              (2, 0, 3, [(1, 1, 4), (2, 2, 1)])],
                       edges=[(1, 2)])
    assert is_conforming(good)
    bad_weight = mk_instance(1, 2, [(1, 0, 1, [(1, 1, 2)]),
                                    (2, 0, 3, [(1, 1, 4)])],
                             edges=[(1, 2)])
    assert not is_conforming(bad_weight)
    bad_load = mk_instance(1, 2, [(1, 0, 5, [(1, 1, 9)]),
                                  (2, 0, 3, [(1, 1, 4)])],
                           edges=[(1, 2)])
    assert not is_conforming(bad_load)


# ---------------------------------------------------------------------------
# instance documents
# ---------------------------------------------------------------------------

def test_document_round_trip():
    inst = mk_instance(2, 3, [(1, 0, 1, [(1, 2, 3), (3, 1, 1)]),
                              (2, 4, 2.5, [(2, 2, 7)])],
                       edges=[(1, 2)])
    text = instance_to_document(inst)
    back = document_to_instance(text)
    assert back == inst
    assert instance_to_document(back) == text


def test_document_rejects_unknown_fields():
    inst = mk_instance(1, 1, [(1, 0, 1, [(1, 1, 1)])])
    doc = json.loads(instance_to_document(inst))
    doc["surprise"] = 1
    with pytest.raises(DocumentError, match="surprise"):
        document_to_instance(json.dumps(doc))
    doc = json.loads(instance_to_document(inst))
    doc["coflows"][0]["flows"][0]["rate"] = 2
    with pytest.raises(DocumentError, match="rate"):
        document_to_instance(json.dumps(doc))


def test_document_missing_field():
    with pytest.raises(DocumentError, match="missing field 'ports'"):
        document_to_instance('{"cores": 1, "coflows": [], "edges": []}')


def test_document_names_the_first_bad_entry_of_a_list():
    # The list is checked a column at a time; the message still names the
    # entry, as the entry-by-entry check does.
    inst = mk_instance(1, 3, [(1, 0, 1, [(1, 1, 1), (2, 2, 1), (3, 3, 1)])])
    doc = json.loads(instance_to_document(inst))
    doc["coflows"][0]["flows"][1]["size"] = 1.0
    doc["coflows"][0]["flows"][2]["size"] = "x"
    with pytest.raises(DocumentError, match=r"^coflow 1 flow 1 size must be "
                                            r"an integer, got 1\.0$"):
        document_to_instance(json.dumps(doc))


def test_jobset_document_round_trip():
    inst = mk_instance(2, 3, [(1, 0, 1, [(1, 1, 2)]),
                              (2, 0, 2, [(2, 2, 1)]),
                              (3, 0, 1, [(3, 3, 4)])],
                       edges=[(1, 2)])
    js = jobset_from_instance(inst, group_size=2)
    text = jobset_to_document(js)
    back = document_to_jobset(text)
    assert back == js
    assert jobset_to_document(back) == text
    with pytest.raises(DocumentError, match="no 'jobs' field"):
        document_to_jobset(instance_to_document(inst))


# ---------------------------------------------------------------------------
# every reader on mutated golden documents
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _golden_documents() -> list:
    """The golden documents, parsed."""
    return [json.loads((GOLDEN / name).read_text())
            for name in ("instance.json", "jobset.json", "dual_flow.json",
                         "dual_coflow.json", "dual_job.json",
                         "schedule.json")]


def _paths(node, path=()):
    """The key path of `node` and of every value inside it."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


DOCUMENTS = _golden_documents()
PATHS = [list(_paths(doc)) for doc in DOCUMENTS]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
READERS = (document_to_instance, document_to_jobset, document_to_dual,
           document_to_schedule)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_readers_raise_only_document_error_on_mutated_documents(data):
    i = data.draw(st.integers(0, len(DOCUMENTS) - 1), label="document")
    doc = copy.deepcopy(DOCUMENTS[i])
    path = data.draw(st.sampled_from(PATHS[i]), label="path")
    if not path:
        doc = data.draw(JSON_VALUES, label="root")
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans(), label="drop"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES, label="value")
    text = json.dumps(doc)
    for read in READERS:
        try:
            read(text)
        except DocumentError:
            pass
