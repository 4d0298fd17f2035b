import hashlib
import json
import os
from pathlib import Path

import pytest

from coflow_forge import (
    document_to_instance,
    instance_to_document,
    jobset_to_document,
    validate_instance,
)
from coflow_forge.cli import main
from coflow_forge.metrics_report import parse_report

from conftest import jobset_from_instance, mk_instance

TRACE = """3 2
1 100 2 1 2 2 3:100 2:200
2 50 1 3 1 1:101
"""


def _generate(tmp_path, name="inst.json", extra=()):
    path = tmp_path / name
    code = main(["generate", "--n", "12", "--cores", "3", "--ports", "6",
                 "--deg", "2", "--p", "1.0", "--seed", "7",
                 "-o", str(path), *extra])
    assert code == 0
    return path


def test_generate_writes_valid_instance(tmp_path):
    path = _generate(tmp_path)
    inst = document_to_instance(path.read_text())
    assert validate_instance(inst).ok
    assert len(inst.coflows) == 12
    assert inst.config.num_cores == 3 and inst.config.num_ports == 6


def test_generate_reproducible_bytes(tmp_path):
    a = _generate(tmp_path, "a.json")
    b = _generate(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_order_emits_permutation_and_dual(tmp_path):
    inst = _generate(tmp_path)
    out = tmp_path / "perm.json"
    dual = tmp_path / "dual.json"
    code = main(["order", str(inst), "--alg", "fdls", "--kappa", "0.5",
                 "-o", str(out), "--emit-dual", str(dual)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert sorted(payload["order"]) == list(range(1, 13))
    dual_doc = json.loads(dual.read_text())
    assert dual_doc["kind"] == "flow-level"
    assert dual_doc["beta"]


def test_schedule_document(tmp_path):
    inst = _generate(tmp_path)
    out = tmp_path / "sched.json"
    assert main(["schedule", str(inst), "--alg", "cdls", "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["algorithm"] == "cdls"
    assert payload["assignment"]["kind"] == "coflow-level"
    assert payload["schedule"]["coflows"]


def test_eval_reports_ratios_at_least_one(tmp_path):
    inst = _generate(tmp_path)
    out = tmp_path / "report.csv"
    code = main(["eval", str(inst), "--alg", "fdls,cdls", "-o", str(out)])
    assert code == 0
    report = parse_report(out.read_text())
    assert {r.algorithm for r in report.records} == {"fdls", "cdls"}
    assert all(r.ratio >= 1.0 - 1e-9 for r in report.records)
    assert all(r.ms == 0.0 for r in report.records)


def test_eval_byte_reproducible(tmp_path):
    inst = _generate(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eval", str(inst), "--alg", "fdls", "-o", str(a)]) == 0
    assert main(["eval", str(inst), "--alg", "fdls", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ingest_with_threshold(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(TRACE)
    out = tmp_path / "real.json"
    code = main(["ingest", str(trace), "--cores", "2", "--min-flows", "2",
                 "-o", str(out)])
    assert code == 0
    inst = document_to_instance(out.read_text())
    assert [c.id for c in inst.coflows] == [1]
    assert inst.config.num_cores == 2


def test_ingest_malformed_trace_exits_1(tmp_path, capsys):
    trace = tmp_path / "bad.txt"
    trace.write_text("3 1\n1 100 2 1 2 9:100\n")
    code = main(["ingest", str(trace), "-o", str(tmp_path / "x.json")])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("records, message", [
    ("1 -5 1 1 1 2:100\n2 0 1 2 1 3:10\n",
     "coflow 1: release must be a non-negative integer, got -5"),
    ("1 0 1 1 1 2:100\n1 0 1 2 1 3:10\n", "duplicate coflow id 1")])
def test_ingest_rejects_what_eval_would_reject(tmp_path, capsys, records,
                                               message):
    trace = tmp_path / "trace.txt"
    trace.write_text("3 2\n" + records)
    out = tmp_path / "out.json"
    assert main(["ingest", str(trace), "--release-mode", "arrival",
                 "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"coflow-forge: error: {trace}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["inf", "-inf", "nan", "0", "-1"])
def test_non_finite_or_non_positive_kappa_exits_1_with_one_line(
        tmp_path, capsys, kappa):
    inst = _generate(tmp_path)
    dual = tmp_path / "dual.json"
    for argv in (["order", str(inst), "--emit-dual", str(dual)],
                 ["schedule", str(inst)], ["eval", str(inst)]):
        capsys.readouterr()
        assert main([*argv, f"--kappa={kappa}", "-o", str(tmp_path / "out")
                     ]) == 1
        assert capsys.readouterr().err == (
            "coflow-forge: error: kappa must be positive and finite, got "
            f"{float(kappa)}\n")
        assert not dual.exists()


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["order", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "5"])  # missing required flags
    assert exc.value.code == 2


def test_invalid_instance_data_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"cores": 1, "ports": 1, "coflows": '
                    '[{"id": 1, "release": 0, "weight": -3, "flows": []}], '
                    '"edges": []}')
    assert main(["order", str(path)]) == 1
    assert "weight" in capsys.readouterr().err


# Each case is (key path, bad value, document is a jobset). None of them
# may exit through a traceback.
MALFORMED = {
    "string weight": (("coflows", 0, "weight"), "x", False),
    "coflows not a list": (("coflows",), 5, False),
    "edge not a pair": (("edges",), [5], False),
    "jobs not a list": (("jobs",), 5, True),
    "job coflows not a list": (("jobs", 0, "coflows"), 5, True),
    "bool release": (("coflows", 0, "release"), True, False),
    "bool flow size": (("coflows", 0, "flows", 0, "size"), True, False),
    "infinite weight": (("coflows", 0, "weight"), float("inf"), False),
    "flow size past int64": (("coflows", 0, "flows", 0, "size"), 10**23,
                             False),
    "job flow size past int64": (("coflows", 0, "flows", 0, "size"), 10**23,
                                 True),
    "release past int64": (("coflows", 0, "release"), 2**63, False),
    "huge core count": (("cores",), 10**15, False),
    "huge port count": (("ports",), 10**15, False),
}


@pytest.mark.parametrize("command", ["eval", "order"])
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_document_exits_1_with_one_line(tmp_path, capsys, command,
                                                  case):
    path, value, jobs = MALFORMED[case]
    inst = document_to_instance(_generate(tmp_path).read_text())
    doc = json.loads(jobset_to_document(jobset_from_instance(inst)) if jobs
                     else instance_to_document(inst))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([command, str(bad), "--alg", "jobs" if jobs else "fdls",
                 "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("coflow-forge: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "order"])
@pytest.mark.parametrize("coflow, needle", [
    ((1, 2**63 - 5, 1.0, [(1, 1, 10)]), "plus total volume 10 exceeds"),
    ((2**63, 0, 1.0, [(1, 1, 10)]), "id exceeds the 64-bit range")])
def test_numbers_past_int64_exit_1_with_one_line(tmp_path, capsys, command,
                                                 coflow, needle):
    # Schedules are audited as int64 columns, so no id may pass 64 bits and
    # the latest release plus the total volume, which bounds every
    # simulated time, must stay below 2**63.
    path = tmp_path / "past.json"
    path.write_text(instance_to_document(mk_instance(1, 1, [coflow])))
    capsys.readouterr()
    assert main([command, str(path), "--alg", "fdls",
                 "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err


def test_bench_sweep(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--seeds", "0:3", "--vary", "n", "--values",
                 "4,6", "--ports", "5", "--cores", "2", "--alg", "fdls",
                 "-o", str(out)])
    assert code == 0
    report = parse_report(out.read_text())
    assert len(report.records) == 6
    assert {r.instance_id for r in report.records} == {"n=4", "n=6"}


def test_bench_threshold_sweep_over_trace(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text(TRACE)
    out = tmp_path / "thr.csv"
    code = main(["bench", "--seeds", "0:2", "--vary", "threshold",
                 "--values", "1,2", "--trace", str(trace), "--cores", "2",
                 "--alg", "fdls", "-o", str(out)])
    assert code == 0
    report = parse_report(out.read_text())
    by_tag = {}
    for r in report.records:
        by_tag.setdefault(r.instance_id, set()).add(r.n)
    # threshold 2 keeps only the 2-flow coflow
    assert by_tag["threshold=1"] == {2}
    assert by_tag["threshold=2"] == {1}


def test_bench_vary_requires_values(tmp_path, capsys):
    assert main(["bench", "--seeds", "0:1", "--vary", "n"]) == 1
    assert "--values" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "0:1", "--vary", "m", "--values", ""], "--values '' has"),
    (["--seeds", "0:1", "--vary", "m", "--values", "2,"], "--values '2,' has"),
    (["--seeds", "5:2"], "--seeds 5:2 selects no seed")],
    ids=["empty-values", "trailing-comma", "empty-seed-range"])
def test_bench_with_nothing_to_run_exits_1_with_one_line(tmp_path, capsys,
                                                         flags, message):
    out = tmp_path / "out.csv"
    code = main(["bench", *flags, "--alg", "fdls", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.count("\n") == 1 and err.startswith("coflow-forge: error: ")
    assert message in err


@pytest.mark.parametrize("vary, trace", [
    ("threshold", False), ("n", True), ("p", True)])
def test_bench_rejects_an_axis_that_does_not_apply(tmp_path, capsys, vary,
                                                   trace):
    path = tmp_path / "trace.txt"
    path.write_text(TRACE)
    out = tmp_path / "out.csv"
    code = main(["bench", "--seeds", "0:1", "--vary", vary, "--values", "1,50",
                 "--alg", "fdls", "-o", str(out),
                 *(["--trace", str(path)] if trace else [])])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.count("\n") == 1 and f"--vary {vary}" in err


@pytest.mark.parametrize("flag", [
    ["--n", "99"], ["--ports", "7"], ["--deg", "0"], ["--p", "2"],
    ["--density", "sparse"], ["--conforming"]])
def test_bench_rejects_generator_flags_with_a_trace(tmp_path, capsys, flag):
    path = tmp_path / "trace.txt"
    path.write_text(TRACE)
    out = tmp_path / "out.csv"
    code = main(["bench", "--seeds", "0:1", "--trace", str(path),
                 "--alg", "fdls", "-o", str(out), *flag])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists()
    assert err.count("\n") == 1 and f"{flag[0]} cannot be used" in err


@pytest.mark.parametrize("command", ["generate", "ingest", "bench-trace"])
def test_core_count_past_the_limit_exits_1_with_one_line(tmp_path, capsys,
                                                          command):
    trace = tmp_path / "trace.txt"
    trace.write_text(TRACE)
    out = tmp_path / "out.json"
    argv = {"generate": ["generate", "--n", "3", "--ports", "2", "--seed",
                         "0"],
            "ingest": ["ingest", str(trace)],
            "bench-trace": ["bench", "--seeds", "0:1", "--trace", str(trace)],
            }[command]
    assert main([*argv, "--cores", "5000", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert not out.exists()
    assert err == ("coflow-forge: error: num_cores must be an integer in "
                   "1..4096, got 5000\n")


def test_port_count_past_the_limit_exits_1_with_one_line(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text("5000 1\n1 0 1 1 1 5000:10\n")
    out = tmp_path / "out.json"
    for argv in (["generate", "--n", "3", "--cores", "1", "--ports", "5000",
                  "--seed", "0"], ["ingest", str(trace)]):
        capsys.readouterr()
        assert main([*argv, "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "coflow-forge: error: num_ports must be an integer in 1..4096, "
            "got 5000\n")
        assert not out.exists()


def test_unwritable_output_exits_1_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing"
    inst = _generate(tmp_path)
    for argv in (["generate", "--n", "3", "--cores", "1", "--ports", "2",
                  "--seed", "0", "-o", str(missing / "x.json")],
                 ["order", str(inst), "-o", str(tmp_path / "perm.json"),
                  "--emit-dual", str(missing / "d.json")]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"coflow-forge: error: cannot write {missing}")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_bench_byte_reproducible(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["bench", "--seeds", "0:4", "--ports", "5", "--cores",
                     "2", "--n", "6", "--alg", "fdls,cdls",
                     "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_jobs_pipeline_via_documents(tmp_path):
    # build a jobs document from a generated instance
    from coflow_forge import jobset_to_document
    from conftest import jobset_from_instance
    inst_path = _generate(tmp_path)
    inst = document_to_instance(inst_path.read_text())
    js = jobset_from_instance(inst)
    jobs_path = tmp_path / "jobs.json"
    jobs_path.write_text(jobset_to_document(js))
    out = tmp_path / "job-sched.json"
    assert main(["schedule", str(jobs_path), "--alg", "jobs",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schedule"]["jobs"]
    csv_out = tmp_path / "jobs.csv"
    assert main(["eval", str(jobs_path), "--alg", "jobs",
                 "-o", str(csv_out)]) == 0
    rec, = parse_report(csv_out.read_text()).records
    assert rec.ratio >= 1.0 - 1e-9


def test_eval_flowless_instance_has_ratio_one(tmp_path):
    # No flows and no releases: cost and dual bound are both 0.
    inst = mk_instance(2, 3, [(1, 0, 4, []), (2, 0, 1, [])], edges=[(1, 2)])
    docs = {"fdls": instance_to_document(inst),
            "cdls": instance_to_document(inst),
            "jobs": jobset_to_document(jobset_from_instance(inst))}
    for alg, text in docs.items():
        path = tmp_path / f"{alg}.json"
        path.write_text(text)
        out = tmp_path / f"{alg}.csv"
        assert main(["eval", str(path), "--alg", alg, "-o", str(out)]) == 0
        rec, = parse_report(out.read_text()).records
        assert (rec.twc, rec.dual, rec.ratio) == (0.0, 0.0, 1.0)


def test_eval_report_keeps_a_file_name_with_a_comma(tmp_path):
    path = _generate(tmp_path, name="a,b.json")
    out = tmp_path / "report.csv"
    assert main(["eval", str(path), "--alg", "fdls,cdls", "-o", str(out)]) == 0
    records = parse_report(out.read_text()).records
    assert [(r.instance_id, r.algorithm) for r in records] == [
        ("a,b.json", "cdls"), ("a,b.json", "fdls")]


@pytest.mark.parametrize("alg, extra", [("fdls,cdls", {}),
                                        ("jobs", {"jobs": []})])
def test_eval_without_coflows_exits_1_with_one_line(tmp_path, capsys, alg,
                                                     extra):
    # Schedulable, but an empty subject has no weight ratio R.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"cores": 1, "ports": 1, "coflows": [],
                                "edges": [], **extra}))
    assert main(["eval", str(path), "--alg", alg]) == 1
    assert capsys.readouterr().err == (
        "coflow-forge: error: empty instance has no weight ratio\n")
    for one in alg.split(","):
        assert main(["schedule", str(path), "--alg", one,
                     "-o", str(tmp_path / "schedule.json")]) == 0


# ---------------------------------------------------------------------------
# pinned CLI outputs: order, schedule and eval files stay byte-exact
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _cli_outputs(tmp_path):
    runs = {}
    for alg, doc in (("fdls", "instance.json"), ("cdls", "instance.json"),
                     ("jobs", "jobset.json")):
        runs[f"order-{alg}"] = ["order", GOLDEN / doc, "--alg", alg,
                                "--emit-dual", tmp_path / f"dual-{alg}"]
        runs[f"schedule-{alg}"] = ["schedule", GOLDEN / doc, "--alg", alg]
    runs["eval-fdls,cdls"] = ["eval", GOLDEN / "instance.json",
                              "--alg", "fdls,cdls"]
    runs["eval-jobs"] = ["eval", GOLDEN / "jobset.json", "--alg", "jobs"]
    for name, argv in runs.items():
        assert main([*map(str, argv), "-o", str(tmp_path / name)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(tmp_path.iterdir())}


PINNED_CLI_OUTPUTS = {
    "dual-cdls": "7f2d73912b229328",
    "dual-fdls": "c6ab760f32a77431",
    "dual-jobs": "91863d34b9638f73",
    "eval-fdls,cdls": "4080b393d2e3f9d3",
    "eval-jobs": "880a2512d36a5f6f",
    "order-cdls": "6fcf4c08fdcae1e6",
    "order-fdls": "162d61f227d70b46",
    "order-jobs": "577c7678eb54c084",
    "schedule-cdls": "cb6ee6b69b02d2aa",
    "schedule-fdls": "914a29506a84437d",
    "schedule-jobs": "1db8c6b2aed0abfe",
}


def test_cli_outputs_match_pinned_digests(tmp_path):
    assert _cli_outputs(tmp_path) == PINNED_CLI_OUTPUTS
