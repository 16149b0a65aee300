"""The summary, table and verdicts of ``scripts/compare.py`` on synthetic
records, its reading of perfbench's run records from synthetic files, its
tier-1 run with ``subprocess.run`` replaced, and the loops of its ``main``
with git, extraction and the runs replaced by fakes; no test here starts a
process."""

import json
import os
import subprocess
import types

import pytest

from tests.scripts import load_script

compare = load_script("scripts/compare.py", "compare_script")

END_TO_END = [
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "pass_rate", "better": "higher", "bound": 0.01},
]


@pytest.fixture(autouse=True)
def no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a test of the summary started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)


def _records(parent, change, pass_rates=None, workload="w"):
    records = []
    for i, (p, c) in enumerate(zip(parent, change)):
        pp, pc = pass_rates[i] if pass_rates else (1.0, 1.0)
        records.append({"workload": workload, "seed": 11 + i, "side": "parent",
                        "metrics": {"run_s": p, "pass_rate": pp}})
        records.append({"workload": workload, "seed": 11 + i, "side": "change",
                        "metrics": {"run_s": c, "pass_rate": pc}})
    return records


def _row(rows, metric, workload="w"):
    (row,) = [r for r in rows if r["metric"] == metric and r["workload"] == workload]
    return row


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_quartiles_interpolate_between_order_statistics():
    assert compare.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert compare.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_on_ten_of_ten_pairs():
    row = _row(compare.summarize(_records(PARENT, [p - 0.2 for p in PARENT]), END_TO_END),
               "run_s")
    assert row["pairs"] == 10 and row["wins"] == 10
    assert row["gap"] == pytest.approx(0.2) and row["gap"] > row["parent_iqr"]
    assert row["gain"] and not row["worse"]
    assert row["relative"] == pytest.approx(-0.2, abs=1e-3)


def test_eight_of_ten_wins_claim_nothing():
    change = [p - 0.2 for p in PARENT]
    change[0] = change[1] = 1.5  # two pairs lost
    row = _row(compare.summarize(_records(PARENT, change), END_TO_END), "run_s")
    assert row["wins"] == 8 and row["gap"] > row["parent_iqr"]
    assert not row["gain"] and not row["worse"]


def test_gap_inside_the_parents_iqr_claims_nothing():
    row = _row(compare.summarize(_records(PARENT, [p - 0.005 for p in PARENT]), END_TO_END),
               "run_s")
    assert row["wins"] == 10 and row["gap"] < row["parent_iqr"]
    assert not row["gain"]


def test_median_worse_than_the_bound_is_flagged_in_either_direction():
    rows = compare.summarize(_records(PARENT, [1.3 * p for p in PARENT],
                                      pass_rates=[(1.0, 0.98)] * 10), END_TO_END)
    assert _row(rows, "run_s")["worse"] and _row(rows, "pass_rate")["worse"]
    assert _row(rows, "run_s")["wins"] == 0
    # within the bound: slower, but not flagged
    rows = compare.summarize(_records(PARENT, [1.2 * p for p in PARENT],
                                      pass_rates=[(1.0, 0.995)] * 10), END_TO_END)
    assert not _row(rows, "run_s")["worse"] and not _row(rows, "pass_rate")["worse"]


def test_unpaired_runs_and_workloads_are_kept_apart():
    records = _records(PARENT[:3], PARENT[:3]) + _records([2.0, 2.0], [1.0, 1.0], workload="v")
    records.append({"workload": "w", "seed": 99, "side": "change",
                    "metrics": {"run_s": 50.0, "pass_rate": 0.0}})
    rows = compare.summarize(records, END_TO_END)
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("w", "run_s"), ("w", "pass_rate"), ("v", "run_s"), ("v", "pass_rate")]
    assert _row(rows, "run_s")["pairs"] == 3 and not _row(rows, "pass_rate")["worse"]
    assert _row(rows, "run_s", "v")["wins"] == 2


def test_table_has_one_line_per_row_and_its_verdict():
    rows = compare.summarize(_records(PARENT, [p - 0.2 for p in PARENT],
                                      pass_rates=[(1.0, 0.9)] * 10), END_TO_END)
    lines = compare.table(rows).splitlines()
    assert lines[0].startswith("| workload | metric | parent median [q1, q3]")
    assert len(lines) == 2 + len(rows)
    assert lines[2] == ("| w | run_s | 1 [0.9825, 1.018] | 0.8 [0.7825, 0.8175] | -20.0% "
                        "| 10/10 | 0.2 vs 0.035 | gain |")
    assert lines[3].endswith("| 0/10 | 0.1 vs 0 | WORSE |")


def test_steal_share_from_two_readings():
    assert compare.steal_share((10, 1000), (40, 1100)) == pytest.approx(0.3)
    assert compare.steal_share(None, (40, 1100)) is None
    assert compare.steal_share((10, 1000), (10, 1000)) is None


def _write_record(tree, workload, seed, setup):
    records = tree / "perfbench" / "out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "setup": setup,
                                "metrics": {"setup_s": {"value": 0.3, "unit": "s"}}}))
    return path


def test_setup_times_come_from_the_runs_own_record(tmp_path):
    setup = {"generate_s": [0.01, 0.002, 0.002], "import_s": [0.31, 0.29, 0.30]}
    path = _write_record(tmp_path, "approx_library", 12, setup)
    written = os.path.getmtime(path)
    assert compare.setup_times(str(tmp_path), "approx_library", 12, written) == setup
    # a record older than the run, another seed, or no record at all gives None
    assert compare.setup_times(str(tmp_path), "approx_library", 12, written + 1.0) is None
    assert compare.setup_times(str(tmp_path), "approx_library", 13, written) is None
    assert compare.setup_times(str(tmp_path / "absent"), "approx_library", 12, 0.0) is None
    path.write_text("{\"setup\": {\"import_s\": [0.3]}}")  # no generate_s
    assert compare.setup_times(str(tmp_path), "approx_library", 12, 0.0) is None


def test_host_names_the_scipy_and_blas_versions():
    import numpy
    import scipy

    info = compare.host()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert info["scipy"] == scipy.__version__
    assert info["blas"] == f"{blas['name']} {blas['version']}"


def test_a_workload_without_pairs_is_listed_unpaired():
    # every change-side run of "v" failed: its records carry no metrics
    records = _records(PARENT[:3], PARENT[:3])
    records += [{"workload": "v", "seed": 11 + i, "side": side, "exit_code": 1}
                if side == "change" else
                {"workload": "v", "seed": 11 + i, "side": side,
                 "metrics": {"run_s": 1.0, "pass_rate": 1.0}}
                for i in range(3) for side in ("parent", "change")]
    rows = compare.summarize(records, END_TO_END)
    assert [(r["workload"], r["metric"], r["pairs"]) for r in rows] == [
        ("w", "run_s", 3), ("w", "pass_rate", 3), ("v", None, 0)]
    assert rows[-1] == {"workload": "v", "metric": None, "pairs": 0,
                        "passed": {"parent": 3, "change": 0}}
    lines = compare.table(rows).splitlines()
    assert len(lines) == 2 + len(rows)
    assert lines[-1] == ("| v | - | unpaired: 3 parent and 0 change runs passed "
                         "| | | 0/0 | | - |")


WORKLOADS = [f"w{i}" for i in range(5)]


def _fake_trees(monkeypatch, tmp_path, bench_result):
    """Run ``compare.main`` against fakes: a BENCHMARK.json listing five
    workloads, no git, no extraction and no subprocess. Returns the calls
    made to ``output_hashes``, ``bench_run`` and ``tier1``, and the fake
    parent tree."""
    benchmark = {"run_seconds": 3, "end_to_end": END_TO_END,
                 "workloads": [{"name": name, "why": ""} for name in WORKLOADS]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = {"hashes": [], "runs": [], "parent": [], "tier1": []}

    def extract(rev, directory):
        calls["parent"].append(os.path.join(directory, "tree"))
        return calls["parent"][-1]

    def output_hashes(tree, workload, seed):
        calls["hashes"].append((tree, workload, seed))
        return {"hashes": {"results.csv": f"{workload}-{seed}"}}

    def bench_run(tree, workload, seed, seconds):
        calls["runs"].append((tree, workload, seed, seconds))
        return bench_result(tree, workload)

    def tier1(tree):
        calls["tier1"].append(tree)
        return {"wall_s": 40.0 + len(calls["tier1"]), "exit_code": 0, "passed": 700,
                "skipped": 2, "failed": 0}

    monkeypatch.setattr(compare, "ROOT", str(tmp_path))
    monkeypatch.setattr(compare, "git", lambda *args: "" if args[0] == "status" else "f00")
    monkeypatch.setattr(compare, "host", lambda: {"nproc": 1})
    monkeypatch.setattr(compare, "extract", extract)
    monkeypatch.setattr(compare, "output_hashes", output_hashes)
    monkeypatch.setattr(compare, "bench_run", bench_run)
    monkeypatch.setattr(compare, "tier1", tier1)
    return calls


def _passed(tree, workload):
    return {"exit_code": 0, "wall_s": 1.0, "steal_share": None,
            "metrics": {"run_s": 1.0, "pass_rate": 1.0}}


def test_main_hashes_and_pairs_every_listed_workload(monkeypatch, tmp_path, capsys):
    calls = _fake_trees(monkeypatch, tmp_path, _passed)
    out = tmp_path / "report.json"
    assert compare.main(["f00", "--pairs", "3", "--out", str(out)]) == 0
    (parent,) = calls["parent"]
    change = str(tmp_path)
    assert calls["hashes"] == [(tree, workload, seed) for workload in WORKLOADS
                               for seed in (0, 11) for tree in (parent, change)]
    # each seed runs both sides back to back, the first side alternating
    assert calls["runs"] == [
        (tree, workload, seed, 3) for workload in WORKLOADS
        for seed, order in ((11, (parent, change)), (12, (change, parent)),
                            (13, (parent, change)))
        for tree in order]
    report = json.loads(out.read_text())
    assert report["failed_runs"] == 0 and len(report["runs"]) == 30
    assert [(r["workload"], r["pairs"]) for r in report["summary"]] == [
        (workload, 3) for workload in WORKLOADS for _ in END_TO_END]
    # the tier-1 suite runs once in each tree, after the pairs
    assert calls["tier1"] == [parent, change]
    assert report["tier1"]["change"] == {"wall_s": 42.0, "exit_code": 0, "passed": 700,
                                         "skipped": 2, "failed": 0}
    printed = capsys.readouterr().out
    assert "10 of 10 output files equal" in printed and "0 of 30 runs failed" in printed
    assert printed.rstrip().splitlines()[-1] == (
        "| tier-1 | wall_s | 41.0 s: 700 passed, 2 skipped, 0 failed "
        "| 42.0 s: 700 passed, 2 skipped, 0 failed | +2.4% | 1 run each | | - |")


@pytest.mark.parametrize("last,counts", [
    ("703 passed, 2 skipped in 48.12s", (703, 2, 0)),
    ("1 failed, 702 passed, 2 skipped, 1 warning in 50.01s", (702, 2, 1)),
    ("no tests ran in 0.01s", (0, 0, 0)),
])
def test_tier1_runs_the_verify_command_in_the_tree(monkeypatch, tmp_path, last, counts):
    runs = []

    def run(command, **kwargs):
        runs.append((command, kwargs))
        return subprocess.CompletedProcess(command, 1, stdout=f"....s.\n{last}\n")

    ticks = iter([100.0, 148.5])
    monkeypatch.setattr(subprocess, "run", run)
    monkeypatch.setattr(compare, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    result = compare.tier1(str(tmp_path))
    assert result == {"wall_s": 48.5, "exit_code": 1, "passed": counts[0],
                      "skipped": counts[1], "failed": counts[2]}
    ((command, kwargs),) = runs
    assert command[1:] == ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"]
    assert kwargs["cwd"] == str(tmp_path)
    assert kwargs["env"]["PYTHONPATH"] == os.pathsep.join([str(tmp_path / "src"), "elsewhere"])


def test_main_reports_a_workload_whose_change_runs_all_failed(monkeypatch, tmp_path, capsys):
    def result(tree, workload):
        if workload == "w3" and tree == str(tmp_path):
            return {"exit_code": 1, "wall_s": 1.0, "steal_share": None}
        return _passed(tree, workload)

    _fake_trees(monkeypatch, tmp_path, result)
    out = tmp_path / "report.json"
    assert compare.main(["f00", "--pairs", "2", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["failed_runs"] == 2
    unpaired = [r for r in report["summary"] if r["pairs"] == 0]
    assert unpaired == [{"workload": "w3", "metric": None, "pairs": 0,
                         "passed": {"parent": 2, "change": 0}}]
    printed = capsys.readouterr().out
    assert "2 of 20 runs failed" in printed
    assert "| w3 | - | unpaired: 2 parent and 0 change runs passed" in printed
