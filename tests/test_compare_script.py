"""The summary, table and verdicts of ``scripts/compare.py`` on synthetic
records, and its reading of perfbench's run records from synthetic files;
no test here starts a process."""

import json
import os
import subprocess

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
