"""The summary, table and verdicts of ``scripts/compare.py`` on synthetic
records, its layer rows on synthetic traces, its reading of perfbench's run
records from synthetic files, its trace run, in-tree program, tier-1 run and
copy of the working tree with ``subprocess.run`` replaced, and the loops of its ``main``
with git, extraction, the copy and the runs replaced by fakes; no test here
starts a process."""

import itertools
import json
import os
import subprocess
import sys
import types

import pytest

from tests.scripts import load_script

compare = load_script("scripts/compare.py", "compare_script")
TREE_BODY_RUNNER = compare.tree_body

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


def test_pairs_give_the_median_ratio_and_the_exact_wilcoxon_p():
    change = [p - 0.2 - 0.01 * i for i, p in enumerate(PARENT)]  # distinct differences
    change[9] = 1.5  # one pair lost, by the largest difference
    row = _row(compare.summarize(_records(PARENT, change), END_TO_END), "run_s")
    ratios = sorted(c / p for p, c in zip(PARENT, change))
    assert row["pair_ratio"] == (ratios[4] + ratios[5]) / 2
    # W+ is the lost pair's rank, 10; p counts the sign patterns of ranks
    # 1..10 whose W+ is that low, and those whose W- is
    low = sum(sum(r for r, s in zip(range(1, 11), signs) if s) <= 10
              for signs in itertools.product((0, 1), repeat=10))
    assert row["p_method"] == "exact" and row["p_value"] == 2 * low / 1024
    # reported only: nine wins and a gap above the IQR still claim the gain
    assert row["gain"]
    equal = _row(compare.summarize(_records(PARENT, PARENT), END_TO_END), "pass_rate")
    assert equal["pair_ratio"] == 1.0 and equal["p_value"] == 1.0


def test_paired_table_has_one_line_per_paired_row():
    records = _records(PARENT, [p - 0.2 for p in PARENT]) + [
        {"workload": "v", "seed": 11, "side": "parent", "exit_code": 1}]
    rows = compare.summarize(records, END_TO_END)
    lines = compare.paired_table(rows).splitlines()
    assert lines[0] == "| workload | metric | pairs | median pair ratio | Wilcoxon p |"
    assert len(lines) == 2 + 2  # the unpaired workload "v" has no line
    # every pair won: 2 of the 1,024 sign patterns are as extreme
    assert lines[2] == "| w | run_s | 10 | 0.8000 | 0.001953 |"
    assert lines[3] == "| w | pass_rate | 10 | 1.0000 | 1 (degenerate) |"


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


def test_host_names_no_scipy_version_without_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # import scipy raises ImportError
    info = compare.host()
    assert info["scipy"] is None
    assert info["numpy"]


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
    workloads, no git, no extraction, no copy and no subprocess. Returns the
    calls made to ``tree_body``, ``bench_run``, ``trace_run`` and ``tier1``,
    and the fake parent and change trees."""
    benchmark = {"run_seconds": 3, "end_to_end": END_TO_END,
                 "workloads": [{"name": name, "why": ""} for name in WORKLOADS]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = {"bodies": [], "runs": [], "parent": [], "change": [], "traces": [], "tier1": []}

    def extract(rev, directory):
        calls["parent"].append(os.path.join(directory, "tree"))
        return calls["parent"][-1]

    def copy_worktree(directory):
        calls["change"].append(os.path.join(directory, "tree"))
        return calls["change"][-1]

    def tree_body(tree, workload, seed):
        calls["bodies"].append((tree, workload, seed))
        result = {"hashes": {"results.csv": f"{workload}-{seed}"}}
        if seed == 11:  # the second body is counted at the trace seed only
            side = 1 if tree == calls["parent"][0] else 0
            result.update(calls=1000 + 250 * side, traced_peak_bytes=4096)
        return result

    def bench_run(tree, workload, seed, seconds):
        calls["runs"].append((tree, workload, seed, seconds))
        return bench_result(tree, workload)

    def trace_run(tree, workload):
        calls["traces"].append((tree, workload))
        return {"choquet.choquet_integral.calls": {"value": 1680, "unit": "count"}}

    def tier1(tree):
        calls["tier1"].append(tree)
        return {"wall_s": 40.0 + len(calls["tier1"]), "exit_code": 0, "passed": 700,
                "skipped": 2, "failed": 0}

    monkeypatch.setattr(compare, "ROOT", str(tmp_path))
    monkeypatch.setattr(compare, "git", lambda *args: "" if args[0] == "status" else "f00")
    monkeypatch.setattr(compare, "host", lambda: {"nproc": 1})
    monkeypatch.setattr(compare, "extract", extract)
    monkeypatch.setattr(compare, "copy_worktree", copy_worktree)
    monkeypatch.setattr(compare, "tree_body", tree_body)
    monkeypatch.setattr(compare, "bench_run", bench_run)
    monkeypatch.setattr(compare, "trace_run", trace_run)
    monkeypatch.setattr(compare, "tier1", tier1)
    return calls


def _passed(tree, workload):
    return {"exit_code": 0, "wall_s": 1.0, "steal_share": None,
            "metrics": {"run_s": 1.0, "pass_rate": 1.0}}


def test_main_hashes_and_pairs_every_listed_workload(monkeypatch, tmp_path, capsys):
    calls = _fake_trees(monkeypatch, tmp_path, _passed)
    out = tmp_path / "report.json"
    assert compare.main(["f00", "--pairs", "3", "--out", str(out)]) == 0
    (parent,), (change,) = calls["parent"], calls["change"]
    # both sides run from fresh trees, neither from the checkout
    assert str(tmp_path) not in (parent, change) and parent != change
    # four in-tree processes per workload: seeds 0 and 11 on each side; the
    # work rows come from the counted bodies at seed 11
    assert calls["bodies"] == [(tree, workload, seed) for workload in WORKLOADS
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
    # four trace runs per workload, parent, change, change, parent, then the
    # tier-1 suite once per tree
    assert calls["traces"] == [(tree, workload) for workload in WORKLOADS
                               for tree in (parent, change, change, parent)]
    assert [(r["workload"], r["differs"]) for r in report["layers"]] == [
        (workload, False) for workload in WORKLOADS]
    assert calls["tier1"] == [parent, change]
    assert report["tier1"]["change"] == {"wall_s": 42.0, "exit_code": 0, "passed": 700,
                                         "skipped": 2, "failed": 0}
    printed = capsys.readouterr().out
    assert "10 of 10 output files equal" in printed and "0 of 30 runs failed" in printed
    assert "0 of 20 trace runs failed" in printed
    assert "| w0 | choquet.choquet_integral.calls | count | 1680 | 1680 | equal |" in printed
    assert "| w4 | 1250 | 1000 | 0.8000 | 4096 | 4096 | 1.0000 |" in printed
    assert report["work"][0] == {
        "workload": "w0", "calls": {"parent": 1250, "change": 1000, "ratio": 0.8},
        "traced_peak_bytes": {"parent": 4096, "change": 4096, "ratio": 1.0}}
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
        if workload == "w3" and tree == calls["change"][0]:
            return {"exit_code": 1, "wall_s": 1.0, "steal_share": None}
        return _passed(tree, workload)

    calls = _fake_trees(monkeypatch, tmp_path, result)
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


def test_copy_worktree_takes_what_git_lists_as_it_is_on_disk(monkeypatch, tmp_path):
    checkout, copies = tmp_path / "checkout", tmp_path / "copies"
    files = {"src/pkg/mod.py": "edited, not committed\n", "src/pkg/new.py": "untracked\n",
             "README.md": "tracked\n", "perfbench/out/record.json": "ignored\n"}
    for name, text in files.items():
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(text)
    runs = []

    def run(command, **kwargs):
        runs.append((command, kwargs))
        # git lists tracked and untracked files, not ignored ones; gone.py is
        # tracked but deleted in the working tree
        listing = "\0".join(["README.md", "gone.py", "src/pkg/mod.py", "src/pkg/new.py"]) + "\0"
        return subprocess.CompletedProcess(command, 0, stdout=listing)

    monkeypatch.setattr(subprocess, "run", run)
    monkeypatch.setattr(compare, "ROOT", str(checkout))
    tree = compare.copy_worktree(str(copies))
    ((command, kwargs),) = runs
    assert command == ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    assert kwargs["cwd"] == str(checkout)
    assert tree == str(copies / "tree")
    copied = sorted(str(p.relative_to(tree)) for p in (copies / "tree").rglob("*") if p.is_file())
    assert copied == ["README.md", "src/pkg/mod.py", "src/pkg/new.py"]
    for name in copied:
        assert (copies / "tree" / name).read_text() == files[name]


def _trace(**values):
    """Layer metrics as ``trace_run`` returns them; a name ending in _s is a time."""
    return {name.replace("__", "."): {"value": v, "unit": "s" if name.endswith("_s") else
                                      "count"} for name, v in values.items()}


def test_layer_rows_flag_counts_that_differ_and_only_report_times():
    parent = _trace(measures__FuzzyRemovalMeasure__chain_values__self_s=0.049,
                    quantifiers__RIMQuantifier__call__calls=720,
                    choquet__choquet_integral__calls=1680,
                    classifier__comb_select__calls=0)
    change = _trace(measures__FuzzyRemovalMeasure__chain_values__self_s=0.008,
                    quantifiers__RIMQuantifier__call__calls=321,
                    choquet__choquet_integral__calls=1680,
                    classifier__comb_select__calls=0)
    rows = compare.layer_rows({"approx_library": {"parent": [parent], "change": [change]},
                               "protocol_wdbc": {"parent": [parent], "change": [change]},
                               "classify_large": {"parent": [parent], "change": [None]}})
    approx = {r["metric"]: r for r in rows if r["workload"] == "approx_library"}
    assert list(approx) == list(parent)
    time = approx["measures.FuzzyRemovalMeasure.chain_values.self_s"]
    assert not time["count"] and not time["differs"]  # 0.049 -> 0.008, not judged
    assert approx["quantifiers.RIMQuantifier.call.calls"]["differs"]
    assert not approx["choquet.choquet_integral.calls"]["differs"]
    # comb_select is blind on the protocol workloads only
    blind = {(r["workload"], r["metric"]) for r in rows if r.get("blind")}
    assert blind == {("protocol_wdbc", "classifier.comb_select.calls")}
    assert rows[-1] == {"workload": "classify_large", "metric": None, "failed": ["change"]}
    lines = compare.layer_table(rows).splitlines()
    assert lines[0] == "| workload | layer metric | unit | parent | change | note |"
    assert len(lines) == 2 + len(rows)
    assert lines[2:6] == [
        "| approx_library | measures.FuzzyRemovalMeasure.chain_values.self_s | s | 0.049 "
        "| 0.008 | reported |",
        "| approx_library | quantifiers.RIMQuantifier.call.calls | count | 720 | 321 "
        "| DIFFERS |",
        "| approx_library | choquet.choquet_integral.calls | count | 1680 | 1680 | equal |",
        "| approx_library | classifier.comb_select.calls | count | 0 | 0 | equal |"]
    assert lines[9] == ("| protocol_wdbc | classifier.comb_select.calls | count | 0 | 0 "
                        "| equal, blind |")
    assert lines[-1] == "| classify_large | - | | | | trace run failed: change |"


def test_a_metric_on_one_side_only_differs():
    rows = compare.layer_rows({"w": {"parent": [_trace(a__calls=3)],
                                     "change": [_trace(a__calls=3, b__calls=1)]}})
    assert [(r["metric"], r["parent"], r["change"], r["differs"]) for r in rows] == [
        ("a.calls", 3, 3, False), ("b.calls", None, 1, True)]
    assert compare.layer_table(rows).splitlines()[-1] == "| w | b.calls | count | - | 1 | DIFFERS |"
    # counts print in full: these two would both read 1.235e+05 to four digits
    rows = compare.layer_rows({"w": {"parent": [_trace(a__bytes=123456)],
                                     "change": [_trace(a__bytes=123457)]}})
    assert compare.layer_table(rows).splitlines()[-1] == (
        "| w | a.bytes | count | 123456 | 123457 | DIFFERS |")


@pytest.mark.parametrize("code", (0, 1))
def test_trace_run_runs_perfbench_traced_in_the_tree(monkeypatch, tmp_path, code):
    runs = []
    metrics = _trace(choquet__choquet_integral__calls=1680)

    def run(command, **kwargs):
        runs.append((command, kwargs))
        return subprocess.CompletedProcess(command, code, stdout=(
            b"perfbench: noise\n" + json.dumps({"metrics": metrics}).encode() + b"\n"))

    monkeypatch.setattr(subprocess, "run", run)
    got = compare.trace_run(str(tmp_path), "approx_library")
    assert got == (metrics if code == 0 else None)
    ((command, kwargs),) = runs
    assert command[1:] == ["perfbench/run.py", "--workload", "approx_library", "--seed", "11",
                           "--seconds", "0", "--trace", "1"]
    assert kwargs["cwd"] == str(tmp_path)
    assert kwargs["env"]["PYTHONPATH"] == str(tmp_path / "src")
    assert kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_main_fails_on_a_failed_trace_run(monkeypatch, tmp_path, capsys):
    calls = _fake_trees(monkeypatch, tmp_path, _passed)

    def trace_run(tree, workload):
        return None if workload == "w2" and tree == calls["change"][0] else {}

    monkeypatch.setattr(compare, "trace_run", trace_run)
    assert compare.main(["f00"]) == 1
    printed = capsys.readouterr().out
    assert "2 of 20 trace runs failed" in printed
    assert "| w2 | - | | | | trace run failed: change |" in printed


def _fake_body(monkeypatch, result):
    """Replace ``subprocess.run`` by one that prints ``result`` as the
    in-tree program would, after some noise; returns the calls made."""
    runs = []

    def run(command, **kwargs):
        runs.append((command, kwargs))
        assert os.path.isdir(command[5])  # the scratch directory lives through the run
        return subprocess.CompletedProcess(command, 0, stdout=(
            b"noise\n" + json.dumps(result).encode() + b"\n"))

    monkeypatch.setattr(subprocess, "run", run)
    return runs


@pytest.mark.parametrize("seed", (0, 11))
def test_tree_body_hashes_the_first_body_and_counts_a_second_at_seed_11(monkeypatch, tmp_path,
                                                                        seed):
    result = {"package": str(tmp_path / "src" / "fuzzyrough" / "__init__.py"),
              "exit_codes": [0], "hashes": {"values.npy": "ab12"}}
    if seed == 11:
        result.update(exit_codes=[0, 0], calls=80203, traced_peak_bytes=326080)
    runs = _fake_body(monkeypatch, result)
    assert compare.tree_body(str(tmp_path), "approx_library", seed) == result
    ((command, kwargs),) = runs
    assert command[:2] == [sys.executable, "-c"] and command[2] == compare.TREE_BODY
    assert command[3:5] == ["approx_library", str(seed)]
    assert command[6:] == (["count"] if seed == 11 else [])
    assert not os.path.exists(command[5])
    assert kwargs["cwd"] == str(tmp_path) and kwargs["check"]
    assert kwargs["env"]["PYTHONPATH"] == str(tmp_path / "src")
    assert kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"
    # the first body is hashed with the row split; the second runs serially
    # under both profilers and tracemalloc, and only when asked to count
    body = compare.TREE_BODY
    assert body.index('result = {"exit_codes": [body("out")]') < body.index(
        "hashlib.sha256") < body.index(
        'if sys.argv[4:] == ["count"]:') < body.index(
        'sys.modules["fuzzyrough.rows"].PARALLEL_WORK = float("inf")') < body.index(
        "tracemalloc.start()") < body.index(
        "threading.setprofile(count)") < body.index("sys.setprofile(count)") < body.index(
        'counted = body("counted")') < body.index("sys.setprofile(None)") < body.index(
        "tracemalloc.get_traced_memory()")


@pytest.mark.parametrize("package,codes,error", [
    ("elsewhere/fuzzyrough/__init__.py", [0, 0], "imported fuzzyrough from elsewhere"),
    (None, [1], r"approx_library at seed 11 exited \[1\]"),
    (None, [0, 1], r"approx_library at seed 11 exited \[0, 1\]"),
])
def test_tree_body_requires_the_trees_package_and_every_body_passed(monkeypatch, tmp_path,
                                                                    package, codes, error):
    package = package or str(tmp_path / "src" / "fuzzyrough" / "__init__.py")
    _fake_body(monkeypatch, {"package": package, "exit_codes": codes, "hashes": {},
                             "calls": 1, "traced_peak_bytes": 1})
    with pytest.raises(RuntimeError, match=error):
        compare.tree_body(str(tmp_path), "approx_library", 11)


def test_main_fails_when_a_counted_body_fails(monkeypatch, tmp_path):
    calls = _fake_trees(monkeypatch, tmp_path, _passed)
    monkeypatch.setattr(compare, "tree_body", TREE_BODY_RUNNER)
    bodies = []

    def run(command, **kwargs):
        # every body passes but the counted one in the change tree
        tree, seed = kwargs["cwd"], command[4]
        bodies.append((tree, seed))
        codes = [0, 1] if seed == "11" and tree == calls["change"][0] else [0]
        result = {"package": os.path.join(tree, "src", "fuzzyrough", "__init__.py"),
                  "exit_codes": codes, "hashes": {},
                  "calls": 1, "traced_peak_bytes": 1}
        return subprocess.CompletedProcess(command, 0, stdout=json.dumps(result).encode())

    monkeypatch.setattr(subprocess, "run", run)
    with pytest.raises(RuntimeError, match=r"w0 at seed 11 exited \[0, 1\]"):
        compare.main(["f00"])
    parent, change = calls["parent"][0], calls["change"][0]
    assert bodies == [(parent, "0"), (change, "0"), (parent, "11"), (change, "11")]
    assert calls["runs"] == calls["traces"] == calls["tier1"] == []


def test_traced_runs_alternate_and_report_each_sides_median(monkeypatch, tmp_path, capsys):
    calls = _fake_trees(monkeypatch, tmp_path, _passed)

    def trace_run(tree, workload):
        calls["traces"].append((tree, workload))
        position = sum(w == workload for _, w in calls["traces"])  # 1 to 4
        return _trace(choquet__choquet_integral__self_s=0.01 * position,
                      choquet__choquet_integral__calls=1680)

    monkeypatch.setattr(compare, "trace_run", trace_run)
    out = tmp_path / "report.json"
    assert compare.main(["f00", "--out", str(out)]) == 0
    parent, change = calls["parent"][0], calls["change"][0]
    assert calls["traces"] == [(tree, workload) for workload in WORKLOADS
                               for tree in (parent, change, change, parent)]
    # the parent ran first and fourth, the change second and third
    rows = [r for r in json.loads(out.read_text())["layers"] if r["workload"] == "w0"]
    assert [(r["metric"], r["parent"], r["change"], r["differs"]) for r in rows] == [
        ("choquet.choquet_integral.self_s", pytest.approx(0.025), pytest.approx(0.025), False),
        ("choquet.choquet_integral.calls", 1680, 1680, False)]
    assert "0 of 20 trace runs failed" in capsys.readouterr().out


def test_layer_rows_take_median_times_and_flag_counts_that_differ_within_a_tree():
    runs = {"parent": [_trace(a__self_s=0.040, a__calls=7, b__calls=3),
                       _trace(a__self_s=0.050, a__calls=7, b__calls=4)],
            "change": [_trace(a__self_s=0.030, a__calls=7, b__calls=3),
                       _trace(a__self_s=0.020, a__calls=7, b__calls=3)]}
    rows = compare.layer_rows({"w": runs})
    assert [(r["metric"], r["parent"], r["change"], r["differs"]) for r in rows] == [
        ("a.self_s", pytest.approx(0.045), pytest.approx(0.025), False),
        ("a.calls", 7, 7, False),
        ("b.calls", 3, 3, True)]  # equal between the first runs, not within the parent
    assert compare.layer_table(rows).splitlines()[2:] == [
        "| w | a.self_s | s | 0.045 | 0.025 | reported |",
        "| w | a.calls | count | 7 | 7 | equal |",
        "| w | b.calls | count | 3 | 3 | DIFFERS |"]
    # a failed run of either side fails the workload's row
    runs["parent"][1] = None
    assert compare.layer_rows({"w": runs}) == [
        {"workload": "w", "metric": None, "failed": ["parent"]}]


def test_work_rows_give_both_sides_and_their_ratio():
    rows = compare.work_rows({
        "a": {"parent": {"calls": 116878, "traced_peak_bytes": 326008},
              "change": {"calls": 80203, "traced_peak_bytes": 326080}},
        "b": {"parent": {"calls": 0, "traced_peak_bytes": 10},
              "change": {"calls": 5, "traced_peak_bytes": 10}}})
    assert rows[0]["calls"] == {"parent": 116878, "change": 80203, "ratio": 80203 / 116878}
    assert rows[1]["calls"]["ratio"] is None
    assert compare.work_table(rows).splitlines()[2:] == [
        "| a | 116878 | 80203 | 0.6862 | 326008 | 326080 | 1.0002 |",
        "| b | 0 | 5 | - | 10 | 10 | 1.0000 |"]
