#!/usr/bin/env python3
"""Compare the working tree with a parent revision: output hashes and paired benchmark runs.

    python scripts/compare.py <rev> [--pairs N] [--out FILE]

``<rev>`` is extracted with ``git archive`` into a temporary directory (no
worktree, nothing written into ``.git``). The change side is the working tree
of the checkout this script lives in, copied into a second temporary
directory: the files ``git ls-files --cached --others --exclude-standard``
lists, uncommitted edits and untracked files included, ignored ones such as
``perfbench/out/`` left out. So both sides run from fresh trees.
``perfbench/run.py`` is treated as a black box: each side runs its own copy
from its own root.

The workloads are those ``BENCHMARK.json`` lists.

1. Output hashes and work counts. Per workload, seed (0 and 11) and side,
   one subprocess runs ``TREE_BODY`` in that tree, with that tree's ``src``
   as ``PYTHONPATH``. It generates the inputs with the tree's
   ``perfbench/workloads.py``, runs the workload body once and hashes every
   output file; temporary paths in ``summary.json`` are masked, so equal
   outputs hash equal. At seed 11 it then runs the body again while
   ``sys.setprofile`` and ``threading.setprofile`` count every Python and C
   call and ``tracemalloc`` records the peak of traced memory; the first
   body has warmed imports, memos and the row pool. Calls on threads that
   already run when counting starts, such as the row pool's helpers, are
   not counted. Unlike wall time the counts repeat almost exactly from run
   to run, so they show a change in per-call work through host noise; a
   call on ten elements counts as much as one on ten million, so they do
   not measure kernel work. Both sides' values and their ratios are printed
   beside the paired table, reported and not judged. The comparison stops
   with an error unless the subprocess imported ``fuzzyrough`` from the
   tree's own ``src`` and every body it ran exited 0.
2. Pairs. With ``--pairs N`` each workload runs ``perfbench/run.py`` N times
   per side at seeds 11, 12, ..., for the ``run_seconds`` of
   ``BENCHMARK.json``. Each seed runs both sides back to back; which side runs
   first alternates from seed to seed. The host's steal share over each run
   comes from ``/proc/stat`` read before and after it. Each run's record
   also keeps the ``setup.generate_s`` and ``setup.import_s`` lists of the
   record ``perfbench/run.py`` wrote in that tree, so a change in setup_s
   shows whether it comes from the import or from generating the inputs.
3. Layers. Each workload runs ``perfbench/run.py --trace 1`` at seed 11
   four times, parent, change, change, parent, so a host phase weighs on
   both sides alike. Every layer metric that is not a time (calls, calls
   per row or label, computed bytes, the error rate) repeats exactly
   between runs of one tree, so each is printed for both sides and flagged
   when any two of the four runs differ, within a tree or between trees.
   The times (``self_s``, ``tracing.overhead_s``) are printed as each
   side's median and not judged. Rows the protocol workloads cannot move
   are marked blind: the protocol selects and scores through
   ``resolve_and_score`` and ``balanced_accuracies``, so ``comb_select``,
   ``predict_batch`` and ``balanced_accuracy`` read 0 there whatever the
   code does. A failed trace run makes the exit status 1.
4. Tier-1. Each tree runs the Tier-1 verify command of ROADMAP.md once (with
   ``-p no:cacheprovider``, so it writes no cache into either tree), with
   its own ``src`` first on ``PYTHONPATH``; its wall seconds and its passed,
   skipped and failed counts are recorded and given one line of the table.
   They are recorded, not judged.

The Markdown table gives, per workload and end-to-end metric, the median
[q1, q3] of each side, the pairs the change won, and the gap between the
medians against the parent's IQR. A median worse than the parent's by more
than the metric's ``BENCHMARK.json`` bound (a share of the parent's median)
is flagged WORSE. A gain is claimed only when the change wins at least nine
in ten pairs and the gap between medians exceeds the parent's IQR; the
verdict column says ``gain`` then, and ``-`` otherwise. A workload with no
pair of passed runs is listed as unpaired, with no statistics; any failed
run makes the exit status 1.

A second table, printed before it, pairs the runs seed by seed: per
workload and metric, the median of the per-pair ratios (change over
parent) and the two-sided p-value of the package's own
``evaluation.wilcoxon_signed_rank`` on the per-pair differences, exact up
to 25 pairs. Host phases move both sides of a pair together, so the pairs
separate the code from the host better than two unpaired IQRs do. These
columns are reported, not judged: the claim rule above is unchanged.
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))
from fuzzyrough.evaluation import wilcoxon_signed_rank  # noqa: E402
HASH_SEEDS = (0, 11)
FIRST_PAIR_SEED = 11
TRACE_SEED = 11
TRACE_ORDER = ("parent", "change", "change", "parent")  # traced runs per workload
BLIND_LAYERS = ("classifier.comb_select.", "classifier.predict_batch.",
                "evaluation.balanced_accuracy.")
BLIND_ON = ("protocol_wdbc", "protocol_many")
WIN_SHARE = 0.9  # share of pairs the change must win for a claimed gain

# Runs in a fresh interpreter inside one tree: generate, run the body once and
# hash every output file; with a fourth argument, run the body once more
# counting calls and tracing memory. argv: workload, seed, scratch directory
# and, to count, "count".
TREE_BODY = r"""
import hashlib, json, os, sys, threading, tracemalloc
sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
import workloads
workload, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
inputs = os.path.join(scratch, "inputs")
os.makedirs(inputs)
manifest = workloads.generate(workload, seed, inputs)


def body(name):
    out = os.path.join(scratch, name)
    os.makedirs(out)
    return workloads.BODIES[workload](manifest, out)["exit_code"]


# the body imports fuzzyrough; importing it before generating would move the
# counted body's traced peak by some bytes
result = {"exit_codes": [body("out")], "hashes": {}}
result["package"] = sys.modules["fuzzyrough"].__file__
out = os.path.join(scratch, "out")
for name in sorted(os.listdir(out)):
    with open(os.path.join(out, name), "rb") as fh:
        data = fh.read()
    if name == "summary.json":
        data = data.replace(scratch.encode(), b"<tmp>")
    result["hashes"][name] = hashlib.sha256(data).hexdigest()
if sys.argv[4:] == ["count"]:
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    tracemalloc.start()
    threading.setprofile(count)
    sys.setprofile(count)
    counted = body("counted")
    sys.setprofile(None)
    threading.setprofile(None)
    result.update(calls=calls[0], traced_peak_bytes=tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    result["exit_codes"].append(counted)
print(json.dumps(result))
"""


# ------------------------------------------------------------------ summary

def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return q1, median, q3


def summarize(records, end_to_end):
    """One row per (workload, metric) from paired run records.

    ``records`` hold ``workload``, ``seed``, ``side`` ("parent" or "change")
    and, for a run that passed, ``metrics`` ({name: value}); ``end_to_end`` is
    BENCHMARK.json's list of {name, better, bound}. A pair is the two sides'
    passed runs at one seed. A workload with no pair, say because every run
    on one side failed, gets one row with ``pairs`` 0 and no statistics.
    """
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = {(r["seed"], r["side"]): r["metrics"] for r in records
                if r["workload"] == workload and "metrics" in r}
        seeds = sorted({seed for seed, side in runs
                        if (seed, "parent") in runs and (seed, "change") in runs})
        if not seeds:
            rows.append({"workload": workload, "metric": None, "pairs": 0,
                         "passed": {side: sum(s == side for _, s in runs)
                                    for side in ("parent", "change")}})
            continue
        for metric in end_to_end:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            parent = [runs[(s, "parent")][name] for s in seeds]
            change = [runs[(s, "change")][name] for s in seeds]
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            worse_by = sign * (cm - pm)  # > 0 when the change's median is worse
            gap, iqr = abs(cm - pm), p3 - p1
            ratios = [c / p for p, c in zip(parent, change) if p]
            paired = wilcoxon_signed_rank(change, parent)
            rows.append({
                "workload": workload, "metric": name, "pairs": len(seeds),
                "parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins,
                "gap": gap, "parent_iqr": iqr,
                "pair_ratio": statistics.median(ratios) if ratios else None,
                "p_value": paired.p_value, "p_method": paired.method,
                "relative": (cm - pm) / abs(pm) if pm else 0.0,
                "worse": worse_by > metric["bound"] * abs(pm),
                "gain": (worse_by < 0 and gap > iqr
                         and wins >= math.ceil(WIN_SHARE * len(seeds))),
            })
    return rows


def _num(x):
    return f"{x:.4g}"


def _tier1_side(run):
    return (f"{run['wall_s']:.1f} s: {run['passed']} passed, {run['skipped']} skipped, "
            f"{run['failed']} failed")


def markdown(header, lines):
    """A Markdown table: ``header``'s cells, the rule, then one row per list
    of cells in ``lines``; an empty cell prints as one space."""
    def row(cells):
        return "|" + "|".join(f" {cell} " if cell != "" else " " for cell in cells) + "|"

    return "\n".join([row(header), "|" + "---|" * len(header), *map(row, lines)])


def table(rows, tier1_runs=None):
    """The summary rows as a Markdown table, then the tier-1 line when
    ``tier1_runs`` ({side: ``tier1`` record}) is given."""
    lines = []
    for r in rows:
        if not r["pairs"]:
            passed = r["passed"]
            lines.append([r["workload"], "-", f"unpaired: {passed['parent']} parent and "
                          f"{passed['change']} change runs passed", "", "", "0/0", "", "-"])
            continue
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        lines.append([r["workload"], r["metric"], f"{_num(pm)} [{_num(p1)}, {_num(p3)}]",
                      f"{_num(cm)} [{_num(c1)}, {_num(c3)}]", f"{r['relative']:+.1%}",
                      f"{r['wins']}/{r['pairs']}",
                      f"{_num(r['gap'])} vs {_num(r['parent_iqr'])}",
                      "WORSE" if r["worse"] else "gain" if r["gain"] else "-"])
    if tier1_runs:
        parent, change = tier1_runs["parent"], tier1_runs["change"]
        lines.append(["tier-1", "wall_s", _tier1_side(parent), _tier1_side(change),
                      f"{(change['wall_s'] - parent['wall_s']) / parent['wall_s']:+.1%}",
                      "1 run each", "", "-"])
    return markdown(["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
                     "change", "wins", "gap vs parent IQR", "verdict"], lines)


def paired_table(rows):
    """The per-pair statistics of the summary rows as a Markdown table."""
    lines = []
    for r in rows:
        if r["pairs"]:
            ratio = "-" if r["pair_ratio"] is None else f"{r['pair_ratio']:.4f}"
            method = "" if r["p_method"] == "exact" else f" ({r['p_method']})"
            lines.append([r["workload"], r["metric"], str(r["pairs"]), ratio,
                          _num(r["p_value"]) + method])
    return markdown(["workload", "metric", "pairs", "median pair ratio", "Wilcoxon p"], lines)


# ---------------------------------------------------------------- processes

def cpu_times():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except OSError:
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def extract(rev, directory):
    """The files of ``rev`` under ``directory``, through ``git archive``."""
    archive = os.path.join(directory, "tree.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev], cwd=ROOT, check=True)
    tree = os.path.join(directory, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return tree


def copy_worktree(directory):
    """The working tree's files under ``directory``: those git tracks, as
    edited, and the untracked ones it does not ignore. A tracked file deleted
    in the working tree is left out."""
    tree = os.path.join(directory, "tree")
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = os.path.join(ROOT, name)
        if not os.path.isfile(source):
            continue
        target = os.path.join(tree, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)
    return tree


def _env(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # as perfbench pins them, so sums keep their order
    return env


def _last_json(proc):
    return json.loads(proc.stdout.decode().splitlines()[-1])


def tree_body(tree, workload, seed):
    """What ``TREE_BODY`` reports for ``workload`` at ``seed`` in ``tree``:
    ``hashes`` ({file: sha256}) and, at TRACE_SEED, ``calls`` and
    ``traced_peak_bytes`` of a second, counted body. RuntimeError unless it
    imported ``fuzzyrough`` from the tree's own ``src`` and every body it
    ran exited 0."""
    count = ["count"] if seed == TRACE_SEED else []
    with tempfile.TemporaryDirectory(prefix="compare-") as scratch:
        proc = subprocess.run([sys.executable, "-c", TREE_BODY, workload, str(seed), scratch,
                               *count], cwd=tree, env=_env(tree), stdout=subprocess.PIPE,
                              check=True, timeout=600)
    result = _last_json(proc)
    if not result["package"].startswith(os.path.join(tree, "src")):
        raise RuntimeError(f"{tree} imported fuzzyrough from {result['package']}")
    if any(result["exit_codes"]):
        raise RuntimeError(f"{workload} at seed {seed} exited {result['exit_codes']} in {tree}")
    return result


def setup_times(tree, workload, seed, since):
    """``generate_s`` and ``import_s`` from the ``setup`` of the record that
    ``perfbench/run.py`` wrote in ``tree`` for an untraced run of ``workload``
    at ``seed``; None when there is none written at or after ``since`` (a
    ``time.time()`` reading), so a record left by an earlier run is not read.
    """
    path = os.path.join(tree, "perfbench", "out", "records",
                        f"{workload}-seed{seed}-trace0.json")
    try:
        if os.path.getmtime(path) < since:
            return None
        with open(path, encoding="utf-8") as fh:
            setup = json.load(fh)["setup"]
        return {"generate_s": setup["generate_s"], "import_s": setup["import_s"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def perfbench(tree, workload, seed, seconds, *options):
    """One ``perfbench/run.py`` run in ``tree``: its exit code and, when it
    passed, the result it printed last."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), *options],
                          cwd=tree, env=_env(tree), stdout=subprocess.PIPE, timeout=300)
    return proc.returncode, _last_json(proc) if proc.returncode == 0 else None


def bench_run(tree, workload, seed, seconds):
    """One perfbench run in ``tree``: its metrics, wall time, steal share and
    setup times."""
    since = time.time()
    before, started = cpu_times(), time.monotonic()
    code, result = perfbench(tree, workload, seed, seconds)
    wall, after = time.monotonic() - started, cpu_times()
    record = {"exit_code": code, "wall_s": wall, "steal_share": steal_share(before, after)}
    if result is not None:
        record["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
        record["setup"] = setup_times(tree, workload, seed, since)
    return record


def trace_run(tree, workload):
    """The layer metrics ({name: {"value", "unit"}}) of one ``perfbench/run.py
    --trace 1`` run of ``workload`` at TRACE_SEED in ``tree``, or None when
    the run failed."""
    result = perfbench(tree, workload, TRACE_SEED, 0, "--trace", "1")[1]
    return None if result is None else result["metrics"]


def layer_rows(traces):
    """One row per workload and layer metric from ``traces`` ({workload:
    {side: [``trace_run`` result, ...]}}): both sides' values, whether the
    metric is a count (any unit but seconds), whether a count differs
    between any two runs, and whether the row is blind. A count is the
    side's first run's, a time the median of its runs. A workload with a
    failed run gets one row naming the sides that failed."""
    rows = []
    for workload, sides in traces.items():
        failed = [side for side, runs in sides.items() if None in runs]
        if failed:
            rows.append({"workload": workload, "metric": None, "failed": failed})
            continue
        runs = [*sides["parent"], *sides["change"]]
        for name in dict.fromkeys(name for run in runs for name in run):
            unit = next(run[name]["unit"] for run in runs if name in run)
            count = unit != "s"
            parent, change = ([run[name]["value"] if name in run else None
                               for run in sides[side]] for side in ("parent", "change"))
            a, b = (got[0] if count or None in got else statistics.median(got)
                    for got in (parent, change))
            rows.append({"workload": workload, "metric": name, "unit": unit,
                         "parent": a, "change": b, "count": count,
                         "differs": count and len(set(parent + change)) > 1,
                         "blind": workload in BLIND_ON and name.startswith(BLIND_LAYERS)})
    return rows


def layer_table(rows):
    """The layer rows as a Markdown table: counts in full, flagged DIFFERS
    or equal; times to four digits, marked reported; blind rows marked
    blind."""
    lines = []
    for r in rows:
        if r["metric"] is None:
            lines.append([r["workload"], "-", "", "", "", "trace run failed: "
                          + ", ".join(r["failed"])])
            continue
        note = ("DIFFERS" if r["differs"] else "equal") if r["count"] else "reported"
        if r["blind"]:
            note += ", blind"
        # counts in full, so two that differ never print alike
        lines.append([r["workload"], r["metric"], r["unit"],
                      *("-" if v is None else str(v) if r["count"] else _num(v)
                        for v in (r["parent"], r["change"])), note])
    return markdown(["workload", "layer metric", "unit", "parent", "change", "note"], lines)


def work_rows(counts):
    """One row per workload from ``counts`` ({workload: {side: ``tree_body``
    result at TRACE_SEED}}): each side's calls and traced peak, and change
    over parent."""
    rows = []
    for workload, sides in counts.items():
        parent, change = sides["parent"], sides["change"]
        row = {"workload": workload}
        for name in ("calls", "traced_peak_bytes"):
            row[name] = {"parent": parent[name], "change": change[name],
                         "ratio": change[name] / parent[name] if parent[name] else None}
        rows.append(row)
    return rows


def work_table(rows):
    """The work rows as a Markdown table: counts in full, ratios to four digits."""
    lines = []
    for r in rows:
        cells = [r["workload"]]
        for name in ("calls", "traced_peak_bytes"):
            ratio = r[name]["ratio"]
            cells += [str(r[name]["parent"]), str(r[name]["change"]),
                      "-" if ratio is None else f"{ratio:.4f}"]
        lines.append(cells)
    return markdown(["workload", "parent calls", "change calls", "ratio",
                     "parent traced peak bytes", "change traced peak bytes", "ratio"], lines)


def tier1(tree):
    """One run of the Tier-1 verify command in ``tree``, with the tree's own
    ``src`` first on ``PYTHONPATH``: its wall seconds, exit code and the
    passed, skipped and failed counts of pytest's last line."""
    paths = [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, stdout=subprocess.PIPE, text=True, timeout=3600)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines() or [""]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|skipped|failed)", lines[-1])}
    return {"wall_s": wall, "exit_code": proc.returncode,
            **{word: counts.get(word, 0) for word in ("passed", "skipped", "failed")}}


def host():
    """The machine and library versions the runs measured. The CPU model comes
    from /proc/cpuinfo; ``platform.processor()``, which may start a process,
    is asked only where that names none. scipy is no dependency of the
    package; without it the record names its version None."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    try:
        import scipy
    except ImportError:
        scipy = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__ if scipy else None,
            "blas": f"{blas.get('name')} {blas.get('version')}", "machine": platform.machine()}


def git(*args):
    """The stripped standard output of a git command run at the repository root."""
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, check=True,
                          text=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision to compare against")
    parser.add_argument("--pairs", type=int, default=0, help="paired runs per workload")
    parser.add_argument("--out", help="write every record and the summary to this JSON file")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    rev = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    head = git("rev-parse", "HEAD")
    edited = git("status", "--porcelain")
    report = {"parent": rev, "change": head + (" with uncommitted edits" if edited else ""),
              "host": host(), "hashes": [], "runs": []}
    with tempfile.TemporaryDirectory(prefix="compare-parent-") as scratch, \
            tempfile.TemporaryDirectory(prefix="compare-change-") as change:
        trees = {"parent": extract(rev, scratch), "change": copy_worktree(change)}
        unequal, counted = 0, {}
        for workload in workloads:
            for seed in HASH_SEEDS:
                got = {side: tree_body(tree, workload, seed) for side, tree in trees.items()}
                for name in sorted(set(got["parent"]["hashes"]) | set(got["change"]["hashes"])):
                    a = got["parent"]["hashes"].get(name)
                    b = got["change"]["hashes"].get(name)
                    unequal += a != b
                    report["hashes"].append({"workload": workload, "seed": seed, "file": name,
                                             "parent": a, "change": b, "equal": a == b})
                    print(f"{workload} seed {seed} {name}: {'equal' if a == b else 'DIFFERS'}")
                if seed == TRACE_SEED:
                    counted[workload] = got
        report["work"] = work_rows(counted)
        for workload in workloads:
            for i in range(args.pairs):
                seed = FIRST_PAIR_SEED + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    record = bench_run(trees[side], workload, seed, benchmark["run_seconds"])
                    record.update(workload=workload, seed=seed, side=side, position=position)
                    report["runs"].append(record)
                    print(f"{workload} seed {seed} {side}: exit {record['exit_code']}, "
                          f"steal {record['steal_share']}", file=sys.stderr)
        traces = {workload: {"parent": [], "change": []} for workload in workloads}
        for workload in workloads:
            for side in TRACE_ORDER:
                traces[workload][side].append(trace_run(trees[side], workload))
        report["layers"] = layer_rows(traces)
        report["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    report["summary"] = summarize(report["runs"], benchmark["end_to_end"])
    report["failed_runs"] = sum(r["exit_code"] != 0 for r in report["runs"])
    failed_traces = sum(run is None for sides in traces.values()
                        for runs in sides.values() for run in runs)
    print(f"{len(report['hashes']) - unequal} of {len(report['hashes'])} output files equal")
    print(f"{report['failed_runs']} of {len(report['runs'])} runs failed")
    print(f"{failed_traces} of {len(TRACE_ORDER) * len(workloads)} trace runs failed")
    print(layer_table(report["layers"]))
    print(paired_table(report["summary"]))
    print(work_table(report["work"]))
    print(table(report["summary"], report["tier1"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    worse = any(row.get("worse") for row in report["summary"])
    return 1 if unequal or worse or report["failed_runs"] or failed_traces else 0


if __name__ == "__main__":
    sys.exit(main())
