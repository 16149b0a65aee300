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

1. Output hashes. In each tree a subprocess whose ``PYTHONPATH`` is that
   tree's ``src`` generates every workload's inputs at seeds 0 and 11 with
   the tree's ``perfbench/workloads.py``, runs the workload body once and
   hashes every output file. Temporary paths in ``summary.json`` are masked,
   so equal outputs hash equal.
2. Pairs. With ``--pairs N`` each workload runs ``perfbench/run.py`` N times
   per side at seeds 11, 12, ..., for the ``run_seconds`` of
   ``BENCHMARK.json``. Each seed runs both sides back to back; which side runs
   first alternates from seed to seed. The host's steal share over each run
   comes from ``/proc/stat`` read before and after it. Each run's record
   also keeps the ``setup.generate_s`` and ``setup.import_s`` lists of the
   record ``perfbench/run.py`` wrote in that tree, so a change in setup_s
   shows whether it comes from the import or from generating the inputs.
3. Layers. Each workload runs ``perfbench/run.py --trace 1`` once per side
   at seed 11. Every layer metric that is not a time (calls, calls per row
   or label, computed bytes, the error rate) repeats exactly between runs of
   one tree, so each is printed for both sides and flagged when they
   differ. The times (``self_s``, ``tracing.overhead_s``) are printed and
   not judged. Rows the protocol workloads cannot move are marked blind:
   the protocol selects and scores through ``resolve_and_score`` and
   ``balanced_accuracies``, so ``comb_select``, ``predict_batch`` and
   ``balanced_accuracy`` read 0 there whatever the code does. A failed
   trace run makes the exit status 1.
4. Work counts. Per workload and side, one subprocess in that tree generates
   the inputs at seed 11, runs the body once to warm imports, memos and the
   row pool, then runs it again while ``sys.setprofile`` and
   ``threading.setprofile`` count every Python and C call and ``tracemalloc``
   records the peak of traced memory. Calls on threads that already run when
   counting starts, such as the row pool's helpers, are not counted. Unlike
   wall time these repeat almost exactly from run to run, so they show a
   change in per-call work through host noise; a call on ten elements counts
   as much as one on ten million, so they do not measure kernel work. Both
   sides' values and their ratios are printed beside the paired table,
   reported and not judged.
5. Tier-1. Each tree runs the Tier-1 verify command of ROADMAP.md once (with
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
BLIND_LAYERS = ("classifier.comb_select.", "classifier.predict_batch.",
                "evaluation.balanced_accuracy.")
BLIND_ON = ("protocol_wdbc", "protocol_many")
WIN_SHARE = 0.9  # share of pairs the change must win for a claimed gain

# Runs in a fresh interpreter inside one tree: generate, run the body once,
# hash every output file. argv: workload, seed, scratch directory.
HASH_BODY = r"""
import hashlib, json, os, sys
sys.path.insert(0, os.path.join(os.getcwd(), "perfbench"))
import fuzzyrough, workloads
workload, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
inputs, out = os.path.join(scratch, "inputs"), os.path.join(scratch, "out")
os.makedirs(inputs)
os.makedirs(out)
manifest = workloads.generate(workload, seed, inputs)
result = workloads.BODIES[workload](manifest, out)
hashes = {}
for name in sorted(os.listdir(out)):
    with open(os.path.join(out, name), "rb") as fh:
        data = fh.read()
    if name == "summary.json":
        data = data.replace(scratch.encode(), b"<tmp>")
    hashes[name] = hashlib.sha256(data).hexdigest()
print(json.dumps({"package": fuzzyrough.__file__, "exit_code": result["exit_code"],
                  "hashes": hashes}))
"""


# Runs in a fresh interpreter inside one tree: generate, run the body once
# to warm up, then once more counting calls and tracing memory. argv:
# workload, seed, scratch directory.
WORK_BODY = r"""
import json, os, sys, threading, tracemalloc
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


calls = [0]


def count(frame, event, arg):
    if event in ("call", "c_call"):
        calls[0] += 1


warm = body("warm")
tracemalloc.start()
threading.setprofile(count)
sys.setprofile(count)
counted = body("counted")
sys.setprofile(None)
threading.setprofile(None)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"exit_codes": [warm, counted], "calls": calls[0],
                  "traced_peak_bytes": peak}))
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


def table(rows, tier1_runs=None):
    """The summary rows as a Markdown table, then the tier-1 line when
    ``tier1_runs`` ({side: ``tier1`` record}) is given."""
    lines = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] "
             "| change | wins | gap vs parent IQR | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        if not r["pairs"]:
            passed = r["passed"]
            lines.append(f"| {r['workload']} | - | unpaired: {passed['parent']} parent and "
                         f"{passed['change']} change runs passed | | | 0/0 | | - |")
            continue
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        verdict = "WORSE" if r["worse"] else "gain" if r["gain"] else "-"
        lines.append(
            f"| {r['workload']} | {r['metric']} | {_num(pm)} [{_num(p1)}, {_num(p3)}] "
            f"| {_num(cm)} [{_num(c1)}, {_num(c3)}] | {r['relative']:+.1%} "
            f"| {r['wins']}/{r['pairs']} | {_num(r['gap'])} vs {_num(r['parent_iqr'])} "
            f"| {verdict} |")
    if tier1_runs:
        parent, change = tier1_runs["parent"], tier1_runs["change"]
        lines.append(f"| tier-1 | wall_s | {_tier1_side(parent)} | {_tier1_side(change)} "
                     f"| {(change['wall_s'] - parent['wall_s']) / parent['wall_s']:+.1%} "
                     f"| 1 run each | | - |")
    return "\n".join(lines)


def paired_table(rows):
    """The per-pair statistics of the summary rows as a Markdown table."""
    lines = ["| workload | metric | pairs | median pair ratio | Wilcoxon p |",
             "|---|---|---|---|---|"]
    for r in rows:
        if r["pairs"]:
            ratio = "-" if r["pair_ratio"] is None else f"{r['pair_ratio']:.4f}"
            method = "" if r["p_method"] == "exact" else f" ({r['p_method']})"
            lines.append(f"| {r['workload']} | {r['metric']} | {r['pairs']} | {ratio} "
                         f"| {_num(r['p_value'])}{method} |")
    return "\n".join(lines)


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


def output_hashes(tree, workload, seed):
    with tempfile.TemporaryDirectory(prefix="compare-") as scratch:
        proc = subprocess.run([sys.executable, "-c", HASH_BODY, workload, str(seed), scratch],
                              cwd=tree, env=_env(tree), stdout=subprocess.PIPE, check=True,
                              timeout=600)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if not result["package"].startswith(os.path.join(tree, "src")):
        raise RuntimeError(f"{tree} imported fuzzyrough from {result['package']}")
    if result["exit_code"] != 0:
        raise RuntimeError(f"{workload} at seed {seed} exited {result['exit_code']} in {tree}")
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


def bench_run(tree, workload, seed, seconds):
    """One perfbench run in ``tree``: its metrics, wall time, steal share and
    setup times."""
    since = time.time()
    before, started = cpu_times(), time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=_env(tree), stdout=subprocess.PIPE, timeout=300)
    wall, after = time.monotonic() - started, cpu_times()
    record = {"exit_code": proc.returncode, "wall_s": wall,
              "steal_share": steal_share(before, after)}
    if proc.returncode == 0:
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        record["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
        record["setup"] = setup_times(tree, workload, seed, since)
    return record


def trace_run(tree, workload):
    """The layer metrics ({name: {"value", "unit"}}) of one ``perfbench/run.py
    --trace 1`` run of ``workload`` at TRACE_SEED in ``tree``, or None when
    the run failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(TRACE_SEED), "--seconds", "0", "--trace", "1"],
                          cwd=tree, env=_env(tree), stdout=subprocess.PIPE, timeout=300)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.decode().splitlines()[-1])["metrics"]


def layer_rows(traces):
    """One row per workload and layer metric from ``traces`` ({workload:
    {side: ``trace_run`` result}}): both sides' values, whether the metric is
    a count (any unit but seconds), whether a count differs, and whether the
    row is blind. A workload with a failed side gets one row naming the
    failed sides."""
    rows = []
    for workload, sides in traces.items():
        failed = [side for side, metrics in sides.items() if metrics is None]
        if failed:
            rows.append({"workload": workload, "metric": None, "failed": failed})
            continue
        parent, change = sides["parent"], sides["change"]
        for name in dict.fromkeys([*parent, *change]):
            unit = (parent.get(name) or change[name])["unit"]
            a, b = (side[name]["value"] if name in side else None for side in (parent, change))
            count = unit != "s"
            rows.append({"workload": workload, "metric": name, "unit": unit,
                         "parent": a, "change": b, "count": count,
                         "differs": count and a != b,
                         "blind": workload in BLIND_ON and name.startswith(BLIND_LAYERS)})
    return rows


def layer_table(rows):
    """The layer rows as a Markdown table: counts in full, flagged DIFFERS
    or equal; times to four digits, marked reported; blind rows marked
    blind."""
    lines = ["| workload | layer metric | unit | parent | change | note |",
             "|---|---|---|---|---|---|"]
    for r in rows:
        if r["metric"] is None:
            lines.append(f"| {r['workload']} | - | | | | trace run failed: "
                         f"{', '.join(r['failed'])} |")
            continue
        note = ("DIFFERS" if r["differs"] else "equal") if r["count"] else "reported"
        if r["blind"]:
            note += ", blind"
        # counts in full, so two that differ never print alike
        values = ["-" if v is None else str(v) if r["count"] else _num(v)
                  for v in (r["parent"], r["change"])]
        lines.append(f"| {r['workload']} | {r['metric']} | {r['unit']} | {values[0]} "
                     f"| {values[1]} | {note} |")
    return "\n".join(lines)


def work_counts(tree, workload):
    """``calls`` and ``traced_peak_bytes`` of one warm body of ``workload`` at
    TRACE_SEED in ``tree`` (see WORK_BODY), with the two bodies' exit codes."""
    with tempfile.TemporaryDirectory(prefix="compare-") as scratch:
        proc = subprocess.run([sys.executable, "-c", WORK_BODY, workload, str(TRACE_SEED),
                               scratch], cwd=tree, env=_env(tree), stdout=subprocess.PIPE,
                              check=True, timeout=600)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def work_rows(counts):
    """One row per workload from ``counts`` ({workload: {side: ``work_counts``
    result}}): each side's calls and traced peak, and change over parent."""
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
    lines = ["| workload | parent calls | change calls | ratio | parent traced peak bytes "
             "| change traced peak bytes | ratio |", "|---|---|---|---|---|---|---|"]
    for r in rows:
        cells = [r["workload"]]
        for name in ("calls", "traced_peak_bytes"):
            ratio = r[name]["ratio"]
            cells += [str(r[name]["parent"]), str(r[name]["change"]),
                      "-" if ratio is None else f"{ratio:.4f}"]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


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
        unequal = 0
        for workload in workloads:
            for seed in HASH_SEEDS:
                got = {side: output_hashes(tree, workload, seed)
                       for side, tree in trees.items()}
                for name in sorted(set(got["parent"]["hashes"]) | set(got["change"]["hashes"])):
                    a = got["parent"]["hashes"].get(name)
                    b = got["change"]["hashes"].get(name)
                    unequal += a != b
                    report["hashes"].append({"workload": workload, "seed": seed, "file": name,
                                             "parent": a, "change": b, "equal": a == b})
                    print(f"{workload} seed {seed} {name}: {'equal' if a == b else 'DIFFERS'}")
        report["work"] = work_rows({workload: {side: work_counts(tree, workload)
                                               for side, tree in trees.items()}
                                    for workload in workloads})
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
        report["layers"] = layer_rows({workload: {side: trace_run(tree, workload)
                                                  for side, tree in trees.items()}
                                       for workload in workloads})
        report["tier1"] = {side: tier1(tree) for side, tree in trees.items()}
    report["summary"] = summarize(report["runs"], benchmark["end_to_end"])
    report["failed_runs"] = sum(r["exit_code"] != 0 for r in report["runs"])
    failed_traces = sum(len(r["failed"]) for r in report["layers"] if r["metric"] is None)
    print(f"{len(report['hashes']) - unequal} of {len(report['hashes'])} output files equal")
    print(f"{report['failed_runs']} of {len(report['runs'])} runs failed")
    print(f"{failed_traces} of {2 * len(workloads)} trace runs failed")
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
