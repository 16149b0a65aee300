"""fuzzyrough benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/fuzzyrough``. The run

1. generates the workload's inputs from the seed SETUP_REPEATS times (each
   into a fresh directory under perfbench/out) and checks they are identical;
2. with ``--trace 0``, starts one fresh worker process (worker.py) that times
   its own ``import fuzzyrough`` and then repeats the workload body until S
   seconds have passed and at least MIN_REPS repetitions have run; with
   ``--trace 1``, starts one untraced and two traced workers that run the
   body once each;
3. checks every repetition's outputs (see workloads.py) and, for the
   protocol workloads, compares them with perfbench/reference.json when the
   seed is recorded there;
4. prints the result as the last line of stdout and writes a record with the
   environment, every repetition's timings and the metrics to
   perfbench/out/records.

End-to-end metrics (``--trace 0``): setup_s is the median over
SETUP_REPEATS set-ups of generation time plus one fresh-process import time
(the worker's, topped up by import-only processes); run_s is the median
repetition wall time; peak_rss_mb is the worker's peak resident set size;
pass_rate is 1 - failed/attempted operations (the error rate is
failed/attempted). Per-layer metrics (``--trace 1``) come from the two
traced workers: counts must repeat exactly between them, times are their
median, and tracing.overhead_s is the traced run_s minus the untraced run_s.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("protocol_wdbc", "protocol_many", "classify_large", "approx_library")
SETUP_REPEATS = 3
MIN_REPS = 2  # the median of two repetitions halves the effect of one slow interval
WORKER_EXIT_S = 5.0  # time a worker needs after its last repetition
DEADLINE_S = 170.0  # a run must end within 180 s
# One BLAS thread: at most nproc on any machine, and sums come out in the same
# order everywhere, so the recorded reference outputs stay byte-comparable.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _inputs_digest(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name != "manifest.json":
            with open(os.path.join(directory, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return digest.hexdigest()


def run_worker(workload, manifest_path, out_dir, trace, seconds, min_reps, deadline):
    """One worker process: its result, plus its wall time and trace flag."""
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "worker.json")
    started = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, manifest_path, out_dir,
           "1" if trace else "0", str(seconds), str(min_reps),
           str(deadline - started - WORKER_EXIT_S), result_path]
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = time.monotonic() - started
    result["trace"] = trace
    return result


def _import_s():
    """Time ``import fuzzyrough`` in a fresh process, as a worker does."""
    code = ("import time; t = time.perf_counter(); import fuzzyrough, fuzzyrough.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_worker_env(),
                         stdout=subprocess.PIPE, check=True, timeout=60)
    return float(out.stdout)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace, scratch, deadline):
    import tracer
    import workloads

    gen_s, digests = [], set()
    for r in range(SETUP_REPEATS):
        directory = os.path.join(scratch, f"inputs{r}")
        os.makedirs(directory)
        started = time.perf_counter()
        manifest = workloads.generate(workload, seed, directory)
        gen_s.append(time.perf_counter() - started)
        digests.add(_inputs_digest(directory))
    if len(digests) != 1:
        raise RuntimeError("the same seed generated different inputs")
    manifest_path = os.path.join(directory, "manifest.json")

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(workload, {}).get(str(seed))
    check = workloads.CHECKS[workload]

    # --trace 0: one worker repeats the body; --trace 1: an untraced worker and
    # two traced ones run it once each
    plan = [(False, 0.0, 1), (True, 0.0, 1), (True, 0.0, 1)] if trace else \
        [(False, seconds, MIN_REPS)]
    workers, attempted, failed, first = [], 0, 0, None
    for traced, worker_seconds, min_reps in plan:
        out_dir = os.path.join(scratch, f"worker{len(workers)}")
        worker = run_worker(workload, manifest_path, out_dir, traced, worker_seconds, min_reps,
                            deadline)
        for i, rep in enumerate(worker["reps"]):
            rep_dir = os.path.join(out_dir, f"rep{i}")
            rep["attempted"] = rep["failed"] = manifest["operations"]
            if rep["exit_code"] == 0:
                try:
                    rep["failed"] = check(manifest, rep_dir, first, reference)
                except (OSError, ValueError, IndexError) as exc:  # missing or malformed
                    print(f"perfbench: unreadable output: {exc}", file=sys.stderr)
            attempted += rep["attempted"]
            failed += rep["failed"]
            first = first or rep_dir
        workers.append(worker)
        if traced:
            shutil.move(os.path.join(out_dir, "spans.npz"), os.path.join(
                OUT, "records", f"{workload}-seed{seed}-worker{len(workers) - 1}.npz"))

    import_s = [w["import_s"] for w in workers[:SETUP_REPEATS]]
    import_s += [_import_s() for _ in range(SETUP_REPEATS - len(import_s))]
    setup_s = statistics.median(g + i for g, i in zip(gen_s, import_s))
    if not trace:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "run_s": _metric(statistics.median(r["run_s"] for r in workers[0]["reps"]), "s"),
            "peak_rss_mb": _metric(workers[0]["peak_rss_mb"], "MB"),
            "pass_rate": _metric(1.0 - failed / attempted, "share"),
        }
    else:
        one, two = workers[1:]
        units = tracer.layer_metric_units()
        metrics = {}
        for name, unit in units.items():
            a, b = one["layers"][name], two["layers"][name]
            if unit == "s":
                metrics[name] = _metric(statistics.median([a, b]), unit)
                continue
            # counts and computed bytes must repeat exactly between traced runs
            attempted += 1
            if a != b:
                failed += 1
                print(f"perfbench: {name} differs between traced runs: {a} != {b}",
                      file=sys.stderr)
            metrics[name] = _metric(a, unit)
        run_s = [w["reps"][0]["run_s"] for w in workers]
        metrics["tracing.overhead_s"] = _metric(statistics.median(run_s[1:]) - run_s[0], "s")
        metrics["bench.error_rate"] = _metric(failed / attempted, "share")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workloads.WHY[workload], "layer_table": workloads.LAYER_TABLE,
        "env": dict(workers[0]["env"], nproc=os.cpu_count(),
                    affinity=len(os.sched_getaffinity(0)), blas_threads=BLAS_THREADS,
                    machine=os.uname().machine),
        "reference_checked": reference is not None,
        "setup": {"generate_s": gen_s, "import_s": import_s},
        "workers": [{k: w[k] for k in ("trace", "wall_s", "import_s", "peak_rss_mb", "reps")}
                    for w in workers],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, "records", f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def prepare():
    """Pin BLAS threads, compile the package and make the output directories;
    False when the checkout holds no package to measure."""
    if not os.path.isfile(os.path.join(SRC, "fuzzyrough", "__init__.py")):
        return False
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    # write the bytecode once, so every worker's import reads compiled modules
    compileall.compile_dir(os.path.join(SRC, "fuzzyrough"), quiet=1)
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not prepare():
        return fail(f"no fuzzyrough package under {SRC}")
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         scratch, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
