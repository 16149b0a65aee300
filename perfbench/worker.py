"""Timed repetitions of one workload in a fresh process.

    python3 perfbench/worker.py WORKLOAD MANIFEST OUT_DIR TRACE SECONDS MIN_REPS MAX_S \
        RESULT_JSON

Times ``import fuzzyrough`` (with its CLI module), optionally installs the
tracer, then runs the workload body into OUT_DIR/rep0, rep1, ... until at
least MIN_REPS repetitions have run and SECONDS have passed, never starting
one that would end after MAX_S. Writes the import time, each repetition's
wall and CPU time and exit code, the peak RSS, the environment and (when
traced) the per-layer metrics to RESULT_JSON; the spans go to
OUT_DIR/spans.npz. run.py starts this with the package on PYTHONPATH.
"""

import json
import os
import platform
import resource
import sys
import time


def main(argv):
    workload, manifest_path, out_dir, trace, seconds, min_reps, max_s, result_path = argv
    started = time.perf_counter()
    import fuzzyrough
    import fuzzyrough.cli  # noqa: F401  (the CLI workloads' entry point)
    import_s = time.perf_counter() - started

    import numpy
    import scipy

    import workloads

    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    body = workloads.BODIES[workload]
    reps = []
    loop_started = time.perf_counter()
    while True:
        rep_dir = os.path.join(out_dir, f"rep{len(reps)}")
        os.makedirs(rep_dir)
        started, cpu_started = time.perf_counter(), time.process_time()
        info = body(manifest, rep_dir)
        reps.append({"run_s": time.perf_counter() - started,
                     "cpu_s": time.process_time() - cpu_started,
                     "exit_code": info["exit_code"]})
        elapsed = time.perf_counter() - loop_started
        if len(reps) >= int(min_reps) and (elapsed >= float(seconds)
                                           or elapsed + reps[-1]["run_s"] > float(max_s)):
            break

    result = {
        "import_s": import_s,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "fuzzyrough": fuzzyrough.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(info["test_rows"] * len(reps))
        tracer.write(os.path.join(out_dir, "spans.npz"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
