"""Record the protocol workloads' reference outputs for a range of seeds.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED

Rewrites perfbench/reference.json with, per protocol workload and seed, a
short hash of every line of results.csv, usage_counts.csv and the two
Wilcoxon CSVs. run.py compares each protocol run whose seed is recorded with
it, so re-record only when a change is meant to alter those reports.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import run


def main(argv):
    first, last = (int(a) for a in argv)
    if not run.prepare():
        return run.fail(f"no fuzzyrough package under {run.SRC}")
    import workloads

    reference = {}
    for workload in ("protocol_wdbc", "protocol_many"):
        reference[workload] = {}
        for seed in range(first, last + 1):
            scratch = tempfile.mkdtemp(prefix=f"reference-{workload}-", dir=run.OUT)
            try:
                workloads.generate(workload, seed, scratch)
                out_dir = os.path.join(scratch, "worker")
                result = run.run_worker(workload, os.path.join(scratch, "manifest.json"),
                                        out_dir, False, 0.0, 1,
                                        time.monotonic() + run.DEADLINE_S)
                exit_code = result["reps"][0]["exit_code"]
                if exit_code != 0:
                    return run.fail(f"{workload} seed {seed}: the CLI exited with {exit_code}")
                reference[workload][str(seed)] = workloads.protocol_hashes(
                    os.path.join(out_dir, "rep0"))
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            print(f"{workload} seed {seed}", file=sys.stderr)
    # one line per seed keeps the file small and its diffs readable
    workload_blocks = []
    for workload, seeds in reference.items():
        lines = [f'  "{seed}": {json.dumps(hashes, separators=(",", ":"))}'
                 for seed, hashes in seeds.items()]
        workload_blocks.append(f' "{workload}": {{\n' + ",\n".join(lines) + "\n }")
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(workload_blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
