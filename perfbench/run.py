"""Benchmark of the ualgebra kernel.

Run from the root of a ualgebra checkout:

    python3 perfbench/run.py --workload big_terms --seed 1 --seconds 20 --trace 0

The benchmark generates the workload's inputs from --seed into
`.perfbench/` under the checkout, runs the workload in a child process
with `src` on PYTHONPATH (so peak memory and set-up belong to that
workload alone), checks every output, and prints a table of the metrics
with units and sample counts.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports
the end-to-end metrics; --trace 1 reports the per-layer metrics from a
traced run and writes its spans to `.perfbench/spans-<workload>.jsonl`.
See DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from worker import FULL_PARTS  # noqa: E402

WORKER_TIMEOUT_S = 170

# The input section of gen.py that holds each part's inputs, where the
# names differ.
SECTION = {"equations": "search", "maps": "search", "enum": "search"}


def main():
    ap = argparse.ArgumentParser(description="ualgebra benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(FULL_PARTS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ualgebra", "__init__.py")):
        print("perfbench: no ualgebra source tree at src/ualgebra; run from a checkout root",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".perfbench")
    run_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    try:
        full = {SECTION.get(p, p) for p in FULL_PARTS[args.workload]}
        spec = gen.write_inputs(run_dir, args.seed, full)
        spec_path = os.path.join(run_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spec", spec_path,
               "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.jsonl")]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=root,
                              timeout=WORKER_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = {}
    if args.trace:
        for name, (value, unit) in result["layer"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:36s} {value:16.6g} {unit}")
    else:
        print(f"times at the reference speed; this run's factor {result['speed_factor']:.4f}")
        for name, (value, samples, unit) in result["e2e"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:36s} {value:16.6g} {unit:5s} samples={samples}")
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
