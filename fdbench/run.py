#!/usr/bin/env python3
"""Builds fdbench from this checkout and runs its workloads.

    python3 fdbench/run.py [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]

Run it from the root of the repository. Both builds are made every time
(cargo makes them only once): the release build measures the end-to-end
metrics, the `traced` profile with the telemetry feature the per-layer ones.
Each workload runs in a process of its own, so its peak memory is its own.

With one workload, the last line of standard output is that workload's JSON
result. With `all` (the default), every workload runs in turn; the results
are written to <target>/fdbench-out/result-seed<N>.json and the last line is
their combined JSON.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["tall", "wide", "small-clusters", "serve-read", "serve-write"]


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return Path(target) if target else HERE / "target"


def build(args):
    cmd = ["cargo", "build", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    subprocess.run(cmd + args, check=True, stdout=sys.stderr)


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, out_dir, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    differ = declared_metrics(args.trace) ^ set(result["metrics"])
    if differ:
        print(f"fdbench: {workload}: metrics differ from BENCHMARK.json: {sorted(differ)}",
              file=sys.stderr)
        sys.exit(1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    try:
        build(["--release"])
        build(["--profile", "traced", "--features", "telemetry"])
    except subprocess.CalledProcessError as e:
        print(f"fdbench: build failed ({e.returncode})", file=sys.stderr)
        sys.exit(1)
    target = target_dir()
    binary = target / ("traced" if args.trace else "release") / "fdbench"
    # Relative when possible: the served CSV paths travel through the
    # whitespace-split line protocol.
    out_dir = Path(os.path.relpath(target / "fdbench-out"))

    if args.workload != "all":
        run_workload(binary, out_dir, args.workload, args)
        return
    results = {w: run_workload(binary, out_dir, w, args) for w in WORKLOADS}
    combined = json.dumps({"schema": "fdbench/v1", "seed": args.seed, "trace": args.trace,
                           "seconds": args.seconds, "workloads": results})
    (out_dir / f"result-seed{args.seed}{'-trace' if args.trace else ''}.json").write_text(combined + "\n")
    print(combined)


if __name__ == "__main__":
    main()
