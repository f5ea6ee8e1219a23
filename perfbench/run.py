#!/usr/bin/env python3
"""Build and run the Spider benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--scale full|tiny]

Builds perfbench/ (which builds the spider library from this checkout's
sources) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then measures each requested workload in its own process, so each run's
peak resident set is that workload's alone.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split from
a separately traced run (see perfbench/README.md). Every metric prints as
"metric <workload> <name> = <value> <unit>"; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}. With
--workload all its metric names are "<workload>/<name>".

--seed (default 1) seeds the generated payment trace and the router RNG;
the same seed gives the same inputs.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["ripple-dctcp-replay", "isp-lp"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(
            f"no spider sources under {ROOT}: the benchmark builds the "
            "library from the checkout it runs in")
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "spider_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "spider_perfbench"


def run_workload(binary, workload, args):
    """Runs one workload; returns its result object (never raises)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", str(build_dir() / "work")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        log(f"{workload}: exited with code {proc.returncode} "
            "without a result")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 2
    if args.workload != "all":
        result = run_workload(binary, args.workload, args)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            one = run_workload(binary, workload, args)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
