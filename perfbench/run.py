#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call builds the benchmark and
the ringjoin library it links from source into .bench_build/; later calls
reuse that build. Build output goes to stderr. The benchmark's own stdout
passes through unchanged, and its last line is the JSON result. The exit code
is the benchmark's: nonzero when a self-check failed or nothing could be
built or run.
"""
import argparse
import fcntl
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analytics_full", "interactive_topk", "live_churn", "cold_scan")
BUILD_TIMEOUT_S = 700


def run_timeout_s(seconds):
    """The load, then the ladder or the stand-ups, with room to spare."""
    return 3 * seconds + 120


def build(build_dir):
    """Configures and builds the benchmark; returns the binary's path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if not (build_dir / "CMakeCache.txt").exists() and shutil.which(
                "ninja"):
            configure += ["-G", "Ninja"]
        for command in (configure,
                        ["cmake", "--build", str(build_dir), "-j", "4"]):
            subprocess.run(command, check=True, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = ROOT / ".bench_build"
    try:
        binary = build(out / "perfbench")
    except (OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    work = out / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    spans = out / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", str(work)]
    if args.trace:
        command += ["--spans",
                    str(spans / f"{args.workload}-{args.seed}.jsonl")]
    try:
        return subprocess.run(
            command, timeout=run_timeout_s(args.seconds)).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
