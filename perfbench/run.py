#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload spmm-fem --seed 1 --seconds 15 --trace 0

Builds the benchmark binary (perfbench/CMakeLists.txt, which builds the repository's
own sources) into .bench_build/perfbench, then runs three processes:
`prepare` generates the seeded inputs and output oracles into a per-run
work directory, `quiet` waits (boundedly) until a fixed probe says no other
tenant is loading the host, and `measure` times the requests, checks the
outputs and prints the metrics.  Exits non-zero without a result line if the build,
the preparation or the measurement fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("spmm-fem", "hh-scalefree", "cc-mtx", "serve-mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # preparation plus measurement, after the build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_step(cmd, timeout, capture=False):
    """Run `cmd`; its stdout is captured or sent to stderr."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def build(root, build_dir):
    ninja = shutil.which("ninja") is not None
    if not os.path.exists(os.path.join(build_dir, "build.ninja" if ninja else "Makefile")):
        gen = ["-G", "Ninja"] if ninja else []
        run_step(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"] + gen, BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", build_dir, "--target", "nbwp_perfbench",
              "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "nbwp_perfbench")


def sync_dir(path):
    """Flush the prepared files so their write-back does not overlap the
    timed requests."""
    for name in os.listdir(path):
        fd = os.open(os.path.join(path, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_dir = os.path.join(root, ".bench_build", "perfbench")
    work = os.path.join(bench_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        binary = build(root, os.path.join(bench_dir, "build"))
        deadline = time.monotonic() + RUN_TIMEOUT_S

        def step(mode, *extra, capture=False):
            return run_step([binary, mode, *common, *extra],
                            max(1.0, deadline - time.monotonic()), capture)

        state = os.path.join(bench_dir, "state")
        os.makedirs(work, exist_ok=True)
        step("prepare", "--work", work)
        sync_dir(work)
        out = step("quiet", "--state", state, capture=True)
        out += step("measure", "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--work", work, "--state", state, "--git-sha", git_sha(root),
                    capture=True)
    except (RuntimeError, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        log("perfbench: the benchmark printed no result line")
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
