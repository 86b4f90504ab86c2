#!/usr/bin/env python3
"""Build knnq and the benchmark program in Release, then run one workload.

Run from the root of a knnq checkout:

  python3 perfbench/run.py --threads 3 --cache-mb 8 \
      --workload point_lookup --seed 1 --seconds 10 --trace 0

Builds into $CARGO_TARGET_DIR (default .bench_build) with CMake: the
knnq library, `knnq_cli` (the server under test), `perfbench` (the load
generator and in-process replay) and `perfbench_test` (the tests of the
benchmark's own statistics, run once per build). Every flag is passed
to `perfbench`; see perfbench/README.md. Its last
stdout line is the run's JSON result, and its exit code is ours.
"""

import argparse
import fcntl
import os
import subprocess
import sys


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the Release targets; returns the binaries."""
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "knnq_cli", "perfbench", "perfbench_test"])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(build_log) as tail:
                    sys.stderr.write("".join(tail.readlines()[-40:]))
                log("build failed; see " + build_log)
                sys.exit(1)
    bins = {
        "knnq_cli": os.path.join(build_dir, "knnq", "knnq_cli"),
        "perfbench": os.path.join(build_dir, "perfbench"),
        "perfbench_test": os.path.join(build_dir, "perfbench_test"),
    }
    # The statistics the benchmark reports are tested once per build.
    stamp = os.path.join(build_dir, "perfbench_test.passed")
    test_mtime = os.path.getmtime(bins["perfbench_test"])
    if not os.path.exists(stamp) or os.path.getmtime(stamp) < test_mtime:
        with open(build_log, "a") as out:
            if subprocess.run([bins["perfbench_test"]], stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                log("perfbench_test failed; see " + build_log)
                sys.exit(1)
        with open(stamp, "w") as f:
            f.write("ok\n")
    return bins


def main():
    parser = argparse.ArgumentParser(add_help=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    # Checks the four flags every run needs; all flags, these included,
    # go to perfbench unchanged.
    parser.parse_known_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("no knnq source tree here (CMakeLists.txt and src/ missing); "
            "run from the root of a checkout")
        return 2
    build_dir = os.path.abspath(
        os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))

    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        # One run at a time per build tree: builds and run dirs are shared.
        fcntl.flock(lock, fcntl.LOCK_EX)
        bins = build(root, build_dir)
        args = [bins["perfbench"]] + sys.argv[1:] + [
            "--knnq-cli", bins["knnq_cli"],
            "--work-dir", os.path.join(build_dir, "runs"),
            "--results", os.path.join(build_dir, "results.jsonl"),
            "--spans", os.path.join(build_dir, "spans.tsv"),
        ]
        sys.stdout.flush()
        return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
