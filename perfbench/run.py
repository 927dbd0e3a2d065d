#!/usr/bin/env python3
"""Build and run one Magus benchmark run.

    python3 perfbench/run.py --workload fleet-plan --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds the library plus the harness (perfbench/harness.cpp) in Release
under .bench_build/perfbench; later calls rebuild incrementally. Each run
gets a fresh directory under .bench_runs/ for its path-loss files and
journals, removed when the run ends, so nothing stays warm between runs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it carries the
run's provenance (git sha, build type, SIMD backend, nproc, threads,
seed). Progress and build logs go to standard error. A traced run's spans
are kept as .bench_build/perfbench/spans/<workload>-seed<N>.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fleet-plan", "market-joint", "fleet-execute")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def scoped_env(build_dir):
    """The environment for child processes: temporary files stay inside
    the checkout."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Magus sources next to perfbench/ (expected src/CMakeLists.txt)")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.abspath(build_root).startswith(ROOT + os.sep):
        build_root = os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", build_dir, "--target",
                          "magus_perfbench", "-j", jobs])
            for step in steps:
                try:
                    code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                          env=scoped_env(build_dir),
                                          timeout=BUILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    fail("build timed out; see " + log_path)
                if code != 0:
                    with open(log_path) as shown:
                        sys.stderr.write(shown.read()[-4000:])
                    fail("build failed; see " + log_path)
    return os.path.join(build_dir, "magus_perfbench")


def run(binary, args):
    """Runs the harness in a fresh directory; returns its result."""
    runs_root = os.path.join(ROOT, ".bench_runs")
    run_dir = os.path.join(runs_root, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", run_dir]
    try:
        process = subprocess.Popen(command, stdout=sys.stderr, stderr=sys.stderr,
                                   env=scoped_env(os.path.dirname(binary)))
        try:
            code = process.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
        if code != 0:
            fail("harness exited with code %d" % code)
        spans = os.path.join(run_dir, "spans.json")
        if os.path.isfile(spans):
            # The traced run's span list outlives the run directory.
            kept = os.path.join(os.path.dirname(binary), "spans")
            os.makedirs(kept, exist_ok=True)
            shutil.copyfile(spans, os.path.join(
                kept, "%s-seed%d.json" % (args.workload, args.seed)))
        with open(os.path.join(run_dir, "result.json")) as f:
            return json.load(f)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(runs_root)
        except OSError:
            pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    result = run(build(), args)
    print(json.dumps({"provenance": result["provenance"], "info": result["info"],
                      "check_failures": result["check_failures"]}))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
