#!/usr/bin/env python3
"""Builds bench_ivr from this checkout's sources and runs one workload.

    python3 bench/ivr_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first run configures the repository's
own CMake project under .bench_build/ivr_bench, with bench_ivr.cmake
adding the bench_ivr target, and builds that target (the src/ libraries
plus bench_ivr, with the project's -Werror); later runs reuse the build. The
binary's metric lines pass through to stdout, and the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics: the
BENCHMARK.json end_to_end metrics with --trace 0, its per_layer metrics
with --trace 1. The exit code is nonzero when the build fails, a
correctness gate fails or a listed metric is missing.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build", "ivr_bench")
BINARY = os.path.join(BUILD, "bench_ivr")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree beside bench/ivr_bench: nothing to build")
    configure = ["cmake", "-S", ROOT, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 "-DCMAKE_PROJECT_ivr_INCLUDE="
                 + os.path.join(HERE, "bench_ivr.cmake")]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in ([] if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
                    else [configure]) + [
            ["cmake", "--build", BUILD, "--target", "bench_ivr", "-j", jobs]]:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(command))


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # a running build or benchmark instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    build()

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(BUILD, "work-" + tag)
    out = os.path.join(BUILD, "results", tag + ".json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    if os.path.exists(out):
        os.remove(out)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--out", out]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, "results", tag + ".trace.jsonl")]
    try:
        code = subprocess.run(command).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not os.path.isfile(out):
        fail("bench_ivr exited %d without a result" % code)
    with open(out) as f:
        result = json.load(f)

    metrics = {}
    for entry in listed:
        measured = result["metrics"].get(entry["name"])
        if measured is None:
            fail("bench_ivr reported no metric " + entry["name"])
        if measured["unit"] != entry["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (entry["name"], measured["unit"], entry["unit"]))
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": measured["unit"]}
    sys.stdout.flush()
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
