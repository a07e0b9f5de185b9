#!/usr/bin/env python3
"""Build and run the simulator's single-thread benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the simulator libraries it compiles from src/) into
.bench_build/perfbench; later calls rebuild incrementally. The benchmark's
standard output is passed through. Its last line is one JSON object, and
this script checks that it names exactly the metrics BENCHMARK.json
declares for the mode (end_to_end for --trace 0, per_layer for --trace 1).
--test builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def check_result(line, trace):
    """Returns why the result line is malformed or disagrees with BENCHMARK.json, or None."""
    try:
        result = json.loads(line)
        with open(MANIFEST, encoding="utf-8") as f:
            manifest = json.load(f)
    except (ValueError, OSError) as e:
        return str(e)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected keys " + str(sorted(result))
    declared = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    printed = {k: v.get("unit") for k, v in result["metrics"].items()}
    bad = [k for k in printed if not NAME_RE.match(k)]
    if bad:
        return "malformed metric names " + str(bad)
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        return "metrics differ from BENCHMARK.json: missing %s, undeclared %s, or units differ" % (
            missing, extra)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()

    if args.test:
        binary = build("perfbench_test")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S, check=False).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")
    if not os.path.isfile(MANIFEST):
        fail("BENCHMARK.json not found at " + MANIFEST)

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=False,
                          text=True)
    out = done.stdout.rstrip("\n")
    if done.returncode != 0:
        if out:
            print(out, file=sys.stderr)
        fail("benchmark exited with code %d" % done.returncode, done.returncode or 1)
    why = check_result(out.splitlines()[-1] if out else "", args.trace == 1)
    if why is not None:
        print(out, file=sys.stderr)
        fail("bad result line: " + why, 1)
    print(out, flush=True)


if __name__ == "__main__":
    main()
