#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload interleaved --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program and the library it measures
are built with CMake into .bench_build/perfbench (Release); an up-to-date
build is a no-op.  --trace 1 also writes the run's spans as CSV under
.bench_build/spans.  The last line of standard output is the result object
{correct, attempted, failed, metrics}; the line before it holds the run
descriptors.  The exit status is non-zero when the build fails, when a
correctness check fails, or when the result does not name exactly the
metrics BENCHMARK.json declares for the mode.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build(targets=("perfbench",)):
    """Configures (once) and builds `targets`; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found next to", HERE, "- nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    """{name: unit} for the mode, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def validate(line, trace):
    """Returns the parsed result, or None (with a log line) when malformed."""
    try:
        result = json.loads(line)
    except ValueError:
        log("last line is not JSON:", line[:200])
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result keys are", sorted(result))
        return None
    want = declared_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        log("metrics differ from BENCHMARK.json; missing", missing,
            "extra", extra, "wrong unit", wrong)
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["interleaved", "bursty", "fleet"],
                        help="fleet runs as a diagnostic; BENCHMARK.json does not "
                             "gate it (README.md, Steadiness)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; 1 is the default, 2 confirms claims")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    os.makedirs(SPANS, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans-dir", SPANS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded", RUN_TIMEOUT_S, "s")  # run() killed and reaped it
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("benchmark printed nothing; exit status", proc.returncode)
        return proc.returncode or 4
    result = validate(lines[-1], args.trace == 1)
    if result is None:
        return 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        log("a correctness check failed; see the descriptors line")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
