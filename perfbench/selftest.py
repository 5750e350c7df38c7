#!/usr/bin/env python3
"""Self-tests of the benchmark, runnable in about ten seconds.

    python3 perfbench/selftest.py

1. The span-arithmetic unit test (cpp/span_test.cpp): self time is duration
   minus the union of child intervals, so overlapping children count once.
2. A smoke scale run of every workload in both modes.  Each run must:
   - exit 0 with "correct": true;
   - print exactly the metrics BENCHMARK.json declares for the mode, each
     with its unit and a finite value;
   - run every correctness check that applies to it, and check the report
     of every epoch it counts as attempted;
   - in traced mode, write its span files and meet the ledger tolerance.

Exits non-zero on the first failing workload or test, after printing why.
"""

import json
import math
import os
import subprocess
import sys

import run

WORKLOADS = ("interleaved", "bursty", "fleet")
SPANS = os.path.join(run.ROOT, ".bench_build", "selftest-spans")


def fail(why):
    print("FAIL:", why)
    sys.exit(1)


def smoke(workload, trace):
    cmd = [os.path.join(run.BUILD, "perfbench"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "smoke", "--spans-dir", SPANS]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    label = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (label, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("%s printed %d lines" % (label, len(lines)))
    result = run.validate(lines[-1], trace == 1)
    if result is None:
        fail("%s: the result line does not match BENCHMARK.json" % label)
    descriptors = json.loads(lines[-2])["descriptors"]

    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s" % (
            label, result["correct"], result["attempted"], result["failed"]))
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s = %r" % (label, name, value))

    checks = descriptors["checks"]
    required = ["packets_seen", "flows_reported", "total_within_4sd"]
    if workload == "fleet" or trace == 1:
        required.append("reports_accepted")
    for check in required:
        if checks[check]["run"] < 1:
            fail("%s never ran the %s check" % (label, check))
        if checks[check]["failed"] != 0:
            fail("%s failed the %s check" % (label, check))
    # Every attempted epoch had its report checked once; the traced run's
    # single-thread replay adds one epoch checked for acceptance only.
    reported = result["attempted"] - (1 if trace == 1 else 0)
    if checks["flows_reported"]["run"] != reported:
        fail("%s checked %d reports for %d epochs" % (
            label, checks["flows_reported"]["run"], reported))

    if trace == 1:
        stages = ["system", "replay"] + (["pipeline"] if workload == "fleet" else [])
        for stage in stages:
            path = os.path.join(SPANS, "%s-seed1-%s.csv" % (workload, stage))
            if not os.path.isfile(path) or os.path.getsize(path) < 100:
                fail("%s did not write spans to %s" % (label, path))
        if not descriptors["ledger"]["covered_share_ok"]:
            fail("%s: ledger.covered_share %.3f is below the tolerance" % (
                label, result["metrics"]["ledger.covered_share"]["value"]))
    print("ok   %-24s %d metrics, checks %s" % (
        label, len(result["metrics"]), ", ".join("%s=%d" % (c, checks[c]["run"]) for c in required)))


def main():
    if not run.build(("perfbench", "perfbench_span_test")):
        fail("build")
    proc = subprocess.run([os.path.join(run.BUILD, "perfbench_span_test")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        fail("span arithmetic:\n" + proc.stdout)
    print("ok   span arithmetic")
    os.makedirs(SPANS, exist_ok=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            smoke(workload, trace)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
