#!/usr/bin/env python3
"""Run the performance benches and record a normalized BENCH_<n>.json.

Runs bench_micro_update (google-benchmark JSON mode), bench_pipeline and
bench_ablation_pressure (their own --json modes), normalizes all into one
document, and writes it to
BENCH_<n>.json at the repo root, where <n> auto-increments past existing
files.  Committing these snapshots gives the repo a benchmark trajectory:
each PR's perf claims stay reproducible and comparable.

Usage:
    python3 tools/bench_to_json.py [--build-dir build] [--scale 0.3]
        [--min-time 0.2] [--out PATH] [--skip-pipeline]

Stdlib only; the benches must already be built (Release recommended):
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_micro(build_dir: str, min_time: float) -> dict:
    """bench_micro_update via google-benchmark's native JSON reporter."""
    binary = os.path.join(build_dir, "bench", "bench_micro_update")
    # NOTE: --benchmark_min_time takes a plain double (seconds); the
    # suffixed "0.2s" form is rejected by the benchmark library packaged
    # on this image.
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    print("+", " ".join(cmd), file=sys.stderr)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    doc = json.loads(out.stdout)
    benchmarks = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        entry = {
            "time_ns": b.get("real_time"),
            "cpu_ns": b.get("cpu_time"),
            "iterations": b.get("iterations"),
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        benchmarks[b["name"]] = entry
    result = {"benchmarks": benchmarks}
    ctx = doc.get("context", {})
    result["context"] = {
        k: ctx[k]
        for k in ("num_cpus", "mhz_per_cpu", "library_build_type")
        if k in ctx
    }
    # Headline derived metric: the decision-table speedup this repo's fast
    # path claims (see src/core/decision_table.hpp).
    double_ns = benchmarks.get("BM_DiscoDouble", {}).get("cpu_ns")
    table_ns = benchmarks.get("BM_DiscoTable", {}).get("cpu_ns")
    if double_ns and table_ns:
        result["disco_table_speedup"] = round(double_ns / table_ns, 2)
    # The table's decision cost on the traffic perfbench runs: the volume
    # counter on perfbench's (c, l) mix, and the size counter's unit
    # increments (see BM_DiscoTableMix / BM_DiscoTableUnit).
    for key, name in (("disco_decide_mix_ns", "BM_DiscoTableMix"),
                      ("disco_decide_unit_ns", "BM_DiscoTableUnit")):
        ns = benchmarks.get(name, {}).get("cpu_ns")
        if ns:
            result[key] = round(ns, 2)
    # Derived metric: cost of the model-check atomics shim in a normal
    # build (util/atomic.hpp; docs/static-analysis.md "Model checking").
    # SpscRing-through-the-shim over the identical protocol on raw
    # std::atomic -- must hover at 1.0, or the shim stopped being free.
    shim_ns = benchmarks.get("BM_SpscRingShim", {}).get("cpu_ns")
    raw_ns = benchmarks.get("BM_SpscRingRaw", {}).get("cpu_ns")
    if shim_ns and raw_ns:
        result["shim_overhead"] = round(shim_ns / raw_ns, 3)
    return result


def run_pipeline(build_dir: str, scale: float) -> dict:
    """bench_pipeline via its --json=<path> reporter."""
    binary = os.path.join(build_dir, "bench", "bench_pipeline")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    try:
        env = dict(os.environ, DISCO_BENCH_SCALE=str(scale))
        cmd = [binary, f"--json={tmp_path}"]
        print("+", " ".join(cmd), f"(DISCO_BENCH_SCALE={scale})",
              file=sys.stderr)
        subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
        with open(tmp_path) as f:
            return json.load(f)
    finally:
        os.unlink(tmp_path)


def run_pressure(build_dir: str, scale: float) -> dict:
    """bench_ablation_pressure via its --json=<path> reporter."""
    binary = os.path.join(build_dir, "bench", "bench_ablation_pressure")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    try:
        env = dict(os.environ, DISCO_BENCH_SCALE=str(scale))
        cmd = [binary, f"--json={tmp_path}"]
        print("+", " ".join(cmd), f"(DISCO_BENCH_SCALE={scale})",
              file=sys.stderr)
        subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
        with open(tmp_path) as f:
            return json.load(f)
    finally:
        os.unlink(tmp_path)


def run_collector(build_dir: str, scale: float) -> dict:
    """bench_collector via its --json=<path> reporter."""
    binary = os.path.join(build_dir, "bench", "bench_collector")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    try:
        env = dict(os.environ, DISCO_BENCH_SCALE=str(scale))
        cmd = [binary, f"--json={tmp_path}"]
        print("+", " ".join(cmd), f"(DISCO_BENCH_SCALE={scale})",
              file=sys.stderr)
        subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
        with open(tmp_path) as f:
            return json.load(f)
    finally:
        os.unlink(tmp_path)


def detect_cpu_count() -> int:
    """CPUs actually usable by this process, not the machine's socket count.

    os.cpu_count() reports every online CPU even when the process is pinned
    to a subset (cgroups, taskset, CI runners), which silently inflated the
    recorded host context.  The affinity mask is what the benches really
    ran on.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def detect_simd_isa() -> str:
    """Tag-probe ISA the benches ran with (matches tagprobe::isa_name()).

    The probe path is pinned at SSE2 by design -- a group is 16 tags, one
    16-byte load (see tag_probe.hpp) -- so the only question is whether the
    host has it at all.  Wider ISAs in cpuinfo are deliberately not recorded
    here; they would misstate what the probe actually executed.
    """
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return "sse2" if "sse2" in line.split(":", 1)[1].split() \
                        else "scalar"
    except OSError:
        pass
    return "unknown"


def detect_hugepages() -> str:
    """Transparent-hugepage mode ('always'/'madvise'/'never'/'unavailable').

    Host context, like the CPU count: with 'always' the kernel may back the
    flow-table and counter arrays with huge pages on its own, which moves
    memory-bound rows; recorded so they stay interpretable across hosts.
    """
    path = "/sys/kernel/mm/transparent_hugepage/enabled"
    try:
        with open(path) as f:
            m = re.search(r"\[(\w+)\]", f.read())
            return m.group(1) if m else "unknown"
    except OSError:
        return "unavailable"


def next_output_path() -> str:
    taken = set()
    for name in os.listdir(REPO_ROOT):
        m = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if m:
            taken.add(int(m.group(1)))
    n = 0
    while n in taken:
        n += 1
    return os.path.join(REPO_ROOT, f"BENCH_{n}.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"))
    parser.add_argument("--scale", type=float, default=0.3,
                        help="DISCO_BENCH_SCALE for bench_pipeline")
    parser.add_argument("--min-time", type=float, default=0.2,
                        help="google-benchmark min time per bench, seconds")
    parser.add_argument("--out", default=None,
                        help="output path (default: next free BENCH_<n>.json)")
    parser.add_argument("--skip-pipeline", action="store_true",
                        help="only run the micro bench (quick smoke)")
    parser.add_argument("--skip-pressure", action="store_true",
                        help="skip the pressure-policy ablation bench")
    parser.add_argument("--skip-collector", action="store_true",
                        help="skip the collector merge-throughput bench")
    args = parser.parse_args()

    doc = {
        "schema": "disco-bench-v1",
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": detect_cpu_count(),
            "simd_isa": detect_simd_isa(),
            "transparent_hugepages": detect_hugepages(),
        },
        "micro_update": run_micro(args.build_dir, args.min_time),
    }
    if not args.skip_pipeline:
        doc["pipeline"] = run_pipeline(args.build_dir, args.scale)
        # Headline derived metric: worst-case ingest overhead of running the
        # full analysis-module set on every rotation (see docs/modules.md and
        # the module-overhead section in EXPERIMENTS.md).
        overheads = [row["overhead"]
                     for row in doc["pipeline"].get("modules", [])
                     if "overhead" in row]
        if overheads:
            doc["module_overhead_max"] = round(max(overheads), 4)
    if not args.skip_pressure:
        doc["pressure_ablation"] = run_pressure(args.build_dir, args.scale)
    if not args.skip_collector:
        doc["collector"] = run_collector(args.build_dir, args.scale)
        # Headline derived metric: fusion-heavy merge throughput at the
        # documented CI fleet size (see docs/collector.md).
        for row in doc["collector"].get("merge", []):
            if row.get("sites") == 4:
                doc["collector_merge_mrecs_4_sites"] = round(
                    row["mrecs_per_s"], 2)

    out_path = args.out or next_output_path()
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
