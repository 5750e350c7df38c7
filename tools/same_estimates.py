#!/usr/bin/env python3
"""same_estimates: do the working tree's tools print what BASE_REF's print?

    python3 tools/same_estimates.py BASE_REF

Exports BASE_REF with `git archive` into a temporary directory, copies the
working tree's files there too (tracked and untracked, not ignored), and
builds disco_tracegen, disco_analyze, disco_monitor and disco_collect from
each copy in Release.  Nothing is written inside the checkout.  Then both
builds run the same workloads:

  * disco_analyze TRACE --bits 12 --seed 7 --methods DISCO --modules all
    --epochs 7 --modules-json, over a `real 2000` and a `scenario2 3000`
    trace (--seed 3), both written by the base's disco_tracegen;
  * four sites, disco_monitor --site I --sites 4 --flows 20000 --epochs 5
    --spool FILE, collected by disco_collect --spool ... --modules all,
    once as text and once with --json.

Every pair of outputs (standard output of each analyze and collect run,
and each site's spool file) must be byte-identical.  Prints one line per
check; exits 0 when all are identical, 1 on any difference, 2 when a build
or a run fails.
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = ("disco_tracegen", "disco_analyze", "disco_monitor", "disco_collect")
TRACES = (("real", "2000"), ("scenario2", "3000"))
SITES = 4


class RunError(Exception):
    pass


def run(cmd, stdout=subprocess.DEVNULL):
    """Runs `cmd`; its standard error goes to ours.  Raises on failure."""
    if subprocess.run(cmd, stdout=stdout).returncode != 0:
        raise RunError("failed: " + " ".join(cmd))


def build(source, build_dir):
    """Builds the four tools from `source`; returns their directory."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build_dir, "-j", jobs, "--target", *TOOLS])
    return os.path.join(build_dir, "tools")


def copy_worktree(dest):
    """Copies the working tree's files that git does not ignore to `dest`."""
    listing = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], stdout=subprocess.PIPE, check=True).stdout
    for name in filter(None, listing.decode().split("\0")):
        source = os.path.join(ROOT, name)
        if not os.path.isfile(source):
            continue  # deleted in the working tree
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)


def run_to(cmd, path):
    with open(path, "wb") as out:
        run(cmd, stdout=out)


def workloads(tools, traces, out_dir):
    """Runs every workload with the tools in `tools`; returns
    [(check name, output file)] in print order."""
    os.makedirs(out_dir)
    tool = lambda name: os.path.join(tools, name)
    outputs = []
    for (scenario, flows), trace in zip(TRACES, traces):
        path = os.path.join(out_dir, f"analyze_{scenario}.txt")
        run_to([tool("disco_analyze"), trace, "--bits", "12", "--seed", "7",
                "--methods", "DISCO", "--modules", "all", "--epochs", "7",
                "--modules-json"], path)
        outputs.append((f"disco_analyze {scenario} {flows} --modules-json", path))
    spools = []
    for site in range(SITES):
        spool = os.path.join(out_dir, f"site_{site}.drpt")
        run([tool("disco_monitor"), "--site", str(site), "--sites", str(SITES),
             "--flows", "20000", "--epochs", "5", "--spool", spool])
        spools.append(spool)
        outputs.append((f"disco_monitor site {site} spool", spool))
    for extra, name in (([], "text"), (["--json"], "json")):
        path = os.path.join(out_dir, f"collect.{name}")
        run_to([tool("disco_collect"), "--spool", *spools, "--modules", "all",
                *extra], path)
        outputs.append((f"disco_collect --modules all ({name})", path))
    return outputs


def main():
    parser = argparse.ArgumentParser(
        description="Compare the tools' outputs with those of BASE_REF.")
    parser.add_argument("base_ref", metavar="BASE_REF",
                        help="git commit, branch or tag to compare against")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="same_estimates.") as tmp:
        try:
            base_src = os.path.join(tmp, "base_src")
            os.makedirs(base_src)
            archive = os.path.join(tmp, "base.tar")
            run(["git", "-C", ROOT, "archive", "-o", archive, args.base_ref])
            run(["tar", "-x", "-f", archive, "-C", base_src])
            head_src = os.path.join(tmp, "head_src")
            copy_worktree(head_src)
            base_tools = build(base_src, os.path.join(tmp, "base_build"))
            head_tools = build(head_src, os.path.join(tmp, "head_build"))

            traces = []
            for scenario, flows in TRACES:
                trace = os.path.join(tmp, f"{scenario}.dtrc")
                run([os.path.join(base_tools, "disco_tracegen"), scenario, flows,
                     trace, "--seed", "3"])
                traces.append(trace)
            base = workloads(base_tools, traces, os.path.join(tmp, "base_out"))
            head = workloads(head_tools, traces, os.path.join(tmp, "head_out"))
        except (RunError, subprocess.CalledProcessError) as e:
            print(f"same_estimates: {e}", file=sys.stderr)
            return 2

        differ = 0
        for (name, base_path), (_, head_path) in zip(base, head):
            same = filecmp.cmp(base_path, head_path, shallow=False)
            differ += not same
            print(f"{'identical' if same else 'DIFFERENT'}  {name}")
    print(f"same_estimates: {len(base) - differ} of {len(base)} identical "
          f"to {args.base_ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
