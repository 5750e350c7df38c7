#!/usr/bin/env python3
"""End-to-end check of `disco_collect --json`.

Runs two `disco_monitor` sites into spool files, collects them with
`disco_collect --json --modules all`, and parses stdout as ONE JSON
document: module reports must sit under the "modules" key, not trail the
document as text.  Numbers must print at round-trip precision: with every
tracked flow listed, the per-flow byte estimates must sum to the global
total, which 6-significant-digit output cannot do.

Legacy v2 reports carry no error metadata.  Collected without
`--fallback-b`, every interval over them is unavailable, in the modules
as on the collector's global line: text says "interval unavailable" and
JSON writes null bounds.  With `--fallback-b`, the modules' intervals
have width, like the collector's.

Usage:
    python3 tests/test_collect_json.py TOOLS_DIR
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = None
SITES = 2
EPOCHS = 3
TOP_KEYS = {"reports", "epochs_finalized", "tracked_flows", "flows_dropped",
            "totals", "top", "sites", "modules"}
MODULES = {"topports", "topdest", "application", "active-flows",
           "anomaly-ewma", "scanner-detector", "autofocus"}


LEGACY_MODULES = "topports,topdest,application,autofocus"


def tool(name):
    return os.path.join(TOOLS_DIR, name)


def run_sites(directory, extra=()):
    """Runs SITES disco_monitor sites into spool files; returns the paths."""
    spools = []
    for site in range(SITES):
        spool = os.path.join(directory, f"site{site}.drpt")
        subprocess.run(
            [tool("disco_monitor"), "--site", str(site), "--sites",
             str(SITES), "--seed", "11", "--flows", "2000", "--epochs",
             str(EPOCHS), "--spool", spool, *extra],
            check=True, stdout=subprocess.DEVNULL)
        spools.append(spool)
    return spools


class CollectJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        spools = run_sites(cls.tmp.name)
        proc = subprocess.run(
            [tool("disco_collect"), "--spool", *spools, "--top", "1000000",
             "--modules", "all", "--json"],
            check=True, stdout=subprocess.PIPE, text=True)
        cls.doc = json.loads(proc.stdout)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_top_level_keys(self):
        self.assertEqual(set(self.doc), TOP_KEYS)
        self.assertEqual(self.doc["reports"], SITES * EPOCHS)
        self.assertEqual(self.doc["epochs_finalized"], EPOCHS)
        self.assertEqual(len(self.doc["sites"]), SITES)

    def test_modules_are_embedded(self):
        modules = self.doc["modules"]
        self.assertEqual(modules["epochs"], EPOCHS)
        self.assertEqual({m["module"] for m in modules["modules"]}, MODULES)

    def test_topports_ranks_several_ports(self):
        modules = {m["module"]: m for m in self.doc["modules"]["modules"]}
        self.assertGreater(len(modules["topports"]["top"]), 1)

    def test_numbers_round_trip(self):
        totals = self.doc["totals"]
        top = self.doc["top"]
        self.assertEqual(self.doc["flows_dropped"], 0)
        self.assertEqual(len(top), self.doc["tracked_flows"])
        self.assertTrue(totals["interval_valid"])
        self.assertLess(totals["bytes_low"], totals["bytes"])
        self.assertLess(totals["bytes"], totals["bytes_high"])
        flow_sum = sum(flow["bytes"] for flow in top)
        self.assertAlmostEqual(flow_sum / totals["bytes"], 1.0, delta=1e-9)


class LegacyIntervals(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.spools = run_sites(cls.tmp.name, ("--format", "2"))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def collect(self, *extra):
        return subprocess.run(
            [tool("disco_collect"), "--spool", *self.spools, "--modules",
             LEGACY_MODULES, *extra],
            check=True, stdout=subprocess.PIPE, text=True).stdout

    def modules(self, *extra):
        doc = json.loads(self.collect("--json", *extra))
        return doc, {m["module"]: m for m in doc["modules"]["modules"]}

    @staticmethod
    def bounded_rows(modules):
        """(module, row, bound keys) for every interval the modules export."""
        for name in ("topports", "topdest"):
            for row in modules[name]["top"]:
                yield name, row, ("bytes", "packets")
        for row in modules["application"]["classes"]:
            yield "application", row, ("bytes",)
        for row in modules["autofocus"]["prefixes"]:
            yield "autofocus", row, ("bytes",)

    def test_without_fallback_bounds_are_absent(self):
        doc, modules = self.modules()
        self.assertFalse(doc["totals"]["interval_valid"])
        rows = list(self.bounded_rows(modules))
        self.assertEqual({name for name, _, _ in rows},
                         {"topports", "topdest", "application", "autofocus"})
        for name, row, axes in rows:
            for axis in axes:
                self.assertIsNone(row[axis + "_low"], name)
                self.assertIsNone(row[axis + "_high"], name)

    def test_without_fallback_text_says_unavailable(self):
        text = self.collect()
        self.assertIn("interval unavailable: legacy reports", text)
        module_lines = [line for line in text.splitlines()
                        if line.startswith("  ") and " bytes " in line]
        self.assertTrue(module_lines)
        for line in module_lines:
            self.assertIn("[interval unavailable]", line)

    def test_fallback_b_reaches_the_modules(self):
        doc, modules = self.modules("--fallback-b", "1.004")
        self.assertTrue(doc["totals"]["interval_valid"])
        for name, row, axes in self.bounded_rows(modules):
            for axis in axes:
                self.assertLess(row[axis + "_low"], row[axis], name)
                self.assertLess(row[axis], row[axis + "_high"], name)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    TOOLS_DIR = sys.argv.pop(1)
    unittest.main()
