#!/usr/bin/env python3
"""End-to-end check of `disco_collect --json`.

Runs two `disco_monitor` sites into spool files, collects them with
`disco_collect --json --modules all`, and parses stdout as ONE JSON
document: module reports must sit under the "modules" key, not trail the
document as text.  Numbers must print at round-trip precision: with every
tracked flow listed, the per-flow byte estimates must sum to the global
total, which 6-significant-digit output cannot do.

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


def tool(name):
    return os.path.join(TOOLS_DIR, name)


class CollectJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        spools = []
        for site in range(SITES):
            spool = os.path.join(cls.tmp.name, f"site{site}.drpt")
            subprocess.run(
                [tool("disco_monitor"), "--site", str(site), "--sites",
                 str(SITES), "--seed", "11", "--flows", "2000", "--epochs",
                 str(EPOCHS), "--spool", spool],
                check=True, stdout=subprocess.DEVNULL)
            spools.append(spool)
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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    TOOLS_DIR = sys.argv.pop(1)
    unittest.main()
