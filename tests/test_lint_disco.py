#!/usr/bin/env python3
"""Self-test for tools/lint_disco.py.

Runs the linter over the fixture trees in tests/lint_fixtures/: the `good`
tree must pass with zero findings, and the `bad` tree must fail with each
rule firing on its seeded violation.  This is what keeps the linter honest:
a regex change that silently stops detecting a rule breaks this test, not
just CI coverage.
"""

import os
import subprocess
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
LINTER = os.path.join(REPO_ROOT, "tools", "lint_disco.py")
FIXTURES = os.path.join(TESTS_DIR, "lint_fixtures")


def run_linter(*args):
    proc = subprocess.run(
        [sys.executable, LINTER, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=REPO_ROOT)
    return proc.returncode, proc.stdout, proc.stderr


class GoodFixtures(unittest.TestCase):
    def test_good_tree_is_clean(self):
        code, out, err = run_linter(os.path.join(FIXTURES, "good"))
        self.assertEqual(code, 0, f"expected clean run\nstdout:{out}\n"
                                  f"stderr:{err}")
        self.assertEqual(out.strip(), "")

    def test_justified_suppression_is_honoured(self):
        # good/src/core/disco.cpp contains a std::exp in a non-whitelisted
        # function, silenced by a disco-lint: allow(...) with a reason.  If
        # suppression handling breaks, the good tree stops being clean and
        # test_good_tree_is_clean catches it -- this test pins that the
        # violation IS there to be suppressed (guards against the fixture
        # rotting into a trivially-clean file).
        fixture = os.path.join(FIXTURES, "good", "src", "core", "disco.cpp")
        with open(fixture, encoding="utf-8") as f:
            text = f.read()
        self.assertIn("disco-lint: allow(hot-path-transcendental)", text)
        self.assertIn("std::exp", text)


class BadFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.code, cls.out, cls.err = run_linter(os.path.join(FIXTURES, "bad"))

    def test_bad_tree_fails(self):
        self.assertEqual(self.code, 1, f"stdout:{self.out}\n"
                                       f"stderr:{self.err}")

    def assert_finding(self, rule, path_fragment):
        for line in self.out.splitlines():
            if f"[{rule}]" in line and path_fragment in line:
                return
        self.fail(f"no [{rule}] finding for {path_fragment} in:\n{self.out}")

    def test_hot_path_transcendental_fires(self):
        self.assert_finding("hot-path-transcendental", "src/core/disco.cpp")

    def test_atomic_memory_order_fires_on_defaulted_call(self):
        self.assert_finding("atomic-memory-order",
                            "src/pipeline/packet_ring.hpp:13")

    def test_atomic_memory_order_fires_on_operator_form(self):
        self.assert_finding("atomic-memory-order",
                            "src/pipeline/packet_ring.hpp:18")

    def test_explicit_order_on_same_line_does_not_mask(self):
        # Line 13 mixes head_.load() (bad) with tail_.load(acquire) (fine);
        # exactly one finding must point at it.
        hits = [l for l in self.out.splitlines()
                if "packet_ring.hpp:13" in l]
        self.assertEqual(len(hits), 1, self.out)

    def test_rng_call_site_fires(self):
        self.assert_finding("rng-call-site", "src/core/disco_fixed.hpp")

    def test_header_self_contained_fires(self):
        self.assert_finding("header-self-contained",
                            "src/telemetry/metrics.hpp")

    def test_reasonless_suppression_is_rejected(self):
        self.assert_finding("bad-suppression", "src/core/suppressed.cpp")

    def test_simd_intrinsics_confined_fires(self):
        self.assert_finding("simd-intrinsics-confined",
                            "src/flowtable/simd_probe.cpp")

    def test_atomic_shim_confined_fires(self):
        self.assert_finding("atomic-shim-confined",
                            "src/core/raw_atomic.hpp")

    def test_atomic_shim_confined_fires_on_raw_fence(self):
        # Both the member declaration and the fence call must be reported.
        hits = [l for l in self.out.splitlines()
                if "[atomic-shim-confined]" in l
                and "src/core/raw_atomic.hpp" in l]
        self.assertEqual(len(hits), 2, self.out)
        self.assertTrue(any("atomic_thread_fence" in l for l in hits),
                        self.out)

    def test_madvise_confined_fires(self):
        self.assert_finding("madvise-confined",
                            "src/flowtable/raw_madvise.cpp:11")

    def test_huge_pages_header_is_exempt(self):
        # good/src/util/huge_pages.hpp calls madvise and the good tree is
        # clean (test_good_tree_is_clean); this pins that the call is really
        # there, so the exemption is actually tested.
        fixture = os.path.join(FIXTURES, "good", "src", "util",
                               "huge_pages.hpp")
        with open(fixture, encoding="utf-8") as f:
            text = f.read()
        self.assertIn("madvise(p, bytes, MADV_HUGEPAGE)", text)

    def test_shim_header_and_verify_dir_are_exempt(self):
        # good/src/util/atomic.hpp and good/src/verify/model.hpp hold raw
        # std::atomic (+ a raw fence) and the good tree is clean
        # (test_good_tree_is_clean); this pins that the raw usage is really
        # there, so both exemptions are actually tested.
        shim = os.path.join(FIXTURES, "good", "src", "util", "atomic.hpp")
        with open(shim, encoding="utf-8") as f:
            text = f.read()
        self.assertIn("std::atomic<", text)
        self.assertIn("std::atomic_thread_fence", text)
        verify = os.path.join(FIXTURES, "good", "src", "verify", "model.hpp")
        with open(verify, encoding="utf-8") as f:
            text = f.read()
        self.assertIn("std::atomic<", text)

    def test_probe_header_is_exempt(self):
        # good/src/flowtable/tag_probe.hpp holds raw intrinsics and the good
        # tree is clean (test_good_tree_is_clean); this pins that the
        # intrinsics are really there, so the exemption is actually tested.
        fixture = os.path.join(FIXTURES, "good", "src", "flowtable",
                               "tag_probe.hpp")
        with open(fixture, encoding="utf-8") as f:
            text = f.read()
        self.assertIn("_mm_loadu_si128", text)


class RuleSelection(unittest.TestCase):
    def test_rules_flag_filters(self):
        code, out, _ = run_linter("--rules", "rng-call-site",
                                  os.path.join(FIXTURES, "bad"))
        self.assertEqual(code, 1)
        self.assertIn("[rng-call-site]", out)
        self.assertNotIn("[hot-path-transcendental]", out)
        self.assertNotIn("[atomic-memory-order]", out)
        self.assertNotIn("[header-self-contained]", out)
        self.assertNotIn("[atomic-shim-confined]", out)
        self.assertNotIn("[madvise-confined]", out)

    def test_unknown_rule_is_usage_error(self):
        code, _, err = run_linter("--rules", "no-such-rule",
                                  os.path.join(FIXTURES, "bad"))
        self.assertEqual(code, 2)
        self.assertIn("unknown rule", err)

    def test_list_rules(self):
        code, out, _ = run_linter("--list-rules")
        self.assertEqual(code, 0)
        for rule in ("hot-path-transcendental", "atomic-memory-order",
                     "rng-call-site", "header-self-contained",
                     "simd-intrinsics-confined", "atomic-shim-confined",
                     "madvise-confined"):
            self.assertIn(rule, out)


class RealSources(unittest.TestCase):
    def test_src_tree_is_clean(self):
        # The invariant gate over the real sources; the same check CI runs.
        code, out, err = run_linter(os.path.join(REPO_ROOT, "src"))
        self.assertEqual(code, 0, f"src/ has lint findings:\n{out}\n{err}")


if __name__ == "__main__":
    unittest.main()
