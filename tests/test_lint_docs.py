#!/usr/bin/env python3
"""Self-test for tools/lint_docs.py.

Builds throwaway fixture repos in a tempdir -- one that must lint clean and
one with a seeded violation per rule -- and runs the linter over each.  The
final test runs the linter over THIS repo, which is the acceptance gate:
committed docs must have zero dead links, stale paths, stale CLI flags,
stale build options, or stale symbols.
"""

import os
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
LINTER = os.path.join(REPO_ROOT, "tools", "lint_docs.py")


def run_linter(root):
    proc = subprocess.run(
        [sys.executable, LINTER, root],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def make_good_tree(root):
    write(root, "CMakeLists.txt",
          'option(DISCO_SIMD "SSE2 tag probes" ON)\n'
          'set(DISCO_SANITIZE "" CACHE STRING "sanitizer")\n')
    write(root, "tools/disco_analyze.cpp",
          '// usage: --bits N --modules a,b\nint main() {}\n')
    write(root, "src/core/disco.hpp",
          "#pragma once\nclass DiscoParams { double b() const; };\n")
    write(root, "src/core/disco.cpp",
          "double DiscoParams::b() const { return 2.0; }\n"
          "double DiscoParams::cv() { return 0.1; }\n")
    write(root, "docs/guide.md",
          "See [the readme](../README.md) and `src/core/disco.hpp`.\n"
          "Symbols that exist pass: `core::DiscoParams`, "
          "`DiscoParams::b()`, `DiscoParams::cv` (spelled out of line).\n"
          "Run `disco_analyze trace.dtrc --bits 4 --modules all`.\n"
          "Template paths like src/<area>/file.cpp and docs/*.md are fine.\n"
          "Suppressed: [old](gone.md) "
          "<!-- docs-lint: allow(dead-link) kept for history -->\n"
          "\n"
          "## Flag reference\n"
          "<!-- docs-lint: flags(disco_analyze) -->\n"
          "| `--bits N` | counter bits |\n"
          "| `--modules LIST` | module set |\n"
          "<!-- docs-lint: end-flags -->\n"
          "After end-flags, unattributed flags pass: use --verbose freely.\n"
          "\n"
          "## Next section\n"
          "A heading also closes the context, so --whatever is unchecked.\n")
    write(root, "README.md",
          "Details in [the guide](docs/guide.md).\n"
          "External flags pass: cmake --build build && ctest "
          "--output-on-failure (mentions disco_analyze).\n"
          "Build options: cmake -B b -DDISCO_SIMD=OFF "
          "-DDISCO_SANITIZE=address -DCMAKE_BUILD_TYPE=Release.\n")


def make_bad_tree(root):
    write(root, "CMakeLists.txt", 'option(DISCO_SIMD "SSE2 tag probes" ON)\n')
    write(root, "tools/disco_analyze.cpp", '// usage: --bits N\nint main() {}\n')
    write(root, "src/core/disco.hpp", "#pragma once\nclass DiscoParams {};\n")
    write(root, "src/flowtable/monitor.hpp",
          "#pragma once\nclass FlowMonitor { void rotate(); };\n")
    write(root, "src/telemetry/registry.hpp",
          "#pragma once\nstruct Registry { int snapshot() const; };\n")
    write(root, "README.md",
          "Broken: [missing doc](docs/nope.md).\n"
          "Stale ref: see src/core/vanished.hpp for details.\n"
          "Machine path: data lives in /root/related/some_repo/file.c.\n"
          "Dropped flag: disco_analyze trace.dtrc --frobnicate.\n"
          "Dropped option: cmake -B b -DDISCO_SIMD=OFF -DDISCO_VANISHED=OFF.\n"
          "Dropped symbol: `core::DiscoParams` stays, `core::Vanished` went.\n"
          "Dropped member: `FlowMonitor::rotate` stays, "
          "`FlowMonitor::snapshot` went (`Registry::snapshot` stays).\n"
          "\n"
          "<!-- docs-lint: flags(disco_analyze) -->\n"
          "| `--bits N` | still real |\n"
          "| `--defrobnicate` | dropped from the tool |\n"
          "\n"
          "<!-- docs-lint: flags(disco_vanished) -->\n")


class FixtureTrees(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def test_good_tree_is_clean(self):
        make_good_tree(self.tmp.name)
        code, out, err = run_linter(self.tmp.name)
        self.assertEqual(code, 0, f"expected clean run\nstdout:{out}\n"
                                  f"stderr:{err}")
        self.assertEqual(out.strip(), "")

    def test_bad_tree_fails(self):
        make_bad_tree(self.tmp.name)
        code, out, err = run_linter(self.tmp.name)
        self.assertEqual(code, 1, f"stdout:{out}\nstderr:{err}")

    def assert_finding(self, out, rule, fragment):
        for line in out.splitlines():
            if f"[{rule}]" in line and fragment in line:
                return
        self.fail(f"no [{rule}] finding mentioning {fragment!r} in:\n{out}")

    def test_each_rule_fires(self):
        make_bad_tree(self.tmp.name)
        _, out, _ = run_linter(self.tmp.name)
        self.assert_finding(out, "dead-link", "docs/nope.md")
        self.assert_finding(out, "stale-path", "src/core/vanished.hpp")
        self.assert_finding(out, "stale-path", "/root/related/")
        self.assert_finding(out, "stale-cli-flag", "--frobnicate")
        self.assert_finding(out, "stale-cli-flag", "--defrobnicate")
        self.assert_finding(out, "stale-cli-flag", "disco_vanished")
        self.assert_finding(out, "stale-build-option", "DISCO_VANISHED")
        self.assert_finding(out, "stale-symbol", "core::Vanished")
        # A member name that survives in another class does not hide it.
        self.assert_finding(out, "stale-symbol", "FlowMonitor::snapshot")

    def test_finding_count_is_exact(self):
        # Exactly the nine seeded violations -- no overfiring on the rest of
        # the fixture text (in particular `--bits` inside the annotated flag
        # block, the declared -DDISCO_SIMD, the existing
        # `core::DiscoParams`, `FlowMonitor::rotate` and `Registry::snapshot`
        # must pass).
        make_bad_tree(self.tmp.name)
        _, out, _ = run_linter(self.tmp.name)
        self.assertEqual(len(out.strip().splitlines()), 9, out)

    def test_suppression_is_honoured(self):
        make_good_tree(self.tmp.name)
        # The good tree carries a suppressed dead link; prove the violation
        # is really there by checking the fixture text (guards against the
        # fixture rotting into a trivially-clean file).
        with open(os.path.join(self.tmp.name, "docs", "guide.md"),
                  encoding="utf-8") as f:
            text = f.read()
        self.assertIn("docs-lint: allow(dead-link)", text)
        self.assertIn("(gone.md)", text)


class RealDocs(unittest.TestCase):
    def test_repo_docs_are_clean(self):
        code, out, err = run_linter(REPO_ROOT)
        self.assertEqual(code, 0, f"repo docs have lint findings:\n{out}\n"
                                  f"{err}")


if __name__ == "__main__":
    unittest.main()
