#!/usr/bin/env python3
"""lint_docs: keep the repo's documentation honest.

Prose rots faster than code: a renamed file, a dropped CLI flag, or a
machine-specific path silently strands every doc that mentions it.  This
linter walks the repo's markdown and flags five classes of rot:

  dead-link        a relative markdown link whose target does not exist
  stale-path       a repo-relative path reference (src/..., docs/..., ...)
                   that names a nonexistent file or directory, or an
                   absolute machine-local path (/root/..., /opt/...) that
                   has no business in committed docs
  stale-cli-flag   a `--flag` shown next to one of this repo's binaries
                   that the binary's source no longer mentions
  stale-build-option
                   a `-DDISCO_<NAME>` that names neither an option(...) nor
                   a set(... CACHE ...) in the top-level CMakeLists.txt
  stale-symbol     a backticked qualified C++ name whose last identifier
                   the code (src, tools, bench, tests, examples, perfbench)
                   no longer has.  In `Class::member`, where the code
                   defines a class or struct `Class`, `member` must occur
                   in a file that defines `Class` or in a `Class::member`
                   token somewhere in the code; a name qualified by a
                   namespace (`ns::Name`) must occur anywhere in the code

CLI reference sections usually list one flag per line with no binary name
in sight, which the stale-cli-flag rule cannot attribute.  Open a flag
context for such a block with an HTML-comment annotation:

    <!-- docs-lint: flags(disco_collect) -->
    | `--spool FILE...` | drain reports from spool files |

Every flag on the following lines is checked against that binary's source
until the next markdown heading, a `docs-lint: end-flags` annotation, or
another flags(...) annotation.  Naming a binary the repo does not build is
itself a finding -- annotations must not rot either.

Scanned set: every *.md at the repo root plus docs/**/*.md, minus generated
inputs and logs (ISSUE.md, PAPER.md, PAPERS.md, SNIPPETS.md, CHANGES.md).

Suppression: add `docs-lint: allow(<rule>)` (inside an HTML comment) on the
offending line, with a reason:

    see [old report](gone.md) <!-- docs-lint: allow(dead-link) kept for history -->

Usage:
    python3 tools/lint_docs.py [repo_root]

Exit code 0 when clean, 1 when any finding, 2 on usage error.  Findings are
printed one per line as `path:line: [rule] message` (the same shape as
tools/lint_disco.py, so CI logs read uniformly).  Registered in ctest as
lint_docs_src / lint_docs_selftest and in the static-analysis CI job.
"""

from __future__ import annotations

import glob
import os
import re
import sys

EXCLUDED_DOCS = {"ISSUE.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md",
                 "CHANGES.md"}

# [text](target) -- also matches images; anchors/URLs filtered later.
MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# Repo-relative path-like tokens in prose or code spans.  Requires a known
# top-level directory prefix so ordinary words never match.
PATH_TOKEN_RE = re.compile(
    r"(?<![\w/.])((?:src|tools|tests|docs|bench|examples|\.github)"
    r"/[A-Za-z0-9_./\-]+)")

# Machine-local absolute paths that make docs unreproducible.  /tmp and
# /dev are legitimate in examples; home directories and image mounts are not.
ABS_PATH_RE = re.compile(r"(?<![\w.])(/(?:root|home|opt)/[A-Za-z0-9_./\-]+)")

FLAG_RE = re.compile(r"(?<![\w\-])(--[a-z][a-z0-9\-_]+)")

# Flags that belong to external tools often shown on the same command line
# as ours (cmake/ctest/google-benchmark), never to this repo's binaries.
EXTERNAL_FLAGS = {
    "--build", "--parallel", "--target", "--config", "--preset",
    "--output-on-failure", "--rerun-failed", "--test-dir", "--help",
    "--version", "--benchmark_format", "--benchmark_min_time",
    "--benchmark_filter",
}

# -DDISCO_<NAME> on a cmake (or compiler) command line, and the two ways the
# top-level CMakeLists.txt declares such a name.
BUILD_OPTION_RE = re.compile(r"(?<![\w\-])-D(DISCO_[A-Z0-9_]+)")
CMAKE_OPTION_RE = re.compile(
    r"^\s*(?:option\(\s*(DISCO_[A-Z0-9_]+)\b"
    r"|set\(\s*(DISCO_[A-Z0-9_]+)\s[^)\n]*\bCACHE\b)", re.M)

# Inline code spans, and qualified names inside them.
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
QUALIFIED_RE = re.compile(r"(?<![\w:])(?:[A-Za-z_]\w*::)+[A-Za-z_]\w*")
IDENTIFIER_RE = re.compile(r"[A-Za-z_]\w*")
SYMBOL_DIRS = ("src", "tools", "bench", "tests", "examples", "perfbench")
SYMBOL_EXTS = (".cpp", ".hpp", ".h", ".py")
CPP_EXTS = (".cpp", ".hpp", ".h")
# A C++ class or struct definition (not a forward declaration); group 1 is
# the defined name, the last one of an out-of-line `struct Outer::Inner {`.
CLASS_DEF_RE = re.compile(
    r"\b(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?"
    r"(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*(?:final\s*)?(?::(?!:)|\{)")
# Every `A::b` pair in the code, overlapping (`a::B::c` yields both pairs).
SCOPED_PAIR_RE = re.compile(r"(?<!\w)(?=([A-Za-z_]\w*)::([A-Za-z_]\w*))")

SUPPRESS_RE = re.compile(r"docs-lint:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

# Flag-context annotations for CLI reference blocks (see module docstring).
FLAGS_CTX_RE = re.compile(r"docs-lint:\s*flags\(([A-Za-z0-9_.\-]+)\)")
FLAGS_END_RE = re.compile(r"docs-lint:\s*end-flags")
HEADING_RE = re.compile(r"^\s{0,3}#{1,6}\s")


def find_docs(root: str) -> list[str]:
    docs = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".md") and name not in EXCLUDED_DOCS:
            path = os.path.join(root, name)
            if os.path.isfile(path):
                docs.append(path)
    docs.extend(sorted(glob.glob(os.path.join(root, "docs", "**", "*.md"),
                                 recursive=True)))
    return docs


def known_binaries(root: str) -> dict[str, str]:
    """Maps binary/script base name -> source path, for the CLI-flag rule."""
    out = {}
    for pattern in ("tools/*.cpp", "bench/*.cpp", "examples/*.cpp"):
        for source in glob.glob(os.path.join(root, pattern)):
            out[os.path.splitext(os.path.basename(source))[0]] = source
    for source in glob.glob(os.path.join(root, "tools", "*.py")):
        out[os.path.basename(source)] = source
    return out


def build_options(root: str) -> set[str]:
    """DISCO_* names the top-level CMakeLists.txt lets a user set with -D."""
    try:
        with open(os.path.join(root, "CMakeLists.txt"), encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        return set()
    return {a or b for a, b in CMAKE_OPTION_RE.findall(text)}


class CodeIndex:
    """What the stale-symbol rule looks names up in: every identifier in
    the repo's code, the identifiers of the files that define each C++
    class or struct, and every `A::b` pair the code spells."""

    def __init__(self, root: str):
        self.identifiers: set[str] = set()
        self.class_members: dict[str, set[str]] = {}
        self.scoped_pairs: set[tuple[str, str]] = set()
        for top in SYMBOL_DIRS:
            for path in glob.glob(os.path.join(root, top, "**", "*"),
                                  recursive=True):
                if not path.endswith(SYMBOL_EXTS) or not os.path.isfile(path):
                    continue
                with open(path, encoding="utf-8", errors="replace") as f:
                    text = f.read()
                names = set(IDENTIFIER_RE.findall(text))
                self.identifiers |= names
                self.scoped_pairs.update(SCOPED_PAIR_RE.findall(text))
                if path.endswith(CPP_EXTS):
                    for cls in set(CLASS_DEF_RE.findall(text)):
                        self.class_members.setdefault(cls, set()).update(names)

    def stale(self, qualified: str) -> str | None:
        """Why `qualified` names nothing the code has, or None."""
        *scope, name = qualified.split("::")
        owner = scope[-1]
        if owner in self.class_members:
            if (name in self.class_members[owner]
                    or (owner, name) in self.scoped_pairs):
                return None
            return (f"'{qualified}': no file that defines {owner} mentions "
                    f"'{name}', and no code spells '{owner}::{name}'")
        if name in self.identifiers:
            return None
        return f"'{qualified}' names an identifier the code no longer has"


def suppressed_rules(line: str) -> set[str]:
    rules = set()
    for match in SUPPRESS_RE.finditer(line):
        for rule in match.group(1).split(","):
            rules.add(rule.strip())
    return rules


class Linter:
    def __init__(self, root: str):
        self.root = root
        self.binaries = known_binaries(root)
        self.build_options = build_options(root)
        self.code: CodeIndex | None = None  # built on first use
        self.source_cache: dict[str, str] = {}
        self.findings: list[str] = []

    def source_text(self, path: str) -> str:
        # Flags are often parsed by a shared helper next to the binary
        # (bench/bench_common.hpp's --telemetry), so sibling *common* files
        # count as part of the binary's source.
        if path not in self.source_cache:
            chunks = []
            for part in [path] + glob.glob(
                    os.path.join(os.path.dirname(path), "*common*")):
                with open(part, encoding="utf-8", errors="replace") as f:
                    chunks.append(f.read())
            self.source_cache[path] = "\n".join(chunks)
        return self.source_cache[path]

    def report(self, path: str, lineno: int, rule: str, message: str):
        rel = os.path.relpath(path, self.root)
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path: str):
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
        doc_dir = os.path.dirname(path)
        context_binary = None
        for lineno, line in enumerate(lines, start=1):
            ctx = FLAGS_CTX_RE.search(line)
            if ctx:
                context_binary = ctx.group(1)
                if context_binary not in self.binaries:
                    self.report(path, lineno, "stale-cli-flag",
                                f"flags({context_binary}) names a binary "
                                "the repo does not build")
                    context_binary = None
                continue
            if FLAGS_END_RE.search(line) or HEADING_RE.match(line):
                context_binary = None
            allowed = suppressed_rules(line)
            if "dead-link" not in allowed:
                self.check_links(path, doc_dir, lineno, line)
            if "stale-path" not in allowed:
                self.check_paths(path, lineno, line)
            if "stale-cli-flag" not in allowed:
                self.check_flags(path, lineno, line, context_binary)
            if "stale-build-option" not in allowed:
                self.check_build_options(path, lineno, line)
            if "stale-symbol" not in allowed:
                self.check_symbols(path, lineno, line)

    def check_links(self, path: str, doc_dir: str, lineno: int, line: str):
        for match in MD_LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (os.path.join(self.root, target[1:])
                        if target.startswith("/")
                        else os.path.join(doc_dir, target))
            if not os.path.exists(resolved):
                self.report(path, lineno, "dead-link",
                            f"link target '{match.group(1)}' does not exist")

    def check_paths(self, path: str, lineno: int, line: str):
        # Markdown link targets are the dead-link rule's job; blank them so
        # a broken link reports once, not twice.
        line = MD_LINK_RE.sub(lambda m: "[]()", line)
        for match in PATH_TOKEN_RE.finditer(line):
            token = match.group(1).rstrip(".,;:")
            # Globs, placeholders, and template paths are descriptive, not
            # references ("docs/*.md", "src/<area>/...").
            if any(c in token for c in "*<>{}$"):
                continue
            resolved = os.path.join(self.root, token)
            # Extensionless references name a source pair ("src/core/disco"
            # for disco.hpp/.cpp) or a built binary ("examples/quickstart");
            # accept them when a file with that stem exists.
            if not os.path.exists(resolved) and not glob.glob(resolved + "*"):
                self.report(path, lineno, "stale-path",
                            f"'{token}' does not exist in the repo")
        for match in ABS_PATH_RE.finditer(line):
            self.report(path, lineno, "stale-path",
                        f"machine-local absolute path '{match.group(1)}'")

    def check_flags(self, path: str, lineno: int, line: str,
                    context_binary: str | None = None):
        mentioned = [name for name in self.binaries if name in line]
        if not mentioned:
            if context_binary is None:
                return
            mentioned = [context_binary]
        for match in FLAG_RE.finditer(line):
            flag = match.group(1)
            if flag in EXTERNAL_FLAGS:
                continue
            if any(flag in self.source_text(self.binaries[name])
                   for name in mentioned):
                continue
            self.report(path, lineno, "stale-cli-flag",
                        f"flag '{flag}' not found in source of "
                        f"{'/'.join(sorted(mentioned))}")

    def check_build_options(self, path: str, lineno: int, line: str):
        for match in BUILD_OPTION_RE.finditer(line):
            if match.group(1) not in self.build_options:
                self.report(path, lineno, "stale-build-option",
                            f"'-D{match.group(1)}' is not an option of the "
                            "top-level CMakeLists.txt")

    def check_symbols(self, path: str, lineno: int, line: str):
        for span in CODE_SPAN_RE.findall(line):
            for match in QUALIFIED_RE.finditer(span):
                if self.code is None:
                    self.code = CodeIndex(self.root)
                why = self.code.stale(match.group(0))
                if why:
                    self.report(path, lineno, "stale-symbol", why)


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.abspath(argv[1]) if len(argv) == 2 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print(f"lint_docs: no such directory: {root}", file=sys.stderr)
        return 2
    linter = Linter(root)
    docs = find_docs(root)
    for doc in docs:
        linter.lint_file(doc)
    for finding in linter.findings:
        print(finding)
    print(f"lint_docs: {len(linter.findings)} finding(s) in {len(docs)} "
          f"file(s)", file=sys.stderr)
    return 1 if linter.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
