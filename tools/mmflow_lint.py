#!/usr/bin/env python3
"""mmflow-lint: project-specific determinism lint for the mmflow tree.

Every QoR number this reproduction reports rests on the per-seed
bit-identity contract (docs/ROUTING.md): the same seed must produce the
same placement, routing, hashes and printed metrics on every run, for
every --jobs value, across cold and warm caches. Generic tools cannot
enforce that contract because they do not know which constructs feed
hashed or printed state. This lint encodes the project invariants that
do:

  MMF001 unordered-iteration   Iterating an unordered_{map,set,multimap,
                               multiset} observes libstdc++'s bucket
                               order, which is not part of any contract:
                               it varies across standard libraries,
                               hash-seed choices and container histories.
                               Any such loop that feeds an FNV hash, a
                               store entry, or printed QoR is a latent
                               bit-identity break. Allowlist a
                               provably order-insensitive loop (e.g. a
                               commutative integer reduction) with
                               `// mmflow-lint: ordered-ok(reason)`.
  MMF002 unchecked-parse       Raw atoi/atof/strto*/std::sto* either
                               ignore errors entirely or accept partial
                               parses, silently turning a typo'd knob
                               into a different experiment (--jobs=abc
                               used to mean 0 workers). Use the checked
                               parsers in common/strings.h.
  MMF003 nondeterministic-rng  rand()/srand(), std::random_device and
                               wall-clock seeding (time(), clock())
                               produce streams that differ across runs.
                               All stochastic code takes an explicit
                               seed through mmflow::Rng (common/rng.h).
  MMF004 raw-assert            assert() compiles out under NDEBUG, so a
                               release binary would silently skip the
                               invariant and produce wrong (not crashed)
                               results. Use MMFLOW_CHECK / MMFLOW_REQUIRE
                               (common/check.h), which always throw.
  MMF005 perf-name-grammar     Perf counter/timer names are a public,
                               diff-stable schema consumed by bench JSON
                               and CI gates: they must match
                               `module.name` (lowercase snake segments,
                               >= 2, dot-separated) with a registered
                               module prefix, or CI assertions silently
                               read 0 from a misspelled counter.
  MMF006 bad-annotation        A malformed or unknown `// mmflow-lint:`
                               annotation would silently fail to
                               suppress (or silently rot); annotations
                               must be `ordered-ok(<non-empty reason>)`.

Usage:
  tools/mmflow_lint.py PATH [PATH ...]     lint files / directory trees
  tools/mmflow_lint.py --list-rules        print the rule catalogue

Directories are walked recursively for *.h / *.cpp files. Exit status:
0 = clean, 1 = violations reported, 2 = usage or I/O error.

The full rule rationale and the annotation grammar live in
docs/STATIC_ANALYSIS.md; fixture tests in tests/lint/ pin each rule's
exact diagnostics.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Rule catalogue
# ---------------------------------------------------------------------------

RULES = {
    "MMF001": "unordered-iteration",
    "MMF002": "unchecked-parse",
    "MMF003": "nondeterministic-rng",
    "MMF004": "raw-assert",
    "MMF005": "perf-name-grammar",
    "MMF006": "bad-annotation",
}

# First segment of every registered perf counter/timer name. Adding a new
# module prefix is deliberate API surface: extend this set in the same PR
# that introduces the module, and document it in docs/STATIC_ANALYSIS.md.
PERF_MODULES = {
    "batch",
    "blif",
    "combined_place",
    "flow",
    "flowcache",
    "place",
    "route",
    "rrgcache",
    "tune",
    "verify",
}

PERF_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9][a-z0-9_]*)+$")
# A literal that is completed at runtime ("tune.rung" + std::to_string(r))
# only needs a valid module prefix and well-formed leading segments.
PERF_PREFIX_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9][a-z0-9_]*)*\.?$")

ANNOTATION_RE = re.compile(r"//\s*mmflow-lint:\s*(.*)$")
ORDERED_OK_RE = re.compile(r"^ordered-ok\((.*)\)\s*$")

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:flat_)?(?:map|set|multimap|multiset)\s*<"
)

UNCHECKED_PARSE_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?"
    r"(atoi|atol|atoll|atof|strtol|strtoll|strtoul|strtoull|strtof|strtod|"
    r"strtold|stoi|stol|stoll|stoul|stoull|stof|stod|stold|sscanf)\s*\("
)
# `stoi`-family names are only the std:: ones; a bare `stoi(` in mmflow
# would shadow-call std via ADL or a using-directive, so flag both forms.

RNG_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?(rand|srand|random_device)\s*(?:\(|\b)"
)
WALL_CLOCK_SEED_RE = re.compile(r"(?<![\w.])(?:std\s*::\s*)?(time|clock)\s*\(")

ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
ASSERT_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](?:cassert|assert\.h)[>"]')

PERF_CALL_RE = re.compile(
    r"\b(?:MMFLOW_PERF_ADD|MMFLOW_PERF_SCOPE|"
    r"(?:::\s*)?(?:mmflow\s*::\s*)?perf\s*::\s*"
    r"(?:counter|timer|counter_value))\s*\(\s*"
)

IDENT = r"[A-Za-z_]\w*"


@dataclass
class Diagnostic:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.rule} "
                f"[{RULES[self.rule]}] {self.message}")


# ---------------------------------------------------------------------------
# Lightweight C++ text model: strip comments/strings but keep line structure
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> tuple[str, list[str]]:
    """Returns (code, comments_by_line).

    `code` is `text` with comments and string/char literal *contents*
    replaced by spaces (quotes kept, so regexes see `""`), preserving every
    newline so that offsets map to the same line numbers. `comments_by_line`
    collects the raw text of // and /* */ comments per line, for the
    annotation scanner.
    """
    out = []
    comments: list[str] = [""] * (text.count("\n") + 2)
    i, n = 0, len(text)
    line = 1
    mode = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                comments[line] += "//"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                comments[line] += "/*"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal? R"delim( ... )delim"
                m = re.match(r'R"([^()\\ \t\n]*)\(', text[i - 1:i + 18]) \
                    if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    mode = "raw"
                    out.append('"')
                    i += 1 + len(m.group(1)) + 1
                    out.append(" " * (len(m.group(1)) + 1))
                    continue
                mode = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                comments[line] += c
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                comments[line] += "*/"
                out.append("  ")
                i += 2
                continue
            comments[line] += c if c != "\n" else ""
            out.append(c if c == "\n" else " ")
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                if nxt == "\n":
                    line += 1
                    out[-1] = " \n"
                continue
            if c == '"':
                mode = "code"
                out.append('"')
            else:
                out.append(c if c == "\n" else " ")
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                mode = "code"
                out.append("'")
            else:
                out.append(" ")
        elif mode == "raw":
            if text.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                mode = "code"
                continue
            out.append(c if c == "\n" else " ")
        if c == "\n":
            line += 1
        i += 1
    return "".join(out), comments


def line_of(offset: int, line_starts: list[int]) -> int:
    """1-based line number containing byte `offset`."""
    lo, hi = 0, len(line_starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if line_starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def match_angle_brackets(code: str, open_pos: int) -> int:
    """Given code[open_pos] == '<', returns the offset just past the
    matching '>', or -1. Tracks (), [], {} so `vector<pair<int, int>>`
    and shift-free template args resolve; template args never contain
    raw `<` comparisons in this code base."""
    depth = 0
    i = open_pos
    n = len(code)
    while i < n:
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in "([{":
            stack_end = match_paren(code, i, c)
            if stack_end < 0:
                return -1
            i = stack_end - 1
        elif c == ";":
            return -1
        i += 1
    return -1


def match_paren(code: str, open_pos: int, open_char: str) -> int:
    close_char = {"(": ")", "[": "]", "{": "}"}[open_char]
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == open_char:
            depth += 1
        elif c == close_char:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


# ---------------------------------------------------------------------------
# Annotation handling
# ---------------------------------------------------------------------------


class Annotations:
    """Parsed `// mmflow-lint:` annotations of one file.

    An `ordered-ok(reason)` annotation suppresses MMF001 on its own line
    and, when it is the only content of its line, on the next code line —
    so both styles work:

        for (const auto& [k, v] : table) {  // mmflow-lint: ordered-ok(...)

        // mmflow-lint: ordered-ok(commutative integer sum)
        for (const auto& [k, v] : table) {
    """

    def __init__(self, path: str, comments: list[str],
                 diagnostics: list[Diagnostic]):
        self.ordered_ok_lines: set[int] = set()
        for lineno, comment in enumerate(comments):
            if not comment:
                continue
            m = ANNOTATION_RE.search(comment)
            if not m:
                if "mmflow-lint" in comment:
                    diagnostics.append(Diagnostic(
                        path, lineno, "MMF006",
                        "unrecognized mmflow-lint annotation; expected "
                        "`// mmflow-lint: ordered-ok(reason)`"))
                continue
            body = m.group(1).strip()
            ok = ORDERED_OK_RE.match(body)
            if not ok:
                diagnostics.append(Diagnostic(
                    path, lineno, "MMF006",
                    f"unknown mmflow-lint annotation `{body}`; the only "
                    "recognized form is `ordered-ok(reason)`"))
                continue
            reason = ok.group(1).strip()
            if not reason:
                diagnostics.append(Diagnostic(
                    path, lineno, "MMF006",
                    "ordered-ok annotation needs a non-empty justification, "
                    "e.g. `ordered-ok(commutative integer sum)`"))
                continue
            self.ordered_ok_lines.add(lineno)
            self.ordered_ok_lines.add(lineno + 1)

    def suppresses(self, lineno: int) -> bool:
        return lineno in self.ordered_ok_lines


# ---------------------------------------------------------------------------
# MMF001: iteration over unordered containers
# ---------------------------------------------------------------------------


def find_unordered_names(code: str) -> set[str]:
    """Names of variables/members/params declared with an unordered
    container type in this translation unit, plus type aliases of such
    types (and variables declared with those aliases)."""
    names: set[str] = set()
    aliases: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        open_pos = code.find("<", m.start())
        end = match_angle_brackets(code, open_pos)
        if end < 0:
            continue
        # What follows the closing '>' decides what was declared.
        tail = code[end:end + 200]
        # `using Alias = std::unordered_map<...>;` — look *before* the match.
        before = code[max(0, m.start() - 160):m.start()]
        alias = re.search(r"\b(?:using|typedef)\s+(" + IDENT + r")\s*=\s*$",
                          before)
        if alias:
            aliases.add(alias.group(1))
            continue
        # Declarator forms: `> name;` `> name =` `> name{` `> name(`
        # `>& name)` `>* name,` ...
        decl = re.match(
            r"\s*(?:const\b\s*)?[&*]{0,2}\s*(" + IDENT + r")\s*[;={(,)\[]",
            tail)
        if decl and decl.group(1) not in ("const", "operator"):
            names.add(decl.group(1))
    if aliases:
        alias_pat = re.compile(
            r"\b(?:" + "|".join(re.escape(a) for a in aliases) + r")\s*"
            r"(?:const\b\s*)?[&*]{0,2}\s*(" + IDENT + r")\s*[;={(,)\[]")
        for m in alias_pat.finditer(code):
            names.add(m.group(1))
    return names


def check_unordered_iteration(path: str, code: str, line_starts: list[int],
                              annotations: Annotations,
                              diagnostics: list[Diagnostic]) -> None:
    names = find_unordered_names(code)
    if not names:
        return
    name_alt = "|".join(re.escape(n) for n in sorted(names))
    # Range-for directly over the container (optionally via this->/obj.).
    range_for = re.compile(
        r"\bfor\s*\([^;()]*?:\s*(?:\*?\s*)?(?:this\s*->\s*|\w+\s*\.\s*)?"
        r"(" + name_alt + r")\s*\)")
    # Iterator-based traversal: name.begin() / name.cbegin() hand the
    # bucket order to whatever loop or algorithm consumes the iterator.
    begin_call = re.compile(
        r"\b(" + name_alt + r")\s*\.\s*(?:c?begin|c?rbegin)\s*\(")
    for pattern, what in ((range_for, "range-for over"),
                          (begin_call, "iterator traversal of")):
        for m in pattern.finditer(code):
            lineno = line_of(m.start(), line_starts)
            if annotations.suppresses(lineno):
                continue
            diagnostics.append(Diagnostic(
                path, lineno, "MMF001",
                f"{what} unordered container `{m.group(1)}` observes "
                "unspecified bucket order; iterate a sorted copy (or sort "
                "the extracted items) if this can reach hashed, persisted "
                "or printed state, or annotate the loop with "
                "`// mmflow-lint: ordered-ok(reason)` after proving it "
                "order-insensitive"))


# ---------------------------------------------------------------------------
# MMF002 / MMF003 / MMF004: banned calls
# ---------------------------------------------------------------------------


def check_banned_calls(path: str, code: str, line_starts: list[int],
                       diagnostics: list[Diagnostic]) -> None:
    for m in UNCHECKED_PARSE_RE.finditer(code):
        diagnostics.append(Diagnostic(
            path, line_of(m.start(), line_starts), "MMF002",
            f"unchecked numeric parse `{m.group(1)}` accepts partial or "
            "garbage input silently; use parse_int/parse_u64/parse_double "
            "from common/strings.h (they reject trailing junk and name the "
            "offending knob)"))
    for m in RNG_RE.finditer(code):
        diagnostics.append(Diagnostic(
            path, line_of(m.start(), line_starts), "MMF003",
            f"nondeterministic randomness source `{m.group(1)}` breaks the "
            "per-seed bit-identity contract; use mmflow::Rng with an "
            "explicit seed (common/rng.h)"))
    for m in WALL_CLOCK_SEED_RE.finditer(code):
        diagnostics.append(Diagnostic(
            path, line_of(m.start(), line_starts), "MMF003",
            f"wall-clock call `{m.group(1)}()` as a value source is "
            "nondeterministic; seeds must be explicit, and timing belongs "
            "in perf timers (common/perf.h)"))
    for m in ASSERT_RE.finditer(code):
        diagnostics.append(Diagnostic(
            path, line_of(m.start(), line_starts), "MMF004",
            "raw assert() compiles out under NDEBUG, silently skipping the "
            "invariant in release builds; use MMFLOW_CHECK / MMFLOW_REQUIRE "
            "(common/check.h)"))
    for m in ASSERT_INCLUDE_RE.finditer(code):
        diagnostics.append(Diagnostic(
            path, line_of(m.start(), line_starts), "MMF004",
            "including <cassert> invites raw assert(); use common/check.h"))


# ---------------------------------------------------------------------------
# MMF005: perf counter/timer name grammar
# ---------------------------------------------------------------------------


def check_perf_names(path: str, original: str, code: str,
                     line_starts: list[int],
                     diagnostics: list[Diagnostic]) -> None:
    for m in PERF_CALL_RE.finditer(code):
        arg_start = m.end()
        if arg_start >= len(original) or original[arg_start] != '"':
            continue  # dynamic name expression; checked at its literal parts
        lit = re.match(r'"([^"\\]*)"\s*', original[arg_start:])
        if not lit:
            continue
        name = lit.group(1)
        after = code[arg_start + lit.end():arg_start + lit.end() + 2]
        lineno = line_of(arg_start, line_starts)
        is_complete = after.startswith(")") or after.startswith(",")
        if is_complete:
            if not PERF_NAME_RE.match(name):
                diagnostics.append(Diagnostic(
                    path, lineno, "MMF005",
                    f'perf name "{name}" violates the `module.name` grammar '
                    "(lowercase snake-case segments, >= 2, dot-separated); "
                    "bench JSON consumers key on exact names"))
                continue
        else:
            # Literal continued at runtime ("tune.rung" + to_string(r)).
            if not PERF_PREFIX_RE.match(name):
                diagnostics.append(Diagnostic(
                    path, lineno, "MMF005",
                    f'perf name prefix "{name}" violates the `module.name` '
                    "grammar (lowercase snake-case, dot-separated)"))
                continue
        module = name.split(".", 1)[0]
        if module not in PERF_MODULES:
            diagnostics.append(Diagnostic(
                path, lineno, "MMF005",
                f'perf name "{name}" uses unregistered module prefix '
                f'"{module}"; registered: {", ".join(sorted(PERF_MODULES))} '
                "(extend PERF_MODULES in tools/mmflow_lint.py when adding "
                "a module)"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lint_file(path: str) -> list[Diagnostic]:
    try:
        with open(path, encoding="utf-8") as f:
            original = f.read()
    except OSError as e:
        print(f"mmflow-lint: cannot read {path}: {e}", file=sys.stderr)
        raise
    diagnostics: list[Diagnostic] = []
    code, comments = strip_comments_and_strings(original)
    line_starts = [0]
    for i, ch in enumerate(code):
        if ch == "\n":
            line_starts.append(i + 1)
    annotations = Annotations(path, comments, diagnostics)
    check_unordered_iteration(path, code, line_starts, annotations,
                              diagnostics)
    check_banned_calls(path, code, line_starts, diagnostics)
    check_perf_names(path, original, code, line_starts, diagnostics)
    return diagnostics


def collect_files(paths: list[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, entries in os.walk(p):
                dirs.sort()
                for entry in sorted(entries):
                    if entry.endswith((".h", ".hpp", ".cpp", ".cc")):
                        files.append(os.path.join(root, entry))
        else:
            print(f"mmflow-lint: no such file or directory: {p}",
                  file=sys.stderr)
            sys.exit(2)
    return files


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="mmflow_lint.py",
        description="Project-specific determinism lint (see file docstring "
                    "and docs/STATIC_ANALYSIS.md).")
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args()
    if args.list_rules:
        for rule, name in sorted(RULES.items()):
            print(f"{rule}  {name}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2
    try:
        files = collect_files(args.paths)
        diagnostics: list[Diagnostic] = []
        for path in files:
            diagnostics.extend(lint_file(path))
    except OSError:
        return 2
    diagnostics.sort(key=lambda d: (d.path, d.line, d.rule))
    for d in diagnostics:
        print(d.render())
    if diagnostics:
        print(f"mmflow-lint: {len(diagnostics)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"mmflow-lint: {len(files)} file(s) clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
