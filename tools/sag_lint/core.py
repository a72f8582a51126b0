"""Shared infrastructure for sag_lint: source model, findings, suppressions.

Everything here is dependency-free python3 stdlib, so the linter runs on
any toolchain (the dev container ships no libclang).  The clang engine
in clang_engine.py layers exact AST analysis on top when the bindings
and a compilation database exist.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

# Rule identifiers.  Suppression entries name one of these explicitly;
# an entry with an unknown or absent rule name is itself an error.
RULE_UNITS_PARAM = "units-param"
RULE_IDS_PARAM = "ids-param"
RULE_GAIN_PARAM = "gain-param"
RULE_RAW_ESCAPE = "raw-escape"
RULE_DET_ENTROPY = "det-entropy"
RULE_DET_UNORDERED = "det-unordered"
RULE_CONC_RAW = "conc-raw"
RULE_LAYERING = "layering"
RULE_DEAD_API = "dead-api"
RULE_DOC_NAMES = "doc-names"
RULE_DEAD_SUPPRESSION = "dead-suppression"

# Rules whose findings may be suppressed via tools/check_static_allowlist.txt.
SUPPRESSIBLE_RULES = (RULE_UNITS_PARAM, RULE_IDS_PARAM, RULE_GAIN_PARAM,
                      RULE_DET_ENTROPY, RULE_DET_UNORDERED, RULE_CONC_RAW,
                      RULE_DEAD_API)

SOURCE_EXTS = (".h", ".cpp")


@dataclass
class Finding:
    """One lint violation, anchored to a source line."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int  # 1-based
    message: str
    content: str = ""  # the source line, for reporting + suppression match

    def key(self) -> str:
        """The string suppression fragments are matched against."""
        return f"{self.path}:{self.line}:{self.content}"

    def identity(self) -> tuple:
        """Dedupe key across engines (builtin + libclang see the same site)."""
        return (self.rule, self.path, self.line, self.message)


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving layout.

    Every replaced character becomes a space (newlines are kept), so
    byte offsets and line numbers in the stripped text match the
    original.  Handles //, /* */, "..."/'...' with escapes, and C++ raw
    strings R"delim(...)delim".  A digit separator (`200'000`) is code,
    not the start of a char literal.  This is what makes the token rules
    immune to the classic grep false positives: a parameter list quoted
    in a comment or a log string never matches.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"' and (not out or not _ident_char(text[i - 1])):
            # Raw string: R"delim( ... )delim"
            m = re.match(r'R"([^()\\ \t\n]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i + m.end())
            stop = n if end < 0 else end + len(m.group(1)) + 2
            while i < stop:
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
        elif c == '"' or (c == "'" and not _digit_separator(text, i)):
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def _digit_separator(text: str, i: int) -> bool:
    """Whether the quote at text[i] sits inside a numeric literal: the
    token before it starts with a digit (`1'000`, `0x1'FF`), while a
    char literal's prefix starts with a letter (`L'a'`, `u8'a'`)."""
    j = i
    while j > 0 and (_ident_char(text[j - 1]) or text[j - 1] in ".'"):
        j -= 1
    return j < i and text[j].isdigit()


@dataclass
class SourceFile:
    """One scanned source file: original lines plus a stripped view."""

    path: str  # repo-relative posix path
    text: str
    stripped: str
    lines: list = field(default_factory=list)

    @classmethod
    def load(cls, root: str, rel_path: str) -> "SourceFile":
        with open(os.path.join(root, rel_path), encoding="utf-8", errors="replace") as f:
            text = f.read()
        return cls(
            path=rel_path.replace(os.sep, "/"),
            text=text,
            stripped=strip_comments_and_strings(text),
            lines=text.split("\n"),
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].rstrip()
        return ""


def walk_sources(root: str, top_dirs, exts=SOURCE_EXTS):
    """Deterministically list repo-relative source paths under top_dirs."""
    found = []
    for top in top_dirs:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(tuple(exts)):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    found.append(rel.replace(os.sep, "/"))
    return found


@dataclass
class SuppressionEntry:
    file: str  # allowlist file the entry came from
    lineno: int
    rule: str
    fragment: str
    used: bool = False

    def describe(self) -> str:
        return f"{self.file}:{self.lineno}: `{self.rule}: {self.fragment}`"


class Suppressions:
    """Rule-named allowlist: `rule-id: fixed-string-fragment` per line.

    A fragment is matched (substring, fixed) against a finding's
    `path:line:content` key, like a `grep -F` filter over `grep -n`
    hits.  Every entry must name the rule it suppresses; after a run,
    entries that matched nothing are dead and reported as findings
    themselves (dead-suppression), so stale entries cannot silently
    mask future violations.
    """

    ENTRY_RE = re.compile(r"^([a-z][a-z0-9-]*):\s*(.+?)\s*$")

    def __init__(self):
        self.entries: list[SuppressionEntry] = []
        self.format_errors: list[Finding] = []

    def load(self, root: str, rel_path: str, allowed_rules) -> None:
        path = os.path.join(root, rel_path)
        if not os.path.isfile(path):
            return
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                m = self.ENTRY_RE.match(line)
                if not m or m.group(1) not in allowed_rules:
                    self.format_errors.append(Finding(
                        rule=RULE_DEAD_SUPPRESSION,
                        path=rel_path,
                        line=lineno,
                        message=(
                            "allowlist entry must name the rule it suppresses "
                            f"(one of: {', '.join(allowed_rules)}), as "
                            "`rule-id: fixed-fragment`"),
                        content=line,
                    ))
                    continue
                self.entries.append(SuppressionEntry(
                    file=rel_path, lineno=lineno,
                    rule=m.group(1), fragment=m.group(2)))

    def filter(self, findings):
        """Drop suppressed findings, marking the entries that fired."""
        kept = []
        for f in findings:
            suppressed = False
            for e in self.entries:
                if e.rule == f.rule and e.fragment in f.key():
                    e.used = True
                    suppressed = True
            if not suppressed:
                kept.append(f)
        return kept

    def dead_entries(self):
        """Entries that matched no finding this run → dead-suppression."""
        dead = []
        for e in self.entries:
            if not e.used:
                dead.append(Finding(
                    rule=RULE_DEAD_SUPPRESSION,
                    path=e.file,
                    line=e.lineno,
                    message=(
                        f"dead allowlist entry (matches nothing): {e.describe()}; "
                        "delete it so it cannot mask a future violation"),
                    content=f"{e.rule}: {e.fragment}",
                ))
        return dead
