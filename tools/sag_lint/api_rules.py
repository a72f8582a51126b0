"""Caller rules: public functions nothing calls, docs naming nothing.

Both rules read one index, built with one identifier pass per caller
file: the comment-stripped sources under src/, tools/, bench/,
examples/ and perfbench/.  tests/ is not a caller, so a function only a
test calls is dead code with a test attached; perfbench/ is read as a
caller but never linted.

  dead-api   a function declared in a public header (src/*/include/)
             needs a reference in a caller file other than a
             declaration or out-of-line definition of that name.  The
             check is by name: a live function sharing the name of a
             dead one keeps it alive, and a dead function's call of
             another keeps that one alive until the caller goes.  Test
             oracles are allowlisted, each entry naming the test that
             needs it.
  doc-names  every backticked module-qualified name in README.md,
             DESIGN.md, EXPERIMENTS.md and docs/*.md (`core::solve_sag`,
             `sag::exec::Deadline::expired`) names identifiers that
             exist in caller code, every segment after the module.
             Not suppressible: reword the doc instead.

A declaration is an identifier followed by `(` at namespace or class
scope, outside parentheses, after a type (an identifier, `>`, `*` or
`&`) and an optional `A::B::` qualifier.  That shape covers in-class
declarations, inline definitions and out-of-line `T C::f(...)`
definitions.  Every other occurrence of an identifier is a reference:
calls inside function bodies (inline ones in the same header too),
initializers, default arguments and preprocessor lines.
"""

from __future__ import annotations

import glob
import os
import re
import string

from core import Finding, RULE_DEAD_API, RULE_DOC_NAMES

CALLER_PREFIXES = ("src/", "tools/", "bench/", "examples/", "perfbench/")
PUBLIC_HEADER_RE = re.compile(r"^src/[^/]+/include/")
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

TOKEN_RE = re.compile(r"\d[\w.']*|[A-Za-z_]\w*|::|[^\s\w]")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
DIRECTIVE_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.M)
MACRO_RE = re.compile(r"[A-Z][A-Z0-9_]*$")
NAMESPACE_RE = re.compile(r"\bnamespace\s+sag::(\w+)")
SPAN_RE = re.compile(r"`([^`\n]+)`")
FENCE_RE = re.compile(r"^ {0,3}(`{3,}|~{3,})([^`]*)$")
QUALIFIED_RE = re.compile(r"(?<![\w:])(?:sag::)?(\w+)((?:::~?[A-Za-z_]\w*)+)")
IDENT_START = frozenset(string.ascii_letters + "_")

# Before a declared name: anything but these identifiers is a type.
NOT_TYPE = frozenset({"return", "throw", "new", "delete", "case", "else",
                      "do", "goto", "using", "operator", "co_return",
                      "co_yield", "co_await", "explicit"})
# Followed by `(` at declaration scope, yet never a function name.
NOT_NAME = frozenset({"decltype", "alignas", "alignof", "sizeof", "noexcept",
                      "static_assert", "requires", "typeid", "operator",
                      "explicit", "__attribute__", "void", "bool", "char",
                      "int", "long", "short", "float", "double", "unsigned",
                      "signed", "auto", "static_cast", "const_cast",
                      "reinterpret_cast", "dynamic_cast"})
SCOPE_HEADS = frozenset({"namespace", "class", "struct", "union", "extern"})


def _is_ident(tok: str) -> bool:
    return tok[0] in IDENT_START


def _statement_head(toks, start: int, stop: int):
    """The first token of toks[start:stop] past `template <...>`,
    access labels and `[[...]]` attributes."""
    i = start
    while i < stop:
        t = toks[i]
        if t == "template" and i + 1 < stop and toks[i + 1] == "<":
            depth, i = 0, i + 1
            while i < stop:
                depth += {"<": 1, ">": -1}.get(toks[i], 0)
                i += 1
                if depth == 0:
                    break
        elif t in ("public", "private", "protected") and i + 1 < stop \
                and toks[i + 1] == ":":
            i += 2
        elif t == "[" and i + 1 < stop and toks[i + 1] == "[":
            while i < stop and not (toks[i] == "]" and toks[i - 1] == "]"):
                i += 1
            i += 1
        else:
            return i
    return stop


def _qualifier_start(toks, i: int) -> int:
    """For the name at toks[i], skip back over an `A::B<T>::` qualifier;
    returns the index of the token before the qualified name."""
    j = i - 1
    while j >= 1 and toks[j] == "::":
        k = j - 1
        if toks[k] == ">":  # template arguments: Foo<T>::
            depth = 0
            while k >= 0:
                depth += {">": 1, "<": -1}.get(toks[k], 0)
                if depth == 0:
                    break
                k -= 1
            k -= 1
        if k < 0 or not _is_ident(toks[k]):
            break
        j = k - 1
    return j


class SourceIndex:
    """What one caller file declares and references, by name."""

    __slots__ = ("decls", "declared", "refs")

    def __init__(self, src, public: bool):
        refs = set()
        declared = set()

        def directive(m):
            refs.update(IDENT_RE.findall(m.group(0)))
            return re.sub(r"[^\n]", " ", m.group(0))

        text = DIRECTIVE_RE.sub(directive, src.stripped)
        matches = list(TOKEN_RE.finditer(text))
        toks = [m.group() for m in matches]
        decl_at = []  # token indices of declared names (public headers)
        stack = []
        decl, parens, stmt = True, 0, 0
        n = len(toks)
        for i, t in enumerate(toks):
            if t[0] in IDENT_START:
                if (not decl or parens or i + 1 >= n or toks[i + 1] != "("
                        or t in NOT_NAME or MACRO_RE.match(t)):
                    refs.add(t)
                    continue
                j = _qualifier_start(toks, i)
                prev = toks[j] if j >= 0 else ";"
                if (_is_ident(prev) and prev not in NOT_TYPE) or \
                        prev in (">", "*", "&"):
                    declared.add(t)
                    if public:
                        decl_at.append(i)
                else:
                    refs.add(t)
            elif t == "{":
                stack.append((decl, parens, stmt))
                if decl and not parens:
                    h = _statement_head(toks, stmt, i)
                    decl = h < i and toks[h] in SCOPE_HEADS
                else:
                    decl = False
                parens, stmt = 0, i + 1
            elif t == "}":
                if stack:
                    decl, parens, _ = stack.pop()
                stmt = i + 1
            elif t == "(":
                parens += 1
            elif t == ")":
                parens = max(0, parens - 1)
            elif t == ";" and not parens:
                stmt = i + 1
        self.refs = refs
        self.declared = declared
        # (name, line) per declared name, public headers only.
        self.decls = [(toks[i], text.count("\n", 0, matches[i].start()) + 1)
                      for i in decl_at]


class CallerIndex:
    """The caller files' declarations and references, merged."""

    def __init__(self, callers):
        self.files = {}
        self.refs = set()
        self.idents = set()
        for src in callers:
            idx = SourceIndex(src, bool(PUBLIC_HEADER_RE.match(src.path)))
            self.files[src.path] = (src, idx)
            self.refs |= idx.refs
            self.idents |= idx.refs | idx.declared
        self.modules = set()
        for path, (src, _) in self.files.items():
            if path.startswith("src/"):
                self.modules.update(NAMESPACE_RE.findall(src.stripped))


def dead_api(index: CallerIndex) -> list:
    """One finding per dead name per public header, at its first
    declaration."""
    findings = []
    for path, (src, idx) in sorted(index.files.items()):
        seen = set()
        for name, line in idx.decls:
            if name in index.refs or name in seen:
                continue
            seen.add(name)
            findings.append(Finding(
                rule=RULE_DEAD_API, path=path, line=line,
                message=(f"`{name}` has no caller: nothing in src/, tools/, "
                         "bench/, examples/ or perfbench/ references it; "
                         "delete it, or allowlist it with the test that "
                         "needs it"),
                content=src.line_text(line)))
    return findings


def _prose_lines(path: str):
    """(lineno, line) of a markdown file, fenced code blocks skipped."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    fence = None  # the open fence's marker
    for lineno, line in enumerate(lines, 1):
        m = FENCE_RE.match(line)
        if fence is None and m:
            fence = m.group(1)
        elif fence is not None:
            if m and m.group(1).startswith(fence) and not m.group(2).strip():
                fence = None
        else:
            yield lineno, line


def doc_names(root: str, index: CallerIndex) -> list:
    """Backticked `module::name::...` spans naming no code identifier."""
    findings = []
    docs = []
    for pattern in DOCS:
        docs += sorted(glob.glob(os.path.join(root, pattern)))
    for doc in docs:
        rel = os.path.relpath(doc, root).replace(os.sep, "/")
        for lineno, line in _prose_lines(doc):
            for span in SPAN_RE.findall(line):
                for m in QUALIFIED_RE.finditer(span):
                    if m.group(1) not in index.modules:
                        continue
                    names = [s.lstrip("~") for s in m.group(2).split("::")[1:]]
                    missing = [s for s in names if s not in index.idents]
                    if missing:
                        findings.append(Finding(
                            rule=RULE_DOC_NAMES, path=rel, line=lineno,
                            message=(f"`{m.group(0)}` names no code: "
                                     f"`{missing[0]}` is not an identifier "
                                     "in src/, tools/, bench/, examples/ or "
                                     "perfbench/; reword the doc"),
                            content=line.rstrip()))
    return findings
