"""sag_lint entry point.  Run from the repository root:

    python3 tools/sag_lint [--build-dir build] [--require-libclang]

Exit codes: 0 clean, 1 findings, 2 environment/configuration error.

Engine ladder (docs/STATIC_ANALYSIS.md §4.8):

  1. builtin token engine — always runs; python3 stdlib only.  Strips
     comments/strings, resolves project-wide type aliases, and applies
     the parameter rules, the raw-escape audit, the determinism and
     concurrency-confinement rules, the layering check (include graph
     and the DESIGN.md layering block, read relative to --root), the
     caller rules (dead public API, doc names that name no code), and
     dead-suppression detection.
  2. libclang engine — layered on top when the clang python bindings
     and $build_dir/compile_commands.json both exist (the CI static
     job; --require-libclang makes its absence fatal there).  Re-derives
     the parameter rules from canonical AST types and the raw-escape
     audit from real receiver types; findings are deduplicated.

This is the only lint engine: tools/check_static.sh runs clang-tidy and
then this linter, and has no rule of its own.
"""

from __future__ import annotations

import argparse
import os
import sys

import api_rules
import clang_engine
import layering
import param_rules
import pattern_rules
import raw_escape
from core import (
    Finding,
    RULE_DEAD_SUPPRESSION,
    SUPPRESSIBLE_RULES,
    SourceFile,
    Suppressions,
    walk_sources,
)

ALLOWLIST = "tools/check_static_allowlist.txt"
CPPCHECK_SUPPRESSIONS = "tools/cppcheck-suppressions.txt"
SCAN_DIRS = ("src", "tools", "examples", "bench", "tests")
CALLER_ONLY_DIRS = ("perfbench",)
AUDIT_PREFIXES = ("src/", "tools/", "examples/")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="sag_lint")
    p.add_argument("--root", default=".", help="repository root")
    p.add_argument("--build-dir", default="build",
                   help="build dir holding compile_commands.json")
    p.add_argument("--layering", default=layering.MANIFEST_DEFAULT,
                   help="layering manifest path (relative to --root)")
    p.add_argument("--require-libclang", action="store_true",
                   help="fail (exit 2) unless the libclang engine runs")
    p.add_argument("--report", default=os.environ.get("SAG_LINT_REPORT", ""),
                   help="also write the findings report to this file")
    p.add_argument("--print-engine", action="store_true",
                   help="print the resolved engine(s) and exit")
    return p.parse_args(argv)


def check_cppcheck_paths(root: str) -> list:
    """Suppression entries pinned to a path must point at a real file —
    a moved or deleted file leaves a dead suppression behind."""
    findings = []
    path = os.path.join(root, CPPCHECK_SUPPRESSIONS)
    if not os.path.isfile(path):
        return findings
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":")
            if len(parts) < 2:
                continue  # bare checkId: nothing to verify statically
            target = parts[1]
            if target and not os.path.exists(os.path.join(root, target)):
                findings.append(Finding(
                    rule=RULE_DEAD_SUPPRESSION, path=CPPCHECK_SUPPRESSIONS,
                    line=lineno,
                    message=(f"dead allowlist entry: suppression path "
                             f"`{target}` does not exist in the tree"),
                    content=line))
    return findings


def main(argv) -> int:
    args = parse_args(argv)
    root = args.root

    cindex, clang_reason = clang_engine.load()
    db = os.path.join(root, args.build_dir, "compile_commands.json")
    have_db = os.path.isfile(db)
    use_clang = cindex is not None and have_db
    if cindex is not None and not have_db:
        clang_reason = f"no compilation database at {db}"

    engine_desc = "builtin token engine"
    if use_clang:
        engine_desc += f" + {clang_engine.version_string(cindex)}"
    else:
        engine_desc += f" (libclang engine off: {clang_reason})"
    if args.print_engine:
        print(engine_desc)
        return 0
    if args.require_libclang and not use_clang:
        print(f"sag_lint: --require-libclang but {clang_reason}",
              file=sys.stderr)
        return 2

    rel_paths = walk_sources(root, SCAN_DIRS)
    sources = [SourceFile.load(root, p) for p in rel_paths]
    by_path = {s.path: s for s in sources}
    audited = [s for s in sources if s.path.startswith(AUDIT_PREFIXES)]

    findings = []
    aliases = param_rules.collect_aliases(audited)
    findings += param_rules.run(audited, aliases)
    findings += raw_escape.run(audited)
    findings += pattern_rules.run(audited)
    callers = [s for s in sources
               if s.path.startswith(api_rules.CALLER_PREFIXES)]
    callers += [SourceFile.load(root, p)
                for p in walk_sources(root, CALLER_ONLY_DIRS)]
    index = api_rules.CallerIndex(callers)
    findings += api_rules.dead_api(index)
    findings += api_rules.doc_names(root, index)
    try:
        findings += layering.run(sources, os.path.join(root, args.layering),
                                 os.path.join(root, layering.DESIGN_DOC))
    except layering.ManifestError as e:
        print(f"sag_lint: {e}", file=sys.stderr)
        return 2

    warnings = []
    if use_clang:
        try:
            clang_findings, warnings = clang_engine.run(
                cindex, root, os.path.join(root, args.build_dir), by_path)
            findings += clang_findings
        except Exception as e:
            print(f"sag_lint: libclang engine failed: {e}", file=sys.stderr)
            return 2

    # Dedupe across engines, keep a stable order for reports.
    unique = {}
    for f in findings:
        unique.setdefault(f.identity(), f)
    findings = sorted(unique.values(),
                      key=lambda f: (f.path, f.line, f.rule, f.message))

    sup = Suppressions()
    sup.load(root, ALLOWLIST, SUPPRESSIBLE_RULES)
    findings = sup.filter(findings)
    findings += sup.format_errors
    findings += sup.dead_entries()
    findings += check_cppcheck_paths(root)

    lines = [f"sag_lint: {engine_desc}"]
    lines += [f"sag_lint: note: {w}" for w in warnings]
    for f in findings:
        lines.append(f"sag_lint: [{f.rule}] {f.path}:{f.line}: {f.message}")
        if f.content:
            lines.append(f"    {f.path}:{f.line}:{f.content}")
    verdict = (f"sag_lint: FAILED ({len(findings)} finding(s))"
               if findings else
               f"sag_lint: OK ({len(audited)} files audited, "
               f"{len(sup.entries)} suppression(s) all live)")
    lines.append(verdict)
    text = "\n".join(lines)
    print(text, file=sys.stderr if findings else sys.stdout)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1:]))
