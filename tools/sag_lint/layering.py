"""Include-graph layering check against the tools/layering.json manifest.

The manifest declares the module DAG the architecture is built around
(units/ids/geometry at the bottom, core above the algorithm layers,
io/sim at the top).  This rule makes the DAG real:

  * every source file under src/<dir>/ must belong to a declared module;
  * every `#include <sag/X/...>` / `#include "sag/X/..."` crossing from
    module M into X must be a declared edge (X == M or X in deps(M));
  * apex directories (tools, examples, bench, tests) sit above the DAG
    and may include any *declared* module — but an include of an
    undeclared sag/<X>/ is still an error;
  * a declared edge that no include exercises is *dead* and fails, so
    the manifest can never drift looser than the code: every entry in
    tools/layering.json is load-bearing, and deleting any one of them
    makes this check (and with it the static gate) fail;
  * the ```layering block in DESIGN.md section 10 lists exactly the
    manifest's `module -> dep, dep` lines, in both directions, so a DAG
    change is always a design-document diff too.

Layering findings are not suppressible: the manifest IS the policy, so
a new edge is legalized by declaring it (in the manifest and DESIGN.md,
then passing review), never by allowlisting a violation.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter

from core import Finding, RULE_LAYERING

MANIFEST_DEFAULT = "tools/layering.json"
DESIGN_DOC = "DESIGN.md"
# Matched against ORIGINAL lines: quoted include paths are string
# literals, so the stripped view blanks them.  A line only counts when
# its stripped counterpart still carries the directive, which is what
# keeps commented-out includes out of the graph.
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]sag/([A-Za-z0-9_]+)/')
DIRECTIVE_RE = re.compile(r"^\s*#\s*include\b")


def include_edges(src):
    """Yield (lineno, target-module) for every live sag/ include."""
    stripped_lines = src.stripped.split("\n")
    for lineno, line in enumerate(src.lines, 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        if lineno <= len(stripped_lines) and not DIRECTIVE_RE.match(
                stripped_lines[lineno - 1]):
            continue  # the directive only exists inside a comment
        yield lineno, m.group(1)


class ManifestError(Exception):
    pass


def load_manifest(path: str) -> tuple[dict, list]:
    """Returns ({module: [deps in manifest order]}, [apex dirs]).  Keys
    starting with '_' are documentation and ignored."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        raise ManifestError(f"cannot read layering manifest {path}: {e}")
    raw_modules = data.get("modules")
    if not isinstance(raw_modules, dict) or not raw_modules:
        raise ManifestError(f"{path}: no \"modules\" object")
    modules = {}
    for name, spec in raw_modules.items():
        if name.startswith("_"):
            continue
        deps = spec.get("deps", []) if isinstance(spec, dict) else None
        if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
            raise ManifestError(
                f"{path}: module {name!r} needs a \"deps\" list of module names")
        modules[name] = deps
    apex = data.get("apex", [])
    if not isinstance(apex, list):
        raise ManifestError(f"{path}: \"apex\" must be a list of directories")
    return modules, apex


def design_block_findings(modules: dict, manifest_path: str,
                          design_path: str) -> list:
    """DESIGN.md's ```layering block must hold exactly the manifest's
    `module -> dep, dep` lines (any line order)."""
    try:
        with open(design_path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except OSError:
        lines = []
    block = []  # (lineno, text) inside every ```layering fence
    inside = False
    for lineno, line in enumerate(lines, 1):
        if inside and line.startswith("```"):
            inside = False
        elif inside:
            block.append((lineno, line.rstrip()))
        elif line == "```layering":
            inside = True
    if not block:
        return [Finding(
            rule=RULE_LAYERING, path=DESIGN_DOC, line=1,
            message=("no ```layering block (the module DAG section is "
                     f"missing); it must list the {manifest_path} edges"))]

    # Multiset match: a line the manifest holds once may appear once.
    missing = Counter(f"{name} -> {', '.join(deps)}".rstrip()
                      for name, deps in modules.items())
    drift = f"the DESIGN.md layering block drifts from {manifest_path}"
    findings = []
    for lineno, text in block:
        if missing[text] > 0:
            missing[text] -= 1
            continue
        findings.append(Finding(
            rule=RULE_LAYERING, path=DESIGN_DOC, line=lineno,
            message=f"{drift}: `{text}` is only in DESIGN.md", content=text))
    for text in sorted(missing.elements()):
        findings.append(Finding(
            rule=RULE_LAYERING, path=DESIGN_DOC, line=block[0][0] - 1,
            message=f"{drift}: `{text}` is only in the manifest", content=text))
    return findings


def module_of(path: str):
    parts = path.split("/")
    if len(parts) >= 2 and parts[0] == "src":
        return parts[1]
    return None


def run(sources, manifest_path: str, design_path: str) -> list:
    modules, apex = load_manifest(manifest_path)
    findings = design_block_findings(modules, manifest_path, design_path)

    for name, deps in sorted(modules.items()):
        for dep in sorted(deps):
            if dep not in modules:
                findings.append(Finding(
                    rule=RULE_LAYERING, path=manifest_path, line=1,
                    message=(f"module `{name}` declares dependency on "
                             f"undeclared module `{dep}`")))
            if dep == name:
                findings.append(Finding(
                    rule=RULE_LAYERING, path=manifest_path, line=1,
                    message=f"module `{name}` declares a self-dependency"))

    used_edges = set()  # (module, dep) include edges actually seen
    modules_with_files = set()

    for src in sources:
        mod = module_of(src.path)
        if mod is not None:
            if mod not in modules:
                findings.append(Finding(
                    rule=RULE_LAYERING, path=src.path, line=1,
                    message=(f"src/{mod}/ is not a declared module in "
                             f"{manifest_path}; add it (with its deps) to "
                             "the layering manifest and to DESIGN.md"),
                    content=src.path))
                continue
            modules_with_files.add(mod)
        top = src.path.split("/")[0]
        in_apex = mod is None and top in apex
        if mod is None and not in_apex:
            continue
        for line, target in include_edges(src):
            if target not in modules:
                findings.append(Finding(
                    rule=RULE_LAYERING, path=src.path, line=line,
                    message=(f"include of undeclared module `sag/{target}/`"
                             f" (not in {manifest_path})"),
                    content=src.line_text(line)))
                continue
            if mod is None or target == mod:
                continue  # apex dirs may use any declared module
            if target in modules[mod]:
                used_edges.add((mod, target))
            else:
                findings.append(Finding(
                    rule=RULE_LAYERING, path=src.path, line=line,
                    message=(
                        f"illegal include edge: module `{mod}` -> `{target}` "
                        f"violates the layering manifest ({manifest_path}); "
                        f"`{target}` is not in `{mod}`'s declared deps"),
                    content=src.line_text(line)))

    for name in sorted(modules_with_files):
        for dep in sorted(set(modules[name]) - {d for (m, d) in used_edges
                                                if m == name}):
            findings.append(Finding(
                rule=RULE_LAYERING, path=manifest_path, line=1,
                message=(
                    f"dead layering edge `{name}` -> `{dep}`: declared in "
                    f"{manifest_path} but no include in src/{name}/ uses it; "
                    "remove the stale edge so the manifest stays tight"),
                content=f"{name} -> {dep}"))
    return findings
