#!/usr/bin/env bash
# Documentation consistency checks, run by the CI `docs` job and the
# `check_docs` ctest (tests/CMakeLists.txt).
#
#  1. Every relative markdown link in the repo's docs resolves to a file.
#  2. The sag::obs metrics contract is bidirectionally complete:
#     every metric name emitted by a SAG_OBS_* macro in src/ or tools/
#     appears in docs/OBSERVABILITY.md, and every dotted metric name the
#     registry documents exists in the source tree (no stale rows).
#  3. The performance contract (docs/PERFORMANCE.md) is bidirectionally
#     complete: every perf-layer runtime flag read in source
#     (getenv("SAG_*"), SAG_PERF_TOLERANCE) is documented, every SAG_*
#     flag the contract names exists in the tree, and the benchmark
#     families gated by tools/check_perf.py are documented and defined.
#
# DESIGN.md §10's module-layering block is checked against the layering
# manifest by sag_lint's layering rule (tools/check_static.sh), not here.
set -u
cd "$(dirname "$0")/.."

fail=0
err() { echo "check_docs: $*" >&2; fail=1; }

# --- 1. relative markdown links -------------------------------------------
docs=$(git ls-files '*.md' 2>/dev/null || find . -name '*.md' -not -path './build*')
for doc in $docs; do
    # Extract ](target) links; keep relative paths only (skip URLs/anchors).
    links=$(grep -oE '\]\([^)#]+' "$doc" | sed 's/^](//') || true
    for link in $links; do
        case "$link" in
            http://*|https://*|mailto:*) continue ;;
        esac
        target="$(dirname "$doc")/$link"
        [ -e "$target" ] || err "$doc: broken relative link -> $link"
    done
done

# --- 2. metric registry <-> source ----------------------------------------
registry=docs/OBSERVABILITY.md
[ -f "$registry" ] || { err "missing $registry"; exit 1; }

emitted=$(grep -rhoE 'SAG_OBS_(SPAN|COUNT|COUNT_ADD|GAUGE)\("[^"]+"' src tools \
          | sed 's/.*("//; s/"$//' | sort -u)
[ -n "$emitted" ] || err "found no SAG_OBS_* emission sites in src/ or tools/"

for name in $emitted; do
    grep -qF "\`$name\`" "$registry" || \
        err "metric \`$name\` is emitted in source but missing from $registry"
done

# Documented names: backticked dotted identifiers in the registry tables.
# Only check names whose first segment is an emitting module prefix, so
# prose mentions of file paths or options are not misread as metrics.
documented=$(grep -oE '`(sag|samc|pro|power|ilpqc|ucra|opt|snr_field|sim|resilience|serve)\.[a-z0-9_.]+`' \
             "$registry" | tr -d '\`' | sort -u)
for name in $documented; do
    echo "$emitted" | grep -qxF "$name" || \
        err "metric \`$name\` is documented in $registry but not emitted anywhere in src/ or tools/"
done

# --- 3. performance contract <-> source -----------------------------------
perf=docs/PERFORMANCE.md
[ -f "$perf" ] || { err "missing $perf"; exit 1; }

# Runtime knobs the perf layer actually reads: SAG_* environment
# variables consumed in src/, plus the gate's own tolerance override.
perf_flags=$( { grep -rhoE 'getenv\("SAG_[A-Z_]+"\)' src \
                    | sed 's/.*("//; s/")$//'; \
                grep -hoE 'SAG_PERF_TOLERANCE' tools/check_perf.py; } | sort -u)
[ -n "$perf_flags" ] || err "found no perf-layer runtime flags in source"
for flag in $perf_flags; do
    grep -qF "\`$flag\`" "$perf" || \
        err "flag \`$flag\` is read in source but missing from $perf"
done

# Every SAG_* flag the contract documents must exist somewhere in the
# tree (source, CMake options, or the gate script) — no stale knobs.
documented_flags=$(grep -oE '`SAG_[A-Z_]+`' "$perf" | tr -d '\`' | sort -u)
for flag in $documented_flags; do
    grep -rqF "$flag" src tools CMakeLists.txt || \
        err "flag \`$flag\` is documented in $perf but not used anywhere"
done

# Gated benchmark families: the gate script and the contract must agree,
# and every gated family must be a real bench_micro benchmark.
gated=$(grep -oE '"BM_[A-Za-z]+"' tools/check_perf.py | tr -d '"' | sort -u)
[ -n "$gated" ] || err "found no gated benchmark families in tools/check_perf.py"
for bm in $gated; do
    grep -qF "\`$bm\`" "$perf" || \
        err "gated benchmark \`$bm\` (tools/check_perf.py) is missing from $perf"
    grep -qE "void $bm\(" bench/bench_micro.cpp || \
        err "gated benchmark $bm is not defined in bench/bench_micro.cpp"
done
documented_bms=$(grep -oE '`BM_[A-Za-z]+`' "$perf" | tr -d '\`' | sort -u)
for bm in $documented_bms; do
    grep -qE "void $bm\(" bench/bench_micro.cpp || \
        err "benchmark \`$bm\` is documented in $perf but not defined in bench/bench_micro.cpp"
done

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: OK ($(echo "$emitted" | wc -l) metrics, $(echo "$perf_flags" | wc -l) perf flags, docs links clean)"
