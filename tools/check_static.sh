#!/usr/bin/env bash
# Static-analysis gate, run by the CI `static` job (and locally).
#
#  1. clang-tidy over the compilation database, using the curated check
#     set in .clang-tidy (WarningsAsErrors: '*'). Skipped with a notice
#     when clang-tidy is not installed, so the domain lints below still
#     run on toolchains without LLVM (the container ships GCC only).
#  2. sag_lint (tools/sag_lint/, python3), the one engine for every
#     domain rule over the source tree (docs/STATIC_ANALYSIS.md §4):
#       units-param  no bare-double power/SNR/noise/dB parameter outside
#                    src/units (sag::units strong types at boundaries);
#       ids-param    no raw size_t entity-index parameter in solver
#                    headers (sag::ids strong IDs);
#       gain-param   no bare-double path-gain parameter outside
#                    src/wireless (GainKernel / PropagationModel);
#       raw-escape   every .raw()/.value() escape from a strong type
#                    outside its defining module carries a
#                    `// SAG_RAW_OK:` justification;
#       det-entropy / det-unordered  no ambient entropy in src/, no
#                    unordered container in src/core, src/opt (threads=N
#                    == serial == yesterday's run);
#       conc-raw     no raw threading primitive in src/ outside src/exec/;
#       layering     the include graph matches tools/layering.json
#                    exactly (no undeclared and no dead edges), and so
#                    does DESIGN.md's layering block;
#       dead-api     every function declared in a public header under
#                    src/*/include/ has a call-shaped reference in
#                    src/, tools/, bench/, examples/ or perfbench/
#                    (tests/ do not count; test oracles are
#                    allowlisted);
#       doc-names    every backticked module-qualified name in the docs
#                    (`core::solve_sag`) names identifiers that exist in
#                    that code;
#       dead-suppression  every entry of the one allowlist,
#                    tools/check_static_allowlist.txt, names its rule
#                    and still matches something.
#     The rules ignore comments and strings; the param rules also
#     resolve typedef/using aliases, and in CI the libclang engine
#     re-derives them from canonical AST types on top. A missing
#     python3 fails the gate in every mode.
#
# Usage: tools/check_static.sh [--strict] [--require-libclang] [build-dir]
#        (default build dir: build)
#
# Degradation policy: locally, a missing compilation database skips the
# clang-tidy pass with a notice and everything else still gates. Under
# CI=true or --strict that hole closes: a missing database is a hard
# failure, so CI can never silently run a weaker gate than the one this
# script documents. A missing python3 is a hard failure in every mode.
# --require-libclang additionally makes sag_lint fail unless its
# libclang engine actually loaded (the CI static job sets it; dev
# containers without clang bindings do not).
set -u
cd "$(dirname "$0")/.."

build_dir=build
strict=0
require_libclang=0
for arg in "$@"; do
    case $arg in
        --strict) strict=1 ;;
        --require-libclang) require_libclang=1 ;;
        *) build_dir=$arg ;;
    esac
done
if [ "${CI:-}" = "true" ]; then
    strict=1
fi

fail=0
err() { echo "check_static: $*" >&2; fail=1; }

# --- 0. degradation policy ---------------------------------------------------
have_db=0
if [ -f "$build_dir/compile_commands.json" ]; then
    have_db=1
elif [ "$strict" -eq 1 ]; then
    err "no $build_dir/compile_commands.json under CI/--strict; the tidy" \
        "and libclang passes would silently degrade -- configure with" \
        "cmake (CMAKE_EXPORT_COMPILE_COMMANDS is on by default) first"
fi

# --- 1. clang-tidy ---------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
    if [ "$have_db" -eq 0 ]; then
        echo "check_static: no $build_dir/compile_commands.json;" \
             "skipping tidy pass (lint-only mode -- configure with cmake" \
             "to enable clang-tidy)" >&2
    else
        # Project sources only; third-party and generated code are not ours
        # to fix. The test oracles are library code the cross-check tests
        # trust, so they are tidied like src/. run-clang-tidy parallelizes
        # over the compilation DB.
        sources=$(git ls-files 'src/*.cpp' 'tools/*.cpp' 'examples/*.cpp' \
                               'tests/oracles/*.cpp')
        if command -v run-clang-tidy >/dev/null 2>&1; then
            # Capture the findings: run-clang-tidy's stdout is the only
            # place they appear, so on failure it must be echoed, not
            # discarded (a silent "see above" pointed at nothing).
            # shellcheck disable=SC2086
            if ! tidy_out=$(run-clang-tidy -quiet -p "$build_dir" $sources 2>&1); then
                echo "$tidy_out" >&2
                err "clang-tidy reported findings (echoed above)"
            fi
        else
            for f in $sources; do
                clang-tidy --quiet -p "$build_dir" "$f" ||
                    err "clang-tidy: findings in $f"
            done
        fi
    fi
else
    echo "check_static: clang-tidy not installed; skipping tidy pass" >&2
fi

# --- 2. sag_lint (every domain rule, the allowlist) ------------------------
if command -v python3 >/dev/null 2>&1; then
    sag_lint_args=(--build-dir "$build_dir")
    if [ "$require_libclang" -eq 1 ]; then
        sag_lint_args+=(--require-libclang)
    fi
    python3 tools/sag_lint "${sag_lint_args[@]}"
    status=$?
    if [ "$status" -eq 2 ]; then
        err "sag_lint could not run (environment/configuration error above)"
    elif [ "$status" -ne 0 ]; then
        err "sag_lint reported findings (listed above)"
    fi
else
    err "python3 not available; sag_lint (every domain rule) cannot run"
fi

if [ "$fail" -ne 0 ]; then
    echo "check_static: FAILED" >&2
    exit 1
fi
echo "check_static: OK"
