#!/usr/bin/env bash
# Static-analysis gate, run by the CI `static` job (and locally).
#
#  1. clang-tidy over the compilation database, using the curated check
#     set in .clang-tidy (WarningsAsErrors: '*'). Skipped with a notice
#     when clang-tidy is not installed, so the domain lints below still
#     run on toolchains without LLVM (the container ships GCC only).
#  2. sag_lint (tools/sag_lint/, python3): the domain rules as real
#     token/AST analyses --
#       units-param  no bare-double power/SNR/noise/dB parameter outside
#                    src/units (sag::units strong types at boundaries);
#       ids-param    no raw size_t entity-index parameter in solver
#                    headers (sag::ids strong IDs);
#       gain-param   no bare-double path-gain parameter outside
#                    src/wireless (GainKernel / PropagationModel);
#       raw-escape   every .raw()/.value() escape from a strong type
#                    outside its defining module carries a
#                    `// SAG_RAW_OK:` justification;
#       layering     the include graph matches tools/layering.json
#                    exactly (no undeclared and no dead edges);
#       dead-suppression  every allowlist entry names its rule and
#                    still matches something.
#     The three param rules resolve typedef/using aliases and ignore
#     comments and strings, so renaming `double` or quoting a signature
#     cannot dodge them. In CI the libclang engine re-derives them from
#     canonical AST types on top. sag_lint is the only engine for these
#     rules: a missing python3 fails the gate in every mode.
#  3. Determinism lint (grep): no nondeterminism source may enter src/
#     -- no std::random_device, rand()/srand(), time(nullptr), or
#     unseeded std::mt19937 (rule det-entropy: all randomness is seeded
#     std::mt19937_64, so threads=N == serial == yesterday's run), and
#     no unordered_map/unordered_set in the solver result-construction
#     layers src/core, src/opt (rule det-unordered), whose iteration
#     order is implementation-defined. Justified exceptions:
#     tools/check_determinism_allowlist.txt.
#  4. Concurrency-confinement lint (grep): no raw std::thread/std::mutex/
#     std::condition_variable (or lock types / their headers) outside
#     src/exec/ (rule conc-raw). All parallelism flows through the one
#     annotated (Clang Thread Safety Analysis) and TSan-covered
#     abstraction -- exec::ThreadPool + exec::Mutex/MutexLock/CondVar.
#     Justified exceptions: tools/check_concurrency_allowlist.txt.
#
# Allowlist format (all three allowlist files): `rule-id: fragment`, the
# fragment fixed-string matched against `file:line:content` hits of that
# rule only. An entry without a valid rule prefix is an error, and so is
# a dead entry that matches nothing -- stale suppressions cannot linger.
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

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Rule-scoped allowlist filter for the grep lints: entries are
# `rule-id: fragment` lines; only entries naming $3 apply, each matched
# fixed-string against the `file:line:content` hits. Entries that fire
# are recorded so validate_allowlist() can flag the dead ones.
apply_allowlist() {
    # $1 = hits, $2 = allowlist path, $3 = rule id
    local hits=$1 file=$2 rule=$3 out frag
    out=$hits
    if [ -z "$hits" ] || [ ! -f "$file" ]; then
        echo "$out"
        return
    fi
    while IFS= read -r frag; do
        [ -n "$frag" ] || continue
        if echo "$hits" | grep -qF -- "$frag"; then
            printf '%s: %s\n' "$rule" "$frag" >> "$tmpdir/used.${file##*/}"
        fi
        out=$(echo "$out" | grep -vF -- "$frag" || true)
    done < <(sed -n "s/^${rule}:[[:space:]]*//p" "$file")
    echo "$out"
}

# Validate one allowlist file after its rules ran: every non-comment
# entry must name one of the file's rules, and every entry must have
# suppressed at least one hit this run (dead entries mask nothing today
# and hide violations tomorrow, so they fail the gate).
validate_allowlist() {
    # $1 = allowlist path, $2.. = rule ids this file may name
    local file=$1 used line rule frag valid r
    shift
    [ -f "$file" ] || return 0
    used="$tmpdir/used.${file##*/}"
    while IFS= read -r line; do
        rule=${line%%:*}
        valid=0
        for r in "$@"; do
            [ "$rule" = "$r" ] && valid=1
        done
        if [ "$rule" = "$line" ] || [ "$valid" -eq 0 ]; then
            err "$file: allowlist entry must be \`rule-id: fragment\`" \
                "naming one of: $* -- got: $line"
            continue
        fi
        frag=$(printf '%s' "${line#*:}" | sed 's/^[[:space:]]*//')
        if [ ! -f "$used" ] || ! grep -qF -- "$rule: $frag" "$used"; then
            err "$file: dead allowlist entry (matches nothing): $line" \
                "-- delete it so it cannot mask a future violation"
        fi
    done < <(grep -v '^[[:space:]]*\(#\|$\)' "$file" || true)
}

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
        # to fix. run-clang-tidy parallelizes over the compilation DB.
        sources=$(git ls-files 'src/*.cpp' 'tools/*.cpp' 'examples/*.cpp')
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

# --- 2. sag_lint (param rules, raw-escape audit, layering, suppressions) ----
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
    err "python3 not available; sag_lint (the param, raw-escape, and" \
        "layering rules) cannot run"
fi

# --- 3. determinism lint ----------------------------------------------------
# The reproducibility contract (docs/PERFORMANCE.md): solver output is a
# pure function of (scenario, options, seed) — threads=N, the serial
# path, and yesterday's binary all agree bit-for-bit. Two sub-lints:
#
# det-entropy: no ambient-entropy source anywhere in src/ --
#     std::random_device, C rand()/srand(), wall-clock seeding via
#     time(nullptr)/time(NULL), or a default-constructed (unseeded)
#     std::mt19937/mt19937_64. Seeded engines (std::mt19937_64 rng(seed))
#     are the one sanctioned randomness and do not match.
det_entropy_pattern='std::random_device|[^a-zA-Z0-9_](rand|srand)[[:space:]]*\(|[^a-zA-Z0-9_]time[[:space:]]*\([[:space:]]*(nullptr|NULL)[[:space:]]*\)|mt19937(_64)?[[:space:]]+[a-zA-Z_][a-zA-Z0-9_]*[[:space:]]*(;|\{[[:space:]]*\}|=[[:space:]]*\{[[:space:]]*\})'
det_hits=$(grep -rnE "$det_entropy_pattern" src \
               --include='*.h' --include='*.cpp' 2>/dev/null) || true
det_hits=$(apply_allowlist "$det_hits" tools/check_determinism_allowlist.txt det-entropy)
if [ -n "$det_hits" ]; then
    err "nondeterminism source(s) in src/; seed a std::mt19937_64 explicitly" \
        "(or add a justified det-entropy entry to" \
        "tools/check_determinism_allowlist.txt):"
    echo "$det_hits" >&2
fi

# det-unordered: no unordered_map/unordered_set in the solver
#     result-construction layers (src/core, src/opt): their iteration
#     order is implementation-defined, so any loop over one while
#     assembling a plan/cover/assignment makes results compiler- or
#     run-dependent. Ordered containers (std::map/set) or index-sorted
#     vectors convey the same lookups deterministically. Spatial hashing
#     in sag::geometry is out of scope — it never iterates its buckets
#     into results.
det_unord_hits=$(grep -rnE 'unordered_(map|set)' src/core src/opt \
                     --include='*.h' --include='*.cpp' 2>/dev/null) || true
det_unord_hits=$(apply_allowlist "$det_unord_hits" tools/check_determinism_allowlist.txt det-unordered)
if [ -n "$det_unord_hits" ]; then
    err "unordered container(s) in solver result-construction paths" \
        "(src/core, src/opt); use an ordered container or sorted vector" \
        "(or add a justified det-unordered entry to" \
        "tools/check_determinism_allowlist.txt):"
    echo "$det_unord_hits" >&2
fi

validate_allowlist tools/check_determinism_allowlist.txt \
    det-entropy det-unordered

# --- 4. concurrency-confinement lint ----------------------------------------
# conc-raw: all parallelism flows through sag::exec — the one ThreadPool
# plus the exec::Mutex/MutexLock/CondVar wrappers that carry Clang
# Thread Safety Analysis annotations and sit inside the TSan CI job's
# test scope. A raw std::thread/std::mutex/std::condition_variable (or
# lock helper, or its header) elsewhere in src/ is unanalyzed,
# unannotated concurrency: it compiles on GCC with no thread-safety
# checking at all. std::atomic stays allowed (lock-free leaf discipline,
# e.g. sag::obs cells).
conc_pattern='std::(thread|jthread|mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock|call_once|once_flag)[^a-zA-Z0-9_]|#[[:space:]]*include[[:space:]]*<(thread|mutex|shared_mutex|condition_variable)>'
conc_hits=$(grep -rnE "$conc_pattern" src \
                --include='*.h' --include='*.cpp' 2>/dev/null |
            grep -v '^src/exec/') || true
conc_hits=$(apply_allowlist "$conc_hits" tools/check_concurrency_allowlist.txt conc-raw)
if [ -n "$conc_hits" ]; then
    err "raw threading primitive(s) outside src/exec/; route through" \
        "exec::ThreadPool / exec::Mutex (sag/exec/mutex.h) so the locking" \
        "is thread-safety-annotated and TSan-covered (or add a justified" \
        "conc-raw entry to tools/check_concurrency_allowlist.txt):"
    echo "$conc_hits" >&2
fi

validate_allowlist tools/check_concurrency_allowlist.txt conc-raw

if [ "$fail" -ne 0 ]; then
    echo "check_static: FAILED" >&2
    exit 1
fi
echo "check_static: OK"
