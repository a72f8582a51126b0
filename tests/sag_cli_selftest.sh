#!/usr/bin/env bash
# Self-test for sag_cli's number parsing, registered as the
# `sag_cli_selftest` ctest case with the built binary as its argument:
#
#   tests/sag_cli_selftest.sh path/to/sag_cli
#
# A numeric flag must be a finite number, and a count flag (--users,
# --seed, ...) a whole number in [0, 2^53]; anything else is a usage
# error (exit 2, message naming the flag). An `assignment` entry of a
# result file handed to `verify` must be an RS index; anything else is
# an `error:` line naming the field (exit 1). Before these checks an
# out-of-range double was converted to size_t (undefined behaviour),
# 1e30 users silently became 0, and `abc` died with `error: stod`.
# Input nested 200,000 levels deep, as a scenario or as an event line, is
# an `error:` line too (exit 1); it used to overflow the JSON parser's
# stack (SIGSEGV, exit 139).
set -u
cli=${1:?usage: sag_cli_selftest.sh path/to/sag_cli}

fail=0
err() { echo "sag_cli_selftest: $*" >&2; fail=1; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# expect <case> <exit-code> <output-fragment> -- <sag_cli args...>
expect() {
    local name=$1 code=$2 fragment=$3 out status
    shift 4
    out=$("$cli" "$@" 2>&1)
    status=$?
    if [ "$status" -ne "$code" ]; then
        err "$name: expected exit $code, got $status:"; echo "$out" >&2
    elif ! echo "$out" | grep -qF -- "$fragment"; then
        err "$name: output lacks '$fragment':"; echo "$out" >&2
    fi
}

for bad in 1e30 -5 nan abc 2.5 inf; do
    expect "users=$bad" 2 "--users" -- generate --out "$tmp/bad.json" --users "$bad"
done
expect "users-no-value" 2 "--users" -- generate --out "$tmp/bad.json" --users
expect "seed=-1" 2 "--seed" -- generate --out "$tmp/bad.json" --seed -1
expect "field=nan" 2 "--field" -- generate --out "$tmp/bad.json" --field nan
expect "usage-text" 2 "usage:" -- generate --out "$tmp/bad.json" --users abc
[ -e "$tmp/bad.json" ] && err "a rejected generate still wrote its output"

expect "users=12" 0 "12 subscribers" -- generate --out "$tmp/s.json" --users 12

# A result file whose assignment holds something other than an RS index.
for entry in -1 1.5 1e30 '"x"'; do
    printf '{"feasible": true, "coverage_rs": [], "assignment": [%s]}\n' \
        "$entry" > "$tmp/r.json"
    expect "assignment=$entry" 1 "error: result field 'assignment'" -- \
        verify --scenario "$tmp/s.json" --result "$tmp/r.json"
done

# Hostile nesting: 200,000 levels of arrays, of objects, and one event line.
repeat() { printf '%200000s' '' | sed "s/ /$1/g"; }
{ repeat '['; repeat ']'; } > "$tmp/deep_array.json"
{ repeat '{"a":'; printf 0; repeat '}'; } > "$tmp/deep_object.json"
{ repeat '['; repeat ']'; echo; } > "$tmp/deep.jsonl"
expect "deep-array-scenario" 1 "error:" -- solve --scenario "$tmp/deep_array.json"
expect "deep-object-scenario" 1 "error:" -- solve --scenario "$tmp/deep_object.json"
expect "deep-event-line" 1 "error:" -- \
    serve --scenario "$tmp/s.json" --events "$tmp/deep.jsonl"

if [ "$fail" -ne 0 ]; then
    echo "sag_cli_selftest: FAILED" >&2
    exit 1
fi
echo "sag_cli_selftest: OK (bad counts, reals, assignment entries and deep nesting rejected)"
