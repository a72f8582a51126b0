#!/usr/bin/env bash
# Smoke run of the paper and ablation benches, registered as the
# `paper_bench_smoke` ctest case. Each binary named on the command line
# runs with `--fast --seeds=1` in its own temp directory, because the
# benches write results/ relative to the working directory. A bench
# fails the smoke when it exits non-zero or prints a table with no data
# row under it.
#
# Usage: tests/paper_bench_smoke.sh <bench-binary>...
set -u

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <bench-binary>..." >&2
    exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
for bin in "$@"; do
    name=$(basename "$bin")
    mkdir "$tmp/$name"
    if ! out=$(cd "$tmp/$name" && "$bin" --fast --seeds=1 2>&1); then
        echo "paper_bench_smoke: $name exited non-zero:" >&2
        echo "$out" >&2
        fail=1
        continue
    fi
    # sim::Table prints its header, a rule of dashes, then one line per
    # row: a rule followed by a blank line or by nothing is an empty table.
    if ! echo "$out" | awk 'rule && NF == 0 { bad = 1 }
                            { rule = /^-+$/ }
                            END { exit bad || rule }'; then
        echo "paper_bench_smoke: $name printed a table with no data row:" >&2
        echo "$out" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "paper_bench_smoke: FAILED" >&2
    exit 1
fi
echo "paper_bench_smoke: OK ($# benches)"
