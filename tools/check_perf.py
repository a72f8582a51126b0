#!/usr/bin/env python3
"""CI perf-regression gate over the bench_micro JSON output.

Compares the gated benchmark families of a fresh Release bench_micro run
against the committed reference in results/BENCH_BASELINE.json and fails
(exit 1) when any gated benchmark's cpu_time regressed by more than the
tolerance. The contract lives in docs/PERFORMANCE.md.

Usage:
    tools/check_perf.py CURRENT.json [BASELINE.json]

CURRENT.json comes from:
    ./build-rel/bench/bench_micro --benchmark_out=CURRENT.json \
        --benchmark_out_format=json

Environment:
    SAG_PERF_TOLERANCE   allowed relative slowdown, default 0.15 (i.e. a
                         +20% regression trips the gate, run-to-run noise
                         of a pinned CI runner does not). Speedups never
                         fail; commit a regenerated baseline to ratchet.

Benchmarks present in only one of the two files are reported but do not
fail the gate (new benchmarks land before their baseline does).
"""

import json
import os
import sys

# Gated families: the SnrField incremental-delta kernel (the SIMD/SoA
# hot path), the solver micro-benchmarks, and the serve per-event path
# (the online engine's latency contract). The scratch and recorder
# variants are diagnostics, not gates.
GATED_PREFIXES = (
    "BM_SnrFieldDeltaIncremental",
    "BM_ZonePartition",
    "BM_ZoneHittingSet",
    "BM_Samc",
    "BM_IlpqcIac",
    "BM_ProPowerReduction",
    "BM_OptimalPowerFixedPoint",
    "BM_Mbmc",
    "BM_ServeEventMove",
    "BM_ServeEventFailRecover",
    "BM_ServeEventJoinLeave",
)


def load_times(path):
    """name -> cpu_time (ns) for every gated iteration benchmark."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue
        name = bench["name"]
        if name.startswith(GATED_PREFIXES):
            times[name] = float(bench["cpu_time"])
    return times


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    current_path = argv[1]
    baseline_path = (
        argv[2]
        if len(argv) == 3
        else os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(argv[0]))),
            "results",
            "BENCH_BASELINE.json",
        )
    )
    tolerance = float(os.environ.get("SAG_PERF_TOLERANCE", "0.15"))

    current = load_times(current_path)
    baseline = load_times(baseline_path)
    if not baseline:
        print(f"error: no gated benchmarks in baseline {baseline_path}")
        return 2
    if not current:
        print(f"error: no gated benchmarks in current run {current_path}")
        return 2

    failures = []
    print(f"perf gate: tolerance +{tolerance:.0%} over {baseline_path}")
    print(f"{'benchmark':<38} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for name in sorted(baseline):
        if name not in current:
            print(f"{name:<38} {baseline[name]:>12.0f} {'absent':>12} {'-':>8}")
            continue
        ratio = current[name] / baseline[name]
        verdict = ""
        if ratio > 1.0 + tolerance:
            failures.append((name, ratio))
            verdict = "  REGRESSION"
        print(
            f"{name:<38} {baseline[name]:>12.0f} {current[name]:>12.0f} "
            f"{ratio:>8.3f}{verdict}"
        )
    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<38} {'absent':>12} {current[name]:>12.0f} {'-':>8}  (new)")

    if failures:
        print()
        for name, ratio in failures:
            print(
                f"FAIL: {name} is {ratio:.2f}x the baseline "
                f"(limit {1.0 + tolerance:.2f}x)"
            )
        print(
            "If the slowdown is intended, regenerate results/BENCH_BASELINE.json "
            "(see docs/PERFORMANCE.md) and commit it with the change."
        )
        return 1
    print(f"perf gate: {len(current)} gated benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
