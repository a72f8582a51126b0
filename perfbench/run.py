#!/usr/bin/env python3
"""End-to-end benchmark of the SAG solver stack (see perfbench/README.md).

One run:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

builds perfbench/ into .bench_build/ (Release) on first use, runs one
workload in its own process, prints every metric as `name value unit`,
saves the full record under results/perfbench/, and prints as its last
line {"correct", "attempted", "failed", "metrics"}. --trace 1 reports the
per-layer metrics instead of the end-to-end ones.

Repeated runs and comparison of two commits:

    python3 perfbench/run.py --runs 5 --out a.json          # on commit A
    python3 perfbench/run.py --runs 5 --against a.json      # on commit B

Smoke check (registered as the sag_bench_smoke ctest of perfbench/):

    python3 perfbench/run.py --smoke [--bin PATH]
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = ROOT / "results" / "perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {SPEC_PATH.name}: {e}")


def bench_env():
    """Environment for builds and runs: the library's SAG_THREADS and
    SAG_SIMD switches are cleared so the caller's shell cannot change
    results, and temporary files stay inside the build directory."""
    env = dict(os.environ)
    env.pop("SAG_THREADS", None)
    env.pop("SAG_SIMD", None)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("the library sources (src/) are missing next to perfbench/; "
            "run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        die("cmake not found")
    env = bench_env()
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "sag_bench",
                    "-j", "3"], check=True, env=env, stdout=sys.stderr)
    return BUILD_DIR / "sag_bench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, env=env)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_binary(binary, workload, seed, seconds, trace, smoke=False, commit="unknown"):
    """Run one workload process; returns its JSON record."""
    args = [str(binary), f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}", f"--commit={commit}"]
    if trace:
        args.append(f"--trace={RESULTS_DIR / f'{workload}-seed{seed}-spans.json'}")
    if smoke:
        args.append("--smoke")
    try:
        r = subprocess.run(args, capture_output=True, text=True, env=bench_env(),
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        die(f"sag_bench exited with code {r.returncode} and no result", 1)
    return json.loads(lines[-1])


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(record, expected):
    """Metrics of `expected` missing from the record or reported with
    another unit, and metrics the record has that `expected` lacks."""
    got = record["metrics"]
    missing = [f"{name} [{unit}]" for name, unit in expected.items()
               if name not in got or got[name]["unit"] != unit]
    extra = [f"unlisted {name}" for name in got if name not in expected]
    return missing + extra


def single_run(opts, spec):
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload '{opts.workload}'")
    if opts.trace not in (0, 1):
        die("--trace must be 0 or 1")
    binary = build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rec = run_binary(binary, opts.workload, opts.seed, opts.seconds, opts.trace,
                     commit=git_commit())
    expected = expected_metrics(spec, opts.trace)
    problems = check_metrics(rec, expected)
    if problems:
        print("run.py: result does not match BENCHMARK.json: " + ", ".join(problems),
              file=sys.stderr)
    correct = bool(rec["correct"]) and not problems

    print(f"# workload {opts.workload}, seed {opts.seed}, digest {rec['digest']}, "
          f"{rec['attempted']} attempted, {rec['failed']} failed")
    for name, m in sorted(rec["info"].items()):
        print(f"info.{name} {m['value']} {m['unit']}")
    metrics = {name: rec["metrics"][name] for name in expected if name in rec["metrics"]}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    suffix = "-trace" if opts.trace else ""
    (RESULTS_DIR / f"{opts.workload}-seed{opts.seed}{suffix}.json").write_text(
        json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# Metrics that are a pure function of the outputs, which the digest
# covers: for one seed they repeat exactly, so a change is compared with
# the parent seed by seed, not within the bound.
DETERMINISTIC = {"power_total_w", "coverage_rs_mean"}
EXACT_TOLERANCE = 1e-9


def compare(metric, base, cand):
    """Compares two commits' runs, paired by seed: `base` and `cand` map a
    seed to (digest, value). Returns (verdict, worse_by, detail).

    A deterministic metric is equal on a seed whose digest is unchanged,
    and otherwise worse when it is worse on any seed by more than
    EXACT_TOLERANCE (relative). Any other metric follows the pair rule:
    worse when the candidate median is worse than the base median by more
    than the bound; unresolved when either side's quartile spread exceeds
    the bound, unless every candidate run beats every base run."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    seeds = sorted(base.keys() & cand.keys())
    if metric["name"] in DETERMINISTIC:
        changed = [s for s in seeds if base[s][0] != cand[s][0]]
        worse = [s for s in changed
                 if sign * (cand[s][1] - base[s][1]) > EXACT_TOLERANCE * abs(base[s][1])]
        worst = max([sign * (cand[s][1] - base[s][1]) / base[s][1] for s in seeds] + [0.0])
        verdict = "worse" if worse else ("equal" if not changed else "within bound")
        return verdict, worst, f"outputs differ on {len(changed)}/{len(seeds)} seeds"

    a = [base[s][1] for s in seeds]
    b = [cand[s][1] for s in seeds]
    aq1, amed, aq3 = quartiles(a)
    bq1, bmed, bq3 = quartiles(b)
    worse_by = sign * (bmed - amed) / amed
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    wins = sum(sign * (cand[s][1] - base[s][1]) < 0 for s in seeds)
    detail = f"better on {wins}/{len(seeds)} seeds"
    if ((aq3 - aq1) / amed > metric["bound"] or (bq3 - bq1) / bmed > metric["bound"]) \
            and not all_better:
        return "unresolved", worse_by, detail
    return ("worse" if worse_by > metric["bound"] else "within bound"), worse_by, detail


def repeated_runs(opts, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = opts.seconds if opts.seconds else spec["run_seconds"]
    binary = build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    commit = git_commit()
    metrics = spec["end_to_end"]
    out = {"commit": commit, "seconds": seconds, "workloads": {}}
    all_correct = True
    for w in workloads:
        runs = []
        for seed in range(opts.first_seed, opts.first_seed + opts.runs):
            rec = run_binary(binary, w, seed, seconds, 0, commit=commit)
            all_correct &= bool(rec["correct"])
            runs.append({"seed": seed, "correct": rec["correct"], "digest": rec["digest"],
                         "host": rec["host"],
                         "metrics": {k: v["value"] for k, v in rec["metrics"].items()}})
        out["workloads"][w] = runs
        print(f"== {w}: {opts.runs} runs, seeds {opts.first_seed}.."
              f"{opts.first_seed + opts.runs - 1}, all correct: "
              f"{all(r['correct'] for r in runs)}")
        print(f"   {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  unit")
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in runs]
            q1, med, q3 = quartiles(values)
            print(f"   {m['name']:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{(q3 - q1) / med:>8.4f} {m['bound']:>6}  {m['unit']}")
    path = pathlib.Path(opts.out) if opts.out else RESULTS_DIR / "runs.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")

    verdicts_ok = True
    if opts.against:
        base = json.loads(pathlib.Path(opts.against).read_text())
        print(f"== against {opts.against} (commit {base.get('commit', '?')})")
        for w in workloads:
            by_seed = [{r["seed"]: (r["digest"], r["metrics"]) for r in rec["workloads"].get(w, [])}
                       for rec in (base, out)]
            if not by_seed[0].keys() & by_seed[1].keys():
                print(f"   {w}: no seed in common with the other file")
                verdicts_ok = False
                continue
            for m in metrics:
                a, b = ({s: (d, v[m["name"]]) for s, (d, v) in runs.items()} for runs in by_seed)
                verdict, worse_by, detail = compare(m, a, b)
                verdicts_ok &= verdict != "worse"
                bound = "exact" if m["name"] in DETERMINISTIC else f"{100 * m['bound']:.0f}%"
                print(f"   {w:<6} {m['name']:<18} {verdict:<13} worse by "
                      f"{100 * worse_by:+.2f}% (bound {bound}), {detail}")
    return 0 if all_correct and verdicts_ok else 1


def smoke(opts, spec):
    binary = pathlib.Path(opts.bin) if opts.bin else build()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            rec = run_binary(binary, w, 1, 1, trace, smoke=True)
            problems = check_metrics(rec, expected_metrics(spec, trace))
            good = rec["correct"] and rec["failed"] == 0 and not problems
            ok &= good
            print(f"{w} trace={trace}: {'ok' if good else 'FAIL'} "
                  f"({rec['attempted']} attempted, {rec['failed']} failed"
                  f"{'; ' + ', '.join(problems) if problems else ''})")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--runs", type=int, help="untraced runs per workload, seeds from --first-seed")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="where --runs writes its record")
    p.add_argument("--against", help="a --runs record of another commit to compare with")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin", help="prebuilt sag_bench for --smoke")
    opts = p.parse_args()

    spec = load_spec()
    if opts.smoke:
        return smoke(opts, spec)
    if opts.runs:
        return repeated_runs(opts, spec)
    if opts.workload is None:
        die("--workload is required (or --runs / --smoke)")
    if opts.seconds is None:
        opts.seconds = spec["run_seconds"]
    return single_run(opts, spec)


if __name__ == "__main__":
    sys.exit(main())
