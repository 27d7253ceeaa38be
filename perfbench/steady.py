"""Steadiness of the benchmark: run each workload on several seeds and print
the median and quartiles of every end-to-end metric.

    python3 perfbench/steady.py --runs 10 --out perfbench/out/set1.json
    python3 perfbench/steady.py --report perfbench/out/set1.json
    python3 perfbench/steady.py --compare perfbench/out/set1.json perfbench/out/set2.json

Each run is a fresh `run.py` process of `run_seconds` (BENCHMARK.json), one
after another, with seeds first-seed .. first-seed + runs - 1.  The spread
of a metric is the distance
between its first and third quartiles (statistics.quantiles, n=4) as a share
of its median; it should stay under a third of the metric's bound in
BENCHMARK.json.  `--compare` reads two saved sets and shows, per metric, how
much worse the second median is than the first, against the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def collect(workloads: list, runs: int, first_seed: int, seconds: int) -> dict:
    results = {}
    for workload in workloads:
        results[workload] = []
        for seed in range(first_seed, first_seed + runs):
            result = run_once(workload, seed, seconds)
            results[workload].append(result)
            values = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    return results


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(results: dict, bounds: dict, units: dict) -> bool:
    """Print median, quartiles and spread per metric; True if every spread
    is under a third of its bound."""
    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, attempted {attempted}, "
              f"failed {failed} (shares {sorted(shares)})")
        print(f"  {'metric':24s} {'q1':>10s} {'median':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            mark = "" if spread < bound / 3 else ("  > bound/3" if spread < bound else "  > BOUND")
            steady = steady and spread < bound / 3
            label = f"{name} ({units[name]})"
            print(f"  {label:24s} {q1:10.4g} {median:10.4g} {q3:10.4g} {spread:7.3f} {bound:6.2f}{mark}")
        steady = steady and correct and len(shares) == 1
    return steady


def compare(first: dict, second: dict, metrics: list) -> bool:
    """Per workload and metric: how much worse the second median is."""
    agree = True
    for workload in first:
        print(f"\n{workload}")
        for metric in metrics:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            ok = worse <= bound
            agree = agree and ok
            print(f"  {name:18s} {a:10.4g} {b:10.4g} worse by {worse:+.3f} (bound {bound}){'' if ok else '  FAIL'}")
        shares = [{r["failed"] / r["attempted"] for r in s[workload]} for s in (first, second)]
        if shares[0] != shares[1] or len(shares[0]) != 1:
            agree = False
            print(f"  failed shares differ: {shares}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="save the runs as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    parser.add_argument("--report", type=Path, metavar="SET", help="report a saved set again")
    args = parser.parse_args(argv)
    bench = spec()
    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(first, second, bench["end_to_end"]) else 1
    if args.report:
        results = json.loads(args.report.read_text(encoding="utf-8"))
    else:
        workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
        results = collect(workloads, args.runs, args.first_seed, bench["run_seconds"])
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return 0 if report(results, bounds, units) else 1


if __name__ == "__main__":
    sys.exit(main())
