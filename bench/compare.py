#!/usr/bin/env python3
"""Repeat benchmark runs and summarise them.

    python3 bench/compare.py spread --workload sphere-n3 --seeds 10 [--first-seed 10]
    python3 bench/compare.py overhead --workload torus10-n6 --seed 0

``spread`` runs the workload once per seed F..F+N-1 (one after the other,
with the run length from BENCHMARK.json) and prints, for each end-to-end
metric, the median, the quartiles and their distance as a share of the
median, with the bound from BENCHMARK.json beside it. ``overhead`` runs one
seed untraced and traced, requires both to have written byte-identical
outputs (weights.symr and train_report.csv, or the predict-bench CSVs) and
prints the traced total_s against the untraced one. Run it from the root of
a symrep checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(args) -> None:
    results = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        result = run(args.workload, seed, 0)
        results.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / q2
        print(f"{metric['name']:18s} median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {share:.4f} bound {metric['bound']} ({share / metric['bound']:.2f} of it)")


def overhead(args) -> None:
    plain = run(args.workload, args.seed, 0)
    traced = run(args.workload, args.seed, 1)
    base = ROOT / "bench_runs" / args.workload
    documents = [json.loads((base / f"seed{args.seed}-trace{t}" / "metrics.json").read_text()) for t in (0, 1)]
    if documents[0]["digests"] != documents[1]["digests"]:
        sys.exit(f"traced outputs differ: {documents[0]['digests']} vs {documents[1]['digests']}")
    untraced_s = documents[0]["end_to_end"]["total_s"]
    traced_s = documents[1]["end_to_end"]["total_s"]
    print(f"{args.workload}: outputs identical ({', '.join(documents[0]['digests'])}); correct "
          f"{plain['correct']}/{traced['correct']}; total_s untraced {untraced_s:.3f}, traced {traced_s:.3f}, "
          f"overhead {100 * (traced_s / untraced_s - 1):+.1f}%")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workload", required=True)
    p_spread.add_argument("--seeds", type=int, default=10)
    p_spread.add_argument("--first-seed", type=int, default=0)
    p_spread.set_defaults(func=spread)
    p_over = sub.add_parser("overhead")
    p_over.add_argument("--workload", required=True)
    p_over.add_argument("--seed", type=int, default=0)
    p_over.set_defaults(func=overhead)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
