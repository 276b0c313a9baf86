"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

Run from the repository root, for example:

    python3 perfbench/spread.py --workload stream-gated --seeds 1-10 --seconds 30

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound in BENCHMARK.json, plus the failed share of
operations of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    shares = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:])
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append(str(Fraction(result["failed"], result["attempted"])))
        print(f"seed {seed}: correct={result['correct']} failed "
              f"{result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}"
                  for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':24s} {'median':>11s} {'IQR/median':>10s} {'bound':>6s}")
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{metric['name']:24s} {statistics.median(v):11.5g} "
              f"{(q3 - q1) / statistics.median(v):10.4f} {metric['bound']:6.2f}")
    print("failed shares:", " ".join(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
