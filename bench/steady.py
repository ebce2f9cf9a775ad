#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance over median) against
its bound in BENCHMARK.json.

    python3 bench/steady.py --workload serve --seeds 1-10 [--seconds S]
        [--out FILE]

--out appends every run's result line as JSON, so two sets can be
compared later with --compare A B.
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


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarize(rows: list[dict], bench: dict) -> list[str]:
    lines = [f"{'metric':<26} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>7} {'bound':>6}"]
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in rows
                if m["name"] in r["metrics"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        lines.append(f"{m['name']:<26} {len(vals):>3} {med:>12.6g} {q1:>12.6g} "
                     f"{q3:>12.6g} {(q3 - q1) / med:>7.2%} {m['bound']:>6.0%}")
    fails = {r["failed"] / r["attempted"] for r in rows}
    lines.append(f"failed share per run: {sorted(fails)}; "
                 f"correct: {all(r['correct'] for r in rows)}")
    return lines


def compare(a: list[dict], b: list[dict], bench: dict) -> list[str]:
    lines = [f"{'metric':<26} {'median A':>12} {'median B':>12} {'B worse by':>10} "
             f"{'bound':>6}"]
    for m in bench["end_to_end"]:
        va = [r["metrics"][m["name"]]["value"] for r in a if m["name"] in r["metrics"]]
        vb = [r["metrics"][m["name"]]["value"] for r in b if m["name"] in r["metrics"]]
        if not va or not vb:
            continue
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        lines.append(f"{m['name']:<26} {ma:>12.6g} {mb:>12.6g} {worse:>10.2%} "
                     f"{m['bound']:>6.0%}")
    return lines


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        print("\n".join(compare(load(args.compare[0]), load(args.compare[1]), bench)))
        return 0
    if not args.workload:
        ap.error("--workload is required")
    seconds = args.seconds or bench["run_seconds"]
    rows = []
    for seed in args.seeds:
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in row["metrics"].items()), flush=True)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(row) + "\n")
    print("\n".join(summarize(rows, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
