"""Run a workload once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload hilbert-large --seeds 1-10 --seconds 30

For every metric it prints the median of the runs, the distance between
the first and third quartiles (`statistics.quantiles(values, n=4)`) as a
share of the median, and the bound from BENCHMARK.json; it also prints the
share of failed operations per run.  Runs go one after another, never side
by side.  `--out FILE` also writes every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"seed {seed}: no output (exit {proc.returncode})\n{proc.stderr}")
    return {"wall_s": wall, "exit": proc.returncode, **json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} exit={result['exit']} wall={result['wall_s']:.1f}s",
              flush=True)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}")
    ok = all(r["correct"] for r in runs) and len(shares) == 1
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = float("nan")
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread < bound / 3:
            flag = "  <-- spread not below a third of the bound"
            ok = False
        print(f"{name:32s} median {med:12.6g}  iqr/median {spread:7.4f}  bound {bound}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
