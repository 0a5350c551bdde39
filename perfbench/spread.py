"""Run one workload of the benchmark under several seeds and report, for each
metric, the median over the runs and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py --workload solve-large --seeds 1-10 --seconds 20

Each run is a separate process started from the root of the source tree and
waited for. Bounds for the end-to-end metrics come from BENCHMARK.json.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a range lo-hi or a comma list")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, bad = {}, 0
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            bad += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            bad += 1
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                  if k in bounds or args.trace), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        if len(vs) < 2 or stats.median(vs) == 0:
            continue
        spread = stats.quartile_spread(vs)
        bound = bounds.get(k)
        note = f" bound {bound:g}, third {bound / 3:.3f}" if bound else ""
        print(f"{k}: median {stats.median(vs):.6g} spread {spread:.4f}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
