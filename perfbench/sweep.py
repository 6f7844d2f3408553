"""Run the benchmark over several seeds and workloads into one result set.

Usage:

    python3 perfbench/sweep.py --out perfbench/results/base.jsonl \
        --seeds 1-10 [--trace 1]

Runs are sequential (the measurements must not share the cores): every
workload of ``BENCHMARK.json`` for every seed, each a separate
``run.py`` process of ``run_seconds`` whose full record is appended to
``--out``;
the spreads of the set are printed at the end (``compare.py`` with one
set).  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, __, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for entry in spec["workloads"]:
        workload = entry["name"]
        for seed in args.seeds:
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--trace", str(args.trace),
                       "--record", str(args.out.resolve())]
            result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                    text=True, timeout=600)
            if result.returncode:
                print(result.stdout[-2000:] + result.stderr[-2000:],
                      file=sys.stderr)
                return result.returncode
            print(f"{workload} seed {seed}: "
                  f"{result.stdout.strip().splitlines()[-1][:160]}",
                  flush=True)
    compare.report_one(compare.load(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
