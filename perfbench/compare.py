"""Compare two result sets metric by metric and workload by workload.

Usage:

    python3 perfbench/compare.py BASE.jsonl            # spreads of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # diff two sets

A result set is the JSON-lines file that ``run.py --record`` (or
``sweep.py``) appends to, one record per run.  Stdlib only.

For one set, every end-to-end metric of every workload is listed with
its median, quartiles and spread (inter-quartile distance over the
median) against the bound in ``BENCHMARK.json``.

For two sets, each pairing of workload and end-to-end metric gets one
verdict, judged against the benchmark's bound and the measured spread
(the larger of the two sets' spreads):

* ``REGRESSED``   -- the new median is worse than the base median by
  more than the bound, and the spread is within the bound;
* ``unresolved``  -- the spread is wider than the bound (unless every
  new run reads better than every base run), or the median moved by
  more than the spread: a move that needs paired runs to be called;
* ``unchanged``   -- the medians differ by less than the spread.

The unbounded figures of the record (the throughput, the median and
tail operation, the control-churn reject and upgrade medians, the
failure ratio) are judged against the spread alone.  Per-layer metrics
of traced runs are listed side by side, without a verdict: they have no
bound.  Sets whose runs
measured different ``--seconds`` do the same workloads different
amounts of work and are not compared (exit status 2).  Otherwise the
exit status is 1 when any pairing regressed or more operations failed,
else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """workload -> trace flag -> list of records."""
    sets = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            provenance = record["provenance"]
            sets[provenance["workload"]][provenance["trace"]].append(record)
    return sets


#: Figures of the full record that have no bound: compared against the
#: measured spread only.
UNBOUNDED = (("throughput_per_s", "higher"), ("op_p50_ms", "lower"),
             ("op_tail_ms", "lower"), ("reject_p50_ms", "lower"),
             ("upgrade_p50_ms", "lower"), ("fail_ratio", "lower"))


def values(records, name) -> list:
    return [record["metrics"][name]["value"] for record in records
            if name in record["metrics"]]


def detail_values(records, name) -> list:
    return [record["details"][name] for record in records
            if name in record["details"]]


def failures(records) -> tuple[int, int, dict]:
    by_type = defaultdict(int)
    for record in records:
        for kind, count in record["failures"].items():
            by_type[kind] += count
    return (sum(record["failed"] for record in records),
            sum(record["attempted"] for record in records), dict(by_type))


def report_one(sets, spec) -> None:
    for workload in sorted(sets):
        records = sets[workload].get(0, [])
        if not records:
            continue
        failed, attempted, by_type = failures(records)
        print(f"{workload}: {len(records)} runs, seeds "
              f"{sorted(r['provenance']['seed'] for r in records)}, "
              f"failed {failed}/{attempted} {by_type or ''}")
        for entry in spec["end_to_end"]:
            series = values(records, entry["name"])
            if not series:
                continue
            q1, median, q3 = stats.quartiles(series)
            spread = stats.spread(series)
            flag = "ok" if spread <= entry["bound"] / 3 else (
                "WIDE" if spread > entry["bound"] else "over 1/3 bound")
            print(f"  {entry['name']:<24} median {median:>12.6g} "
                  f"{entry['unit']:<6} q1 {q1:>12.6g} q3 {q3:>12.6g} "
                  f"spread {100 * spread:6.2f}% bound "
                  f"{100 * entry['bound']:5.1f}% {flag}")


def verdict(base, new, entry) -> tuple[str, float, float]:
    bound = entry.get("bound")
    base_median = stats.quartiles(base)[1]
    new_median = stats.quartiles(new)[1]
    sign = 1 if entry["better"] == "lower" else -1
    worse = sign * (new_median - base_median) / abs(base_median) \
        if base_median else 0.0
    measured = max(stats.spread(base), stats.spread(new))
    if bound is None:
        return ("unresolved (moved beyond spread)" if abs(worse) > measured
                else "unchanged"), worse, measured
    if measured > bound:
        better_everywhere = all(sign * (n - b) < 0
                                for n in new for b in base)
        return ("better in every run" if better_everywhere
                else "unresolved (spread > bound)"), worse, measured
    if worse > bound:
        return "REGRESSED", worse, measured
    if abs(worse) > measured:
        return "unresolved (moved beyond spread)", worse, measured
    return "unchanged", worse, measured


def report_two(base_sets, new_sets, spec) -> int:
    status = 0
    for workload in sorted(set(base_sets) | set(new_sets)):
        base = base_sets[workload].get(0, [])
        new = new_sets[workload].get(0, [])
        if not base or not new:
            print(f"{workload}: missing in one set, skipped")
            continue
        base_failed, base_attempted, __ = failures(base)
        new_failed, new_attempted, new_types = failures(new)
        print(f"{workload}: {len(base)} base runs, {len(new)} new runs; "
              f"failed {base_failed}/{base_attempted} -> "
              f"{new_failed}/{new_attempted} {new_types or ''}")
        if new_failed / new_attempted > base_failed / base_attempted:
            print("  MORE OPERATIONS FAILED")
            status = 1
        for entry in spec["end_to_end"]:
            old_values = values(base, entry["name"])
            new_values = values(new, entry["name"])
            if not old_values or not new_values:
                continue
            label, worse, measured = verdict(old_values, new_values, entry)
            status |= label == "REGRESSED"
            print(f"  {entry['name']:<24} "
                  f"{stats.quartiles(old_values)[1]:>12.6g} -> "
                  f"{stats.quartiles(new_values)[1]:>12.6g} "
                  f"{entry['unit']:<6} worse by {100 * worse:+7.2f}% "
                  f"(spread {100 * measured:5.2f}%, bound "
                  f"{100 * entry['bound']:4.1f}%): {label}")
        for name, better in UNBOUNDED:
            old_values = detail_values(base, name)
            new_values = detail_values(new, name)
            if not old_values or not new_values:
                continue
            label, worse, measured = verdict(
                old_values, new_values, {"better": better})
            print(f"  {name:<24} "
                  f"{stats.quartiles(old_values)[1]:>12.6g} -> "
                  f"{stats.quartiles(new_values)[1]:>12.6g} "
                  f"       worse by {100 * worse:+7.2f}% "
                  f"(spread {100 * measured:5.2f}%, no bound): {label}")
        base_traced = base_sets[workload].get(1, [])
        new_traced = new_sets[workload].get(1, [])
        if base_traced and new_traced:
            print("  per-layer medians (traced runs, no bound):")
            for entry in spec["per_layer"]:
                old_values = values(base_traced, entry["name"])
                new_values = values(new_traced, entry["name"])
                if old_values and new_values:
                    print(f"    {entry['name']:<34} "
                          f"{stats.quartiles(old_values)[1]:>12.6g} -> "
                          f"{stats.quartiles(new_values)[1]:>12.6g} "
                          f"{entry['unit']}")
    return status


def run_seconds(sets) -> set:
    return {record["provenance"]["seconds"] for traces in sets.values()
            for records in traces.values() for record in records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.new is None:
        report_one(load(args.base), spec)
        return 0
    base, new = load(args.base), load(args.new)
    if run_seconds(base) != run_seconds(new):
        print(f"not compared: base runs measured {sorted(run_seconds(base))}"
              f" s, new runs {sorted(run_seconds(new))} s", file=sys.stderr)
        return 2
    return report_two(base, new, spec)


if __name__ == "__main__":
    sys.exit(main())
