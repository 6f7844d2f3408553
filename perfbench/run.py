"""Single-command benchmark of the PCC runtime: set-up, serve, control.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload filter-serve --seed 1 \
        [--seconds 28] --trace 0 [--record results.jsonl]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no instrumentation.  ``--trace 1`` runs the same loop for half the
time untraced and half traced (see ``tracing.py``), prints the per-layer
self-time table with the tracing overhead, and reports the per-layer
metrics.  The last line of standard output is always one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--record`` also
appends the full self-describing record (host, commit, samples,
quartiles, failures by type, the ledger) to a JSON-lines file.

The program is built from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ledger
import stats
from workloads import WORKLOADS, Outcome, Phase

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Series up to this many samples are recorded whole, not only summarized.
RAW_LIMIT = 512

_CLOCK = time.perf_counter


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="append the full result record (JSON lines)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- provenance ---------------------------------------------------------------

def _commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """sha256 over the program's Python sources (path and bytes), so a
    result names the code it measured even outside a git repository."""
    hasher = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        hasher.update(str(path.relative_to(SOURCE)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def provenance(args) -> dict:
    return {
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "loop": "closed, one caller",
    }


# -- set-up -------------------------------------------------------------------

def setup_in_subprocess(args) -> float:
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])["setup_s"]


def timed_setup(workload) -> float:
    started = _CLOCK()
    workload.setup()
    return _CLOCK() - started


# -- metrics ------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, phase, setup_samples) -> dict:
    return {
        "op_min_ms": workload.op_min_ms(phase),
        "modeled_cycles_per_pkt": workload.modeled_cycles_per_pkt,
        "proof_bytes": workload.proof_bytes,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def detail_unit(name: str) -> str:
    """Unit of a recorded figure, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_pct", "percentile"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}/repro; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    workload = WORKLOADS[args.workload](args.seed)

    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0

    setup_samples = []
    if not args.trace:
        setup_samples = [setup_in_subprocess(args)
                         for __ in range(SETUP_REPEATS - 1)]
    setup_samples.append(timed_setup(workload))
    started = _CLOCK()
    workload.generate()
    gen_seconds = _CLOCK() - started

    outcome = Outcome()
    record = {"provenance": provenance(args)}
    lines = []
    if args.trace:
        from tracing import Tracer, layer_metrics, self_time_table

        untraced = Phase(workload.WINDOW_SECONDS)
        traced = Phase(workload.WINDOW_SECONDS)
        tracer = Tracer()
        block = args.seconds / (2 * workload.TRACE_BLOCKS)
        for __ in range(workload.TRACE_BLOCKS):
            workload.run(block, outcome, untraced)
            with tracer:
                workload.run(block, outcome, traced, tracer)
        spans = tracer.spans
        workload.verify(outcome)
        computed = layer_metrics(workload, spans, untraced, traced,
                                 gen_seconds)
        table_lines, table = self_time_table(spans, untraced, traced)
        lines += table_lines
        lines.append(f"tracing overhead (traced vs untraced wall per op): "
                     f"{100 * computed['bench.trace_overhead']:+.2f}%")
        record["self_time"] = table
        phase, key = traced, "per_layer"
    else:
        phase = Phase(workload.WINDOW_SECONDS)
        workload.run(args.seconds, outcome, phase)
        workload.verify(outcome)
        computed = end_to_end(workload, phase, setup_samples)
        key = "end_to_end"

    samples = {"op_ms": stats.summary(phase.latencies),
               "setup_s": stats.summary(setup_samples)}
    for name, values in phase.series.items():
        samples[name] = stats.summary(values)
    details = {
        # Reported, not bounded: on a shared 2-core host the throughput,
        # the median and the tail moved by 25-55% between runs and
        # between sets of runs, wider than the largest bound (25%); see
        # README.md.
        "throughput_per_s": phase.rate,
        "throughput_work": phase.work,
        "throughput_wall_s": phase.wall,
        "throughput_windows": phase.windows,
        "ops_by_kind": dict(phase.ops_by_kind),
        "op_p50_ms": workload.op_p50_ms(phase),
        "op_tail_ms": phase.tail[0],
        "op_tail_pct": phase.tail[1],
        "op_tail_windows": len(phase.window_tails),
        "fail_ratio": outcome.failed / outcome.attempted,
        "filters.trace.gen_s": gen_seconds,
        "counts": dict(phase.counts),
    }
    for name in ("reject_ms", "upgrade_ms", "warm_ms"):
        if name in samples:
            stem = name[:-3]
            details[f"{stem}_p50_ms"] = samples[name]["median"]
            details[f"{stem}_tail_ms"] = samples[name]["tail"]
            details[f"{stem}_tail_pct"] = samples[name]["tail_pct"]
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {entry["name"]: {"value": computed[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in spec[key]},
    }
    record.update(result)
    record.update({
        "failures": dict(outcome.failures),
        "samples": samples,
        # Short series (the control-churn ones) are kept whole.
        "raw": {name: values for name, values
                in [("op_ms", phase.latencies), *phase.series.items()]
                if len(values) <= RAW_LIMIT},
        "details": details,
        "ledger": {
            "workload": ledger.WORKLOADS[args.workload],
            "end_to_end": {name: meaning.get(args.workload,
                                             meaning.get("any"))
                           for name, meaning in ledger.END_TO_END.items()},
            "layer_map": {name: {"moves": moves, "busy_on": busy}
                          for name, (moves, busy)
                          in ledger.LAYER_MAP.items()},
        },
    })
    if args.record is not None:
        with args.record.open("a") as handle:
            handle.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"cores={os.cpu_count()} python={platform.python_version()}")
    for name, entry in record["metrics"].items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in details.items():
        if isinstance(value, (int, float)) and name not in computed:
            print(f"  {name:<34} {value:>14.6g} {detail_unit(name)}")
    print(f"  failures: {dict(outcome.failures) or 'none'}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
