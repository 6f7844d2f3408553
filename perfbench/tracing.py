"""In-memory span tracing around the program's public entry points.

The program's source is not edited: :class:`Tracer` replaces, for the
duration of a ``with`` block, the names each caller looks up (a module
global such as ``repro.pcc.validate.check_proof_term``, or a class
attribute such as ``Shard.dispatch``) with a wrapper that records one
span per call.  A span is ``(id, name, start, end, parent, op, thread,
error, extra)``; spans of one benchmark operation share ``op``.  Spans
stay in memory and are turned into per-layer figures after the run.

:func:`layer_metrics` turns the spans into the per-layer metrics and
:func:`self_time_table` into the per-operation table.  Two self-time
views are derived:

* :func:`self_times` -- per span, its duration minus the part of its
  interval that its child spans cover (the per-layer ``*.self_ms``
  metrics);
* :func:`attribute_wall` -- a sweep over each operation's timeline that
  hands every instant to the innermost spans open at that instant,
  split evenly when shard threads overlap.  These shares add up to the
  operations' traced wall exactly, which is what the self-time table
  prints against the untraced wall.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from importlib import import_module

_CLOCK = time.perf_counter

#: Admission stage of each span name, for the reject-stage counters.
REJECT_STAGES = {
    "pcc.container.parse": "container",
    "alpha.encoding.decode": "code",
    "pcc.container.unpack_invariants": "invariants",
    "lf.encode.invariants": "invariants",
    "vcgen.predicate": "predicate",
    "pcc.container.unpack_proof": "proof",
    "lf.encode.goal": "proof",
    "lf.typecheck.check": "proof",
}


def _frames_done(start_index):
    """Extra-extractor: frames completed by a ``(next_index, ...)``
    batch call whose start index is positional argument ``start_index``
    (``self`` included)."""
    def extract(args, kwargs, result):
        start = args[start_index] if len(args) > start_index \
            else kwargs.get("start", 0)
        return result[0] - start
    return extract


def _frame_count(args, kwargs, result):
    return len(args[1])


def _is_compiled(args, kwargs, result):
    return result is not None


def entry_points():
    """``(owner, attribute, span name, extra extractor)`` for every
    public entry point the benchmark times.  Imported lazily so the
    runner can report a missing source tree before touching it."""
    # import_module, not "import a.b as b": packages re-export functions
    # under their submodules' names (repro.pcc.validate is both).
    wcet = import_module("repro.analysis.wcet")
    loader = import_module("repro.pcc.loader")
    validate = import_module("repro.pcc.validate")
    runtime = import_module("repro.runtime.runtime")
    from repro.alpha.batch import BatchRunner
    from repro.alpha.engine import ExecutionEngine
    from repro.pcc.container import PccBinary
    from repro.runtime.shard import Shard

    return [
        (runtime.PacketRuntime, "attach", "runtime.attach", None),
        (runtime.PacketRuntime, "detach", "runtime.detach", None),
        (runtime.PacketRuntime, "upgrade", "runtime.versions.upgrade",
         None),
        (runtime.PacketRuntime, "serve", "runtime.serve", None),
        (runtime, "compile_batch", "alpha.batch.compile", _is_compiled),
        (wcet, "estimate_wcet", "analysis.wcet.estimate", None),
        (loader.ExtensionLoader, "load", "pcc.loader.load", None),
        (loader.ExtensionLoader, "load_patch", "pcc.loader.load_patch",
         None),
        (loader, "validate", "pcc.validate", None),
        (PccBinary, "from_bytes", "pcc.container.parse", None),
        (validate, "decode_program", "alpha.encoding.decode", None),
        (validate, "unpack_invariants", "pcc.container.unpack_invariants",
         None),
        (validate, "decode_logic_formula", "lf.encode.invariants", None),
        (validate, "safety_predicate", "vcgen.predicate", None),
        (validate, "unpack_proof", "pcc.container.unpack_proof", None),
        (validate, "encode_formula", "lf.encode.goal", None),
        (validate, "check_proof_term", "lf.typecheck.check", None),
        (Shard, "dispatch", "runtime.shard.dispatch", _frame_count),
        (BatchRunner, "run", "alpha.batch.run", _frames_done(2)),
        (ExecutionEngine, "run_batch", "alpha.engine.run_batch",
         _frames_done(5)),
    ]


class Tracer:
    """Records spans while installed (``with tracer:``, repeatable; the
    spans of every installation accumulate); see the module docstring.

    The benchmark is the only caller and runs on one thread, so spans
    opened on another thread (the shard workers) take the caller
    thread's innermost open span as their parent.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extra_fn):
        spans = self.spans
        ids = self._ids
        main = self._main
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (main[-1] if main else None)
            span_id = next(ids)
            stack.append(span_id)
            start = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = _CLOCK()
                stack.pop()
                spans.append((span_id, name, start, end, parent, tracer.op,
                              threading.get_ident(), type(exc).__name__,
                              None))
                raise
            end = _CLOCK()
            stack.pop()
            extra = None if extra_fn is None \
                else extra_fn(args, kwargs, result)
            spans.append((span_id, name, start, end, parent, tracer.op,
                          threading.get_ident(), None, extra))
            return result
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attribute, name, extra_fn in entry_points():
            raw = vars(owner).get(attribute) if isinstance(owner, type) \
                else getattr(owner, attribute)
            self._saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__,
                                                 extra_fn))
            else:
                wrapped = self._wrap(name, raw, extra_fn)
            setattr(owner, attribute, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    def root(self, kind: str, op: int):
        """Context manager for one benchmark operation's root span."""
        return _Root(self, kind, op)


class _Root:
    def __init__(self, tracer: Tracer, kind: str, op: int) -> None:
        self.tracer = tracer
        self.kind = kind
        self.op = op

    def __enter__(self):
        tracer = self.tracer
        tracer.op = self.op
        self.span_id = next(tracer._ids)
        tracer._main.append(self.span_id)
        self.start = _CLOCK()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = _CLOCK()
        tracer = self.tracer
        tracer._main.pop()
        tracer.spans.append((self.span_id, "bench." + self.kind, self.start,
                             end, None, self.op, threading.get_ident(),
                             exc_type.__name__ if exc_type else None, None))
        tracer.op = None


# -- derivations ------------------------------------------------------------

def _covered(intervals, low, high) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def children_of(spans) -> dict:
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    return children


def self_times(spans) -> dict:
    """span id -> duration minus the part its children cover."""
    children = children_of(spans)
    result = {}
    for span in spans:
        kids = children.get(span[0], ())
        covered = _covered([(kid[2], kid[3]) for kid in kids],
                           span[2], span[3])
        result[span[0]] = (span[3] - span[2]) - covered
    return result


def attribute_wall(spans) -> dict:
    """layer name -> seconds of operation wall attributed to it.

    Per operation, every elementary interval between span boundaries
    goes to the innermost open spans (those with no open child), split
    evenly among them; the totals add up to the root spans' wall.
    """
    by_op = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            by_op[span[5]].append(span)
    totals = defaultdict(float)
    for op_spans in by_op.values():
        parent = {span[0]: span[4] for span in op_spans}
        names = {span[0]: span[1] for span in op_spans}
        events = []
        for span in op_spans:
            events.append((span[2], 1, span[0]))
            events.append((span[3], 0, span[0]))
        events.sort()
        open_spans: dict[int, int] = {}   # id -> open children count
        previous = None
        for moment, opening, span_id in events:
            if previous is not None and open_spans and moment > previous:
                leaves = [sid for sid, kids in open_spans.items()
                          if kids == 0]
                share = (moment - previous) / len(leaves)
                for sid in leaves:
                    totals[names[sid]] += share
            previous = moment
            owner = parent.get(span_id)
            if opening:
                open_spans[span_id] = 0
                if owner in open_spans:
                    open_spans[owner] += 1
            else:
                open_spans.pop(span_id, None)
                if owner in open_spans:
                    open_spans[owner] -= 1
    return dict(totals)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(workload, spans, untraced, traced, gen_seconds) -> dict:
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
    children = children_of(spans)
    selfs = self_times(spans)

    def mean_ms(name):
        return 1e3 * _mean(span[3] - span[2] for span in by_name[name])

    def mean_self_ms(name):
        return 1e3 * _mean(selfs[span[0]] for span in by_name[name])

    metrics = {
        "pcc.container.parse_ms": mean_ms("pcc.container.parse"),
        "alpha.encoding.decode_ms": mean_ms("alpha.encoding.decode"),
        "lf.encode.invariants_ms": mean_ms("lf.encode.invariants"),
        "vcgen.predicate_ms": mean_ms("vcgen.predicate"),
        "pcc.container.unpack_proof_ms":
            mean_ms("pcc.container.unpack_proof"),
        "lf.encode.goal_ms": mean_ms("lf.encode.goal"),
        "lf.typecheck.check_ms": mean_ms("lf.typecheck.check"),
        "pcc.validate.self_ms": mean_self_ms("pcc.validate"),
        "pcc.loader.load_patch_ms": mean_ms("pcc.loader.load_patch"),
        "analysis.wcet.estimate_ms": mean_ms("analysis.wcet.estimate"),
        "alpha.batch.compile_ms": mean_ms("alpha.batch.compile"),
        "runtime.versions.upgrade_ms": mean_ms("runtime.versions.upgrade"),
        "runtime.serve_ms": mean_ms("runtime.serve"),
        "runtime.shard.dispatch_ms": mean_ms("runtime.shard.dispatch"),
        "runtime.shard.self_ms": mean_self_ms("runtime.shard.dispatch"),
        "alpha.batch.run_ms": mean_ms("alpha.batch.run"),
        "alpha.engine.run_batch_ms": mean_ms("alpha.engine.run_batch"),
    }

    rejects = dict.fromkeys(
        ("container", "code", "invariants", "predicate", "proof", "other"),
        0)
    for span in by_name["pcc.validate"]:
        if span[7] is None:
            continue
        failed = [kid for kid in children.get(span[0], ()) if kid[7]]
        stage = REJECT_STAGES.get(failed[-1][1], "other") if failed \
            else "other"
        rejects[stage] += 1
    for stage, count in rejects.items():
        metrics[f"pcc.validate.rejects.{stage}"] = count

    loads = [span for span in by_name["pcc.loader.load"] if span[7] is None]
    hits = [span for span in loads
            if not any(kid[1] == "pcc.validate"
                       for kid in children.get(span[0], ()))]
    metrics["pcc.loader.hit_ratio"] = len(hits) / len(loads) if loads \
        else 0.0
    metrics["pcc.loader.hit_us"] = 1e6 * _mean(span[3] - span[2]
                                               for span in hits)
    metrics["pcc.incremental.patch_bytes"] = _mean(
        getattr(workload, "patch_bytes", ()))

    compiles = [span for span in by_name["alpha.batch.compile"]
                if span[7] is None]
    metrics["alpha.batch.capable_ratio"] = (
        sum(bool(span[8]) for span in compiles) / len(compiles)
        if compiles else 0.0)
    metrics["runtime.versions.promote_pkts"] = _mean(
        traced.series.get("promote_pkts", ()))

    fanout, imbalance = [], []
    for span in by_name["runtime.serve"]:
        shards = [kid[3] - kid[2] for kid in children.get(span[0], ())
                  if kid[1] == "runtime.shard.dispatch"]
        if shards:
            fanout.append(span[3] - span[2] - max(shards))
            imbalance.append(max(shards) / _mean(shards)
                             if _mean(shards) else 1.0)
    metrics["runtime.backends.fanout_ms"] = 1e3 * _mean(fanout)
    metrics["runtime.shard.imbalance"] = _mean(imbalance)

    serves = len(by_name["runtime.serve"])
    batch_frames = sum(span[8] or 0 for span in by_name["alpha.batch.run"])
    engine_frames = sum(span[8] or 0
                        for span in by_name["alpha.engine.run_batch"])
    counts = traced.counts
    metrics["alpha.batch.frames"] = batch_frames / serves if serves else 0.0
    metrics["alpha.engine.frames"] = engine_frames / serves if serves \
        else 0.0
    metrics["runtime.fast_path_ratio"] = (
        batch_frames / counts["invocations"] if counts["invocations"]
        else 0.0)
    metrics["runtime.contract_drop_ratio"] = (
        counts["drops"] / counts["frames"] if counts["frames"] else 0.0)
    metrics["runtime.faults"] = counts["faults"]
    metrics["runtime.quarantines"] = counts["quarantines"]
    metrics["prover.certify_ms"] = 1e3 * _mean(workload.certify_seconds)
    metrics["filters.trace.gen_s"] = gen_seconds

    metrics["bench.trace_overhead"] = (
        statistics.median(traced.latencies)
        / statistics.median(untraced.latencies) - 1.0)
    return metrics


def self_time_table(spans, untraced, traced) -> tuple[list[str], dict]:
    """Per operation kind: wall attributed to each layer per operation,
    against the untraced wall of the same kind of operation."""
    kinds = {span[5]: span[1][len("bench."):] for span in spans
             if span[1].startswith("bench.")}
    by_kind = defaultdict(list)
    for span in spans:
        if span[5] in kinds:
            by_kind[kinds[span[5]]].append(span)
    lines, table = [], {}
    for kind in sorted(by_kind):
        ops = traced.ops_by_kind[kind]
        base_ops = untraced.ops_by_kind[kind]
        if not ops or not base_ops:
            continue
        attributed = attribute_wall(by_kind[kind])
        total = sum(attributed.values())
        untraced_ms = 1e3 * untraced.wall_by_kind[kind] / base_ops
        rows = sorted(attributed.items(), key=lambda item: -item[1])
        table[kind] = {
            "ops": ops,
            "layers_ms_per_op": {name: 1e3 * seconds / ops
                                 for name, seconds in rows},
            "sum_ms_per_op": 1e3 * total / ops,
            "untraced_ms_per_op": untraced_ms,
            "accounted_ratio": (1e3 * total / ops) / untraced_ms,
        }
        lines.append(f"[{kind}] {ops} traced ops; self time per op by "
                     "layer (wall-attributed):")
        for name, seconds in rows:
            lines.append(f"  {name:<34} {1e3 * seconds / ops:>10.4f} ms "
                         f"{100 * seconds / total:>6.2f}%")
        row = table[kind]
        lines.append(f"  {'sum of layers':<34} "
                     f"{row['sum_ms_per_op']:>10.4f} ms")
        lines.append(f"  {'untraced wall':<34} {untraced_ms:>10.4f} ms "
                     f"(layers account for "
                     f"{100 * row['accounted_ratio']:.1f}%; tracing "
                     f"overhead {100 * (row['accounted_ratio'] - 1):+.1f}%)")
    return lines, table
