"""The three workloads: set-up, input generation, closed loop, checks.

Every workload drives the public API from one caller that waits for
each call (a closed loop with one client).  ``setup`` is what
``setup_s`` times; ``generate`` builds every input from the seed and is
timed separately (``filters.trace.gen_s``); ``run`` is the measured loop
and may be called more than once (the traced run calls it once without
and once with tracing); ``verify`` replays the reference oracles over
everything that was served.  A wrong output or an unexpected exception
is a failed operation, recorded by type, and the loop carries on.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time
from collections import Counter
from contextlib import nullcontext

import stats

_CLOCK = time.perf_counter


class Outcome:
    """Attempted and failed operations of one run, failures by type.

    ``wrong`` counts outputs that disagree with a reference (a verdict,
    an accept count, a state word, an admit/reject decision); failures
    that are an escaped exception rather than a wrong answer are only in
    ``failures``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong = 0

    def fail(self, kind: str, wrong: bool) -> None:
        self.failures[kind] += 1
        self.wrong += wrong

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Phase:
    """Samples of one measured loop.

    Throughput and tail latency are also kept per window (consecutive
    operations until their summed wall reaches ``window_seconds``, or
    until the workload closes the window itself) so that they can be
    reported as medians over windows: a burst of contention from
    elsewhere on the host then moves a few windows, not the figure.
    """

    def __init__(self, window_seconds: float | None = 1.0) -> None:
        self.latencies: list[float] = []     # primary op, ms
        self.series: dict[str, list[float]] = {}
        self.work = 0            # throughput numerator (frames or ops)
        self.wall = 0.0          # summed wall of the timed operations
        self.ops = 0
        self.wall_by_kind: Counter = Counter()
        self.ops_by_kind: Counter = Counter()
        self.counts: Counter = Counter()
        self.window_seconds = window_seconds
        self.windows: list[float] = []       # work per second
        self.window_tails: list[tuple[float, int]] = []
        self._window = [0, 0.0, []]

    def add(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(value)

    def timed(self, kind: str, seconds: float, work: int,
              latency_ms: float | None = None) -> None:
        """Account one operation; ``latency_ms`` when its wall is the
        primary latency (serve() calls, not control operations)."""
        self.wall += seconds
        self.work += work
        self.ops += 1
        self.wall_by_kind[kind] += seconds
        self.ops_by_kind[kind] += 1
        window = self._window
        window[0] += work
        window[1] += seconds
        if latency_ms is not None:
            self.latencies.append(latency_ms)
            window[2].append(latency_ms)
        if self.window_seconds and window[1] >= self.window_seconds:
            self.close_window()

    def close_window(self) -> None:
        work, wall, latencies = self._window
        if wall:
            self.windows.append(work / wall)
        if len(latencies) > stats.TAIL_BEYOND:
            self.window_tails.append(stats.tail(latencies))
        self._window = [0, 0.0, []]

    @property
    def rate(self) -> float:
        """Median work per second over the complete windows (over the
        whole loop when it was shorter than one window)."""
        if not self.windows:
            return self.work / self.wall
        return statistics.median(self.windows)

    @property
    def tail(self) -> tuple[float, int]:
        """``(ms, percentile)``: the median over windows of each window's
        highest percentile with at least ten samples beyond it, or that
        percentile of all primary latencies when no window has enough."""
        if not self.window_tails:
            return stats.tail(self.latencies)
        return (statistics.median(value for value, __ in self.window_tails),
                min(percentile for __, percentile in self.window_tails))


def _root(tracer, kind: str, op: int):
    return tracer.root(kind, op) if tracer is not None else nullcontext()


def _certify(specs, policy, with_invariants: bool, times: list) -> dict:
    from repro.pcc import certify

    blobs = {}
    for spec in specs:
        started = _CLOCK()
        if with_invariants:
            result = certify(spec.source, policy,
                             invariants=spec.invariants())
        else:
            result = certify(spec.source, policy)
        times.append(_CLOCK() - started)
        blobs[spec.name] = result.binary.to_bytes()
    return blobs


def proof_bytes(blobs) -> int:
    from repro.pcc.container import PccBinary

    return sum(len(PccBinary.from_bytes(blob).proof)
               for blob in blobs.values())


def _kept(frames, config) -> list:
    low, high = config.min_frame_bytes, config.max_frame_bytes
    return [frame for frame in frames if low <= len(frame) <= high]


def _accepted(extensions) -> dict:
    return {name: ext.snapshot().accepted
            for name, ext in extensions.items()}


def _faults(extensions) -> int:
    return sum(ext.snapshot().faults for ext in extensions.values())


class Workload:
    name = "abstract"
    #: The traced run alternates this many untraced and traced blocks,
    #: so that drift in the host's speed falls on both sides alike.
    TRACE_BLOCKS = 4
    #: Throughput window (see :class:`Phase`).
    WINDOW_SECONDS: float | None = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.certify_seconds: list[float] = []
        self.blobs: dict[str, bytes] = {}
        self.next_op = 0
        # Modeled cycles and kept frames behind modeled_cycles_per_pkt.
        self.cycles = 0
        self.cycle_frames = 0

    @property
    def modeled_cycles_per_pkt(self) -> float:
        return self.cycles / self.cycle_frames

    @property
    def proof_bytes(self) -> int:
        return proof_bytes(self.blobs)

    def verify(self, outcome: Outcome) -> None:
        """Deferred checks against the reference oracles (default: none
        beyond the per-operation ones made in ``run``)."""

    def op_min_ms(self, phase: Phase) -> float:
        """The fastest primary operation of the run."""
        return min(phase.latencies)

    def op_p50_ms(self, phase: Phase) -> float:
        """The median of the primary operation's latency."""
        return statistics.median(phase.latencies)


# -- filter-serve -------------------------------------------------------------

class FilterServe(Workload):
    """Figure 8 traffic: four read-only filters, 2 thread shards."""

    name = "filter-serve"
    CHUNK = 1024
    CHUNKS = 32

    def setup(self) -> None:
        from repro.filters import FILTERS, packet_filter_policy
        from repro.runtime import PacketRuntime, RuntimeConfig

        policy = packet_filter_policy()
        self.blobs = _certify(FILTERS, policy, False, self.certify_seconds)
        self.runtime = PacketRuntime(policy, RuntimeConfig(
            shards=2, backend="thread", cycle_budget="auto"))
        for name, blob in self.blobs.items():
            self.runtime.attach(name, blob)

    def generate(self) -> None:
        from repro.filters import TraceConfig, generate_trace
        from repro.filters.oracle import ORACLES

        frames = generate_trace(TraceConfig(
            packets=self.CHUNK * self.CHUNKS, seed=self.seed))
        self.chunks = [frames[start:start + self.CHUNK]
                       for start in range(0, len(frames), self.CHUNK)]
        self.expected = []
        for chunk in self.chunks:
            kept = _kept(chunk, self.runtime.config)
            self.expected.append((len(kept), {
                name: sum(bool(ORACLES[name](frame)) for frame in kept)
                for name in self.blobs}))

    def run(self, seconds: float, outcome: Outcome, phase: Phase,
            tracer=None) -> None:
        runtime = self.runtime
        extensions = {name: runtime.extension(name) for name in self.blobs}
        accepted = _accepted(extensions)
        faults = _faults(extensions)
        count = len(self.chunks)
        deadline = _CLOCK() + seconds
        while _CLOCK() < deadline or self.next_op < count:
            op = self.next_op
            self.next_op += 1
            index = op % count
            outcome.attempted += 1
            with _root(tracer, "serve", op):
                started = _CLOCK()
                try:
                    report = runtime.serve(self.chunks[index])
                except Exception as error:  # a crash is a failed op
                    outcome.fail(type(error).__name__, wrong=False)
                    continue
                elapsed = _CLOCK() - started
            kept, want = self.expected[index]
            phase.timed("serve", elapsed, report.packets, elapsed * 1e3)
            phase.counts["frames"] += len(self.chunks[index])
            phase.counts["kept"] += report.packets
            phase.counts["invocations"] += report.packets * len(extensions)
            phase.counts["drops"] += report.contract_drops
            if op < count:
                self.cycles += sum(report.shard_cycles)
                self.cycle_frames += report.packets
            now = _accepted(extensions)
            now_faults = _faults(extensions)
            got = {name: now[name] - accepted[name] for name in now}
            accepted = now
            phase.counts["faults"] += now_faults - faults
            if report.packets != kept:
                outcome.fail("contract-count-mismatch", wrong=True)
            elif got != want:
                outcome.fail("accept-count-mismatch", wrong=True)
            elif now_faults != faults:
                outcome.fail("unexpected-fault", wrong=True)
            faults = now_faults
        phase.counts["quarantines"] = sum(
            ext.snapshot().quarantines for ext in extensions.values())


# -- kv-serve -----------------------------------------------------------------

class KvServe(Workload):
    """Store-bearing programs on the generic engine, one runtime each;
    one operation serves one chunk through all four runtimes in turn."""

    name = "kv-serve"
    CHUNK = 256
    CHUNKS = 64
    ADVERSARIAL_SHARE = 0.10

    def setup(self) -> None:
        from repro.filters.kv import (
            KV_PROGRAMS,
            kv_packet_policy,
            kv_registers,
            reusable_kv_memory,
        )
        from repro.runtime import PacketRuntime, RuntimeConfig

        policy = kv_packet_policy()
        self.blobs = _certify(KV_PROGRAMS, policy, True, self.certify_seconds)
        self.runtimes = []
        for name, blob in self.blobs.items():
            runtime = PacketRuntime(policy, RuntimeConfig(
                shards=1, cycle_budget="auto",
                memory_factory=reusable_kv_memory,
                registers_fn=kv_registers))
            runtime.attach(name, blob)
            self.runtimes.append((name, runtime))
        self.log: list[tuple] = []
        self.failed_ops: set[int] = set()    # an operation fails once

    def generate(self) -> None:
        from repro.filters import (
            KvTraceConfig,
            generate_adversarial_trace,
            generate_kv_trace,
        )

        total = self.CHUNK * self.CHUNKS
        zipf = generate_kv_trace(KvTraceConfig(packets=total,
                                               seed=self.seed))
        rng = random.Random(f"{self.seed}:kv-mix")
        swap = [rng.random() < self.ADVERSARIAL_SHARE for __ in zipf]
        hostile = iter(generate_adversarial_trace(sum(swap),
                                                  seed=self.seed))
        frames = [next(hostile) if hostile_slot else frame
                  for frame, hostile_slot in zip(zipf, swap)]
        config = self.runtimes[0][1].config
        self.chunks = [frames[start:start + self.CHUNK]
                       for start in range(0, total, self.CHUNK)]
        self.kept = [_kept(chunk, config) for chunk in self.chunks]

    def run(self, seconds: float, outcome: Outcome, phase: Phase,
            tracer=None) -> None:
        runtimes = self.runtimes
        extensions = [runtime.extension(name) for name, runtime in runtimes]
        count = len(self.chunks)
        deadline = _CLOCK() + seconds
        while _CLOCK() < deadline or self.next_op < count:
            op = self.next_op
            self.next_op += 1
            index = op % count
            chunk = self.chunks[index]
            before = [extension.snapshot() for extension in extensions]
            outcome.attempted += 1
            reports = []
            with _root(tracer, "serve", op):
                started = _CLOCK()
                try:
                    for __, runtime in runtimes:
                        reports.append(runtime.serve(chunk))
                except Exception as error:  # a crash is a failed op
                    outcome.fail(type(error).__name__, wrong=False)
                    self.failed_ops.add(op)
                elapsed = _CLOCK() - started
            after = [extension.snapshot() for extension in extensions]
            if len(reports) == len(runtimes):
                phase.timed("serve", elapsed, reports[0].packets,
                            elapsed * 1e3)
            # The calls that completed are logged even when a later one
            # crashed, so the oracle replay of their runtimes stays in step.
            for slot, report in enumerate(reports):
                faults = after[slot].faults - before[slot].faults
                phase.counts["frames"] += len(chunk)
                phase.counts["kept"] += report.packets
                phase.counts["invocations"] += report.packets
                phase.counts["drops"] += report.contract_drops
                phase.counts["faults"] += faults
                if op < count:
                    self.cycles += sum(report.shard_cycles)
                state = bytes(runtimes[slot][1].shards[0].memory
                              .region("state"))
                self.log.append((op, slot, index, report.packets,
                                 after[slot].accepted
                                 - before[slot].accepted, faults, state))
            if op < count and reports:
                self.cycle_frames += reports[0].packets
        phase.counts["quarantines"] = sum(
            extension.snapshot().quarantines for extension in extensions)

    def verify(self, outcome: Outcome) -> None:
        """Replay each program's oracle over exactly the frames its
        runtime served, in order, checking the accept count and every
        persistent state word after each serve() call.  An operation
        fails once, however many of its four calls disagree."""
        from repro.filters.kv import ORACLES, initial_state

        states = [initial_state() for __ in self.runtimes]
        for op, slot, index, packets, accepted, faults, state in self.log:
            oracle = ORACLES[self.runtimes[slot][0]]
            words = states[slot]
            kept = self.kept[index]
            want = sum(bool(oracle(words, frame)[0]) for frame in kept)
            want_state = b"".join(word.to_bytes(8, "little")
                                  for word in words)
            if packets != len(kept):
                kind = "contract-count-mismatch"
            elif accepted != want:
                kind = "accept-count-mismatch"
            elif state != want_state:
                kind = "state-mismatch"
            elif faults:
                kind = "unexpected-fault"
            else:
                continue
            if op not in self.failed_ops:
                self.failed_ops.add(op)
                outcome.fail(kind, wrong=True)
        self.log.clear()


# -- control-churn ------------------------------------------------------------

#: A verdict-equivalent edit: one identity instruction before the last
#: RET (different bytes and one more cycle on that path, same verdicts).
_LAST_RET = re.compile(r"^(\s*(?:\w+:)?\s*)RET\s*$", re.MULTILINE)


def benign_variant(source: str) -> str:
    matches = list(_LAST_RET.finditer(source))
    last = matches[-1]
    return (source[:last.start()] + last.group(1) + "ADDQ r3, 0, r3\n"
            + "        RET" + source[last.end():])


def deep_binder_container(blob: bytes, depth: int = 15_000) -> bytes:
    """``blob``'s code under a proof of ``depth`` nested lambdas over the
    type ``tm`` (the hostile container of the kind ROADMAP describes)."""
    from repro.pcc.container import PccBinary

    binary = PccBinary.from_bytes(blob)
    table = bytes([1, 2]) + b"tm"
    proof = b"\x05\x01\x00" * depth + b"\x01\x00"
    return PccBinary(binary.code, table, proof,
                     binary.invariants).to_bytes()


def same_meaning(base: bytes, mutant: bytes) -> bool:
    """True when ``mutant`` carries the same code as ``base`` and its
    proof and invariant table decode to the same LF term and the same
    formulas at the same pcs (a flipped binder-name byte, or a flipped
    bit of a proof-stream field that the decoder does not keep, say):
    validation then sees the same obligations and proof, so it must
    admit the container."""
    from repro.lf.encode import decode_logic_formula
    from repro.pcc.container import (
        PccBinary,
        unpack_invariants,
        unpack_proof,
    )

    try:
        old = PccBinary.from_bytes(base)
        new = PccBinary.from_bytes(mutant)
        if old.code != new.code:
            return False
        if (old.relocation, old.proof) != (new.relocation, new.proof) \
                and unpack_proof(old.relocation, old.proof) \
                != unpack_proof(new.relocation, new.proof):
            return False
        old_table = unpack_invariants(old.invariants)
        new_table = unpack_invariants(new.invariants)
        return old_table.keys() == new_table.keys() and all(
            decode_logic_formula(old_table[pc])
            == decode_logic_formula(new_table[pc]) for pc in old_table)
    except Exception:  # labelling only: undecodable means not the same
        return False


class ControlChurn(Workload):
    """Admission and control-plane operations, almost no dispatch.

    A run is a whole number of rounds, each holding every operation once
    in an order shuffled from the run seed, which also draws the hostile
    corpus and the canary traffic; ``--seconds`` sets the round count at
    :attr:`ROUND_SECONDS` per round.

    A cold admission allocates enough that the collector's full
    collections decide much of its wall, and their cost and placement
    depend on every allocation before it.  So that the figures do not
    depend on the history of the run (the order of the operations, or
    how much the program allocates elsewhere), each admission, hostile
    attach and upgrade starts, outside its timer, from a full collection
    after which every live object is frozen (``gc.freeze``): collections
    inside the operation then see only what the operation allocated.
    """

    name = "control-churn"
    ROUND_SECONDS = 3.5      # nominal wall of one round on a 2-core host
    ROUNDS = 8               # pre-generated rounds; later rounds repeat
    WINDOW_SECONDS = None    # one throughput window per round
    next_round = 0
    #: Operations that start from a collected, frozen heap (class doc).
    COLLECT_BEFORE = frozenset({"admit", "reject", "upgrade"})
    CANARY_CHUNK = 64
    PROMOTE_AFTER = 512
    CANARY_FRAMES = 1024

    def setup(self) -> None:
        from repro.filters import FILTERS, packet_filter_policy
        from repro.filters.kv import (
            KV_PROGRAMS,
            kv_packet_policy,
            kv_registers,
            reusable_kv_memory,
        )
        from repro.runtime import PacketRuntime, RuntimeConfig

        self.filter_policy = packet_filter_policy()
        kv_policy = kv_packet_policy()
        self.filter_names = [spec.name for spec in FILTERS]
        self.filter_sources = {spec.name: spec.source for spec in FILTERS}
        self.blobs = _certify(FILTERS, self.filter_policy, False,
                              self.certify_seconds)
        self.blobs.update(_certify(KV_PROGRAMS, kv_policy, True,
                                   self.certify_seconds))
        self.filter_runtime = PacketRuntime(self.filter_policy,
                                            RuntimeConfig(
                                                shards=2,
                                                cycle_budget="auto"))
        self.kv_runtime = PacketRuntime(kv_policy, RuntimeConfig(
            shards=1, cycle_budget="auto",
            memory_factory=reusable_kv_memory, registers_fn=kv_registers))
        for name, blob in self.blobs.items():
            runtime = self.runtime_for(name)
            runtime.attach(name, blob)
            runtime.detach(name)

    def _admits(self, phase: Phase) -> list:
        return [values for name, values in phase.series.items()
                if name.startswith("admit_ms:")]

    # Admit times cluster by binary (tens of ms for a filter, hundreds
    # for a KV program): a median over pooled admits, or across binaries,
    # would follow only the binaries in the middle, while a geometric
    # mean over binaries moves with every binary by its relative change.

    def op_min_ms(self, phase: Phase) -> float:
        """The geometric mean over the eight binaries of each one's
        fastest cold admit of the run (one admit per round)."""
        return statistics.geometric_mean(
            min(values) for values in self._admits(phase))

    def op_p50_ms(self, phase: Phase) -> float:
        """The geometric mean over the eight binaries of each one's
        median cold admit."""
        return statistics.geometric_mean(
            statistics.median(values) for values in self._admits(phase))

    def runtime_for(self, name: str):
        return (self.filter_runtime if name in self.filter_sources
                else self.kv_runtime)

    def generate(self) -> None:
        from repro.errors import CertificationError
        from repro.filters import TraceConfig, generate_trace
        from repro.filters.oracle import ORACLES
        from repro.pcc import certify, certify_incremental
        from repro.pcc.mutate import mutants
        from repro.proof.store import ProofStore

        self.variants = {}
        for name in self.filter_names:
            source = benign_variant(self.filter_sources[name])
            try:
                result = certify_incremental(
                    self.blobs[name], source, self.filter_policy,
                    store=ProofStore())
                self.variants[name] = (result.binary.to_bytes(),
                                       result.patch)
            except CertificationError:
                self.variants[name] = (certify(
                    source, self.filter_policy).binary.to_bytes(), None)
        frames = generate_trace(TraceConfig(packets=self.CANARY_FRAMES,
                                            seed=self.seed))
        self.canary_chunks = [
            frames[start:start + self.CANARY_CHUNK]
            for start in range(0, len(frames), self.CANARY_CHUNK)]
        config = self.filter_runtime.config
        self.canary_expected = [
            {name: sum(bool(ORACLES[name](frame))
                       for frame in _kept(chunk, config))
             for name in self.filter_names}
            for chunk in self.canary_chunks]
        deep = deep_binder_container(self.blobs[self.filter_names[0]])
        self.rounds = []
        for round_index in range(self.ROUNDS):
            round_seed = self.seed * self.ROUNDS + round_index
            ops = [("admit", name, None) for name in self.blobs]
            ops += [("warm", name, None) for name in self.blobs]
            ops += [("upgrade", name, None) for name in self.filter_names]
            for name, blob in self.blobs.items():
                for kind, mutant in mutants(blob, seed=round_seed,
                                            rounds=1):
                    ops.append(("reject", name,
                                (kind, mutant, same_meaning(blob, mutant))))
            ops.append(("reject", self.filter_names[0],
                        ("deep-binder", deep, False)))
            random.Random(f"churn:{round_seed}").shuffle(ops)
            self.rounds.append(ops)
        self.patch_bytes = [patch.size for __, patch
                            in self.variants.values() if patch is not None]

    def run(self, seconds: float, outcome: Outcome, phase: Phase,
            tracer=None) -> None:
        for __ in range(max(1, round(seconds / self.ROUND_SECONDS))):
            ops = self.rounds[self.next_round % len(self.rounds)]
            self.next_round += 1
            phase.counts["rounds"] += 1
            for kind, name, payload in ops:
                op = self.next_op
                self.next_op += 1
                outcome.attempted += 1
                if kind in self.COLLECT_BEFORE:
                    gc.collect()
                    gc.freeze()
                with _root(tracer, kind, op):
                    started = _CLOCK()
                    try:
                        getattr(self, "_" + kind)(name, payload, phase,
                                                  outcome)
                    except Exception as error:  # a crash is a failed op
                        outcome.fail(f"{kind}:{type(error).__name__}",
                                     wrong=False)
                    elapsed = _CLOCK() - started
                phase.timed(kind, elapsed, 1)
            phase.close_window()

    def _admit(self, name, payload, phase, outcome) -> None:
        from repro.errors import ValidationError

        runtime = self.runtime_for(name)
        blob = self.blobs[name]
        runtime.loader.evict(blob)
        started = _CLOCK()
        try:
            runtime.attach(name, blob)
        except ValidationError:
            outcome.fail("admit:valid-binary-rejected", wrong=True)
            return
        elapsed = (_CLOCK() - started) * 1e3
        phase.latencies.append(elapsed)
        phase.add(f"admit_ms:{name}", elapsed)
        runtime.detach(name)

    def _warm(self, name, payload, phase, outcome) -> None:
        runtime = self.runtime_for(name)
        hits = runtime.loader.stats().hits
        started = _CLOCK()
        runtime.attach(name, self.blobs[name])
        phase.add("warm_ms", (_CLOCK() - started) * 1e3)
        runtime.detach(name)
        if runtime.loader.stats().hits != hits + 1:
            outcome.fail("warm:cache-miss", wrong=True)

    def _reject(self, name, payload, phase, outcome) -> None:
        from repro.errors import ValidationError

        kind, blob, admissible = payload
        runtime = self.runtime_for(name)
        started = _CLOCK()
        try:
            runtime.attach("hostile", blob)
        except ValidationError:
            phase.add("reject_ms", (_CLOCK() - started) * 1e3)
            phase.counts[f"rejected:{kind}"] += 1
            if admissible:
                outcome.fail(f"reject:{kind}:same-meaning-rejected",
                             wrong=True)
            return
        except Exception as error:
            outcome.fail(f"reject:{kind}:{type(error).__name__}",
                         wrong=False)
            return
        runtime.detach("hostile")
        if admissible:
            phase.counts[f"admitted-same-meaning:{kind}"] += 1
        else:
            outcome.fail(f"reject:{kind}:hostile-admitted", wrong=True)

    def _upgrade(self, name, payload, phase, outcome) -> None:
        from repro.runtime import CanaryConfig, VersionState

        runtime = self.filter_runtime
        variant, patch = self.variants[name]
        runtime.attach(name, self.blobs[name])
        try:
            runtime.loader.evict(variant)
            extension = runtime.extension(name)
            accepted = extension.snapshot().accepted
            started = _CLOCK()
            shadow = runtime.upgrade(
                name, variant, patch=patch,
                canary=CanaryConfig(sample_fraction=1.0,
                                    promote_after=self.PROMOTE_AFTER))
            phase.add("upgrade_ms", (_CLOCK() - started) * 1e3)
            frames = 0
            for index, chunk in enumerate(self.canary_chunks):
                if shadow.state is not VersionState.SHADOW:
                    break
                report = runtime.serve(chunk)
                frames += report.packets
                phase.counts["invocations"] += report.packets
                phase.counts["frames"] += len(chunk)
                phase.counts["kept"] += report.packets
                self.cycles += sum(report.shard_cycles)
                self.cycle_frames += report.packets
                now = extension.snapshot().accepted
                if now - accepted != self.canary_expected[index][name]:
                    outcome.fail("upgrade:accept-count-mismatch",
                                 wrong=True)
                accepted = now
            phase.add("promote_pkts", frames)
            if shadow.state is not VersionState.PROMOTED \
                    or extension.version != 2:
                outcome.fail(f"upgrade:not-promoted:{shadow.state.value}",
                             wrong=True)
        finally:
            runtime.detach(name)


WORKLOADS = {cls.name: cls for cls in (FilterServe, KvServe, ControlChurn)}
