"""Dispatch/batch differential suite: the execution vehicle may never
change semantics.

Three layers of the same claim, each checked property-based:

* **serial vs threads** — serial :meth:`PacketRuntime.dispatch` and the
  threaded :meth:`PacketRuntime.serve` must produce bit-identical
  snapshots (verdicts, counters, cycle clocks, histograms/percentiles,
  fault ledgers, quarantine transitions) on the same frames, including
  traces that inject faults (budget overruns, checked-tier violations);
* **batch vs per-frame** — :meth:`ExecutionEngine.run_batch` must equal
  the per-frame :meth:`ExecutionEngine.run` dispatch protocol on
  *arbitrary* machine programs (loops, wild loads, stores, step limits),
  not just the well-behaved filters;
* **compiled vs generic** — :func:`repro.alpha.batch.compile_batch`
  drivers must equal the generic ``run_batch`` on random certifiable
  filter shapes and on the paper filters, across frame degeneracies
  (empty, unaligned, sub-contract lengths) and budgets — and, for the
  store-bearing family, on random scan loops and the four certified KV
  binaries under both invocation contracts, with budgets that trip
  mid-loop after partial stores, machine faults and step limits,
  comparing the side-region bytes after every resumed segment.

Multi-shard runs with faults in flight are only *end-state* comparable:
the instant of the quarantine flip is scheduling-dependent (threads read
``active`` once per chunk), so those tests pin the converged state,
while strict bit-identity tests pin ``shards=1``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alpha.batch import FramePlan, compile_batch
from repro.alpha.engine import ExecutionEngine
from repro.alpha.parser import parse_program
from repro.errors import BudgetExceeded, MachineError
from repro.filters.kv import (
    KV_PROGRAMS,
    KV_STATE_BASE,
    STATE_SIZE,
    kv_packet_policy,
    kv_registers,
    reusable_kv_memory,
)
from repro.filters.policy import (
    PACKET_BASE,
    SCRATCH_BASE,
    SCRATCH_SIZE,
    filter_registers,
    reusable_packet_memory,
)
from repro.filters.trace import (
    KvTraceConfig,
    TraceConfig,
    generate_adversarial_trace,
    generate_kv_trace,
    generate_trace,
)
from repro.pcc import certify
from repro.perf.cost import ALPHA_175
from repro.runtime import PacketRuntime, RuntimeConfig

from tests.generators import (
    random_filter_source,
    random_kv_loop_source,
    random_kv_source,
    random_machine_program,
)

PLAN = FramePlan(PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE)
KV_PLAN = FramePlan(PACKET_BASE, KV_STATE_BASE, STATE_SIZE, kv=True)

#: (plan, memory factory, register convention, side region name): the
#: two invocation contracts a compiled driver may be specialized to.
CONTRACTS = {
    "filter": (PLAN, reusable_packet_memory, filter_registers, "scratch"),
    "kv": (KV_PLAN, reusable_kv_memory, kv_registers, "state"),
}

#: Frames that poke every edge of the driver's load guards: empty,
#: single byte, one-short-of-aligned, exactly one word, unaligned tail,
#: and a full contract-sized frame.
DEGENERATE_FRAMES = [
    b"", b"\x00", b"\x01" * 7, b"\xff" * 8, b"\x08" * 9,
    bytes(range(64)),
]

frame_strategy = st.binary(min_size=0, max_size=96)


def _attach_all(runtime, blobs):
    for name, blob in sorted(blobs.items()):
        runtime.attach(name, blob)


def _fingerprint(snapshot):
    """Everything a dispatch path could corrupt; excludes wall-clock
    fields."""
    return (snapshot.packets_in, snapshot.faults, snapshot.contract_drops,
            snapshot.shard_cycles, snapshot.extensions)


def _serve_on(policy, blobs, frames, *, shards=1,
              cycle_budget=None, fault_threshold=3,
              downgrade_unproven=False):
    runtime = PacketRuntime(policy, RuntimeConfig(
        shards=shards, cycle_budget=cycle_budget,
        fault_threshold=fault_threshold,
        downgrade_unproven=downgrade_unproven))
    _attach_all(runtime, blobs)
    runtime.serve(frames)
    return runtime.snapshot()


def _dispatch_on(policy, blobs, frames, *, shards=1, cycle_budget=None,
                 fault_threshold=3, downgrade_unproven=False):
    runtime = PacketRuntime(policy, RuntimeConfig(
        shards=shards, cycle_budget=cycle_budget,
        fault_threshold=fault_threshold,
        downgrade_unproven=downgrade_unproven))
    _attach_all(runtime, blobs)
    runtime.dispatch(frames)
    return runtime.snapshot()


# -- serial vs threads ---------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), packets=st.integers(5, 80),
       shards=st.integers(1, 4),
       extra=st.lists(frame_strategy, max_size=6))
def test_backends_bit_identical_on_random_traces(
        filter_policy, filter_blobs, seed, packets, shards, extra):
    """Fault-free traffic: full snapshot equality at any shard count,
    serial vs thread, including out-of-contract drops."""
    frames = generate_trace(TraceConfig(packets=packets, seed=seed)) + extra
    serial = _dispatch_on(filter_policy, filter_blobs, frames,
                          shards=shards)
    threaded = _serve_on(filter_policy, filter_blobs, frames,
                         shards=shards)
    assert _fingerprint(serial) == _fingerprint(threaded)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([5, 12, 20, 41]),
       threshold=st.sampled_from([1, 2, 3, None]))
def test_backends_bit_identical_under_budget_faults(
        filter_policy, filter_blobs, seed, budget, threshold):
    """Injected budget overruns (and the quarantines they trigger) land
    identically serial vs thread at one shard — counters, consecutive
    faults, last_fault strings, states, histograms."""
    frames = generate_trace(TraceConfig(packets=40, seed=seed))
    serial = _dispatch_on(filter_policy, filter_blobs, frames,
                          cycle_budget=budget, fault_threshold=threshold)
    threaded = _serve_on(filter_policy, filter_blobs, frames,
                         cycle_budget=budget, fault_threshold=threshold)
    assert _fingerprint(serial) == _fingerprint(threaded)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), threshold=st.integers(1, 4))
def test_backends_bit_identical_on_checked_tier_faults(
        filter_policy, filter_blobs, rogue_blob, seed, threshold):
    """A downgraded rogue faulting on its first packets: the checked
    tier's wr-violation ledger and the quarantine flip are identical
    serial vs thread at one shard."""
    blobs = {"filter1": filter_blobs["filter1"], "rogue": rogue_blob}
    frames = generate_trace(TraceConfig(packets=25, seed=seed))
    serial = _dispatch_on(filter_policy, blobs, frames,
                          fault_threshold=threshold,
                          downgrade_unproven=True)
    threaded = _serve_on(filter_policy, blobs, frames,
                         fault_threshold=threshold,
                         downgrade_unproven=True)
    assert _fingerprint(serial) == _fingerprint(threaded)
    rogue = next(ext for ext in serial.extensions if ext.name == "rogue")
    assert rogue.state == "quarantined"
    assert rogue.quarantines == 1
    assert "wr" in rogue.last_fault


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shards=st.integers(2, 4))
def test_multishard_quarantine_converges_identically(
        filter_policy, filter_blobs, rogue_blob, seed, shards):
    """Multi-shard with a faulting extension: the *moment* of the flip is
    scheduling-dependent, but the converged end state — quarantined
    rogue, exactly one transition, untouched healthy-filter verdicts —
    must agree serial vs thread."""
    blobs = {"filter2": filter_blobs["filter2"], "rogue": rogue_blob}
    frames = generate_trace(TraceConfig(packets=60, seed=seed))
    states = {}
    for vehicle, run in (("serial", _dispatch_on), ("thread", _serve_on)):
        snapshot = run(filter_policy, blobs, frames, shards=shards,
                       fault_threshold=2, downgrade_unproven=True)
        rogue = next(ext for ext in snapshot.extensions
                     if ext.name == "rogue")
        healthy = next(ext for ext in snapshot.extensions
                       if ext.name == "filter2")
        assert rogue.state == "quarantined"
        assert rogue.quarantines == 1
        # Isolation is exact: the healthy filter saw every frame.
        assert healthy.packets_in == len(frames)
        assert healthy.faults == 0
        states[vehicle] = (healthy.accepted, healthy.cycles,
                           snapshot.contract_drops)
    assert states["thread"] == states["serial"]


# -- batch vs per-frame --------------------------------------------------


def _normalize(outcome):
    """Comparable form of a (next_index, accepted, hist_pairs, error)
    batch outcome: drop zero-count bins, flatten the error."""
    done, accepted, pairs, error = outcome
    if error is None:
        flat = None
    elif isinstance(error, BudgetExceeded):
        flat = (type(error).__name__, str(error), error.budget,
                error.cycles, error.steps)
    else:
        flat = (type(error).__name__, str(error))
    return done, accepted, {c: n for c, n in pairs if n}, flat


def _per_frame_reference(engine, frames, start, cycle_budget):
    """The serial dispatch protocol per-frame runs would follow."""
    memory, rebind = reusable_packet_memory()
    accepted = 0
    hist: dict[int, int] = {}
    index = start
    while index < len(frames):
        frame = frames[index]
        rebind(frame)
        registers = filter_registers(len(frame))
        try:
            result = engine.run(memory, registers, cycle_budget)
        except MachineError as error:
            return index, accepted, list(hist.items()), error
        if result.value:
            accepted += 1
        hist[result.cycles] = hist.get(result.cycles, 0) + 1
        index += 1
    return index, accepted, list(hist.items()), None


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(3, 12),
       start=st.integers(0, 2),
       budget=st.sampled_from([None, 9, 30, 10_000]))
def test_run_batch_matches_per_frame_on_wild_programs(
        seed, length, start, budget):
    """run_batch over raw random programs — loops, stores, unaligned and
    unmapped loads, step limits — equals the per-frame protocol on the
    full outcome space, at every resume offset and budget."""
    rng = random.Random(seed)
    program = random_machine_program(rng, length)
    engine = ExecutionEngine(program, ALPHA_175, max_steps=400)
    frames = DEGENERATE_FRAMES + [bytes([rng.randrange(256)] * n)
                                  for n in (64, 65, 80)]
    memory, rebind = reusable_packet_memory()
    got = engine.run_batch(memory, rebind, frames, filter_registers,
                           start, budget)
    want = _per_frame_reference(engine, frames, start, budget)
    assert _normalize(got) == _normalize(want)


# -- compiled vs generic batch -------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 6),
       start=st.integers(0, 2),
       budget=st.sampled_from([None, 7, 15, 33, 100_000]))
def test_compiled_runner_matches_generic_batch(seed, blocks, start,
                                               budget):
    """compile_batch drivers vs the generic engine loop on random
    well-formed filter shapes, over degenerate and contract frames."""
    rng = random.Random(seed)
    program = parse_program(random_filter_source(rng, blocks))
    runner = compile_batch(program, ALPHA_175, PLAN)
    assert runner is not None, "store-free filter must batch-compile"
    engine = ExecutionEngine(program, ALPHA_175)
    frames = DEGENERATE_FRAMES + [bytes(rng.randrange(256)
                                        for _ in range(n))
                                  for n in (1, 15, 64, 64, 200, 1518)]
    memory, rebind = reusable_packet_memory()
    got = runner.run(frames, start, budget)
    want = engine.run_batch(memory, rebind, frames, filter_registers,
                            start, budget)
    assert _normalize(got) == _normalize(want)


@pytest.mark.parametrize("budget", [None, 5, 12, 20, 37, 42, 100_000])
def test_paper_filters_compiled_vs_generic(certified_filters, budget):
    """The four paper filters (the binaries the runtime actually serves)
    round-trip through the compiled drivers bit-identically at every
    budget, including mid-frame budget faults and resume-after-fault."""
    rng = random.Random(0xA1F4A)
    frames = (generate_trace(TraceConfig(packets=300, seed=7))
              + DEGENERATE_FRAMES
              + [bytes(rng.randrange(256) for _ in range(n))
                 for n in (1, 15, 1518)])
    for name in ("filter1", "filter2", "filter3", "filter4"):
        program = certified_filters[name].program
        runner = compile_batch(program, ALPHA_175, PLAN)
        assert runner is not None, name
        engine = ExecutionEngine(program, ALPHA_175)
        memory, rebind = reusable_packet_memory()
        # Walk segment-to-segment exactly as Shard._dispatch_batch does,
        # so resume-after-fault offsets are covered too.
        start = 0
        while start < len(frames):
            got = runner.run(frames, start, budget)
            want = engine.run_batch(memory, rebind, frames,
                                    filter_registers, start, budget)
            assert _normalize(got) == _normalize(want), (name, start)
            done, _, _, error = got
            if error is None:
                break
            start = done + 1


# -- compiled vs generic: stores and loops --------------------------------


def _segments_agree(program, contract, frames, budget, state=b"",
                    max_steps=1_000_000):
    """Walk ``frames`` segment by segment exactly as
    Shard._dispatch_batch does (resume one past each fault), running the
    compiled driver and the generic engine side by side from the same
    side-region bytes; every segment's outcome and the side bytes after
    it must agree."""
    plan, memory_factory, registers_fn, region = contract
    runner = compile_batch(program, ALPHA_175, plan, max_steps)
    assert runner is not None
    engine = ExecutionEngine(program, ALPHA_175, max_steps)
    memory, rebind = memory_factory()
    side = memory.region(region)
    live = bytearray(side)
    if state and plan.kv:
        side[:] = live[:] = state
    start = 0
    while start <= len(frames):
        got = runner.run(frames, start, budget, live)
        want = engine.run_batch(memory, rebind, frames, registers_fn,
                                start, budget)
        assert _normalize(got) == _normalize(want), start
        if plan.kv:
            assert live == side, start
        done, _, _, error = got
        if error is None:
            return
        start = done + 1


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), loops=st.integers(1, 3),
       contract=st.sampled_from(sorted(CONTRACTS)),
       budget=st.sampled_from([None, 20, 90, 250, 700, 100_000]),
       max_steps=st.sampled_from([1_000_000, 120, 400]),
       state=st.binary(min_size=STATE_SIZE, max_size=STATE_SIZE))
def test_compiled_runner_matches_generic_on_kv_loops(
        seed, loops, contract, budget, max_steps, state):
    """Random scan loops with state and packet stores, diamonds, early
    exits and nested scans: budgets that trip mid-loop after partial
    stores, off-the-end and unaligned faults, read-only packet writes
    (filter contract) and the step-limit hand-over all land exactly as
    the generic engine's, segment after segment."""
    rng = random.Random(seed)
    program = parse_program(random_kv_loop_source(rng, loops))
    frames = DEGENERATE_FRAMES + [bytes(rng.randrange(256)
                                        for _ in range(n))
                                  for n in (64, 64, 71, 200)]
    _segments_agree(program, CONTRACTS[contract], frames, budget, state,
                    max_steps)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 8),
       contract=st.sampled_from(sorted(CONTRACTS)),
       budget=st.sampled_from([None, 9, 30, 100_000]))
def test_compiled_runner_matches_generic_on_kv_stores(seed, blocks,
                                                      contract, budget):
    """Loop-free store-bearing shapes: stores behind diamonds, reloads
    after stores, and (filter contract) a re-zeroed scratch written
    mid-path."""
    rng = random.Random(seed)
    program = parse_program(random_kv_source(rng, blocks))
    frames = DEGENERATE_FRAMES + [bytes(rng.randrange(256)
                                        for _ in range(n))
                                  for n in (64, 80, 1518)]
    _segments_agree(program, CONTRACTS[contract], frames, budget)


#: A scan whose longest iteration ends in its store: a driver that let
#: that block cross the step limit would store where the engine stops.
STORE_LAST_SCAN = """
        SUBQ   r4, r4, r4
        BR     check
loop:   ADDQ   r3, r4, r5
        LDQ    r6, 0(r5)
        ADDQ   r6, 1, r6
        ADDQ   r4, 8, r4
        STQ    r6, 0(r5)
check:  CMPULT r4, 128, r7
        BNE    r7, loop
        RET
"""


def test_step_limit_hand_over_at_every_limit():
    """Every step limit across a scan's length: the driver hands its
    frame to the engine at a loop header before any block could cross
    the limit, so the limit error, the stores before it (or a completed
    frame) land as the engine's do at each one."""
    rng = random.Random(7)
    frames = [bytes(rng.randrange(256) for _ in range(n))
              for n in (64, 80, 96)]
    state = bytes(range(STATE_SIZE))
    runs = [(spec.program, CONTRACTS["kv"]) for spec in KV_PROGRAMS]
    runs.append((parse_program(STORE_LAST_SCAN), CONTRACTS["kv"]))
    runs += [(parse_program(random_kv_loop_source(rng, 2)), contract)
             for contract in CONTRACTS.values()]
    for program, contract in runs:
        for max_steps in range(1, 160):
            if compile_batch(program, ALPHA_175, contract[0],
                             max_steps) is not None:
                _segments_agree(program, contract, frames, None, state,
                                max_steps)


@pytest.fixture(scope="module")
def kv_programs():
    """The four KV programs as the runtime admits them: decoded from
    their certified binaries."""
    policy = kv_packet_policy()
    return {spec.name: certify(spec.source, policy,
                               invariants=spec.invariants()).program
            for spec in KV_PROGRAMS}


@pytest.mark.parametrize("budget", [None, 12, 40, 75, 130, 260, 100_000])
@pytest.mark.parametrize("name", [spec.name for spec in KV_PROGRAMS])
def test_kv_binaries_compiled_vs_generic(kv_programs, name, budget):
    """The four certified KV binaries over Zipf, adversarial and
    degenerate frames at every budget — including budgets that trip
    inside a table scan after the scan has stored — with the state
    bytes compared after each segment."""
    rng = random.Random(0x4B56)
    frames = (generate_kv_trace(KvTraceConfig(packets=300, seed=5))
              + generate_adversarial_trace(120, seed=5)
              + DEGENERATE_FRAMES
              + [bytes(rng.randrange(256) for _ in range(n))
                 for n in (64, 1518)])
    state = bytes(rng.randrange(256) for _ in range(STATE_SIZE))
    _segments_agree(kv_programs[name], CONTRACTS["kv"], frames, budget,
                    state)
