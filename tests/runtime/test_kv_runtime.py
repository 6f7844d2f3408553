"""The write-capable family under the dispatch runtime.

Admission (auto WCET budgets, compiled batch drivers, the reported
execution tier), and the acceptance property of the family: a runtime
dispatching the adversarial trace leaves per-shard persistent state
*bit-identical* to the pure-Python oracle, alongside every verdict and
packet rewrite — also when two store-bearing extensions share a shard.
"""

import pytest

from repro.alpha.batch import FramePlan, batch_capability, compile_batch
from repro.alpha.parser import parse_program
from repro.analysis import context_for_policy, estimate_wcet
from repro.filters.kv import (
    KV_EVICT,
    KV_INSERT,
    KV_PROGRAMS,
    KV_STATE_BASE,
    STATE_SIZE,
    kv_packet_policy,
    kv_registers,
    oracle_run,
    reusable_kv_memory,
)
from repro.filters.policy import PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE
from repro.filters.trace import KvTraceConfig, generate_adversarial_trace, \
    generate_kv_trace
from repro.pcc import certify
from repro.perf.cost import ALPHA_175
from repro.runtime import PacketRuntime, RuntimeConfig

PACKETS = 600

KV_PLAN = FramePlan(PACKET_BASE, KV_STATE_BASE, STATE_SIZE, kv=True)

#: A two-entry cycle: the loop a <-> b is entered at both blocks, so
#: neither dominates the other (irreducible flow).  It touches no memory,
#: so it certifies with a trivial invariant at its backward target.
IRREDUCIBLE_SOURCE = """
        BEQ    r2, b
a:      ADDQ   r4, 1, r4
b:      ADDQ   r5, 1, r5
        BNE    r5, a
        RET
"""


@pytest.fixture(scope="module")
def kv_policy():
    return kv_packet_policy()


@pytest.fixture(scope="module")
def kv_blobs(kv_policy):
    return {spec.name: certify(spec.source, kv_policy,
                               invariants=spec.invariants()
                               ).binary.to_bytes()
            for spec in KV_PROGRAMS}


@pytest.fixture(scope="module")
def irreducible_blob(kv_policy):
    from repro.logic.formulas import Truth
    return certify(IRREDUCIBLE_SOURCE, kv_policy,
                   invariants={1: Truth()}).binary.to_bytes()


def _kv_runtime(kv_policy, **overrides):
    defaults = dict(shards=1, cycle_budget="auto",
                    memory_factory=reusable_kv_memory,
                    registers_fn=kv_registers)
    defaults.update(overrides)
    return PacketRuntime(kv_policy, RuntimeConfig(**defaults))


def _contract_frames(trace, config=None):
    config = config or RuntimeConfig()
    return [frame for frame in trace
            if config.min_frame_bytes <= len(frame)
            <= config.max_frame_bytes]


# -- admission ----------------------------------------------------------


def test_admission_with_auto_wcet_budget(kv_policy, kv_blobs):
    runtime = _kv_runtime(kv_policy)
    context = context_for_policy(kv_policy)
    for spec in KV_PROGRAMS:
        extension = runtime.attach(spec.name, kv_blobs[spec.name])
        assert not extension.checked          # proof-carrying fast tier
        report = estimate_wcet(extension.program, context)
        assert report.bound is not None       # every loop is bounded
        assert extension.wcet_bound == report.bound
        assert extension.cycle_budget == report.budget(0.0)


def test_store_bearing_admission_never_raises_on_batch_path(
        kv_policy, kv_blobs, irreducible_blob):
    """Admission of the store-bearing family completes on the compiled
    path: every KV program gets a batch driver next to its engine, and
    a certified program of a still-refused shape (irreducible flow) is
    admitted onto the generic engine rather than raise."""
    runtime = _kv_runtime(kv_policy)
    for name, blob in kv_blobs.items():
        extension = runtime.attach(name, blob)
        assert extension.batch_runner is not None, name
        assert extension.engine is not None
    refused = runtime.attach("irreducible", irreducible_blob)
    assert refused.batch_runner is None
    assert refused.engine is not None


def test_readmission_reuses_the_cached_driver(kv_policy, kv_blobs):
    """Drivers live in the engine's code cache: a detached and
    re-attached program, or the same program in a second runtime, gets
    the driver compiled the first time."""
    runtime = _kv_runtime(kv_policy)
    first = runtime.attach(KV_INSERT.name, kv_blobs[KV_INSERT.name])
    runtime.detach(KV_INSERT.name)
    again = runtime.attach(KV_INSERT.name, kv_blobs[KV_INSERT.name])
    other = _kv_runtime(kv_policy).attach(KV_INSERT.name,
                                          kv_blobs[KV_INSERT.name])
    assert first.batch_runner is again.batch_runner is other.batch_runner


def test_batch_capability_names_the_reason():
    """The KV family's packet/state stores and invariant-cut scan loops
    are batchable, as are the paper filters; irreducible flow and a
    step-limit-reachable path are still refused, with a reason."""
    from repro.filters.programs import FILTERS
    for spec in KV_PROGRAMS + FILTERS:
        assert batch_capability(spec.program) is None, spec.name

    reason = batch_capability(parse_program(IRREDUCIBLE_SOURCE))
    assert reason is not None and "irreducible" in reason
    reason = batch_capability(KV_INSERT.program, max_steps=5)
    assert reason is not None and "step" in reason


def test_batch_probe_never_raises_on_long_programs():
    """A 10,000-block chain is far past Python's recursion limit: the
    probe still answers, and compile_batch declines (size caps) rather
    than raise."""
    from repro.alpha.isa import Branch, Lit, Operate, Reg, Ret
    chain = (Operate("ADDQ", Reg(4), Lit(1), Reg(4)),
             Branch("BEQ", Reg(4), 0)) * 5000
    program = chain + (Ret(),)
    assert batch_capability(program) is None
    assert compile_batch(program, ALPHA_175, KV_PLAN) is None


def test_compile_batch_agrees_with_capability_probe():
    """compile_batch returns None exactly when the probe gives a
    reason (checked over both families)."""
    from repro.filters.programs import FILTERS
    plan = FramePlan(PACKET_BASE, SCRATCH_BASE, SCRATCH_SIZE)
    programs = [spec.program for spec in KV_PROGRAMS]
    programs += [filter_spec.program for filter_spec in FILTERS]
    for program in programs:
        runner = compile_batch(program, ALPHA_175, plan)
        assert (runner is None) == (batch_capability(program) is not None)


def test_unproven_store_blob_rejected_without_downgrade(kv_policy,
                                                        rogue_blob):
    from repro.errors import ValidationError
    runtime = _kv_runtime(kv_policy)
    with pytest.raises(ValidationError):
        runtime.attach("rogue", rogue_blob)


# -- dispatch: verdicts, rewrites, and persistent state -----------------


def _dispatch_differential(kv_policy, kv_blobs, name, trace):
    """One extension, one shard: dispatch must equal the serial oracle
    in verdict stream, fault count, and final state bytes."""
    frames = _contract_frames(trace)
    runtime = _kv_runtime(kv_policy)
    runtime.attach(name, kv_blobs[name])
    report = runtime.dispatch(trace, collect=True)
    assert report.packets == len(frames)
    assert report.contract_drops == len(trace) - len(frames)

    verdicts, __, state = oracle_run(name, frames)
    got = [record[name] for record in report.records]
    assert None not in got                    # zero faults
    assert got == verdicts
    want_state = b"".join(word.to_bytes(8, "little") for word in state)
    shard_state = bytes(runtime.shards[0].memory.region("state"))
    assert shard_state == want_state
    assert len(shard_state) == STATE_SIZE


@pytest.mark.parametrize("spec", KV_PROGRAMS, ids=lambda s: s.name)
def test_zipf_trace_state_differential(kv_policy, kv_blobs, spec):
    trace = generate_kv_trace(KvTraceConfig(packets=PACKETS, hosts=24))
    _dispatch_differential(kv_policy, kv_blobs, spec.name, trace)


@pytest.mark.parametrize("spec", KV_PROGRAMS, ids=lambda s: s.name)
def test_adversarial_trace_state_differential(kv_policy, kv_blobs, spec):
    """The acceptance criterion: runtime post-state bit-identical to
    the oracle across the adversarial trace."""
    trace = generate_adversarial_trace(PACKETS)
    _dispatch_differential(kv_policy, kv_blobs, spec.name, trace)


def test_state_persists_across_dispatch_calls(kv_policy, kv_blobs):
    """The table survives between dispatch batches — per-shard state is
    persistent, unlike the per-invocation BPF scratch."""
    trace = generate_kv_trace(KvTraceConfig(packets=200, hosts=8))
    half = len(trace) // 2
    split_runtime = _kv_runtime(kv_policy)
    split_runtime.attach(KV_INSERT.name, kv_blobs[KV_INSERT.name])
    split_runtime.dispatch(trace[:half])
    split_runtime.dispatch(trace[half:])

    whole_runtime = _kv_runtime(kv_policy)
    whole_runtime.attach(KV_INSERT.name, kv_blobs[KV_INSERT.name])
    whole_runtime.dispatch(trace)

    assert bytes(split_runtime.shards[0].memory.region("state")) \
        == bytes(whole_runtime.shards[0].memory.region("state"))
    assert any(bytes(whole_runtime.shards[0].memory.region("state")))


def test_auto_budget_never_faults_on_kv_workload(kv_policy, kv_blobs):
    """The WCET budget is a sound bound: budgeted dispatch completes the
    whole trace with zero faults and the same telemetry as unbudgeted."""
    trace = _contract_frames(generate_adversarial_trace(300))
    snapshots = []
    for budget in ("auto", None):
        runtime = _kv_runtime(kv_policy, cycle_budget=budget)
        for name, blob in sorted(kv_blobs.items()):
            runtime.attach(name, blob)
        runtime.dispatch(trace)
        snapshots.append(runtime.snapshot())
    budgeted, unbudgeted = snapshots
    assert budgeted.faults == unbudgeted.faults == 0
    for left, right in zip(budgeted.extensions, unbudgeted.extensions):
        assert left.name == right.name
        assert left.accepted == right.accepted


# -- telemetry: the execution tier --------------------------------------


def test_snapshot_reports_execution_tier(kv_policy, kv_blobs,
                                        irreducible_blob):
    """KV programs report the compiled tier; a program the batch
    compiler refuses reports the engine tier with the refusal reason,
    in the snapshot and its JSON form alike."""
    runtime = _kv_runtime(kv_policy)
    for name, blob in kv_blobs.items():
        runtime.attach(name, blob)
    runtime.attach("irreducible", irreducible_blob)
    snapshot = runtime.snapshot()
    for spec in KV_PROGRAMS:
        ext = snapshot.extension(spec.name)
        assert (ext.tier, ext.tier_reason) == ("batch", None), ext.name
    refused = snapshot.extension("irreducible").to_dict()
    assert refused["tier"] == "engine"
    assert "irreducible" in refused["tier_reason"]


# -- several store-bearing extensions on one shard ----------------------


def _shared_state_run(kv_policy, kv_blobs, frames, method, **kwargs):
    runtime = _kv_runtime(kv_policy)
    for spec in (KV_INSERT, KV_EVICT):
        runtime.attach(spec.name, kv_blobs[spec.name])
    report = getattr(runtime, method)(frames, **kwargs)
    snapshot = runtime.snapshot()
    return (report.records,
            [(ext.name, ext.packets_in, ext.accepted, ext.faults,
              ext.cycles, ext.p50_cycles, ext.p99_cycles)
             for ext in snapshot.extensions],
            snapshot.shard_cycles,
            bytes(runtime.shards[0].memory.region("state")))


def test_shared_state_extensions_keep_frame_major_order(kv_policy,
                                                        kv_blobs):
    """kv-insert and kv-evict share one shard's table: serve(),
    dispatch() and the per-packet dispatch(collect=True) reference agree
    on counters, cycle clocks and the final state bytes, and the
    collected verdicts match an oracle replay in frame-major order."""
    frames = _contract_frames(generate_kv_trace(
        KvTraceConfig(packets=300, seed=3)))
    reference = _shared_state_run(kv_policy, kv_blobs, frames, "dispatch",
                                  collect=True)
    for method in ("serve", "dispatch"):
        got = _shared_state_run(kv_policy, kv_blobs, frames, method)
        assert got[1:] == reference[1:], method

    from repro.filters.kv import ORACLES, initial_state
    state = initial_state()
    for frame, record in zip(frames, reference[0]):
        for spec in (KV_INSERT, KV_EVICT):      # attach order
            verdict = bool(ORACLES[spec.name](state, frame)[0])
            assert record[spec.name] == verdict
    assert reference[3] == b"".join(word.to_bytes(8, "little")
                                    for word in state)


def test_shadow_canary_never_touches_live_state(kv_policy, kv_blobs):
    """A benign kv-evict upgrade shadowing next to kv-insert: the
    candidate runs on the state the live invocation started from, and
    none of its writes reach the live table.  Live accept counts and
    state bytes match a run without the upgrade, both while the canary
    is in flight and after it promotes."""
    import dataclasses

    from repro.runtime import CanaryConfig, VersionState

    source = KV_EVICT.source.rstrip()
    benign = dataclasses.replace(
        KV_EVICT, source=source[:-len("RET")] + "ADDQ r3, 0, r3\n RET\n")
    benign_blob = certify(benign.source, kv_policy,
                          invariants=benign.invariants()).binary.to_bytes()
    frames = _contract_frames(generate_kv_trace(
        KvTraceConfig(packets=200, hosts=24)))
    half = len(frames) // 2

    def live_view(runtime):
        return ([(ext.name, ext.packets_in, ext.accepted, ext.faults)
                 for ext in runtime.snapshot().extensions],
                bytes(runtime.shards[0].memory.region("state")))

    runtimes = []
    for upgrade in (False, True):
        runtime = _kv_runtime(kv_policy)
        for spec in (KV_INSERT, KV_EVICT):
            runtime.attach(spec.name, kv_blobs[spec.name])
        if upgrade:
            canary = runtime.upgrade(KV_EVICT.name, benign_blob,
                                     CanaryConfig(promote_after=half + 10))
        runtimes.append(runtime)
    plain, shadowed = runtimes

    for runtime in runtimes:
        runtime.dispatch(frames[:half])
    assert canary.state is VersionState.SHADOW
    assert live_view(shadowed) == live_view(plain)
    for runtime in runtimes:
        runtime.dispatch(frames[half:])
    assert canary.state is VersionState.PROMOTED, canary.reason
    assert live_view(shadowed) == live_view(plain)
