"""The write-capable extension family end to end: certification cost,
WCET-derived budgets, dispatch throughput, and the oracle differential.

The paper's Figure 8 measures read-only filters; this benchmark is the
same story for the store-bearing KV/NAT/LB family — certification is a
one-time cost (proof sizes and times per program), validation admits
each program onto the unbudgeted fast tier with an ``auto`` WCET
budget, and dispatch then runs on the compiled batch drivers
(:mod:`repro.alpha.batch`) with *zero* run-time safety checks despite
every program writing packet and persistent-state memory in its table
scans.

An in-process gate times each program's compiled driver against the
generic engine's ``run_batch`` on the same contract frames (best of
three, alternating, the extension's auto budget, each from a zeroed
state): the outcomes and final state bytes must be identical and the
driver at least 2x faster.

Two traces drive it: the Zipf key-popularity steady-state workload
(throughput rows) and the adversarial mix (a correctness gate — the
runtime's verdicts, rewrites, and final per-shard state must be
bit-identical to the pure-Python oracles; out-of-contract frames must
be shed at the boundary, never reach a certified program).

Scale comes from the shared ``--packets`` / ``PCC_BENCH_PACKETS``
quick mode.  Results land in ``results/kv_workload.txt`` and
``results/BENCH_kv.json``.
"""

import time

from repro.analysis import context_for_policy, estimate_wcet
from repro.filters.kv import (
    KV_PROGRAMS,
    STATE_SIZE,
    kv_registers,
    oracle_run,
    reusable_kv_memory,
)
from repro.pcc import certify
from repro.runtime import PacketRuntime, RuntimeConfig


def _kv_runtime(kv_policy):
    return PacketRuntime(kv_policy, RuntimeConfig(
        shards=1, cycle_budget="auto",
        memory_factory=reusable_kv_memory, registers_fn=kv_registers))


def _contract_frames(trace):
    config = RuntimeConfig()
    return [frame for frame in trace
            if config.min_frame_bytes <= len(frame)
            <= config.max_frame_bytes]


#: The compiled driver's minimum wall speedup over ``run_batch``.
DRIVER_SPEEDUP_BAR = 2.0


def _timed(run):
    """(wall seconds, result) of one call of ``run``."""
    started = time.perf_counter()
    result = run()
    return time.perf_counter() - started, result


def _driver_vs_engine(extension, frames):
    """Wall seconds of the compiled driver and of the generic engine
    over ``frames`` (alternating, best of three), after checking that
    both produce the same outcome and the same state bytes."""
    budget = extension.cycle_budget
    runner = extension.batch_runner
    state = bytearray(STATE_SIZE)
    memory, rebind = reusable_kv_memory()

    def driver():
        state[:] = bytes(STATE_SIZE)
        return runner.run(frames, 0, budget, state)

    def engine():
        memory.region("state")[:] = bytes(STATE_SIZE)
        return extension.engine.run_batch(memory, rebind, frames,
                                          kv_registers, 0, budget)

    driver_seconds = engine_seconds = float("inf")
    for __ in range(3):
        seconds, got = _timed(driver)
        driver_seconds = min(driver_seconds, seconds)
        seconds, want = _timed(engine)
        engine_seconds = min(engine_seconds, seconds)
    assert got[0] == want[0] == len(frames) and got[3] is None
    assert got[1] == want[1]
    assert dict(got[2]) == {c: n for c, n in want[2] if n}
    assert state == memory.region("state")
    return driver_seconds, engine_seconds


def test_kv_workload(benchmark, kv_policy, kv_trace, adversarial_trace,
                     record, record_json):
    rows = []
    context = context_for_policy(kv_policy)

    def workload():
        rows.clear()
        for spec in KV_PROGRAMS:
            started = time.perf_counter()
            certified = certify(spec.source, kv_policy,
                                invariants=spec.invariants())
            certify_seconds = time.perf_counter() - started
            blob = certified.binary.to_bytes()

            # Steady state: the Zipf trace through a one-shard runtime.
            runtime = _kv_runtime(kv_policy)
            extension = runtime.attach(spec.name, blob)
            assert extension.batch_runner is not None  # compiled path
            report = runtime.serve(kv_trace)
            driver_seconds, engine_seconds = _driver_vs_engine(
                extension, _contract_frames(kv_trace))
            snapshot = runtime.snapshot()
            ext = snapshot.extensions[0]

            # Correctness gate: the adversarial trace, against the
            # oracle, down to the final persistent-state bytes.
            hostile = _kv_runtime(kv_policy)
            hostile.attach(spec.name, blob)
            hostile_report = hostile.dispatch(adversarial_trace,
                                              collect=True)
            kept = _contract_frames(adversarial_trace)
            verdicts, __, state = oracle_run(spec.name, kept)
            got = [record_[spec.name] for record_ in
                   hostile_report.records]
            assert got == verdicts, spec.name
            want_state = b"".join(word.to_bytes(8, "little")
                                  for word in state)
            state_identical = bytes(
                hostile.shards[0].memory.region("state")) == want_state
            assert state_identical, spec.name
            assert hostile_report.contract_drops \
                == len(adversarial_trace) - len(kept)

            wcet = estimate_wcet(extension.program, context)
            rows.append({
                "name": spec.name,
                "description": spec.description,
                "instructions": len(extension.program),
                "invariants": len(spec.invariants()),
                "proof_bytes": len(certified.binary.proof),
                "certify_seconds": certify_seconds,
                "wcet_cycles": wcet.bound,
                "cycle_budget": extension.cycle_budget,
                "packets": report.packets,
                "accepted": ext.accepted,
                "accept_rate": ext.accepted / report.packets,
                "mean_cycles": ext.cycles / report.packets,
                "p99_cycles": ext.p99_cycles,
                "modeled_pps": report.modeled_packets_per_second,
                "wall_pps": report.wall_packets_per_second,
                "driver_pps": report.packets / driver_seconds,
                "engine_pps": report.packets / engine_seconds,
                "driver_speedup": engine_seconds / driver_seconds,
                "faults": snapshot.faults,
                "adversarial_packets": hostile_report.packets,
                "adversarial_drops": hostile_report.contract_drops,
                "state_identical": state_identical,
            })

    benchmark.pedantic(workload, rounds=1, iterations=1)

    assert len(rows) >= 4
    assert all(row["invariants"] >= 1 for row in rows)
    assert all(row["faults"] == 0 for row in rows)
    assert all(row["state_identical"] for row in rows)
    assert all(row["cycle_budget"] == row["wcet_cycles"] for row in rows)
    assert all(row["driver_speedup"] >= DRIVER_SPEEDUP_BAR
               for row in rows), [(row["name"], row["driver_speedup"])
                                  for row in rows]

    lines = [
        f"{len(rows)} store-bearing extensions, "
        f"{rows[0]['packets']} Zipf packets, "
        f"{rows[0]['adversarial_packets']} adversarial packets kept "
        f"({rows[0]['adversarial_drops']} shed by contract), "
        "1 shard, cycle budget auto (= WCET)",
        "",
        f"{'program':>12} {'insns':>5} {'proof B':>8} {'cert ms':>8} "
        f"{'WCET cyc':>8} {'mean cyc':>9} {'p99 cyc':>8} "
        f"{'accept':>7} {'modeled pkts/s':>15} {'wall pkts/s':>12} "
        f"{'driver/s':>10} {'engine/s':>10} {'speedup':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row['name']:>12} {row['instructions']:>5} "
            f"{row['proof_bytes']:>8,} "
            f"{row['certify_seconds'] * 1e3:>8.1f} "
            f"{row['wcet_cycles']:>8} {row['mean_cycles']:>9.1f} "
            f"{row['p99_cycles']:>8} {row['accept_rate']:>6.1%} "
            f"{row['modeled_pps']:>15,.0f} {row['wall_pps']:>12,.0f} "
            f"{row['driver_pps']:>10,.0f} {row['engine_pps']:>10,.0f} "
            f"{row['driver_speedup']:>6.2f}x")
    lines += [
        "",
        "all programs: >= 1 loop invariant, 0 faults, auto budget == "
        "WCET bound,",
        "adversarial post-state (packet rewrites + persistent table) "
        "bit-identical to the pure-Python oracle;",
        "wall pkts/s = runtime.serve() on the compiled drivers; driver/s "
        "and engine/s = the compiled driver and the generic engine's "
        "run_batch on the same contract frames (best of 3, identical "
        f"outcome and state), gate >= {DRIVER_SPEEDUP_BAR:.0f}x",
    ]
    record("kv_workload", lines)
    record_json("kv", {
        "programs": [row["name"] for row in rows],
        "zipf_packets": rows[0]["packets"],
        "adversarial_packets": rows[0]["adversarial_packets"],
        "adversarial_drops": rows[0]["adversarial_drops"],
        "rows": rows,
    })
