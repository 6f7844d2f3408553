"""Properties of the shared block graph (:mod:`repro.analysis.cfg`).

The engine, the batch driver and the WCET bound agree only if they
carve the same blocks and charge the same cycles.  These properties pin
that on random raw programs — out-of-range branches, fall-off past the
last instruction and irreducible flow included — and bound the graph's
cost on a long chain, since the analyzer also runs on untrusted bytes.
"""

import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.alpha.batch import FramePlan, compile_batch
from repro.alpha.engine import compile_program
from repro.alpha.isa import Branch, Lit, Operate, Reg, Ret
from repro.alpha.parser import parse_program
from repro.analysis import build_cfg, estimate_wcet
from repro.analysis.wcet import block_cycles
from repro.filters.kv import KV_STATE_BASE, STATE_SIZE
from repro.filters.policy import PACKET_BASE
from repro.perf.cost import ALPHA_175
from tests.generators import random_filter_source, random_machine_program

#: A two-entry cycle (pc 1 <-> pc 2, entered at both): irreducible.
_IRREDUCIBLE_PREFIX = (
    Branch("BEQ", Reg(2), 1),
    Operate("ADDQ", Reg(4), Lit(1), Reg(4)),
    Operate("ADDQ", Reg(5), Lit(1), Reg(5)),
    Branch("BNE", Reg(5), -3),
)

_PLAN = FramePlan(PACKET_BASE, KV_STATE_BASE, STATE_SIZE, kv=True)


@st.composite
def raw_programs(draw):
    """Random raw programs; some fall off their end, some open with an
    irreducible cycle."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    program = random_machine_program(random.Random(seed),
                                     draw(st.integers(1, 30)))
    if draw(st.booleans()):
        program = program[:-1]              # falls off unless it exits
    if draw(st.booleans()):
        program = _IRREDUCIBLE_PREFIX + program
    return program


def _reachable_without(cfg, removed: int) -> set[int]:
    if removed == 0:
        return set()
    seen, stack = {0}, [0]
    while stack:
        for succ in cfg.blocks[stack.pop()].successors:
            if succ != removed and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


@settings(max_examples=150, deadline=None)
@given(raw_programs())
def test_dominates_matches_the_definition(program):
    """``a`` dominates ``b`` iff ``b`` is unreachable from the entry
    once ``a`` is removed (every block dominates itself)."""
    cfg = build_cfg(program)
    for a in range(len(cfg.blocks)):
        cut = _reachable_without(cfg, a)
        for b in range(len(cfg.blocks)):
            want = (a in cfg.reachable and b in cfg.reachable
                    and (a == b or b not in cut))
            assert cfg.dominates(a, b) == want, (a, b)


@settings(max_examples=150, deadline=None)
@given(raw_programs())
def test_reachable_blocks_are_the_engine_blocks(program):
    """Every reachable block starts, ends and costs what the engine's
    block table charges at that pc."""
    cfg = build_cfg(program)
    table = compile_program(program, ALPHA_175).blocks
    cycles = block_cycles(cfg, ALPHA_175)
    for index in cfg.reachable:
        block = cfg.blocks[index]
        assert table.run[block.start] is not None
        assert (table.length[block.start], table.cost[block.start]) \
            == (block.end - block.start, cycles[index])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_loop_free_driver_bound_is_the_wcet_bound(seed, raw):
    """A loop-free program's batch budget threshold is its exact WCET."""
    rng = random.Random(seed)
    program = (random_machine_program(rng, rng.randrange(1, 30)) if raw
               else parse_program(random_filter_source(rng, 10)))
    cfg = build_cfg(program)
    if cfg.loops or cfg.irreducible_edges:
        return
    runner = compile_batch(program, ALPHA_175, _PLAN)
    report = estimate_wcet(program, cost_model=ALPHA_175)
    assert report.classification == "exact"
    if runner is not None:
        assert runner.max_path_cycles == report.bound


def test_long_chain_stays_small():
    """The 10,000-instruction chain (one block per ``ADDQ; BEQ`` pair)
    costs linear memory: no per-block dominator sets, no quadratic
    predecessor scan."""
    chain = (Operate("ADDQ", Reg(4), Lit(1), Reg(4)),
             Branch("BEQ", Reg(4), 0)) * 5000
    program = chain + (Ret(),)
    for analyze in (build_cfg, estimate_wcet):
        tracemalloc.start()
        try:
            analyze(program)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20, (analyze.__name__, peak)
