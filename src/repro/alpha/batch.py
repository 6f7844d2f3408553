"""Whole-trace batch compilation for the dispatch hot path.

:class:`~repro.alpha.engine.ExecutionEngine` already removes the
per-instruction interpretation cost (exec-compiled basic blocks), but
the dispatch runtime still pays a fixed per-*invocation* Python toll:
rebind the packet region, build the register dict, enter ``run()``,
thread every block transition through the run loop, allocate a
:class:`MachineResult`.  At ~6 µs per invocation that toll dwarfs the
filters themselves.

This module compiles an entire *program* — not just its blocks — into a
single exec-generated **batch driver**: one Python function that loops
over a list of frames and evaluates the whole program inline per frame.
It is a partial evaluator specialized to an invocation contract
(:class:`FramePlan`):

* the program's blocks are inlined into a decision *tree* (diamonds are
  duplicated), so each root-to-leaf path is straight-line code guarded
  by the original branch conditions;
* a reducible natural loop becomes a ``while True:`` at its header.
  The registers its body writes become loop-carried locals, with their
  range facts widened to the full word; a back edge assigns them and
  ``continue``\\ s; a loop exit inlines its successor subtree inside the
  loop, the way diamonds are duplicated; nested loops continue an outer
  loop through a flag;
* registers are evaluated symbolically: r1/r3 are the plan's constant
  bases, r2 is the frame length, everything else starts at 0, and all
  arithmetic over compile-time constants is folded using the *reference
  machine's own* operator semantics (the reference functions of
  :data:`repro.alpha.isa.OPERATES`), so constant addresses, shifts and
  comparisons disappear into literals;
* every symbolic value carries an interval ``[min, max]`` and a
  known-trailing-zero-bits count.  The ranges prove most ``& 2**64-1``
  wrap masks redundant (the operands cannot overflow), fold branches
  and compares whose outcome is range-determined, let comparisons emit
  native Python ``bool`` results (``bool`` is an ``int`` subclass with
  the exact 0/1 values the reference computes, so downstream arithmetic
  is unchanged), and elide load-guard terms (alignment, lower bound)
  that the address range already guarantees;
* materialized subexpressions are remembered per path, so a value the
  program recomputes (common after tree duplication) is evaluated once —
  loads included, until the next store; the memo restarts at every
  loop header;
* loads at constant in-packet offsets become ``unpack_from(frame, off)``
  guarded by one length compare; loads from the side region read its
  live bytes — or fold to 0 while a re-zeroed side region has not been
  stored to on the path; everything else — padded-tail words, unaligned
  or unmapped addresses — funnels through one out-of-line helper that
  raises the *exact* reference :class:`MachineError` messages;
* stores to the side region write its bytes at once, where the
  engine's store would land, so a fault or budget overrun mid-loop
  leaves the same partial state; packet stores write a per-frame copy
  that later loads read (the copy is made by the first one);
* outside loops a path's step and cycle counts are decode-time
  constants, so per-packet cycle telemetry is a per-leaf counter
  increment and the returned latency data is an exact histogram;
  inside and after loops they are per-frame accumulators;
* cycle-budget checks compare the clock at every block entry, with the
  engine's payloads — and are elided entirely when the budget is at
  least a loop-free program's maximum path cost, because then no check
  can ever fire (the caller picks the budgeted or plain driver per
  batch).  Each loop header checks the step clock against the longest
  run to the next header; a run that could reach the engine's step
  limit hands its frame to the engine at that header, which finishes
  it with the exact single-step semantics.

No block graph is built here.  :func:`repro.analysis.cfg.build_cfg`
carves the blocks at the engine's leaders, and this module reads block
lengths, natural-loop bodies, irreducible edges and longest paths from
it.  The WCET pass (:mod:`repro.analysis.wcet`) bounds the same graph,
so the engine, the driver and the cycle budget charge cycles at the same
block boundaries.  Only the header liveness that picks the loop-carried
registers lives here: it must be exact, where lint's is deliberately
conservative.

The compiled driver is **bit-identical** to running the engine frame by
frame over the contract's reusable memory: same verdicts, same cycle
counts, same side-region bytes, same error types, messages and fault
ordering.  ``tests/runtime/test_backend_differential.py`` asserts this
on random programs and random (including degenerate) frames.

Applicability: :func:`compile_batch` returns ``None`` — and callers fall
back to :meth:`ExecutionEngine.run_batch` — for irreducible control
flow (a back edge into a block that does not dominate it), loop-free
programs whose step counts could reach the engine's step limit, and
inlined trees past a size cap; :func:`batch_capability` names the
reason.  Two documented divergences remain, both outside the runtime's
frame contract (max 1518 bytes, far below the 64 KiB gaps): frames
longer than the packet-to-side gap would make ``rebind`` itself fault
on region overlap before the engine ever ran, which the driver (which
touches no :class:`Memory`) cannot reproduce; and the driver does not
write the shard memory's packet region — packet rewrites live in the
per-frame copy, which nothing reads after the invocation.
"""

from __future__ import annotations

import re
from struct import Struct
from typing import NamedTuple

from repro.alpha.isa import (
    BRANCHES,
    NUM_REGS,
    OPERATES,
    WORD_MASK,
    Br,
    Branch,
    Ldah,
    Ldq,
    Lit,
    Operate,
    Program,
    Ret,
    Stq,
    read_registers,
    written_register,
)
from repro.alpha.engine import ExecutionEngine, cached
from repro.alpha.machine import Memory, _sext16
from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.errors import BudgetExceeded, MachineError

__all__ = ["BatchRunner", "FramePlan", "batch_capability", "compile_batch"]

_M = str(WORD_MASK)
_S63 = 1 << 63

#: Tree-inlining caps: a diamond-heavy DAG duplicates blocks per path,
#: so bound both the emitted instruction count and the nesting depth
#: (Python's compiler limits indentation) before falling back.
_MAX_NODES = 3000
_MAX_DEPTH = 48
#: Emitted ``while`` loops nested in one another (Python allows 20
#: statically nested blocks; the driver's ``try`` and ``for`` take two).
_MAX_LOOPS = 12

#: Every operator result is assigned to a (memoized) temporary — the
#: maximal-sharing form — and a post-pass re-inlines the temporaries
#: with exactly one consumer, so values the program uses once cost no
#: store/load and values it reuses are computed once.

_ZERO = ("k", 0)

#: A top-level AND-with-literal, as this module's own emitters spell it.
#: Every operand is a bare name or fully parenthesized, so any *nested*
#: ``& literal`` is followed by its own ``)`` before the end — the
#: fullmatch can only succeed when the AND is the principal operator.
_AND_CONST = re.compile(r"\((.+) & (\d+|0x[0-9A-Fa-f]+)\)")

_EXT_MASKS = {"EXTBL": "0xFF", "EXTWL": "0xFFFF", "EXTLL": "0xFFFFFFFF"}

_QUAD = Struct("<Q")


class FramePlan(NamedTuple):
    """The invocation contract the driver is specialized against.

    Entry registers are r1 = ``packet_base``, r2 = frame length and
    r3 = ``side_base``; the packet region holds the frame zero-padded to
    8 bytes and a ``side_size``-byte side region sits at ``side_base``.
    By default this mirrors :func:`repro.filters.policy
    .reusable_packet_memory`: a read-only packet and a scratch side
    region re-zeroed per invocation.  ``kv`` mirrors
    :func:`repro.filters.kv.reusable_kv_memory` instead: a writable
    packet and a persistent side region, never re-zeroed, whose live
    bytes the caller passes to :meth:`BatchRunner.run`.
    """

    packet_base: int
    side_base: int
    side_size: int
    kv: bool = False


class _Fallback(Exception):
    """Internal: this program is not batch-compilable; use the engine."""


class BatchRunner:
    """A compiled batch driver plus its budget-elision threshold.

    ``run`` executes frames ``[start:]`` and returns ``(next_index,
    accepted, hist_pairs, error)``: the index one past the last frame
    executed (== ``len(frames)`` when no fault), how many completed
    frames returned a truthy verdict, ``(cycles, count)`` pairs for the
    completed frames (counts may be 0), and the :class:`MachineError`
    that stopped frame ``next_index`` (or ``None``).  ``state`` is the
    live side-region bytearray under a ``kv`` plan (ignored otherwise);
    the driver updates it in place.  Identical to
    :meth:`~repro.alpha.engine.ExecutionEngine.run_batch` over the
    plan's reusable memory, bit for bit.  ``max_path_cycles`` is None
    for programs with loops: no budget can be elided for them.
    """

    __slots__ = ("_plain", "_budgeted", "max_path_cycles")

    def __init__(self, plain, budgeted, max_path_cycles: int | None) -> None:
        self._plain = plain
        self._budgeted = budgeted
        self.max_path_cycles = max_path_cycles

    def run(self, frames: list, start: int = 0,
            cycle_budget: int | None = None, state: bytearray | None = None):
        bound = self.max_path_cycles
        if cycle_budget is None or (bound is not None
                                    and cycle_budget >= bound):
            # No prefix of any path can exceed the budget: the budgeted
            # driver could never raise, so run without the compares.
            return self._plain(frames, start, state)
        return self._budgeted(frames, start, state, cycle_budget)


def batch_capability(program: Program,
                     max_steps: int = 1_000_000) -> str | None:
    """Why ``program`` cannot take the compiled batch path, or ``None``.

    The explicit admission-time capability probe: irreducible control
    flow and step-limit-reachable loop-free programs are refused with a
    reason and must route to the generic engine cleanly — this function
    never raises, and :func:`compile_batch` reads the same block graph,
    so a non-batchable program can never blow up mid-admission.
    """
    return _refusal(build_cfg(program), max_steps)


def _refusal(cfg: ControlFlowGraph, max_steps: int) -> str | None:
    if cfg.irreducible_edges:
        source, header = cfg.irreducible_edges[0]
        return (f"irreducible loop: the edge from pc="
                f"{cfg.blocks[source].terminator_pc} re-enters "
                f"pc={cfg.blocks[header].start}, which does not dominate it")
    steps = _steps_ahead(cfg).get(0, 0)
    if steps >= max_steps:
        return (f"worst-case path of {steps} steps reaches the "
                f"{max_steps}-step limit")
    return None


def _steps_ahead(cfg: ControlFlowGraph) -> dict[int, int]:
    """Per block: the most steps from its entry to a RET, a trap or the
    next loop header (the header itself not counted).  The driver hands
    a frame to the engine only at a loop header, so this is how far a
    run can go unchecked."""
    return cfg.longest_paths([block.end - block.start
                              for block in cfg.blocks],
                             {loop.header for loop in cfg.loops})


def _loops(program: Program, cfg: ControlFlowGraph) -> dict[int, tuple]:
    """Per natural loop, keyed by its header's pc: the registers live at
    the header (the rest hold nothing any path reads), the registers the
    body writes that are live there (the loop-carried set), whether the
    body stores, and the steps ahead of the header."""
    if not cfg.loops:
        return {}
    live = _live_in(program, cfg)
    ahead = _steps_ahead(cfg)
    loops = {}
    for loop in cfg.loops:
        body = [program[pc] for index in loop.blocks
                for pc in range(cfg.blocks[index].start,
                                cfg.blocks[index].end)]
        writes = {written_register(ins) for ins in body}
        loops[cfg.blocks[loop.header].start] = (
            frozenset(live[loop.header]),
            tuple(sorted(writes & live[loop.header])),
            any(isinstance(ins, Stq) for ins in body),
            ahead[loop.header])
    return loops


def _live_in(program: Program, cfg: ControlFlowGraph) -> dict[int, set]:
    """The registers live at each reachable block's entry (read on some
    path before being written; RET reads r0), to a fixpoint.  Exact, as
    the carried set must be: unlike lint's liveness, a trap reads no
    register here, because the driver's trap only raises."""
    live: dict[int, set[int]] = {index: set() for index in cfg.post_order}
    changed = True
    while changed:
        changed = False
        for index in cfg.post_order:
            block = cfg.blocks[index]
            regs: set[int] = set()
            for succ in block.successors:
                regs |= live[succ]
            for ins in reversed(program[block.start:block.end]):
                regs.discard(written_register(ins))
                regs |= read_registers(ins)
                if isinstance(ins, Ret):
                    regs.add(0)
            if regs != live[index]:
                live[index] = regs
                changed = True
    return live


def compile_batch(program: Program, cost_model, plan: FramePlan,
                  max_steps: int = 1_000_000) -> BatchRunner | None:
    """Compile ``program`` into a :class:`BatchRunner`, or ``None`` when
    the program falls outside the fast path's preconditions (see the
    module docstring) and the caller should use the generic engine.

    Drivers live in the engine's bounded code cache, keyed by
    ``(program, cost_model, plan, max_steps)``: a re-admitted program
    reuses its driver the way it reuses its block table."""
    return cached((program, cost_model, plan, max_steps),
                  lambda: _compile(program, cost_model, plan, max_steps))


def _compile(program: Program, cost_model, plan: FramePlan,
             max_steps: int) -> BatchRunner | None:
    cfg = build_cfg(program)
    if _refusal(cfg, max_steps) is not None:
        return None
    costs = [cost_model.cycles(ins) if cost_model else 1 for ins in program]
    block_cost = [sum(costs[block.start:block.end]) for block in cfg.blocks]
    # A loop-free program's costliest path bounds every run, which is
    # what lets BatchRunner.run drop the budget compares.
    max_path_cycles = (None if cfg.loops
                       else cfg.longest_paths(block_cost).get(0, 0))
    loops = _loops(program, cfg)
    slow = _make_slow(program, cost_model, plan, max_steps)
    try:
        plain = _emit_driver(program, plan, cfg, loops, block_cost,
                             max_steps, slow, budgeted=False)
        budgeted = _emit_driver(program, plan, cfg, loops, block_cost,
                                max_steps, slow, budgeted=True)
    except _Fallback:
        return None
    return BatchRunner(plain, budgeted, max_path_cycles)


# ---------------------------------------------------------------------------
# The partial evaluator.
#
# Register state during emission is a dict index -> value, where a value
# is ("k", int) for a compile-time constant or ("e", text, min, max, kz)
# for a Python expression over frame-dependent data annotated with an
# interval bound and a known-trailing-zero-bit count.  Expression texts
# are either bare names (flen, t<N>) or fully parenthesized, and
# reference only single-assignment temporaries — so inlining one into
# several consumers or into both arms of a branch can never change its
# meaning, and equal texts denote equal values (which is what makes the
# per-path materialization memo a sound CSE).

def _info(val) -> tuple[int, int, int]:
    """``(min, max, trailing-zero bits)`` for a symbolic value."""
    if val[0] == "k":
        v = val[1]
        return v, v, ((v & -v).bit_length() - 1 if v else 64)
    return val[2], val[3], val[4]


def _tz(value: int) -> int:
    return (value & -value).bit_length() - 1 if value else 64


def _add_const(val, c: int):
    """``(val + c) & 2**64-1`` as a symbolic value (``val`` is an "e")."""
    if c == 0:
        return val
    mn, mx, kz = _info(val)
    kz = min(kz, _tz(abs(c)))
    x = val[1]
    if c > 0 and mx + c <= WORD_MASK:
        return ("e", f"({x} + {c})", mn + c, mx + c, kz)
    if c < 0 and mn >= -c:
        return ("e", f"({x} - {-c})", mn + c, mx + c, kz)
    return ("e", f"(({x} + {c}) & {_M})", 0, WORD_MASK, kz)


def _identity(name: str, a, b):
    """Algebraic folds over symbolic operands, or None for the generic
    expression.  Sound because expression texts are pure and reference
    only single-assignment temporaries (equal text => equal value), and
    every register image is invariantly a canonical word (< 2**64), so
    e.g. ``ADDQ x, 0`` needs no re-masking.  Compiler idioms lean on
    these: assemblers spell "load 0" as ``SUBQ r, r, r`` and materialize
    constants into registers cleared that way.
    """
    if a[1] == b[1] and a[0] == b[0]:
        if name in ("SUBQ", "XOR"):
            return ("k", 0)
        if name in ("CMPEQ", "CMPULE"):
            return ("k", 1)
        if name == "CMPULT":
            return ("k", 0)
        if name in ("AND", "BIS"):
            return a
    if b[0] == "k" and b[1] == 0:
        if name in ("ADDQ", "SUBQ", "BIS", "XOR", "SLL", "SRL"):
            return a
        if name in ("AND", "MULQ"):
            return ("k", 0)
    if a[0] == "k" and a[1] == 0:
        if name in ("ADDQ", "BIS", "XOR"):
            return b
        if name in ("AND", "MULQ", "SLL", "SRL"):
            return ("k", 0)
    return None


def _symbolic(name: str, a, b):
    """One operate instruction as a symbolic value: a parenthesized
    expression over the operand texts plus the interval/alignment facts
    the operator semantics guarantee.  Wrap masks are emitted only when
    the operand ranges admit overflow; compares emit Python ``bool``
    (an ``int`` subclass with the reference's exact 0/1 values)."""
    amn, amx, akz = _info(a)
    bmn, bmx, bkz = _info(b)
    x, y = str(a[1]), str(b[1])
    if name == "ADDQ":
        if amx + bmx <= WORD_MASK:
            return ("e", f"({x} + {y})", amn + bmn, amx + bmx,
                    min(akz, bkz))
        return ("e", f"(({x} + {y}) & {_M})", 0, WORD_MASK, min(akz, bkz))
    if name == "SUBQ":
        if amn >= bmx:
            return ("e", f"({x} - {y})", amn - bmx, amx - bmn,
                    min(akz, bkz))
        return ("e", f"(({x} - {y}) & {_M})", 0, WORD_MASK, min(akz, bkz))
    if name == "MULQ":
        if amx * bmx <= WORD_MASK:
            return ("e", f"({x} * {y})", amn * bmn, amx * bmx,
                    min(akz + bkz, 64))
        return ("e", f"(({x} * {y}) & {_M})", 0, WORD_MASK,
                min(akz + bkz, 64))
    if name == "AND":
        if b[0] == "k":
            return _and_const(a, b[1])
        if a[0] == "k":
            return _and_const(b, a[1])
        return ("e", f"({x} & {y})", 0, min(amx, bmx), max(akz, bkz))
    if name == "BIS":
        mx = (1 << max(amx.bit_length(), bmx.bit_length())) - 1
        return ("e", f"({x} | {y})", max(amn, bmn), mx, min(akz, bkz))
    if name == "XOR":
        mx = (1 << max(amx.bit_length(), bmx.bit_length())) - 1
        return ("e", f"({x} ^ {y})", 0, mx, min(akz, bkz))
    if name == "SLL":
        if b[0] == "k":
            k = b[1] & 63
            if k == 0:
                return a
            # Tag the result with its provenance: a later SRL by the
            # same k cancels the shift pair even if this value has been
            # materialized into a bare temporary by then.
            if amx << k <= WORD_MASK:
                return ("e", f"({x} << {k})", amn << k, amx << k,
                        min(akz + k, 64), ("sll", a, k, False))
            return ("e", f"(({x} << {k}) & {_M})", 0, WORD_MASK,
                    min(akz + k, 64), ("sll", a, k, True))
        return ("e", f"(({x} << ({y} & 63)) & {_M})", 0, WORD_MASK, akz)
    if name == "SRL":
        if b[0] == "k":
            k = b[1] & 63
            if k == 0:
                return a
            lo, hi, kz = amn >> k, amx >> k, max(akz - k, 0)
            # The truncate idiom SLL k; SRL k:
            # ``((v << k) & M) >> k  ->  v & (M >> k)`` and — when the
            # SLL was proven overflow-free — ``(v << k) >> k  ->  v``.
            # ``v``'s text stays valid here: it names only
            # single-assignment temporaries from dominating points.
            meta = a[5] if len(a) > 5 else None
            if meta is not None and meta[0] == "sll" and meta[2] == k:
                inner, was_masked = meta[1], meta[3]
                if not was_masked:
                    return inner   # (v << k) >> k with no overflow: v
                return _and_const(inner, WORD_MASK >> k)
            return ("e", f"({x} >> {k})", lo, hi, kz)
        return ("e", f"({x} >> ({y} & 63))", 0, amx, 0)
    if name == "CMPEQ":
        if amx < bmn or bmx < amn:
            return ("k", 0)
        if amx <= 1 and b[0] == "k":
            # A boolean compared to a literal: the compare is a no-op
            # (== 1) or a negation (== 0).
            if b[1] == 1:
                return a
            return ("e", f"(not {x})", 0, 1, 0)
        return ("e", f"({x} == {y})", 0, 1, 0)
    if name == "CMPULT":
        if amx < bmn:
            return ("k", 1)
        if amn >= bmx:
            return ("k", 0)
        return ("e", f"({x} < {y})", 0, 1, 0)
    if name == "CMPULE":
        if amx <= bmn:
            return ("k", 1)
        if amn > bmx:
            return ("k", 0)
        return ("e", f"({x} <= {y})", 0, 1, 0)
    mask = _EXT_MASKS.get(name)
    if mask is not None:
        maskv = int(mask, 16)
        if b[0] == "k":
            shift = 8 * (b[1] & 7)
            if shift == 0:
                return _and_const(a, maskv, mask)
            return ("e", f"(({x} >> {shift}) & {mask})", 0,
                    min(amx >> shift, maskv), 0,
                    ("and", f"({x} >> {shift})", maskv))
        return ("e", f"(({x} >> (8 * ({y} & 7))) & {mask})", 0, maskv, 0)
    raise _Fallback(f"unknown operate {name!r}")  # pragma: no cover


def _and_const(a, c: int, text: str | None = None):
    """``a & c`` for a symbolic ``a`` and literal ``c``: drop the AND
    when the range proves it a no-op, merge it into an AND the operand
    is known (by provenance tag or by its own text) to already be, else
    emit it."""
    amn, amx, akz = _info(a)
    cover = (1 << amx.bit_length()) - 1
    if c & cover == cover:
        return a  # the mask keeps every bit the value can have set
    x = str(a[1])
    meta = a[5] if len(a) > 5 else None
    if meta is not None and meta[0] == "and":
        x = meta[1]
        c &= meta[2]
        text = None
    else:
        merged = _AND_CONST.fullmatch(x)
        if merged is not None:
            c &= int(merged.group(2), 0)
            x = merged.group(1)
            text = None
    if c == 0:
        return ("k", 0)
    return ("e", f"({x} & {text if text is not None else c})",
            0, min(amx, c), max(akz, _tz(c)), ("and", x, c))


def _branch_decide(name: str, mn: int, mx: int):
    """Fold a branch whose outcome the operand range determines:
    True = taken, False = fallthrough, None = genuinely dynamic."""
    if name == "BEQ":
        return True if mx == 0 else (False if mn >= 1 else None)
    if name == "BNE":
        return False if mx == 0 else (True if mn >= 1 else None)
    if name == "BGE":
        return True if mx < _S63 else (False if mn >= _S63 else None)
    if name == "BLT":
        return False if mx < _S63 else (True if mn >= _S63 else None)
    if name == "BGT":
        if mx == 0 or mn >= _S63:
            return False
        return True if 1 <= mn and mx < _S63 else None
    if name == "BLE":
        if mx == 0 or mn >= _S63:
            return True
        return False if 1 <= mn and mx < _S63 else None
    raise _Fallback(f"unknown branch {name!r}")  # pragma: no cover


def _branch_cond(name: str, s: str, mx: int) -> str:
    """The Python test for "branch taken".  Registers are ints, so
    truthiness is exactly ``!= 0``; below 2^63 BGT/BLE reduce to it."""
    if name == "BNE" or (name == "BGT" and mx < _S63):
        return s
    if name == "BEQ" or (name == "BLE" and mx < _S63):
        return f"not {s}"
    return BRANCHES[name].template.format(s=s)


_ASSIGN = re.compile(r"(t\d+) = (.*)$")
_NAME = re.compile(r"\bt\d+\b")


def _tidy(lines: list[str]) -> list[str]:
    """Two cleanup passes over the emitted body.

    1. Dead-code sweep (reverse): the shift-pair and mask-merge rewrites
       can orphan a materialized temporary; dropping a *pure* assignment
       (no load — loads can fault and must keep their program point)
       whose name is never read is invisible, and the reverse scan
       cascades.
    2. Single-use inlining (forward): a pure temporary consumed exactly
       once is substituted into its consumer.  Sound because the texts
       are pure single-assignment expressions over dominating names, so
       evaluation can sink from definition to sole use without changing
       any observable — faults included: skipping a pure computation
       when an intervening load raises is invisible.  A temporary is
       not sunk into a deeper ``while`` loop, where it would be
       recomputed on every iteration.
    """
    kept: list[str] = []
    used: set[str] = set()
    for line in reversed(lines):
        body = line.lstrip()
        match = _ASSIGN.match(body)
        if match is not None and match.group(1) not in used \
                and "q(" not in match.group(2) \
                and "edge(" not in match.group(2):
            continue
        kept.append(line)
        used.update(_NAME.findall(match.group(2) if match else body))
    kept.reverse()

    depths: list[int] = []          # enclosing ``while`` loops per line
    whiles: list[int] = []
    for line in kept:
        body = line.lstrip()
        indent = len(line) - len(body)
        while whiles and whiles[-1] >= indent:
            whiles.pop()
        depths.append(len(whiles))
        if body == "while True:":
            whiles.append(indent)

    counts: dict[str, int] = {}
    use_depth: dict[str, int] = {}
    for line, depth in zip(kept, depths):
        body = line.lstrip()
        match = _ASSIGN.match(body)
        for name in _NAME.findall(match.group(2) if match else body):
            counts[name] = counts.get(name, 0) + 1
            use_depth[name] = depth
    inlined: dict[str, str] = {}

    def subst(text: str) -> str:
        return _NAME.sub(lambda m: inlined.get(m.group(0), m.group(0)),
                         text)

    out: list[str] = []
    for line, depth in zip(kept, depths):
        body = line.lstrip()
        indent = line[:len(line) - len(body)]
        match = _ASSIGN.match(body)
        if match is None:
            out.append(indent + subst(body))
            continue
        name, rhs = match.group(1), subst(match.group(2))
        if counts.get(name, 0) == 1 and use_depth[name] == depth \
                and "q(" not in rhs and "edge(" not in rhs:
            inlined[name] = rhs
            continue
        out.append(f"{indent}{name} = {rhs}")
    return out


class _Path:
    """One root-to-leaf path's emission state, copied at every fork.

    ``regs`` maps register index to symbolic value; ``memo`` maps a
    materialized expression text to its temporary.  ``cycles`` and
    ``steps`` are the path's clock — absolute constants until the path
    enters a loop (``dynamic`` false), then offsets from the per-frame
    accumulators ``cy``/``sp``.  ``side`` says whether the local ``st``
    holds the side region's bytes (always, under a ``kv`` plan; from
    the path's first side store on, under a re-zeroed one).
    ``loops`` lists the ``(header, carried locals)`` of the emitted
    ``while`` loops around this point, outermost first.
    """

    __slots__ = ("regs", "memo", "cycles", "steps", "dynamic", "side",
                 "loops")

    def __init__(self, regs: dict, side: bool) -> None:
        self.regs = regs
        self.memo: dict[str, str] = {}
        self.cycles = self.steps = 0
        self.dynamic = False
        self.side = side
        self.loops: tuple = ()

    def fork(self) -> "_Path":
        twin = _Path(dict(self.regs), self.side)
        twin.memo = dict(self.memo)
        twin.cycles, twin.steps = self.cycles, self.steps
        twin.dynamic, twin.loops = self.dynamic, self.loops
        return twin

    def clock(self) -> tuple[str, str]:
        """The cycle and step counts as expression texts."""
        if not self.dynamic:
            return str(self.cycles), str(self.steps)
        return (f"cy + {self.cycles}" if self.cycles else "cy",
                f"sp + {self.steps}" if self.steps else "sp")


def _guards(addr: str, mn: int, mx: int, kz: int, low: int,
            high: int) -> list[str]:
    """The tests that ``addr`` is an aligned word address in
    ``[low, high]``, minus those the range facts already prove."""
    checks = []
    if mn < low:
        checks.append(f"{low} <= {addr}")
    if mx > high:
        checks.append(f"{addr} <= {high}")
    if kz < 3:
        checks.append(f"not {addr} & 7")
    return checks


def _emit_driver(program: Program, plan: FramePlan, cfg: ControlFlowGraph,
                 loops: dict[int, tuple], block_cost: list[int],
                 max_steps: int, slow, budgeted: bool):
    size = len(program)
    stores = any(isinstance(ins, Stq) for ins in program)
    nested = any(loop.header in other.blocks for loop in cfg.loops
                 for other in cfg.loops if other is not loop)
    pb, sb, ss = plan.packet_base, plan.side_base, plan.side_size
    side_top = sb + ss - 8
    lines: list[str] = []
    counters: dict[int, str] = {}   # leaf cycles -> counter variable
    state = {"nodes": 0, "temps": 0, "carried": 0, "hist": False}

    def emit(indent: int, text: str) -> None:
        lines.append("    " * indent + text)

    def temp() -> str:
        state["temps"] += 1
        return f"t{state['temps']}"

    def assign(rhs: str, indent: int, memo: dict) -> str:
        """Bind ``rhs`` to a (memoized) temporary on this path."""
        name = memo.get(rhs)
        if name is None:
            name = temp()
            memo[rhs] = name
            emit(indent, f"{name} = {rhs}")
        return name

    def fresh(val, indent: int, memo: dict):
        """Materialize an expression into a temporary (keeping the
        range facts and any provenance tag); the single-use post-pass
        undoes this wherever sharing does not pay."""
        if val[0] == "e" and not val[1].isidentifier():
            return ("e", assign(val[1], indent, memo)) + tuple(val[2:])
        return val

    def address_of(base, disp: int, path: _Path, indent: int):
        """A symbolic address as ``(name, min, max, trailing zeros)``."""
        aval = _add_const(base, disp) if disp else base
        mn, mx, kz = _info(aval)
        name = aval[1]
        if not name.isidentifier():
            name = assign(name, indent, path.memo)
        return name, mn, mx, kz

    def use_side(path: _Path, indent: int) -> None:
        """Give a re-zeroed side region its bytes on this path, at the
        first store that may reach it (until then, it reads as 0)."""
        if not path.side:
            emit(indent, f"st = bytearray({ss})")
            path.side = True

    def emit_ldq(instruction: Ldq, path: _Path, indent: int) -> bool:
        """Emit one load; True when the path terminates here (a raise
        that does not depend on the frame)."""
        regs, memo = path.regs, path.memo
        base = regs.get(instruction.rs.index, _ZERO)
        disp = _sext16(instruction.disp)
        tail = ", st" if path.side else ""
        if base[0] == "k":
            address = (base[1] + disp) & WORD_MASK
            if address & 7:
                emit(indent, f'raise MachineError('
                             f'"unaligned LDQ address {address:#x}")')
                return True
            if sb <= address <= side_top:
                if not path.side:
                    # Re-zeroed per invocation and not yet stored to.
                    regs[instruction.rd.index] = _ZERO
                    return False
                name = assign(f"q(st, {address - sb})[0]", indent, memo)
                regs[instruction.rd.index] = ("e", name, 0, WORD_MASK, 0)
                return False
            offset = address - pb
            if offset < 0:
                # Below the packet region and not the side region:
                # unmapped for every frame, as Memory._find would report.
                emit(indent, f'raise MachineError('
                             f'"unmapped address {address:#x} (size 8)")')
                return True
            name = assign(f"q(frame, {offset})[0] "
                          f"if flen >= {offset + 8} "
                          f"else edge({address}, frame, flen{tail})",
                          indent, memo)
            regs[instruction.rd.index] = ("e", name, 0, WORD_MASK, 0)
            return False
        addr, mn, mx, kz = address_of(base, disp, path, indent)
        if path.side and mn <= side_top and mx >= sb:
            checks = _guards(addr, mn, mx, kz, sb, side_top)
            rhs = f"q(st, {addr} - {sb})[0]"
            if checks:
                rhs += (f" if {' and '.join(checks)} "
                        f"else edge({addr}, frame, flen, st)")
        else:
            # In-packet fast path; the range facts discharge guard terms
            # (mn >= base proves the lower bound, kz >= 3 the alignment).
            checks = []
            if mn < pb:
                checks.append(f"{pb} <= {addr}")
            checks.append(f"{addr} <= flen + {pb - 8}")
            if kz < 3:
                checks.append(f"not {addr} & 7")
            rhs = (f"q(frame, {addr} - {pb})[0] "
                   f"if {' and '.join(checks)} "
                   f"else edge({addr}, frame, flen{tail})")
        name = assign(rhs, indent, memo)
        regs[instruction.rd.index] = ("e", name, 0, WORD_MASK, 0)
        return False

    def emit_stq(instruction: Stq, path: _Path, indent: int) -> bool:
        """Emit one store; True when the path terminates here."""
        regs, memo = path.regs, path.memo
        base = regs.get(instruction.rd.index, _ZERO)
        value = str(regs.get(instruction.rs.index, _ZERO)[1])
        disp = _sext16(instruction.disp)
        # Loads are pure only between stores.
        for key in [key for key in memo if "q(" in key or "edge(" in key]:
            del memo[key]
        if base[0] == "k":
            address = (base[1] + disp) & WORD_MASK
            if address & 7:
                emit(indent, f'raise MachineError('
                             f'"unaligned STQ address {address:#x}")')
                return True
            if sb <= address <= side_top:
                use_side(path, indent)
                emit(indent, f"pack(st, {address - sb}, {value})")
                return False
            if address < pb:
                emit(indent, f'raise MachineError('
                             f'"unmapped address {address:#x} (size 8)")')
                return True
            addr = str(address)
        else:
            addr, mn, mx, kz = address_of(base, disp, path, indent)
            if mn <= side_top and mx >= sb:
                use_side(path, indent)
                checks = _guards(addr, mn, mx, kz, sb, side_top)
                fast = f"pack(st, {addr} - {sb}, {value})"
                if not checks:
                    emit(indent, fast)
                    return False
                emit(indent, f"if {' and '.join(checks)}:")
                emit(indent + 1, fast)
                emit(indent, "else:")
                indent += 1
        side = "st" if path.side else "None"
        emit(indent, f"frame = sedge({addr}, {value}, frame, flen, "
                     f"{side}, orig)")
        return False

    def emit_straightline(instruction, path: _Path, indent: int) -> bool:
        state["nodes"] += 1
        if state["nodes"] > _MAX_NODES:
            raise _Fallback("tree too large")
        regs, memo = path.regs, path.memo
        if isinstance(instruction, Operate):
            a = regs.get(instruction.ra.index, _ZERO)
            if isinstance(instruction.rb, Lit):
                b = ("k", instruction.rb.value)
            else:
                b = regs.get(instruction.rb.index, _ZERO)
            if a[0] == "k" and b[0] == "k":
                apply = OPERATES[instruction.name].apply
                value = ("k", apply(a[1], b[1]))
            else:
                value = _identity(instruction.name, a, b)
                if value is None:
                    value = fresh(_symbolic(instruction.name, a, b),
                                  indent, memo)
            regs[instruction.rc.index] = value
            return False
        if isinstance(instruction, Ldq):
            return emit_ldq(instruction, path, indent)
        if isinstance(instruction, Stq):
            return emit_stq(instruction, path, indent)
        # Lda / Ldah
        disp = _sext16(instruction.disp)
        if isinstance(instruction, Ldah):
            disp <<= 16
        base = regs.get(instruction.rs.index, _ZERO)
        if base[0] == "k":
            regs[instruction.rd.index] = ("k", (base[1] + disp) & WORD_MASK)
        else:
            regs[instruction.rd.index] = fresh(_add_const(base, disp),
                                               indent, memo)
        return False

    def emit_leaf(path: _Path, indent: int) -> None:
        verdict = path.regs.get(0, _ZERO)
        if verdict[0] == "k":
            if verdict[1]:
                emit(indent, "accepted += 1")
        else:
            mn, mx, _ = _info(verdict)
            if mn >= 1:
                emit(indent, "accepted += 1")
            elif mx <= 1:
                emit(indent, f"accepted += {verdict[1]}")
            else:
                emit(indent, f"accepted += 1 if {verdict[1]} else 0")
        if path.dynamic:
            cycles = path.clock()[0]
            emit(indent, f"hd[{cycles}] = hd.get({cycles}, 0) + 1")
            state["hist"] = True
        else:
            counter = counters.setdefault(path.cycles,
                                          f"h{len(counters)}")
            emit(indent, f"{counter} += 1")
        if path.loops:
            emit(indent, "break")   # the frame is done: leave its loops

    def sync(path: _Path, indent: int) -> None:
        """Fold the path's clock into the per-frame accumulators."""
        if path.dynamic:
            if path.cycles:
                emit(indent, f"cy += {path.cycles}")
            if path.steps:
                emit(indent, f"sp += {path.steps}")
        else:
            emit(indent, f"cy = {path.cycles}")
            emit(indent, f"sp = {path.steps}")
        path.cycles = path.steps = 0
        path.dynamic = True

    def carry(path: _Path, carried: dict[int, str], indent: int) -> None:
        """Assign the loop-carried locals at once (a tuple assignment
        reads every old value before writing any)."""
        pairs = [(name, str(path.regs.get(reg, _ZERO)[1]))
                 for reg, name in carried.items()]
        pairs = [(name, text) for name, text in pairs if name != text]
        if pairs:
            emit(indent, ", ".join(name for name, _ in pairs) + " = "
                 + ", ".join(text for _, text in pairs))

    def loop_edge(pc: int, path: _Path, indent: int) -> None:
        """Control reaches loop header ``pc``: continue an emitted loop
        (a back edge) or open a new one."""
        for depth, (header, carried) in enumerate(path.loops, 1):
            if header == pc:
                sync(path, indent)
                carry(path, carried, indent)
                if depth == len(path.loops):
                    emit(indent, "continue")
                else:
                    # An outer loop's back edge from inside an inner
                    # loop: break out, and continue at ``depth``.
                    emit(indent, f"g = {depth}")
                    emit(indent, "break")
                return
        if len(path.loops) >= _MAX_LOOPS:
            raise _Fallback("loops nested too deep")
        live, carried_regs, loop_stores, ahead = loops[pc]
        sync(path, indent)
        if loop_stores:
            use_side(path, indent)
        carried = {}
        for reg in carried_regs:
            state["carried"] += 1
            carried[reg] = f"v{state['carried']}"
        carry(path, carried, indent)
        body = path.fork()
        body.memo = {}
        for reg, name in carried.items():
            body.regs[reg] = ("e", name, 0, WORD_MASK, 0)
        body.loops = path.loops + ((pc, carried),)
        emit(indent, "while True:")
        # Within reach of the step limit: the engine finishes the frame
        # from this block entry, with its single-step semantics.  One
        # compare per iteration keeps the limit exact, against the
        # longest run to the next header or leaf.
        regs = ", ".join(str(body.regs.get(index, _ZERO)[1])
                         if index in live else "0"
                         for index in range(NUM_REGS))
        side = "st" if body.side else "None"
        emit(indent + 1, f"if sp > {max_steps - ahead - 1}:")
        emit(indent + 2, f"sv, sc = slow({pc}, [{regs}], sp, cy, frame, "
                         f"{side}{', b' if budgeted else ''})")
        emit(indent + 2, "accepted += 1 if sv else 0")
        emit(indent + 2, "hd[sc] = hd.get(sc, 0) + 1")
        emit(indent + 2, "break")
        state["hist"] = True
        walk(pc, body, indent + 1, at_header=True)
        if path.loops:
            # The loop ended its frame (or continues an outer loop).
            if nested:
                depth = len(path.loops)
                emit(indent, f"if g == {depth}:")
                emit(indent + 1, "g = 0")
                emit(indent + 1, "continue")
            emit(indent, "break")

    def walk(pc: int, path: _Path, indent: int,
             at_header: bool = False) -> None:
        if indent > _MAX_DEPTH:
            raise _Fallback("tree too deep")
        while True:
            if not 0 <= pc < size:
                # The engine's trap slot: a zero-length block that
                # raises after the (elided-as-unreachable) step check.
                emit(indent,
                     f'raise MachineError("pc {pc} outside program")')
                return
            if pc in loops and not at_header:
                loop_edge(pc, path, indent)
                return
            at_header = False
            # Block entry: charge the block, then (budgeted) compare the
            # clock, reproducing the budgeted run's payloads.
            block = cfg.blocks[cfg.block_of[pc]]
            path.cycles += block_cost[block.index]
            if budgeted:
                cycles, steps = path.clock()
                shown = (f"{{{cycles}}} cycles after {{{steps}}}"
                         if path.dynamic else
                         f"{cycles} cycles after {steps}")
                emit(indent, f"if {cycles} > b:")
                emit(indent + 1,
                     f'raise BudgetExceeded(f"exceeded cycle budget '
                     f'{{b}} ({shown} steps)", budget=b, '
                     f'cycles={cycles}, steps={steps})')
            end = block.end
            path.steps += end - pc
            transferred = False
            for p in range(pc, end):
                instruction = program[p]
                if isinstance(instruction, Ret):
                    emit_leaf(path, indent)
                    return
                if isinstance(instruction, Br):
                    pc = p + 1 + instruction.offset
                    transferred = True
                    break
                if isinstance(instruction, Branch):
                    value = path.regs.get(instruction.rs.index, _ZERO)
                    taken = p + 1 + instruction.offset
                    if value[0] == "k":
                        pc = (taken
                              if BRANCHES[instruction.name].taken(value[1])
                              else p + 1)
                        transferred = True
                        break
                    mn, mx, _ = _info(value)
                    decided = _branch_decide(instruction.name, mn, mx)
                    if decided is not None:
                        pc = taken if decided else p + 1
                        transferred = True
                        break
                    condition = _branch_cond(instruction.name, value[1],
                                             mx)
                    taken_path = path.fork()
                    fall_path = path.fork()
                    # BEQ-taken / BNE-fallthrough pin the register to an
                    # exact value; downstream reads of it const-fold.
                    if instruction.name == "BEQ":
                        taken_path.regs[instruction.rs.index] = _ZERO
                    elif instruction.name == "BNE":
                        fall_path.regs[instruction.rs.index] = _ZERO
                    emit(indent, f"if {condition}:")
                    walk(taken, taken_path, indent + 1)
                    emit(indent, "else:")
                    walk(p + 1, fall_path, indent + 1)
                    return
                if emit_straightline(instruction, path, indent):
                    return
            if not transferred:
                pc = end    # fell through into the next leader (or off
                            # the end, caught by the range check above)

    entry = {1: ("k", pb), 2: ("e", "flen", 0, WORD_MASK, 0),
             3: ("k", sb)}
    emit(1, "try:")
    emit(2, "for frame in (frames[start:] if start else frames):")
    emit(3, "flen = len(frame)")
    if stores:
        emit(3, "orig = frame")     # sedge copies the packet on write
    if nested:
        emit(3, "g = 0")
    walk(0, _Path(entry, plan.kv), 3)
    pairs = "[" + ", ".join(f"({cycles}, {name})" for cycles, name
                            in sorted(counters.items())) + "]"
    # Frames complete strictly in order and bump exactly one leaf
    # counter each, so the index of the faulting frame is start plus
    # the completed count — no enumerate bookkeeping in the hot loop.
    completed = ["start", *counters.values()]
    if state["hist"]:
        completed.append("sum(hd.values())")
        pairs = f"merge(hd, {pairs})"
    emit(1, "except MachineError as error:")
    emit(2, f"return {' + '.join(completed)}, accepted, {pairs}, error")
    emit(1, f"return len(frames), accepted, {pairs}, None")
    lines = _tidy(lines)
    # Counter zeroing must precede the try block emitted into ``lines``;
    # helpers ride as defaults so the hot loop reads locals, not globals.
    edge, sedge = _make_edges(plan)
    namespace = {
        "q": _QUAD.unpack_from,
        "edge": edge,
        "pack": _QUAD.pack_into,
        "sedge": sedge,
        "slow": slow,
        "merge": _merge,
        "MachineError": MachineError,
        "BudgetExceeded": BudgetExceeded,
    }
    helpers = ["q=q", "edge=edge"]
    if stores:
        helpers += ["pack=pack", "sedge=sedge"]
    if loops:
        helpers.append("slow=slow")
    signature = "frames, start, st, b" if budgeted else "frames, start, st"
    header = [f"def _drive({signature}, {', '.join(helpers)}):",
              "    accepted = 0"]
    if state["hist"]:
        header.append("    hd = {}")
    counter_init = [f"    {name} = 0" for name in counters.values()]
    source = "\n".join(header + counter_init + lines)
    try:
        code = compile(source, "<alpha-batch>", "exec")
    except (SyntaxError, RecursionError, MemoryError) as error:
        raise _Fallback(f"driver does not compile: {error}") from None
    exec(code, namespace)
    return namespace["_drive"]


def _merge(hist: dict, pairs: list) -> list:
    """The driver's dynamic-cycle histogram plus its per-leaf counters,
    as ``(cycles, count)`` pairs with each cycle count once."""
    for cycles, count in pairs:
        if count:
            hist[cycles] = hist.get(cycles, 0) + count
    return list(hist.items())


def _make_edges(plan: FramePlan):
    """The out-of-line memory paths, bit-exact with :meth:`repro.alpha
    .machine.Memory.load_quad` and :meth:`~repro.alpha.machine.Memory
    .store_quad` over the plan's reusable memory: padded-tail words,
    side-region words the inline guards did not take, packet stores,
    and the reference's unaligned/unmapped/read-only faults."""
    pb, sb, ss, packet_writable = plan
    unpack = _QUAD.unpack_from
    pack = _QUAD.pack_into

    def edge(address: int, frame, flen: int, st=None) -> int:
        if address & 7:
            raise MachineError(f"unaligned LDQ address {address:#x}")
        offset = address - pb
        if 0 <= offset and offset + 8 <= flen + (-flen % 8):
            if offset + 8 <= len(frame):
                return unpack(frame, offset)[0]
            # The zero-padded tail word of the packet region.
            return int.from_bytes(frame[offset:], "little")
        if sb <= address and address + 8 <= sb + ss:
            # No live bytes: a re-zeroed side region not yet written.
            return 0 if st is None else unpack(st, address - sb)[0]
        raise MachineError(f"unmapped address {address:#x} (size 8)")

    def sedge(address: int, value: int, frame, flen: int, st, orig):
        """Store ``value``; returns the frame buffer later loads read
        (the first packet store swaps in a padded private copy)."""
        if address & 7:
            raise MachineError(f"unaligned STQ address {address:#x}")
        offset = address - pb
        if 0 <= offset and offset + 8 <= flen + (-flen % 8):
            if not packet_writable:
                raise MachineError(f"write to read-only region 'packet' "
                                   f"at {address:#x}")
            if frame is orig:
                frame = bytearray(frame)
                frame.extend(bytes(-flen % 8))
            pack(frame, offset, value)
            return frame
        if sb <= address and address + 8 <= sb + ss:
            pack(st, address - sb, value)
            return frame
        raise MachineError(f"unmapped address {address:#x} (size 8)")

    return edge, sedge


def _make_slow(program: Program, cost_model, plan: FramePlan,
               max_steps: int):
    """The hand-over to the engine for a frame within reach of the step
    limit: rebuild the plan's memory around the frame buffer and the
    side bytes, resume the engine's run loop at the loop header, and
    copy the side region back (also when the run faults)."""
    engine = None

    def slow(pc: int, regs: list, steps: int, cycles: int, frame, st,
             budget: int | None = None) -> tuple[int, int]:
        nonlocal engine
        if engine is None:
            engine = ExecutionEngine(program, cost_model, max_steps)
        memory = Memory()
        memory.map_region(plan.packet_base,
                          bytes(frame) + bytes(-len(frame) % 8),
                          writable=plan.kv, name="packet")
        memory.map_region(plan.side_base,
                          bytes(plan.side_size) if st is None else st,
                          writable=True, name="side")
        try:
            result = engine.resume(memory, [int(value) for value in regs],
                                   pc, steps, cycles, budget)
        finally:
            if st is not None:
                st[:] = memory.region("side")
        return result.value, result.cycles

    return slow
