"""Compiled execution engine for the Alpha subset.

:class:`repro.alpha.machine.Machine` is the *reference* interpreter: it
re-decodes every instruction on every step (``isinstance`` chains,
table-keyed operator dispatch, a ``cost_model.cycles()`` call per
instruction).  That is faithful to Figure 3 but dominates the wall-clock
cost of the paper's evaluation, where four filters run over a
200,000-packet trace under six approaches.

This module removes the interpretation overhead without changing a single
modeled cycle.  A :class:`Program` is compiled *once* into *basic-block
functions*: each straight-line run (single entry, terminated by a control
transfer or the next branch target) becomes one Python function generated
with ``exec``:

* operand register indices, sign-extended displacements, literals and
  branch targets are inlined as constants, and registers live in locals
  that are flushed to the register file at the block exit;
* operate and branch semantics are the expression templates of
  :data:`repro.alpha.isa.OPERATES` and :data:`~repro.alpha.isa.BRANCHES`
  — the same table rows whose reference functions the machine calls;
* the cost model is consulted once per *static* instruction, so a
  block's dynamic step and cycle counts are decode-time constants and
  the run loop charges them with two additions per block;
* a branch target that leaves the program compiles to a trap slot past
  the end of the table, raising the same :class:`~repro.errors
  .MachineError` the reference machine would raise at the same point in
  execution, so the run loop needs no per-step bounds check;
* the abstract machine's rd()/wr() checks are a *decode-time* parameter:
  passing ``check_read``/``check_write`` bakes the paper's Figure 3
  safety checks into the LDQ/STQ code, so :mod:`repro.alpha.abstract`
  rides the same engine (see :func:`repro.alpha.abstract
  .abstract_engine`).

Mid-block exceptions are safe: ``run()`` never exposes its register
list, so deferred write-back is unobservable, and error messages and
their order are unchanged because instructions execute in program order
inside the block.

The reference machine checks the step limit before every instruction.
A block that would cross ``max_steps`` therefore runs one instruction
at a time instead, on a second table that the same emitter builds with
every pc treated as a leader.  That table is built lazily, the first
time a run comes within one block of the limit.

Unchecked translations are cached per ``(program, cost_model)`` in a
bounded module-level code cache (which also holds the batch drivers of
:mod:`repro.alpha.batch`): the perf harness compiles each filter once
and reuses it across all 200,000 packets.  Checked translations capture
per-run predicates and are rebuilt per engine.

The engine is *bit-identical* to the reference machine — same
``MachineResult`` fields, same error types and messages, same
abstract-machine blocking — which the differential property suite
(``tests/alpha/test_engine_differential.py``) asserts on random programs.

Cost models are resolved at decode time, so they must be pure functions
of the static instruction (true of :class:`repro.perf.cost.AlphaCostModel`).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.alpha.isa import (
    BRANCHES,
    NUM_REGS,
    OPERATES,
    WORD_MASK,
    Br,
    Branch,
    Instruction,
    Lda,
    Ldq,
    Lit,
    Operate,
    Program,
    Ret,
    Stq,
)
from repro.alpha.machine import MachineResult, Memory, _sext16
from repro.errors import BudgetExceeded, MachineError

#: Safety-check hook, as in :meth:`Machine._check_read`: called with
#: ``(address, pc)``, raises to block execution.
CheckHook = Callable[[int, int], None]

_RET = -1


class CodeTable(NamedTuple):
    """Compiled functions indexed by entry pc.

    ``run[pc]`` executes from ``pc`` to the end of its block and returns
    the next pc (negative for RET); ``length[pc]`` and ``cost[pc]`` are
    the instructions and cycles one call executes.  Only entry pcs and
    trap slots (zero-length entries past the program) are populated —
    the only pcs control flow can reach from outside an entry.
    """

    run: list
    length: list
    cost: list


class CompiledCode:
    """The block table of one program, plus its lazily built
    single-instruction table for runs that approach the step limit."""

    def __init__(self, program: Program, cost_model,
                 check_read: CheckHook | None,
                 check_write: CheckHook | None) -> None:
        self._program = program
        self._costs = [cost_model.cycles(instruction) if cost_model else 1
                       for instruction in program]
        self._hooks = (check_read, check_write)
        self._traps = _trap_slots(program)
        self.blocks = self._compile(block_leaders(program))
        self._steps: CodeTable | None = None

    def steps(self) -> CodeTable:
        """The table with every pc as a leader (one instruction each)."""
        if self._steps is None:
            self._steps = self._compile(set(range(len(self._program))))
        return self._steps

    def _compile(self, leaders: set[int]) -> CodeTable:
        program = self._program
        traps = self._traps
        check_read, check_write = self._hooks
        width = len(program) + len(traps)
        table = CodeTable([None] * width, [0] * width, [0] * width)
        sources = [
            f"def _b{slot}(regs, memory):\n"
            f'    raise MachineError("pc {target} outside program")'
            for target, slot in traps.items()
        ]
        for leader in sorted(leaders):
            body, length = _block_source(program, leader, leaders, traps,
                                         check_read is not None,
                                         check_write is not None)
            sources.append(f"def _b{leader}(regs, memory):\n{body}")
            table.length[leader] = length
            table.cost[leader] = sum(self._costs[leader:leader + length])
        namespace = {"check_read": check_read, "check_write": check_write,
                     "MachineError": MachineError}
        exec(compile("\n".join(sources), "<alpha-blocks>", "exec"),
             namespace)
        for pc in range(width):
            table.run[pc] = namespace.get(f"_b{pc}")
        return table


# ---------------------------------------------------------------------------
# The program code cache (unchecked translations only).

_CODE_CACHE: dict = {}
_CODE_CACHE_LIMIT = 512


def code_cache_size() -> int:
    """Number of cached translations (introspection for tests)."""
    return len(_CODE_CACHE)


def clear_code_cache() -> None:
    """Drop every cached translation."""
    _CODE_CACHE.clear()


def cached(key, build):
    """``build()``, memoized in the bounded code cache under ``key``.

    Shared by the block tables here and the batch drivers of
    :mod:`repro.alpha.batch` (their keys have different shapes).  An
    unhashable key (a custom cost model) builds afresh every time, and
    a ``None`` result is not cached.
    """
    try:
        hit = _CODE_CACHE.get(key)
    except TypeError:           # unhashable custom cost model
        return build()
    if hit is None:
        hit = build()
        if hit is not None:
            if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
                _CODE_CACHE.clear()
            _CODE_CACHE[key] = hit
    return hit


def compile_program(program: Program, cost_model=None,
                    check_read: CheckHook | None = None,
                    check_write: CheckHook | None = None,
                    ) -> CompiledCode:
    """Compile ``program`` into a :class:`CompiledCode`.

    Unchecked translations are cached; checked ones capture the hook
    closures and are always rebuilt (the hooks embed per-run state).
    """
    if check_read is None and check_write is None:
        return cached((program, cost_model),
                      lambda: CompiledCode(program, cost_model, None, None))
    return CompiledCode(program, cost_model, check_read, check_write)


class ExecutionEngine:
    """Runs one compiled program; reusable across memories and runs.

    The constructor pays the (cached) compilation cost; :meth:`run` is
    the per-packet hot path.  ``check_read``/``check_write`` follow the
    :meth:`Machine._check_read` contract and turn this into the abstract
    machine of Figure 3.
    """

    def __init__(self, program: Program, cost_model=None,
                 max_steps: int = 1_000_000,
                 check_read: CheckHook | None = None,
                 check_write: CheckHook | None = None) -> None:
        self.program = program
        self.cost_model = cost_model
        self.max_steps = max_steps
        self._code = compile_program(
            program, cost_model, check_read, check_write)

    def run(self, memory: Memory, registers: dict[int, int] | None = None,
            cycle_budget: int | None = None) -> MachineResult:
        """Execute once against ``memory``; registers start zeroed.

        With a ``cycle_budget``, raise :class:`BudgetExceeded` as soon as
        the modeled cycle clock passes it.  The check runs at block
        granularity — before the block executes, so a runaway loop is
        cut off within one block of the budget line — and a run that
        completes within budget returns the same result as an unbudgeted
        one.  The step-limit backstop still applies, for cost models that
        charge zero cycles.
        """
        regs = [0] * NUM_REGS
        if registers:
            for index, value in registers.items():
                regs[index] = value & WORD_MASK
        return self._execute(self._code.blocks, regs, memory, 0, 0, 0,
                             cycle_budget)

    def run_batch(self, memory: Memory, rebind, frames: list,
                  registers_fn, start: int = 0,
                  cycle_budget: int | None = None):
        """Run one invocation per frame of ``frames[start:]`` without
        re-entering Python dispatch between packets.

        ``rebind`` and ``registers_fn`` follow the
        :func:`repro.filters.policy.reusable_packet_memory` /
        :func:`~repro.filters.policy.filter_registers` contracts: before
        each invocation the packet region is rebound to the frame bytes
        and a fresh entry-register dict is built from the frame length.
        Each invocation is bit-identical to :meth:`run` on a freshly
        rebound memory — the block loop below is the same loop with the
        same check ordering, merely hoisted inside the frame loop.

        Returns ``(next_index, accepted, hist_pairs, error)``:
        ``next_index`` is one past the last frame *executed* (equal to
        ``len(frames)`` when every frame completed), ``accepted`` counts
        completed frames with truthy verdicts, ``hist_pairs`` is the
        exact cycle histogram of completed frames as ``(cycles, count)``
        pairs, and ``error`` is the :class:`MachineError` raised by
        frame ``next_index`` (or ``None``).  The caller resumes at
        ``next_index + 1`` after accounting the fault, which reproduces
        the serial per-frame dispatch protocol exactly.
        """
        code = self._code.blocks
        blocks = code.run
        block_len = code.length
        block_cost = code.cost
        max_steps = self.max_steps
        accepted = 0
        hist: dict[int, int] = {}
        index = start
        try:
            for index in range(start, len(frames)):
                frame = frames[index]
                rebind(frame)
                regs = [0] * NUM_REGS
                for reg_index, value in registers_fn(len(frame)).items():
                    regs[reg_index] = value & WORD_MASK
                pc = 0
                steps = 0
                cycles = 0
                while True:
                    if steps >= max_steps:
                        raise MachineError(
                            f"exceeded {max_steps} steps "
                            f"(runaway program?)")
                    length = block_len[pc]
                    if steps + length > max_steps:
                        result = self._execute(
                            self._code.steps(), regs, memory, pc, steps,
                            cycles, cycle_budget)
                        break
                    cycles += block_cost[pc]
                    if (cycle_budget is not None
                            and cycles > cycle_budget):
                        raise BudgetExceeded(
                            f"exceeded cycle budget {cycle_budget} "
                            f"({cycles} cycles after {steps} steps)",
                            budget=cycle_budget, cycles=cycles,
                            steps=steps)
                    steps += length
                    pc = blocks[pc](regs, memory)
                    if pc < 0:
                        result = MachineResult(regs[0], steps, cycles)
                        break
                accepted += 1 if result.value else 0
                hist[result.cycles] = hist.get(result.cycles, 0) + 1
        except MachineError as error:
            return index, accepted, list(hist.items()), error
        return len(frames), accepted, list(hist.items()), None

    def resume(self, memory: Memory, regs: list, pc: int, steps: int,
               cycles: int, cycle_budget: int | None = None
               ) -> MachineResult:
        """Continue a run at the entry of the block at ``pc`` with the
        register list, step and cycle counts already reached — the
        hand-over point of :mod:`repro.alpha.batch` drivers whose frame
        comes within reach of the step limit."""
        return self._execute(self._code.blocks, regs, memory, pc, steps,
                             cycles, cycle_budget)

    def _execute(self, code: CodeTable, regs: list, memory: Memory,
                 pc: int, steps: int, cycles: int,
                 cycle_budget: int | None) -> MachineResult:
        """The run loop over ``code`` from ``pc``.

        The step-limit check guards every entry.  An entry that would
        cross the limit hands over to the single-instruction table,
        reproducing the reference machine's check ordering exactly (a
        block never crosses the limit silently, and errors raised before
        the limit still win).  On that table every entry is at most one
        instruction long, so the hand-over never recurses further.
        """
        blocks = code.run
        block_len = code.length
        block_cost = code.cost
        max_steps = self.max_steps
        while True:
            if steps >= max_steps:
                raise MachineError(
                    f"exceeded {max_steps} steps (runaway program?)")
            length = block_len[pc]
            if steps + length > max_steps:
                return self._execute(self._code.steps(), regs, memory, pc,
                                     steps, cycles, cycle_budget)
            cycles += block_cost[pc]
            if cycle_budget is not None and cycles > cycle_budget:
                raise BudgetExceeded(
                    f"exceeded cycle budget {cycle_budget} "
                    f"({cycles} cycles after {steps} steps)",
                    budget=cycle_budget, cycles=cycles, steps=steps)
            steps += length
            pc = blocks[pc](regs, memory)
            if pc < 0:
                return MachineResult(regs[0], steps, cycles)


def run_program(program: Program, memory: Memory,
                registers: dict[int, int] | None = None,
                cost_model=None, max_steps: int = 1_000_000) -> MachineResult:
    """One-shot convenience wrapper over :class:`ExecutionEngine`."""
    return ExecutionEngine(program, cost_model, max_steps).run(
        memory, registers)


# ---------------------------------------------------------------------------
# Block code generation.
#
# Every pc reachable from *outside* a block is a leader: pc 0, every
# branch target, and the fall-through successor of every conditional
# branch.  A block runs from a leader to the next control transfer (or
# the next leader, or the end of the program).  Each block compiles to
# one exec-generated function in which registers live in locals; the
# register file is written back only at the block exit, which is sound
# because ``run()`` never exposes its register list — a mid-block
# exception discards it.  Instructions execute in program order inside
# the block, so error sites, messages and ordering match the reference.


def block_leaders(program: Program) -> set[int]:
    """The pcs at which the engine's basic blocks start."""
    size = len(program)
    leaders = {0} if size else set()
    for pc, instruction in enumerate(program):
        if isinstance(instruction, (Branch, Br)):
            target = pc + 1 + instruction.offset
            if 0 <= target < size:
                leaders.add(target)
            if isinstance(instruction, Branch) and pc + 1 < size:
                leaders.add(pc + 1)
    return leaders


def _trap_slots(program: Program) -> dict[int, int]:
    """Every successor pc outside the program, mapped to its trap slot
    (an index past the end of the code table)."""
    size = len(program)
    bad = set() if size else {0}  # the reference rejects pc 0 of nothing
    for pc, instruction in enumerate(program):
        if isinstance(instruction, (Branch, Br)):
            target = pc + 1 + instruction.offset
            if not 0 <= target < size:
                bad.add(target)
        if pc + 1 == size and not isinstance(instruction, (Br, Ret)):
            bad.add(size)       # falls off the end
    return {target: size + slot for slot, target in enumerate(sorted(bad))}


class _BlockAssembler:
    """Builds one block's source; registers are cached in locals."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._cached: set[int] = set()
        self._dirty: set[int] = set()

    def line(self, text: str) -> None:
        self._lines.append("    " + text)

    def use(self, index: int) -> str:
        """An rvalue for register ``index``, loading it on first use."""
        if index not in self._cached:
            self.line(f"r{index} = regs[{index}]")
            self._cached.add(index)
        return f"r{index}"

    def assign(self, index: int, expr: str) -> None:
        self.line(f"r{index} = {expr}")
        self._cached.add(index)
        self._dirty.add(index)

    def flush(self) -> None:
        """Write every dirty local back to the register file."""
        for index in sorted(self._dirty):
            self.line(f"regs[{index}] = r{index}")
        self._dirty.clear()

    def render(self) -> str:
        return "\n".join(self._lines)


def _address_expr(asm: _BlockAssembler, base_index: int, disp: int) -> str:
    base = asm.use(base_index)
    if disp == 0:
        # Register values are invariantly < 2^64, so (r + 0) & MASK == r.
        return base
    return f"({base} + {disp}) & {WORD_MASK}"


def _operate_expr(asm: _BlockAssembler, instruction: Operate) -> str:
    a = asm.use(instruction.ra.index)
    rb = instruction.rb
    b = str(rb.value) if isinstance(rb, Lit) else asm.use(rb.index)
    return OPERATES[instruction.name].template.format(a=a, b=b)


def _emit_straightline(asm: _BlockAssembler, instruction: Instruction,
                       pc: int, checked_read: bool,
                       checked_write: bool) -> None:
    if isinstance(instruction, Operate):
        asm.assign(instruction.rc.index, _operate_expr(asm, instruction))
    elif isinstance(instruction, Ldq):
        address = _address_expr(asm, instruction.rs.index,
                                _sext16(instruction.disp))
        if checked_read:
            asm.line(f"_a = {address}")
            asm.line(f"check_read(_a, {pc})")
            address = "_a"
        asm.assign(instruction.rd.index, f"memory.load_quad({address})")
    elif isinstance(instruction, Stq):
        address = _address_expr(asm, instruction.rd.index,
                                _sext16(instruction.disp))
        value = asm.use(instruction.rs.index)
        if checked_write:
            asm.line(f"_a = {address}")
            asm.line(f"check_write(_a, {pc})")
            address = "_a"
        asm.line(f"memory.store_quad({address}, {value})")
    elif isinstance(instruction, Lda):
        asm.assign(instruction.rd.index,
                   _address_expr(asm, instruction.rs.index,
                                 _sext16(instruction.disp)))
    else:  # Ldah — the only remaining straight-line kind
        asm.assign(instruction.rd.index,
                   _address_expr(asm, instruction.rs.index,
                                 _sext16(instruction.disp) << 16))


def _block_source(program: Program, leader: int, leaders: set[int],
                  traps: dict[int, int], checked_read: bool,
                  checked_write: bool) -> tuple[str, int]:
    """The body of one block function and its instruction count."""
    size = len(program)
    asm = _BlockAssembler()
    pc = leader
    while True:
        instruction = program[pc]
        if isinstance(instruction, Branch):
            target = pc + 1 + instruction.offset
            taken = target if 0 <= target < size else traps[target]
            fall = pc + 1 if pc + 1 < size else traps[size]
            condition = BRANCHES[instruction.name].template.format(
                s=asm.use(instruction.rs.index))
            asm.flush()
            asm.line(f"return {taken} if {condition} else {fall}")
            return asm.render(), pc + 1 - leader
        if isinstance(instruction, Br):
            target = pc + 1 + instruction.offset
            resolved = target if 0 <= target < size else traps[target]
            asm.flush()
            asm.line(f"return {resolved}")
            return asm.render(), pc + 1 - leader
        if isinstance(instruction, Ret):
            asm.flush()
            asm.line(f"return {_RET}")
            return asm.render(), pc + 1 - leader
        _emit_straightline(asm, instruction, pc, checked_read, checked_write)
        pc += 1
        if pc >= size:
            # Fall off the end: the trap slot raises the reference error
            # after the run loop's step-limit check, as the machine does.
            asm.flush()
            asm.line(f"return {traps[size]}")
            return asm.render(), pc - leader
        if pc in leaders:
            asm.flush()
            asm.line(f"return {pc}")
            return asm.render(), pc - leader
