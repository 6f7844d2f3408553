"""Basic-block control-flow-graph recovery over decoded Alpha programs.

The static-analysis subsystem works on exactly the instruction vector the
consumer received — the same :class:`~repro.alpha.isa.Program` that
validation decodes — so nothing here trusts the producer.  Unlike
:func:`repro.alpha.isa.validate_program`, CFG recovery never *rejects* a
program: malformed control flow (branches out of the code region,
fall-through past the last instruction) is recorded as explicit fault
exits so that the downstream passes (intervals, WCET, lint) can reason
about exactly what the hardware would do — the concrete machine raises
:class:`~repro.errors.MachineError` at those points, and the compiled
engine compiles them to trap slots.

This is the one block graph of the system.  The batch compiler
(:mod:`repro.alpha.batch`) reads its block lengths, loops and
irreducible edges from here, and the WCET pass its longest path, so the
engine, the compiled drivers and the cycle budget charge cycles at the
same boundaries.  Recovery follows the textbook recipe:

* **leaders** — the execution engine's block starts
  (:func:`repro.alpha.engine.block_leaders`: pc 0, every in-range
  branch target, every conditional branch's fall-through), plus the pc
  after each ``BR``/``RET``, which only unreachable code starts at;
* **edges** — fall-through plus taken targets; ``RET`` has no
  successors; out-of-range targets become fault exits, not edges;
* **reachability and post order** — one iterative DFS from the entry;
* **dominators** — Cooper, Harvey and Kennedy's immediate-dominator
  iteration over reverse post order (near-linear; a dominance query
  walks the idom chain);
* **natural loops** — one per back edge ``u -> h`` where ``h``
  dominates ``u``, merged per header; the body is everything that can
  reach ``u`` without passing through ``h``.

Retreating edges that are *not* back edges (irreducible control flow)
are surfaced separately: the interval analysis still converges on them
(widening is trigger-counted, not loop-header-gated), but the WCET pass
refuses to bound them and the batch compiler refuses to compile them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from repro.alpha.engine import block_leaders
from repro.alpha.isa import Br, Branch, Program, Ret, branch_target


@dataclass(frozen=True)
class BasicBlock:
    """One maximal straight-line run of instructions.

    ``start``/``end`` delimit the pc range (``end`` exclusive);
    ``successors`` are *block indices*; ``fault_targets`` are the pcs of
    control transfers out of this block that leave the program (the
    machine faults there); ``falls_off`` marks a block whose
    fall-through leaves the program (same fault, implicit transfer).
    """

    index: int
    start: int
    end: int
    successors: tuple[int, ...]
    fault_targets: tuple[int, ...] = ()
    falls_off: bool = False

    @property
    def terminator_pc(self) -> int:
        return self.end - 1

    def __str__(self) -> str:
        succ = ", ".join(f"B{s}" for s in self.successors) or "exit"
        return f"B{self.index}[pc {self.start}..{self.end - 1}] -> {succ}"


@dataclass(frozen=True)
class NaturalLoop:
    """A natural loop: header block, body blocks, back-edge sources."""

    header: int
    blocks: frozenset[int]
    back_edge_sources: tuple[int, ...]

    def __str__(self) -> str:
        return (f"loop@B{self.header} "
                f"{{{', '.join(f'B{b}' for b in sorted(self.blocks))}}}")


class ControlFlowGraph:
    """The recovered CFG; build with :func:`build_cfg`.

    ``post_order`` lists the reachable blocks in DFS post order (the
    entry last); ``idom`` maps each reachable block to its immediate
    dominator (the entry to itself).
    """

    def __init__(self, program: Program, blocks: tuple[BasicBlock, ...],
                 block_of: tuple[int, ...]) -> None:
        self.program = program
        self.blocks = blocks
        #: pc -> index of the containing block.
        self.block_of = block_of
        preds: list[list[int]] = [[] for _ in blocks]
        for block in blocks:
            for succ in block.successors:
                preds[succ].append(block.index)
        self.predecessors: tuple[tuple[int, ...], ...] = tuple(
            map(tuple, preds))
        self.post_order: tuple[int, ...] = self._post_order()
        self.reachable: frozenset[int] = frozenset(self.post_order)
        self._rank = {index: rank
                      for rank, index in enumerate(self.post_order)}
        self.idom: dict[int, int] = self._immediate_dominators()
        # Edges against the DFS order: every cycle contains one.  Those
        # whose target dominates their source are the back edges; any
        # other one makes the flow irreducible.
        rank = self._rank
        retreating = [(block.index, succ) for block in blocks
                      if block.index in rank
                      for succ in block.successors
                      if rank[succ] >= rank[block.index]]
        self.back_edges: tuple[tuple[int, int], ...] = tuple(
            (source, target) for source, target in retreating
            if self.dominates(target, source))
        self.irreducible_edges: tuple[tuple[int, int], ...] = tuple(
            (source, target) for source, target in retreating
            if not self.dominates(target, source))
        self.loops: tuple[NaturalLoop, ...] = self._natural_loops()

    # -- construction helpers -------------------------------------------

    def _post_order(self) -> tuple[int, ...]:
        """Iterative DFS from the entry (no recursion limit on long
        programs), successors in their listed order."""
        if not self.blocks:
            return ()
        order: list[int] = []
        seen = {0}
        stack = [(0, iter(self.blocks[0].successors))]
        while stack:
            index, pending = stack[-1]
            for succ in pending:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(self.blocks[succ].successors)))
                    break
            else:
                stack.pop()
                order.append(index)
        return tuple(order)

    def _immediate_dominators(self) -> dict[int, int]:
        """Cooper, Harvey and Kennedy's iteration over reverse post
        order.  A block's dominators all finish after it in the DFS, so
        the two-finger intersection climbs by post-order rank."""
        rank = self._rank
        idom = {0: 0} if self.blocks else {}
        changed = True
        while changed:
            changed = False
            for index in reversed(self.post_order):
                if index == 0:
                    continue
                new = None
                for pred in self.predecessors[index]:
                    if pred not in idom:
                        continue            # unreachable or not yet seen
                    if new is None:
                        new = pred
                        continue
                    x, y = pred, new
                    while x != y:
                        while rank[x] < rank[y]:
                            x = idom[x]
                        while rank[y] < rank[x]:
                            y = idom[y]
                    new = x
                if idom.get(index) != new:
                    idom[index] = new
                    changed = True
        return idom

    def _natural_loops(self) -> tuple[NaturalLoop, ...]:
        bodies: dict[int, set[int]] = {}
        sources: dict[int, list[int]] = {}
        for source, header in self.back_edges:
            body = bodies.setdefault(header, {header})
            sources.setdefault(header, []).append(source)
            stack = [source]
            while stack:
                node = stack.pop()
                if node in body:
                    continue
                body.add(node)
                stack.extend(p for p in self.predecessors[node]
                             if p in self.reachable)
        return tuple(NaturalLoop(header, frozenset(body),
                                 tuple(sorted(sources[header])))
                     for header, body in sorted(bodies.items()))

    # -- queries ---------------------------------------------------------

    def block_at(self, pc: int) -> BasicBlock:
        return self.blocks[self.block_of[pc]]

    def dominates(self, a: int, b: int) -> bool:
        """Does block ``a`` dominate block ``b``? (reachable blocks)"""
        rank = self._rank
        if a not in rank or b not in rank:
            return False
        while rank[b] < rank[a]:
            b = self.idom[b]
        return a == b

    def longest_paths(self, weight: Sequence[int] | dict[int, int],
                      stop: Collection[int] = ()) -> dict[int, int]:
        """Per reachable block: the heaviest total ``weight`` along a
        path from its entry that takes no retreating edge and enters no
        block of ``stop``.  Post order visits every other successor
        first, so this is one pass.  On reducible flow the retreating
        edges are the back edges, so from the entry with no ``stop``
        this is the longest acyclic path."""
        best: dict[int, int] = {}
        for index in self.post_order:
            best[index] = weight[index] + max(
                (best[succ] for succ in self.blocks[index].successors
                 if succ in best and succ not in stop), default=0)
        return best

    def instructions(self, block: BasicBlock):
        """The instruction slice of ``block``, with absolute pcs."""
        for pc in range(block.start, block.end):
            yield pc, self.program[pc]


def build_cfg(program: Program) -> ControlFlowGraph:
    """Recover the basic-block CFG of ``program`` (never raises on
    malformed control flow; see the module docstring)."""
    size = len(program)
    leaders = block_leaders(program)
    leaders.update(pc + 1 for pc in range(size - 1)
                   if isinstance(program[pc], (Br, Ret)))
    starts = sorted(leaders)
    index_of_start = {start: rank for rank, start in enumerate(starts)}

    blocks: list[BasicBlock] = []
    block_of: list[int] = []
    for rank, start in enumerate(starts):
        end = starts[rank + 1] if rank + 1 < len(starts) else size
        block_of.extend([rank] * (end - start))
        terminator = program[end - 1]
        successors: list[int] = []
        faults: list[int] = []
        if isinstance(terminator, (Br, Branch)):
            target = branch_target(end - 1, terminator)
            if 0 <= target < size:
                successors.append(index_of_start[target])
            else:
                faults.append(target)
        falls = not isinstance(terminator, (Br, Ret))
        if falls and end < size:
            successors.append(index_of_start[end])
        # A branch whose taken target IS the fall-through (offset 0)
        # yields the same successor twice; the edge set is deduplicated.
        blocks.append(BasicBlock(rank, start, end,
                                 tuple(dict.fromkeys(successors)),
                                 tuple(faults), falls and end >= size))
    return ControlFlowGraph(program, tuple(blocks), tuple(block_of))
