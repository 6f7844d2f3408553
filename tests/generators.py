"""Random program generators shared by the property-based suites.

Three flavours:

* :func:`random_filter_source` emits assembly *source* for well-formed
  packet filters whose memory accesses stay inside the policy's
  guaranteed window — these usually certify, so the certification and
  safety-theorem suites use them (``tests/pcc/test_random_programs.py``).
* :func:`random_machine_program` emits raw instruction tuples with no
  safety discipline at all: unsafe displacements, unaligned addresses,
  backward branches (loops), and out-of-range branch targets.  These
  exist to exercise every execution path — normal results, machine
  errors, abstract-machine blocking, and the step limit — so the
  differential engine suite can compare the reference interpreter and
  the threaded-code engine on the full outcome space.
* :func:`random_kv_loop_source` emits store-bearing *loops*: bounded
  scans over the KV state area that store to the state and the packet,
  with diamonds, early exits, sequential and nested scans, and
  sometimes a bound or stride that runs off the state area mid-scan —
  the compiled-vs-generic batch suite's loop shapes.
"""

from __future__ import annotations

import random

from repro.alpha.isa import (
    BRANCH_NAMES,
    NUM_REGS,
    OPERATE_NAMES,
    Br,
    Branch,
    Lda,
    Ldah,
    Ldq,
    Lit,
    Operate,
    Program,
    Reg,
    Ret,
    Stq,
)

_SAFE_OFFSETS = (0, 8, 16, 24, 32, 40, 48, 56)
_OPERATES = tuple(OPERATE_NAMES)

#: Displacements mixing in-bounds, unaligned, and far-out-of-bounds
#: accesses (relative to a 128-byte buffer based in r1).
_WILD_DISPS = _SAFE_OFFSETS + (4, 12, -8, -16, 120, 128, 1024)


def random_filter_source(rng: random.Random, blocks: int) -> str:
    """A random well-formed filter: loads at safe constant offsets, ALU
    scrambling, forward branches."""
    lines = []
    for index in range(blocks):
        label = f"b{index}"
        choice = rng.randrange(4)
        reg = rng.randrange(4, 8)
        if choice == 0:
            lines.append(f"LDQ r{reg}, {rng.choice(_SAFE_OFFSETS)}(r1)")
        elif choice == 1:
            lines.append(f"ADDQ r{reg}, {rng.randrange(256)}, r{reg}")
        elif choice == 2:
            lines.append(
                f"EXTBL r{reg}, {rng.randrange(8)}, r{rng.randrange(4, 8)}")
        else:
            lines.append(f"BEQ r{reg}, {label}")
            lines.append(f"LDQ r{rng.randrange(4, 8)}, "
                         f"{rng.choice(_SAFE_OFFSETS)}(r1)")
            lines.append(f"{label}: SUBQ r0, r0, r0")
    lines.append("CMPEQ r4, r5, r0")
    lines.append("RET")
    return "\n".join(lines)


#: Aligned state-area offsets inside the KV policy's 160-byte window.
_STATE_OFFSETS = (0, 8, 16, 24, 64, 120, 128, 152)


def random_kv_source(rng: random.Random, blocks: int) -> str:
    """A random well-formed *store-bearing* program under the KV
    policy: loads and stores at safe constant offsets in the packet
    (``r1``, below the guaranteed 64-byte minimum) and the state area
    (``r3``), ALU scrambling, forward branches."""
    lines = []
    for index in range(blocks):
        label = f"kb{index}"
        choice = rng.randrange(6)
        reg = rng.randrange(4, 8)
        if choice == 0:
            lines.append(f"LDQ r{reg}, {rng.choice(_SAFE_OFFSETS)}(r1)")
        elif choice == 1:
            lines.append(f"LDQ r{reg}, {rng.choice(_STATE_OFFSETS)}(r3)")
        elif choice == 2:
            lines.append(f"STQ r{reg}, {rng.choice(_STATE_OFFSETS)}(r3)")
        elif choice == 3:
            lines.append(f"STQ r{reg}, {rng.choice(_SAFE_OFFSETS)}(r1)")
        elif choice == 4:
            lines.append(f"ADDQ r{reg}, {rng.randrange(256)}, r{reg}")
        else:
            lines.append(f"BEQ r{reg}, {label}")
            lines.append(f"STQ r{rng.randrange(4, 8)}, "
                         f"{rng.choice(_STATE_OFFSETS)}(r3)")
            lines.append(f"{label}: SUBQ r0, r0, r0")
    lines.append("CMPEQ r4, r5, r0")
    lines.append("RET")
    return "\n".join(lines)


def _scan_body(rng: random.Random, label: str, lines: list[str]) -> None:
    """The body of one scan: load the state word at r3 + r4, scramble
    it, store it back (sometimes behind a diamond), and maybe store to
    or reload from the packet, bump the verdict, or exit early."""
    lines.append("ADDQ r3, r4, r5")
    lines.append("LDQ r6, 0(r5)")
    for _ in range(rng.randrange(3)):
        op = rng.choice(("ADDQ", "XOR", "SRL", "BIS", "EXTBL"))
        lines.append(f"{op} r6, {rng.randrange(1, 40)}, r6")
    if rng.random() < 0.5:
        lines.append(f"BEQ r6, {label}_skip")
    lines.append("STQ r6, 0(r5)")
    if rng.random() < 0.5:
        lines.append("LDQ r8, 0(r5)")        # reload what was stored
        lines.append("ADDQ r0, r8, r0")
    if rng.random() < 0.5:
        offset = rng.choice(_SAFE_OFFSETS)
        lines.append(f"LDQ r7, {offset}(r1)")
        lines.append(f"STQ r6, {offset}(r1)")
        lines.append(f"LDQ r7, {rng.choice((offset, offset, 0))}(r1)")
        lines.append("ADDQ r0, r7, r0")
    if rng.random() < 0.3:
        lines.append(f"CMPULT r6, {rng.randrange(1, 256)}, r8")
        lines.append("BNE r8, done")
    lines.append(f"{label}_skip: ADDQ r0, 1, r0")


def random_kv_loop_source(rng: random.Random, loops: int) -> str:
    """A random store-bearing program of ``loops`` scans over the KV
    state area (see the module docstring).  Bounds and strides are
    mostly in range; the rest fault mid-scan after partial stores."""
    lines = ["SUBQ r0, r0, r0"]
    if rng.random() < 0.5:
        lines.append(f"LDQ r7, {rng.choice(_SAFE_OFFSETS)}(r1)")
    if rng.random() < 0.5:
        lines.append("STQ r3, 40(r1)")           # reloaded at the end
    for index in range(loops):
        label = f"s{index}"
        bound = rng.choice((8, 32, 64, 128, 160, 160, 168, 200))
        stride = rng.choice((8, 8, 8, 16, 4))
        lines.append("SUBQ r4, r4, r4")
        lines.append(f"BR {label}_check")
        lines.append(f"{label}_loop:")
        if rng.random() < 0.3:
            # Rotate two registers across iterations (r10 takes r9's old
            # value): carried locals must be assigned simultaneously.
            lines.append("ADDQ r0, r10, r0")
            lines.append("BIS r9, r9, r10")
            lines.append("ADDQ r4, 3, r9")
        elif rng.random() < 0.3:
            # A nested scan over the first words, rerun per outer slot;
            # it keeps its own offset in r9 and restores none of r4.
            lines.append("BIS r4, r4, r9")
            lines.append("SUBQ r10, r10, r10")
            lines.append(f"BR {label}_ncheck")
            lines.append(f"{label}_nloop: ADDQ r3, r10, r5")
            lines.append("LDQ r6, 0(r5)")
            lines.append("ADDQ r6, 1, r6")
            lines.append("STQ r6, 0(r5)")
            lines.append("ADDQ r10, 8, r10")
            lines.append(f"{label}_ncheck: CMPULT r10, 16, r5")
            lines.append(f"BNE r5, {label}_nloop")
            lines.append("BIS r9, r9, r4")
        _scan_body(rng, label, lines)
        lines.append(f"ADDQ r4, {stride}, r4")
        lines.append(f"{label}_check: CMPULT r4, {bound}, r5")
        lines.append(f"BNE r5, {label}_loop")
        lines.append("LDQ r8, 0(r3)")            # what the scan left
        lines.append("ADDQ r0, r8, r0")
    for offset in (0, 40, 48):                       # and the packet
        lines.append(f"LDQ r8, {offset}(r1)")
        lines.append("ADDQ r0, r8, r0")
    # The verdict's truthiness is all a batch run reports of r0: keep
    # its value observable in the side region.
    lines.append("done: STQ r0, 8(r3)")
    lines.append("RET")
    return "\n".join(lines)


def _random_reg(rng: random.Random) -> Reg:
    return Reg(rng.randrange(NUM_REGS))


def _base_reg(rng: random.Random) -> Reg:
    # Mostly r1 (the mapped buffer); sometimes arbitrary registers whose
    # contents produce unmapped or unaligned addresses.
    return Reg(rng.choice((1, 1, 1, 1, 2, rng.randrange(NUM_REGS))))


def random_machine_program(rng: random.Random, length: int) -> Program:
    """A random raw program covering the whole outcome space (see module
    docstring); always ends in RET, but earlier RETs, loops, and invalid
    branch targets all occur."""
    instructions = []
    for pc in range(length):
        choice = rng.randrange(10)
        if choice < 4:
            rb = (Lit(rng.randrange(256)) if rng.random() < 0.5
                  else _random_reg(rng))
            instructions.append(Operate(rng.choice(_OPERATES),
                                        _random_reg(rng), rb,
                                        _random_reg(rng)))
        elif choice == 4:
            instructions.append(Ldq(_random_reg(rng),
                                    rng.choice(_WILD_DISPS),
                                    _base_reg(rng)))
        elif choice == 5:
            instructions.append(Stq(_random_reg(rng),
                                    rng.choice(_WILD_DISPS),
                                    _base_reg(rng)))
        elif choice == 6:
            instructions.append(Lda(_random_reg(rng),
                                    rng.randrange(-64, 64),
                                    _random_reg(rng)))
        elif choice == 7:
            instructions.append(Ldah(_random_reg(rng),
                                     rng.randrange(-4, 4),
                                     _random_reg(rng)))
        elif choice == 8:
            # Offsets span backward loops, forward skips, and targets
            # past either end of the program.
            instructions.append(Branch(rng.choice(BRANCH_NAMES),
                                       _random_reg(rng),
                                       rng.randrange(-4, length + 2)))
        else:
            if rng.random() < 0.3:
                instructions.append(Ret())
            else:
                instructions.append(Br(rng.randrange(-4, length + 2)))
    instructions.append(Ret())
    return tuple(instructions)
