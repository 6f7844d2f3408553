"""Differential property suite: the compiled engine is bit-identical to
the reference interpreter.

The engine (:mod:`repro.alpha.engine`) compiles programs into
exec-generated basic-block functions; the reference
:class:`repro.alpha.machine.Machine` re-decodes every step.  These tests
generate random programs — including unsafe accesses, loops, and invalid
branch targets — and assert the two produce *identical* outcomes:

* the same :class:`MachineResult` (value, instructions, cycles),
* or the same exception type with the same message,
* with the same memory contents afterwards (stores execute in program
  order even inside compiled blocks),
* and, for the abstract machine, blocking at the same pc and address.

Small ``max_steps`` values deliberately land the step limit in the
middle of compiled blocks, exercising the engine's hand-over to its
single-instruction table at the step limit.
"""

import random
import struct

from hypothesis import given, settings, strategies as st

from repro.alpha.abstract import AbstractMachine, run_abstract
from repro.alpha.engine import ExecutionEngine
from repro.alpha.machine import Machine, Memory
from repro.alpha.parser import parse_program
from repro.errors import MachineError, SafetyViolation
from repro.filters.policy import filter_registers, packet_memory
from repro.perf.cost import ALPHA_175
from tests.generators import random_filter_source, random_machine_program

_BUF_BASE = 0x1000
_RO_BASE = 0x2000
_REGISTERS = {1: _BUF_BASE, 2: _RO_BASE, 3: _BUF_BASE + 64}


def _memory() -> Memory:
    memory = Memory()
    memory.map_region(_BUF_BASE, bytes(128), writable=True, name="buf")
    memory.map_region(_RO_BASE, struct.pack("<QQ", 7, 1 << 63),
                      writable=False, name="ro")
    return memory


def _outcome(run, memory):
    """Everything observable about one execution, as a comparable value."""
    try:
        result = run()
        status = ("result", result.value, result.instructions, result.cycles)
    except SafetyViolation as error:
        status = ("blocked", str(error), error.pc, error.address)
    except MachineError as error:
        status = ("error", str(error))
    return status, bytes(memory.region("buf"))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=24),
       st.sampled_from([3, 7, 23, 1_000_000]))
def test_engine_matches_reference_machine(seed, length, max_steps):
    program = random_machine_program(random.Random(seed), length)
    reference_memory = _memory()
    reference = _outcome(
        lambda: Machine(program, reference_memory, dict(_REGISTERS),
                        cost_model=ALPHA_175, max_steps=max_steps).run(),
        reference_memory)
    engine = ExecutionEngine(program, cost_model=ALPHA_175,
                             max_steps=max_steps)
    engine_memory = _memory()
    threaded = _outcome(
        lambda: engine.run(engine_memory, dict(_REGISTERS)), engine_memory)
    assert threaded == reference


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=24),
       st.sampled_from([5, 1_000_000]))
def test_abstract_engine_matches_abstract_machine(seed, length, max_steps):
    program = random_machine_program(random.Random(seed), length)

    def can_read(address):
        return (_BUF_BASE <= address < _BUF_BASE + 128
                or _RO_BASE <= address < _RO_BASE + 16)

    def can_write(address):
        return _BUF_BASE <= address < _BUF_BASE + 64

    reference_memory = _memory()
    reference = _outcome(
        lambda: AbstractMachine(program, reference_memory, can_read,
                                can_write, dict(_REGISTERS),
                                max_steps=max_steps).run(),
        reference_memory)
    engine_memory = _memory()
    threaded = _outcome(
        lambda: run_abstract(program, engine_memory, can_read, can_write,
                             dict(_REGISTERS), max_steps=max_steps),
        engine_memory)
    assert threaded == reference


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=6))
def test_engine_matches_machine_on_generated_filters(seed, blocks):
    """The existing certification-suite generator, run under the packet
    policy's memory layout: results must agree field for field."""
    rng = random.Random(seed)
    program = parse_program(random_filter_source(rng, blocks))
    packet = rng.randbytes(64 + 8 * rng.randrange(8))
    registers = filter_registers(len(packet))
    reference = Machine(program, packet_memory(packet), dict(registers),
                        cost_model=ALPHA_175).run()
    threaded = ExecutionEngine(program, cost_model=ALPHA_175).run(
        packet_memory(packet), dict(registers))
    assert threaded == reference
