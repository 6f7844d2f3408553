"""Performance harness: cost model, per-approach pipelines, amortization.

The paper measures wall-clock microseconds on a 175 MHz DEC Alpha
3000/600.  Our substrate is a simulator, so the primary metric is
*cost-model cycles* (converted to microseconds at 175 MHz for
presentation), with Python wall time reported alongside as a sanity
check.  The model is deliberately simple — per-instruction-class cycle
charges plus an interpreter dispatch charge for BPF — because the paper's
claims are structural: PCC runs the bare hand-tuned code, SFI runs the
same code plus sandboxing instructions, M3 runs compiled code plus bounds
checks, and BPF pays dispatch on every VM instruction.

(The harness symbols are loaded lazily: the baselines import the cost
model from here, and the harness imports the baselines.)
"""

from repro.perf.cost import AlphaCostModel, ALPHA_175, BPF_DISPATCH_CYCLES
from repro.perf.amortize import (
    AmortizationPoint,
    amortization_series,
    crossover,
    effective_startup,
    reload_series,
)

__all__ = [
    "AlphaCostModel",
    "ALPHA_175",
    "BPF_DISPATCH_CYCLES",
    "ApproachResult",
    "FilterBenchmark",
    "run_figure8",
    "run_approach",
    "APPROACHES",
    "AmortizationPoint",
    "amortization_series",
    "crossover",
    "effective_startup",
    "reload_series",
]

_HARNESS_NAMES = ("ApproachResult", "FilterBenchmark", "run_figure8",
                  "run_approach", "APPROACHES")


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from repro.perf import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
