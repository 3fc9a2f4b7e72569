"""cli-mc-spectral: the library without the oracle, as one op cycle.

One cycle is the cli-coarse ops, then the Monte Carlo ops, then the
spectral ops (see ``cli_coarse``, ``simulate`` and ``spectral`` for each
part's mix).  None of them runs the alternating oracle, so this is the
bypass for decide-probe optimisations; it is where the enumeration
engine, the CLI, the Monte Carlo kernels and the dense and sparse
spectral core are timed.

The three parts share one run so that each run can be long: their op
times overlap (the CLI's delta = 0.6 decides next to the Monte Carlo
calls, the heaviest spectral ops next to the delta = 0.45 decides), so
the median falls among the Monte Carlo ops and the tail among the
heaviest spectral ops, both dense regions of the op-time distribution.
"""

from __future__ import annotations

from pathlib import Path

from ..harness import Op
from . import cli_coarse, simulate, spectral
from .simulate import determinism_counts  # noqa: F401  (the traced run asks for it)

PARTS = (cli_coarse, simulate, spectral)
MC_THREADS = tuple(sorted({t for part in PARTS for t in part.MC_THREADS}))
CYCLE_SECONDS = sum(part.CYCLE_SECONDS for part in PARTS)


def build(seed: int, workdir: Path) -> list[Op]:
    cycle: list[Op] = []
    for part in PARTS:
        cycle += part.build(seed, workdir / part.__name__.rsplit(".", 1)[-1])
    return cycle
