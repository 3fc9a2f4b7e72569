"""Shared test helpers."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from nisim import JointDistribution, ParameterRangeError, TableStrategy
from nisim.util import all_assignments

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def outputs_at_blas_threads():
    """Run ``code`` in a fresh interpreter with a 1- and then a 2-thread BLAS
    pool; returns the two stdouts as bytes."""

    def run(code: str) -> list[bytes]:
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
            outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True).stdout)
        return outs

    return run


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` traces (numpy's array buffers
    included) while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sigma_encode(sigma, q: int) -> int:
    """Base-q key of the degree sequence ``sigma``, coordinate 0 most
    significant: the scalar oracle for the library's key layout."""
    key = 0
    for s in sigma:
        key = key * q + int(s)
    return key


def sigma_decode(key: int, q: int, n: int) -> tuple[int, ...]:
    """The n base-q digits of ``key``, coordinate 0 first (``sigma_encode``'s inverse)."""
    digits = []
    for _ in range(n):
        key, r = divmod(key, q)
        digits.append(r)
    return tuple(reversed(digits))


def constant_table(space, n: int, value: float) -> TableStrategy:
    """The table that is ``value`` on all q^n rows."""
    return TableStrategy(space, n, np.full(space.q**n, float(value)))


def dictator_table(space, n: int, coord: int, values) -> TableStrategy:
    """The table f(x) = values[x_coord]: ``all_assignments`` lists the rows in
    the table's row-major order."""
    digit = all_assignments(space.q, n)[:, coord]
    return TableStrategy(space, n, np.asarray(values, dtype=float)[digit])


@dataclass(frozen=True)
class GaussianPair:
    """Mean-zero unit-variance pair with covariance [[1, rho], [rho, 1]]."""

    rho: float

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterRangeError(f"correlation must lie in [-1, 1], got {self.rho}")

    def sample(self, n: int, seed=0) -> tuple[np.ndarray, np.ndarray]:
        """n correlated draws; identical seed gives identical draws."""
        rng = np.random.default_rng(seed)
        g1 = rng.standard_normal(n)
        z = rng.standard_normal(n)
        g2 = self.rho * g1 + math.sqrt(max(0.0, 1.0 - self.rho**2)) * z
        return g1, g2


def merge_rows(dist: JointDistribution, i: int, j: int) -> JointDistribution:
    """Collapse two row atoms into one (data-processing on Alice's side)."""
    qa, _ = dist.shape
    if not (0 <= i < qa and 0 <= j < qa and i != j):
        raise ParameterRangeError(f"need two distinct row indices below {qa}")
    i, j = min(i, j), max(i, j)
    t = dist.table.copy()
    t[i, :] += t[j, :]
    t = np.delete(t, j, axis=0)
    atoms = list(dist.row_space.atoms)
    merged = atoms[i] + "+" + atoms.pop(j)
    atoms[i] = merged
    return JointDistribution(atoms, dist.col_space.atoms, t)
