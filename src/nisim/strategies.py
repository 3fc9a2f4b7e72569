"""Strategies: one party's function from coordinate tuples to [-1, 1].

A strategy evaluates batches of atom-index rows (shape (m, n), coordinate
0 most significant), which is the common currency for exact enumeration
and Monte Carlo paths.  Dense value tables cover small n; structured
strategies (threshold lifts, randomized roundings) subclass and evaluate
lazily so huge coordinate counts stay cheap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ParameterRangeError
from .spaces import FiniteSpace, json_floats, json_list, json_object
from .util import CELL_CAP, flat_index, kron_power, place_values


class Strategy:
    """Base class: a function on n coordinates of a finite space."""

    space: FiniteSpace
    n: int

    def evaluate(self, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_idx(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        if idx.ndim != 2 or idx.shape[1] != self.n:
            raise InputError(f"index batch must have shape (m, {self.n})")
        if idx.dtype.kind not in "iu":
            raise InputError(f"atom indices must be integers, got dtype {idx.dtype}")
        if idx.size and (idx.min() < 0 or idx.max() >= self.space.q):
            raise InputError(f"atom indices must lie in [0, {self.space.q})")
        return idx


class TableStrategy(Strategy):
    """Dense value table over all q^n coordinate tuples (row-major).

    This is also the Fourier layer's value table, ``fourier.ValueTable``.
    """

    def __init__(self, space: FiniteSpace, n: int, values):
        if n < 0:
            raise ParameterRangeError("coordinate count must be nonnegative")
        v = np.asarray(values, dtype=float).ravel()
        if v.shape[0] != space.q**n:
            raise InputError(f"expected {space.q ** n} values, got {v.shape[0]}")
        self.space = space
        self.n = n
        self.values = v

    def evaluate(self, idx: np.ndarray) -> np.ndarray:
        idx = self._check_idx(idx)
        return self.values[flat_index(idx, self.space.q)]

    def weights(self) -> np.ndarray:
        """Product-measure weights, aligned with the value order."""
        return kron_power(self.space.probs, self.n)

    def mean(self) -> float:
        return float(self.weights() @ self.values)

    def norm(self, p: float) -> float:
        """lp norm under the product measure (p = inf gives the max on the support)."""
        if p == math.inf:
            return float(np.abs(self.values).max())
        return float((self.weights() @ np.abs(self.values) ** p) ** (1.0 / p))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "space": {
                "atoms": list(self.space.atoms),
                "probs": self.space.probs.tolist(),
            },
            "values": self.values.tolist(),
        }


def constant_strategy(space: FiniteSpace, n: int, value: float) -> TableStrategy:
    return TableStrategy(space, n, np.full(space.q**n, float(value)))


def dictator_strategy(space: FiniteSpace, n: int, coord: int, values) -> TableStrategy:
    """f(x) = values[x_coord]; handy for tests and demos."""
    v = np.asarray(values, dtype=float)
    if v.shape[0] != space.q:
        raise InputError("need one value per atom")
    digit = np.arange(space.q**n) // place_values(space.q, n)[coord] % space.q
    return TableStrategy(space, n, v[digit])


def strategy_from_json_dict(d: dict) -> TableStrategy:
    """Parse the function JSON format (dense values or sparse coefficients)."""
    for key in ("n", "space"):
        if key not in d:
            raise InputError(f"function JSON is missing key {key!r}")
    sp = d["space"]
    if not isinstance(sp, dict) or "atoms" not in sp or "probs" not in sp:
        raise InputError("function JSON space needs 'atoms' and 'probs'")
    space = FiniteSpace(
        json_list(sp["atoms"], "function JSON space 'atoms'"),
        json_floats(sp["probs"], "function JSON space 'probs'"),
    )
    n = d["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InputError(f"function JSON 'n' must be a nonnegative integer, got {n!r}")
    # q >= 2 and n >= bit_length(cap) already give q**n >= 2**n > cap, so the
    # power is only computed when it is small; the bound on n holds for q = 1 too
    if n >= CELL_CAP.bit_length() or space.q**n > CELL_CAP:
        raise InputError(
            f"function JSON 'n' = {n} is too large: n must stay below "
            f"{CELL_CAP.bit_length()} and {space.q}^n below the cap {CELL_CAP}"
        )
    if "values" in d:
        return TableStrategy(space, n, json_floats(d["values"], "function JSON 'values'"))
    if "coeffs" in d:
        from .fourier import FourierPolynomial, build_basis, inverse_transform

        if not isinstance(d["coeffs"], dict):
            raise InputError("function JSON 'coeffs' must be an object")
        try:
            keys = [int(k) for k in d["coeffs"]]
        except ValueError:
            raise InputError("function JSON 'coeffs' keys must be integers") from None
        values = json_floats(list(d["coeffs"].values()), "function JSON 'coeffs' values")
        top = space.q**n
        if any(k < 0 or k >= top for k in keys):
            raise InputError("coefficient key outside the degree-sequence range")
        return inverse_transform(FourierPolynomial(build_basis(space), n, dict(zip(keys, values))))
    raise InputError("function JSON needs either 'values' or 'coeffs'")


def strategy_from_json(text: str) -> TableStrategy:
    return strategy_from_json_dict(json_object(text, "function JSON"))
