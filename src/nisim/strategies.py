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
from .util import (CELL_CAP, as_integer, check_atom_rows, flat_index, kron_power, power_exceeds,
                   weighted_sum)


class Strategy:
    """Base class: a function on n coordinates of a finite space."""

    space: FiniteSpace
    n: int

    def evaluate(self, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_idx(self, idx: np.ndarray) -> np.ndarray:
        return check_atom_rows(idx, self.n, self.space.q)


class TableStrategy(Strategy):
    """Dense value table over all q^n coordinate tuples (row-major); also the
    Fourier layer's value table."""

    def __init__(self, space: FiniteSpace, n: int, values):
        if as_integer(n, "coordinate count") < 0:
            raise ParameterRangeError("coordinate count must be nonnegative")
        v = np.asarray(values, dtype=float).ravel()
        if v.shape[0] != space.q**n:
            raise InputError(f"expected {space.q}^{n} values, got {v.shape[0]}")
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
        return float(weighted_sum(self.weights(), self.values))

    def norm(self, p: float) -> float:
        """lp norm under the product measure (p = inf gives the max on the support).

        Powers come from ``math.pow``, whose bits do not follow numpy's CPU dispatch.
        """
        if p == math.inf:
            return float(np.abs(self.values).max())
        powers = [math.pow(v, p) for v in np.abs(self.values).tolist()]
        return math.pow(weighted_sum(self.weights(), powers), 1.0 / p)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "space": {
                "atoms": list(self.space.atoms),
                "probs": self.space.probs.tolist(),
            },
            "values": self.values.tolist(),
        }


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
    # the bound on n holds for q = 1 too, where q^n never exceeds the cap
    if n >= CELL_CAP.bit_length() or power_exceeds(space.q, n, CELL_CAP):
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
        seen = {}  # coefficient -> the key that named it
        for k in d["coeffs"]:
            if not (isinstance(k, str) and k.isascii() and k.isdigit()):
                raise InputError(f"function JSON 'coeffs' key {k!r} must be ASCII digits 0-9")
            digits = k.lstrip("0") or "0"
            # keys lie below q^n <= CELL_CAP, and int() refuses more than 4300 digits
            if len(digits) > len(str(CELL_CAP)):
                raise InputError("coefficient key outside the degree-sequence range")
            key = int(digits)
            if key in seen:
                raise InputError(
                    f"function JSON 'coeffs' keys {seen[key]!r} and {k!r} name one coefficient"
                )
            seen[key] = k
        values = json_floats(list(d["coeffs"].values()), "function JSON 'coeffs' values")
        return inverse_transform(FourierPolynomial(build_basis(space), n, dict(zip(seen, values))))
    raise InputError("function JSON needs either 'values' or 'coeffs'")


def strategy_from_json(text: str) -> TableStrategy:
    return strategy_from_json_dict(json_object(text, "function JSON"))
