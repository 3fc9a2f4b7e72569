"""Fourier analysis on finite product probability spaces.

Functions f in L2(A^n, mu^n) are represented two ways: as dense value
tables (row-major over atom-index tuples, coordinate 0 most significant)
and as sparse coefficient maps over degree sequences sigma in Z_q^n,
relative to a fixed orthonormal basis with the constant function first.
The dense table is the strategy layer's ``TableStrategy``, which this
module also exports as ``ValueTable``, so a function the search returns
or a file holds goes through the transforms as it is.  Degree sequences
are encoded as base-q integers for canonical map keys, with the place
values of ``util.place_values``.

A ``FourierPolynomial`` stores its coefficients once, as a ``keys`` array
(int64 while q^n fits, Python ints past that) and a ``values`` array in
one order.  The functionals, the inverse transform and the restriction
routine read those arrays and decode the keys into a digit matrix, one
row per coefficient in that order; the operators build their results
from arrays too.

Coordinates are 0-based throughout.

The noise operator is implemented spectrally (coefficient multiplier
gamma^|sigma|); the Markov-kernel route is provided separately so tests
can check the equivalence rather than rely on it.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, ParameterRangeError, ResourceLimitError
from .spaces import FiniteSpace
from .strategies import TableStrategy as ValueTable
from .util import CELL_CAP, contract_coordinates, place_values, power_exceeds

ORTHONORMALITY_TOL = 1e-10
GS_RESIDUAL_TOL = 1e-12
COEFF_DROP_TOL = 1e-14


# -- basis --------------------------------------------------------------


class OrthonormalBasis:
    """Orthonormal basis of L2(A, mu) with the constant function first.

    ``chars[j]`` is the j-th basis function as a vector over atoms.
    """

    __slots__ = ("space", "chars")

    def __init__(self, space: FiniteSpace, chars: np.ndarray):
        self.space = space
        chars = np.asarray(chars, dtype=float)
        if chars.shape != (space.q, space.q):
            raise InputError("need exactly q basis functions over q atoms")
        gram = (chars * space.probs) @ chars.T
        if not np.allclose(gram, np.eye(space.q), atol=ORTHONORMALITY_TOL):
            raise InputError("basis functions are not orthonormal under mu")
        if not np.allclose(chars[0], 1.0, atol=ORTHONORMALITY_TOL):
            raise InputError("the first basis function must be identically 1")
        chars.setflags(write=False)
        self.chars = chars

    @property
    def q(self) -> int:
        return self.space.q


def build_basis(space: FiniteSpace) -> OrthonormalBasis:
    """Gram-Schmidt over {1, indicators in atom order}, skipping dependents.

    Deterministic: candidate order is fixed, and a candidate is skipped
    when its residual norm after projection falls below 1e-12.
    """
    q = space.q
    mu = space.probs
    candidates = [np.ones(q)]
    for a in range(q):
        e = np.zeros(q)
        e[a] = 1.0
        candidates.append(e)
    chars: list[np.ndarray] = []
    for cand in candidates:
        v = cand.astype(float)
        for c in chars:
            v = v - float(mu @ (v * c)) * c
        norm = math.sqrt(float(mu @ v**2))
        if norm < GS_RESIDUAL_TOL:
            continue
        chars.append(v / norm)
        if len(chars) == q:
            break
    return OrthonormalBasis(space, np.array(chars))


# -- degree-sequence encoding -------------------------------------------


def sigma_encode(sigma: Sequence[int], q: int) -> int:
    key = 0
    for s in sigma:
        key = key * q + int(s)
    return key


def sigma_decode(key: int, q: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        key, r = divmod(key, q)
        digits.append(r)
    return tuple(reversed(digits))


def _decode(poly: "FourierPolynomial") -> np.ndarray:
    """Digit matrix of the keys, one row per coefficient in ``keys`` order."""
    places = place_values(poly.q, poly.n)
    return (poly.keys[:, None] // places % poly.q).astype(np.int64)


def _degrees(poly: "FourierPolynomial") -> np.ndarray:
    """|sigma| of each coefficient, in ``keys`` order."""
    return np.count_nonzero(_decode(poly), axis=1)


# -- polynomials ---------------------------------------------------------


class FourierPolynomial:
    """Sparse coefficient table of a function in L2(A^n, mu^n).

    ``keys`` holds the base-q degree-sequence keys and ``values`` their
    coefficients, in the order the map or the operator gave them;
    coefficients at or below ``COEFF_DROP_TOL`` in magnitude are dropped.
    """

    __slots__ = ("basis", "n", "keys", "values")

    def __init__(self, basis: OrthonormalBasis, n: int, coeffs: Mapping[int, float]):
        top = basis.q**n
        keys = []
        for k in coeffs:
            try:
                k = operator.index(k)
            except TypeError:
                raise InputError(f"coefficient key {k!r} is not an integer") from None
            if not 0 <= k < top:
                raise InputError("coefficient key outside the degree-sequence range")
            keys.append(k)
        self._store(
            basis, n, np.array(keys, dtype=place_values(basis.q, n).dtype),
            np.array(list(coeffs.values()), dtype=float),
        )

    def _store(self, basis, n: int, keys: np.ndarray, values: np.ndarray) -> None:
        kept = np.abs(values) > COEFF_DROP_TOL
        self.basis = basis
        self.n = n
        self.keys = keys[kept]
        self.values = values[kept]

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def coeffs(self) -> dict[int, float]:
        """A fresh ``{key: coefficient}`` dict in ``keys`` order, built on each
        access: a copy, so writing to it leaves the polynomial unchanged."""
        return dict(zip(self.keys.tolist(), self.values.tolist()))

    def degree(self) -> int:
        return int(_degrees(self).max(initial=0))

    def mean(self) -> float:
        at = np.flatnonzero(self.keys == 0)
        return float(self.values[at[0]]) if at.size else 0.0

    # Python's sum, not np.sum, in both sums below: its left-to-right float
    # rounding, and the int 0 of an empty sum, are what the CLI prints
    def variance(self) -> float:
        rest = self.values[self.keys != 0]
        return sum((rest * rest).tolist())

    def energy(self) -> float:
        """Sum of squared coefficients (equals E[f^2] by Parseval)."""
        return sum((self.values * self.values).tolist())

    def l2_norm(self) -> float:
        return math.sqrt(self.energy())


def _polynomial(basis, n: int, keys: np.ndarray, values: np.ndarray) -> FourierPolynomial:
    """A polynomial straight from arrays whose keys are known to lie in range."""
    poly = FourierPolynomial.__new__(FourierPolynomial)
    poly._store(basis, n, keys, values)
    return poly


def transform(table: ValueTable, basis: OrthonormalBasis | None = None) -> FourierPolynomial:
    """Coefficients f_hat(sigma) = <f, X_sigma> under the product measure."""
    if basis is None:
        basis = build_basis(table.space)
    if basis.space != table.space:
        raise InputError("basis and value table live on different spaces")
    b = basis.chars * table.space.probs  # b[j, a] = mu(a) X_j(a)
    flat = contract_coordinates(table.values, b, table.n)
    return _polynomial(basis, table.n, np.arange(flat.size), flat)


def inverse_transform(poly: FourierPolynomial) -> ValueTable:
    """Pointwise values f(x) = sum_sigma f_hat(sigma) X_sigma(x)."""
    q, n = poly.q, poly.n
    if power_exceeds(q, n, CELL_CAP):
        raise ResourceLimitError(f"dense table needs {q}^{n} cells, above the cap {CELL_CAP}")
    arr = np.zeros(q**n)
    arr[poly.keys] = poly.values
    return ValueTable(poly.basis.space, n, contract_coordinates(arr, poly.basis.chars.T, n))


# -- spectral functionals -------------------------------------------------


def influence(poly: FourierPolynomial, i: int) -> float:
    """Fourier mass on degree sequences with a nonzero entry at coordinate i."""
    if not 0 <= i < poly.n:
        raise ParameterRangeError(f"coordinate {i} outside [0, {poly.n})")
    return float(influences(poly)[i])


def influences(poly: FourierPolynomial) -> np.ndarray:
    """All n coordinate influences at once."""
    values = poly.values
    rows, cols = np.nonzero(_decode(poly))
    # bincount adds each coordinate's squares in coefficient order, as a loop would
    return np.bincount(cols, weights=(values * values)[rows], minlength=poly.n).astype(float)


def total_influence(poly: FourierPolynomial) -> float:
    """Sum over sigma of |sigma| * f_hat(sigma)^2."""
    return float(_degrees(poly) @ (poly.values * poly.values))


def degree_tail_mass(poly: FourierPolynomial, d: int) -> float:
    """Fourier mass strictly above degree d."""
    if d < 0:
        raise ParameterRangeError("degree cutoff must be nonnegative")
    return float(np.sum(poly.values[_degrees(poly) > d] ** 2))


def truncate_degree(poly: FourierPolynomial, d: int) -> FourierPolynomial:
    """Keep coefficients with |sigma| <= d."""
    if d < 0:
        raise ParameterRangeError("degree cutoff must be nonnegative")
    kept = _degrees(poly) <= d
    return _polynomial(poly.basis, poly.n, poly.keys[kept], poly.values[kept])


def noise_operator(poly: FourierPolynomial, gamma: float) -> FourierPolynomial:
    """Coefficient-wise multiplier gamma^|sigma|; the mean is untouched."""
    if not 0.0 <= gamma <= 1.0:
        raise ParameterRangeError(f"noise rate must lie in [0, 1], got {gamma}")
    return _polynomial(poly.basis, poly.n, poly.keys, poly.values * gamma ** _degrees(poly))


def noise_operator_kernel(table: ValueTable, gamma: float) -> ValueTable:
    """Markov-kernel form of the noise operator, applied to a value table.

    Each coordinate is kept with probability gamma and resampled from mu
    otherwise.  Spectrally equivalent to ``noise_operator``; kept as the
    independent route for tests.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterRangeError(f"noise rate must lie in [0, 1], got {gamma}")
    q, mu = table.space.q, table.space.probs
    kernel = gamma * np.eye(q) + (1.0 - gamma) * np.tile(mu, (q, 1))
    return ValueTable(table.space, table.n, contract_coordinates(table.values, kernel, table.n))


def restrict(
    poly: FourierPolynomial, coords: Iterable[int], assignment: Sequence
) -> FourierPolynomial:
    """Fix the coordinates in ``coords`` to ``assignment`` (atoms or indices).

    Coefficients collapse as
    P_xi_hat(sigma_T) = sum over sigma_H of P_hat(sigma_H o sigma_T) X_sigma_H(xi);
    the result is re-indexed over the surviving coordinates in order.
    """
    H = sorted(set(int(i) for i in coords))
    if any(i < 0 or i >= poly.n for i in H):
        raise ParameterRangeError(f"restricted coordinates must lie in [0, {poly.n})")
    assignment = list(assignment)
    if len(assignment) != len(H):
        raise InputError(f"need {len(H)} assigned atoms, got {len(assignment)}")
    space = poly.basis.space
    xi = [
        a if isinstance(a, (int, np.integer)) else space.index(a) for a in assignment
    ]
    for a in xi:
        if not 0 <= a < space.q:
            raise InputError(f"atom index {a} outside the space")
    keys, _, columns = restriction_columns(poly, H, np.array([xi], dtype=np.int64))
    return _polynomial(poly.basis, poly.n - len(H), keys, columns[:, 0])


def restriction_columns(
    poly: FourierPolynomial, H: list[int], xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restrictions fixing the sorted coordinates ``H`` to each row of atom indices ``xi``.

    Returns the surviving keys, their digit matrix and their coefficients,
    one column per restriction.  Coefficients are grouped by surviving and
    by restricted pattern; the character table (restricted patterns x
    restrictions) multiplies only at nonzero digits, as ``chars[0]`` is 1,
    and is built in blocks no larger than the columns it feeds.
    """
    digits = _decode(poly)
    T = [i for i in range(poly.n) if i not in H]
    t_digits, t_of = np.unique(digits[:, T], axis=0, return_inverse=True)
    h_digits, h_of = np.unique(digits[:, H], axis=0, return_inverse=True)
    grouped = np.zeros((len(t_digits), len(h_digits)))
    grouped[t_of, h_of] = poly.values
    nonzero = [np.nonzero(h_digits[:, j])[0] for j in range(len(H))]
    columns = np.empty((len(t_digits), len(xi)))
    blocks = max(1, -(-len(h_digits) // max(len(t_digits), 1)))
    lo = 0
    for part in np.array_split(xi, blocks):
        table = np.ones((len(h_digits), len(part)))
        for j, rows in enumerate(nonzero):
            table[rows] *= poly.basis.chars[h_digits[rows, j][:, None], part[:, j]]
        np.matmul(grouped, table, out=columns[:, lo : lo + len(part)])
        lo += len(part)
    places = place_values(poly.q, len(T))
    return t_digits.astype(places.dtype) @ places, t_digits, columns


# -- hypercontractivity ----------------------------------------------------


def hypercontractivity_constant(alpha: float, p: float) -> float:
    """C_p(alpha) = (A^{1/p'} - A^{-1/p'}) / (A^{1/p} - A^{-1/p}), A = (1-alpha)/alpha.

    alpha above 1/2 is clamped to 1/2, where the limit value is p - 1.
    """
    if p < 2:
        raise ParameterRangeError(f"norm order must be at least 2, got {p}")
    if not 0.0 < alpha <= 1.0:
        raise ParameterRangeError(f"minimum atom probability must lie in (0, 1], got {alpha}")
    alpha = min(alpha, 0.5)
    if alpha == 0.5:
        return p - 1.0
    A = (1.0 - alpha) / alpha
    pp = p / (p - 1.0)
    return (A ** (1.0 / pp) - A ** (-1.0 / pp)) / (A ** (1.0 / p) - A ** (-1.0 / p))


def hypercontractive_norm_bound(poly: FourierPolynomial, norm_order: float) -> float:
    """Upper bound C_p(alpha)^{d/2} * ||f||_2 on the lp norm of a degree-d polynomial."""
    c = hypercontractivity_constant(poly.basis.space.alpha, norm_order)
    return c ** (poly.degree() / 2.0) * poly.l2_norm()


def concentration_bound(d: int, alpha: float, t: float) -> float:
    """Tail bound exp(-c t^{2/d}) with c = alpha*d/e, valid for t > e^{d/2}."""
    if d < 1:
        raise ParameterRangeError("degree must be at least 1")
    c = alpha * d / math.e
    return math.exp(-c * t ** (2.0 / d))
