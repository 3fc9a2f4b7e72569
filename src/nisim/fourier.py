"""Fourier analysis on finite product probability spaces.

Functions f in L2(A^n, mu^n) are represented two ways: as dense value
tables (row-major over atom-index tuples, coordinate 0 most significant)
and as sparse coefficient maps over degree sequences sigma in Z_q^n,
relative to a fixed orthonormal basis with the constant function first.
The dense table is the strategy layer's ``TableStrategy``, so a function
the search returns or a file holds goes through the transforms as it is.
Degree sequences are encoded as base-q integers for canonical map keys,
with the place values of ``util.place_values``.

A ``FourierPolynomial`` stores its coefficients once, as a ``keys`` array
(in ``util.key_dtype``: int64 while q^n fits, Python ints past that) and a
``values`` array in one order.  Its ``digits`` matrix, one row per
coefficient in that order, is decoded from the keys on first use and kept;
``degrees`` counts each row's nonzero digits.  All three arrays are
read-only, so polynomials can share them: an operator whose result keeps
every coefficient hands its ``keys`` and ``digits`` over as they are, and
only a result that drops coefficients indexes the three arrays, once, when
it is stored.  The functionals and the restriction plan read ``digits``, so
a polynomial is decoded at most once however many functionals read it.

A restriction groups the coefficients by their surviving and their
restricted digits, each pattern re-encoded as one integer by Horner's rule
(``util.flat_index``), so grouping is a 1-D integer ``np.unique`` whose
order is the lexicographic order of the digit rows.  The restrictions of
one call share one plan (``_RestrictionPlan``: both groupings of the
polynomial's digits, the grouped coefficient matrix and the
character-table factors), which builds the columns of a block of
restrictions at a time.  ``restrict`` runs it on one assignment;
``restriction_influences_at`` streams a batch through it in blocks whose
temporaries (columns and character table) hold at most
``util.SCRATCH_CELLS`` cells, squaring each block's columns and
multiplying them by the support straight into the (|T| x restrictions)
result, so no array holds the coefficients of every restriction at once.
Both check their index rows through ``util.check_atom_rows`` and their
coordinates through ``restricted_coordinates``.

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
from .spaces import FiniteSpace, json_floats
from .strategies import TableStrategy
from .util import (
    CELL_CAP,
    SCRATCH_CELLS,
    as_integer,
    check_atom_rows,
    contract_coordinates,
    flat_index,
    index_digits,
    key_dtype,
    power_exceeds,
    weighted_sum,
)

# perfbench/workloads imports this second name of the dense table
ValueTable = TableStrategy

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
            v = v - float(weighted_sum(mu, v * c)) * c
        norm = math.sqrt(float(weighted_sum(mu, v**2)))
        if norm < GS_RESIDUAL_TOL:
            continue
        chars.append(v / norm)
        if len(chars) == q:
            break
    return OrthonormalBasis(space, np.array(chars))


# -- polynomials ---------------------------------------------------------


def _decode(poly: "FourierPolynomial") -> np.ndarray:
    """Read-only digit matrix of the keys, one row per coefficient in ``keys`` order."""
    digits = index_digits(poly.keys, poly.q, poly.n)
    digits.setflags(write=False)
    return digits


class FourierPolynomial:
    """Sparse coefficient table of a function in L2(A^n, mu^n).

    ``keys`` holds the base-q degree-sequence keys and ``values`` their
    coefficients, in the order the map or the operator gave them;
    coefficients at or below ``COEFF_DROP_TOL`` in magnitude are dropped.
    The coefficients must be finite numbers.  ``basis``, ``n``, ``keys``,
    ``values`` and ``digits`` are read-only attributes, and the arrays are
    read-only too; when nothing drops, the arrays an operator hands in are
    kept as they are, not copied.
    """

    __slots__ = ("_basis", "_n", "_keys", "_values", "_digits")

    def __init__(self, basis: OrthonormalBasis, n: int, coeffs: Mapping[int, float]):
        n = as_integer(n, "coordinate count")
        if n < 0:
            raise ParameterRangeError("coordinate count must be nonnegative")
        values = json_floats(list(coeffs.values()), "coefficients")
        top = basis.q**n
        keys = []
        for k in coeffs:
            k = as_integer(k, "coefficient key")
            if not 0 <= k < top:
                raise InputError("coefficient key outside the degree-sequence range")
            keys.append(k)
        self._store(basis, n, np.array(keys, dtype=key_dtype(basis.q, n)), values)

    def _store(self, basis, n: int, keys: np.ndarray, values: np.ndarray,
               digits: np.ndarray | None = None) -> None:
        kept = np.abs(values) > COEFF_DROP_TOL
        if not kept.all():
            keys, values = keys[kept], values[kept]
            digits = None if digits is None else digits[kept]
        for a in (keys, values, digits):
            if a is not None:
                a.setflags(write=False)
        self._basis, self._n, self._keys, self._values, self._digits = (
            basis, n, keys, values, digits)

    @property
    def basis(self) -> OrthonormalBasis:
        return self._basis

    @property
    def n(self) -> int:
        return self._n

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def digits(self) -> np.ndarray:
        """Read-only (len(keys), n) int64 digit matrix of the keys, row i the
        degree sequence of coefficient i; decoded on first use."""
        if self._digits is None:
            self._digits = _decode(self)
        return self._digits

    @property
    def degrees(self) -> np.ndarray:
        """|sigma| of each coefficient, in ``keys`` order."""
        return np.count_nonzero(self.digits, axis=1)

    @property
    def coeffs(self) -> dict[int, float]:
        """A fresh ``{key: coefficient}`` dict in ``keys`` order, built on each
        access: a copy, so writing to it leaves the polynomial unchanged."""
        return dict(zip(self.keys.tolist(), self.values.tolist()))

    def degree(self) -> int:
        return int(self.degrees.max(initial=0))

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


def _polynomial(basis, n: int, keys: np.ndarray, values: np.ndarray,
                digits: np.ndarray | None = None) -> FourierPolynomial:
    """A polynomial straight from arrays whose keys are known to lie in range
    and whose ``digits``, when given, are the keys' digit rows."""
    poly = FourierPolynomial.__new__(FourierPolynomial)
    poly._store(basis, n, keys, values, digits)
    return poly


def transform(table: TableStrategy, basis: OrthonormalBasis | None = None) -> FourierPolynomial:
    """Coefficients f_hat(sigma) = <f, X_sigma> under the product measure."""
    if basis is None:
        basis = build_basis(table.space)
    if basis.space != table.space:
        raise InputError("basis and value table live on different spaces")
    b = basis.chars * table.space.probs  # b[j, a] = mu(a) X_j(a)
    flat = contract_coordinates(table.values, b, table.n)
    return _polynomial(basis, table.n, np.arange(flat.size), flat)


def inverse_transform(poly: FourierPolynomial) -> TableStrategy:
    """Pointwise values f(x) = sum_sigma f_hat(sigma) X_sigma(x)."""
    q, n = poly.q, poly.n
    if power_exceeds(q, n, CELL_CAP):
        raise ResourceLimitError(f"dense table needs {q}^{n} cells, above the cap {CELL_CAP}")
    arr = np.zeros(q**n)
    arr[poly.keys] = poly.values
    return TableStrategy(poly.basis.space, n, contract_coordinates(arr, poly.basis.chars.T, n))


# -- spectral functionals -------------------------------------------------


def influence(poly: FourierPolynomial, i: int) -> float:
    """Fourier mass on degree sequences with a nonzero entry at coordinate i."""
    if not 0 <= i < poly.n:
        raise ParameterRangeError(f"coordinate {i} outside [0, {poly.n})")
    return float(influences(poly)[i])


def influences(poly: FourierPolynomial) -> np.ndarray:
    """All n coordinate influences at once."""
    values = poly.values
    rows, cols = np.nonzero(poly.digits)
    # bincount adds each coordinate's squares in coefficient order, as a loop would
    return np.bincount(cols, weights=(values * values)[rows], minlength=poly.n).astype(float)


def total_influence(poly: FourierPolynomial) -> float:
    """Sum over sigma of |sigma| * f_hat(sigma)^2."""
    return float(weighted_sum(poly.degrees, poly.values * poly.values))


def degree_tail_mass(poly: FourierPolynomial, d: int) -> float:
    """Fourier mass strictly above degree d."""
    if d < 0:
        raise ParameterRangeError("degree cutoff must be nonnegative")
    return float(np.sum(poly.values[poly.degrees > d] ** 2))


def truncate_degree(poly: FourierPolynomial, d: int) -> FourierPolynomial:
    """Keep coefficients with |sigma| <= d."""
    if d < 0:
        raise ParameterRangeError("degree cutoff must be nonnegative")
    # the dropped coefficients become zeros, which the store drops with the
    # rest; the kept ones are multiplied by 1.0, which leaves their bits
    return _polynomial(poly.basis, poly.n, poly.keys, poly.values * (poly.degrees <= d),
                       poly.digits)


def noise_operator(poly: FourierPolynomial, gamma: float) -> FourierPolynomial:
    """Coefficient-wise multiplier gamma^|sigma|; the mean is untouched.

    The n + 1 powers come from ``math.pow``, whose bits, unlike numpy's
    ``power`` loop, do not follow numpy's CPU dispatch.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterRangeError(f"noise rate must lie in [0, 1], got {gamma}")
    factors = np.array([math.pow(gamma, k) for k in range(poly.n + 1)])[poly.degrees]
    return _polynomial(poly.basis, poly.n, poly.keys, poly.values * factors, poly.digits)


def noise_operator_kernel(table: TableStrategy, gamma: float) -> TableStrategy:
    """Markov-kernel form of the noise operator, applied to a value table.

    Each coordinate is kept with probability gamma and resampled from mu
    otherwise.  Spectrally equivalent to ``noise_operator``; kept as the
    independent route for tests.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterRangeError(f"noise rate must lie in [0, 1], got {gamma}")
    q, mu = table.space.q, table.space.probs
    kernel = gamma * np.eye(q) + (1.0 - gamma) * np.tile(mu, (q, 1))
    return TableStrategy(table.space, table.n, contract_coordinates(table.values, kernel, table.n))


def restrict(
    poly: FourierPolynomial, coords: Iterable[int], assignment: Sequence
) -> FourierPolynomial:
    """Fix the coordinates in ``coords`` to ``assignment`` (atoms or indices).

    Coefficients collapse as
    P_xi_hat(sigma_T) = sum over sigma_H of P_hat(sigma_H o sigma_T) X_sigma_H(xi);
    the result is re-indexed over the surviving coordinates in order.
    """
    H = restricted_coordinates(poly, coords)
    space = poly.basis.space
    xi = [a if isinstance(a, (int, np.integer)) else space.index(a) for a in assignment]
    # an empty row would come out of np.array as floats
    xi = check_atom_rows(np.array([xi], dtype=None if xi else np.int64), len(H), poly.q)
    plan = _RestrictionPlan(poly, H)
    return _polynomial(poly.basis, poly.n - len(H), plan.keys, plan.columns(xi)[:, 0],
                       plan.digits)


def restricted_coordinates(poly: FourierPolynomial, coords: Iterable[int]) -> list[int]:
    """The coordinates ``coords`` sorted, without repeats: ``InputError`` for a
    non-integer, ``ParameterRangeError`` for one outside [0, poly.n)."""
    try:
        H = sorted({operator.index(i) for i in coords})
    except TypeError:
        raise InputError("restricted coordinates must be integers") from None
    if H and (H[0] < 0 or H[-1] >= poly.n):
        raise ParameterRangeError(f"restricted coordinates must lie in [0, {poly.n})")
    return H


class _RestrictionPlan:
    """What every block of restrictions fixing the sorted coordinates ``H``
    shares: the surviving keys (in ``util.key_dtype`` of the surviving
    coordinates) and digit matrix, the coefficients grouped into a
    (surviving pattern x restricted pattern) matrix, and the (coordinate,
    digit >= 1, restricted-pattern rows) factors of the character table.
    Each pattern is one Horner integer, and the 1-D ``np.unique`` of those
    integers sorts the patterns in lexicographic digit order."""

    __slots__ = ("keys", "digits", "grouped", "factors", "chars")

    def __init__(self, poly: FourierPolynomial, H: list[int]):
        T = [i for i in range(poly.n) if i not in H]
        t_cols, h_cols = poly.digits[:, T], poly.digits[:, H]
        self.keys, t_first, t_of = np.unique(
            flat_index(t_cols, poly.q), return_index=True, return_inverse=True)
        _, h_first, h_of = np.unique(
            flat_index(h_cols, poly.q), return_index=True, return_inverse=True)
        self.digits, h_digits = t_cols[t_first], h_cols[h_first]
        self.grouped = np.zeros((len(self.digits), len(h_digits)))
        self.grouped[t_of, h_of] = poly.values
        self.factors = [
            (j, d, rows) for j in range(len(H)) for d in range(1, poly.q)
            if (rows := np.flatnonzero(h_digits[:, j] == d)).size
        ]
        self.chars = poly.basis.chars

    def columns(self, xi: np.ndarray, out: np.ndarray | None = None,
                table: np.ndarray | None = None) -> np.ndarray:
        """Coefficients of the restrictions to the rows of ``xi``, one column
        each, in ``out`` when given.  The character table (restricted patterns
        x rows, in ``table`` when given) is built one factor at a time,
        multiplying the rows holding that digit by one gathered row of
        ``chars``; digit 0 is skipped, as ``chars[0]`` is 1."""
        if table is None:
            table = np.ones((self.grouped.shape[1], len(xi)))
        else:
            table.fill(1.0)
        for j, d, rows in self.factors:
            table[rows] *= self.chars[d, xi[:, j]]
        return np.matmul(self.grouped, table, out=out)


def restriction_influences_at(
    poly: FourierPolynomial, H, xi_atoms: np.ndarray
) -> np.ndarray:
    """Influence of every surviving coordinate for each restriction in a batch.

    Returns shape (m, n - |H|), columns ordered by surviving coordinate.
    ``xi_atoms`` must be an (m, |H|) batch of integer atom indices in [0, q),
    one column per restricted coordinate in sorted order.
    """
    H = restricted_coordinates(poly, H)
    xi = check_atom_rows(xi_atoms, len(H), poly.q)
    plan = _RestrictionPlan(poly, H)
    support = (plan.digits != 0).T.astype(float)
    out = np.empty((len(support), len(xi)))
    t, h = plan.grouped.shape
    step = max(1, min(len(xi), SCRATCH_CELLS // max(1, t, h, len(support))))
    table, squares = np.empty((h, step)), np.empty((t, step))
    for lo in range(0, len(xi), step):
        part = xi[lo : lo + step]
        block = plan.columns(part, squares[:, : len(part)], table[:, : len(part)])
        block *= block
        # support (|T| x patterns) times squares (patterns x block): with the
        # restrictions as the product's rows instead, each BLAS thread packs
        # its own patterns x block/threads panel of the squares
        np.matmul(support, block, out=out[:, lo : lo + len(part)])
    return out.T


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
