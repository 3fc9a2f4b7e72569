"""Small shared numeric helpers."""

from __future__ import annotations

import math

import numpy as np

CEIL_REL_SLACK = 1e-9
# the largest dense table: tensor powers, exact enumeration, value tables
CELL_CAP = 10**8
# array cells one batch may hold: search blocks, Monte Carlo chunks
BLOCK_CELLS = 2 * 10**7


def all_assignments(q: int, h: int) -> np.ndarray:
    """All q^h atom-index tuples, lexicographic, shape (q^h, h)."""
    if h == 0:
        return np.zeros((1, 0), dtype=int)
    grids = np.meshgrid(*[np.arange(q)] * h, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def power_exceeds(base: int, exp: int, cap: int) -> bool:
    """Whether base ** exp > cap (cap >= 1), in exact integers.

    Paper-grid searches reach 49,999 ** 72 and caller inputs far more; a
    base of two or more exceeds the cap from exp = bit_length(cap) on, so
    the power is only computed when it is small.  Messages print such a
    count as ``base^exp``: Python will not print an int of more than 4300
    digits.
    """
    return base > 1 and (exp >= cap.bit_length() or base**exp > cap)


def place_values(q: int, n: int) -> np.ndarray:
    """Place value q^(n-1-i) of coordinate i in the row-major layout (coordinate 0
    most significant): int64 while q^n fits, else Python ints."""
    dtype = np.int64 if q**n <= 2**63 else object
    return np.array([q ** (n - 1 - i) for i in range(n)], dtype=dtype)


def flat_index(idx: np.ndarray, q: int) -> np.ndarray:
    """Row-major flat index of each row of the (m, n) atom-index batch ``idx``
    (coordinate 0 most significant): ``idx @ place_values(q, n)`` by Horner's
    rule in int64, without the integer matmul.  Needs q^n < 2^63."""
    out = np.zeros(idx.shape[0], np.int64)
    for j in range(idx.shape[1]):
        out *= q
        out += idx[:, j]
    return out


def contract_coordinates(values, matrix: np.ndarray, n: int) -> np.ndarray:
    """Apply ``matrix`` to each of the n coordinates of a row-major table.

    out[y] = sum_x prod_i matrix[y_i, x_i] values[x], one coordinate at a
    time; ``values`` holds matrix.shape[1]^n entries, the fresh result
    matrix.shape[0]^n.
    """
    arr = np.array(values, dtype=float).reshape((matrix.shape[1],) * n)
    for _ in range(n):
        arr = np.tensordot(arr, matrix, axes=([0], [1]))
    return arr.ravel()


def ceil_tolerant(x: float, min_value: int | None = None) -> int:
    """Ceiling with a relative slack of 1e-9 below integer boundaries.

    Parameter formulas here are exact in real arithmetic but land a hair
    above integers in floating point (e.g. a quotient that is exactly 3600
    evaluates to 3600.0000000000005); plain ceil would then overshoot by 1.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot take the ceiling of {x}")
    v = math.ceil(x - CEIL_REL_SLACK * max(1.0, abs(x)))
    if min_value is not None and v < min_value:
        return min_value
    return v


def wilson_interval(successes: float, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if n <= 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def log10_from_ln(ln_value: float) -> float:
    return ln_value / math.log(10.0)


def kron_power(a, n: int) -> np.ndarray:
    """Kronecker power a (x) a (x) ... (x) a of n factors, built left to right.

    ``n = 0`` gives the all-ones array of a's rank with one entry.  Each
    factor is ``np.kron``'s product out[i] * a[j] in its order, from an outer
    product with the two index sets interleaved per axis, without kron's
    generic shape handling.
    """
    a = np.asarray(a, dtype=float)
    d = a.ndim
    out = np.ones((1,) * d)
    axes = [ax for i in range(d) for ax in (i, d + i)]
    for _ in range(n):
        shape = tuple(s * t for s, t in zip(out.shape, a.shape))
        out = np.multiply.outer(out, a).transpose(axes).reshape(shape)
    return out


def draw_atoms(rng: np.random.Generator, probs, shape) -> np.ndarray:
    """Atom indices drawn from ``probs``, the values and generator state of
    ``rng.choice(len(probs), size=shape, p=probs)``: ``draw_cells`` on the
    1 x len(probs) table, whose column is the atom."""
    return draw_cells(rng, np.reshape(probs, (1, -1)), shape)[1]


def draw_cells(rng: np.random.Generator, table, shape) -> tuple[np.ndarray, np.ndarray]:
    """Row and column atoms of joint draws from the qa x qb ``table``: the
    values and generator state of
    ``np.divmod(rng.choice(qa * qb, size=shape, p=table.ravel()), qb)``, in the
    smallest unsigned dtype that holds qa * qb - 1.

    ``choice`` draws u = ``rng.random(shape)`` and binary-searches the
    normalized joint CDF; here each CDF entry is compared with u once
    instead.  The K - 1 comparison passes beat the per-element search
    except for large K (a few hundred cells).  Entry j closes a row when
    (j + 1) % qb == 0; since the CDF is nondecreasing, the row of a draw
    is the number of those entries at or below u, and its column the
    count of the others less (qb - 1) times its row.  The column count
    stays below qa * qb, so it cannot wrap before the subtraction.
    ``table`` must be non-negative with a positive sum, which callers'
    spaces guarantee.
    """
    table = np.asarray(table, dtype=float)
    qb = table.shape[1]
    cdf = np.cumsum(table.ravel())
    cdf /= cdf[-1]
    u = rng.random(shape)
    dtype = np.min_scalar_type(len(cdf) - 1)
    rows, cols = np.zeros(shape, dtype), np.zeros(shape, dtype)
    for j, c in enumerate(cdf[:-1]):
        count = rows if (j + 1) % qb == 0 else cols
        count += u >= c
    cols -= (qb - 1) * rows
    return rows, cols
