"""Small shared numeric helpers.

One rule for sums: every weighted sum that is printed or judged goes
through ``weighted_sum``, an elementwise product and then numpy's add
reduction, whose order follows the arrays' shapes alone.  A BLAS dot
rounds by the OpenBLAS kernel and the size of its thread pool, so a number
summed by BLAS depends on the machine.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InputError

CEIL_REL_SLACK = 1e-9
# the largest dense table: tensor powers, exact enumeration, value tables
CELL_CAP = 10**8
# array cells one batch may hold: search blocks, Monte Carlo chunks
BLOCK_CELLS = 2 * 10**7
# array cells one temporary inside a batch may hold: restriction blocks, row
# blocks of a Monte Carlo chunk.  The allocator keeps freed temporaries
# resident, so this bounds the working set; blocks this size still keep BLAS
# and the per-block numpy calls efficient
SCRATCH_CELLS = 2**17


def all_assignments(q: int, h: int) -> np.ndarray:
    """All q^h atom-index tuples, lexicographic, shape (q^h, h): the digits of
    every row-major flat index in order."""
    return index_digits(np.arange(q**h), q, h)


def power_exceeds(base: int, exp: int, cap: int) -> bool:
    """Whether base ** exp > cap (cap >= 1), in exact integers.

    Paper-grid searches reach 49,999 ** 72 and caller inputs far more; a
    base of two or more exceeds the cap from exp = bit_length(cap) on, so
    the power is only computed when it is small.  Messages print such a
    count as ``base^exp``: Python will not print an int of more than 4300
    digits.
    """
    return base > 1 and (exp >= cap.bit_length() or base**exp > cap)


def key_dtype(q: int, n: int):
    """dtype of flat indices into q^n cells: int64 while q^n <= 2^63 (the largest
    index, q^n - 1, fits), else object for Python ints."""
    return object if power_exceeds(q, n, 2**63) else np.int64


def place_values(q: int, n: int) -> np.ndarray:
    """Place value q^(n-1-i) of coordinate i in the row-major layout (coordinate 0
    most significant), in ``key_dtype(q, n)``."""
    return np.array([q ** (n - 1 - i) for i in range(n)], dtype=key_dtype(q, n))


def flat_index(idx: np.ndarray, q: int) -> np.ndarray:
    """Row-major flat index of each row of the (m, n) atom-index batch ``idx``
    (coordinate 0 most significant): ``idx @ place_values(q, n)`` by Horner's
    rule in ``key_dtype(q, n)``, without the integer matmul.  Each step stays
    below q^n, so int64 never wraps."""
    out = np.zeros(idx.shape[0], key_dtype(q, idx.shape[1]))
    for j in range(idx.shape[1]):
        out *= q
        out += idx[:, j]
    return out


def index_digits(flat: np.ndarray, q: int, n: int) -> np.ndarray:
    """The (m, n) int64 digit matrix of the row-major flat indices ``flat``
    (``flat_index``'s inverse), coordinate 0 first.  One (m, n) quotient
    array, reduced mod q in place."""
    digits = flat[:, None] // place_values(q, n)
    digits %= q
    return digits.astype(np.int64, copy=False)


def as_integer(value, what: str) -> int:
    """``value`` as a Python int through ``operator.index``; ``InputError``
    when it is not an integer, a float such as 3.5 or 3.0 included."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} {value!r} is not an integer") from None


def check_atom_rows(idx, width: int, q: int) -> np.ndarray:
    """``idx`` as an array, after checking that it is an (m, width) batch of
    integer atom indices in [0, q); ``InputError`` otherwise."""
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[1] != width:
        raise InputError(f"index batch must have shape (m, {width})")
    if idx.dtype.kind not in "iu":
        raise InputError(f"atom indices must be integers, got dtype {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= q):
        raise InputError(f"atom indices must lie in [0, {q})")
    return idx


def weighted_sum(a, b) -> np.ndarray:
    """sum(a * b) along the last axis, rounded the same on every machine.

    Every printed or judged weighted sum goes through here (module
    docstring): the bits follow the shapes alone, not the BLAS kernel, its
    thread count or numpy's CPU dispatch.  BLAS and LAPACK remain at these
    sites only, which a tier-1 test lists:

    - ranking: ``decision._box_lp_max``'s window offsets,
      ``decision._alternate``, and the knapsack values of the oracle's
      vertex bound and of ``decision._judge``'s pruning; the judge
      computes its winner's value here;
    - the restriction products ``fourier._RestrictionPlan.columns`` and
      ``fourier.restriction_influences_at``: about half of a spectral
      cycle's time, where a fixed-order product costs 5 to 13 times as much;
    - LAPACK: the SVD behind rho (``maxcorr``);
    - ``fourier.OrthonormalBasis``' Gram check, judged to 1e-10.
    """
    return np.add.reduce(np.multiply(a, b), -1)


def contract_coordinates(values, matrix: np.ndarray, n: int) -> np.ndarray:
    """Apply ``matrix`` to each of the n coordinates of a row-major table.

    out[y] = sum_x prod_i matrix[y_i, x_i] values[x], one coordinate at a
    time; ``values`` holds matrix.shape[1]^n entries, the fresh result
    matrix.shape[0]^n.  A coordinate's sum over its input atoms x is added
    in place in the order x = 0, 1, ..., so it rounds the same on every
    machine, and no temporary outgrows the result.  Each step writes the
    new coordinate first, where its rows are contiguous, and the next
    step's reshape moves it last.
    """
    arr = np.array(values, dtype=float).reshape((matrix.shape[1],) * n)
    for _ in range(n):
        arr = arr.reshape(matrix.shape[1], -1)
        out = np.multiply.outer(matrix[:, 0], arr[0])
        for x in range(1, len(arr)):
            out += np.multiply.outer(matrix[:, x], arr[x])
        arr = out.T
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


def wilson_interval(successes: float, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion (z = 1.96)."""
    if n <= 0:
        return 0.0, 1.0
    z = 1.96
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def log10_from_ln(ln_value: float) -> float:
    return ln_value / math.log(10.0)


def log_add_exp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) in ``math``, by ``np.logaddexp``'s own formula:
    x + log 2 when x == y (infinities of one sign included), else the
    larger value plus log1p(exp(-|x - y|))."""
    if x == y:
        return x + math.log(2.0)
    diff = x - y
    if diff > 0:
        return x + math.log1p(math.exp(-diff))
    return y + math.log1p(math.exp(diff))  # nan when either is nan


def kron_power(a, n: int) -> np.ndarray:
    """Kronecker power a (x) a (x) ... (x) a of n factors, built left to right
    by ``kron_factor``.

    ``n = 0`` gives the all-ones array of a's rank with one entry.
    """
    a = np.asarray(a, dtype=float)
    out = np.ones((1,) * a.ndim)
    for _ in range(n):
        out = kron_factor(out, a)
    return out


def kron_factor(out: np.ndarray, a: np.ndarray) -> np.ndarray:
    """out (x) a for float arrays of one rank: ``kron_power``'s step, so
    ``kron_factor(kron_power(a, n), a)`` is ``kron_power(a, n + 1)`` bit for bit.

    ``np.kron``'s product out[i] * a[j] in its order, from an outer product
    with the two index sets interleaved per axis, without kron's generic
    shape handling.
    """
    d = a.ndim
    axes = [ax for i in range(d) for ax in (i, d + i)]
    shape = tuple(s * t for s, t in zip(out.shape, a.shape))
    return np.multiply.outer(out, a).transpose(axes).reshape(shape)


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
    stays below qa * qb, so it cannot wrap before the subtraction.  The
    uniforms are drawn in blocks of whole rows (along the first axis) of at
    most ``SCRATCH_CELLS`` cells: ``random`` fills row-major, so the blocks
    are the one call's stream, and the temporaries stay block-sized.
    ``table`` must be non-negative with a positive sum, which callers'
    spaces guarantee.
    """
    table = np.asarray(table, dtype=float)
    qb = table.shape[1]
    cdf = np.cumsum(table.ravel())
    cdf /= cdf[-1]
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    dtype = np.min_scalar_type(len(cdf) - 1)
    rows, cols = np.zeros(shape, dtype), np.zeros(shape, dtype)
    step = max(1, SCRATCH_CELLS // max(1, math.prod(shape[1:])))
    u = np.empty((min(step, shape[0]), *shape[1:]))
    mask = np.empty(u.shape, bool)
    for lo in range(0, shape[0], step):
        r, c = rows[lo : lo + step], cols[lo : lo + step]
        ub, mb = u[: len(r)], mask[: len(r)]
        rng.random(out=ub)
        for j, cj in enumerate(cdf[:-1]):
            count = r if (j + 1) % qb == 0 else c
            count += np.greater_equal(ub, cj, out=mb)
        c -= (qb - 1) * r
    return rows, cols
