"""Independent certificates for the outputs the benchmark times.

Nothing here calls into ``nisim``: every reference is recomputed from the
raw source table, the value table or the coefficient map with plain
numpy, so a check cannot inherit a defect from the code it checks.  Each
check returns ``None`` when the output is certified and a one-line reason
otherwise.

Verdicts are judged by certificates, never by equality with an earlier
output: an ACCEPT must carry a witness that meets the thresholds, a
maximal-correlation-ceiling REJECT must not be contradicted by the
ceiling recomputed here, and a query built around a certified witness
must ACCEPT.  A bounded-depth REJECT of any other query carries no
guarantee, so it is never a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

TOL = 1e-9
# Monte Carlo estimates must fall within this many standard errors of
# their reference (plus the Berry-Esseen allowance for lifted pairs).
MC_Z = 6.0


# -- sources ---------------------------------------------------------------


def marginals(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return table.sum(axis=1), table.sum(axis=0)


def tensor_weights(table: np.ndarray, n: int):
    """Joint weights of the n-fold product and the two marginal weight vectors."""
    pa, pb = marginals(table)
    W, wa, wb = table, pa, pb
    for _ in range(n - 1):
        W = np.kron(W, table)
        wa = np.kron(wa, pa)
        wb = np.kron(wb, pb)
    return W, wa, wb


def max_correlation(table: np.ndarray) -> float:
    """Second singular value of mu(x,y)/sqrt(mu_A(x) mu_B(y))."""
    pa, pb = marginals(table)
    s = np.linalg.svd(table / np.sqrt(np.outer(pa, pb)), compute_uv=False)
    return float(min(max(s[1], 0.0), 1.0)) if len(s) > 1 else 0.0


def pair_moments(table: np.ndarray, n: int, f: np.ndarray, g: np.ndarray):
    """E[f], E[g] and E[f g] of table strategies on n copies, by axis contraction.

    Contracting one coordinate at a time never forms the q^n x q^n product
    table, so this also serves n = 10 on 3x3 sources.
    """
    qa, qb = table.shape
    pa, pb = marginals(table)
    u = np.asarray(g, dtype=float).reshape((qb,) * n)
    ef = np.asarray(f, dtype=float).reshape((qa,) * n)
    eg = np.asarray(g, dtype=float).reshape((qb,) * n)
    for _ in range(n):
        u = np.tensordot(u, table, axes=([0], [1]))
        ef = np.tensordot(ef, pa, axes=([0], [0]))
        eg = np.tensordot(eg, pb, axes=([0], [0]))
    return float(ef), float(eg), float(np.asarray(f, dtype=float) @ np.asarray(u).ravel())


# -- verdicts --------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """One gap query as the generator built it.

    ``target`` is None for a balanced DSBS query (``decide_gap_nis``) and
    the moments (E[U], E[V], E[UV]) of a general 2x2 target otherwise.
    ``certified`` marks a query whose target was built from a witness the
    benchmark verified at a depth the query searches, so it must ACCEPT.
    """

    table: np.ndarray
    delta: float
    n_search: int
    rho: float = 0.0
    target: tuple[float, float, float] | None = None
    certified: bool = False


def search_frame(q: Query):
    """Centres, correlation goal and sign of the maximised product.

    Case II targets (E[UV] < E[U]E[V]) are searched with the second party
    negated, as in the paper's antipodal threshold form.
    """
    if q.target is None:
        return (0.0, 0.0), q.rho, 1.0
    eu, ev, euv = q.target
    if euv >= eu * ev:
        return (eu, ev), euv, 1.0
    return (eu, -ev), -euv, -1.0


def thresholds(delta: float):
    """Mean window (cap plus slack) and the correlation margin below the goal."""
    return 8.0 * delta / 3.0 + delta * delta / 5.0, 3.0 * delta + delta * delta / 4.0


def ceiling(rho0: float, win_a, win_b) -> float:
    """Upper bound on E[fg] for [-1,1]-valued pairs with means in the windows."""
    corners = max(a * b for a in win_a for b in win_b)

    def closest_to_zero(w):
        return 0.0 if w[0] <= 0.0 <= w[1] else min(abs(w[0]), abs(w[1]))

    a0, b0 = closest_to_zero(win_a), closest_to_zero(win_b)
    return corners + rho0 * math.sqrt((1 - a0 * a0) * (1 - b0 * b0))


def check_verdict(q: Query, v: dict) -> str | None:
    """Certify a verdict given as the library's or the CLI's dict form."""
    (cu, cv), goal, sign = search_frame(q)
    window, margin = thresholds(q.delta)
    floor = goal - margin
    decision = v.get("decision")
    if decision == "ACCEPT":
        n = v.get("n_used")
        if not isinstance(n, int) or not 1 <= n <= q.n_search:
            return f"ACCEPT at depth {n} outside the searched range 1..{q.n_search}"
        f = np.asarray(v["witness"]["f"], dtype=float)
        g = np.asarray(v["witness"]["g"], dtype=float)
        W, wa, wb = tensor_weights(q.table, n)
        if f.shape != wa.shape or g.shape != wb.shape:
            return "witness has the wrong number of values"
        if np.abs(f).max() > 1 + TOL or np.abs(g).max() > 1 + TOL:
            return "witness leaves [-1, 1]"
        mf, mg, c = float(wa @ f), float(wb @ g), float(f @ W @ g)
        if abs(mf - cu) > window + TOL or abs(sign * mg - cv) > window + TOL:
            return f"witness means {mf:.6g}, {mg:.6g} miss their window"
        if sign * c < floor - TOL:
            return f"witness E[fg] = {c:.6g} below the floor {floor:.6g}"
        got = v.get("achieved") or {}
        if abs(got.get("corr_fg", math.nan) - c) > 1e-7:
            return "reported E[fg] disagrees with the re-evaluation"
        return None
    if decision != "REJECT":
        return f"unknown decision {decision!r}"
    if q.certified:
        return "REJECT although a certified witness lies within the searched depths"
    if v.get("reason") == "maximal-correlation-ceiling":
        rho0 = max_correlation(q.table)
        win_a = (max(-1.0, cu - window), min(1.0, cu + window))
        win_b = (max(-1.0, cv - window), min(1.0, cv + window))
        if ceiling(rho0, win_a, win_b) >= floor - TOL:
            return "ceiling REJECT contradicted by the recomputed ceiling"
    return None


def true_reject_rho(table: np.ndarray, delta: float) -> float:
    """A balanced goal no pair reaches at any depth, yet above no ceiling.

    Any [-1,1]-valued pair with means a, b in [-w, w] has
    E[fg] <= ab + rho0 sqrt((1-a^2)(1-b^2)) <= rho0 + w^2 (1 - rho0), while
    the program's ceiling test uses rho0 + w^2.  A floor half way into that
    gap makes every depth search and fail, so the work done per query does
    not depend on how good the search is.
    """
    rho0 = max_correlation(table)
    window, margin = thresholds(delta)
    return rho0 + window * window * (1.0 - rho0 / 2.0) + margin


def check_n0(table: np.ndarray, delta: float, out: dict) -> str | None:
    """The chain's witness-sum count w against the Berry-Esseen formula.

    w = ceil((1 + rho) / (alpha (1 - rho)^3 zeta^2)) with zeta = delta/3 and
    alpha the smallest positive cell; the chain's n0 = h + w is at least w.
    """
    rho = max_correlation(table)
    alpha = float(table[table > 0].min())
    zeta = delta / 3.0
    w_real = (1.0 + rho) / (alpha * (1.0 - rho) ** 3 * zeta * zeta)
    w = out["w"]
    if not w_real * (1 - 1e-9) <= w < w_real + 1:
        return f"witness-sum count {w} is not the ceiling of {w_real}"
    if out["d"] < 1 or out["n0_log10"] < math.log10(w) - 1e-9:
        return "degree cutoff or n0 inconsistent with w"
    return None


# -- Monte Carlo -------------------------------------------------------------


def check_mc(est: tuple[float, float, float], ref: tuple[float, float, float],
             n_samples: int, allowance: tuple[float, float, float] = (0.0, 0.0, 0.0)):
    """Each of (E[f], E[g], E[fg]) within MC_Z standard errors plus an allowance.

    Values lie in [-1, 1], so 1/sqrt(n) bounds every standard error.
    """
    se = 1.0 / math.sqrt(n_samples)
    for name, e, r, a in zip(("E[f]", "E[g]", "E[fg]"), est, ref, allowance):
        if not abs(e - r) <= MC_Z * se + a:
            return f"{name} = {e:.6g} is {abs(e - r):.3g} from its reference {r:.6g}"
    return None


# -- Gaussian threshold pairs ------------------------------------------------

_NORMAL = NormalDist()
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def normal_orthant(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for standard normals with correlation |rho| < 1.

    Plackett's identity: Phi(a) Phi(b) plus the integral over r in [0, rho]
    of the bivariate density at (a, b), by 64-point Gauss-Legendre.
    """
    r = 0.5 * rho * (_GL_NODES + 1.0)
    dens = np.exp(-(a * a - 2.0 * r * a * b + b * b) / (2.0 * (1.0 - r * r))) / (
        2.0 * math.pi * np.sqrt(1.0 - r * r))
    return _NORMAL.cdf(a) * _NORMAL.cdf(b) + 0.5 * rho * float(_GL_WEIGHTS @ dens)


def threshold_mean(t: float) -> float:
    """Mean of the +-1 indicator of {G > t}: 1 - 2 Phi(t)."""
    return -math.erf(t / math.sqrt(2.0))


def threshold_pair_corr(rho: float, mu: float, nu: float) -> float:
    """E[f g] for the lower-threshold +-1 strategies of means mu, nu in (-1, 1)
    on rho-correlated standard normals."""
    s, t = _NORMAL.inv_cdf((1.0 + mu) / 2.0), _NORMAL.inv_cdf((1.0 + nu) / 2.0)
    return 4.0 * normal_orthant(s, t, rho) - mu - nu - 1.0


# -- spectra -------------------------------------------------------------------


def digits(keys: np.ndarray, q: int, n: int) -> np.ndarray:
    """Base-q digits of degree-sequence keys, coordinate 0 first."""
    out = np.empty((len(keys), n), dtype=np.int64)
    k = keys.astype(np.int64).copy()
    for i in range(n - 1, -1, -1):
        out[:, i] = k % q
        k //= q
    return out


def coeff_arrays(coeffs: dict):
    keys = np.fromiter(coeffs.keys(), dtype=np.int64, count=len(coeffs))
    vals = np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))
    return keys, vals


def influences_from_coeffs(coeffs: dict, q: int, n: int) -> np.ndarray:
    keys, vals = coeff_arrays(coeffs)
    return ((digits(keys, q, n) != 0) * (vals * vals)[:, None]).sum(axis=0)


def degrees(coeffs: dict, q: int, n: int) -> np.ndarray:
    keys, _ = coeff_arrays(coeffs)
    return (digits(keys, q, n) != 0).sum(axis=1)


def influences_from_table(values: np.ndarray, probs: np.ndarray, n: int) -> np.ndarray:
    """Inf_i(f) = E[Var_{x_i} f] under the product measure, straight from values."""
    q = len(probs)
    arr = values.reshape((q,) * n)
    out = np.empty(n)
    for i in range(n):
        shape = [1] * n
        shape[i] = q
        p = probs.reshape(shape)
        mean_i = (arr * p).sum(axis=i, keepdims=True)
        var_i = ((arr - mean_i) ** 2 * p).sum(axis=i)
        for _ in range(n - 1):
            var_i = np.tensordot(var_i, probs, axes=([0], [0]))
        out[i] = float(var_i)
    return out


def noise_table(values: np.ndarray, probs: np.ndarray, n: int, gamma: float) -> np.ndarray:
    """T_gamma f: keep each coordinate with probability gamma, else resample it."""
    q = len(probs)
    kernel = gamma * np.eye(q) + (1.0 - gamma) * np.outer(np.ones(q), probs)
    arr = values.reshape((q,) * n)
    for _ in range(n):
        arr = np.tensordot(arr, kernel, axes=([0], [1]))
    return np.asarray(arr).ravel()


def evaluate(coeffs: dict, chars: np.ndarray, n: int, points: np.ndarray,
             block: int = 2048) -> np.ndarray:
    """sum_sigma c_sigma prod_i X_{sigma_i}(x_i) at each row of ``points``.

    Coefficients are taken ``block`` at a time to keep the working set small.
    """
    q = chars.shape[0]
    keys, vals = coeff_arrays(coeffs)
    if n == 0:
        return np.full(len(points), vals.sum())
    sig = digits(keys, q, n)
    out = np.zeros(len(points))
    for start in range(0, len(keys), block):
        part = sig[start:start + block]
        prod = np.ones((len(points), len(part)))
        for i in range(n):
            prod *= chars[part[:, i]][:, points[:, i]].T
        out += prod @ vals[start:start + block]
    return out


def close(a, b, tol=1e-8) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol * (1.0 + np.abs(b))))


def restriction_influences(coeffs: dict, chars: np.ndarray, n: int, H: list[int],
                           xi: np.ndarray, block: int = 256) -> np.ndarray:
    """Influences of the surviving coordinates after fixing H to each row of xi.

    Restricted coefficients are sums over the fixed part of c * prod_H X(xi);
    returns shape (len(xi), n - len(H)).  Rows of xi are taken ``block`` at
    a time, so the working set stays small next to the program's own.
    """
    q = chars.shape[0]
    keys, vals = coeff_arrays(coeffs)
    sig = digits(keys, q, n)
    rest = [i for i in range(n) if i not in set(H)]
    tail = sig[:, rest]
    new_keys, inverse = np.unique(tail @ (q ** np.arange(len(rest) - 1, -1, -1)),
                                  return_inverse=True)
    onehot = np.zeros((len(keys), len(new_keys)))
    onehot[np.arange(len(keys)), inverse.ravel()] = 1.0
    nonzero = np.zeros((len(new_keys), len(rest)))
    nonzero[inverse.ravel(), :] = tail != 0
    out = np.empty((len(xi), len(rest)))
    for start in range(0, len(xi), block):
        rows = xi[start:start + block]
        factor = np.ones((len(rows), len(keys)))
        for pos, i in enumerate(H):
            factor *= chars[sig[:, i]][:, rows[:, pos]].T
        restricted = (factor * vals) @ onehot
        out[start:start + block] = (restricted * restricted) @ nonzero
    return out
