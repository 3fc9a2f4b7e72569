"""Standard and bivariate normal machinery.

Phi and its inverse come from the standard library: Phi(x) is
0.5 * erfc(-x / sqrt 2), where libm's erfc is Cody's rational Chebyshev
approximation (W. J. Cody, *Rational Chebyshev approximations for the
error function*, Math. Comp. 23, 1969), and Phi^{-1} is
``statistics.NormalDist().inv_cdf``, Wichura's PPND16 (M. J. Wichura,
*Algorithm AS 241: The percentage points of the normal distribution*,
Applied Statistics 37, 1988).  Arrays are mapped element by element
through the same scalar functions.

Also here: the CDF of a correlated standard normal pair, the
stability quantities Gamma-bar / Gamma-under for threshold strategies on
correlated Gaussians, and the sample-count formula that controls how many
i.i.d. source draws a normalized sum needs before it behaves like a
Gaussian to accuracy zeta.

The bivariate CDF uses the classic single-integral reduction

    Phi2(a, b, rho) = Phi(a) Phi(b)
        + (1/2pi) * int_0^{arcsin rho} exp(-(a^2 + b^2 - 2ab sin t) / (2 cos^2 t)) dt

evaluated with fixed-order Gauss-Legendre quadrature, whose terms come
from ``math`` (numpy's exp rounds by the CPU features it dispatches to)
and whose sum from ``util.weighted_sum``.  After the arcsine
substitution the integrand is analytic up to |rho| -> 1, and the quadrant
value Phi2(0, 0, rho) = 1/4 + arcsin(rho)/(2 pi) is reproduced exactly
(the integrand is constant there).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import ParameterRangeError
from .util import ceil_tolerant, weighted_sum

_GL_ORDER = 96
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)

RHO_ONE_TOL = 1e-12

_SQRT_HALF = math.sqrt(0.5)
_ndtri = NormalDist().inv_cdf


def _ndtr(x: float) -> float:
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _elementwise(fn, x):
    """``fn`` on a scalar (a float back) or on each entry of an array."""
    out = np.vectorize(fn, otypes=[float])(x)
    return out if np.ndim(x) else float(out)


def std_normal_cdf(x):
    """Phi(x); accepts scalars or arrays."""
    return _elementwise(_ndtr, x)


def std_normal_quantile(p):
    """Phi^{-1}(p) for p strictly inside (0, 1); accepts scalars or arrays."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ParameterRangeError("quantile argument must lie strictly inside (0, 1)")
    return _elementwise(_ndtri, p)


def bivariate_cdf(a: float, b: float, rho: float) -> float:
    """Pr[G1 <= a, G2 <= b] for standard normals with correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise ParameterRangeError(f"correlation must lie in [-1, 1], got {rho}")
    if math.isnan(a) or math.isnan(b):
        raise ParameterRangeError("thresholds must not be NaN")
    if a == -math.inf or b == -math.inf:
        return 0.0
    if a == math.inf:
        return _ndtr(b)
    if b == math.inf:
        return _ndtr(a)
    if rho >= 1.0 - RHO_ONE_TOL:
        return _ndtr(min(a, b))
    if rho <= -1.0 + RHO_ONE_TOL:
        return max(0.0, _ndtr(a) + _ndtr(b) - 1.0)
    base = _ndtr(a) * _ndtr(b)
    if rho == 0.0:
        return base
    upper = math.asin(rho)
    r2, k = a * a + b * b, 2.0 * a * b
    integrand = [math.exp(-(r2 - k * math.sin(t)) / (2.0 * math.cos(t) * math.cos(t)))
                 for t in (0.5 * upper * (_GL_NODES + 1.0)).tolist()]
    integral = 0.5 * upper * float(weighted_sum(_GL_WEIGHTS, integrand))
    val = base + integral / (2.0 * math.pi)
    return min(max(val, 0.0), 1.0)


def threshold_for_mean(mu: float) -> float:
    """The t with Pr[G <= t] = (1+mu)/2, so the +-1 indicator of {G <= t} has mean mu."""
    if not -1.0 <= mu <= 1.0:
        raise ParameterRangeError(f"target mean must lie in [-1, 1], got {mu}")
    if mu == 1.0:
        return math.inf
    if mu == -1.0:
        return -math.inf
    return _ndtri((1.0 + mu) / 2.0)


def gamma_bar(rho: float, mu: float, nu: float) -> float:
    """E[P(X) Q(Y)] for the mean-mu and mean-nu lower-threshold strategies
    on rho-correlated standard normals."""
    if not -1.0 <= rho <= 1.0:
        raise ParameterRangeError(f"correlation must lie in [-1, 1], got {rho}")
    if abs(mu) == 1.0:
        return nu if mu > 0 else -nu
    if abs(nu) == 1.0:
        return mu if nu > 0 else -mu
    t1 = threshold_for_mean(mu)
    t2 = threshold_for_mean(nu)
    return 4.0 * bivariate_cdf(t1, t2, rho) - mu - nu - 1.0


def gamma_under(rho: float, mu: float, nu: float) -> float:
    """Antipodal counterpart: the least correlation the threshold pair can reach."""
    return -gamma_bar(rho, mu, -nu)


def berry_esseen_sample_count(
    rho_pair: float, alpha: float, zeta: float, C_be: float = 1.0
) -> int:
    """Samples w so the normalized witness sums are zeta-close to Gaussian:

        w = ceil(C_be * (1 + rho) / (alpha * (1 - rho)^3 * zeta^2)).
    """
    if not 0.0 <= rho_pair < 1.0:
        raise ParameterRangeError(
            f"pair correlation must lie in [0, 1); got {rho_pair}"
            + (" (no finite sample count at perfect correlation)" if rho_pair >= 1 else "")
        )
    if not 0.0 < zeta <= 1.0:
        raise ParameterRangeError(f"accuracy must lie in (0, 1], got {zeta}")
    if not 0.0 < alpha <= 0.5:
        raise ParameterRangeError(f"minimum atom probability must lie in (0, 1/2], got {alpha}")
    if C_be <= 0.0:
        raise ParameterRangeError(f"constant must be positive, got {C_be}")
    denom = alpha * (1.0 - rho_pair) ** 3 * zeta * zeta
    w = C_be * (1.0 + rho_pair) / denom if denom > 0.0 else math.inf
    if not math.isfinite(w):
        raise ParameterRangeError(
            f"sample count overflows float range at accuracy {zeta:g}, C_be = {C_be:g}; "
            "raise the accuracy (delta / 3 in the n0 chain) or lower C_be"
        )
    return ceil_tolerant(w, min_value=1)

