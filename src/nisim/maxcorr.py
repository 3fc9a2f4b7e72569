"""Maximal correlation of a joint distribution and Witsenhausen's bounds.

The maximal correlation is the supremum of E[f(X) g(Y)] over mean-zero,
unit-variance real functions on the two sides.  It equals the second
singular value of the normalized operator

    M(x, y) = mu(x, y) / sqrt(mu_A(x) mu_B(y)),

whose top singular value is always 1 with singular vectors
(sqrt(mu_A), sqrt(mu_B)).  The optimizing witnesses are the second
singular vectors rescaled by 1/sqrt(marginal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterRangeError
from .spaces import JointDistribution
from .util import weighted_sum

TOP_SV_TOL = 1e-9
MULTIPLICITY_TOL = 1e-10


@dataclass(frozen=True)
class CorrelationReport:
    """Maximal correlation with its witnesses and the induced DSBS bounds.

    ``dsbs_lower`` is the correlation a binary pair can always reach from
    this source (Gaussian simulation plus sign thresholding);
    ``dsbs_upper`` is the data-processing ceiling.
    """

    rho: float
    f_witness: np.ndarray
    g_witness: np.ndarray
    dsbs_lower: float
    dsbs_upper: float
    degenerate: bool = False
    multiplicity_flag: bool = False

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "dsbs_lower": self.dsbs_lower,
            "dsbs_upper": self.dsbs_upper,
            "f": self.f_witness.tolist(),
            "g": self.g_witness.tolist(),
            "degenerate": self.degenerate,
            "multiplicity_flag": self.multiplicity_flag,
        }


def witsenhausen_bounds(rho: float) -> tuple[float, float]:
    """(achievable, ceiling) DSBS correlation for a source with maximal correlation rho.

    Lower bound: 1 - 2 arccos(rho) / pi.  Upper bound: rho itself.
    """
    if not 0.0 <= rho <= 1.0:
        raise ParameterRangeError(f"maximal correlation must lie in [0, 1], got {rho}")
    return 1.0 - 2.0 * math.acos(rho) / math.pi, float(rho)


def maximal_correlation(dist: JointDistribution) -> CorrelationReport:
    """Maximal correlation of a joint distribution, with witnesses.

    Builds the normalized operator, takes its SVD, asserts the top
    singular value is 1, and rescales the second singular vectors into
    mean-zero unit-variance witness functions.  The witness sign is fixed
    so the first entry of ``f_witness`` is nonnegative.
    """
    mu_a = dist.row_space.probs
    mu_b = dist.col_space.probs
    qa, qb = dist.shape

    if qa == 1 or qb == 1:
        return CorrelationReport(
            rho=0.0,
            f_witness=np.zeros(qa),
            g_witness=np.zeros(qb),
            dsbs_lower=0.0,
            dsbs_upper=0.0,
            degenerate=True,
        )

    m = dist.table / np.sqrt(np.outer(mu_a, mu_b))
    # reduced factors: a full u is qa x qa and a full vt qb x qb, which a long
    # side cannot afford before any search cap is checked
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if abs(s[0] - 1.0) > TOP_SV_TOL:
        raise AssertionError(
            f"top singular value of the normalized operator is {s[0]:.17g}, expected 1"
        )
    rho = float(min(max(s[1], 0.0), 1.0))
    multiplicity = len(s) > 2 and (s[1] - s[2]) < MULTIPLICITY_TOL

    f = u[:, 1] / np.sqrt(mu_a)
    g = vt[1, :] / np.sqrt(mu_b)
    # SVD normalizes u, v, which translates exactly into Var = 1 witnesses;
    # re-center/scale to squash last-bit drift.
    f = f - float(weighted_sum(mu_a, f))
    g = g - float(weighted_sum(mu_b, g))
    f = f / np.sqrt(float(weighted_sum(mu_a, f**2)))
    g = g / np.sqrt(float(weighted_sum(mu_b, g**2)))
    if f[0] < 0 or (f[0] == 0 and g[0] < 0):
        f, g = -f, -g

    lower, upper = witsenhausen_bounds(rho)
    return CorrelationReport(
        rho=rho,
        f_witness=f,
        g_witness=g,
        dsbs_lower=lower,
        dsbs_upper=upper,
        multiplicity_flag=bool(multiplicity),
    )

