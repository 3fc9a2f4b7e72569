"""Smoothing and regularity machinery in executable form.

Two parameter recipes and their consumers:

* ``smoothing_params`` picks a noise rate gamma and degree cutoff d so
  that noised strategies lose at most lambda of correlation while their
  Fourier tails above d hold at most eta of mass (the tail bound
  gamma^{2d} <= eta holds by construction).

* ``regularity_params`` computes the explicit influence cutoff beta for
  degree-d functions: restricting the coordinates whose influence is at
  least beta leaves, with probability 1 - tau over the restriction, every
  remaining influence at most tau.  The number of such coordinates is at
  most h = ceil(d / beta).

The beta recipe 1/beta = K (log K)^d with K = (2 C4)^d / (c^d tau) and
c = alpha d / e is only self-consistent while log K >= max(1, alpha d / 2)
(the validity floor of the restriction tail bound it is derived from);
outside that regime K is raised to the floor and the result is flagged.

``restriction_regular_probability`` judges every restriction of the
high-influence set (exact mode) or a sample of them (Monte Carlo mode)
through ``fourier.restriction_influences_at``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterRangeError
from .fourier import (
    FourierPolynomial,
    degree_tail_mass,
    hypercontractivity_constant,
    influences,
    restricted_coordinates,
    restriction_influences_at,
    truncate_degree,
)
from .util import (
    SCRATCH_CELLS,
    all_assignments,
    as_integer,
    ceil_tolerant,
    draw_atoms,
    kron_power,
    log10_from_ln,
    power_exceeds,
    wilson_interval,
)

VAR_TOL = 1e-9
EXHAUSTIVE_RESTRICTION_CAP = 10**5


# -- smoothing -------------------------------------------------------------


@dataclass(frozen=True)
class SmoothingParams:
    lam: float
    epsilon: float
    gamma: float
    eta: float
    d: int
    C_smooth: float
    mossel_condition_met: bool


def _mossel_gamma_floor(rho: float, eps: float) -> float:
    """Explicit sufficient noise rate: gamma >= (1-eps)^{log rho/(log eps+log rho)},
    for rho < 1 (both smoothing entry points reject rho = 1)."""
    if rho <= 0.0:
        return 1.0 - eps
    expo = math.log(rho) / (math.log(eps) + math.log(rho))
    return (1.0 - eps) ** expo


def smoothing_params(
    rho: float, lam: float, eta: float, C_smooth: float = 1.0
) -> SmoothingParams:
    """Noise rate and degree cutoff for tail mass eta at correlation loss lambda.

    gamma = 1 - C*(1-rho)*eps/log(1/eps) with eps = lambda/2, clamped to (0,1);
    d = ceil(log eta / (2 log gamma)), at least 1.
    """
    if not 0.0 <= rho <= 1.0:
        raise ParameterRangeError(f"maximal correlation must lie in [0, 1], got {rho}")
    if rho == 1.0:
        raise ParameterRangeError(
            "smoothing is impossible at maximal correlation 1 (degree cutoff diverges)"
        )
    if not 0.0 < lam < 1.0:
        raise ParameterRangeError(f"correlation-loss budget must lie in (0, 1), got {lam}")
    if not 0.0 < eta <= 1.0:
        raise ParameterRangeError(f"tail budget must lie in (0, 1], got {eta}")
    return _smoothing_recipe(rho, lam, math.log(eta), eta, C_smooth)


def smoothing_params_from_log_eta(
    rho: float, lam: float, ln_eta: float, C_smooth: float = 1.0
) -> SmoothingParams:
    """Same recipe with eta given in log space (eta itself may underflow)."""
    if ln_eta > 0.0:
        raise ParameterRangeError("log tail budget must be nonpositive")
    if not 0.0 <= rho < 1.0:
        raise ParameterRangeError(f"need maximal correlation in [0, 1), got {rho}")
    if not 0.0 < lam < 1.0:
        raise ParameterRangeError(f"correlation-loss budget must lie in (0, 1), got {lam}")
    eta = math.exp(ln_eta) if ln_eta > -700 else 0.0
    return _smoothing_recipe(rho, lam, ln_eta, eta, C_smooth)


def _smoothing_recipe(
    rho: float, lam: float, ln_eta: float, eta: float, C_smooth: float
) -> SmoothingParams:
    """The recipe body behind both public forms; ``eta`` is reported as given."""
    eps = lam / 2.0
    gamma = 1.0 - C_smooth * (1.0 - rho) * eps / math.log(1.0 / eps)
    gamma = min(max(gamma, 1e-12), 1.0 - 1e-15)
    d_raw = ln_eta / (2.0 * math.log(gamma))
    if not math.isfinite(d_raw):
        raise ParameterRangeError(
            f"degree cutoff overflows float range at log tail budget {ln_eta:g}; raise the "
            "tail budget (in the n0 chain: raise delta or lower C_tau)"
        )
    d = ceil_tolerant(d_raw, min_value=1)
    met = gamma >= _mossel_gamma_floor(rho, eps) - 1e-12
    return SmoothingParams(
        lam=lam, epsilon=eps, gamma=gamma, eta=eta, d=d, C_smooth=C_smooth,
        mossel_condition_met=met,
    )


# -- regularity parameters ---------------------------------------------------


@dataclass(frozen=True)
class RegularityParams:
    """Explicit constants for the degree-d influence-regularity recipe.

    ``beta`` is 0.0 when 1/beta overflows float range; ``ln_inv_beta`` and
    the log10 form of ``h_bound`` are always meaningful.
    """

    d: int
    tau: float
    alpha: float
    eta: float
    c_conc: float
    C4: float
    ln_inv_beta: float
    beta: float
    h_bound: int | None
    h_bound_log10: float
    beta_regime_clamped: bool

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "tau": self.tau,
            "alpha": self.alpha,
            "eta": self.eta,
            "c_conc": self.c_conc,
            "C4": self.C4,
            "beta": self.beta,
            "h_bound": self.h_bound,
            "h_bound_log10": self.h_bound_log10,
            "beta_regime_clamped": self.beta_regime_clamped,
        }


def regularity_params(
    d: int, tau: float, alpha: float, ln_tau: float | None = None
) -> RegularityParams:
    """Influence cutoff beta and coordinate budget h for one party.

    ``alpha`` is the minimum atom probability of that party's marginal.
    ``ln_tau`` may be supplied when tau itself underflows.
    """
    if d < 1:
        raise ParameterRangeError(f"degree must be at least 1, got {d}")
    if d > sys.float_info.max:  # an exact comparison, even for ints past float range
        raise ParameterRangeError(
            "degree cutoff d (regularity --d) is beyond float range; lower --d"
        )
    d = as_integer(d, "degree")
    if ln_tau is None:
        if not 0.0 < tau < 1.0:
            raise ParameterRangeError(f"influence threshold must lie in (0, 1), got {tau}")
        ln_tau = math.log(tau)
    if not 0.0 < alpha <= 0.5:
        raise ParameterRangeError(f"minimum atom probability must lie in (0, 1/2], got {alpha}")
    c = alpha * d / math.e
    C4 = hypercontractivity_constant(alpha, 4.0)
    ln_K = d * math.log(2.0 * C4 / c) - ln_tau
    floor = max(1.0, alpha * d / 2.0)
    clamped = ln_K < floor
    ln_K_eff = max(ln_K, floor)
    ln_inv_beta = ln_K_eff + d * math.log(ln_K_eff)
    beta = math.exp(-ln_inv_beta) if ln_inv_beta < 700 else 0.0
    ln_h = math.log(d) + ln_inv_beta
    h_bound = ceil_tolerant(d * math.exp(ln_inv_beta)) if ln_h < 42 * math.log(2) else None
    return RegularityParams(
        d=d,
        tau=tau,
        alpha=alpha,
        eta=tau * tau / 16.0,
        c_conc=c,
        C4=C4,
        ln_inv_beta=ln_inv_beta,
        beta=beta,
        h_bound=h_bound,
        h_bound_log10=log10_from_ln(ln_h),
        beta_regime_clamped=clamped,
    )


# -- influence extraction ------------------------------------------------------


def high_influence_set(poly: FourierPolynomial, beta: float) -> tuple[int, ...]:
    """Coordinates whose influence is at least beta.

    Guaranteed no larger than deg/beta coordinates when Var <= 1.
    """
    if beta <= 0.0:
        raise ParameterRangeError(f"influence cutoff must be positive, got {beta}")
    if poly.variance() > 1.0 + VAR_TOL:
        raise InputError(
            f"variance {poly.variance():.6g} exceeds 1; normalize before extracting"
        )
    inf = influences(poly)
    return tuple(int(i) for i in np.nonzero(inf >= beta)[0])


def joint_high_influence_set(
    p: FourierPolynomial,
    q: FourierPolynomial,
    params_p: RegularityParams,
    params_q: RegularityParams | None = None,
) -> tuple[int, ...]:
    """Union of the two parties' high-influence sets of the degree-d truncations.

    Requires tail mass above d at most eta on both sides; the union has at
    most h_p + h_q coordinates.  The truncations keep their polynomial's
    digit rows, so each side is decoded at most once.
    """
    if params_q is None:
        params_q = params_p
    if p.n != q.n:
        raise InputError("the two functions must have the same coordinate count")
    truncations = []
    for poly, params, side in ((p, params_p, "first"), (q, params_q, "second")):
        tail = degree_tail_mass(poly, params.d)
        if tail > params.eta + 1e-12:
            raise InputError(
                f"{side} function has tail mass {tail:.6g} above degree {params.d}, "
                f"exceeding the budget eta = {params.eta:.6g}"
            )
        truncations.append((truncate_degree(poly, params.d), params.beta))
    if params_p.beta <= 0.0 or params_q.beta <= 0.0:
        raise ParameterRangeError("beta underflowed; instance is out of enumerable range")
    h_p, h_q = (high_influence_set(*side) for side in truncations)
    return tuple(sorted(set(h_p) | set(h_q)))


# -- restriction regularity -----------------------------------------------------


@dataclass(frozen=True)
class RegularProbability:
    estimate: float
    wilson_low: float
    wilson_high: float
    mode: str
    evaluations: int

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "wilson_95": [self.wilson_low, self.wilson_high],
            "mode": self.mode,
            "evaluations": self.evaluations,
        }


def restriction_regular_probability(
    poly: FourierPolynomial,
    H,
    tau: float,
    mode: str = "exact",
    samples: int = 10000,
    seed=0,
) -> RegularProbability:
    """Probability over restrictions of H that every surviving influence is <= tau.

    ``mode="exact"`` enumerates all q^|H| assignments (weighted by the
    product measure) when they fit the cap; ``mode="monte_carlo"`` samples.
    Estimates carry a Wilson 95% interval (degenerate for exact mode).
    Monte Carlo counts its hits over blocks of at most
    ``util.SCRATCH_CELLS`` drawn atoms, so its memory does not grow with
    ``samples``.
    """
    H = restricted_coordinates(poly, H)
    q = poly.q
    space = poly.basis.space
    if mode == "exact":
        if power_exceeds(q, len(H), EXHAUSTIVE_RESTRICTION_CAP):
            raise ParameterRangeError(
                f"{q}^{len(H)} restrictions exceed the exhaustive cap "
                f"{EXHAUSTIVE_RESTRICTION_CAP}; use monte_carlo mode"
            )
        xi = all_assignments(q, len(H))
        weights = kron_power(space.probs, len(H))
        ok = (restriction_influences_at(poly, H, xi) <= tau + 1e-12).all(axis=1)
        est = float(weights[ok].sum())
        return RegularProbability(est, est, est, "exact", len(xi))
    if mode != "monte_carlo":
        raise InputError(f"unknown mode {mode!r}; use 'exact' or 'monte_carlo'")
    if samples < 1:
        raise ParameterRangeError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    # blocks of whole rows draw the one (samples, |H|) call's stream
    step = max(1, SCRATCH_CELLS // max(1, len(H)))
    hits = 0
    for start in range(0, samples, step):
        xi = draw_atoms(rng, space.probs, (min(step, samples - start), len(H)))
        hits += int((restriction_influences_at(poly, H, xi) <= tau + 1e-12).all(axis=1).sum())
    lo, hi = wilson_interval(hits, samples)
    return RegularProbability(hits / samples, lo, hi, "monte_carlo", samples)


# -- restriction influence tail bound ---------------------------------------------


@dataclass(frozen=True)
class TailBound:
    value: float
    asserted: bool
    note: str = ""


def restriction_influence_tail_bound(d: int, alpha: float, r: float) -> TailBound:
    """Bound exp(-c r^{1/d}), c = alpha*d/e, on the chance a restriction
    inflates one influence past r * C4(alpha)^d times its original value.

    Only asserted for r >= e^d; below that the value is still returned,
    flagged as outside the stated regime.
    """
    if d < 1:
        raise ParameterRangeError(f"degree must be at least 1, got {d}")
    if not 0.0 < alpha <= 0.5:
        raise ParameterRangeError(f"minimum atom probability must lie in (0, 1/2], got {alpha}")
    if r <= 0:
        raise ParameterRangeError(f"inflation factor must be positive, got {r}")
    c = alpha * d / math.e
    value = math.exp(-c * r ** (1.0 / d))
    if r < math.e**d:
        return TailBound(value, False, "bound not asserted by the source analysis in this regime")
    return TailBound(value, True)
