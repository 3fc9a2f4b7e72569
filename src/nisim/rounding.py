"""Simulating correlated Gaussians from i.i.d. source samples, and the
lift that turns threshold-form strategies on (A^h x R) into pure
sample-based strategies on A^{h+w}.

The simulator thresholds the normalized witness sum
F(x) = sum_i f(x_i) / sqrt(w) of the maximal-correlation witness f, so the
pair (F, G) approaches a correlated Gaussian pair at the source's maximal
correlation; accuracy is governed by ``berry_esseen_sample_count``.

``estimate_strategy_stats`` is the empirical verification harness: exact
enumeration when the joint table fits the cap, Monte Carlo otherwise,
with a dedicated sufficient-statistic path for lifted strategies (the
suffix block only enters through its joint cell counts, so a multinomial
draw replaces w explicit coordinates).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterRangeError
from .gaussian import std_normal_cdf, threshold_for_mean
from .maxcorr import maximal_correlation
from .spaces import EmpiricalJoint2x2, FiniteSpace, JointDistribution
from .strategies import Strategy
from .util import all_assignments, kron_power

ENUMERATION_CELL_CAP = 10**8
MC_BATCH_CELLS = 2 * 10**7


@dataclass
class HybridStrategy:
    """Threshold form on (A^h x R): +1 exactly when r >= inner(x).

    ``polarity=-1`` is the antipodal form (outputs flipped).
    """

    space: FiniteSpace
    h: int
    inner_values: np.ndarray
    polarity: int = 1

    def __post_init__(self):
        self.inner_values = np.asarray(self.inner_values, dtype=float).ravel()
        if self.inner_values.shape[0] != self.space.q**self.h:
            raise InputError(
                f"expected {self.space.q ** self.h} inner values, got {self.inner_values.shape[0]}"
            )
        if self.polarity not in (-1, 1):
            raise ParameterRangeError("polarity must be +1 or -1")

    def derived_means(self) -> np.ndarray:
        """Conditional means m(x) = E_r[output | x] = polarity * (1 - 2 Phi(inner(x)))."""
        nu = 1.0 - 2.0 * std_normal_cdf(self.inner_values)
        return self.polarity * np.clip(nu, -1.0, 1.0)


class LiftedStrategy(Strategy):
    """Pure strategy on A^{h+w}: prefix picks a mean, suffix thresholds the
    normalized witness sum at the quantile for that mean."""

    def __init__(
        self,
        space: FiniteSpace,
        h: int,
        w: int,
        inner_values,
        witness,
        polarity: int = 1,
    ):
        if w < 1:
            raise ParameterRangeError(f"suffix sample count must be positive, got {w}")
        if polarity not in (-1, 1):
            raise ParameterRangeError("polarity must be +1 or -1")
        self.space = space
        self.h = h
        self.w = w
        self.n = h + w
        self.polarity = polarity
        self.inner_values = np.asarray(inner_values, dtype=float).ravel()
        if self.inner_values.shape[0] != space.q**h:
            raise InputError(
                f"expected {space.q ** h} inner values, got {self.inner_values.shape[0]}"
            )
        self.witness = np.asarray(witness, dtype=float).ravel()
        if self.witness.shape[0] != space.q:
            raise InputError("witness must have one value per atom")
        # Thresholds in raw-sum units: F <= t  <=>  sum <= t*sqrt(w).
        nu = np.clip(1.0 - 2.0 * std_normal_cdf(self.inner_values), -1.0, 1.0)
        t = np.array([threshold_for_mean(v) for v in nu])
        self.prefix_means = nu
        self.sum_thresholds = t * math.sqrt(w)
        self._places = space.q ** np.arange(h - 1, -1, -1) if h else np.zeros(0, int)

    def evaluate(self, idx: np.ndarray) -> np.ndarray:
        idx = self._check_idx(idx)
        pidx = idx[:, : self.h] @ self._places if self.h else np.zeros(len(idx), int)
        s = self.witness[idx[:, self.h:]].sum(axis=1)
        base = np.where(s <= self.sum_thresholds[pidx], 1.0, -1.0)
        return self.polarity * base

    def output_for(self, prefix_flat: np.ndarray, suffix_sums: np.ndarray) -> np.ndarray:
        """Outputs from the sufficient statistics (prefix index, raw witness sum)."""
        base = np.where(suffix_sums <= self.sum_thresholds[prefix_flat], 1.0, -1.0)
        return self.polarity * base


def gaussian_simulator_strategy(
    dist: JointDistribution, nu, w: int, polarity: tuple[int, int] = (1, 1)
) -> tuple[LiftedStrategy, LiftedStrategy]:
    """Strategy pair whose outputs behave like mean-nu threshold functions of
    correlated Gaussians at the source's maximal correlation.

    ``nu`` is a single target mean or a pair (nu_a, nu_b).
    """
    if w < 1:
        raise ParameterRangeError(f"sample count must be positive, got {w}")
    nu_a, nu_b = (nu, nu) if np.isscalar(nu) else nu
    report = maximal_correlation(dist)
    # inner stores the r-threshold c with 1 - 2 Phi(c) = nu, i.e. c = -Phi^{-1}((1+nu)/2)
    inner_a = np.array([-threshold_for_mean(nu_a)])
    inner_b = np.array([-threshold_for_mean(nu_b)])
    f = LiftedStrategy(dist.row_space, 0, w, inner_a, report.f_witness, polarity[0])
    g = LiftedStrategy(dist.col_space, 0, w, inner_b, report.g_witness, polarity[1])
    return f, g


def lift_hybrid(
    strat: HybridStrategy, dist: JointDistribution, w: int, side: str = "row"
) -> LiftedStrategy:
    """Replace the real-valued input of a threshold-form strategy by the
    normalized witness sum over w fresh coordinates."""
    report = maximal_correlation(dist)
    if side == "row":
        space, witness = dist.row_space, report.f_witness
    elif side == "col":
        space, witness = dist.col_space, report.g_witness
    else:
        raise InputError(f"side must be 'row' or 'col', got {side!r}")
    if strat.space != space:
        raise InputError("strategy space does not match the requested side of the source")
    # r >= inner(x) maps to +1, so the induced mean is 1 - 2 Phi(inner(x)) and the
    # suffix threshold is the quantile for that mean; LiftedStrategy does exactly this.
    return LiftedStrategy(space, strat.h, w, strat.inner_values, witness, strat.polarity)


# -- empirical statistics ------------------------------------------------------


@dataclass(frozen=True)
class StrategyStats:
    mean_f: float
    mean_g: float
    corr_fg: float
    stderr_mean_f: float
    stderr_mean_g: float
    stderr_corr: float
    joint: EmpiricalJoint2x2
    n_samples: int
    mode: str
    seed: object = None

    def as_dict(self) -> dict:
        return {
            "mean_f": self.mean_f,
            "mean_g": self.mean_g,
            "corr_fg": self.corr_fg,
            "stderr_mean_f": self.stderr_mean_f,
            "stderr_mean_g": self.stderr_mean_g,
            "stderr_corr": self.stderr_corr,
            "joint": self.joint.probs.tolist(),
            "n_samples": self.n_samples,
            "mode": self.mode,
            "seed": self.seed,
        }


def _exact_stats(f: Strategy, g: Strategy, dist: JointDistribution) -> StrategyStats:
    qa, qb = dist.shape
    n = f.n
    vf = f.evaluate(all_assignments(qa, n))
    vg = g.evaluate(all_assignments(qb, n))
    # u(x) = sum_y prod_i mu(x_i, y_i) g(y), contracted one coordinate at a time
    arr = vg.reshape((qb,) * n) if n else vg.copy()
    for _ in range(n):
        arr = np.tensordot(arr, dist.table, axes=([0], [1]))
    u = np.asarray(arr).ravel()
    corr = float(vf @ u)
    mean_f = float(kron_power(dist.row_space.probs, n) @ vf)
    mean_g = float(kron_power(dist.col_space.probs, n) @ vg)
    joint = EmpiricalJoint2x2.from_moments(mean_f, mean_g, corr)
    return StrategyStats(mean_f, mean_g, corr, 0.0, 0.0, 0.0, joint, 0, "exact")


def _lifted_pair_mc(
    f: LiftedStrategy,
    g: LiftedStrategy,
    dist: JointDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Accumulator [sum f, sum g, sum fg, n_pp, n_pm, n_mp, n_mm] using the
    multinomial sufficient statistic for the suffix block."""
    qa, qb = dist.shape
    pjoint = dist.table.ravel()
    cell_wa = np.repeat(f.witness, qb)
    cell_wb = np.tile(g.witness, qa)
    if f.h:
        flat = rng.choice(qa * qb, size=(n_samples, f.h), p=pjoint)
        pa = (flat // qb) @ (qa ** np.arange(f.h - 1, -1, -1))
        pb = (flat % qb) @ (qb ** np.arange(g.h - 1, -1, -1))
    else:
        pa = np.zeros(n_samples, int)
        pb = np.zeros(n_samples, int)
    counts = rng.multinomial(f.w, pjoint, size=n_samples)
    sf = counts @ cell_wa
    sg = counts @ cell_wb
    vf = f.output_for(pa, sf)
    vg = g.output_for(pb, sg)
    prod = vf * vg
    pp = float(np.count_nonzero((vf > 0) & (vg > 0)))
    pm = float(np.count_nonzero((vf > 0) & (vg < 0)))
    mp = float(np.count_nonzero((vf < 0) & (vg > 0)))
    mm = float(np.count_nonzero((vf < 0) & (vg < 0)))
    return np.array([vf.sum(), vg.sum(), prod.sum(), prod @ prod, pp, pm, mp, mm])


def _generic_pair_mc(
    f: Strategy,
    g: Strategy,
    dist: JointDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    qa, qb = dist.shape
    n = f.n
    batch = max(1, MC_BATCH_CELLS // max(1, n))
    acc = np.zeros(8)
    left = n_samples
    pjoint = dist.table.ravel()
    while left > 0:
        m = min(batch, left)
        flat = rng.choice(qa * qb, size=(m, n), p=pjoint)
        vf = f.evaluate(flat // qb)
        vg = g.evaluate(flat % qb)
        prod = vf * vg
        # independent-rounding cell masses for [-1,1]-valued strategies
        pp = 0.25 * float(((1 + vf) * (1 + vg)).sum())
        pm = 0.25 * float(((1 + vf) * (1 - vg)).sum())
        mp = 0.25 * float(((1 - vf) * (1 + vg)).sum())
        mm = 0.25 * float(((1 - vf) * (1 - vg)).sum())
        acc += np.array([vf.sum(), vg.sum(), prod.sum(), prod @ prod, pp, pm, mp, mm])
        left -= m
    return acc


def estimate_strategy_stats(
    f: Strategy,
    g: Strategy,
    dist: JointDistribution,
    n_samples: int = 10**6,
    seed=0,
    mode: str = "auto",
    enumeration_cap: int = ENUMERATION_CELL_CAP,
    threads: int = 1,
) -> StrategyStats:
    """Means, correlation, and the induced 2x2 table of a strategy pair.

    ``mode="auto"`` enumerates exactly when the full joint table fits the
    cap and falls back to seeded Monte Carlo otherwise.  Monte Carlo
    results are unbiased with standard errors; identical seeds give
    identical estimates.
    """
    if f.n != g.n:
        raise InputError(f"coordinate counts differ: {f.n} vs {g.n}")
    if f.space != dist.row_space or g.space != dist.col_space:
        raise InputError("strategies must live on the two sides of the source")
    qa, qb = dist.shape
    cells = (qa * qb) ** f.n if f.n < 64 else math.inf
    if mode not in ("auto", "exact", "monte_carlo"):
        raise InputError(f"unknown mode {mode!r}")
    randomized = f.is_randomized or g.is_randomized
    if mode == "exact" and randomized:
        raise InputError("exact enumeration is undefined for randomized strategies")
    if mode == "exact" or (mode == "auto" and cells <= enumeration_cap and not randomized):
        if cells > enumeration_cap:
            raise ParameterRangeError(
                f"exact enumeration needs {cells} cells, above the cap {enumeration_cap}"
            )
        return _exact_stats(f, g, dist)
    if n_samples < 1:
        raise ParameterRangeError("Monte Carlo needs at least one sample")

    lifted = (
        isinstance(f, LiftedStrategy)
        and isinstance(g, LiftedStrategy)
        and f.h == g.h
        and f.w == g.w
    )
    worker = _lifted_pair_mc if lifted else _generic_pair_mc

    if threads > 1:
        seeds = np.random.SeedSequence(seed).spawn(threads)
        sizes = [n_samples // threads] * threads
        sizes[0] += n_samples - sum(sizes)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(
                    lambda sz_s: worker(f, g, dist, sz_s[0], np.random.default_rng(sz_s[1])),
                    zip(sizes, seeds),
                )
            )
        acc = np.sum(parts, axis=0)
    else:
        acc = worker(f, g, dist, n_samples, np.random.default_rng(seed))

    m = float(n_samples)
    mean_f, mean_g, corr = acc[0] / m, acc[1] / m, acc[2] / m
    var_prod = max(0.0, acc[3] / m - corr**2)
    se_corr = math.sqrt(var_prod / m)
    se_f = math.sqrt(max(0.0, 1.0 - mean_f**2) / m)
    se_g = math.sqrt(max(0.0, 1.0 - mean_g**2) / m)
    cellsums = np.clip(acc[4:8], 0.0, None)
    joint = EmpiricalJoint2x2(cellsums / cellsums.sum(), n_samples=n_samples)
    return StrategyStats(
        float(mean_f), float(mean_g), float(corr), se_f, se_g, se_corr,
        joint, n_samples, "lifted_monte_carlo" if lifted else "monte_carlo", seed,
    )
