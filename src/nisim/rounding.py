"""Simulating correlated Gaussians from i.i.d. source samples, and the
lift that turns threshold-form strategies on (A^h x R) into pure
sample-based strategies on A^{h+w}.

A lift is built from its threshold form (``HybridStrategy``), which alone
checks the inner values and polarity and derives the clipped means
1 - 2 Phi(inner); the Gaussian simulator is the lift of an h = 0 form.

The simulator thresholds the normalized witness sum
F(x) = sum_i f(x_i) / sqrt(w) of the maximal-correlation witness f, so the
pair (F, G) approaches a correlated Gaussian pair at the source's maximal
correlation; accuracy is governed by ``berry_esseen_sample_count``.

``estimate_strategy_stats`` is the empirical verification harness: exact
enumeration when the joint table fits the cap, Monte Carlo otherwise,
with a dedicated sufficient-statistic path for lifted strategies (the
suffix block only enters through its joint cell counts, so a multinomial
draw replaces w explicit coordinates).  Monte Carlo runs fixed-size chunks,
each on its own ``SeedSequence(seed).spawn`` stream, summed in chunk order:
the estimate never depends on the thread count (Salmon et al., SC 2011).
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
from .util import all_assignments, contract_coordinates, kron_power, place_values

ENUMERATION_CELL_CAP = 10**8
MC_BATCH_CELLS = 2 * 10**7
# samples per Monte Carlo chunk: part of the stream layout, like the seed
MC_CHUNK_SAMPLES = 2**16


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
    """Pure strategy on A^{h+w} built from a threshold form on (A^h x R):
    the prefix picks the form's mean, the suffix thresholds the normalized
    witness sum at the quantile for that mean."""

    def __init__(self, form: HybridStrategy, w: int, witness):
        if w < 1:
            raise ParameterRangeError(f"suffix sample count must be positive, got {w}")
        self.witness = np.asarray(witness, dtype=float).ravel()
        if self.witness.shape[0] != form.space.q:
            raise InputError("witness must have one value per atom")
        self.space = form.space
        self.h = form.h
        self.w = w
        self.n = form.h + w
        self.polarity = form.polarity
        # the form's unflipped means (exact, as polarity is +-1); thresholds
        # are in raw-sum units: F <= t  <=>  sum <= t*sqrt(w)
        nu = form.polarity * form.derived_means()
        self.sum_thresholds = np.array([threshold_for_mean(v) for v in nu]) * math.sqrt(w)
        self._places = place_values(self.space.q, self.h)

    def evaluate(self, idx: np.ndarray) -> np.ndarray:
        idx = self._check_idx(idx)
        return self.output_for(
            idx[:, : self.h] @ self._places, self.witness[idx[:, self.h:]].sum(axis=1)
        )

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
    nu_a, nu_b = (nu, nu) if np.isscalar(nu) else nu
    report = maximal_correlation(dist)
    # the h = 0 form stores the r-threshold c with 1 - 2 Phi(c) = nu, i.e. c = -Phi^{-1}((1+nu)/2)
    form_a = HybridStrategy(dist.row_space, 0, [-threshold_for_mean(nu_a)], polarity[0])
    form_b = HybridStrategy(dist.col_space, 0, [-threshold_for_mean(nu_b)], polarity[1])
    return LiftedStrategy(form_a, w, report.f_witness), LiftedStrategy(form_b, w, report.g_witness)


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
    return LiftedStrategy(strat, w, witness)


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
    # u(x) = sum_y prod_i mu(x_i, y_i) g(y)
    corr = float(vf @ contract_coordinates(vg, dist.table, n))
    mean_f = float(kron_power(dist.row_space.probs, n) @ vf)
    mean_g = float(kron_power(dist.col_space.probs, n) @ vg)
    joint = EmpiricalJoint2x2.from_moments(mean_f, mean_g, corr)
    return StrategyStats(mean_f, mean_g, corr, 0.0, 0.0, 0.0, joint, 0, "exact")


def _chunk_sums(vf: np.ndarray, vg: np.ndarray) -> np.ndarray:
    """Accumulator [sum f, sum g, sum fg, sum (fg)^2, pp, pm, mp, mm] of one chunk;
    the cells are independent-rounding masses of [-1,1]-valued outputs."""
    prod = vf * vg
    pp = 0.25 * float(((1 + vf) * (1 + vg)).sum())
    pm = 0.25 * float(((1 + vf) * (1 - vg)).sum())
    mp = 0.25 * float(((1 - vf) * (1 + vg)).sum())
    mm = 0.25 * float(((1 - vf) * (1 - vg)).sum())
    return np.array([vf.sum(), vg.sum(), prod.sum(), prod @ prod, pp, pm, mp, mm])


def _lifted_pair_mc(
    f: LiftedStrategy,
    g: LiftedStrategy,
    dist: JointDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One chunk through the multinomial sufficient statistic for the suffix block."""
    qa, qb = dist.shape
    pjoint = dist.table.ravel()
    flat = rng.choice(qa * qb, size=(n_samples, f.h), p=pjoint)
    pa = (flat // qb) @ place_values(qa, f.h)
    pb = (flat % qb) @ place_values(qb, g.h)
    counts = rng.multinomial(f.w, pjoint, size=n_samples)
    vf = f.output_for(pa, counts @ np.repeat(f.witness, qb))
    vg = g.output_for(pb, counts @ np.tile(g.witness, qa))
    return _chunk_sums(vf, vg)


def _generic_pair_mc(
    f: Strategy,
    g: Strategy,
    dist: JointDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One chunk of explicit joint draws; randomized strategies take its coins."""
    qa, qb = dist.shape
    flat = rng.choice(qa * qb, size=(n_samples, f.n), p=dist.table.ravel())
    vf = f.evaluate(flat // qb, rng=rng) if f.is_randomized else f.evaluate(flat // qb)
    vg = g.evaluate(flat % qb, rng=rng) if g.is_randomized else g.evaluate(flat % qb)
    return _chunk_sums(vf, vg)


def estimate_strategy_stats(
    f: Strategy,
    g: Strategy,
    dist: JointDistribution,
    n_samples: int = 10**6,
    seed=0,
    mode: str = "auto",
    threads: int = 1,
) -> StrategyStats:
    """Means, correlation, and the induced 2x2 table of a strategy pair.

    ``mode="auto"`` enumerates exactly when the full joint table fits the
    cap and falls back to seeded Monte Carlo otherwise.  Monte Carlo
    results are unbiased with standard errors; identical seeds give
    identical estimates whatever ``threads``, which only sets how many
    chunks run at once.
    """
    if threads < 1:
        raise ParameterRangeError(f"thread count must be positive, got {threads}")
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
    if mode == "exact" or (mode == "auto" and cells <= ENUMERATION_CELL_CAP and not randomized):
        if cells > ENUMERATION_CELL_CAP:
            raise ParameterRangeError(
                f"exact enumeration needs {cells} cells, above the cap {ENUMERATION_CELL_CAP}"
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
    width = f.h + qa * qb if lifted else f.n
    chunk = max(1, min(MC_CHUNK_SAMPLES, MC_BATCH_CELLS // max(1, width)))
    sizes = np.diff([*range(0, n_samples, chunk), n_samples])
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = pool.map(lambda m, s: worker(f, g, dist, m, np.random.default_rng(s)),
                         sizes, streams)
        acc = np.sum(list(parts), axis=0)

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
