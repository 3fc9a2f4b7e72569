"""Rounding: turning witnesses into protocols the two parties can run.

Two roundings live here.  The lift turns a threshold-form strategy on
(A^h x R) into a pure sample-based strategy on A^{h+w}, simulating the
real input with correlated Gaussians from i.i.d. source samples.
Randomized rounding turns a [-1,1]-valued strategy f into a +-1 one with
E[output | x] = f(x), with coins either from a seeded generator
(``RngRoundedStrategy``) or from designated extra source coordinates
(``SourceRoundedStrategy``); ``round_pair`` gives the two parties
independent coins.

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
suffix block only enters through its joint cell counts, so a chain of
conditional binomials, the multinomial's own factorization, replaces w
explicit coordinates).  Monte Carlo runs fixed-size chunks,
each on its own ``SeedSequence(seed).spawn`` stream, summed in chunk order:
the estimate never depends on the thread count (Salmon et al., SC 2011).
The caller runs chunks itself beside ``threads - 1`` helper threads (no
more than the chunks or cores allow, none at ``threads=1``), each taking
the next chunk index in turn.  A chunk draws its row and column atoms
with ``util.draw_cells`` (``rng.choice``'s stream over the joint cells,
without its binary search or a divmod into rows and columns) and
flattens index rows with ``util.flat_index``.  ``draw_cells`` draws its
uniforms in blocks of whole rows of at most ``util.SCRATCH_CELLS`` cells;
the lifted chunk's counts and witness sums are arrays with one entry per
row and atom, updated in place.
A chunk keeps four sums, of f, g, fg and (fg)^2; the joint's cells are formed once from their
total (for +-1 outputs every sum is an exact integer).
An rng-rounded strategy draws its coins from the chunk's generator, which
the harness hands over through ``evaluate(idx, rng=...)``; exact
enumeration refuses it, since its outputs are random.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterRangeError
from .gaussian import std_normal_cdf, threshold_for_mean
from .maxcorr import maximal_correlation
from .spaces import EmpiricalJoint2x2, FiniteSpace, JointDistribution
from .strategies import Strategy
from .util import (
    BLOCK_CELLS,
    CELL_CAP,
    all_assignments,
    as_integer,
    contract_coordinates,
    draw_cells,
    flat_index,
    kron_power,
    power_exceeds,
    weighted_sum,
)

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
        self.h = as_integer(self.h, "prefix length")
        if self.h < 0:
            raise ParameterRangeError(f"prefix length must be nonnegative, got {self.h}")
        self.inner_values = np.asarray(self.inner_values, dtype=float).ravel()
        if self.inner_values.shape[0] != self.space.q**self.h:
            raise InputError(
                f"expected {self.space.q}^{self.h} inner values, got {self.inner_values.shape[0]}"
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
        # the suffix counts are int64, as numpy's binomial draws are
        w = as_integer(w, "suffix sample count")
        if not 1 <= w < 2**63:
            raise ParameterRangeError(f"suffix sample count must lie in [1, 2^63), got {w}")
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

    def evaluate(self, idx: np.ndarray) -> np.ndarray:
        idx = self._check_idx(idx)
        prefix = flat_index(idx[:, : self.h], self.space.q)
        return self.output_for(prefix, self.witness[idx[:, self.h:]].sum(axis=1))

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


# -- randomized rounding -------------------------------------------------------


class RngRoundedStrategy(Strategy):
    """+-1 strategy rounding a [-1,1]-valued one with seeded coins.

    E[output | x] = f(x).  The instance owns no generator: coins come from
    ``rng`` when given (Monte Carlo passes its chunk's), else from a fresh
    ``default_rng(seed)``, so a direct call is a pure function of the batch.
    """

    def __init__(self, base: Strategy, seed=0):
        self.base = base
        self.space = base.space
        self.n = base.n
        self.seed = seed

    def evaluate(self, idx: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        v = np.clip(self.base.evaluate(idx), -1.0, 1.0)
        u = (np.random.default_rng(self.seed) if rng is None else rng).random(v.shape[0])
        return np.where(u < (1.0 + v) / 2.0, 1.0, -1.0)


class SourceRoundedStrategy(Strategy):
    """+-1 strategy rounding f with coins extracted from extra source coordinates.

    The strategy reads n + 2k coordinates; its own coin block is either the
    first or second k extras, so a pair using opposite blocks has exactly
    independent coins.  The extracted coin is the product-measure CDF of
    the block, uniform to within resolution (max atom prob)^k.
    """

    def __init__(self, base: Strategy, k_extra: int, block: str = "first"):
        if k_extra < 1:
            raise ParameterRangeError("need at least one extra coordinate")
        if block not in ("first", "second"):
            raise InputError("block must be 'first' or 'second'")
        self.base = base
        self.space = base.space
        self.k_extra = k_extra
        self.block = block
        self.n = base.n + 2 * k_extra
        p = base.space.probs
        self.resolution = float(p.max()) ** k_extra
        self._cum = np.concatenate([[0.0], np.cumsum(p)[:-1]])

    def coin(self, extra_idx: np.ndarray) -> np.ndarray:
        u = np.zeros(extra_idx.shape[0])
        scale = np.ones(extra_idx.shape[0])
        p = self.space.probs
        for j in range(self.k_extra):
            col = extra_idx[:, j]
            u = u + self._cum[col] * scale
            scale = scale * p[col]
        return u + 0.5 * scale

    def evaluate(self, idx: np.ndarray) -> np.ndarray:
        idx = self._check_idx(idx)
        nb = self.base.n
        v = np.clip(self.base.evaluate(idx[:, :nb]), -1.0, 1.0)
        lo = nb if self.block == "first" else nb + self.k_extra
        u = self.coin(idx[:, lo : lo + self.k_extra])
        return np.where(u < (1.0 + v) / 2.0, 1.0, -1.0)


def randomized_round(
    f: Strategy,
    seed=0,
    mode: str = "rng",
    extra_coords: int = 0,
    block: str = "first",
    resolution: float = 1e-6,
) -> Strategy:
    """Round a [-1,1]-valued strategy to +-1 with E[output | x] = f(x).

    ``mode="rng"`` uses an explicit seeded generator.  ``mode="source"``
    consumes ``extra_coords`` designated extra source coordinates per coin
    block (the strategy then reads n + 2*extra_coords coordinates and uses
    the first or second block); raises when the block cannot reach the
    requested coin resolution, reporting what is achievable.
    """
    if mode == "rng":
        return RngRoundedStrategy(f, seed)
    if mode != "source":
        raise InputError(f"unknown mode {mode!r}; use 'rng' or 'source'")
    strat = SourceRoundedStrategy(f, extra_coords, block)
    if strat.resolution > resolution:
        raise ParameterRangeError(
            f"{extra_coords} extra coordinates reach coin resolution "
            f"{strat.resolution:.3g}, coarser than the requested {resolution:.3g}"
        )
    return strat


def round_pair(f: Strategy, g: Strategy, mode: str = "rng", seed=0, extra_coords: int = 0,
               resolution: float = 1e-6) -> tuple[Strategy, Strategy]:
    """Round both parties with independent coins (disjoint seeds or blocks)."""
    seeds = np.random.SeedSequence(seed).spawn(2) if mode == "rng" else (seed, seed)
    return (
        randomized_round(f, seeds[0], mode, extra_coords, "first", resolution),
        randomized_round(g, seeds[1], mode, extra_coords, "second", resolution),
    )


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


def exact_moments(f: Strategy, g: Strategy, dist: JointDistribution) -> tuple[float, float, float]:
    """(E[f], E[g], E[fg]) of a deterministic pair by full enumeration; the
    caller has checked the pair against ``dist`` and the cell cap."""
    qa, qb = dist.shape
    n = f.n
    vf = f.evaluate(all_assignments(qa, n))
    vg = g.evaluate(all_assignments(qb, n))
    # u(x) = sum_y prod_i mu(x_i, y_i) g(y)
    corr = float(weighted_sum(vf, contract_coordinates(vg, dist.table, n)))
    mean_f = float(weighted_sum(kron_power(dist.row_space.probs, n), vf))
    mean_g = float(weighted_sum(kron_power(dist.col_space.probs, n), vg))
    return mean_f, mean_g, corr


def _exact_stats(f: Strategy, g: Strategy, dist: JointDistribution) -> StrategyStats:
    mean_f, mean_g, corr = exact_moments(f, g, dist)
    joint = EmpiricalJoint2x2.from_moments(mean_f, mean_g, corr)
    return StrategyStats(mean_f, mean_g, corr, 0.0, 0.0, 0.0, joint, 0, "exact")


def _chunk_sums(vf: np.ndarray, vg: np.ndarray) -> np.ndarray:
    """Accumulator [sum f, sum g, sum fg, sum (fg)^2] of one chunk.

    The product is squared in place, so no second row-long temporary is
    made.
    """
    prod = vf * vg
    sums = [vf.sum(), vg.sum(), prod.sum()]
    prod *= prod
    return np.array([*sums, prod.sum()])


def _chain_probabilities(masses: np.ndarray) -> np.ndarray:
    """Success probabilities of the binomial chain that splits trials over
    the last axis of ``masses``: entry j over the mass from j on, for every
    entry but the last, whose count is what the chain leaves; 0 where no
    mass is left.  A sum of non-negative terms is never below one of them,
    so every probability lies in [0, 1]."""
    tails = np.cumsum(masses[..., ::-1], axis=-1)[..., ::-1]
    probs = np.zeros(masses.shape)
    np.divide(masses, tails, out=probs, where=tails > 0)
    return probs[..., :-1]


def _witness_sums(witness: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """sum_x witness[x] * counts[x] per row, added in place in atom order."""
    sums = counts[0] * witness[0]
    for x in range(1, len(witness)):
        sums += counts[x] * witness[x]
    return sums


def _lifted_pair_mc(
    f: LiftedStrategy,
    g: LiftedStrategy,
    dist: JointDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One chunk through the suffix block's joint cell counts.

    After the prefix cells of every row, the counts come as the
    multinomial's own chain of conditional binomials, one ``rng.binomial``
    call per stage over all rows: the row counts N_x (the first stage from
    the scalar w, then sorted in place), then, for each row atom x, its
    column counts given N_x, summed into the column counts M_y.  Sorting
    reorders draws on which nothing depends yet, and the rows' prefixes are
    independent of their suffixes, so the chunk sums keep the multinomial
    draw's distribution; with two atoms per side every later stage walks a
    monotone trial count, which lets the generator reuse its binomial
    setup from row to row.  The witness sums are elementwise and in place,
    so no BLAS call is made.  The outputs are +-1, so each sum is an exact
    integer.
    """
    qa, qb = dist.shape
    a, b = draw_cells(rng, dist.table, (n_samples, f.h))
    pa, pb = flat_index(a, qa), flat_index(b, qb)
    del a, b
    p_rows = _chain_probabilities(dist.table.sum(axis=1))
    p_cols = _chain_probabilities(dist.table)
    # row counts; the last row holds the trials no stage has taken yet
    row_counts = np.empty((qa, n_samples), dtype=np.int64)
    row_counts[-1] = f.w
    for x, p in enumerate(p_rows):
        row_counts[x] = rng.binomial(row_counts[-1] if x else f.w, p, size=n_samples)
        if x == 0:
            row_counts[0].sort()
        row_counts[-1] -= row_counts[x]
    sum_f = _witness_sums(f.witness, row_counts)
    col_counts = np.zeros((qb, n_samples), dtype=np.int64)
    for x in range(qa):
        left = row_counts[x]  # the row's trials no column has taken yet
        for y, p in enumerate(p_cols[x]):
            cell = rng.binomial(left, p)
            left -= cell
            col_counts[y] += cell
            del cell
        col_counts[-1] += left
    del row_counts, left
    sum_g = _witness_sums(g.witness, col_counts)
    del col_counts
    return _chunk_sums(f.output_for(pa, sum_f), g.output_for(pb, sum_g))


def _generic_pair_mc(
    f: Strategy,
    g: Strategy,
    dist: JointDistribution,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One chunk of explicit joint draws; rng-rounded strategies take its coins."""
    a, b = draw_cells(rng, dist.table, (n_samples, f.n))

    def values(s, idx):
        return s.evaluate(idx, rng=rng) if isinstance(s, RngRoundedStrategy) else s.evaluate(idx)

    return _chunk_sums(values(f, a), values(g, b))


def _run_chunks(job, n_chunks: int, threads: int) -> list:
    """[job(0), ..., job(n_chunks - 1)], run in the caller beside up to
    threads - 1 helper threads, never more helpers than chunks or cores allow.

    Each thread claims the next chunk index under a lock and stores its
    result by index.  After the first exception no thread claims another
    chunk, and the caller re-raises it once every helper has been joined.
    """
    results = [None] * n_chunks
    errors = []
    claims = iter(range(n_chunks))
    lock = threading.Lock()

    def run():
        while True:
            with lock:
                i = None if errors else next(claims, None)
            if i is None:
                return
            try:
                results[i] = job(i)
            except BaseException as exc:  # re-raised by the caller below
                with lock:
                    errors.append(exc)
                return

    helpers = [threading.Thread(target=run)
               for _ in range(min(threads, n_chunks, os.cpu_count() or 1) - 1)]
    for t in helpers:
        t.start()
    try:
        run()
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    return results


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
    chunks run at once: the caller and up to ``threads - 1`` helper
    threads, capped by the chunk count and ``os.cpu_count()``.
    """
    if threads < 1:
        raise ParameterRangeError(f"thread count must be positive, got {threads}")
    if f.n != g.n:
        raise InputError(f"coordinate counts differ: {f.n} vs {g.n}")
    if f.space != dist.row_space or g.space != dist.col_space:
        raise InputError("strategies must live on the two sides of the source")
    qa, qb = dist.shape
    too_large = power_exceeds(qa * qb, f.n, CELL_CAP)
    if mode not in ("auto", "exact", "monte_carlo"):
        raise InputError(f"unknown mode {mode!r}")
    randomized = isinstance(f, RngRoundedStrategy) or isinstance(g, RngRoundedStrategy)
    if mode == "exact" and randomized:
        raise InputError("exact enumeration is undefined for randomized strategies")
    if mode == "exact" or (mode == "auto" and not too_large and not randomized):
        if too_large:
            raise ParameterRangeError(
                f"exact enumeration needs {qa * qb}^{f.n} cells, above the cap {CELL_CAP}"
            )
        return _exact_stats(f, g, dist)
    if as_integer(n_samples, "sample count") < 1:
        raise ParameterRangeError("Monte Carlo needs at least one sample")

    lifted = (
        isinstance(f, LiftedStrategy)
        and isinstance(g, LiftedStrategy)
        and f.h == g.h
        and f.w == g.w
    )
    worker = _lifted_pair_mc if lifted else _generic_pair_mc
    width = f.h + qa * qb if lifted else f.n
    chunk = max(1, min(MC_CHUNK_SAMPLES, BLOCK_CELLS // max(1, width)))
    sizes = np.diff([*range(0, n_samples, chunk), n_samples])
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    parts = _run_chunks(
        lambda i: worker(f, g, dist, sizes[i], np.random.default_rng(streams[i])),
        len(sizes), threads,
    )
    acc = np.sum(parts, axis=0)

    m = float(n_samples)
    sum_f, sum_g, sum_fg = acc[:3]
    mean_f, mean_g, corr = sum_f / m, sum_g / m, sum_fg / m
    var_prod = max(0.0, acc[3] / m - corr**2)
    se_corr = math.sqrt(var_prod / m)
    se_f = math.sqrt(max(0.0, 1.0 - mean_f**2) / m)
    se_g = math.sqrt(max(0.0, 1.0 - mean_g**2) / m)
    # the independent-rounding masses pp, pm, mp, mm of the outputs, times 4:
    # sum (1 + f)(1 + g) = m + sum f + sum g + sum fg, and so on
    cells = np.clip([
        m + sum_f + sum_g + sum_fg, m + sum_f - sum_g - sum_fg,
        m - sum_f + sum_g - sum_fg, m - sum_f - sum_g + sum_fg,
    ], 0.0, None)
    joint = EmpiricalJoint2x2(cells / cells.sum())
    return StrategyStats(
        float(mean_f), float(mean_g), float(corr), se_f, se_g, se_corr,
        joint, n_samples, "lifted_monte_carlo" if lifted else "monte_carlo", seed,
    )
