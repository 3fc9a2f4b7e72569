"""Decision layer: sample-count chain, discretized search, and verdicts.

``n0_chain`` wires the parameter recipes end to end: a gap budget delta
splits into three equal loss budgets (smoothing, correlation transfer,
Gaussian simulation); the correlation-transfer budget dictates an
influence threshold tau, tau dictates a tail budget eta, eta and the
smoothing budget dictate a degree cutoff d, d and tau dictate the
restricted-coordinate budget h, and the simulation budget dictates the
witness-sum sample count w.  The final bound is n0 = h + w.  The chain is
evaluated in log space because realistic inputs push tau and h far
outside float range.

Every 2x2 target reduces to one search for strategy pairs on a tensor
power with means capped near two centers and large E[fg].  One decide
core computes the source's maximal correlation (for a sound ceiling
test) and the value grid's size once per call, grows the tensor weights
by one Kronecker factor per depth, and hands them down.  Each depth is
searched one way: the grid is enumerated (the core of
``brute_force_bmip``) when it fits the work cap, else the alternation of
``oracle_max_balanced_ip`` proposes a pair that is snapped to the grid;
the probe skips the oracle's upper bound.  The default grid is built
only where it is enumerated: the probe snaps to its values spacing * k
by arithmetic.  The alternation's starts are built once per (ka, seed)
and kept.  Both engines' candidates are judged by one rule (``_judge``),
passed as plain values: each side's mean window as (center, half width)
and the accept floor, which the core computes once per call and every
depth shares.  Both engines solve their box LPs in batches with one
closed-form knapsack (``_box_lp_max``, which returns maximizers only):
the alternation advances all its starts in lockstep, retiring each start
once it stops gaining, and the judge bounds every f row's best E[fg] at
once and visits the f rows in descending bound order, stopping once no
row left can reach the best value.  The probe's one snapped pair needs
no bound and no visit: the judge goes straight to its value.  The core
adds the reduction thresholds, exact re-verification of witnesses and
labeled bounded-depth rejections.  One cap, ``TABLE_CELL_CAP``, ends
the search: it bounds both the tensor table and the alternation's batch
of starts x the wider side's values.  ``decide_gap_nis`` frames it for a
balanced target (centers 0) and ``decide_2x2`` for any binary target
(Case II negates the second party).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NisimError, ParameterRangeError, ResourceLimitError
from .gaussian import berry_esseen_sample_count
from .maxcorr import maximal_correlation
from .regularity import (
    RegularityParams,
    SmoothingParams,
    regularity_params,
    smoothing_params_from_log_eta,
)
from .spaces import EmpiricalJoint2x2, JointDistribution
from .strategies import TableStrategy
from .rounding import exact_moments
# unused here: perfbench's simulate workload and tracer read these as nisim.decision.*
from .rounding import randomized_round, round_pair  # noqa: F401
from .util import (
    BLOCK_CELLS,
    SCRATCH_CELLS,
    all_assignments,
    as_integer,
    ceil_tolerant,
    kron_factor,
    kron_power,
    log10_from_ln,
    log_add_exp,
    power_exceeds,
    weighted_sum,
)

WORK_CAP = 10**8
SIDE_MEM_CAP = 5 * 10**7
TABLE_CELL_CAP = 10**6
ACCEPT_TOL = 1e-12
ORACLE_RANDOM_STARTS = 32
ORACLE_VERTEX_START_CAP = 12  # vertex starts and bound when ka <= this
ORACLE_MAX_ROUNDS = 60
_BOUND_MARGIN = 1e-9  # covers the rounding of a knapsack bound; |E[fg]| <= 1
_FIRST_VISIT_ROWS = 64  # f rows in the first block of bound-ordered enumeration
_TINY = np.finfo(float).tiny


# -- parameter chain ---------------------------------------------------------


@dataclass(frozen=True)
class ChainConstants:
    C_smooth: float = 1.0
    C_tau: float = 1.0
    C_be: float = 1.0

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterRangeError(f"{name} must be positive and finite, got {value}")

    def as_dict(self) -> dict:
        return {"C_smooth": self.C_smooth, "C_tau": self.C_tau, "C_be": self.C_be}


@dataclass(frozen=True)
class ParameterChain:
    """All chained constants, with log-space magnitudes where floats give out."""

    delta: float
    rho: float
    alpha: float
    lam: float
    gamma_budget: float
    zeta: float
    k_tau: int
    ln_tau: float
    tau: float
    ln_eta: float
    smoothing: SmoothingParams
    d: int
    reg_row: RegularityParams
    reg_col: RegularityParams
    h_log10: float
    h_int: int | None
    w: int
    n0_log10: float
    n0_int: int | None
    constants: ChainConstants

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "rho": self.rho,
            "alpha": self.alpha,
            "lambda": self.lam,
            "gamma_budget": self.gamma_budget,
            "zeta": self.zeta,
            "tau_exponent": self.k_tau,
            "tau": self.tau,
            "log10_tau": log10_from_ln(self.ln_tau),
            "log10_eta": log10_from_ln(self.ln_eta),
            "gamma_noise": self.smoothing.gamma,
            "mossel_condition_met": self.smoothing.mossel_condition_met,
            "d": self.d,
            "beta_regime_clamped": self.reg_row.beta_regime_clamped
            or self.reg_col.beta_regime_clamped,
            "h_log10": self.h_log10,
            "h": self.h_int,
            "w": self.w,
            "n0_log10": self.n0_log10,
            "n0": self.n0_int,
            "constants": self.constants.as_dict(),
            "note": "constants default to 1, so n0 is a lower estimate of the bound",
        }


def n0_chain(
    dist: JointDistribution, delta: float, constants: ChainConstants | None = None
) -> ParameterChain:
    """Evaluate the full sample-count chain for a source and gap budget."""
    if constants is None:
        constants = ChainConstants()
    if not 0.0 < delta < 1.0:
        raise ParameterRangeError(f"gap budget must lie in (0, 1), got {delta}")
    return _n0_chain(dist, delta, constants, maximal_correlation(dist).rho)


def _n0_chain(
    dist: JointDistribution, delta: float, constants: ChainConstants, rho: float
) -> ParameterChain:
    """The chain body, for a caller that already has the maximal correlation."""
    if rho >= 1.0 - 1e-12:
        raise ParameterRangeError(
            "chain undefined at maximal correlation 1 (perfectly correlated component)"
        )
    alpha = dist.alpha
    lam = gb = zeta = delta / 3.0

    too_large = (
        f"overflows float range at delta = {delta:g}, C_tau = {constants.C_tau:g}; "
        "raise delta or lower C_tau"
    )
    denom = (1.0 - rho) * gb  # 0 once delta / 3 underflows
    k_raw = (
        constants.C_tau * math.log(1.0 / gb) * math.log(1.0 / alpha) / denom
        if denom > 0.0 else math.inf
    )
    if not math.isfinite(k_raw):
        raise ParameterRangeError(f"the influence exponent {too_large}")
    k_tau = ceil_tolerant(k_raw, min_value=1)
    ln_tau = k_tau * math.log(gb)
    tau = math.exp(ln_tau) if ln_tau > -700 else 0.0
    ln_eta = 2.0 * ln_tau - math.log(16.0)

    smoothing = smoothing_params_from_log_eta(rho, lam, ln_eta, constants.C_smooth)
    d = smoothing.d

    alpha_row = min(dist.row_space.alpha, 0.5)
    alpha_col = min(dist.col_space.alpha, 0.5)
    reg_row = regularity_params(d, tau, alpha_row, ln_tau=ln_tau)
    reg_col = regularity_params(d, tau, alpha_col, ln_tau=ln_tau)

    ln_h = log_add_exp(math.log(d) + reg_row.ln_inv_beta, math.log(d) + reg_col.ln_inv_beta)
    if ln_h < 42 * math.log(2):
        # each side's ln h is below the sum's, so both h_bound are set
        h_int: int | None = reg_row.h_bound + reg_col.h_bound
        ln_h = math.log(h_int)
    else:
        h_int = None

    w = berry_esseen_sample_count(rho, alpha, zeta, constants.C_be)
    ln_n0 = log_add_exp(ln_h, math.log(w))
    if not math.isfinite(ln_n0):
        raise ParameterRangeError(f"log n0 {too_large}")
    n0_int = h_int + w if h_int is not None else None

    return ParameterChain(
        delta=delta,
        rho=rho,
        alpha=alpha,
        lam=lam,
        gamma_budget=gb,
        zeta=zeta,
        k_tau=k_tau,
        ln_tau=ln_tau,
        tau=tau,
        ln_eta=ln_eta,
        smoothing=smoothing,
        d=d,
        reg_row=reg_row,
        reg_col=reg_col,
        h_log10=log10_from_ln(ln_h),
        h_int=h_int,
        w=w,
        n0_log10=log10_from_ln(ln_n0),
        n0_int=n0_int,
        constants=constants,
    )


# -- range discretization -------------------------------------------------------


class _Lattice(NamedTuple):
    """``discretize_range(delta)`` unbuilt: the values spacing * k, |k| <= k_max."""

    delta: float
    spacing: float
    k_max: int


def _lattice(delta: float) -> _Lattice:
    """Size the default value grid, raising ``ResourceLimitError`` when its
    2 * k_max + 1 values exceed ``SIDE_MEM_CAP``."""
    if not 0.0 < delta <= 1.0:
        raise ParameterRangeError(f"gap budget must lie in (0, 1], got {delta}")
    top = 10.0 / (delta * delta) - 1e-9 if delta * delta > 0.0 else math.inf
    if top >= (SIDE_MEM_CAP + 1) // 2:  # then 2 * floor(top) + 1 > SIDE_MEM_CAP
        raise ResourceLimitError(
            f"gap budget {delta:g} needs a value grid of more than {SIDE_MEM_CAP} values "
            "(the memory cap); use a larger delta"
        )
    return _Lattice(delta, delta * delta / 10.0, int(math.floor(top)))


def discretize_range(delta: float) -> np.ndarray:
    """Symmetric value grid {k * delta^2/10 : |k| < 10/delta^2}, strictly inside (-1, 1).

    Raises ``ResourceLimitError`` before allocating when the grid's
    2 * k_max + 1 values exceed ``SIDE_MEM_CAP``.
    """
    _, spacing, k_max = _lattice(delta)
    return spacing * np.arange(-k_max, k_max + 1)


def _check_grid(grid) -> np.ndarray:
    """A caller's value grid as sorted floats: non-empty, 1-D, finite and inside [-1, 1].

    Strategies take values in [-1, 1], and ``_judge``'s knapsack bound
    holds only for grid rows inside that box.  The probe's snap needs the
    grid sorted, as ``discretize_range`` returns it.
    """
    try:
        values = np.asarray(grid, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"value grid must be a list of numbers: {exc}") from None
    if values.ndim != 1 or values.size == 0:
        raise InputError(f"value grid must be a non-empty 1-D array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise InputError("value grid must be finite")
    if np.abs(values).max() > 1.0:
        raise ParameterRangeError(
            f"value grid must lie inside [-1, 1], got values up to {np.abs(values).max():g}"
        )
    return np.sort(values)


# -- targets and verdicts ---------------------------------------------------------


# a 2x2 target is its outcome table; perfbench/workloads imports this second name
Target2x2 = EmpiricalJoint2x2


@dataclass
class Verdict:
    decision: str
    sound: bool
    reason: str
    thresholds: dict
    caveat: str = ""
    n_used: int | None = None
    witness_f: TableStrategy | None = None
    witness_g: TableStrategy | None = None
    achieved: dict | None = None
    search_max: float | None = None
    n0_report: dict | None = None

    @property
    def accepted(self) -> bool:
        return self.decision == "ACCEPT"

    def as_dict(self) -> dict:
        out = {
            "decision": self.decision,
            "sound": self.sound,
            "reason": self.reason,
            "thresholds": self.thresholds,
            "caveat": self.caveat,
            "n_used": self.n_used,
            "achieved": self.achieved,
            "search_max": self.search_max,
        }
        if self.witness_f is not None:
            out["witness"] = {
                "f": self.witness_f.values.tolist(),
                "g": self.witness_g.values.tolist(),
            }
        else:
            out["witness"] = None
        if self.n0_report is not None:
            out["n0"] = self.n0_report
        return out


# -- brute-force search -----------------------------------------------------------


@dataclass(frozen=True)
class BmipResult:
    accept: bool
    best_value: float
    f_values: np.ndarray | None
    g_values: np.ndarray | None
    mode: str


def _tensor_weights(dist: JointDistribution, n: int, previous=None):
    """The depth-n weights ``(W, wa, wb)``: the n-th Kronecker powers of the
    table and of both marginals.  ``previous``, depth n - 1's weights, grows
    by one factor (``kron_factor``), the same bits as building them anew."""
    if as_integer(n, "power") < 1:
        raise ParameterRangeError(f"power must be positive, got {n}")
    qa, qb = dist.shape
    if power_exceeds(qa * qb, n, TABLE_CELL_CAP):
        raise ResourceLimitError(
            f"tensor table needs {qa * qb}^{n} cells, above the search cap {TABLE_CELL_CAP}"
        )
    factors = (dist.table, dist.row_space.probs, dist.col_space.probs)
    if previous is None:
        return tuple(kron_power(a, n) for a in factors)
    return tuple(kron_factor(out, a) for out, a in zip(previous, factors))


def _grid_assignments(grid: np.ndarray, k: int) -> np.ndarray:
    """All |grid|^k value rows, lexicographic in the given grid order."""
    if len(grid) ** k * k > SIDE_MEM_CAP:
        raise ResourceLimitError(
            f"{len(grid) ** k} grid assignments of width {k} exceed the memory cap"
        )
    return grid[all_assignments(len(grid), k)]


def brute_force_bmip(
    dist: JointDistribution,
    n: int,
    rho_target: float,
    delta: float,
    mean_caps: tuple[float, float],
    grid: np.ndarray | None = None,
    mean_centers: tuple[float, float] = (0.0, 0.0),
    mean_slack: float | None = None,
    corr_slack: float | None = None,
) -> BmipResult:
    """Maximize E[f g] over grid-valued strategy pairs with near-capped means.

    Accepts when the best mean-feasible pair reaches rho_target - corr_slack.
    Default slacks are the decide procedure's, which absorb the grid
    rounding error: mean slack delta^2/5 and correlation slack delta^2/4.
    Deterministic: the first maximum in lexicographic order over the sorted
    grid is kept.  A caller's ``grid`` must be non-empty, 1-D, finite and
    inside [-1, 1] (``InputError`` or ``ParameterRangeError`` otherwise), and
    ``n`` positive.  Raises ``ResourceLimitError`` when the grid pairs
    exceed ``WORK_CAP``.
    """
    lattice = _lattice(delta) if grid is None else None
    if grid is not None:
        grid = _check_grid(grid)
    th = _search_thresholds(delta)
    mean_slack = th["mean_slack"] if mean_slack is None else mean_slack
    corr_slack = th["corr_slack"] if corr_slack is None else corr_slack
    windows = [(c, cap + mean_slack + ACCEPT_TOL) for c, cap in zip(mean_centers, mean_caps)]
    return _enumerate(_tensor_weights(dist, n), grid, windows, rho_target - corr_slack, lattice)


def _enumerate(weights, grid, windows, floor, lattice=None) -> BmipResult:
    """``brute_force_bmip`` on one depth's tensor weights ``(W, wa, wb)``.

    ``grid`` None stands for the default grid ``lattice``, which is built
    (``discretize_range``) only once its pairs fit the work cap.
    """
    ka, kb = weights[0].shape
    size = 2 * lattice.k_max + 1 if grid is None else len(grid)
    if power_exceeds(size, ka + kb, WORK_CAP):
        raise ResourceLimitError(
            f"{size}^{ka + kb} grid pairs exceed the work cap {WORK_CAP}; "
            "coarsen the grid"
        )
    if grid is None:
        grid = discretize_range(lattice.delta)
    return _judge(
        weights, _grid_assignments(grid, kb), lambda: _grid_assignments(grid, ka),
        windows, floor, "enumeration",
    )


def _judge(weights, G, f_rows, windows, floor, mode) -> BmipResult:
    """The one acceptance rule of both search engines.

    Keeps the candidate value rows whose means lie in their windows: f's
    and g's ``windows`` are (center, half_width) pairs, the half width
    being cap + mean_slack + ``ACCEPT_TOL``.  Takes the best E[fg] over the
    kept pairs (first maximum in row-major order) and accepts when it
    reaches ``floor`` (rho_target - corr_slack) less ``ACCEPT_TOL``.  The
    visit ranks pairs by BLAS products; the winner's E[fg], which is
    printed and judged, is recomputed with ``util.weighted_sum``.  ``G``
    holds g's rows, which must lie in [-1, 1]; ``f_rows()`` builds f's only
    once some g row fits.

    The pairs are visited in bound order: the value of g's knapsack over
    the box and g's window (``_box_lp_max``, one batch, its maximizers
    valued here) bounds each f row's best E[fg] from above, since every
    kept g row is a point of that polytope.  The f rows are visited in
    descending bound order, in blocks that start small and double, until
    the next bound falls below the best value found less ``_BOUND_MARGIN``;
    no row left unvisited can then reach the best value.  A single kept
    pair (every probe depth's snapped pair) is the winner without a visit:
    the visit would pick it, and its value is computed in fixed order
    either way.
    """
    W, wa, wb = weights
    (center_f, half_f), (center_g, half_g) = windows
    infeasible = BmipResult(False, -math.inf, None, None, mode)
    G = G[np.abs(weighted_sum(G, wb) - center_g) <= half_g]
    if len(G) == 0:
        return infeasible
    F = f_rows()
    F = F[np.abs(weighted_sum(F, wa) - center_f) <= half_f]
    if len(F) == 0:
        return infeasible

    ng = len(G)
    best_key = 0  # key = f row * ng + g row: row-major order
    if len(F) * ng > 1:
        C = F @ W  # (Nf, kb), for ranking only, as are the knapsack bounds and vals
        # the knapsack holds about a dozen temporaries the size of its input
        chunk = max(1, BLOCK_CELLS // (16 * C.shape[1]))
        bounds = []
        for s in range(0, len(C), chunk):
            rows = C[s : s + chunk]
            g_max = _box_lp_max(rows, wb, half_g, center_g)
            bounds.append(np.einsum("ij,ij->i", rows, g_max))
        bound = np.concatenate(bounds)
        order = np.argsort(-bound, kind="stable")
        GT = np.ascontiguousarray(G.T)
        most_rows = max(1, BLOCK_CELLS // ng)
        best_val, best_key = -math.inf, -1
        start, size = 0, min(_FIRST_VISIT_ROWS, most_rows)
        while start < len(order) and bound[order[start]] >= best_val - _BOUND_MARGIN:
            idx = order[start : start + size]
            vals = C[idx] @ GT
            row_max = vals.max(axis=1)
            v = float(row_max.max())
            if v >= best_val:
                # argmax keeps a row's first maximum, the smallest key in that row
                tied = np.flatnonzero(row_max == v)
                key = int((idx[tied] * ng + vals[tied].argmax(axis=1)).min())
                if v > best_val or key < best_key:
                    best_val, best_key = v, key
            start += size
            size = min(2 * size, most_rows)
    fv, gv = F[best_key // ng], G[best_key % ng]
    best_val = float(weighted_sum(fv, weighted_sum(W, gv)))
    return BmipResult(best_val >= floor - ACCEPT_TOL, best_val, fv.copy(), gv.copy(), mode)


# -- independent oracle ------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    value: float
    f_values: np.ndarray
    g_values: np.ndarray
    upper_bound: float


def _box_lp_max(rows: np.ndarray, m: np.ndarray, cap: float, center: float):
    """Maximize w.g over the box [-1,1]^k with |m.g - center| <= cap, per row w.

    One linear constraint over a box makes this a fractional knapsack
    (Dantzig 1957), solved in closed form: start from the unconstrained
    optimum g = sign(w); when m.g falls outside the window, move
    coordinates to their other bound, cheapest objective loss per unit of
    m.g first (w_i / m_i, stable order), until m.g reaches the window's
    near edge.  The last coordinate moved may stop at a fractional value,
    so the maximizer is a vertex of the box-slab polytope.  ``rows`` is a
    (rows, k) batch of objectives w; returns the (rows, k) maximizers.  A
    caller that needs the values w.g computes them itself (the alternation
    needs none).  The order of moves stays a stable sort: tensor weights
    make tied costs common, and another tie order would move other
    coordinates.
    """
    reach = float(np.abs(m).sum())  # m.g ranges over [-reach, reach]
    if cap < 0 or abs(center) - cap > reach + ACCEPT_TOL * max(1.0, reach):
        raise NisimError(
            f"box LP infeasible: no g in [-1,1]^k has |m.g - {center:.6g}| <= {cap:.6g}"
        )
    g = np.where(rows >= 0.0, 1.0, -1.0)
    offset = g @ m - center  # BLAS: a ranking site (``util.weighted_sum``)
    need = np.abs(offset)
    need -= cap  # m.g to recover; <= 0 inside the window
    if need.max() > 0.0:
        pm = np.sign(offset)[:, None] * m  # every move lowers pm.g
        sign = np.sign(pm)
        room = sign * g
        room += 1.0  # distance to the other bound: 0 or 2
        # cost: objective lost per unit of pm.g; a coordinate without supply
        # (room or sign 0) never moves, whatever its cost and frac
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            flat = (rows / pm).argsort(axis=1, kind="stable")
            supply = np.abs(pm, out=pm)
            supply *= room  # pm.g recovered by a full move
            flat += np.arange(0, rows.size, rows.shape[1])[:, None]
            supply = supply.take(flat)
            frac = supply.cumsum(axis=1)
            frac -= supply  # supply before each move
            np.subtract(need[:, None], frac, out=frac)
            frac /= np.maximum(supply, _TINY, out=supply)
        np.maximum(frac, 0.0, out=frac)
        moved = np.empty_like(frac)
        moved.put(flat, np.minimum(frac, 1.0, out=frac))
        sign *= room
        sign *= moved
        g -= sign
    return g


def oracle_max_balanced_ip(
    dist: JointDistribution, n: int, mean_caps: tuple[float, float], seed=0
) -> OracleResult:
    """Alternating maximization of E[f g] over [-1,1]-valued pairs whose
    means lie within ``mean_caps`` of 0.

    With one side fixed the other side is an exact box LP, solved in closed
    form as a fractional knapsack (``_box_lp_max``).  Alternation from
    random and vertex starts, all advancing in lockstep with one batched
    knapsack per half-round, certifies a lower bound only, reported with a
    rigorous upper bound: the maximal-correlation ceiling, tightened when
    ka <= ORACLE_VERTEX_START_CAP by the best g-side box LP over all +-1
    vertices f of the box (f's mean window relaxed; one batched knapsack).
    The decide probe runs the alternation only (``_alternate``, also
    around other centers) and never computes this bound.  ``n`` must be
    positive (``ParameterRangeError``), as for ``brute_force_bmip``.
    """
    weights = W, _, wb = _tensor_weights(dist, n)
    seed = as_integer(seed, "seed")
    value, f, g = _alternate(weights, mean_caps, (0.0, 0.0), seed)
    win_a, win_b = [(max(-1.0, -k), min(1.0, k)) for k in mean_caps]
    upper = _correlation_ceiling(maximal_correlation(dist).rho, win_a, win_b)
    if W.shape[0] <= ORACLE_VERTEX_START_CAP:
        vertices = _start_table(W.shape[0], seed)[:-ORACLE_RANDOM_STARTS]
        # BLAS: a bound, kept with the ranking sites (``util.weighted_sum``)
        rows = vertices @ W
        g_max = _box_lp_max(rows, wb, mean_caps[1], 0.0)
        upper = min(upper, float(np.einsum("ij,ij->i", rows, g_max).max()))
    return OracleResult(value, f, g, float(upper))


def _start_table(ka: int, seed: int) -> np.ndarray:
    """The alternation's starts for ``ka`` f coordinates, read-only: the +-1
    vertices when ka <= ORACLE_VERTEX_START_CAP, then ORACLE_RANDOM_STARTS
    random ones drawn from ``seed``.  ``_alternate`` asks for it only once
    the batch fits ``TABLE_CELL_CAP``, so a table holds at most 10^6
    floats (8 MB).  Tables of at most ``SCRATCH_CELLS`` cells are kept
    (``_kept_start_table``), so the cache holds at most 16 of 1 MB; larger
    ones are built per call, to the same bits."""
    starts = ORACLE_RANDOM_STARTS + (2**ka if ka <= ORACLE_VERTEX_START_CAP else 0)
    build = _kept_start_table if starts * ka <= SCRATCH_CELLS else _build_start_table
    return build(ka, seed)


def _build_start_table(ka: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if ka <= ORACLE_VERTEX_START_CAP:
        vertices = all_assignments(2, ka) * 2.0 - 1.0
    else:
        vertices = np.empty((0, ka))
    table = np.vstack([vertices, rng.uniform(-1.0, 1.0, size=(ORACLE_RANDOM_STARTS, ka))])
    table.flags.writeable = False
    return table


_kept_start_table = functools.lru_cache(maxsize=16)(_build_start_table)


def _alternate(weights, mean_caps, centers, seed=0) -> tuple[float, np.ndarray, np.ndarray]:
    """The oracle's alternation on one depth's tensor weights: best (E[fg], f, g).

    All starts (``_start_table``, built once per (ka, seed)) advance in
    lockstep: each half-round is one batched knapsack over the live
    starts, g's for ``F @ W`` and f's for ``G @ W.T``.  A start stops in
    the round that gains at most 1e-12 or hands back the f the round began
    with (the next round would recompute the same pair and value), or
    after ORACLE_MAX_ROUNDS rounds, keeping its latest pair and its best
    value.  A scan in start order picks the winner, replacing the best
    only on a gain of more than 1e-12.  Raises ``ResourceLimitError``,
    before any start is built, when the batch of starts x max(ka, kb)
    values exceeds ``TABLE_CELL_CAP``.
    """
    W, wa, wb = weights
    ka, kb = W.shape
    starts = ORACLE_RANDOM_STARTS + (2**ka if ka <= ORACLE_VERTEX_START_CAP else 0)
    if starts * max(ka, kb) > TABLE_CELL_CAP:
        raise ResourceLimitError(
            f"oracle batch needs {starts} x {max(ka, kb)} cells, "
            f"above the search cap {TABLE_CELL_CAP}"
        )
    cap_f, cap_g = mean_caps
    center_f, center_g = centers
    F = _start_table(ka, as_integer(seed, "seed")).copy()
    G = np.zeros((len(F), kb))
    val = np.full(len(F), -math.inf)
    live = np.arange(len(F))
    for _ in range(ORACLE_MAX_ROUNDS):
        at = slice(None) if live.size == len(F) else live  # a view while all are live
        # BLAS: a ranking site, the pair reaches output through _judge's value
        g = _box_lp_max(F[at] @ W, wb, cap_g, center_g)
        f = _box_lp_max(g @ W.T, wa, cap_f, center_f)
        new = np.einsum("ij,ij->i", f @ W, g)
        done = (new <= val[at] + 1e-12) | (f == F[at]).all(axis=1)
        F[at], G[at] = f, g
        val[at] = np.maximum(val[at], new)
        live = live[~done]
        if not live.size:
            break

    vals, best = val.tolist(), 0
    for i, v in enumerate(vals):
        if v > vals[best] + 1e-12:
            best = i
    return float(val[best]), F[best].copy(), G[best].copy()


# -- gap decisions ---------------------------------------------------------------


def _correlation_ceiling(rho0: float, win_a: tuple[float, float], win_b: tuple[float, float]) -> float:
    """Rigorous upper bound on E[fg] when the means are confined to windows."""
    corners = [a * b for a in win_a for b in win_b]
    a_min = 0.0 if win_a[0] <= 0.0 <= win_a[1] else min(abs(win_a[0]), abs(win_a[1]))
    b_min = 0.0 if win_b[0] <= 0.0 <= win_b[1] else min(abs(win_b[0]), abs(win_b[1]))
    return max(corners) + rho0 * math.sqrt((1 - a_min**2) * (1 - b_min**2))


def _calibrate_pair(
    result: BmipResult, weights, centers: tuple[float, float], target_corr: float
) -> tuple[np.ndarray, np.ndarray]:
    """Blend the search's pair toward the constant-mean pair until E[fg] <= target_corr.

    Blending f -> a f + (1-a) c_f (same a on both sides) moves the
    correlation continuously from the search value down to c_f * c_g, so a
    root exists whenever the search overshot; means only tighten.
    """
    fv, gv, C = result.f_values, result.g_values, result.best_value
    (_, wa, wb), (cu, cv) = weights, centers
    if C <= target_corr:
        return fv, gv
    ef, eg = float(weighted_sum(fv, wa)), float(weighted_sum(gv, wb))
    a = _blend_factor(
        C - cu * eg - cv * ef + cu * cv, cu * eg + cv * ef - 2.0 * cu * cv, cu * cv - target_corr
    )
    if a is None:
        return fv, gv
    return a * fv + (1 - a) * cu, a * gv + (1 - a) * cv


def _blend_factor(A: float, B: float, C: float) -> float | None:
    """The largest real root of A a^2 + B a + C within 1e-12 of [0, 1],
    clamped to [0, 1]; None without one.

    The roots come from the cancellation-free closed form
    q = -(B + sign(B) sqrt(disc)) / 2, roots q / A and C / q, in ``math``,
    so they round the same on every machine.  Below |A| = 1e-15 the
    equation is taken as linear.  A negative discriminant whose roots'
    imaginary part would be below 1e-12 gives the double root -B / 2A.
    """
    if abs(A) <= 1e-15:
        roots = [-C / B] if abs(B) > 1e-15 else []
    elif (disc := B * B - 4.0 * A * C) < 0.0:
        roots = [-B / (2.0 * A)] if math.sqrt(-disc) / (2.0 * abs(A)) < 1e-12 else []
    else:
        q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
        roots = [q / A, C / q] if q != 0.0 else [0.0]  # q = 0 only when B = C = 0
    candidates = [r for r in roots if -1e-12 <= r <= 1.0 + 1e-12]
    return min(1.0, max(0.0, max(candidates))) if candidates else None


def _snap_to_grid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Nearest value of the sorted ``grid``, ties toward the lower one (deterministic)."""
    pos = np.clip(np.searchsorted(grid, values), 1, len(grid) - 1)
    lo, hi = grid[pos - 1], grid[pos]
    return np.where(values - lo <= hi - values, lo, hi)


def _snap_to_lattice(values: np.ndarray, lattice: _Lattice) -> np.ndarray:
    """``_snap_to_grid(values, discretize_range(lattice.delta))`` without the grid.

    The grid's value k is the product spacing * k, so lo and hi are the
    grid's own floats.  k = ceil(v / spacing), clamped as ``searchsorted``'s
    index is, can miss the first k with spacing * k >= v by one step only
    where v lies within rounding of a grid value, and both brackets then
    pick that value.
    """
    _, spacing, k_max = lattice
    k = np.ceil(values / spacing)
    np.minimum(np.maximum(k, 1 - k_max, out=k), k_max, out=k)
    lo, hi = spacing * (k - 1.0), spacing * k
    return np.where(values - lo <= hi - values, lo, hi) + 0.0  # -0.0 to the grid's 0.0


def _search_one_level(weights, grid, mean_caps, windows, floor, lattice=None) -> BmipResult:
    """Full grid search when it fits the work cap, oracle probe otherwise.

    Both judge by ``windows`` and ``floor`` (see ``_judge``); the oracle's
    alternation holds the means within ``mean_caps`` of the windows'
    centers.  The probe snaps the alternating oracle's pair to the grid, or
    with ``grid`` None to the default grid ``lattice`` by arithmetic.
    An ACCEPT from it is fully verified (grid-valued witness, thresholds
    re-checked exactly); a non-accept carries no guarantee beyond the
    depths the oracle explored.  Raises ``ResourceLimitError`` when the
    oracle's batch of starts exceeds the cell cap too.
    """
    try:
        return _enumerate(weights, grid, windows, floor, lattice)
    except ResourceLimitError:
        pass
    _, f, g = _alternate(weights, mean_caps, [center for center, _ in windows])

    def snap(values):
        if grid is None:
            return _snap_to_lattice(values, lattice)[None]
        return _snap_to_grid(values, grid)[None]
    return _judge(weights, snap(g), lambda: snap(f), windows, floor, "oracle_probe")


def _search_thresholds(delta: float) -> dict:
    return {
        "mean_cap": 8.0 * delta / 3.0,
        "mean_slack": delta * delta / 5.0,
        "corr_margin": 3.0 * delta,
        "corr_slack": delta * delta / 4.0,
    }


def _verify_accept(
    fv, gv, dist, n, cap, centers, accept_floor_value
) -> tuple[TableStrategy, TableStrategy, dict]:
    """Re-evaluate a witness exactly and hard-assert that its means lie within
    ``cap`` of ``centers`` and its E[fg] reaches the floor, up to 1e-9."""
    f = TableStrategy(dist.row_space, n, fv)
    g = TableStrategy(dist.col_space, n, gv)
    mean_f, mean_g, corr_fg = exact_moments(f, g, dist)
    if abs(mean_f - centers[0]) > cap + 1e-9 or abs(mean_g - centers[1]) > cap + 1e-9:
        raise AssertionError("accepted witness violates its mean caps on re-evaluation")
    if corr_fg < accept_floor_value - 1e-9:
        raise AssertionError("accepted witness violates its correlation floor on re-evaluation")
    return f, g, {"mean_f": mean_f, "mean_g": mean_g, "corr_fg": corr_fg}


def _decide(
    dist: JointDistribution,
    delta: float,
    n_search: int,
    rho_t: float,
    centers: tuple[float, float],
    head: dict,
    case: str | None,
    constants: ChainConstants | None,
    grid: np.ndarray | None,
    report_n0: bool,
) -> Verdict:
    """The decide procedure behind both doors: pairs with means near
    ``centers`` and E[fg] near ``rho_t``; ``head`` leads the thresholds.

    ``case`` is None for the balanced door, whose ceiling windows stay
    unclipped, and "I"/"II" for a 2x2 target; Case II searches with Bob
    negated (``centers`` and ``rho_t`` already flipped) and flips the
    witness back.
    """
    if constants is None:
        constants = ChainConstants()
    if not 0.0 < delta < 1.0:
        raise ParameterRangeError(f"gap budget must lie in (0, 1), got {delta}")
    if as_integer(n_search, "search depth") < 1:
        raise ParameterRangeError(f"search depth must be positive, got {n_search}")
    if grid is not None:
        grid = _check_grid(grid)
    label = "" if case is None else f" (case {case})"

    th = _search_thresholds(delta)
    cap = th["mean_cap"] + th["mean_slack"]
    accept_floor = rho_t - th["corr_margin"] - th["corr_slack"]
    rho0 = maximal_correlation(dist).rho
    win_a, win_b = [(c - cap, c + cap) for c in centers]
    if case is not None:
        win_a, win_b = [(max(-1.0, lo), min(1.0, hi)) for lo, hi in (win_a, win_b)]
    ceiling = _correlation_ceiling(rho0, win_a, win_b)
    thresholds = dict(th, **head, accept_floor=accept_floor, ceiling=ceiling)

    def verdict(**fields) -> Verdict:
        n0 = None
        if report_n0:
            try:
                n0 = _n0_chain(dist, delta, constants, rho0).as_dict()
            except InputError as exc:
                n0 = {"error": str(exc)}
        return Verdict(**fields, n0_report=n0)

    if ceiling < accept_floor - ACCEPT_TOL:
        if case is None:
            bound = f"any pair with means within {cap:.6g} has E[fg] <= {ceiling:.6g}"
        else:
            bound = f"means near the target admit at most E[fg] = {ceiling:.6g}"
        return verdict(
            decision="REJECT", sound=True, reason="maximal-correlation-ceiling",
            thresholds=thresholds, caveat=f"sound at every n{label}: {bound} < {accept_floor:.6g}",
        )

    lattice = _lattice(delta) if grid is None else None
    mean_caps = (th["mean_cap"], th["mean_cap"])
    windows = [(c, cap + ACCEPT_TOL) for c in centers]
    probe_used = False
    n_used, cap_note = n_search, ""
    weights = None
    for n in range(1, n_search + 1):
        try:
            weights = _tensor_weights(dist, n, weights)
            result = _search_one_level(weights, grid, mean_caps, windows, accept_floor, lattice)
        except ResourceLimitError as exc:
            if n == 1:
                raise
            n_used, cap_note = n - 1, f" (depth {n} exceeds a search cap: {exc})"
            break
        probe_used = probe_used or result.mode == "oracle_probe"
        if result.accept:
            fv, gv = _calibrate_pair(result, weights, centers, rho_t)
            f, g, achieved = _verify_accept(
                fv, gv, dist, n, cap, centers, min(result.best_value, rho_t) - 1e-9
            )
            search_max = result.best_value
            if case == "II":
                g = TableStrategy(dist.col_space, n, -g.values)
                achieved = dict(achieved, mean_g=-achieved["mean_g"], corr_fg=-achieved["corr_fg"])
                search_max = -search_max
            return verdict(
                decision="ACCEPT", sound=True, reason="witness-found",
                thresholds=dict(thresholds, search_mode=result.mode), n_used=n,
                witness_f=f, witness_g=g, achieved=achieved, search_max=search_max,
            )

    caveat = (
        f"bounded-depth rejection{label}: searched n <= {n_used}; "
        "the rejection guarantee requires searching n = n0"
    )
    if probe_used:
        caveat += " (grid exceeded the work cap at some depths; oracle probe only)"
    return verdict(
        decision="REJECT", sound=False, reason="bounded-depth",
        thresholds=thresholds, caveat=caveat + cap_note, n_used=n_used,
    )


def decide_gap_nis(
    dist: JointDistribution,
    rho: float,
    delta: float,
    n_search: int,
    constants: ChainConstants | None = None,
    grid: np.ndarray | None = None,
    report_n0: bool = False,
) -> Verdict:
    """Decide whether the source can reach a balanced target correlation rho.

    ACCEPT verdicts carry an exactly re-verified witness pair, calibrated so
    randomized rounding lands within total variation 8*delta of the target.
    A REJECT is sound when the maximal-correlation ceiling rules out every
    n; otherwise it is a bounded-depth rejection, labeled as such, since
    the guarantee of the parameter chain applies only at n = n0.  When a
    depth beyond the first exceeds the search caps, the search stops there
    and the rejection reports the depths actually searched in ``n_used``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ParameterRangeError(f"target correlation must lie in [0, 1], got {rho}")
    return _decide(
        dist, delta, n_search, rho, (0.0, 0.0), {"rho_target": rho}, None,
        constants, grid, report_n0,
    )


def decide_2x2(
    dist: JointDistribution,
    target: EmpiricalJoint2x2,
    delta: float,
    n_search: int,
    constants: ChainConstants | None = None,
    grid: np.ndarray | None = None,
    report_n0: bool = False,
) -> Verdict:
    """Decide reachability of an arbitrary 2x2 binary target.

    Case I (E[UV] >= E[U]E[V]) maximizes the correlation with both means
    pinned near the target's; Case II runs the same search with the
    second party negated (the antipodal threshold form) and flips the
    returned witness back.  Verdicts are labeled as in ``decide_gap_nis``.
    """
    case = target.case
    sign = -1.0 if case == "II" else 1.0
    return _decide(
        dist, delta, n_search, sign * target.corr_uv,
        (target.mean_u, sign * target.mean_v),
        {"target": target.as_dict(), "case": case}, case,
        constants, grid, report_n0,
    )
