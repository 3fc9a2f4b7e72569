"""spectral: the regularity pipeline on seeded functions, plus the parameter recipes.

One of the three parts of the cli-mc-spectral workload.

One op runs, on one function: ``transform`` (dense inputs only),
``noise_operator``, ``influences`` / ``total_influence`` /
``degree_tail_mass`` / ``truncate_degree``, ``joint_high_influence_set``,
``restrict`` and ``restriction_regular_probability`` in exact and Monte
Carlo mode, then ``n0_chain`` and ``smoothing_params`` for one source of
a (source, delta) grid.  ``fourier`` and ``regularity`` do all the work.

Two input families use the coefficient store differently:

* dense: full-spectrum random sign tables, q in {2, 3, 4}, up to n = 10
  at q = 3 (59049 coefficients);
* sparse: coefficient maps of a few hundred low-degree terms on 30 to
  60 coordinates, where only the map, never a table, fits.

A dense-core change that helps full spectra but slows sparse maps shows
here.  The recipe's influence cutoff beta is far below every influence
(every coordinate would be "high"), so the benchmark sets beta between
the k-th and (k+1)-th largest influence of the truncated function, fixing
|H| = k and with it the q^k restrictions the exact mode enumerates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import checks
from ..harness import Op
from .sources import joint, random_table

MC_THREADS: tuple[int, ...] = ()
CYCLE_SECONDS = 1.5  # op time of one cycle on the reference machine
GAMMA = 0.9  # noise rate
DEGREE = 3  # degree cutoff
TAU_R = 0.1  # influence threshold fed to the regularity recipe
MC_RESTRICTIONS = 4000
POINTS = 32  # evaluation points for the direct-evaluation checks
# (family, q, n, |H|, coefficients in a sparse map)
CASES = [("dense", 2, 12, 6, 0), ("dense", 3, 8, 4, 0), ("dense", 4, 6, 3, 0),
         ("dense", 3, 9, 5, 0), ("sparse", 2, 60, 13, 600), ("sparse", 3, 30, 8, 300),
         ("sparse", 2, 40, 12, 300)]
RECIPE_DELTAS = (0.05, 0.1, 0.2)


@dataclass
class Case:
    q: int
    n: int
    probs: np.ndarray
    chars: np.ndarray
    values: np.ndarray | None  # dense family only
    coeffs: dict  # the sparse input map, or the benchmark's own transform of the table
    H: list[int]
    xi: np.ndarray
    tau: float


def _own_transform(values, chars, probs, n):
    q = len(probs)
    arr = values.reshape((q,) * n)
    b = chars * probs
    for _ in range(n):
        arr = np.tensordot(arr, b, axes=([0], [1]))
    flat = np.asarray(arr).ravel()
    keep = np.nonzero(np.abs(flat) > 1e-14)[0]
    return {int(k): float(flat[k]) for k in keep}


def _sparse_coeffs(rng, q, n, count):
    """Low-degree terms, biased toward the first coordinates; variance 0.9."""
    weights = 1.0 / (1.0 + np.arange(n)) ** 0.7
    weights /= weights.sum()
    coeffs = {0: float(rng.uniform(-0.2, 0.2))}
    while len(coeffs) < count + 1:
        deg = int(rng.integers(1, 5))
        coords = rng.choice(n, size=deg, replace=False, p=weights)
        key = sum(int(d) * q ** (n - 1 - int(i))
                  for i, d in zip(coords, rng.integers(1, q, size=deg)))
        coeffs[key] = float(rng.normal())
    var = sum(c * c for k, c in coeffs.items() if k)
    scale = math.sqrt(0.9 / var)
    return {k: (c * scale if k else c) for k, c in coeffs.items()}


def _smoothed(coeffs, q, n):
    deg = checks.degrees(coeffs, q, n)
    return {k: c * GAMMA ** int(d) for (k, c), d in zip(coeffs.items(), deg)}


def _truncated(coeffs, q, n):
    deg = checks.degrees(coeffs, q, n)
    return {k: c for (k, c), d in zip(coeffs.items(), deg) if d <= DEGREE}


def _make_case(rng, family, q, n, k, count, basis_for) -> tuple[Case, object]:
    from nisim.fourier import FourierPolynomial, ValueTable

    probs = rng.dirichlet(np.full(q, 6.0))
    basis = basis_for(probs)
    chars = np.asarray(basis.chars)
    if family == "dense":
        values = rng.choice([-1.0, 1.0], size=q**n)
        coeffs = _own_transform(values, chars, probs, n)
        program_input = ValueTable(basis.space, n, values)
    else:
        values = None
        coeffs = _sparse_coeffs(rng, q, n, count)
        program_input = FourierPolynomial(basis, n, coeffs)
    trunc = _truncated(_smoothed(coeffs, q, n), q, n)
    inf = checks.influences_from_coeffs(trunc, q, n)
    order = np.argsort(-inf, kind="stable")
    H = sorted(int(i) for i in order[:k])
    beta = 0.5 * (inf[order[k - 1]] + inf[order[k]])
    tau = 1.2 * float(inf[order[k]])
    xi = rng.integers(q, size=(1, k))
    case = Case(q, n, probs, chars, values, coeffs, H, xi, tau)
    return case, (program_input, basis, beta)


def _pipeline(case: Case, program_input, basis, params, seed, recipe):
    import nisim.decision as decision
    import nisim.fourier as fourier
    import nisim.regularity as regularity

    def run():
        poly = (fourier.transform(program_input, basis) if case.values is not None
                else program_input)
        smooth = fourier.noise_operator(poly, GAMMA)
        inf = fourier.influences(smooth)
        total = fourier.total_influence(smooth)
        tail = fourier.degree_tail_mass(smooth, DEGREE)
        trunc = fourier.truncate_degree(smooth, DEGREE)
        H = regularity.joint_high_influence_set(trunc, trunc, params)
        restricted = fourier.restrict(trunc, H, [int(a) for a in case.xi[0]])
        exact = regularity.restriction_regular_probability(trunc, H, case.tau, mode="exact")
        mc = regularity.restriction_regular_probability(
            trunc, H, case.tau, mode="monte_carlo", samples=MC_RESTRICTIONS, seed=seed)
        dist, deltas = recipe
        chains = [decision.n0_chain(dist, d) for d in deltas]
        smoothing = [regularity.smoothing_params(c.rho, c.lam, c.gamma_budget) for c in chains]
        return dict(poly=poly.coeffs, smooth=smooth.coeffs, inf=inf, total=total, tail=tail,
                    trunc=trunc.coeffs, H=list(H), restricted=restricted.coeffs, exact=exact,
                    mc=mc, chains=[c.as_dict() for c in chains], smoothing=smoothing)
    return run


def _coeff_gap(a: dict, b: dict) -> float:
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)), default=0.0)


def _references(case: Case, rng) -> dict:
    """Everything the outputs are compared with, from the inputs alone."""
    q, n, k = case.q, case.n, len(case.H)
    ref: dict = {}
    if case.values is not None:
        points = rng.integers(q, size=(POINTS, n))
        idx = points @ (q ** np.arange(n - 1, -1, -1))
        # +-1 values, so Parseval makes the coefficient energy exactly 1
        ref["transform_ok"] = (
            abs(sum(c * c for c in case.coeffs.values()) - 1.0) <= 1e-9
            and checks.close(checks.evaluate(case.coeffs, case.chars, n, points),
                             case.values[idx]))
        ref["inf"] = checks.influences_from_table(
            checks.noise_table(case.values, case.probs, n, GAMMA), case.probs, n)
    smooth = _smoothed(case.coeffs, q, n)
    if case.values is None:
        ref["inf"] = checks.influences_from_coeffs(smooth, q, n)
    deg = checks.degrees(smooth, q, n)
    sq = np.array([c * c for c in smooth.values()])
    trunc = _truncated(smooth, q, n)
    rest_pts = rng.integers(q, size=(POINTS, n - k))
    full = np.empty((POINTS, n), dtype=np.int64)
    mask = np.zeros(n, bool)
    mask[case.H] = True
    full[:, mask] = case.xi[0]
    full[:, ~mask] = rest_pts
    xi = np.stack(np.unravel_index(np.arange(q**k), (q,) * k), axis=1)
    w = case.probs[xi].prod(axis=1)
    infs = checks.restriction_influences(trunc, case.chars, n, case.H, xi)
    ref.update(
        smooth=smooth, trunc=trunc, total=float(deg @ sq), tail=float(sq[deg > DEGREE].sum()),
        rest_pts=rest_pts, rest_values=checks.evaluate(trunc, case.chars, n, full),
        # restrictions within 1e-9 of tau may fall either way
        regular=(float(w[(infs <= case.tau - 1e-9).all(axis=1)].sum()),
                 float(w[(infs <= case.tau + 1e-9).all(axis=1)].sum())))
    return ref


def _check(case: Case, recipe, seed):
    q, n, k = case.q, case.n, len(case.H)
    cache: dict = {}

    def check(out) -> str | None:
        if not cache:
            cache.update(_references(case, np.random.default_rng([seed, 99])))
        ref = cache
        if not ref.get("transform_ok", True):
            return "the value table's own transform fails Parseval or evaluation"
        if _coeff_gap(out["poly"], case.coeffs) > 1e-10:
            return "transform differs from the tensor-product coefficients"
        if _coeff_gap(out["smooth"], ref["smooth"]) > 1e-10:
            return "noise operator differs from c * gamma^|sigma|"
        if not checks.close(out["inf"], ref["inf"]):
            return "influences differ from E[Var_i f]"
        if not checks.close([out["total"], out["tail"]], [ref["total"], ref["tail"]]):
            return "total influence or tail mass differs"
        if set(out["trunc"]) != set(ref["trunc"]):
            return "degree truncation keeps the wrong terms"
        if out["H"] != case.H:
            return f"high-influence set {out['H']} differs from {case.H}"
        got = checks.evaluate(out["restricted"], case.chars, n - k, ref["rest_pts"])
        if not checks.close(got, ref["rest_values"]):
            return "restriction disagrees with direct evaluation"
        exact, mc = out["exact"], out["mc"]
        lo, hi = ref["regular"]
        if exact.evaluations != q**k or not lo - 1e-9 <= exact.estimate <= hi + 1e-9:
            return f"exact regular probability {exact.estimate} outside [{lo}, {hi}]"
        sd = math.sqrt(exact.estimate * (1 - exact.estimate) / MC_RESTRICTIONS)
        if abs(mc.estimate - exact.estimate) > checks.MC_Z * sd + checks.MC_Z / MC_RESTRICTIONS:
            return "Monte Carlo regular probability far from the exact value"
        dist, deltas = recipe
        for chain, delta, sm in zip(out["chains"], deltas, out["smoothing"]):
            why = checks.check_n0(dist.table, delta, chain)
            if why:
                return why
            if sm.d < 1 or sm.gamma ** (2 * sm.d) > sm.eta * (1 + 1e-9):
                return "smoothing recipe breaks gamma^(2d) <= eta"
        return None
    return check


def build(seed: int, workdir: Path) -> list[Op]:
    import nisim.regularity as regularity
    from nisim.fourier import build_basis
    from nisim.spaces import FiniteSpace, make_dsbs, uniform_triple

    rng = np.random.default_rng([seed, 4])
    sources = [uniform_triple(), make_dsbs(0.3), make_dsbs(0.5), joint(random_table(rng, 2, 2))]

    def basis_for(probs):
        return build_basis(FiniteSpace([f"s{i}" for i in range(len(probs))], probs))

    cycle = []
    for i, (family, q, n, k, count) in enumerate(CASES):
        case, (program_input, basis, beta) = _make_case(rng, family, q, n, k, count, basis_for)
        alpha = min(float(case.probs.min()), 0.5)
        params = dataclasses.replace(regularity.regularity_params(DEGREE, TAU_R, alpha),
                                     beta=beta)
        recipe = (sources[i % len(sources)], RECIPE_DELTAS)
        cycle.append(Op(f"spectral/{family}/q{q}n{n}",
                        _pipeline(case, program_input, basis, params, seed + i, recipe),
                        _check(case, recipe, seed + i), {"family": family}))
    return cycle
