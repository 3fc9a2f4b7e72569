"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (with its runtime) on success; a
failure surfaces as an ordinary pytest failure.  Run with ``pytest -s
tests/test_acceptance.py`` to see the lines as they complete.
"""

import math
import time

import numpy as np

from conftest import sigma_decode
from nisim import (
    ChainConstants,
    EmpiricalJoint2x2,
    JointDistribution,
    TableStrategy,
    berry_esseen_sample_count,
    bivariate_cdf,
    brute_force_bmip,
    build_basis,
    decide_gap_nis,
    estimate_strategy_stats,
    gamma_bar,
    gaussian_simulator_strategy,
    hypercontractivity_constant,
    influence,
    influences,
    inverse_transform,
    joint_high_influence_set,
    make_dsbs,
    maximal_correlation,
    n0_chain,
    noise_operator,
    regularity_params,
    restriction_influence_tail_bound,
    restriction_regular_probability,
    round_pair,
    smoothing_params,
    tensor_power,
    transform,
    tv_distance,
    uniform_triple,
    witsenhausen_bounds,
)
from nisim.decision import _tensor_weights
from nisim.fourier import FourierPolynomial, restrict, restriction_influences_at
from nisim.spaces import FiniteSpace
from nisim.util import all_assignments, kron_power

BIT = FiniteSpace(["+1", "-1"], [0.5, 0.5])
BIT_BASIS = build_basis(BIT)


class Stopwatch:
    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"PASS criterion {self.label}  ({elapsed:.2f}s, budget {self.budget}s)")
            assert elapsed < self.budget, (
                f"criterion {self.label} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )
        return False


def random_space(rng, q):
    p = rng.random(q) + 0.2
    return FiniteSpace([f"a{i}" for i in range(q)], p / p.sum())


def random_polynomial(rng, basis, n, max_degree=None):
    q = basis.q
    coeffs = {}
    for key in range(q**n):
        deg = sum(1 for s in sigma_decode(key, q, n) if s)
        if max_degree is not None and deg > max_degree:
            continue
        if rng.random() < 0.6:
            coeffs[key] = rng.standard_normal()
    if not coeffs:
        coeffs = {0: 1.0}
    return FourierPolynomial(basis, n, coeffs)


def test_criterion_1_dsbs_maximal_correlation():
    """maximal_correlation(DSBS(rho)) = rho to 1e-9 across the grid, under 1s."""
    with Stopwatch("1 (DSBS maximal correlation)", 1.0):
        for rho in np.arange(0.1, 0.95, 0.1):
            report = maximal_correlation(make_dsbs(float(rho)))
            assert abs(report.rho - rho) <= 1e-9


def test_criterion_2_uniform_triple_pipeline():
    """Triple: maxcorr 1/2, bounds (1/3, 1/2), one-copy balanced optimum 1/4."""
    with Stopwatch("2 (uniform-triple pipeline)", 5.0):
        triple = uniform_triple()
        report = maximal_correlation(triple)
        assert abs(report.rho - 0.5) <= 1e-9
        lo, hi = witsenhausen_bounds(report.rho)
        assert abs(lo - 1 / 3) <= 1e-9
        assert abs(hi - 0.5) <= 1e-9
        grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        res = brute_force_bmip(
            triple, 1, rho_target=0.25, delta=0.05, mean_caps=(0.0, 0.0),
            grid=grid, mean_slack=0.0, corr_slack=0.0,
        )
        assert res.accept
        assert abs(res.best_value - 0.25) <= 1e-9
        _, wa, wb = _tensor_weights(triple, 1)
        assert abs(res.f_values @ wa) <= 1e-12 and abs(res.g_values @ wb) <= 1e-12


def test_criterion_3_fourier_suite():
    """Parseval/Plancherel, restriction collapse, and expected restricted
    influence, all within 1e-9 on 200 random polynomials (n<=4, q<=3)."""
    with Stopwatch("3 (Fourier suite)", 30.0):
        rng = np.random.default_rng(2024)
        cases = 0
        while cases < 200:
            q = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            space = random_space(rng, q)
            basis = build_basis(space)
            p = random_polynomial(rng, basis, n)
            vt = inverse_transform(p)
            # Parseval against the pointwise second moment
            assert abs(p.energy() - vt.norm(2) ** 2) <= 1e-9
            # Plancherel against the pointwise inner product
            p2 = random_polynomial(rng, basis, n)
            vt2 = inverse_transform(p2)
            pointwise = float(vt.weights() @ (vt.values * vt2.values))
            spectral = sum(c * p2.coeffs.get(k, 0.0) for k, c in p.coeffs.items())
            assert abs(spectral - pointwise) <= 1e-9
            # restriction collapse at a random assignment
            h_size = int(rng.integers(1, n))
            H = sorted(rng.choice(n, size=h_size, replace=False).tolist())
            xi = [int(a) for a in rng.integers(0, q, size=h_size)]
            restricted = restrict(p, H, xi)
            dense = vt.values.reshape((q,) * n)
            index = [slice(None)] * n
            for coord, atom in zip(H, xi):
                index[coord] = atom
            expected_vals = dense[tuple(index)].ravel()
            got = inverse_transform(restricted).values
            assert np.abs(got - expected_vals).max() <= 1e-9
            # expected influence identity, exhaustive over assignments
            assignments = all_assignments(q, h_size)
            weights = kron_power(space.probs, assignments.shape[1])
            batch = restriction_influences_at(p, H, assignments)
            avg = weights @ batch
            T = [i for i in range(n) if i not in H]
            for pos, i in enumerate(T):
                assert abs(avg[pos] - influence(p, i)) <= 1e-9
            cases += 1


def test_criterion_4_noise_and_smoothing():
    """Multiplier identity to 1e-12, tail bound by construction on a grid,
    and the smoothing correlation-drift contract by exact enumeration."""
    with Stopwatch("4 (noise and smoothing)", 60.0):
        rng = np.random.default_rng(11)
        # multiplier identity, exact
        for _ in range(30):
            p = random_polynomial(rng, BIT_BASIS, 3)
            gamma = float(rng.uniform(0, 1))
            noised = noise_operator(p, gamma)
            for k, c in p.coeffs.items():
                deg = sum(1 for s in sigma_decode(k, 2, 3) if s)
                assert abs(noised.coeffs.get(k, 0.0) - c * gamma**deg) <= 1e-12
        # smoothed tail bound gamma^{2d} <= eta on a 100-point grid
        points = 0
        for rho in (0.0, 0.25, 0.5, 0.75, 0.9):
            for lam in (0.05, 0.1, 0.2, 0.35):
                for eta in (0.3, 0.05, 1e-3, 1e-5, 1e-8):
                    sp = smoothing_params(rho, lam, eta)
                    assert sp.gamma ** (2 * sp.d) <= eta * (1 + 1e-9)
                    points += 1
        assert points == 100
        # correlation drift under simultaneous noising, exact enumeration
        checked = 0
        for dist, n in ((make_dsbs(0.5), 3), (make_dsbs(0.8), 2), (uniform_triple(), 3)):
            rho = maximal_correlation(dist).rho
            basis_a = build_basis(dist.row_space)
            basis_b = build_basis(dist.col_space)
            table_n = dist if n == 1 else tensor_power(dist, n)
            for lam in (0.1, 0.2):
                sp = smoothing_params(rho, lam, 0.01)
                assert sp.mossel_condition_met
                eps = sp.epsilon
                for _ in range(10):
                    fv = np.clip(rng.standard_normal(2**n), -1, 1)
                    gv = np.clip(rng.standard_normal(2**n), -1, 1)
                    pf = transform(TableStrategy(dist.row_space, n, fv), basis_a)
                    pg = transform(TableStrategy(dist.col_space, n, gv), basis_b)
                    f1 = inverse_transform(noise_operator(pf, sp.gamma)).values
                    g1 = inverse_transform(noise_operator(pg, sp.gamma)).values
                    before = fv @ table_n.table @ gv
                    after = f1 @ table_n.table @ g1
                    var_bound = math.sqrt(pf.variance() * pg.variance())
                    assert abs(after - before) <= 2 * eps * var_bound + 1e-9
                    checked += 1
        assert checked == 60


def test_criterion_5_regularity():
    """On 100 low-degree instances: |H| within its bound, exhaustive
    restriction regularity at least 1 - tau, and restriction influence
    inflation never beating its tail bound beyond Wilson slack."""
    with Stopwatch("5 (regularity)", 120.0):
        rng = np.random.default_rng(501)
        tau = 0.3
        for _ in range(100):
            n = int(rng.integers(4, 7))
            d = int(rng.integers(1, 3))
            p = _normalized(random_polynomial(rng, BIT_BASIS, n, max_degree=d))
            q = _normalized(random_polynomial(rng, BIT_BASIS, n, max_degree=d))
            params = regularity_params(d, tau, 0.5)
            H = joint_high_influence_set(p, q, params)
            assert params.h_bound is not None
            assert len(H) <= 2 * params.h_bound
            for poly in (p, q):
                prob = restriction_regular_probability(poly, H, tau, mode="exact")
                assert prob.estimate >= 1 - tau
        # influence-inflation tail bound, Monte Carlo with Wilson slack
        d, alpha = 2, 0.5
        C4 = hypercontractivity_constant(alpha, 4.0)
        for r in (math.e**d, 3 * math.e**d):
            bound = restriction_influence_tail_bound(d, alpha, r).value
            trials = 0
            exceed = 0
            for _ in range(30):
                p = _normalized(random_polynomial(rng, BIT_BASIS, 6, max_degree=d))
                H = [0, 1, 2]
                xi = rng.integers(0, 2, size=(340, len(H)))
                batch = restriction_influences_at(p, H, xi)
                base = influences(p)[len(H):]
                threshold = r * C4**d * base
                exceed += int(np.any(batch > threshold[None, :] + 1e-12, axis=1).sum())
                trials += xi.shape[0]
            freq = exceed / trials
            wilson_half = 1.96 * math.sqrt(max(freq * (1 - freq), 1e-6) / trials)
            assert freq <= bound + wilson_half + 1e-3


def _normalized(p: FourierPolynomial) -> FourierPolynomial:
    v = p.variance()
    if v <= 1.0:
        return p
    s = 1.0 / math.sqrt(v)
    return FourierPolynomial(p.basis, p.n, {k: c * s for k, c in p.coeffs.items()})


def test_criterion_6_gaussian_layer():
    """Quadrant identity to 1e-9 and the balanced stability value 1/3."""
    with Stopwatch("6 (Gaussian layer)", 1.0):
        for rho in np.linspace(-0.999, 0.999, 67):
            expected = 0.25 + math.asin(float(rho)) / (2 * math.pi)
            assert abs(bivariate_cdf(0.0, 0.0, float(rho)) - expected) <= 1e-9
        third = gamma_bar(0.5, 0.0, 0.0)
        assert abs(third - 1 / 3) <= 1e-9
        assert abs(third - witsenhausen_bounds(0.5)[0]) <= 1e-9


def test_criterion_7_witsenhausen_rounding_end_to_end():
    """Balanced lift from DSBS(0.5) lands within 0.05 of 1/3 at the
    prescribed sample count, and the error shrinks toward 4x the count."""
    with Stopwatch("7 (Witsenhausen rounding)", 180.0):
        dist = make_dsbs(0.5)
        w = berry_esseen_sample_count(0.5, 0.25, 0.05)
        assert w == 19200
        f, g = gaussian_simulator_strategy(dist, 0.0, w)
        stats = estimate_strategy_stats(f, g, dist, n_samples=10**6, seed=777)
        err_w = abs(stats.corr_fg - 1 / 3)
        assert err_w <= 0.05 + 3 * stats.stderr_corr
        assert abs(stats.mean_f) <= 0.05 / 2 + 3 * stats.stderr_mean_f
        f4, g4 = gaussian_simulator_strategy(dist, 0.0, 4 * w)
        stats4 = estimate_strategy_stats(f4, g4, dist, n_samples=10**6, seed=778)
        err_4w = abs(stats4.corr_fg - 1 / 3)
        # w^{-1/2} scaling, asserted statistically: the quadrupled count
        # should at least halve the systematic error up to sampling noise
        noise = 3 * (stats.stderr_corr + stats4.stderr_corr)
        assert err_4w <= 0.75 * err_w + noise


def test_criterion_8_decision_soundness():
    """Witness re-verification, rounding within 8*delta of the target, and
    no accepts beyond the maximal-correlation ceiling on 50 instances."""
    with Stopwatch("8 (decision soundness)", 240.0):
        rng = np.random.default_rng(808)
        accepts = 0
        ceiling_violations = 0
        for k in range(50):
            qa, qb = int(rng.integers(2, 4)), 2
            t = rng.random((qa, qb)) ** 2 + 0.02
            dist = JointDistribution(
                [f"a{i}" for i in range(qa)], ["x", "y"], t / t.sum()
            )
            rho0 = maximal_correlation(dist).rho
            delta = float(rng.uniform(0.45, 0.7))
            # promise-respecting targets: clearly below or clearly above
            if rng.random() < 0.6:
                rho = max(0.0, rho0 - float(rng.uniform(0.5, 1.0)) * delta)
            else:
                rho = min(1.0, rho0 + float(rng.uniform(4.0, 6.0)) * delta)
            verdict = decide_gap_nis(dist, rho, delta, 1)
            if verdict.accepted:
                accepts += 1
                if rho > rho0 + 2 * delta:
                    ceiling_violations += 1
                # soundness: exact re-evaluation matches the reported stats
                exact = estimate_strategy_stats(
                    verdict.witness_f, verdict.witness_g, dist, mode="exact"
                )
                assert abs(exact.corr_fg - verdict.achieved["corr_fg"]) <= 1e-9
                assert exact.corr_fg >= verdict.thresholds["accept_floor"] - 1e-9
        assert ceiling_violations == 0
        assert accepts >= 10  # the generator must actually exercise accepts

        # rounding reduction at an informative budget: empirical TV within
        # 8*delta of the target at one million samples
        for dist, rho, delta, grid in (
            (uniform_triple(), 0.25, 0.1, np.array([-1.0, -0.5, 0.0, 0.5, 1.0])),
            (make_dsbs(0.5), 0.5, 0.12, np.array([-1.0, -0.5, 0.0, 0.5, 1.0])),
            (make_dsbs(0.3), 0.1, 0.15, None),
        ):
            verdict = decide_gap_nis(dist, rho, delta, 1, grid=grid)
            assert verdict.accepted
            fr, gr = round_pair(
                verdict.witness_f, verdict.witness_g, mode="rng", seed=99
            )
            stats = estimate_strategy_stats(
                fr, gr, dist, n_samples=10**6, seed=9, mode="monte_carlo"
            )
            target = EmpiricalJoint2x2.from_dsbs(rho)
            margin = 3 * (stats.stderr_mean_f + stats.stderr_mean_g + stats.stderr_corr)
            assert tv_distance(stats.joint, target) <= 8 * delta + margin


def test_criterion_9_parameter_chain():
    """Chain evaluates across grids, reproduces the frozen regression
    values, and respects every stated monotonicity; magnitudes reported."""
    with Stopwatch("9 (parameter chain)", 1.0):
        triple = uniform_triple()
        chain = n0_chain(triple, 0.2, ChainConstants())
        # regression values frozen from an independent high-precision
        # evaluation of the chain formulas
        assert chain.k_tau == 90
        assert chain.d == 49898
        assert chain.w == 8100
        assert abs(chain.h_log10 - 199213.49815178497) <= 1e-6
        assert abs(chain.n0_log10 - 199213.49815178497) <= 1e-6
        assert chain.n0_log10 > 100  # astronomically large, as expected

        for delta in (0.6, 0.35, 0.15, 0.05):
            for dist in (triple, make_dsbs(0.3), make_dsbs(0.85)):
                c = n0_chain(dist, delta)
                assert np.isfinite(c.n0_log10) and c.n0_log10 > 0

        deltas = (0.5, 0.35, 0.2, 0.1, 0.05)
        logs = [n0_chain(triple, d).n0_log10 for d in deltas]
        assert all(b >= a for a, b in zip(logs, logs[1:]))
        rhos = (0.1, 0.3, 0.5, 0.7, 0.9)
        logs = [n0_chain(make_dsbs(r), 0.25).n0_log10 for r in rhos]
        assert all(b >= a for a, b in zip(logs, logs[1:]))
