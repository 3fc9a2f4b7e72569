"""Normal-distribution layer: Phi, the bivariate CDF, threshold-pair
stability values, and the sample-count formula."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

from nisim import (
    GaussianPair,
    ParameterRangeError,
    berry_esseen_sample_count,
    bivariate_cdf,
    gamma_bar,
    gamma_under,
    std_normal_cdf,
    std_normal_quantile,
    threshold_for_mean,
)


class TestUnivariate:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_quantile(0.5) == 0.0

    def test_quantile_value(self):
        assert std_normal_quantile(0.75) == pytest.approx(0.674490, abs=5e-7)

    def test_round_trip(self):
        for p in (1e-10, 1e-4, 0.2, 0.5, 0.987, 1 - 1e-9):
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_reflection_identity(self):
        xs = np.linspace(-6, 6, 241)
        assert np.abs(std_normal_cdf(-xs) - (1.0 - std_normal_cdf(xs))).max() < 1e-14

    def test_monotone(self):
        xs = np.linspace(-8, 8, 400)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3, float("nan"), [0.5, float("nan")]):
            with pytest.raises(ParameterRangeError):
                std_normal_quantile(bad)


def _mp_phi(x):
    return mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)) / 2


def _max_rel_error(values, exact):
    return max(float(abs((mpmath.mpf(float(v)) - e) / e)) for v, e in zip(values, exact))


class TestAccuracyOracle:
    """Phi and Phi^{-1} against mpmath at 50 digits, deep tails included."""

    def test_phi_at_least_as_accurate_as_scipy(self):
        xs = np.concatenate([np.linspace(-37.0, 8.2, 4001),
                             np.random.default_rng(0).normal(0.0, 3.0, 2000)])
        with mpmath.workdps(50):
            exact = [_mp_phi(x) for x in xs.tolist()]
            ours = _max_rel_error(std_normal_cdf(xs), exact)
            theirs = _max_rel_error(ndtr(xs), exact)
        assert ours <= theirs, (ours, theirs)

    def test_quantile_within_a_few_ulp(self):
        ps = np.concatenate([np.logspace(-300.0, math.log10(0.49), 1500),
                             1.0 - np.logspace(-16.0, math.log10(0.49), 500)])
        with mpmath.workdps(50):
            exact = []
            for p in ps.tolist():
                # Newton on the 50-digit Phi from scipy's value, an independent start
                x, p = mpmath.mpf(float(ndtri(p))), mpmath.mpf(p)
                for _ in range(3):
                    step = (_mp_phi(x) - p) / mpmath.npdf(x)
                    x -= step
                assert abs(step) <= abs(x) * mpmath.mpf(10) ** -40
                exact.append(x)
            err = _max_rel_error(std_normal_quantile(ps), exact)
        assert err <= 1e-15, err


class TestBivariateCdf:
    def test_quadrant_identity(self):
        for rho in np.linspace(-0.999, 0.999, 41):
            expected = 0.25 + math.asin(rho) / (2 * math.pi)
            assert bivariate_cdf(0.0, 0.0, float(rho)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_independence_factorizes(self):
        for a, b in [(-1.2, 0.4), (0.0, 2.2), (1.7, -0.3)]:
            assert bivariate_cdf(a, b, 0.0) == pytest.approx(
                std_normal_cdf(a) * std_normal_cdf(b), abs=1e-15
            )

    def test_total_mass(self):
        assert bivariate_cdf(math.inf, math.inf, 0.6) == 1.0
        assert bivariate_cdf(-math.inf, 1.0, 0.6) == 0.0
        assert bivariate_cdf(math.inf, 0.3, 0.6) == pytest.approx(std_normal_cdf(0.3))

    def test_perfect_correlation_reductions(self):
        assert bivariate_cdf(0.5, 1.5, 1.0) == pytest.approx(std_normal_cdf(0.5))
        assert bivariate_cdf(0.5, -0.5, -1.0) == pytest.approx(
            std_normal_cdf(0.5) + std_normal_cdf(-0.5) - 1.0
        )
        assert bivariate_cdf(-1.0, -1.5, -1.0) == 0.0

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            a, b = rng.uniform(-3, 3, size=2)
            rho = float(rng.uniform(-0.98, 0.98))
            oracle = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]]).cdf(
                [a, b]
            )
            assert bivariate_cdf(float(a), float(b), rho) == pytest.approx(
                float(oracle), abs=1e-10
            )

    def test_against_quadrature_oracle(self):
        # direct 2-d quadrature of the density, fully independent route
        a, b, rho = 0.8, -0.4, 0.55
        det = 1 - rho**2

        def density(y, x):
            return math.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * det)) / (
                2 * math.pi * math.sqrt(det)
            )

        oracle, err = dblquad(density, -8.5, a, -8.5, b, epsabs=1e-12)
        assert bivariate_cdf(a, b, rho) == pytest.approx(oracle, abs=1e-10)

    def test_rectangle_nonnegativity(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            a1, a2 = np.sort(rng.uniform(-3, 3, 2))
            b1, b2 = np.sort(rng.uniform(-3, 3, 2))
            rho = float(rng.uniform(-0.95, 0.95))
            mass = (
                bivariate_cdf(a2, b2, rho)
                - bivariate_cdf(a1, b2, rho)
                - bivariate_cdf(a2, b1, rho)
                + bivariate_cdf(a1, b1, rho)
            )
            assert mass >= -1e-12


class TestStability:
    def test_balanced_half_correlation(self):
        assert gamma_bar(0.5, 0.0, 0.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_independence_factorizes(self):
        assert gamma_bar(0.0, 0.2, -0.4) == pytest.approx(-0.08, abs=1e-12)

    def test_perfect_correlation(self):
        assert gamma_bar(1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert gamma_under(1.0, 0.0, 0.0) == pytest.approx(-1.0)

    def test_constant_strategies(self):
        assert gamma_bar(0.7, 1.0, 0.3) == pytest.approx(0.3)
        assert gamma_bar(0.7, -1.0, 0.3) == pytest.approx(-0.3)
        assert gamma_bar(0.7, 0.3, -1.0) == pytest.approx(-0.3)

    def test_marginal_means_by_construction(self):
        for mu in (-0.8, -0.1, 0.0, 0.45):
            assert 2.0 * std_normal_cdf(threshold_for_mean(mu)) - 1.0 == pytest.approx(mu, abs=1e-12)

    def test_monotone_in_rho_same_sign_means(self):
        for mu, nu in [(0.3, 0.5), (-0.2, -0.6), (0.0, 0.0)]:
            values = [gamma_bar(r, mu, nu) for r in np.linspace(0, 0.99, 25)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_sandwich_around_product(self):
        for rho in (0.0, 0.3, 0.8):
            for mu in (-0.5, 0.0, 0.4):
                for nu in (-0.3, 0.2, 0.7):
                    lo = gamma_under(rho, mu, nu)
                    hi = gamma_bar(rho, mu, nu)
                    assert lo - 1e-12 <= mu * nu <= hi + 1e-12

    def test_monte_carlo_agreement(self):
        rho, mu, nu = 0.6, 0.25, -0.4
        g1, g2 = GaussianPair(rho).sample(10**6, seed=4)
        p = np.where(g1 <= threshold_for_mean(mu), 1.0, -1.0)
        q = np.where(g2 <= threshold_for_mean(nu), 1.0, -1.0)
        est = float(np.mean(p * q))
        se = float(np.std(p * q) / math.sqrt(len(p)))
        assert abs(est - gamma_bar(rho, mu, nu)) <= 3 * se


class TestBerryEsseenCount:
    def test_worked_example(self):
        assert berry_esseen_sample_count(0.5, 0.25, 0.1) == 4800

    def test_quadratic_scaling_in_accuracy(self):
        w1 = berry_esseen_sample_count(0.5, 0.25, 0.1)
        w2 = berry_esseen_sample_count(0.5, 0.25, 0.05)
        assert w2 == 4 * w1

    def test_independence_floor(self):
        assert berry_esseen_sample_count(0.0, 0.5, 1.0) == 2

    def test_errors(self):
        with pytest.raises(ParameterRangeError):
            berry_esseen_sample_count(1.0, 0.25, 0.1)
        with pytest.raises(ParameterRangeError):
            berry_esseen_sample_count(0.5, 0.25, 0.0)


class TestGaussianPair:
    def test_seed_determinism(self):
        a = GaussianPair(0.4).sample(1000, seed=5)
        b = GaussianPair(0.4).sample(1000, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_moments(self):
        g1, g2 = GaussianPair(0.7).sample(4 * 10**5, seed=6)
        assert np.mean(g1) == pytest.approx(0.0, abs=0.01)
        assert np.var(g2) == pytest.approx(1.0, abs=0.01)
        assert np.mean(g1 * g2) == pytest.approx(0.7, abs=0.01)
