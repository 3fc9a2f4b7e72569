"""Maximal correlation: closed-form cases, witness contracts, and the
tensorization/data-processing properties."""

import numpy as np
import pytest

from conftest import merge_rows, traced_peak
from nisim import (
    JointDistribution,
    ParameterRangeError,
    make_dsbs,
    maximal_correlation,
    tensor_power,
    uniform_triple,
    witsenhausen_bounds,
)


def random_joint(rng, qa, qb):
    t = rng.random((qa, qb)) + 0.05
    return JointDistribution(
        [f"a{i}" for i in range(qa)], [f"b{j}" for j in range(qb)], t / t.sum()
    )


class TestClosedForms:
    @pytest.mark.parametrize("rho", [0.1, 0.25, 0.49, 0.5, 0.77, 0.9])
    def test_dsbs(self, rho):
        assert maximal_correlation(make_dsbs(rho)).rho == pytest.approx(rho, abs=1e-9)

    def test_product_distribution(self):
        pa = np.array([0.7, 0.3])
        pb = np.array([0.2, 0.5, 0.3])
        d = JointDistribution(["a", "b"], ["x", "y", "z"], np.outer(pa, pb))
        assert maximal_correlation(d).rho == pytest.approx(0.0, abs=1e-9)

    def test_uniform_triple(self):
        # normalized operator [[1/2, 1/sqrt(2)], [1/sqrt(2), 0]]; singular
        # values {1, 1/2} from the 2x2 eigenproblem solved by hand
        report = maximal_correlation(uniform_triple())
        assert report.rho == pytest.approx(0.5, abs=1e-9)

    def test_degenerate_single_row(self):
        d = JointDistribution(["a"], ["x", "y"], [[0.4, 0.6]])
        report = maximal_correlation(d)
        assert report.degenerate
        assert report.rho == 0.0
        assert np.all(report.f_witness == 0.0)

    def test_multiplicity_flag_on_tied_spectrum(self):
        # the uniform identity coupling on three atoms has all singular
        # values equal to 1, so the second and third tie
        d = JointDistribution(
            ["a", "b", "c"], ["x", "y", "z"], np.eye(3) / 3
        )
        report = maximal_correlation(d)
        assert report.rho == pytest.approx(1.0, abs=1e-9)
        assert report.multiplicity_flag


class TestWitnessContracts:
    @pytest.mark.parametrize(
        "dist", [make_dsbs(0.49), uniform_triple(), make_dsbs(0.2)]
    )
    def test_mean_variance_correlation(self, dist):
        r = maximal_correlation(dist)
        mu_a, mu_b = dist.row_space.probs, dist.col_space.probs
        assert abs(mu_a @ r.f_witness) < 1e-9
        assert abs(mu_b @ r.g_witness) < 1e-9
        assert mu_a @ r.f_witness**2 == pytest.approx(1.0, abs=1e-9)
        assert mu_b @ r.g_witness**2 == pytest.approx(1.0, abs=1e-9)
        achieved = r.f_witness @ dist.table @ r.g_witness
        assert achieved == pytest.approx(r.rho, abs=1e-9)

    def test_sign_convention(self):
        for rho in (0.2, 0.5, 0.8):
            assert maximal_correlation(make_dsbs(rho)).f_witness[0] >= 0

    def test_dsbs_witnesses_are_dictators(self):
        r = maximal_correlation(make_dsbs(0.6))
        assert np.allclose(r.f_witness, [1.0, -1.0], atol=1e-9)
        assert np.allclose(r.g_witness, [1.0, -1.0], atol=1e-9)

    def test_witness_optimality_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dist = random_joint(rng, 3, 3)
            rho = maximal_correlation(dist).rho
            mu_a, mu_b = dist.row_space.probs, dist.col_space.probs
            for _ in range(20):
                f = rng.standard_normal(3)
                g = rng.standard_normal(3)
                f = f - mu_a @ f
                g = g - mu_b @ g
                f = f / np.sqrt(mu_a @ f**2)
                g = g / np.sqrt(mu_b @ g**2)
                assert f @ dist.table @ g <= rho + 1e-8

    @pytest.mark.parametrize("shape", [(3000, 2), (2, 3000)])
    def test_a_long_side_builds_no_square_factor(self, shape):
        # the reduced SVD: a full one builds a 3000 x 3000 factor (72 MB)
        dist = random_joint(np.random.default_rng(4), *shape)
        assert traced_peak(lambda: maximal_correlation(dist)) < 5 * 2**20


class TestProperties:
    def test_tensorization(self):
        for dist in (uniform_triple(), make_dsbs(0.37)):
            base = maximal_correlation(dist).rho
            assert maximal_correlation(tensor_power(dist, 2)).rho == pytest.approx(
                base, abs=1e-8
            )
        assert maximal_correlation(tensor_power(uniform_triple(), 3)).rho == (
            pytest.approx(0.5, abs=1e-8)
        )

    def test_data_processing_row_merges(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dist = random_joint(rng, 4, 3)
            rho = maximal_correlation(dist).rho
            i, j = rng.choice(4, size=2, replace=False)
            merged = merge_rows(dist, int(i), int(j))
            assert maximal_correlation(merged).rho <= rho + 1e-9

    def test_lower_bound_below_rho_on_grid(self):
        rhos = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        lower = 1 - 2 * np.arccos(rhos) / np.pi
        assert np.all(lower <= rhos + 1e-12)


class TestWitsenhausenBounds:
    def test_half(self):
        lo, hi = witsenhausen_bounds(0.5)
        assert lo == pytest.approx(1 / 3, abs=1e-12)
        assert hi == 0.5

    def test_extremes(self):
        assert witsenhausen_bounds(1.0) == (pytest.approx(1.0), 1.0)
        lo, hi = witsenhausen_bounds(0.0)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == 0.0

    def test_range_error(self):
        with pytest.raises(ParameterRangeError):
            witsenhausen_bounds(1.2)
        with pytest.raises(ParameterRangeError):
            witsenhausen_bounds(-0.1)
