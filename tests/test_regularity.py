"""Smoothing/regularity parameter recipes and the restriction machinery."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import sigma_decode, sigma_encode, traced_peak
from nisim import (
    InputError,
    ParameterRangeError,
    TableStrategy,
    build_basis,
    high_influence_set,
    hypercontractivity_constant,
    influence,
    influences,
    inverse_transform,
    joint_high_influence_set,
    regularity_params,
    restriction_influence_tail_bound,
    restriction_regular_probability,
    smoothing_params,
    transform,
    truncate_degree,
)
from nisim import fourier
from nisim.fourier import FourierPolynomial, restrict, restriction_influences_at
from nisim.regularity import smoothing_params_from_log_eta
from nisim.spaces import FiniteSpace
from nisim.util import SCRATCH_CELLS, all_assignments, draw_atoms

BIT = FiniteSpace(["+1", "-1"], [0.5, 0.5])
BIT_BASIS = build_basis(BIT)


def random_low_degree(rng, n, d, basis=BIT_BASIS, normalize=True):
    q = basis.q
    coeffs = {}
    for key in range(q**n):
        if 0 < sum(1 for s in sigma_decode(key, q, n) if s) <= d and rng.random() < 0.6:
            coeffs[key] = rng.standard_normal()
    if not coeffs:
        coeffs = {1: 1.0}
    p = FourierPolynomial(basis, n, coeffs)
    if normalize and p.variance() > 1.0:
        scale = 1.0 / math.sqrt(p.variance())
        p = FourierPolynomial(basis, n, {k: c * scale for k, c in p.coeffs.items()})
    return p


class TestSmoothingParams:
    def test_worked_example(self):
        sp = smoothing_params(rho=0.5, lam=0.1, eta=0.01)
        assert sp.epsilon == 0.05
        assert sp.gamma == pytest.approx(0.9916547949826166, abs=1e-12)
        assert sp.d == 275
        assert sp.gamma ** (2 * sp.d) <= sp.eta

    def test_vacuous_tail_budget(self):
        sp = smoothing_params(rho=0.3, lam=0.2, eta=1.0)
        assert sp.d == 1

    def test_tail_bound_by_construction_on_grid(self):
        for rho in (0.0, 0.3, 0.7, 0.95):
            for lam in (0.05, 0.2, 0.5):
                for eta in (0.5, 0.05, 1e-3, 1e-6):
                    sp = smoothing_params(rho, lam, eta)
                    assert sp.gamma ** (2 * sp.d) <= eta * (1 + 1e-9)
                    assert sp.d >= 1

    def test_perfect_correlation_rejected(self):
        with pytest.raises(ParameterRangeError, match="impossible"):
            smoothing_params(1.0, 0.1, 0.01)

    def test_budget_range_errors(self):
        with pytest.raises(ParameterRangeError):
            smoothing_params(0.5, 0.0, 0.1)
        with pytest.raises(ParameterRangeError):
            smoothing_params(0.5, 0.1, 1.5)

    def test_log_space_form_matches(self):
        for rho, lam, eta in ((0.5, 0.1, 0.01), (0.0, 0.3, 0.7), (0.9, 0.05, 1e-8)):
            a = smoothing_params(rho, lam, eta)
            b = smoothing_params_from_log_eta(rho, lam, math.log(eta))
            assert a.eta == eta
            assert (a.gamma, a.d, a.mossel_condition_met) == (b.gamma, b.d, b.mossel_condition_met)
        assert smoothing_params_from_log_eta(0.5, 0.1, -2000.0).eta == 0.0
        with pytest.raises(ParameterRangeError, match="nonpositive"):
            smoothing_params_from_log_eta(0.5, 0.1, 0.5)

    def test_condition_flag_tracks_explicit_requirement(self):
        ok = smoothing_params(0.5, 0.1, 0.01)
        assert ok.mossel_condition_met
        # large budget at small correlation falls outside the regime
        bad = smoothing_params(0.1, 0.6, 0.01)
        assert not bad.mossel_condition_met


class TestRegularityParams:
    def test_eta_is_tau_squared_over_16(self):
        rp = regularity_params(2, 0.3, 0.5)
        assert rp.eta == pytest.approx(0.3**2 / 16)

    def test_explicit_beta_formula_unclamped(self):
        d, tau, alpha = 2, 0.3, 0.5
        rp = regularity_params(d, tau, alpha)
        assert not rp.beta_regime_clamped
        c = alpha * d / math.e
        C4 = hypercontractivity_constant(alpha, 4.0)
        K = (2 * C4) ** d / (c**d * tau)
        assert 1.0 / rp.beta == pytest.approx(K * math.log(K) ** d, rel=1e-12)
        assert rp.h_bound == math.ceil(d / rp.beta - 1e-6)
        assert rp.c_conc == pytest.approx(c)

    def test_clamped_regime_flagged_and_positive(self):
        # huge degree pushes the printed formula out of its validity regime
        rp = regularity_params(50000, 0.5, 1 / 3)
        assert rp.beta_regime_clamped
        assert rp.ln_inv_beta > 0
        assert rp.h_bound is None
        assert rp.h_bound_log10 > 10

    @pytest.mark.parametrize("d", [10**400, math.inf])
    def test_degree_beyond_float_range_names_the_flag(self, d):
        # 10**400 once ended in a raw OverflowError from alpha * d
        with pytest.raises(ParameterRangeError, match="--d"):
            regularity_params(d, 0.3, 0.5)

    def test_monotone_in_tau(self):
        a = regularity_params(3, 0.3, 0.5)
        b = regularity_params(3, 0.1, 0.5)
        assert b.ln_inv_beta > a.ln_inv_beta


class TestHighInfluenceSet:
    def test_dictator(self):
        vals = [a for a in (1, -1) for _ in range(4)]
        p = transform(TableStrategy(BIT, 3, vals))
        assert high_influence_set(p, 0.5) == (0,)

    def test_constant(self):
        p = transform(TableStrategy(BIT, 2, np.ones(4) * 0.3))
        assert high_influence_set(p, 0.01) == ()

    def test_size_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = random_low_degree(rng, 5, 2)
            beta = float(rng.uniform(0.05, 0.5))
            H = high_influence_set(p, beta)
            assert len(H) <= p.degree() / beta + 1e-9

    def test_variance_precondition(self):
        p = FourierPolynomial(BIT_BASIS, 2, {1: 5.0})
        with pytest.raises(InputError, match="variance"):
            high_influence_set(p, 0.1)


class TestJointHighInfluenceSet:
    def test_same_dictator(self):
        vals = [a for a in (1, -1) for _ in (0, 1)]
        p = transform(TableStrategy(BIT, 2, vals))
        rp = regularity_params(1, 0.3, 0.5)
        assert joint_high_influence_set(p, p, rp) == (0,)

    def test_union_of_dictators(self):
        f = transform(TableStrategy(BIT, 2, [1, 1, -1, -1]))  # depends on coord 0
        g = transform(TableStrategy(BIT, 2, [1, -1, 1, -1]))  # depends on coord 1
        rp = regularity_params(1, 0.3, 0.5)
        assert joint_high_influence_set(f, g, rp) == (0, 1)

    def test_tail_precondition_reported(self):
        vals = [a * b * c for a in (1, -1) for b in (1, -1) for c in (1, -1)]
        parity = transform(TableStrategy(BIT, 3, vals))
        rp = regularity_params(2, 0.3, 0.5)
        with pytest.raises(InputError, match="tail mass"):
            joint_high_influence_set(parity, parity, rp)

    def test_decodes_each_side_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        p = random_low_degree(rng, 5, 3)
        q = random_low_degree(rng, 5, 3)
        rp = dataclasses.replace(regularity_params(2, 0.4, 0.5), beta=0.05, eta=1.0)
        expected = joint_high_influence_set(p, q, rp)
        h_p = high_influence_set(truncate_degree(p, 2), 0.05)
        composed = set(h_p) | set(high_influence_set(truncate_degree(q, 2), 0.05))
        assert expected == tuple(sorted(composed)) and expected
        calls = []
        real = fourier._decode

        def decode(poly):
            calls.append(poly)
            return real(poly)

        def fresh(poly):
            return FourierPolynomial(poly.basis, poly.n, poly.coeffs)

        monkeypatch.setattr(fourier, "_decode", decode)
        p, q = fresh(p), fresh(q)
        assert joint_high_influence_set(p, q, rp) == expected
        assert calls == [p, q]
        assert joint_high_influence_set(p, q, rp) == expected
        assert calls == [p, q]
        calls.clear()
        p = fresh(p)
        assert joint_high_influence_set(p, p, rp) == h_p
        assert calls == [p]

    def test_matches_exhaustive_influence_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_low_degree(rng, 4, 2)
            q = random_low_degree(rng, 4, 2)
            rp = regularity_params(2, 0.4, 0.5)
            H = joint_high_influence_set(p, q, rp)
            expected = {
                i
                for i in range(4)
                if influence(p, i) >= rp.beta or influence(q, i) >= rp.beta
            }
            assert set(H) == expected


class TestRestrictionRegularProbability:
    def test_all_coordinates_restricted(self):
        rng = np.random.default_rng(3)
        p = random_low_degree(rng, 3, 2)
        for mode in ("exact", "monte_carlo"):
            r = restriction_regular_probability(p, [0, 1, 2], tau=0.01, mode=mode, samples=50)
            assert r.estimate == 1.0

    def test_constant_function(self):
        p = transform(TableStrategy(BIT, 3, np.full(8, 0.7)))
        assert restriction_regular_probability(p, [0], tau=0.05).estimate == 1.0

    def test_dictator_cases(self):
        vals = [a for a in (1, -1) for _ in range(4)]
        p = transform(TableStrategy(BIT, 3, vals))
        assert restriction_regular_probability(p, [0], tau=0.2).estimate == 1.0
        assert restriction_regular_probability(p, [], tau=0.5).estimate == 0.0

    def test_monte_carlo_agrees_with_exact(self):
        rng = np.random.default_rng(5)
        p = random_low_degree(rng, 5, 2)
        exact = restriction_regular_probability(p, [0, 1], tau=0.25)
        mc = restriction_regular_probability(
            p, [0, 1], tau=0.25, mode="monte_carlo", samples=4000, seed=1
        )
        assert mc.wilson_low - 1e-9 <= exact.estimate <= mc.wilson_high + 1e-9

    @staticmethod
    def _three_atom_polynomial():
        space = FiniteSpace(["a", "b", "c"], [0.2, 0.3, 0.5])
        return random_low_degree(np.random.default_rng(7), 8, 2, build_basis(space))

    def test_monte_carlo_blocks_count_like_one_draw(self):
        # 3 whole blocks of SCRATCH_CELLS // 6 rows and a short fourth
        p, H = self._three_atom_polynomial(), list(range(6))
        samples = 3 * (SCRATCH_CELLS // 6) + 11
        r = restriction_regular_probability(
            p, H, tau=0.1, mode="monte_carlo", samples=samples, seed=3)
        xi = draw_atoms(np.random.default_rng(3), p.basis.space.probs, (samples, 6))
        hits = int((restriction_influences_at(p, H, xi) <= 0.1 + 1e-12).all(axis=1).sum())
        assert 0 < hits < samples
        assert r.estimate == hits / samples

    def test_monte_carlo_peak_does_not_grow_with_samples(self):
        p, H = self._three_atom_polynomial(), list(range(6))
        peaks = [traced_peak(lambda: restriction_regular_probability(
            p, H, tau=0.1, mode="monte_carlo", samples=count, seed=3))
            for count in (10**5, 10**6)]
        assert peaks[1] <= 1.05 * peaks[0]

    def test_batch_influences_match_single_restrictions(self):
        rng = np.random.default_rng(6)
        p = random_low_degree(rng, 4, 2)
        H = [1, 3]
        xi = all_assignments(2, 2)
        batch = restriction_influences_at(p, H, xi)
        for row, assignment in zip(batch, xi):
            r = restrict(p, H, list(assignment))
            assert np.allclose(row, influences(r), atol=1e-12)


    @pytest.mark.parametrize("xi", [[[5]], [[-1]], [[0.0]], [[True]], [0], [[0, 1]], [[[0]]]])
    def test_bad_batches_are_rejected(self, xi):
        p = random_low_degree(np.random.default_rng(4), 3, 2)
        with pytest.raises(InputError, match="index batch|atom indices"):
            restriction_influences_at(p, [1], np.array(xi))

    @pytest.mark.parametrize("row", [[5], [-1], [0.0], [True], [0, 1], [], [2**70]])
    def test_restrict_rejects_the_rows_the_batch_rejects(self, row):
        p = random_low_degree(np.random.default_rng(4), 3, 2)
        for call in (lambda: restrict(p, [1], row),
                     lambda: restriction_influences_at(p, [1], [row])):
            with pytest.raises(InputError):
                call()

    @pytest.mark.parametrize("H", [[], [0, 1, 2]])
    def test_batch_influences_with_none_or_all_restricted(self, H):
        rng = np.random.default_rng(7)
        space = FiniteSpace(["a", "b", "c"], [0.2, 0.3, 0.5])
        table = TableStrategy(space, 3, rng.standard_normal(27))
        p = transform(table)
        xi = all_assignments(3, len(H))
        batch = restriction_influences_at(p, H, xi)
        assert batch.shape == (len(xi), 3 - len(H))
        full = table.values.reshape(3, 3, 3)
        for row, assignment in zip(batch, xi):
            restricted = inverse_transform(restrict(p, H, list(assignment)))
            assert np.abs(restricted.values - full[tuple(assignment)].ravel()).max() < 1e-9
            assert np.allclose(row, influences(p) if not H else [], atol=1e-12)


def test_regularity_imports_no_private_fourier_name():
    """``regularity`` reaches the restriction machinery through public
    ``fourier`` names only."""
    source = Path(fourier.__file__).with_name("regularity.py").read_text(encoding="utf-8")
    private = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("fourier", "nisim.fourier"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "fourier" and node.attr.startswith("_")):
            private.append(node.attr)
    assert private == []


class TestRestrictionInfluenceTailBound:
    def test_worked_example(self):
        tb = restriction_influence_tail_bound(1, 0.5, math.e)
        assert tb.value == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert tb.asserted

    def test_vanishes_at_infinity(self):
        assert restriction_influence_tail_bound(2, 0.5, 1e9).value < 1e-6

    def test_below_regime_flagged(self):
        tb = restriction_influence_tail_bound(2, 0.5, 2.0)
        assert not tb.asserted
        assert "regime" in tb.note

    def test_monte_carlo_exceedance_within_bound(self):
        # empirical exceedance of the influence-inflation event never beats
        # the bound by more than Monte Carlo slack
        rng = np.random.default_rng(8)
        d, alpha = 2, 0.5
        C4 = hypercontractivity_constant(alpha, 4.0)
        trials = 0
        exceed = {r: 0 for r in (math.e**d, 2 * math.e**d)}
        for _ in range(40):
            p = random_low_degree(rng, 6, d)
            H = [0, 1, 2]
            xi = rng.integers(0, 2, size=(250, 3))
            batch = restriction_influences_at(p, H, xi)
            base = influences(p)[3:]
            trials += xi.shape[0]
            for r in exceed:
                threshold = r * C4**d * base
                exceed[r] += int(np.any(batch > threshold[None, :] + 1e-12, axis=1).sum())
        for r, count in exceed.items():
            bound = restriction_influence_tail_bound(d, alpha, r).value
            freq = count / trials
            slack = 3 * math.sqrt(bound * (1 - bound) / trials) + 1e-3
            assert freq <= bound + slack


class TestRestrictionWorkingSet:
    """Restrictions stream through one plan in blocks of ``SCRATCH_CELLS``
    cells: beyond the arrays with an entry per restriction (the assignments,
    their weights and the influences), the traced peak stays within a fixed
    budget, however many restrictions there are."""

    @staticmethod
    def _polynomial(k, t):
        # 300 random patterns on k + t coordinates: about 300 surviving and
        # 300 restricted patterns, so all restrictions' columns at once would
        # hold 300 cells per restriction
        rng = np.random.default_rng([k, t])
        coeffs = {}
        while len(coeffs) < 300:
            coeffs[sigma_encode(rng.integers(2, size=k + t), 2)] = float(rng.standard_normal())
        return FourierPolynomial(BIT_BASIS, k + t, coeffs)

    @pytest.mark.parametrize("mode, k, count", [
        ("exact", 12, 2**12), ("exact", 14, 2**14),
        ("monte_carlo", 14, 3000), ("monte_carlo", 14, 20_000),
    ])
    def test_peak_beyond_per_restriction_arrays_is_bounded(self, mode, k, count):
        t = 10
        p = self._polynomial(k, t)
        H = list(range(k))
        peak = traced_peak(lambda: restriction_regular_probability(
            p, H, tau=0.5, mode=mode, samples=count, seed=1))
        # the assignments (int64), weights and influences
        per_restriction = count * 8 * (2 * k + 2 * t + 2)
        # a block's character table and squared columns, and the plan
        assert peak <= per_restriction + 4 * SCRATCH_CELLS * 8

    def test_assignments_peak_near_their_own_size(self):
        # one (q^h, h) quotient array, reduced mod q in place; a meshgrid
        # build and its stacked copy peak at twice the result
        out = []
        peak = traced_peak(lambda: out.append(all_assignments(2, 14)))
        grids = np.meshgrid(*[np.arange(2)] * 14, indexing="ij")
        np.testing.assert_array_equal(out[0], np.stack([g.ravel() for g in grids], axis=1))
        assert out[0].dtype == np.int64
        assert peak <= 1.25 * out[0].nbytes
