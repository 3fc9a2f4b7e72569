"""Fourier toolkit tests, with pointwise oracles computed independently of
the spectral implementation paths."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nisim import (
    ParameterRangeError,
    ValueTable,
    build_basis,
    concentration_bound,
    degree_tail_mass,
    hypercontractive_norm_bound,
    hypercontractivity_constant,
    influence,
    influences,
    inverse_transform,
    noise_operator,
    noise_operator_kernel,
    restrict,
    total_influence,
    transform,
    truncate_degree,
)
from nisim.errors import InputError
from nisim.fourier import FourierPolynomial, sigma_decode, sigma_encode
from nisim.spaces import FiniteSpace
from nisim.util import all_assignments, kron_power

BIT = FiniteSpace(["+1", "-1"], [0.5, 0.5])


def random_space(rng, q):
    p = rng.random(q) + 0.2
    return FiniteSpace([f"a{i}" for i in range(q)], p / p.sum())


def random_table(rng, space, n):
    return ValueTable(space, n, rng.standard_normal(space.q**n))


def pointwise_influence(table: ValueTable, i: int) -> float:
    """E over the other coordinates of the conditional variance at coordinate i."""
    q, n = table.space.q, table.n
    probs = table.space.probs
    vals = table.values.reshape((q,) * n)
    vals = np.moveaxis(vals, i, 0)
    total = 0.0
    for rest in itertools.product(range(q), repeat=n - 1):
        w = math.prod(probs[a] for a in rest)
        col = vals[(slice(None),) + rest]
        mean = probs @ col
        total += w * float(probs @ (col - mean) ** 2)
    return total


class TestBasis:
    def test_uniform_bit(self):
        b = build_basis(BIT)
        assert np.allclose(np.abs(b.chars), [[1, 1], [1, 1]])
        assert np.allclose(b.chars[0], 1.0)
        assert np.allclose(b.chars[1], [1.0, -1.0])

    def test_biased_bit(self):
        s = FiniteSpace(["0", "1"], [2 / 3, 1 / 3])
        b = build_basis(s)
        assert b.chars[1][0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert b.chars[1][1] == pytest.approx(-math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_gram_identity(self, q):
        rng = np.random.default_rng(q)
        s = random_space(rng, q)
        b = build_basis(s)
        gram = (b.chars * s.probs) @ b.chars.T
        assert np.allclose(gram, np.eye(q), atol=1e-10)


class TestTransform:
    def test_constant(self):
        p = transform(ValueTable(BIT, 3, np.ones(8)))
        assert p.coeffs == {0: 1.0}

    def test_product_character(self):
        vals = [a * b for a in (1, -1) for b in (1, -1)]
        p = transform(ValueTable(BIT, 2, vals))
        assert set(p.coeffs) == {sigma_encode((1, 1), 2)}
        assert p.coeffs[3] == pytest.approx(1.0)

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (3, 4), (5, 2)])
    def test_round_trip_and_parseval(self, q, n):
        rng = np.random.default_rng(q * 10 + n)
        s = random_space(rng, q)
        vt = random_table(rng, s, n)
        p = transform(vt)
        back = inverse_transform(p)
        assert np.abs(back.values - vt.values).max() < 1e-9
        # Parseval against the pointwise second moment
        assert p.energy() == pytest.approx(vt.norm(2) ** 2, abs=1e-9)
        assert p.mean() == pytest.approx(vt.mean(), abs=1e-12)

    def test_plancherel_random_pairs(self):
        rng = np.random.default_rng(17)
        s = random_space(rng, 3)
        basis = build_basis(s)
        w = ValueTable(s, 3, np.ones(27)).weights()
        for _ in range(20):
            f = random_table(rng, s, 3)
            g = random_table(rng, s, 3)
            inner_pointwise = float(w @ (f.values * g.values))
            pf, pg = transform(f, basis), transform(g, basis)
            inner_spectral = sum(
                c * pg.coeffs.get(k, 0.0) for k, c in pf.coeffs.items()
            )
            assert inner_spectral == pytest.approx(inner_pointwise, abs=1e-9)

    @pytest.mark.parametrize("c", [0.75, -2.5, 1e-14, -3e-15])
    def test_zero_coordinates(self, c):
        """n = 0: one value, the constant coefficient; |c| <= 1e-14 is dropped."""
        s = random_space(np.random.default_rng(5), 3)
        table = ValueTable(s, 0, [c])
        p = transform(table)
        assert p.coeffs == ({0: c} if abs(c) > 1e-14 else {})
        back = inverse_transform(FourierPolynomial(build_basis(s), 0, {0: c}))
        assert back.values.tolist() == [c if abs(c) > 1e-14 else 0.0]
        for gamma in (0.0, 0.4, 1.0):
            smoothed = noise_operator_kernel(table, gamma)
            assert smoothed.n == 0 and smoothed.values.tolist() == [c]
            assert not np.shares_memory(smoothed.values, table.values)

    def test_value_table_is_the_strategy_table(self):
        """fourier imports strategies and strategies imports fourier lazily:
        either module imports first in a fresh interpreter, and both names
        denote one class."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        for first in ("nisim.fourier", "nisim.strategies"):
            code = (f"import {first}\nimport nisim\n"
                    "print(nisim.ValueTable is nisim.TableStrategy is nisim.fourier.ValueTable)")
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            assert out.strip() == "True", first

    def test_norm_monotonicity(self):
        rng = np.random.default_rng(23)
        s = random_space(rng, 3)
        for _ in range(20):
            vt = random_table(rng, s, 2)
            assert vt.norm(1) <= vt.norm(2) + 1e-12
            assert vt.norm(2) <= vt.norm(4) + 1e-12


class TestInfluence:
    def test_dictator(self):
        vals = [a for a in (1, -1) for _ in (0, 1)]
        p = transform(ValueTable(BIT, 2, vals))
        assert influence(p, 0) == pytest.approx(1.0)
        assert influence(p, 1) == pytest.approx(0.0)

    def test_majority_of_three(self):
        vals = []
        for bits in itertools.product((1, -1), repeat=3):
            vals.append(1.0 if sum(bits) > 0 else -1.0)
        p = transform(ValueTable(BIT, 3, vals))
        assert np.allclose(influences(p), 0.5, atol=1e-12)

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2)])
    def test_spectral_matches_pointwise(self, q, n):
        rng = np.random.default_rng(q + n)
        s = random_space(rng, q)
        for _ in range(10):
            vt = random_table(rng, s, n)
            p = transform(vt)
            for i in range(n):
                assert influence(p, i) == pytest.approx(
                    pointwise_influence(vt, i), abs=1e-9
                )

    def test_total_influence_degree_bound(self):
        rng = np.random.default_rng(31)
        basis = build_basis(BIT)
        for _ in range(30):
            coeffs = {}
            for key in range(8):
                if sigma_decode(key, 2, 3).count(1) <= 2:
                    coeffs[key] = rng.standard_normal()
            p = FourierPolynomial(basis, 3, coeffs)
            var = p.variance()
            if var > 0:
                scale = 1.0 / math.sqrt(var)
                p = FourierPolynomial(basis, 3, {k: c * scale for k, c in p.coeffs.items()})
            assert total_influence(p) <= p.degree() * max(p.variance(), 1e-12) + 1e-9

    def test_out_of_range_coordinate(self):
        p = transform(ValueTable(BIT, 2, [1, 1, 1, 1]))
        with pytest.raises(ParameterRangeError):
            influence(p, 2)


class TestDegreeOperations:
    def test_parity_tail(self):
        vals = [a * b * c for a in (1, -1) for b in (1, -1) for c in (1, -1)]
        p = transform(ValueTable(BIT, 3, vals))
        assert degree_tail_mass(p, 2) == pytest.approx(1.0)
        assert degree_tail_mass(p, 3) == 0.0

    def test_constant_tail(self):
        p = transform(ValueTable(BIT, 2, np.ones(4)))
        assert degree_tail_mass(p, 0) == 0.0

    def test_truncate_at_n_is_identity(self):
        rng = np.random.default_rng(3)
        vt = random_table(rng, BIT, 3)
        p = transform(vt)
        assert truncate_degree(p, 3).coeffs == p.coeffs
        assert degree_tail_mass(p, 3) == 0.0

    def test_truncate_drops_high_mass(self):
        rng = np.random.default_rng(4)
        vt = random_table(rng, BIT, 3)
        p = transform(vt)
        t = truncate_degree(p, 1)
        assert t.degree() <= 1
        assert t.energy() + degree_tail_mass(p, 1) == pytest.approx(p.energy(), abs=1e-12)


class TestNoiseOperator:
    def test_gamma_one_identity(self):
        rng = np.random.default_rng(6)
        p = transform(random_table(rng, BIT, 3))
        assert noise_operator(p, 1.0).coeffs == p.coeffs

    def test_gamma_zero_collapses_to_mean(self):
        rng = np.random.default_rng(7)
        p = transform(random_table(rng, BIT, 3))
        noised = noise_operator(p, 0.0)
        assert set(noised.coeffs) <= {0}
        assert noised.mean() == pytest.approx(p.mean())

    def test_multiplier_value(self):
        basis = build_basis(BIT)
        p = FourierPolynomial(basis, 2, {sigma_encode((1, 1), 2): 1.0})
        noised = noise_operator(p, 0.9)
        assert noised.coeffs[sigma_encode((1, 1), 2)] == pytest.approx(0.81, abs=1e-15)

    def test_semigroup(self):
        rng = np.random.default_rng(8)
        s = random_space(rng, 3)
        p = transform(random_table(rng, s, 3))
        a = noise_operator(noise_operator(p, 0.8), 0.7)
        b = noise_operator(p, 0.56)
        for k in set(a.coeffs) | set(b.coeffs):
            assert a.coeffs.get(k, 0.0) == pytest.approx(b.coeffs.get(k, 0.0), abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9, 1.0])
    def test_kernel_equivalence_and_range(self, gamma):
        rng = np.random.default_rng(9)
        s = random_space(rng, 3)
        vt = random_table(rng, s, 3)
        spectral = inverse_transform(noise_operator(transform(vt), gamma))
        kernel = noise_operator_kernel(vt, gamma)
        assert np.abs(spectral.values - kernel.values).max() < 1e-12
        assert spectral.values.max() <= vt.values.max() + 1e-12
        assert spectral.values.min() >= vt.values.min() - 1e-12

    def test_mean_preserved_exactly(self):
        rng = np.random.default_rng(10)
        p = transform(random_table(rng, BIT, 4))
        assert noise_operator(p, 0.42).mean() == p.mean()

    def test_range_error(self):
        p = transform(ValueTable(BIT, 1, [1.0, -1.0]))
        with pytest.raises(ParameterRangeError):
            noise_operator(p, 1.5)


class TestRestriction:
    def test_parity_substitution(self):
        vals = [a * b for a in (1, -1) for b in (1, -1)]
        p = transform(ValueTable(BIT, 2, vals))
        r = restrict(p, [0], ["-1"])
        assert r.n == 1
        assert r.coeffs == {1: -1.0}

    def test_empty_restriction_is_identity(self):
        rng = np.random.default_rng(12)
        p = transform(random_table(rng, BIT, 3))
        r = restrict(p, [], [])
        assert r.coeffs == p.coeffs

    @pytest.mark.parametrize(
        "q,n,H", [(2, 3, [0]), (3, 3, [1, 2]), (3, 4, [0, 2]), (3, 3, []), (3, 3, [0, 1, 2])]
    )
    def test_collapse_matches_pointwise(self, q, n, H):
        rng = np.random.default_rng(q * n)
        s = random_space(rng, q)
        vt = random_table(rng, s, n)
        p = transform(vt)
        T = [i for i in range(n) if i not in H]
        for xi in itertools.product(range(q), repeat=len(H)):
            r = restrict(p, H, list(xi))
            restricted_vals = inverse_transform(r).values
            # pointwise oracle: slice the dense table
            full = vt.values.reshape((q,) * n)
            index = [slice(None)] * n
            for coord, atom in zip(H, xi):
                index[coord] = atom
            assert np.abs(restricted_vals - full[tuple(index)].ravel()).max() < 1e-9

    def test_restrict_twice_equals_union(self):
        rng = np.random.default_rng(14)
        s = random_space(rng, 3)
        p = transform(random_table(rng, s, 4))
        a = restrict(restrict(p, [1], [2]), [1], [0])  # coord 2 after reindexing
        b = restrict(p, [1, 2], [2, 0])
        for k in set(a.coeffs) | set(b.coeffs):
            assert a.coeffs.get(k, 0.0) == pytest.approx(b.coeffs.get(k, 0.0), abs=1e-10)

    def test_expected_influence_identity(self):
        # averaging restricted influences over the product measure recovers
        # the unrestricted influence of every surviving coordinate
        rng = np.random.default_rng(15)
        for q, n, H in [(2, 4, [0, 1]), (3, 3, [0])]:
            s = random_space(rng, q)
            p = transform(random_table(rng, s, n))
            T = [i for i in range(n) if i not in H]
            assignments = all_assignments(q, len(H))
            weights = kron_power(s.probs, assignments.shape[1])
            for pos, i in enumerate(T):
                avg = sum(
                    w * influence(restrict(p, H, list(xi)), pos)
                    for w, xi in zip(weights, assignments)
                )
                assert avg == pytest.approx(influence(p, i), abs=1e-9)

    def test_expected_variance_never_grows(self):
        rng = np.random.default_rng(16)
        s = random_space(rng, 3)
        p = transform(random_table(rng, s, 3))
        H = [0, 2]
        assignments = all_assignments(3, 2)
        weights = kron_power(s.probs, assignments.shape[1])
        avg_var = sum(
            w * restrict(p, H, list(xi)).variance()
            for w, xi in zip(weights, assignments)
        )
        assert avg_var <= p.variance() + 1e-9


class TestHypercontractivity:
    def test_constant_at_half(self):
        assert hypercontractivity_constant(0.5, 4.0) == pytest.approx(3.0)
        assert hypercontractivity_constant(0.5, 3.0) == pytest.approx(2.0)

    def test_constant_at_quarter(self):
        # (A^{3/4} - A^{-3/4}) / (A^{1/4} - A^{-1/4}) at A = 3
        assert hypercontractivity_constant(0.25, 4.0) == pytest.approx(
            3.3094010767585034, abs=1e-12
        )

    def test_alpha_above_half_clamped(self):
        assert hypercontractivity_constant(0.9, 4.0) == pytest.approx(3.0)

    def test_order_below_two_rejected(self):
        with pytest.raises(ParameterRangeError):
            hypercontractivity_constant(0.3, 1.5)

    def test_degree_zero_bound_is_l2(self):
        p = transform(ValueTable(BIT, 2, np.full(4, 2.5)))
        assert hypercontractive_norm_bound(p, 4.0) == pytest.approx(2.5)

    def test_fourth_norm_bounded_on_random_low_degree(self):
        rng = np.random.default_rng(20)
        for trial in range(500):
            q = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            s = random_space(rng, q)
            basis = build_basis(s)
            d = int(rng.integers(0, n + 1))
            coeffs = {}
            for key in range(q**n):
                if sigma_degree_of(key, q, n) <= d and rng.random() < 0.7:
                    coeffs[key] = rng.standard_normal()
            p = FourierPolynomial(basis, n, coeffs)
            if not p.coeffs:
                continue
            actual = inverse_transform(p).norm(4)
            assert actual <= hypercontractive_norm_bound(p, 4.0) + 1e-9

    def test_concentration_bound_by_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            q = int(rng.integers(2, 4))
            n = 3
            s = random_space(rng, q)
            basis = build_basis(s)
            d = int(rng.integers(1, 3))
            coeffs = {
                key: rng.standard_normal()
                for key in range(q**n)
                if 0 < sigma_degree_of(key, q, n) <= d
            }
            if not coeffs:
                continue
            p = FourierPolynomial(basis, n, coeffs)
            vt = inverse_transform(p)
            l2 = p.l2_norm()
            weights = vt.weights()
            for t in (math.e ** (d / 2) * 1.05, math.e ** (d / 2) * 2.0):
                empirical = float(weights[np.abs(vt.values) > t * l2].sum())
                assert empirical <= concentration_bound(d, s.alpha, t) + 1e-12


class TestKeysPastInt64:
    """q = 4, n = 40 keys reach 4^40 > 2^63; every functional matches a digit loop."""

    def test_functionals_and_restriction_match_sigma_decode_loops(self):
        rng = np.random.default_rng(40)
        q, n = 4, 40
        basis = build_basis(random_space(rng, q))
        coeffs = {0: 0.3}
        for _ in range(80):
            digits = [0] * n
            for i in rng.choice(n, size=int(rng.integers(1, 5)), replace=False):
                digits[i] = int(rng.integers(1, q))
            coeffs[sigma_encode(digits, q)] = float(rng.standard_normal())
        p = FourierPolynomial(basis, n, coeffs)
        assert max(p.coeffs) > 2**63
        sigma = {k: sigma_decode(k, q, n) for k in p.coeffs}
        deg = {k: sum(1 for s in sigma[k] if s) for k in p.coeffs}
        sq = {k: c * c for k, c in p.coeffs.items()}

        loop_inf = [sum(sq[k] for k in sq if sigma[k][i]) for i in range(n)]
        assert np.abs(influences(p) - loop_inf).max() <= 1e-12
        assert abs(total_influence(p) - sum(deg[k] * sq[k] for k in sq)) <= 1e-12
        for d in range(6):
            assert abs(degree_tail_mass(p, d) - sum(sq[k] for k in sq if deg[k] > d)) <= 1e-12
            kept = {k: c for k, c in p.coeffs.items() if deg[k] <= d}
            truncated = truncate_degree(p, d).coeffs
            assert truncated == kept and list(truncated) == list(kept)
        noised = noise_operator(p, 0.7).coeffs
        assert list(noised) == list(p.coeffs)
        for k, c in p.coeffs.items():
            assert abs(noised[k] - c * 0.7 ** deg[k]) <= 1e-12

        H = sorted(int(i) for i in rng.choice(n, size=6, replace=False))
        xi = [int(a) for a in rng.integers(q, size=6)]
        expected: dict = {}
        for k, c in p.coeffs.items():
            factor = math.prod(basis.chars[sigma[k][h], a] for h, a in zip(H, xi))
            key = sigma_encode([s for i, s in enumerate(sigma[k]) if i not in H], q)
            expected[key] = expected.get(key, 0.0) + c * factor
        got = restrict(p, H, xi).coeffs
        assert max(got) > 2**63
        # surviving keys come out in increasing order
        assert list(got) == sorted(got)
        for key in set(got) | set(expected):
            assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) <= 1e-12


class TestPolynomialKeys:
    """The constructor takes integer keys in [0, q^n) and keeps their order."""

    @pytest.mark.parametrize("key", [4, 7, -1, 2**70])
    def test_key_outside_range_is_rejected(self, key):
        with pytest.raises(InputError, match="outside the degree-sequence range"):
            FourierPolynomial(build_basis(BIT), 2, {0: 0.5, key: 1.0})

    @pytest.mark.parametrize("key", [1.5, "1"])
    def test_non_integer_key_is_rejected(self, key):
        with pytest.raises(InputError, match="not an integer"):
            FourierPolynomial(build_basis(BIT), 2, {key: 1.0})

    def test_coeffs_is_an_ordered_copy(self):
        p = FourierPolynomial(build_basis(BIT), 2, {np.int64(3): 1.0, 0: 0.5, 1: 1e-15})
        p.coeffs[1] = 2.0
        assert list(p.coeffs.items()) == [(3, 1.0), (0, 0.5)]
        assert p.mean() == 0.5 and p.variance() == 1.0 and p.degree() == 2


def sigma_degree_of(key, q, n):
    return sum(1 for digit in sigma_decode(key, q, n) if digit)


class TestSigmaCodec:
    @given(
        st.integers(min_value=2, max_value=7),
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_round_trip(self, q, digits):
        digits = [d % q for d in digits]
        key = sigma_encode(digits, q)
        assert sigma_decode(key, q, len(digits)) == tuple(digits)
