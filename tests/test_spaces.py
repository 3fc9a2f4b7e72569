"""Core probability-space tests: construction invariants, tensor powers,
total variation and JSON I/O."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nisim import (
    EmpiricalJoint2x2,
    InputError,
    JointDistribution,
    ParameterRangeError,
    ResourceLimitError,
    make_dsbs,
    tensor_power,
    tv_distance,
    uniform_triple,
)
from nisim.spaces import FiniteSpace
from nisim.util import kron_power


class TestFiniteSpace:
    def test_valid_construction(self):
        s = FiniteSpace(["a", "b", "c"], [0.5, 0.25, 0.25])
        assert s.q == 3
        assert s.alpha == 0.25
        assert s.index("b") == 1

    def test_zero_atoms_trimmed_with_metadata(self):
        s = FiniteSpace(["a", "b", "c"], [0.5, 0.0, 0.5])
        assert s.atoms == ("a", "c")
        assert s.dropped_atoms == ("b",)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError, match="unique"):
            FiniteSpace(["a", "a"], [0.5, 0.5])

    def test_normalization_tolerance(self):
        with pytest.raises(InputError, match="sum"):
            FiniteSpace(["a", "b"], [0.5, 0.6])
        s = FiniteSpace(["a", "b"], [0.5, 0.5 + 1e-13])
        assert abs(s.probs.sum() - 1.0) < 1e-15
        assert s.normalization_residual == pytest.approx(1e-13, rel=0.2)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            FiniteSpace(["a", "b"], [1.5, -0.5])

    def test_rebuilt_from_own_probs_is_equal(self):
        # renormalizing is not idempotent: rebuilding a space from its own
        # probs can move them by an ulp, which must not break equality
        rng = np.random.default_rng(2000)
        moved = 0
        for _ in range(2000):
            q = int(rng.integers(2, 7))
            s = FiniteSpace([f"x{i}" for i in range(q)], rng.dirichlet(np.ones(q)))
            t = FiniteSpace(s.atoms, s.probs)
            moved += not np.array_equal(s.probs, t.probs)
            assert t == s and hash(t) == hash(s)
        assert moved > 0

    def test_equality_tolerance_is_sum_tol(self):
        s = FiniteSpace(["a", "b"], [0.5, 0.5])
        assert FiniteSpace(["a", "b"], [0.5 + 4e-13, 0.5 - 4e-13]) == s
        assert FiniteSpace(["a", "b"], [0.5 + 1e-9, 0.5 - 1e-9]) != s
        assert FiniteSpace(["b", "a"], [0.5, 0.5]) != s


class TestMakeDsbs:
    def test_table_at_049(self):
        d = make_dsbs(0.49)
        assert np.allclose(d.table, [[0.3725, 0.1275], [0.1275, 0.3725]], atol=1e-15)

    def test_independence_case(self):
        assert np.allclose(make_dsbs(0.0).table, 0.25)

    def test_perfect_correlation_support(self):
        d = make_dsbs(1.0)
        assert np.allclose(d.table, [[0.5, 0.0], [0.0, 0.5]])
        assert np.allclose(d.row_space.probs, [0.5, 0.5])
        assert d.alpha == 0.5

    def test_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            make_dsbs(1.01)

    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.0, 0.2, 0.9])
    def test_marginals_uniform_and_moments(self, rho):
        d = make_dsbs(rho)
        assert np.allclose(d.row_space.probs, 0.5)
        assert np.allclose(d.col_space.probs, 0.5)
        corr = d.table[0, 0] - d.table[0, 1] - d.table[1, 0] + d.table[1, 1]
        assert corr == pytest.approx(rho, abs=1e-15)


class TestJointInvariants:
    @pytest.mark.parametrize(
        "dist", [make_dsbs(0.3), uniform_triple(), make_dsbs(0.0)]
    )
    def test_marginal_consistency(self, dist):
        assert abs(dist.table.sum() - 1.0) < 1e-12
        assert np.allclose(dist.table.sum(axis=1), dist.row_space.probs, atol=1e-12)
        assert np.allclose(dist.table.sum(axis=0), dist.col_space.probs, atol=1e-12)

    def test_alpha_is_min_positive_entry(self):
        assert uniform_triple().alpha == pytest.approx(1 / 3)
        assert make_dsbs(0.5).alpha == pytest.approx(0.125)

    def test_zero_marginal_rows_trimmed(self):
        d = JointDistribution(["a", "b"], ["x", "y"], [[0.5, 0.5], [0.0, 0.0]])
        assert d.shape == (1, 2)
        assert d.row_space.atoms == ("a",)


class TestTensorPower:
    def test_identity_power(self):
        d = make_dsbs(0.5)
        assert np.allclose(tensor_power(d, 1).table, d.table)

    def test_triple_square(self):
        t2 = tensor_power(uniform_triple(), 2)
        assert t2.shape == (4, 4)
        nonzero = t2.table[t2.table > 0]
        assert len(nonzero) == 9
        assert np.allclose(nonzero, 1 / 9)

    def test_marginal_of_power_is_power_of_marginal(self):
        d = make_dsbs(0.3)
        t2 = tensor_power(d, 2)
        expected = np.kron(d.row_space.probs, d.row_space.probs)
        assert np.allclose(t2.row_space.probs, expected, atol=1e-12)

    def test_power_associativity(self):
        d = uniform_triple()
        a = tensor_power(d, 2)
        b = tensor_power(tensor_power(d, 1), 2)
        assert np.allclose(a.table, b.table, atol=1e-15)
        c = tensor_power(d, 4)
        e = tensor_power(tensor_power(d, 2), 2)
        assert np.allclose(c.table, e.table, atol=1e-15)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError, match="cap"):
            tensor_power(make_dsbs(0.5), 5, cell_cap=1000)

    def test_labels_joined(self):
        t2 = tensor_power(uniform_triple(), 2)
        assert t2.row_space.atoms == ("0|0", "0|1", "1|0", "1|1")


class TestKronPower:
    def test_zero_power_is_one(self):
        assert np.array_equal(kron_power(np.array([0.3, 0.7]), 0), np.ones(1))

    def test_bit_identical_to_left_to_right_loops(self):
        rng = np.random.default_rng(31)
        for n in range(1, 5):
            p = rng.dirichlet(np.ones(3))
            t = rng.dirichlet(np.ones(6)).reshape(2, 3)
            w = np.ones(1)
            for _ in range(n):
                w = np.kron(w, p)
            W = t
            for _ in range(n - 1):
                W = np.kron(W, t)
            assert np.array_equal(kron_power(p, n), w)
            assert np.array_equal(kron_power(t, n), W)


class TestTvDistance:
    def test_identical(self):
        assert tv_distance(make_dsbs(0.5), make_dsbs(0.5)) == 0.0

    def test_dsbs_neighbors(self):
        assert tv_distance(make_dsbs(0.5), make_dsbs(0.49)) == pytest.approx(
            0.005, abs=1e-15
        )

    def test_disjoint_point_masses(self):
        p = EmpiricalJoint2x2([1.0, 0.0, 0.0, 0.0])
        q = EmpiricalJoint2x2([0.0, 0.0, 0.0, 1.0])
        assert tv_distance(p, q) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            tv_distance(make_dsbs(0.5), uniform_triple().table.ravel()[:3])

    def test_atom_mismatch(self):
        with pytest.raises(InputError, match="atom"):
            tv_distance(make_dsbs(0.5), uniform_triple())

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, a, b, c):
        pa = np.array(a) / np.sum(a)
        pb = np.array(b) / np.sum(b)
        pc = np.array(c) / np.sum(c)
        assert tv_distance(pa, pb) == pytest.approx(tv_distance(pb, pa), abs=1e-15)
        assert tv_distance(pa, pa) <= 1e-12
        assert tv_distance(pa, pc) <= tv_distance(pa, pb) + tv_distance(pb, pc) + 1e-12


class TestJson:
    def test_round_trip_bit_exact(self):
        d = make_dsbs(0.49)
        again = JointDistribution.from_json(d.to_json())
        assert again.to_json() == d.to_json()
        assert np.array_equal(again.table, d.table)

    def test_missing_key_reported(self):
        with pytest.raises(InputError, match="row_atoms"):
            JointDistribution.from_json('{"col_atoms": [], "probs": []}')

    def test_first_violation_reported(self):
        bad = '{"row_atoms": ["a","b"], "col_atoms": ["x"], "probs": [[0.6],[0.6]]}'
        with pytest.raises(InputError, match="sum"):
            JointDistribution.from_json(bad)

    def test_separator_rejected(self):
        bad = '{"row_atoms": ["a|b","c"], "col_atoms": ["x","y"], "probs": [[0.25,0.25],[0.25,0.25]]}'
        with pytest.raises(InputError, match="separator"):
            JointDistribution.from_json(bad)

    def test_malformed_json(self):
        with pytest.raises(InputError, match="malformed"):
            JointDistribution.from_json("{not json")
