"""Strategies, the Gaussian simulator, the threshold lift, and the
empirical statistics harness."""

import fractions
import functools
import inspect
import json
import math
import os
import sys
import threading

import mpmath
import numpy as np
import pytest

from conftest import constant_table, dictator_table, traced_peak
from nisim import rounding
from nisim import (
    EmpiricalJoint2x2,
    HybridStrategy,
    InputError,
    JointDistribution,
    ParameterRangeError,
    TableStrategy,
    berry_esseen_sample_count,
    estimate_strategy_stats,
    gamma_under,
    gaussian_simulator_strategy,
    lift_hybrid,
    make_dsbs,
    round_pair,
    tv_distance,
    uniform_triple,
)
from nisim.strategies import strategy_from_json
from nisim.util import SCRATCH_CELLS, all_assignments, flat_index

DSBS5 = make_dsbs(0.5)
C = rounding.MC_CHUNK_SAMPLES


def _table_pair():
    t = uniform_triple()
    rng = np.random.default_rng(12)
    return (TableStrategy(t.row_space, 3, rng.uniform(-1, 1, 8)),
            TableStrategy(t.col_space, 3, rng.uniform(-1, 1, 8)), t)


def _rounded_pair():
    f, g, t = _table_pair()
    return (*round_pair(f, g, seed=21), t)


def _lifted_h2_pair():
    t = uniform_triple()
    inner = np.array([-0.8, 0.3, 1.1, 0.0])
    return (lift_hybrid(HybridStrategy(t.row_space, 2, inner), t, 20, side="row"),
            lift_hybrid(HybridStrategy(t.col_space, 2, inner), t, 20, side="col"), t)


# one pair of each Monte Carlo kind: explicit joint draws, the same with rounding
# coins, and the binomial chain of suffix cell counts without and with a prefix
MC_PAIRS = {
    "generic": _table_pair,
    "rounded": _rounded_pair,
    "lifted_h0": lambda: (*gaussian_simulator_strategy(DSBS5, 0.0, 30), DSBS5),
    "lifted_h2": _lifted_h2_pair,
}


class TestTableStrategy:
    def test_evaluate_matches_direct_indexing(self):
        rng = np.random.default_rng(0)
        s = DSBS5.row_space
        vals = rng.standard_normal(8)
        strat = TableStrategy(s, 3, vals)
        idx = all_assignments(2, 3)
        assert np.array_equal(strat.evaluate(idx), vals)

    def test_dictator_and_constant(self):
        s = DSBS5.row_space
        d = dictator_table(s, 2, 1, [1.0, -1.0])
        idx = all_assignments(2, 2)
        assert np.array_equal(d.evaluate(idx), [1, -1, 1, -1])
        c = constant_table(s, 2, 0.4)
        assert np.all(c.evaluate(idx) == 0.4)

    def test_exact_mean(self):
        t = uniform_triple()
        strat = TableStrategy(t.row_space, 1, [0.5, -1.0])
        assert strat.mean() == pytest.approx(0.0, abs=1e-15)

    def test_json_values_round_trip(self):
        s = DSBS5.row_space
        strat = TableStrategy(s, 2, [0.1, -0.2, 0.3, -0.4])
        again = strategy_from_json(__import__("json").dumps(strat.to_json_dict()))
        assert np.array_equal(again.values, strat.values)

    def test_json_coefficient_form(self):
        text = (
            '{"n": 2, "space": {"atoms": ["+1", "-1"], "probs": [0.5, 0.5]}, '
            '"coeffs": {"3": 1.0}}'
        )
        strat = strategy_from_json(text)
        assert np.allclose(strat.values, [1, -1, -1, 1])

    def test_json_errors(self):
        with pytest.raises(InputError):
            strategy_from_json('{"n": 1}')
        with pytest.raises(InputError):
            strategy_from_json('{"n": 1, "space": {"atoms": ["a"], "probs": [1.0]}}')

    def test_atom_index_out_of_range(self):
        strat = TableStrategy(DSBS5.row_space, 2, [10, 20, 30, 40])
        assert np.array_equal(strat.evaluate(np.array([[0, 1], [1, 0]])), [20, 30])
        for row in ([0, 2], [0, -1], [5, 0]):
            with pytest.raises(InputError, match="atom indices"):
                strat.evaluate(np.array([row]))

    def test_atom_index_of_non_integer_dtype(self):
        strat = TableStrategy(DSBS5.row_space, 2, [10, 20, 30, 40])
        for batch in ([[0.5, 1.0]], [[0.0, 1.0]], [[True, False]]):
            with pytest.raises(InputError, match="atom indices must be integers"):
                strat.evaluate(np.array(batch))
        assert strat.evaluate(np.array([[1, 1]], dtype=np.uint8))[0] == 40


class TestLiftedStrategy:
    def test_constant_plus_one_at_mean_one(self):
        f, _ = gaussian_simulator_strategy(DSBS5, 1.0, 5)
        idx = all_assignments(2, 5)
        assert np.all(f.evaluate(idx) == 1.0)

    def test_single_sample_balanced_bit(self):
        # w=1 on a uniform bit with identity witness: threshold at 0 means
        # the sign of the single sample, exactly balanced
        f, g = gaussian_simulator_strategy(DSBS5, 0.0, 1)
        stats = estimate_strategy_stats(f, g, DSBS5, mode="exact")
        assert stats.mean_f == pytest.approx(0.0, abs=1e-12)
        assert stats.mean_g == pytest.approx(0.0, abs=1e-12)

    def test_lift_of_trivial_hybrid_is_constant(self):
        h = HybridStrategy(DSBS5.row_space, 0, [-math.inf])
        lifted = lift_hybrid(h, DSBS5, 4, side="row")
        idx = all_assignments(2, 4)
        assert np.all(lifted.evaluate(idx) == 1.0)

    def test_zero_prefix_lift_matches_simulator(self):
        h = HybridStrategy(DSBS5.row_space, 0, [0.7])
        lifted = lift_hybrid(h, DSBS5, 6, side="row")
        nu = 1.0 - 2.0 * float(__import__("scipy.special", fromlist=["ndtr"]).ndtr(0.7))
        sim, _ = gaussian_simulator_strategy(DSBS5, nu, 6)
        idx = all_assignments(2, 6)
        assert np.array_equal(lifted.evaluate(idx), sim.evaluate(idx))

    def test_lift_errors(self):
        with pytest.raises(ParameterRangeError):
            gaussian_simulator_strategy(DSBS5, 0.0, 4, polarity=(1, 0))
        form = HybridStrategy(DSBS5.row_space, 1, [0.0, 0.5])
        with pytest.raises(ParameterRangeError):
            lift_hybrid(form, DSBS5, 0)
        with pytest.raises(InputError, match="witness"):
            rounding.LiftedStrategy(form, 3, [1.0, -1.0, 0.0])
        lifted = lift_hybrid(form, DSBS5, 3)
        with pytest.raises(InputError, match="atom indices"):
            lifted.evaluate(np.array([[2, 0, 1, 1]]))

    @pytest.mark.parametrize("w", [3.5, 3.0, "3", None])
    def test_suffix_count_must_be_an_integer(self, w):
        # a float w reached numpy's binomial, which truncates 3.5 trials to 3
        with pytest.raises(InputError, match="suffix sample count .* not an integer"):
            gaussian_simulator_strategy(DSBS5, 0.0, w)

    @pytest.mark.parametrize("w", [0, -2, 2**63])
    def test_suffix_count_must_lie_below_two_to_the_63(self, w):
        with pytest.raises(ParameterRangeError, match="suffix sample count"):
            gaussian_simulator_strategy(DSBS5, 0.0, w)

    def test_suffix_count_below_two_to_the_63_runs(self):
        f, g = gaussian_simulator_strategy(DSBS5, 0.0, np.int64(2**62))
        assert type(f.w) is int and f.n == 2**62
        stats = estimate_strategy_stats(f, g, DSBS5, n_samples=100)
        assert stats.mode == "lifted_monte_carlo"

    @pytest.mark.parametrize("h, error", [
        (1.0, InputError), ("1", InputError), (-1, ParameterRangeError),
    ])
    def test_prefix_length_must_be_a_nonnegative_integer(self, h, error):
        with pytest.raises(error, match="prefix length"):
            HybridStrategy(DSBS5.row_space, h, [0.0, 0.0])

    def test_hybrid_derived_means(self):
        h = HybridStrategy(DSBS5.row_space, 1, [0.0, math.inf])
        assert np.allclose(h.derived_means(), [0.0, -1.0])
        h2 = HybridStrategy(DSBS5.row_space, 1, [0.0, math.inf], polarity=-1)
        assert np.allclose(h2.derived_means(), [0.0, 1.0])


class TestEstimateStats:
    def test_dictator_pair_exact(self):
        for rho in (0.2, 0.5, 0.8):
            d = make_dsbs(rho)
            f = dictator_table(d.row_space, 1, 0, [1.0, -1.0])
            g = dictator_table(d.col_space, 1, 0, [1.0, -1.0])
            stats = estimate_strategy_stats(f, g, d, mode="exact")
            assert stats.corr_fg == pytest.approx(rho, abs=1e-12)
            assert stats.mean_f == pytest.approx(0.0, abs=1e-12)

    def test_zero_coordinates_exact(self):
        """n = 0: both functions are constants a and b, so corr = a * b."""
        d = uniform_triple()
        f, g = TableStrategy(d.row_space, 0, [0.5]), TableStrategy(d.col_space, 0, [-0.25])
        stats = estimate_strategy_stats(f, g, d)
        assert stats.mode == "exact"
        assert (stats.mean_f, stats.mean_g, stats.corr_fg) == (0.5, -0.25, -0.125)
        assert stats.joint.probs.tolist() == EmpiricalJoint2x2.from_moments(
            0.5, -0.25, -0.125).probs.tolist()

    def test_constant_pair_tv_to_perfect(self):
        d = make_dsbs(1.0)
        f = constant_table(d.row_space, 1, 1.0)
        g = constant_table(d.col_space, 1, 1.0)
        stats = estimate_strategy_stats(f, g, d, mode="exact")
        assert stats.corr_fg == 1.0
        target = EmpiricalJoint2x2([0.5, 0.0, 0.0, 0.5])
        assert tv_distance(stats.joint, target) == pytest.approx(0.5)

    def test_antipodal_pair(self):
        d = uniform_triple()
        f = TableStrategy(d.row_space, 1, [1.0, -1.0])
        g = TableStrategy(d.col_space, 1, [-1.0, 1.0])
        stats = estimate_strategy_stats(f, g, d, mode="exact")
        fg = TableStrategy(d.col_space, 1, [1.0, -1.0])
        flipped = estimate_strategy_stats(f, fg, d, mode="exact")
        assert stats.corr_fg == pytest.approx(-flipped.corr_fg, abs=1e-12)

    def test_self_negation_is_minus_one(self):
        d = make_dsbs(1.0)
        f = dictator_table(d.row_space, 1, 0, [1.0, -1.0])
        g = dictator_table(d.col_space, 1, 0, [-1.0, 1.0])
        stats = estimate_strategy_stats(f, g, d, mode="exact")
        assert stats.corr_fg == pytest.approx(-1.0, abs=1e-12)

    def test_seed_determinism(self):
        f, g = gaussian_simulator_strategy(DSBS5, 0.0, 50)
        a = estimate_strategy_stats(f, g, DSBS5, n_samples=2000, seed=3, mode="monte_carlo")
        b = estimate_strategy_stats(f, g, DSBS5, n_samples=2000, seed=3, mode="monte_carlo")
        assert a.corr_fg == b.corr_fg
        assert np.array_equal(a.joint.probs, b.joint.probs)

    def test_lifted_fast_path_matches_exact(self):
        # small w so the full joint table is enumerable: the suffix cell
        # counts must agree with exact enumeration
        f, g = gaussian_simulator_strategy(DSBS5, 0.2, 6)
        exact = estimate_strategy_stats(f, g, DSBS5, mode="exact")
        mc = estimate_strategy_stats(
            f, g, DSBS5, n_samples=2 * 10**5, seed=9, mode="monte_carlo"
        )
        assert mc.mode == "lifted_monte_carlo"
        assert abs(mc.corr_fg - exact.corr_fg) <= 4 * mc.stderr_corr
        assert abs(mc.mean_f - exact.mean_f) <= 4 * mc.stderr_mean_f

    def test_generic_path_matches_lifted(self):
        f, g = gaussian_simulator_strategy(DSBS5, 0.0, 5)
        lifted = estimate_strategy_stats(f, g, DSBS5, n_samples=10**5, seed=2,
                                         mode="monte_carlo")
        # dense copies force the generic sampler
        fd = TableStrategy(DSBS5.row_space, 5, f.evaluate(all_assignments(2, 5)))
        gd = TableStrategy(DSBS5.col_space, 5, g.evaluate(all_assignments(2, 5)))
        generic = estimate_strategy_stats(fd, gd, DSBS5, n_samples=10**5, seed=2,
                                          mode="monte_carlo")
        assert generic.mode == "monte_carlo"
        spread = 4 * (lifted.stderr_corr + generic.stderr_corr)
        assert abs(generic.corr_fg - lifted.corr_fg) <= spread

    def test_exact_contraction_matches_tensor_power_table(self):
        # the exact path contracts coordinate by coordinate; the materialized
        # power table is the independent route for the same bilinear form
        from nisim import tensor_power

        rng = np.random.default_rng(31)
        d = uniform_triple()
        n = 3
        vf = rng.uniform(-1, 1, 2**n)
        vg = rng.uniform(-1, 1, 2**n)
        f = TableStrategy(d.row_space, n, vf)
        g = TableStrategy(d.col_space, n, vg)
        stats = estimate_strategy_stats(f, g, d, mode="exact")
        t3 = tensor_power(d, n)
        assert stats.corr_fg == pytest.approx(float(vf @ t3.table @ vg), abs=1e-12)
        wa = t3.row_space.probs
        assert stats.mean_f == pytest.approx(float(wa @ vf), abs=1e-12)

    def test_lifted_vs_generic_on_nonuniform_source(self):
        # the suffix cell counts against the explicit
        # coordinate sampler, on a source with non-uniform marginals and a
        # non-binary witness
        t = uniform_triple()
        f, g = gaussian_simulator_strategy(t, (0.1, -0.2), 9)
        exact = estimate_strategy_stats(f, g, t, mode="exact")
        lifted = estimate_strategy_stats(f, g, t, n_samples=2 * 10**5, seed=3,
                                         mode="monte_carlo")
        assert lifted.mode == "lifted_monte_carlo"
        fd = TableStrategy(t.row_space, 9, f.evaluate(all_assignments(2, 9)))
        gd = TableStrategy(t.col_space, 9, g.evaluate(all_assignments(2, 9)))
        generic = estimate_strategy_stats(fd, gd, t, n_samples=2 * 10**5, seed=4,
                                          mode="monte_carlo")
        for est in (lifted, generic):
            assert abs(est.corr_fg - exact.corr_fg) <= 4 * est.stderr_corr + 1e-6
            assert abs(est.mean_f - exact.mean_f) <= 4 * est.stderr_mean_f + 1e-6
            assert abs(est.mean_g - exact.mean_g) <= 4 * est.stderr_mean_g + 1e-6

    @pytest.mark.parametrize("samples", [C - 1, C, C + 1, 7 * C // 2, 8 * C + 1])
    @pytest.mark.parametrize("kind", sorted(MC_PAIRS))
    def test_threads_deterministic(self, kind, samples, monkeypatch):
        # chunk boundaries and their streams depend on the seed only; the core
        # count is raised so that 3 and 8 threads run, beside fewer and more chunks
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        f, g, d = MC_PAIRS[kind]()
        outs = {json.dumps(estimate_strategy_stats(f, g, d, n_samples=samples, seed=5,
                                                   mode="monte_carlo", threads=t).as_dict())
                for t in (1, 2, 3, 8)}
        assert len(outs) == 1

    @pytest.mark.parametrize("threads, chunks, cores, started", [
        (1, 10, 8, 0), (3, 1, 8, 0), (8, 5, 64, 4), (100_000, 10, 4, 3), (100_000, 10, None, 0),
    ])
    def test_helper_threads_are_capped(self, monkeypatch, threads, chunks, cores, started):
        # helpers = min(threads, chunks, cores) - 1, counted through a Thread stub
        starts = []

        class CountingThread(threading.Thread):
            def start(self):
                starts.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountingThread)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(rounding, "BLOCK_CELLS", 100)  # 10 samples per chunk at n = 10
        f = constant_table(DSBS5.row_space, 10, 1.0)
        g = constant_table(DSBS5.col_space, 10, 1.0)
        stats = estimate_strategy_stats(f, g, DSBS5, n_samples=10 * chunks, seed=2,
                                        mode="monte_carlo", threads=threads)
        assert stats.corr_fg == 1.0
        assert len(starts) == started

    def test_many_threads_claim_each_chunk_once(self, monkeypatch):
        # more threads than cores on 300 small chunks, with fast thread switching:
        # a chunk claimed twice or skipped would change the call count or the sums
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(rounding, "BLOCK_CELLS", 100)  # 10 samples per chunk at n = 10
        lock, calls = threading.Lock(), []

        class Counting(TableStrategy):
            def evaluate(self, idx):
                with lock:
                    calls.append(len(idx))
                return super().evaluate(idx)

        values = np.random.default_rng(3).uniform(-1, 1, 2**10)
        f = Counting(DSBS5.row_space, 10, values)
        g = TableStrategy(DSBS5.col_space, 10, values[::-1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outs = [estimate_strategy_stats(f, g, DSBS5, n_samples=3000, seed=4,
                                            mode="monte_carlo", threads=t).as_dict()
                    for t in (1, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert json.dumps(outs[0]) == json.dumps(outs[1])
        assert calls == [10] * 600

    def test_chunk_error_reaches_the_caller(self, monkeypatch):
        # the second chunk's evaluate raises; no chunk is claimed once the error is
        # recorded, so at most one more evaluate runs, and every helper is joined
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(rounding, "BLOCK_CELLS", 100)
        lock, calls = threading.Lock(), []

        class Failing(TableStrategy):
            def evaluate(self, idx):
                with lock:
                    calls.append(len(idx))
                    if len(calls) == 2:
                        raise ValueError("chunk failed")
                return super().evaluate(idx)

        f = Failing(DSBS5.row_space, 10, np.ones(2**10))
        g = constant_table(DSBS5.col_space, 10, 1.0)
        before = threading.active_count()
        with pytest.raises(ValueError, match="chunk failed"):
            estimate_strategy_stats(f, g, DSBS5, n_samples=1000, seed=2, mode="monte_carlo",
                                    threads=2)
        assert threading.active_count() == before
        assert 2 <= len(calls) <= 3

    def test_monte_carlo_does_not_depend_on_blas_threads(self, outputs_at_blas_threads):
        # a real-valued pair: a BLAS dot in the chunk sums changed the last
        # bits of stderr_corr with the size of the BLAS thread pool
        code = (
            "import json\n"
            "import numpy as np\n"
            "from nisim import TableStrategy, estimate_strategy_stats, make_dsbs\n"
            "dist = make_dsbs(0.4)\n"
            "rng = np.random.default_rng(6)\n"
            "f = TableStrategy(dist.row_space, 6, rng.uniform(-1, 1, 64))\n"
            "g = TableStrategy(dist.col_space, 6, rng.uniform(-1, 1, 64))\n"
            "stats = estimate_strategy_stats(f, g, dist, 200_000, mode='monte_carlo')\n"
            "print(json.dumps(stats.as_dict()))\n"
        )
        outs = outputs_at_blas_threads(code)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["mode"] == "monte_carlo"

    def test_rounded_pair_repeats(self):
        f, g, d = MC_PAIRS["rounded"]()
        outs = {json.dumps(estimate_strategy_stats(f, g, d, n_samples=3 * C, seed=6,
                                                   mode="monte_carlo", threads=2).as_dict())
                for _ in range(6)}
        assert len(outs) == 1

    def test_wide_pair_chunks_stay_under_the_cell_cap(self, monkeypatch):
        # n * MC_CHUNK_SAMPLES passes the (shrunk) cap, so every chunk shrinks to fit it
        monkeypatch.setattr(rounding, "BLOCK_CELLS", 10**4)
        real, sizes = rounding._generic_pair_mc, []

        def spy(f, g, dist, m, rng):
            sizes.append(m)
            return real(f, g, dist, m, rng)

        monkeypatch.setattr(rounding, "_generic_pair_mc", spy)
        n = 8
        f = constant_table(DSBS5.row_space, n, 1.0)
        g = constant_table(DSBS5.col_space, n, -1.0)
        stats = estimate_strategy_stats(f, g, DSBS5, n_samples=5000, seed=1,
                                        mode="monte_carlo", threads=2)
        assert stats.corr_fg == -1.0
        assert sum(sizes) == 5000 and max(sizes) * n <= 10**4

    def test_threads_must_be_positive(self):
        f, g = gaussian_simulator_strategy(DSBS5, 0.0, 30)
        for threads in (0, -1):
            with pytest.raises(ParameterRangeError, match="thread count"):
                estimate_strategy_stats(f, g, DSBS5, n_samples=100, threads=threads)

    def test_coordinate_mismatch(self):
        f = constant_table(DSBS5.row_space, 2, 1.0)
        g = constant_table(DSBS5.col_space, 3, 1.0)
        with pytest.raises(InputError, match="coordinate"):
            estimate_strategy_stats(f, g, DSBS5)


def _lifted_pair(dist, h, w, seed, polarity=(1, -1)):
    """Lifts of random threshold forms with an h-coordinate prefix, by default
    the second antipodal."""
    rng = np.random.default_rng(seed)
    qa, qb = dist.shape
    f = HybridStrategy(dist.row_space, h, rng.uniform(-0.6, 0.6, qa**h), polarity=polarity[0])
    g = HybridStrategy(dist.col_space, h, rng.uniform(-0.6, 0.6, qb**h), polarity=polarity[1])
    return lift_hybrid(f, dist, w, side="row"), lift_hybrid(g, dist, w, side="col")


def _seeded_3x3():
    """A 3x3 source with every cell positive and a heavy diagonal."""
    t = np.random.default_rng(17).uniform(0.2, 1.0, (3, 3)) + 2 * np.eye(3)
    return JointDistribution(["a", "b", "c"], ["a", "b", "c"], t / t.sum())


# two atoms per side; a zero cell; three atoms per side, whose later
# stages run on trial counts that are not sorted
LIFTED_SOURCES = {"dsbs": DSBS5, "triple": uniform_triple(), "3x3": _seeded_3x3()}


def multinomial_lifted_chunk(f, g, dist, n_samples, rng):
    """The lifted chunk with every row's suffix counts from one
    ``rng.multinomial`` call: the draw whose distribution the chain of
    binomials keeps."""
    qa, qb = dist.shape
    pjoint = dist.table.ravel()
    a, b = np.divmod(rng.choice(qa * qb, size=(n_samples, f.h), p=pjoint), qb)
    counts = rng.multinomial(f.w, pjoint, size=n_samples).reshape(n_samples, qa, qb)
    vf = f.output_for(flat_index(a, qa), counts.sum(axis=2) @ f.witness)
    vg = g.output_for(flat_index(b, qb), counts.sum(axis=1) @ g.witness)
    prod = vf * vg
    return np.array([vf.sum(), vg.sum(), prod.sum(), (prod * prod).sum()])


# each estimate beside its standard error
ESTIMATES = (("mean_f", "stderr_mean_f"), ("mean_g", "stderr_mean_g"), ("corr_fg", "stderr_corr"))


class TestLiftedCountChain:
    """The lifted chunk draws its suffix cell counts as a chain of
    conditional binomials with a sorted first stage: its estimates follow
    the multinomial draw's distribution, and its bits depend on neither the
    thread count nor the BLAS pool."""

    @pytest.mark.parametrize("w", [1, 6])
    @pytest.mark.parametrize("h", [0, 1, 2])
    @pytest.mark.parametrize("source", sorted(LIFTED_SOURCES))
    def test_estimates_match_exact_enumeration(self, source, h, w):
        d = LIFTED_SOURCES[source]
        f, g = _lifted_pair(d, h, w, h)
        exact = estimate_strategy_stats(f, g, d, mode="exact")
        mc = estimate_strategy_stats(f, g, d, 2 * 10**5, seed=h + w, mode="monte_carlo")
        assert mc.mode == "lifted_monte_carlo"
        for est, se in ESTIMATES:
            assert abs(getattr(mc, est) - getattr(exact, est)) <= 4 * getattr(mc, se) + 1e-9, est

    @pytest.mark.parametrize("h", [0, 1, 2])
    @pytest.mark.parametrize("source", sorted(LIFTED_SOURCES))
    def test_estimates_match_the_multinomial_draw(self, source, h, monkeypatch):
        # at w = 300, beyond exact enumeration, numpy's binomial runs its
        # BTPE sampler on most rows
        d = LIFTED_SOURCES[source]
        f, g = _lifted_pair(d, h, 300, h)
        chain = estimate_strategy_stats(f, g, d, 2 * 10**5, seed=h, mode="monte_carlo")
        monkeypatch.setattr(rounding, "_lifted_pair_mc", multinomial_lifted_chunk)
        ref = estimate_strategy_stats(f, g, d, 2 * 10**5, seed=h + 100, mode="monte_carlo")
        for est, se in ESTIMATES:
            spread = 4 * math.hypot(getattr(chain, se), getattr(ref, se))
            assert abs(getattr(chain, est) - getattr(ref, est)) <= spread, est

    def test_estimates_do_not_depend_on_blas_threads(self, outputs_at_blas_threads):
        code = "\n".join([
            "import json",
            "import numpy as np",
            "from nisim import (HybridStrategy, JointDistribution, estimate_strategy_stats,",
            "                   lift_hybrid, make_dsbs, uniform_triple)",
            inspect.getsource(_lifted_pair),
            inspect.getsource(_seeded_3x3),
            "for d in (make_dsbs(0.5), uniform_triple(), _seeded_3x3()):",
            "    for h in (0, 1, 2):",
            "        f, g = _lifted_pair(d, h, 300, h)",
            "        for mode in ('monte_carlo', 'auto'):",
            "            stats = estimate_strategy_stats(f, g, d, 3 * 10**5, seed=h, mode=mode)",
            "            print(json.dumps(stats.as_dict()))",
        ])
        outs = outputs_at_blas_threads(code)
        assert outs[0] == outs[1]
        # auto answers the two-atom sources from their suffix-count law
        assert outs[0].count(b"lifted_monte_carlo") == 12
        assert outs[0].count(b'"mode": "exact"') == 6

    def test_chain_probabilities_with_zero_mass(self):
        t = np.array([[0.2, 0.0, 0.3], [0.0, 0.0, 0.0], [0.1, 0.4, 0.0]])
        np.testing.assert_allclose(rounding._chain_probabilities(t),
                                   [[0.4, 0.0], [0.0, 0.0], [0.2, 1.0]], rtol=1e-15)

    def test_chain_probabilities_rebuild_the_masses(self):
        # mass j = total * p_j * prod_{i<j} (1 - p_i), the last one taking what is left
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = rng.uniform(0, 1, rng.integers(1, 6)) * (rng.uniform(size=1) < 0.7)
            p = rounding._chain_probabilities(m)
            assert np.all((0.0 <= p) & (p <= 1.0))
            left, rebuilt = m.sum(), []
            for pj in p:
                rebuilt.append(left * pj)
                left -= rebuilt[-1]
            np.testing.assert_allclose([*rebuilt, left], m, atol=1e-12)


def _random_2x2(seed):
    t = np.random.default_rng(seed).uniform(0.05, 1.0, (2, 2))
    return JointDistribution(["a", "b"], ["a", "b"], t / t.sum())


# two atoms per side: symmetric, with an empty cell (P(y0 | x1) = 1), a
# perfect copy (every conditional a point mass), and two random tables
LAW_SOURCES = {"dsbs": make_dsbs(0.3), "triple": uniform_triple(),
               "copy": JointDistribution(["a", "b"], ["a", "b"], np.eye(2) / 2),
               "2x2a": _random_2x2(41), "2x2b": _random_2x2(42)}
POLARITIES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


_TRUE_SUFFIX_PROBABILITIES = rounding._suffix_probabilities


def _broken_suffix_probabilities(dist):
    """The suffix law with p(y | x) replaced by the column marginal: M then
    ignores N."""
    p, _, _ = _TRUE_SUFFIX_PROBABILITIES(dist)
    (col,) = rounding._chain_probabilities(dist.table.sum(axis=0))
    return p, float(col), float(col)


def _enumeration_gap(dist, h):
    """Largest gap between the law's moments and exact enumeration's over
    w <= 6 and every polarity pair."""
    gap = 0.0
    for w in range(1, 7):
        for pol in POLARITIES:
            f, g = _lifted_pair(dist, h, w, 10 * h + w, pol)
            exact = estimate_strategy_stats(f, g, dist, mode="exact")
            law = rounding._lifted_law(f, g, dist)
            ref = (exact.mean_f, exact.mean_g, exact.corr_fg)
            gap = max(gap, *(abs(x - y) for x, y in zip(law, ref)))
    return gap


def _mp_binomial(n, p, lo, hi):
    """Bin(n, p) at counts lo..hi in mpmath."""
    if p in (0, 1):
        return [mpmath.mpf(int(j == n * p)) for j in range(lo, hi + 1)]
    v = mpmath.binomial(n, lo) * p**lo * (1 - p) ** (n - lo)
    out = [v]
    for j in range(lo, hi):
        v = v * (n - j) / (j + 1) * p / (1 - p)
        out.append(v)
    return out


def _mp_span(n, p):
    """Counts within 12 standard deviations of the mean (mass beyond: e^-70)."""
    s, c = float(mpmath.sqrt(n * p * (1 - p))), float(n * p)
    return max(0, int(c - 12 * s) - 2), min(n, int(c + 12 * s) + 2)


def _mp_moments(f, g, dist):
    """(E[f], E[g], E[fg]) as a 20-digit double sum over the joint law of
    (N, M), the suffix counts of row and column atom 0: sum_k P(N = k)
    sum_m P(M = m | N = k) with P(M <= m | N = k) = sum_j P(A = j)
    P(B <= m - j), from the table's own entries.  The outputs come from the
    program's predicate at every count."""
    mpmath.mp.dps = 20
    t = [[mpmath.mpf(float(v)) for v in row] for row in dist.table]
    p = t[0][0] + t[0][1]
    a, b = t[0][0] / p, t[1][0] / (t[1][0] + t[1][1])
    w = f.w
    F, G = rounding._count_outputs(f, 0, w), rounding._count_outputs(g, 0, w)
    jumps = [m for m in range(w) if np.any(G[:, m + 1] != G[:, m])]
    T = [[mpmath.mpf(float(v)) for v in row] for row in rounding.kron_power(dist.table, f.h)]
    col_w = [mpmath.fsum(row[y] for row in T) for y in range(len(T[0]))]
    klo, khi = _mp_span(w, p)
    ef = eg = efg = mpmath.mpf(0)
    for k, pk in zip(range(klo, khi + 1), _mp_binomial(w, p, klo, khi)):
        alo, ahi = _mp_span(k, a)
        blo, bhi = _mp_span(w - k, b)
        pa = _mp_binomial(k, a, alo, ahi)
        cdf = np.cumsum(np.array(_mp_binomial(w - k, b, blo, bhi), dtype=object))
        below = [mpmath.fdot(pa, [cdf[min(m - j, bhi) - blo] if m - j >= blo else 0
                                  for j in range(alo, ahi + 1)]) for m in jumps]
        cond = [G[y, -1] - mpmath.fsum((G[y, m + 1] - G[y, m]) * c for m, c in zip(jumps, below))
                for y in range(G.shape[0])]
        for x in range(F.shape[0]):
            ef += pk * mpmath.fsum(T[x]) * int(F[x, k])
            efg += pk * int(F[x, k]) * mpmath.fdot(T[x], cond)
        eg += pk * mpmath.fdot(col_w, cond)
    return float(ef), float(eg), float(efg)


# (source, h, w) of each mpmath case
MP_CASES = [("dsbs", 2, 300), ("2x2a", 1, 300), ("triple", 0, 2000)]


def _mp_pair(case):
    source, h, w = case
    d = LAW_SOURCES[source]
    return (*_lifted_pair(d, h, w, w + h), d)


@functools.cache
def _mp_reference(case):
    """The case's mpmath moments, computed once per session."""
    return _mp_moments(*_mp_pair(case))


def _mp_gap(case, law):
    """Largest gap between ``law``'s moments and the mpmath ones."""
    return max(abs(x - y) for x, y in zip(law(*_mp_pair(case)), _mp_reference(case)))


# (source, h, w) of each chain case: the law's own sources, at a w each
CHAIN_CASES = [("dsbs", 0, 300), ("2x2a", 1, 5000), ("2x2b", 2, 25000)]


def _chain_z(case, law):
    """Largest gap, in standard errors, between the chain's estimates and the
    law's moments."""
    source, h, w = case
    d = LAW_SOURCES[source]
    f, g = _lifted_pair(d, h, w, h)
    mc = estimate_strategy_stats(f, g, d, 2 * 10**5, seed=w, mode="monte_carlo")
    exact = law(f, g, d)
    return max(abs(getattr(mc, est) - x) / getattr(mc, se)
               for (est, se), x in zip(ESTIMATES, exact))


def _grid_cells(f, dist):
    """Wk * Wj, the cells of the law's grid (``_law_grid``)."""
    klo, khi, wj = rounding._law_grid(f, dist)
    return (khi - klo + 1) * wj


class TestLiftedLaw:
    """Two lifts of equal h and w on a source with two atoms per side: the
    law of the suffix counts gives their exact moments, which ``auto`` takes
    wherever its grid costs less than the binomial chain's draws."""

    @pytest.mark.parametrize("h", [0, 1, 2])
    @pytest.mark.parametrize("source", sorted(LAW_SOURCES))
    def test_matches_exact_enumeration(self, source, h):
        assert _enumeration_gap(LAW_SOURCES[source], h) <= 1e-12

    @pytest.mark.parametrize("case", MP_CASES, ids=lambda c: f"{c[0]}-h{c[1]}-w{c[2]}")
    def test_matches_an_mpmath_double_sum(self, case):
        assert _mp_gap(case, rounding._lifted_law) <= 1e-12

    @pytest.mark.parametrize("case", CHAIN_CASES, ids=lambda c: f"{c[0]}-h{c[1]}-w{c[2]}")
    def test_chain_lies_within_four_standard_errors(self, case):
        assert _chain_z(case, rounding._lifted_law) <= 4.0

    def test_a_broken_law_fails_each_check(self, monkeypatch):
        # p(y | x) replaced by the column marginal: the moments of a pair of
        # independent suffixes
        monkeypatch.setattr(rounding, "_suffix_probabilities", _broken_suffix_probabilities)
        for source in LAW_SOURCES:
            assert _enumeration_gap(LAW_SOURCES[source], 1) > 1e-6, source
        for case in MP_CASES:
            assert _mp_gap(case, rounding._lifted_law) > 1e-6, case
        for case in CHAIN_CASES:
            assert _chain_z(case, rounding._lifted_law) > 4.0, case

    def test_auto_takes_the_law_up_to_the_chain_draws(self):
        d = LAW_SOURCES["2x2a"]
        f, g = _lifted_pair(d, 1, 3000, 5)
        cells = _grid_cells(f, d)
        # a 2x2 chain draws 3 binomials per sample
        n = -(-cells // 3)
        law = estimate_strategy_stats(f, g, d, n)
        assert law.mode == "exact" and law.n_samples == 0 and law.stderr_corr == 0.0
        assert (law.mean_f, law.mean_g, law.corr_fg) == rounding._lifted_law(f, g, d)
        assert estimate_strategy_stats(f, g, d, n - 1).mode == "lifted_monte_carlo"
        assert estimate_strategy_stats(f, g, d, n, mode="monte_carlo").mode == "lifted_monte_carlo"

    def test_auto_keeps_the_law_within_the_cell_cap(self, monkeypatch):
        d = LAW_SOURCES["2x2a"]
        f, g = _lifted_pair(d, 1, 3000, 5)
        cells = _grid_cells(f, d)
        monkeypatch.setattr(rounding, "CELL_CAP", cells - 1)
        assert estimate_strategy_stats(f, g, d, cells).mode == "lifted_monte_carlo"

    def test_exact_mode_takes_the_law_up_to_the_cell_cap(self):
        d = LAW_SOURCES["dsbs"]
        f, g = gaussian_simulator_strategy(d, 0.1, 10**4)
        assert _grid_cells(f, d) <= 10**8
        stats = estimate_strategy_stats(f, g, d, mode="exact")
        assert stats.mode == "exact"
        assert (stats.mean_f, stats.mean_g, stats.corr_fg) == rounding.exact_moments(f, g, d)
        f, g = gaussian_simulator_strategy(d, 0.1, 10**7)
        assert _grid_cells(f, d) > 10**8
        with pytest.raises(ParameterRangeError, match=r"4\^10000000 cells"):
            estimate_strategy_stats(f, g, d, mode="exact")

    def test_other_pairs_keep_monte_carlo(self):
        # unequal prefixes (the generic sampler); three atoms per side
        d = LAW_SOURCES["dsbs"]
        f, _ = _lifted_pair(d, 1, 300, 0, (1, 1))
        _, g = _lifted_pair(d, 0, 301, 0, (1, 1))
        assert estimate_strategy_stats(f, g, d, 1000).mode == "monte_carlo"
        d = _seeded_3x3()
        f, g = _lifted_pair(d, 0, 300, 0)
        assert estimate_strategy_stats(f, g, d, 10**6).mode == "lifted_monte_carlo"


def _relative_entropy(x, p):
    """D(x || p), the binary relative entropy, in mpmath."""
    def term(a, b):
        return 0 if a == 0 else mpmath.inf if b == 0 else a * mpmath.log(a / b)
    return term(x, p) + term(1 - x, 1 - p)


class TestLawWindows:
    """Each binomial the law keeps on its ``_lower_edges`` window: the window
    holds the mode, and each tail it leaves out holds at most e^-45."""

    @pytest.mark.parametrize("n", [1, 45, 10**3, 10**6, 2**40])
    @pytest.mark.parametrize("p", [0.0, 1.0, 1e-9, 0.05, 0.5, 1 - 1e-9])
    def test_each_dropped_tail_holds_at_most_e_to_the_minus_45(self, p, n):
        mpmath.mp.dps = 30
        # the lowest count kept, and through the mirror the highest
        for p_side in (p, 1.0 - p):
            lo, mirror = (int(v) for v in rounding._lower_edges([n, n], [p_side, 1.0 - p_side]))
            mode = min(n, math.floor((n + 1) * fractions.Fraction(p_side)))
            assert lo <= mode <= n - mirror
            if lo == 0:
                continue
            q = mpmath.mpf(p_side)
            assert n * _relative_entropy(mpmath.mpf(lo - 1) / n, q) >= 45 * (1 - 1e-9)
            if n <= 10**4:
                tail = mpmath.fsum(mpmath.binomial(n, j) * q**j * (1 - q) ** (n - j)
                                   for j in range(lo))
                assert tail <= mpmath.exp(-45)


def _route_cap_pair(monkeypatch):
    """A 2x2 lift whose law's grid exceeds a cell cap patched to 10^4."""
    d = LAW_SOURCES["2x2a"]
    f, g = _lifted_pair(d, 1, 300, 5)
    monkeypatch.setattr(rounding, "CELL_CAP", 10**4)
    assert _grid_cells(f, d) > 10**4
    return f, g, d


def _route_law_pair(w, below):
    """A 2x2 lift whose law's grid lies ``below`` (or above) 3 * ROUTE_SAMPLES
    cells, the draws of the binomial chain."""
    d = LAW_SOURCES["2x2a"]
    f, g = _lifted_pair(d, 1, w, 5)
    assert (_grid_cells(f, d) <= 3 * ROUTE_SAMPLES) == below
    return f, g, d


def _route_unequal_h_pair(_monkeypatch):
    d = LAW_SOURCES["dsbs"]
    f, _ = _lifted_pair(d, 1, 300, 0)
    _, g = _lifted_pair(d, 0, 301, 0)
    return f, g, d


ROUTE_SAMPLES = 2000
RANDOMIZED_ERROR = (InputError, "exact enumeration is undefined for randomized strategies")


def _cap_error(base, n, cap=10**8):
    return (ParameterRangeError, f"exact enumeration needs {base}^{n} cells, above the cap {cap}")


# pair kind: (builder given monkeypatch, the route of mode auto, exact and
# monte_carlo: the result's mode string or the (type, message) raised)
ROUTES = {
    "table": (lambda mp: _table_pair(), "exact", "exact", "monte_carlo"),
    "rng_rounded_table": (lambda mp: _rounded_pair(), "monte_carlo", RANDOMIZED_ERROR,
                          "monte_carlo"),
    "small_lift": (lambda mp: (*_lifted_pair(LAW_SOURCES["2x2a"], 1, 3, 5), LAW_SOURCES["2x2a"]),
                   "exact", "exact", "lifted_monte_carlo"),
    "lift_below_chain": (lambda mp: _route_law_pair(84, True), "exact", "exact",
                         "lifted_monte_carlo"),
    "lift_above_chain": (lambda mp: _route_law_pair(88, False), "lifted_monte_carlo", "exact",
                         "lifted_monte_carlo"),
    "lift_past_cap": (_route_cap_pair, "lifted_monte_carlo", _cap_error(4, 301, 10**4),
                      "lifted_monte_carlo"),
    "lift_3x3": (lambda mp: (*_lifted_pair(_seeded_3x3(), 0, 300, 0), _seeded_3x3()),
                 "lifted_monte_carlo", _cap_error(9, 300), "lifted_monte_carlo"),
    "lifts_of_unequal_h": (_route_unequal_h_pair, "monte_carlo", _cap_error(4, 301),
                           "monte_carlo"),
}


@pytest.mark.parametrize("mode", ["auto", "exact", "monte_carlo"])
@pytest.mark.parametrize("kind", sorted(ROUTES))
def test_route_matrix(kind, mode, monkeypatch):
    build, *routes = ROUTES[kind]
    f, g, d = build(monkeypatch)
    route = dict(zip(("auto", "exact", "monte_carlo"), routes))[mode]
    if isinstance(route, str):
        assert estimate_strategy_stats(f, g, d, ROUTE_SAMPLES, seed=3, mode=mode).mode == route
        return
    with pytest.raises(route[0]) as err:
        estimate_strategy_stats(f, g, d, ROUTE_SAMPLES, seed=3, mode=mode)
    assert type(err.value) is route[0] and str(err.value) == route[1]


class TestChunkWorkingSet:
    """Beyond the arrays with an entry per row (index rows, prefix keys,
    output values, and the lifted chunk's counts and witness sums), a
    chunk's temporaries come in row blocks of ``SCRATCH_CELLS`` cells, so
    one chunk's traced peak stays within a fixed budget at every chunk size
    up to ``MC_CHUNK_SAMPLES``."""

    @pytest.mark.parametrize("rows", [2**14, C])
    def test_generic_chunk(self, rows):
        n = 16
        rng = np.random.default_rng(3)
        f = TableStrategy(DSBS5.row_space, n, np.sign(rng.uniform(-1, 1, 2**n)))
        g = TableStrategy(DSBS5.col_space, n, np.sign(rng.uniform(-1, 1, 2**n)))
        peak = traced_peak(lambda: estimate_strategy_stats(f, g, DSBS5, rows, mode="monte_carlo"))
        # two uint8 index rows and a few arrays of 8 bytes per sample; a block's
        # uniforms and their comparison mask
        assert peak <= rows * (2 * n + 6 * 8) + 2 * SCRATCH_CELLS * 8

    @pytest.mark.parametrize("rows", [2**14, C])
    def test_lifted_chunk(self, rows):
        d = uniform_triple()
        h = 2
        f, g = _lifted_pair(d, h, 300, 4)
        peak = traced_peak(lambda: estimate_strategy_stats(f, g, d, rows, mode="monte_carlo"))
        # two uint8 prefix rows and two int64 prefix keys per sample; the int64
        # row and column counts of the two atoms per side, a drawn cell, and
        # the witness sums and outputs
        assert peak <= rows * (2 * h + 2 * 8) + 4 * SCRATCH_CELLS * 8


class TestSimulatorContracts:
    def test_means_near_targets(self):
        w = berry_esseen_sample_count(0.5, 0.125, 0.4)
        f, g = gaussian_simulator_strategy(DSBS5, (0.3, -0.2), w)
        stats = estimate_strategy_stats(f, g, DSBS5, n_samples=2 * 10**5, seed=11)
        assert abs(stats.mean_f - 0.3) <= 0.2 + 3 * stats.stderr_mean_f
        assert abs(stats.mean_g + 0.2) <= 0.2 + 3 * stats.stderr_mean_g

    def test_correlation_near_gamma_bar(self):
        d = make_dsbs(0.6)
        f, g = gaussian_simulator_strategy(d, 0.0, 10**4)
        stats = estimate_strategy_stats(f, g, d, n_samples=2 * 10**5, seed=13)
        expected = 2 * math.asin(0.6) / math.pi
        assert abs(stats.corr_fg - expected) <= 0.02

    def test_balanced_lift_near_one_third(self):
        h = HybridStrategy(DSBS5.row_space, 0, [0.0])
        f3 = lift_hybrid(h, DSBS5, 4800, side="row")
        g3 = lift_hybrid(HybridStrategy(DSBS5.col_space, 0, [0.0]), DSBS5, 4800, side="col")
        stats = estimate_strategy_stats(f3, g3, DSBS5, n_samples=3 * 10**5, seed=17)
        assert abs(stats.corr_fg - 1 / 3) <= 0.05

    def test_polarity_flip_reaches_gamma_under(self):
        # the antipodal form targets mean nu by flipping a base strategy of
        # mean -nu, and the pair correlation lands near the minimizing value
        d = make_dsbs(0.5)
        f, g = gaussian_simulator_strategy(d, (0.2, -0.3), 4000, polarity=(1, -1))
        stats = estimate_strategy_stats(f, g, d, n_samples=2 * 10**5, seed=19)
        expected = gamma_under(0.5, 0.2, 0.3)
        assert abs(stats.corr_fg - expected) <= 0.06
        assert abs(stats.mean_g - 0.3) <= 0.05

    def test_lifted_mean_tracks_hybrid_mean(self):
        # the lifted strategy's mean stays near the hybrid's exact mean
        # (expectation of the prefix-conditional means) once w is large
        inner = np.array([-0.6, 0.9])
        h = HybridStrategy(DSBS5.row_space, 1, inner)
        expected = float(DSBS5.row_space.probs @ h.derived_means())
        lifted = lift_hybrid(h, DSBS5, 400, side="row")
        g3 = lift_hybrid(HybridStrategy(DSBS5.col_space, 1, inner), DSBS5, 400, "col")
        stats = estimate_strategy_stats(lifted, g3, DSBS5, n_samples=10**5, seed=29,
                                        mode="monte_carlo")
        zeta = math.sqrt(1.5 / (0.125 * 0.125 * 400))  # accuracy the count affords
        assert abs(stats.mean_f - expected) <= zeta / 2 + 3 * stats.stderr_mean_f

    def test_prefix_dependent_lift(self):
        # prefix picks different means on each branch; exact enumeration at
        # tiny w against the conditional stability values
        inner = np.array([-0.8, 1.1])
        hf = HybridStrategy(DSBS5.row_space, 1, inner)
        hg = HybridStrategy(DSBS5.col_space, 1, inner)
        w = 8
        f3 = lift_hybrid(hf, DSBS5, w, side="row")
        g3 = lift_hybrid(hg, DSBS5, w, side="col")
        stats = estimate_strategy_stats(f3, g3, DSBS5, mode="exact")
        mc = estimate_strategy_stats(f3, g3, DSBS5, n_samples=2 * 10**5, seed=23,
                                     mode="monte_carlo")
        assert abs(stats.corr_fg - mc.corr_fg) <= 4 * mc.stderr_corr
