"""Decision layer: grids, the parameter chain, search vs oracle, rounding,
and verdict soundness."""

import itertools
import math

import numpy as np
import pytest

from nisim import (
    ChainConstants,
    JointDistribution,
    InputError,
    NisimError,
    ParameterRangeError,
    ResourceLimitError,
    TableStrategy,
    Target2x2,
    alpha_component_graph,
    brute_force_bmip,
    constant_strategy,
    decide_2x2,
    decide_gap_nis,
    discretize_range,
    estimate_strategy_stats,
    make_dsbs,
    maximal_correlation,
    n0_chain,
    oracle_max_balanced_ip,
    randomized_round,
    round_pair,
    tv_distance,
    uniform_triple,
)
from nisim import (
    FiniteSpace,
    FourierPolynomial,
    build_basis,
    gaussian_simulator_strategy,
    inverse_transform,
    restriction_regular_probability,
    tensor_power,
)
from nisim import decision
from nisim.decision import (
    ACCEPT_TOL, _alternate, _box_lp_max, _correlation_ceiling, _search_one_level,
    _tensor_weights,
)
from nisim.strategies import strategy_from_json_dict
from nisim.util import all_assignments, power_exceeds

TRIPLE = uniform_triple()
THREE = FiniteSpace(["a", "b", "c"], [0.2, 0.3, 0.5])
COARSE = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


def random_joint(rng, qa, qb):
    t = rng.random((qa, qb)) ** 2 + 0.02
    return JointDistribution(
        [f"a{i}" for i in range(qa)], [f"b{j}" for j in range(qb)], t / t.sum()
    )


class TestDiscretizeRange:
    def test_unit_budget_gives_19_values(self):
        grid = discretize_range(1.0)
        assert len(grid) == 19
        assert grid[0] == pytest.approx(-0.9)
        assert grid[-1] == pytest.approx(0.9)

    def test_zero_always_present(self):
        for delta in (1.0, 0.5, 0.31, 0.07):
            assert 0.0 in discretize_range(delta)

    def test_symmetric(self):
        for delta in (1.0, 0.45, 0.2):
            grid = discretize_range(delta)
            assert np.allclose(grid, -grid[::-1])

    def test_strictly_inside_unit_interval(self):
        for delta in (1.0, 0.6, 0.3):
            grid = discretize_range(delta)
            assert np.abs(grid).max() < 1.0

    def test_spacing(self):
        grid = discretize_range(0.5)
        assert np.allclose(np.diff(grid), 0.025)

    def test_oversized_grid_raises_before_allocating(self, monkeypatch):
        monkeypatch.setattr(decision.np, "arange", lambda *a, **k: pytest.fail("allocated"))
        for delta in (0.00001, 0.0003, 1e-170):
            with pytest.raises(ResourceLimitError, match="memory cap"):
                discretize_range(delta)

    def test_memory_cap_boundary_is_exact(self, monkeypatch):
        size = len(discretize_range(0.1))
        monkeypatch.setattr(decision, "SIDE_MEM_CAP", size)
        assert len(discretize_range(0.1)) == size
        monkeypatch.setattr(decision, "SIDE_MEM_CAP", size - 1)
        with pytest.raises(ResourceLimitError):
            discretize_range(0.1)

    def test_paper_grid_deltas_unaffected(self):
        for delta, size in ((0.02, 49999), (0.05, 7999), (0.1, 1999)):
            k_max = (size - 1) // 2
            expected = delta * delta / 10.0 * np.arange(-k_max, k_max + 1)
            assert np.array_equal(discretize_range(delta), expected)


class TestParameterChain:
    def test_frozen_regression_triple(self):
        # values derived by an independent high-precision evaluation of the
        # chain formulas before this implementation existed
        chain = n0_chain(TRIPLE, 0.2)
        assert chain.rho == pytest.approx(0.5, abs=1e-12)
        assert chain.alpha == pytest.approx(1 / 3, abs=1e-12)
        assert chain.k_tau == 90
        assert chain.d == 49898
        assert chain.w == 8100
        assert chain.h_log10 == pytest.approx(199213.49815178497, abs=1e-6)
        assert chain.n0_log10 == pytest.approx(199213.49815178497, abs=1e-6)
        assert chain.n0_int is None
        assert chain.smoothing.gamma == pytest.approx(0.9950997649367466, abs=1e-12)

    def test_w_component_worked_example(self):
        # triple at delta = 0.3: zeta = 0.1, rho = 1/2, alpha = 1/3
        assert n0_chain(TRIPLE, 0.3).w == 3600

    def test_budget_split(self):
        chain = n0_chain(TRIPLE, 0.27)
        assert chain.lam == chain.gamma_budget == chain.zeta == pytest.approx(0.09)

    def test_monotone_in_delta(self):
        logs = [n0_chain(TRIPLE, d).n0_log10 for d in (0.5, 0.4, 0.3, 0.2, 0.1)]
        assert all(b >= a for a, b in zip(logs, logs[1:]))

    def test_monotone_in_rho(self):
        logs = [
            n0_chain(make_dsbs(r), 0.3).n0_log10 for r in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b >= a for a, b in zip(logs, logs[1:]))

    def test_monotone_in_alpha(self):
        # splitting a row atom into proportional copies keeps the maximal
        # correlation exactly while shrinking the minimum atom probability
        def split(eps):
            base = make_dsbs(0.4).table
            t = np.vstack([base[0] * (1 - eps), base[0] * eps, base[1]])
            return JointDistribution(["a", "a2", "b"], ["x", "y"], t)

        rhos = [maximal_correlation(split(e)).rho for e in (0.2, 0.01)]
        assert rhos[0] == pytest.approx(rhos[1], abs=1e-12)
        logs = [n0_chain(split(e), 0.3).n0_log10 for e in (0.2, 0.05, 0.01, 0.001)]
        assert all(b >= a for a, b in zip(logs, logs[1:]))

    def test_evaluates_over_grid_without_error(self):
        for delta in (0.7, 0.4, 0.2, 0.08, 0.02):
            for dist in (TRIPLE, make_dsbs(0.45), make_dsbs(0.9)):
                chain = n0_chain(dist, delta)
                assert chain.n0_log10 > 0
                assert chain.w >= 1

    def test_perfect_correlation_undefined(self):
        with pytest.raises(ParameterRangeError, match="correlation 1"):
            n0_chain(alpha_component_graph(0.25), 0.2)

    def test_constants_scale_w(self):
        base = n0_chain(TRIPLE, 0.3).w
        doubled = n0_chain(TRIPLE, 0.3, ChainConstants(C_be=2.0)).w
        assert doubled == 2 * base

    def test_small_h_is_an_exact_integer_sum(self):
        # h < 2^42: h and n0 are exact integers, and h_log10 is read from h
        chain = n0_chain(TRIPLE, 0.5, ChainConstants(C_smooth=1000, C_tau=0.001))
        assert chain.h_int == chain.reg_row.h_bound + chain.reg_col.h_bound == 3496
        assert chain.w == 1296
        assert chain.n0_int == chain.h_int + chain.w == 4792
        assert chain.h_log10 == pytest.approx(math.log10(chain.h_int), abs=1e-12)

    @pytest.mark.parametrize(
        "delta, constants, names",
        [
            (1e-155, {}, "accuracy.*delta"),  # w's zeta^2 is subnormal, w overflows
            (1e-200, {}, "accuracy.*delta"),  # zeta^2 underflows to 0
            (5e-324, {}, "delta"),  # delta / 3 underflows to 0
            (0.3, {"C_tau": 1e308}, "delta.*C_tau"),  # the influence exponent overflows
            (0.3, {"C_tau": 1e302}, "delta.*C_tau"),  # log n0 overflows
            (0.3, {"C_be": 1e308}, "C_be"),
        ],
    )
    def test_counts_beyond_float_range_name_the_input(self, delta, constants, names):
        with pytest.raises(ParameterRangeError, match=names):
            n0_chain(TRIPLE, delta, ChainConstants(**constants))


def log_space_exceeds_work_cap(grid_size, width):
    """The log-space work-cap rule ``power_exceeds`` replaced, kept as its reference."""
    if grid_size < 2:
        return False
    log_pairs = width * math.log(grid_size)
    log_cap = math.log(decision.WORK_CAP)
    if abs(log_pairs - log_cap) > 1e-9 * log_cap:
        return log_pairs > log_cap
    return grid_size**width > decision.WORK_CAP


class TestWorkCap:
    @pytest.mark.parametrize(
        "grid_size, width, exceeds",
        [(10, 8, False), (10, 9, True), (2, 26, False), (2, 27, True), (49_999, 72, True)],
    )
    def test_boundaries(self, grid_size, width, exceeds):
        assert decision.WORK_CAP == 10**8
        assert power_exceeds(grid_size, width, decision.WORK_CAP) is exceeds

    def test_empty_and_one_value_grids_never_exceed(self):
        for grid_size in (0, 1):
            for width in (0, 1, 26, 27, 72, 10**6):
                assert not power_exceeds(grid_size, width, decision.WORK_CAP)

    def test_matches_the_log_space_rule(self):
        # every grid near the width-th root of the cap, where the rules could part
        pairs = [(g, w) for g in range(200) for w in range(40)]
        for width in range(1, 30):
            root = round(decision.WORK_CAP ** (1.0 / width))
            pairs += [(g, width) for g in range(max(0, root - 50), root + 50)]
        pairs += [(49_999, w) for w in range(80)]
        for grid_size, width in pairs:
            assert power_exceeds(grid_size, width, decision.WORK_CAP) == (
                log_space_exceeds_work_cap(grid_size, width)
            ), (grid_size, width)

    # 4^10000 and 3^10000 have more digits than Python prints as an int
    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: tensor_power(make_dsbs(0.5), 10**4), ResourceLimitError, r"4\^10000"),
            (lambda: brute_force_bmip(make_dsbs(0.5), 10**4, 0.5, 0.5, (0.1, 0.1)),
             ResourceLimitError, r"4\^10000"),
            (lambda: oracle_max_balanced_ip(make_dsbs(0.5), 10**4, (0.1, 0.1)),
             ResourceLimitError, r"4\^10000"),
            (lambda: inverse_transform(FourierPolynomial(build_basis(THREE), 10**4, {})),
             ResourceLimitError, r"3\^10000"),
            (lambda: TableStrategy(THREE, 10**4, [1.0]), InputError, r"3\^10000"),
            (lambda: estimate_strategy_stats(
                *gaussian_simulator_strategy(make_dsbs(0.5), 0.0, 10**4), make_dsbs(0.5),
                mode="exact"), ParameterRangeError, r"4\^10000"),
            (lambda: restriction_regular_probability(
                FourierPolynomial(build_basis(THREE), 10**4, {}), range(10**4), 0.1),
             ParameterRangeError, r"3\^10000"),
            (lambda: strategy_from_json_dict(
                {"n": 10**4, "space": {"atoms": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]},
                 "values": [1.0]}), InputError, "too large"),
        ],
        ids=["tensor_power", "brute_force_bmip", "oracle", "inverse_transform",
             "TableStrategy", "exact_stats", "restriction_probability", "function_json"],
    )
    def test_entry_points_refuse_huge_powers(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestBruteForce:
    def test_triple_quarter_witness(self):
        res = brute_force_bmip(
            TRIPLE, 1, rho_target=0.25, delta=0.05, mean_caps=(0.0, 0.0),
            grid=COARSE, mean_slack=0.0, corr_slack=0.0,
        )
        assert res.accept
        assert res.best_value == pytest.approx(0.25, abs=1e-9)
        assert abs(res.mean_f) < 1e-12 and abs(res.mean_g) < 1e-12
        got = {tuple(res.f_values), tuple(res.g_values)}
        assert got == {(0.5, -1.0), (-0.5, 1.0)}

    def test_triple_rejects_point_three(self):
        res = brute_force_bmip(
            TRIPLE, 1, rho_target=0.3, delta=0.05, mean_caps=(0.0, 0.0),
            grid=COARSE, mean_slack=0.0, corr_slack=0.0,
        )
        assert not res.accept
        assert res.best_value == pytest.approx(0.25, abs=1e-9)

    def test_dsbs_dictator_accept(self):
        for rho in (0.3, 0.6):
            res = brute_force_bmip(
                make_dsbs(rho), 1, rho_target=rho, delta=0.2,
                mean_caps=(0.0, 0.0), grid=COARSE, mean_slack=0.0, corr_slack=1e-9,
            )
            assert res.accept
            assert res.best_value == pytest.approx(rho, abs=1e-12)

    def test_deterministic(self):
        a = brute_force_bmip(TRIPLE, 1, 0.2, 0.5, (0.3, 0.3))
        b = brute_force_bmip(TRIPLE, 1, 0.2, 0.5, (0.3, 0.3))
        assert a.best_value == b.best_value
        assert np.array_equal(a.f_values, b.f_values)

    def test_search_never_beats_oracle_upper_bound(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            dist = random_joint(rng, 2, 2)
            caps = (float(rng.uniform(0, 0.4)), float(rng.uniform(0, 0.4)))
            res = brute_force_bmip(
                dist, 1, rho_target=2.0, delta=0.6, mean_caps=caps
            )
            oracle = oracle_max_balanced_ip(dist, 1, caps, seed=1)
            grid_slack = 0.6**2 / 5  # value grid perturbs each mean and the product
            assert res.best_value <= oracle.upper_bound + 2 * grid_slack + 1e-9

    def test_matches_naive_reference_on_random_instances(self):
        # independent reference: plain nested loops over all grid pairs
        import itertools

        rng = np.random.default_rng(2025)
        grid = np.array([-0.8, -0.3, 0.2, 0.7])
        for trial in range(10):
            dist = random_joint(rng, 2, 2)
            caps = (float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.1, 0.6)))
            centers = (float(rng.uniform(-0.2, 0.2)), 0.0)
            slack = 0.05

            wa, wb = dist.row_space.probs, dist.col_space.probs
            best, best_pair = -np.inf, None
            for f in itertools.product(grid, repeat=2):
                if abs(np.dot(f, wa) - centers[0]) > caps[0] + slack + 1e-12:
                    continue
                for g in itertools.product(grid, repeat=2):
                    if abs(np.dot(g, wb) - centers[1]) > caps[1] + slack + 1e-12:
                        continue
                    v = float(np.asarray(f) @ dist.table @ np.asarray(g))
                    if v > best:
                        best, best_pair = v, (f, g)

            res = brute_force_bmip(
                dist, 1, rho_target=0.0, delta=0.4, mean_caps=caps,
                grid=grid, mean_centers=centers, mean_slack=slack,
                corr_slack=0.0,
            )
            if best_pair is None:
                assert not res.feasible_pairs
            else:
                assert res.best_value == pytest.approx(best, abs=1e-12)
                assert tuple(res.f_values) == best_pair[0]
                assert tuple(res.g_values) == best_pair[1]

    def test_paper_grid_overflow_falls_back_to_oracle(self):
        # 4x2 source at depth 3: ka + kb = 64 + 8 = 72, and 49,999 ** 72
        # overflows a float; the work cap must still be judged, not crash
        dist = random_joint(np.random.default_rng(5), 4, 2)
        with pytest.raises(ResourceLimitError):
            brute_force_bmip(dist, 3, 0.5, 0.02, (0.05, 0.05))
        res = _search_one_level(
            _tensor_weights(dist, 3), discretize_range(0.02), mean_caps=(0.05, 0.05),
            windows=[(0.0, 0.05 + 0.02**2 / 5 + ACCEPT_TOL)] * 2, floor=0.5 - 0.02**2 / 4,
        )
        assert res.mode == "oracle_probe"
        # no snapped pair has mean exactly 0, so the probe's pair fails its windows
        res = _search_one_level(
            _tensor_weights(dist, 3), discretize_range(0.02), mean_caps=(0.0, 0.0),
            windows=[(0.0, ACCEPT_TOL)] * 2, floor=0.5,
        )
        assert (res.mode, res.feasible_pairs, res.best_value) == ("oracle_probe", False, -math.inf)

    def test_infeasible_caps(self):
        res = brute_force_bmip(
            TRIPLE, 1, 0.1, 0.3, mean_caps=(0.0, 0.0),
            grid=np.array([-0.9, 0.9]), mean_slack=0.0, corr_slack=0.0,
        )
        assert not res.feasible_pairs
        assert not res.accept

    @pytest.mark.parametrize("grid, error", [
        ([-3.0, 0.0, 3.0], ParameterRangeError),
        ([-1.0, 0.0, 1.0 + 1e-12], ParameterRangeError),
        ([], InputError),
        ([[0.1, 0.2]], InputError),
        ([math.inf, 0.0], InputError),
        ([math.nan, 0.0], InputError),
        (["a", "b"], InputError),
    ])
    def test_caller_grid_must_be_finite_and_inside_the_box(self, grid, error):
        # [-3, 0, 3] once gave an ACCEPT with E[fg] = 0.9 > rho_0 = 0.5, flagged sound
        dsbs = make_dsbs(0.5)
        with pytest.raises(error, match="value grid"):
            decide_gap_nis(dsbs, 0.9, 0.3, 1, grid=grid)
        with pytest.raises(error, match="value grid"):
            decide_2x2(dsbs, Target2x2.from_dsbs(0.9), 0.3, 1, grid=grid)
        with pytest.raises(error, match="value grid"):
            brute_force_bmip(dsbs, 1, 0.9, 0.3, (0.1, 0.1), grid=grid)

    @pytest.mark.parametrize("first_rows", [1, decision._FIRST_VISIT_ROWS])
    def test_pruned_enumeration_breaks_exact_ties_like_full_enumeration(
        self, first_rows, monkeypatch
    ):
        """On dyadic inputs every product and sum is exact, so the bound-ordered
        search must return the full enumeration's first maximum bit for bit;
        the DSBS's sign-symmetric pairs make exact ties.  One-row first blocks
        put a stop test after almost every row; at both block sizes some first
        maximum (the skewed source's, among others) is visited in a later block
        than another maximum."""
        monkeypatch.setattr(decision, "_FIRST_VISIT_ROWS", first_rows)
        quarters = np.arange(-4, 5) / 4.0
        three_eighths = np.arange(-2, 3) * 3.0 / 8.0
        table32 = JointDistribution(
            ["a", "b", "c"], ["x", "y"], np.array([[1, 2], [2, 1], [1, 1]]) / 8.0
        )
        skew = JointDistribution(["a", "b"], ["x", "y"], [[0.25, 0.5], [0.0, 0.25]])
        cases = [
            (make_dsbs(0.5), 1, quarters), (make_dsbs(0.5), 2, three_eighths),
            (make_dsbs(0.25), 1, quarters), (make_dsbs(0.25), 2, three_eighths),
            (table32, 1, quarters), (table32, 2, np.array([-0.75, 0.0, 0.75])),
            (skew, 2, np.array([-1.0, 0.0, 1.0])),
        ]
        windows = [  # (caps, centers, mean slack)
            ((0.0, 0.0), (0.0, 0.0), 0.0),
            ((0.25, 0.125), (0.25, -0.125), 1 / 16),
            ((0.5, 0.5), (0.0, 0.0), 0.0),
            ((0.0, 0.125), (-0.5, 0.375), 1 / 32),
            ((0.5, 0.5), (0.25, -0.25), 0.0),
        ]

        def visit_block(rows, C, wb, caps, centers, slack):
            # the block of bound-ordered visits holding each f row (blocks double in size)
            cap = caps[1] + slack + decision.ACCEPT_TOL
            order = np.argsort(-_box_lp_max(C, wb, cap, centers[1])[1], kind="stable")
            block = np.log2(np.argsort(order) // first_rows + 1).astype(int)
            return block[rows]

        tied = spread = 0
        for (dist, n, grid), (caps, centers, slack) in itertools.product(cases, windows):
            W, wa, wb = _tensor_weights(dist, n)
            F = np.array(list(itertools.product(grid, repeat=W.shape[0])))
            G = np.array(list(itertools.product(grid, repeat=W.shape[1])))
            F = F[np.abs(F @ wa - centers[0]) <= caps[0] + slack + decision.ACCEPT_TOL]
            G = G[np.abs(G @ wb - centers[1]) <= caps[1] + slack + decision.ACCEPT_TOL]
            res = brute_force_bmip(
                dist, n, rho_target=0.0, delta=0.5, mean_caps=caps, grid=grid,
                mean_centers=centers, mean_slack=slack, corr_slack=0.0,
            )
            if len(F) == 0 or len(G) == 0:
                assert not res.feasible_pairs
                continue
            vals = (F @ W) @ G.T
            i, j = np.unravel_index(np.argmax(vals), vals.shape)
            tied += int(np.sum(vals == vals[i, j]) > 1)
            # the first maximum visited in a later block than another maximum
            blocks = visit_block(np.flatnonzero((vals == vals[i, j]).any(axis=1)), F @ W, wb,
                                 caps, centers, slack)
            spread += int(blocks[0] > blocks.min())
            assert res.best_value == vals[i, j]
            assert np.array_equal(res.f_values, F[i]) and np.array_equal(res.g_values, G[j])
        assert tied >= 10
        assert spread >= 1


def reference_alternate(weights, mean_caps, centers, seed=0):
    """The alternation one start at a time, the reference for the lockstep
    batch: same starts, stopping rule and winner scan."""
    W, wa, wb = weights
    ka, kb = W.shape
    rng = np.random.default_rng(seed)
    if ka <= decision.ORACLE_VERTEX_START_CAP:
        vertices = all_assignments(2, ka) * 2.0 - 1.0
    else:
        vertices = np.empty((0, ka))
    starts = np.vstack([vertices, rng.uniform(-1.0, 1.0, size=(decision.ORACLE_RANDOM_STARTS, ka))])
    best_val, best_f, best_g = -math.inf, np.zeros(ka), np.zeros(kb)
    for f in starts:
        val = -math.inf
        for _ in range(decision.ORACLE_MAX_ROUNDS):
            g, _ = _box_lp_max(f @ W, wb, mean_caps[1], centers[1])
            f, _ = _box_lp_max(W @ g, wa, mean_caps[0], centers[0])
            new_val = float(f @ W @ g)
            if new_val <= val + 1e-12:
                val = max(val, new_val)
                break
            val = new_val
        if val > best_val + 1e-12:
            best_val, best_f, best_g = val, f.copy(), g.copy()
    return best_val, best_f, best_g


def linprog_box_max(w, m, cap, center):
    """Independent reference for the box LP: scipy's HiGHS solver."""
    from scipy.optimize import linprog

    res = linprog(
        -w, A_ub=np.vstack([m, -m]), b_ub=[center + cap, cap - center],
        bounds=[(-1.0, 1.0)] * len(w), method="highs",
    )
    return -res.fun if res.success else None


class TestBoxLp:
    def check_row(self, w, m, cap, center, g, value):
        ref = linprog_box_max(w, m, cap, center)
        assert ref is not None
        assert value == pytest.approx(ref, abs=1e-12)
        assert value == pytest.approx(float(w @ g), abs=1e-12)
        assert np.all(np.abs(g) <= 1.0)
        assert abs(m @ g - center) <= cap + 1e-12
        # a vertex of the box-slab polytope: at most one coordinate strictly inside
        assert np.sum(np.abs(np.abs(g) - 1.0) > 1e-12) <= 1

    def test_matches_linprog_on_random_cases(self):
        rng = np.random.default_rng(4242)
        for trial in range(300):
            k = int(rng.integers(1, 10))
            w = rng.normal(size=k)
            if trial % 3 == 0:
                w[rng.random(k) < 0.4] = 0.0
            m = rng.dirichlet(np.ones(k))
            center = float(rng.uniform(-0.9, 0.9))
            cap = 0.0 if trial % 5 == 0 else float(rng.uniform(0.0, 0.5))
            g, value = _box_lp_max(w, m, cap, center)
            self.check_row(w, m, cap, center, g, value)

    def test_window_touching_the_edges(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            w, m = rng.normal(size=k), rng.dirichlet(np.ones(k))
            for center, cap in ((0.8, 0.2), (-0.8, 0.2), (1.1, 0.1), (-1.25, 0.25)):
                g, value = _box_lp_max(w, m, cap, center)
                self.check_row(w, m, cap, center, g, value)
        # the window meets the reachable range in one point, m.g = 1
        g, _ = _box_lp_max(np.array([-1.0, 2.0]), np.array([0.5, 0.5]), 0.0, 1.0)
        assert np.array_equal(g, [1.0, 1.0])

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(99)
        m = rng.dirichlet(np.ones(6))
        rows = rng.normal(size=(40, 6))
        rows[::4] = 0.0
        rows[1::4, :3] = 0.0
        G, values = _box_lp_max(rows, m, 0.05, 0.1)
        assert G.shape == rows.shape and values.shape == (40,)
        for w, g, value in zip(rows, G, values):
            self.check_row(w, m, 0.05, 0.1, g, value)
            _, single = _box_lp_max(w, m, 0.05, 0.1)
            assert value == pytest.approx(single, abs=1e-12)

    def test_empty_window_raises(self):
        m = np.array([0.25, 0.75])
        w = np.array([1.0, -1.0])
        for cap, center in ((0.1, 1.5), (0.1, -1.5), (-0.1, 0.0)):
            assert linprog_box_max(w, m, cap, center) is None
            with pytest.raises(NisimError):
                _box_lp_max(w, m, cap, center)


class TestOracle:
    def test_triple_quarter(self):
        o = oracle_max_balanced_ip(TRIPLE, 1, (0.0, 0.0))
        assert o.value == pytest.approx(0.25, abs=1e-9)
        assert o.heuristic
        assert o.upper_bound >= o.value - 1e-9

    def test_caps_off_reaches_one(self):
        o = oracle_max_balanced_ip(TRIPLE, 1, (2.0, 2.0))
        assert o.value == pytest.approx(1.0, abs=1e-9)

    def test_dsbs_half(self):
        o = oracle_max_balanced_ip(make_dsbs(0.5), 1, (0.0, 0.0))
        assert o.value == pytest.approx(0.5, abs=1e-9)
        assert o.upper_bound == pytest.approx(0.5, abs=1e-6)

    def test_witness_feasible(self):
        o = oracle_max_balanced_ip(TRIPLE, 1, (0.1, 0.1), seed=5)
        wa = TRIPLE.row_space.probs
        assert abs(o.f_values @ wa) <= 0.1 + 1e-9
        assert np.all(np.abs(o.f_values) <= 1 + 1e-12)

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_depth_raises_on_both_frames(self, n):
        # the oracle once searched zero coordinates and returned 0.01
        dsbs = make_dsbs(0.5)
        with pytest.raises(ParameterRangeError, match="power must be positive"):
            oracle_max_balanced_ip(dsbs, n, (0.1, 0.1))
        with pytest.raises(ParameterRangeError, match="power must be positive"):
            brute_force_bmip(dsbs, n, 0.5, 0.3, (0.1, 0.1))

    def test_lockstep_alternation_matches_per_start_reference(self):
        # the 4x2 source at depth 2 has ka = 16 > ORACLE_VERTEX_START_CAP: random starts only
        rng = np.random.default_rng(1234)
        for qa, qb in ((2, 2), (3, 3), (4, 2)):
            dist = random_joint(rng, qa, qb)
            for n in (1, 2, 3):
                weights = W, wa, wb = _tensor_weights(dist, n)
                caps = (float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 0.3)))
                centers = (float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3)))
                seed = int(rng.integers(100))
                value, f, g = _alternate(weights, caps, centers, seed)
                ref, _, _ = reference_alternate(weights, caps, centers, seed)
                assert value == pytest.approx(ref, abs=1e-12), (qa, qb, n)
                assert value == pytest.approx(float(f @ W @ g), abs=1e-12)
                assert np.all(np.abs(f) <= 1.0) and np.all(np.abs(g) <= 1.0)
                assert abs(f @ wa - centers[0]) <= caps[0] + 1e-12
                assert abs(g @ wb - centers[1]) <= caps[1] + 1e-12


class TestRandomizedRound:
    def test_constant_one(self):
        f = constant_strategy(TRIPLE.row_space, 1, 1.0)
        r = randomized_round(f, seed=1)
        idx = np.zeros((50, 1), dtype=int)
        assert np.all(r.evaluate(idx) == 1.0)

    def test_zero_function_is_fair_coin(self):
        f = constant_strategy(TRIPLE.row_space, 1, 0.0)
        r = randomized_round(f, seed=2)
        idx = np.zeros((200000, 1), dtype=int)
        assert abs(np.mean(r.evaluate(idx))) < 0.01

    def test_moments_preserved_rng_mode(self):
        d = TRIPLE
        f = TableStrategy(d.row_space, 1, [0.5, -1.0])
        g = TableStrategy(d.col_space, 1, [-0.5, 1.0])
        fr, gr = round_pair(f, g, mode="rng", seed=21)
        stats = estimate_strategy_stats(fr, gr, d, n_samples=4 * 10**5, seed=3,
                                        mode="monte_carlo")
        assert abs(stats.mean_f - 0.0) <= 3 * stats.stderr_mean_f + 1e-3
        assert abs(stats.corr_fg - 0.25) <= 3 * stats.stderr_corr + 1e-3

    def test_moments_preserved_source_mode(self):
        d = TRIPLE
        f = TableStrategy(d.row_space, 1, [0.5, -1.0])
        g = TableStrategy(d.col_space, 1, [-0.5, 1.0])
        fr, gr = round_pair(f, g, mode="source", extra_coords=24, resolution=1e-3)
        assert fr.n == gr.n == 1 + 48
        stats = estimate_strategy_stats(fr, gr, d, n_samples=2 * 10**5, seed=4,
                                        mode="monte_carlo")
        assert abs(stats.corr_fg - 0.25) <= 3 * stats.stderr_corr + 5e-3

    def test_round_pair_rejects_unknown_mode(self):
        f = TableStrategy(TRIPLE.row_space, 1, [0.5, -1.0])
        g = TableStrategy(TRIPLE.col_space, 1, [-0.5, 1.0])
        with pytest.raises(InputError, match="unknown mode"):
            round_pair(f, g, mode="rgn", extra_coords=20, resolution=1e-3)

    def test_source_mode_deterministic_function(self):
        f = TableStrategy(TRIPLE.row_space, 1, [0.5, -1.0])
        r = randomized_round(f, mode="source", extra_coords=12, resolution=0.01)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 2, size=(300, r.n))
        assert np.array_equal(r.evaluate(idx), r.evaluate(idx))

    def test_source_mode_blocks_are_disjoint(self):
        # a party's output must depend only on its own coin block, which is
        # what makes the two parties' coins independent
        f = TableStrategy(TRIPLE.row_space, 1, [0.5, -1.0])
        r = randomized_round(f, mode="source", extra_coords=10, resolution=0.02)
        rng = np.random.default_rng(13)
        idx = rng.integers(0, 2, size=(500, r.n))
        out = r.evaluate(idx)
        other_block = idx.copy()
        other_block[:, 1 + 10:] = rng.integers(0, 2, size=(500, 10))
        assert np.array_equal(r.evaluate(other_block), out)

    def test_source_mode_resolution_error(self):
        f = constant_strategy(TRIPLE.row_space, 1, 0.0)
        with pytest.raises(ParameterRangeError, match="resolution"):
            randomized_round(f, mode="source", extra_coords=3, resolution=1e-9)


class TestDecideGapNis:
    def test_triple_accepts_quarter(self):
        v = decide_gap_nis(TRIPLE, 0.25, 0.05, 1, grid=COARSE)
        assert v.accepted and v.sound
        assert v.n_used == 1
        assert v.achieved["corr_fg"] >= 0.25 - 3 * 0.05 - 0.05**2 / 4 - 1e-9

    def test_ceiling_rejection_is_sound_at_all_n(self):
        v = decide_gap_nis(make_dsbs(0.3), 0.31, 0.001, 2)
        assert not v.accepted
        assert v.sound
        assert v.reason == "maximal-correlation-ceiling"

    def test_zero_target_accepts(self):
        v = decide_gap_nis(make_dsbs(0.2), 0.0, 0.1, 1, grid=COARSE)
        assert v.accepted
        assert v.achieved["corr_fg"] <= 0.0 + 1e-9

    def test_bounded_depth_labeling(self):
        v = decide_gap_nis(TRIPLE, 0.45, 0.02, 1, grid=COARSE)
        assert not v.accepted
        assert not v.sound
        assert v.reason == "bounded-depth"
        assert "n0" in v.caveat

    def test_per_call_and_per_depth_work_is_done_once(self, monkeypatch):
        # maximal correlation and the value grid once per call, the tensor
        # weights once per depth, however many stages (the n0 report too) read them
        calls = {}
        for name in ("maximal_correlation", "_tensor_weights", "discretize_range"):
            def counted(*args, _inner=getattr(decision, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args)
            monkeypatch.setattr(decision, name, counted)
        v = decide_gap_nis(make_dsbs(0.5), 0.66, 0.05, 6, report_n0=True)
        assert v.reason == "bounded-depth" and v.n_used == 6
        assert calls == {"maximal_correlation": 1, "_tensor_weights": 6, "discretize_range": 1}
        assert v.n0_report == n0_chain(make_dsbs(0.5), 0.05).as_dict()

    def test_accept_witness_reverifies_and_rounds_close(self):
        delta = 0.1
        v = decide_gap_nis(TRIPLE, 0.25, delta, 1, grid=COARSE)
        assert v.accepted
        exact = estimate_strategy_stats(v.witness_f, v.witness_g, TRIPLE, mode="exact")
        assert exact.corr_fg == pytest.approx(v.achieved["corr_fg"], abs=1e-9)
        assert exact.corr_fg <= 0.25 + 1e-9  # calibrated to the target
        fr, gr = round_pair(v.witness_f, v.witness_g, mode="rng", seed=33)
        stats = estimate_strategy_stats(fr, gr, TRIPLE, n_samples=10**6, seed=6,
                                        mode="monte_carlo")
        target = Target2x2.from_dsbs(0.25)
        assert tv_distance(stats.joint, target) <= 8 * delta

    def test_depth_two_strictly_helps_on_the_triple(self):
        # one copy of the triple caps at 1/4, but two copies reach exactly
        # 1/3 with balanced means (the alternating oracle's vertex bound
        # certifies 1/3 as the continuous optimum at depth 2), so the
        # decision flips between depths 1 and 2
        delta = 0.025
        res2 = brute_force_bmip(
            TRIPLE, 2, rho_target=1 / 3, delta=delta, mean_caps=(0.0, 0.0),
            grid=COARSE, mean_slack=0.0, corr_slack=1e-9,
        )
        assert res2.best_value == pytest.approx(1 / 3, abs=1e-12)
        oracle = oracle_max_balanced_ip(TRIPLE, 2, (0.0, 0.0), seed=3)
        assert oracle.value == pytest.approx(1 / 3, abs=1e-9)
        assert oracle.upper_bound == pytest.approx(1 / 3, abs=1e-9)

        shallow = decide_gap_nis(TRIPLE, 1 / 3, delta, 1, grid=COARSE)
        assert not shallow.accepted
        deep = decide_gap_nis(TRIPLE, 1 / 3, delta, 2, grid=COARSE)
        assert deep.accepted
        assert deep.n_used == 2
        assert deep.achieved["corr_fg"] == pytest.approx(1 / 3, abs=1e-9)

    def test_probe_verdicts_do_not_depend_on_blas_threads(self, outputs_at_blas_threads):
        code = (
            "import json\n"
            "import numpy as np\n"
            "from nisim import JointDistribution, decide_gap_nis, make_dsbs, uniform_triple\n"
            "t = np.random.default_rng(8).random((4, 2)) + 0.05\n"
            "t42 = JointDistribution(list('abcd'), list('xy'), t / t.sum())\n"
            "for dist, rho, delta, n in ((uniform_triple(), 0.25, 0.02, 2),\n"
            "                            (make_dsbs(0.45), 0.45, 0.05, 2),\n"
            "                            (t42, 0.3, 0.05, 2), (t42, 0.9, 0.05, 2)):\n"
            "    v = decide_gap_nis(dist, rho, delta, n)\n"
            "    print(v.thresholds.get('search_mode'), json.dumps(v.as_dict()))\n"
        )
        outs = outputs_at_blas_threads(code)
        assert outs[0] == outs[1]
        assert outs[0].count(b"oracle_probe") >= 2

    def test_unsorted_caller_grid_decides_like_its_sorted_copy(self):
        # the probe snaps to the grid, which must be sorted by then
        t = np.random.default_rng(8).random((3, 2)) + 0.05
        t32 = JointDistribution(list("abc"), list("xy"), t / t.sum())
        shuffle = np.random.default_rng(0).permutation
        grid = np.linspace(-1.0, 1.0, 41)
        v = decide_gap_nis(t32, 0.3, 0.2, 1, grid=grid)
        assert v.thresholds["search_mode"] == "oracle_probe"
        assert decide_gap_nis(t32, 0.3, 0.2, 1, grid=shuffle(grid)).as_dict() == v.as_dict()
        coarse = np.linspace(-1.0, 1.0, 11)
        res = brute_force_bmip(t32, 1, 0.3, 0.2, (0.3, 0.3), grid=coarse)
        shuffled = brute_force_bmip(t32, 1, 0.3, 0.2, (0.3, 0.3), grid=shuffle(coarse))
        assert (shuffled.accept, shuffled.best_value) == (res.accept, res.best_value)

    def test_report_n0_attached(self):
        v = decide_gap_nis(TRIPLE, 0.6, 0.3, 1, report_n0=True)
        assert v.n0_report is not None
        assert v.n0_report["w"] == 3600

    def test_depth_cap_ends_search_with_labelled_rejection(self):
        # DSBS depth 7 needs 128 variables per side, past the oracle's 64
        v = decide_gap_nis(make_dsbs(0.5), 0.66, 0.05, 10)
        assert v.decision == "REJECT" and not v.sound
        assert v.reason == "bounded-depth"
        assert v.n_used == 6
        assert "searched n <= 6" in v.caveat
        assert "depth 7 exceeds a search cap" in v.caveat
        assert "at most 64 variables per side" in v.caveat
        target = Target2x2.from_table([[0.415, 0.085], [0.085, 0.415]])
        w = decide_2x2(make_dsbs(0.5), target, 0.05, 9)
        assert (w.reason, w.n_used) == ("bounded-depth", 6)
        assert "(case I): searched n <= 6" in w.caveat

    def test_depth_cap_at_depth_one_raises(self):
        wide = random_joint(np.random.default_rng(8), 65, 2)
        with pytest.raises(ResourceLimitError, match="64 variables"):
            decide_gap_nis(wide, 0.2, 0.3, 2)

    def test_promise_respecting_never_accepts_beyond_ceiling(self):
        rng = np.random.default_rng(123)
        for _ in range(12):
            dist = random_joint(rng, 2, 2)
            rho0 = maximal_correlation(dist).rho
            delta = float(rng.uniform(0.45, 0.7))
            if rng.random() < 0.5:
                rho = min(1.0, rho0 + float(rng.uniform(4, 6)) * delta)
            else:
                rho = max(0.0, rho0 - float(rng.uniform(0.5, 1.0)) * delta)
            v = decide_gap_nis(dist, rho, delta, 1)
            if rho > rho0 + 2 * delta:
                assert not v.accepted


class TestDecide2x2:
    def test_dsbs_target_matches_gap_nis(self):
        target = Target2x2.from_dsbs(0.25)
        a = decide_2x2(TRIPLE, target, 0.05, 1, grid=COARSE)
        b = decide_gap_nis(TRIPLE, 0.25, 0.05, 1, grid=COARSE)
        assert a.decision == b.decision
        assert a.achieved["corr_fg"] == pytest.approx(b.achieved["corr_fg"], abs=1e-9)

    def test_case_tags(self):
        assert Target2x2.from_dsbs(0.3).case == "I"
        assert Target2x2.from_dsbs(-0.3).case == "II"
        t = Target2x2.from_table([[0.4, 0.2], [0.2, 0.2]])
        assert t.case == ("I" if t.corr_uv >= t.mean_u * t.mean_v else "II")

    def test_independent_target_accepted_via_constants(self):
        # E[UV] = E[U]E[V]: reachable by constant-mean strategies with
        # private rounding on any full-support source
        mean_u, mean_v = 0.2, -0.4
        probs = [
            (1 + mean_u + mean_v + mean_u * mean_v) / 4,
            (1 + mean_u - mean_v - mean_u * mean_v) / 4,
            (1 - mean_u + mean_v - mean_u * mean_v) / 4,
            (1 - mean_u - mean_v + mean_u * mean_v) / 4,
        ]
        target = Target2x2.from_table(np.array(probs).reshape(2, 2))
        v = decide_2x2(make_dsbs(0.5), target, 0.2, 1)
        assert v.accepted
        assert abs(v.achieved["mean_f"] - mean_u) <= 8 * 0.2 / 3 + 0.2**2 / 5 + 1e-9
        dn = make_dsbs(0.5)
        fr, gr = round_pair(v.witness_f, v.witness_g, mode="rng", seed=41)
        stats = estimate_strategy_stats(fr, gr, dn, n_samples=10**6, seed=8,
                                        mode="monte_carlo")
        assert tv_distance(stats.joint, target) <= 8 * 0.2

    def test_case_one_nonzero_means_with_rounding(self):
        # case I target with shifted means; the witness calibrates down to
        # the target correlation and rounds within the TV guarantee
        delta = 0.1
        target = Target2x2.from_table(
            np.array([0.4, 0.2, 0.15, 0.25]).reshape(2, 2)
        )
        assert target.case == "I"
        assert target.mean_u == pytest.approx(0.2)
        assert target.corr_uv == pytest.approx(0.3)
        d = make_dsbs(0.6)
        v = decide_2x2(d, target, delta, 1, grid=COARSE)
        assert v.accepted
        cap = 8 * delta / 3 + delta**2 / 5
        assert abs(v.achieved["mean_f"] - 0.2) <= cap + 1e-9
        assert abs(v.achieved["mean_g"] - 0.1) <= cap + 1e-9
        assert v.achieved["corr_fg"] <= 0.3 + 1e-9
        fr, gr = round_pair(v.witness_f, v.witness_g, mode="rng", seed=55)
        stats = estimate_strategy_stats(fr, gr, d, n_samples=10**6, seed=12,
                                        mode="monte_carlo")
        assert tv_distance(stats.joint, target) <= 8 * delta

    def test_oracle_seed_reproducible(self):
        a = oracle_max_balanced_ip(TRIPLE, 1, (0.2, 0.2), seed=9)
        b = oracle_max_balanced_ip(TRIPLE, 1, (0.2, 0.2), seed=9)
        assert a.value == b.value
        assert np.array_equal(a.f_values, b.f_values)

    def test_case_two_anti_dictator_verdict(self):
        # target U = -V uniform from DSBS(0.5): the oracle run fixes ACCEPT,
        # since the reachable minimum -0.5 is below E[UV] + 3 delta + slack
        target = Target2x2.from_table([[0.0, 0.5], [0.5, 0.0]])
        assert target.case == "II"
        assert target.corr_uv == -1.0
        v = decide_2x2(make_dsbs(0.5), target, 0.2, 1, grid=COARSE)
        assert v.accepted
        assert v.achieved["corr_fg"] == pytest.approx(-0.5, abs=1e-9)

    def test_case_two_rejects_when_floor_unreachable(self):
        target = Target2x2.from_table([[0.0, 0.5], [0.5, 0.0]])
        v = decide_2x2(make_dsbs(0.5), target, 0.05, 1, grid=COARSE)
        assert not v.accepted
        assert v.reason == "maximal-correlation-ceiling"
        assert v.sound


class TestCorrelationCeiling:
    def test_centered_window(self):
        assert _correlation_ceiling(0.3, (-0.1, 0.1), (-0.1, 0.1)) == pytest.approx(
            0.31, abs=1e-12
        )

    def test_shifted_window_tightens_variance_term(self):
        c = _correlation_ceiling(1.0, (0.6, 0.8), (0.6, 0.8))
        assert c <= 0.8 * 0.8 + math.sqrt((1 - 0.36) * (1 - 0.36)) + 1e-12
