"""Verdict relations that any correct decider satisfies, whatever its search
engine: relabelling atoms, swapping the parties, negating the target's V
(Case II), merging atoms (data processing, Witsenhausen 1975), raising
the target correlation and tensoring.

For the first four, sources are random 2-3 x 2-3 tables, gap budgets delta
in {0.45, 0.5, 0.6} and search depths n <= 2.  Each decide gets a caller
grid small enough that every depth is enumerated: the alternating probe's
random starts depend on atom order, so only enumeration is invariant under
relabelling.  The grids are symmetric, because the party swap of a Case II
target maps each grid value v to -v.  The target relation compares decides
on one source, so it runs on the default grids, probe depths included.
Tensoring compares one depth's search on P^n with depth 1 on the source
tensor_power(P, n): bit for bit on dyadic tables, where the two hold the
same weights, probe depths included; to rounding on enumerated 2x2 tables,
whose marginals the two round apart.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import merge_rows
from nisim import (
    EmpiricalJoint2x2,
    JointDistribution,
    decide_2x2,
    decide_gap_nis,
    discretize_range,
    make_dsbs,
    maximal_correlation,
    tensor_power,
)
from nisim.decision import (
    ACCEPT_TOL, WORK_CAP, _search_one_level, _search_thresholds, _tensor_weights,
)

RELATIONS = settings(max_examples=100, deadline=None, derandomize=True)
DELTAS = st.sampled_from([0.45, 0.5, 0.6])
DEPTHS = st.integers(min_value=1, max_value=2)


@st.composite
def sources(draw, atoms=3):
    qa, qb = draw(st.integers(2, atoms)), draw(st.integers(2, atoms))
    weights = draw(st.lists(st.integers(1, 20), min_size=qa * qb, max_size=qa * qb))
    t = np.array(weights, dtype=float).reshape(qa, qb)
    return JointDistribution([f"a{i}" for i in range(qa)], [f"b{j}" for j in range(qb)],
                             t / t.sum())


@st.composite
def targets(draw):
    """Means of 0.3 to 0.9 in size; E[UV] at a tenth of its range, or at the
    end of it that puts the search's two centers on opposite sides of 0.

    At these deltas the mean windows are about 2.5 wide, so the search is
    constrained only when its centers lie far apart with opposite signs.
    Case II negates V, so same-sign means need the smallest E[UV].
    """
    mu, mv = (draw(st.sampled_from([-1, 1])) * draw(st.integers(3, 9)) / 10 for _ in range(2))
    lo, hi = abs(mu + mv) - 1.0, 1.0 - abs(mu - mv)
    other_case = 0.0 if mu * mv > 0 else 1.0
    fraction = draw(st.one_of(st.just(other_case), st.integers(0, 10).map(lambda k: k / 10)))
    return EmpiricalJoint2x2.from_moments(mu, mv, lo + fraction * (hi - lo))


# (top, with_zero): the grid is {-top, top}, plus 0 where it still enumerates
GRIDS = st.tuples(st.sampled_from([0.75, 1.0]), st.booleans())


def grid_for(dist, n, top, with_zero):
    qa, qb = dist.shape
    if with_zero and 3 ** (qa**n + qb**n) <= WORK_CAP:
        return np.array([-top, 0.0, top])
    return np.array([-top, top])


def decide(dist, target, delta, n, grid):
    v = decide_2x2(dist, target, delta, n, grid=grid)
    assert "oracle probe" not in v.caveat
    assert v.thresholds.get("search_mode", "enumeration") == "enumeration"
    return v


def assert_same_verdict(a, b):
    assert (a.decision, a.reason, a.n_used) == (b.decision, b.reason, b.n_used)
    if a.search_max is None:
        assert b.search_max is None
    else:
        assert b.search_max == pytest.approx(a.search_max, abs=1e-12)


def transpose(dist):
    return JointDistribution(dist.col_space.atoms, dist.row_space.atoms, dist.table.T)


@RELATIONS
@given(sources(), targets(), DELTAS, DEPTHS, GRIDS, st.data())
def test_relabelling_atoms_keeps_the_verdict(dist, target, delta, n, grid, data):
    qa, qb = dist.shape
    rows = data.draw(st.permutations(range(qa)))
    cols = data.draw(st.permutations(range(qb)))
    relabelled = JointDistribution(
        [dist.row_space.atoms[i] for i in rows], [dist.col_space.atoms[j] for j in cols],
        dist.table[np.ix_(rows, cols)],
    )
    g = grid_for(dist, n, *grid)
    assert_same_verdict(decide(dist, target, delta, n, g), decide(relabelled, target, delta, n, g))


@RELATIONS
@given(sources(), targets(), DELTAS, DEPTHS, GRIDS)
def test_party_swap_keeps_the_verdict(dist, target, delta, n, grid):
    swapped = EmpiricalJoint2x2.from_table(target.table.T)
    g = grid_for(dist, n, *grid)
    assert_same_verdict(
        decide(dist, target, delta, n, g), decide(transpose(dist), swapped, delta, n, g)
    )


@RELATIONS
@given(sources(), targets(), DELTAS, DEPTHS, GRIDS)
def test_negating_v_flips_the_case_but_not_the_verdict(dist, target, delta, n, grid):
    # at corr = mean_u * mean_v both targets are Case I
    assume(abs(target.corr_uv - target.mean_u * target.mean_v) > 1e-9)
    negated = EmpiricalJoint2x2.from_table(target.table[:, ::-1])
    g = grid_for(dist, n, *grid)
    v, w = decide(dist, target, delta, n, g), decide(dist, negated, delta, n, g)
    assert {v.thresholds["case"], w.thresholds["case"]} == {"I", "II"}
    assert (v.decision, v.reason, v.n_used) == (w.decision, w.reason, w.n_used)
    if v.search_max is None:
        assert w.search_max is None
    else:
        # Case II reports E[fg] of the witness flipped back
        assert w.search_max == pytest.approx(-v.search_max, abs=1e-12)


@RELATIONS
@given(sources(), targets(), DELTAS, DEPTHS, GRIDS, st.data())
def test_merging_atoms_never_turns_a_reject_into_an_accept(dist, target, delta, n, grid, data):
    # Alice can merge two atoms herself, so the merged source simulates no
    # more than the original; a merged witness is a candidate on the original
    i, j = data.draw(st.lists(st.integers(0, dist.shape[0] - 1), min_size=2, max_size=2,
                              unique=True))
    g = grid_for(dist, n, *grid)
    merged = decide(merge_rows(dist, i, j), target, delta, n, g)
    assume(merged.accepted)
    original = decide(dist, target, delta, n, g)
    assert original.accepted
    assert original.n_used <= merged.n_used
    if original.n_used == merged.n_used:
        # Case II reports the flipped E[fg], so its order flips too
        sign = 1.0 if target.case == "I" else -1.0
        assert sign * original.search_max >= sign * merged.search_max - 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sources(atoms=4), st.sampled_from([0.02, 0.05, 0.2]), st.integers(1, 3))
def test_raising_the_target_correlation_never_helps(dist, delta, n):
    # the windows do not depend on the target and the accept floor rises
    # with it, so an ACCEPT holds at every lower target (no deeper) and a
    # ceiling REJECT at every higher one; the targets crowd around rho(P),
    # where the verdicts change
    rho = maximal_correlation(dist).rho
    targets = np.unique(np.clip(np.r_[np.linspace(0, 1, 21), rho * np.linspace(0.5, 1.5, 21)],
                                0, 1))
    verdicts = [decide_gap_nis(dist, float(t), delta, n) for t in targets]
    for i, v in enumerate(verdicts):
        if v.accepted:
            assert all(w.accepted and w.n_used <= v.n_used for w in verdicts[:i])
        elif v.sound:
            assert all(not w.accepted and w.sound for w in verdicts[i + 1:])


@st.composite
def dyadic_sources(draw):
    """Tables of multiples of 1/2^m: every tensor product and marginal sum of
    them is exact, so P at depth n and tensor_power(P, n) hold the same bits."""
    qa, qb = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    counts = draw(st.lists(st.integers(1, 8), min_size=qa * qb - 1, max_size=qa * qb - 1))
    total = 2 ** sum(counts).bit_length()
    t = np.array(counts + [total - sum(counts)], dtype=float).reshape(qa, qb) / total
    return JointDistribution([f"a{i}" for i in range(qa)], [f"b{j}" for j in range(qb)], t)


def tensor_searches(dist, n, delta, rho, centers, grid):
    """One depth's search on P^n, and depth 1 on the source tensor_power(P, n)."""
    th = _search_thresholds(delta)
    cap = th["mean_cap"] + th["mean_slack"]
    search = (grid, (th["mean_cap"],) * 2, [(c, cap + ACCEPT_TOL) for c in centers],
              rho - th["corr_margin"] - th["corr_slack"])
    weights = _tensor_weights(dist, n), _tensor_weights(tensor_power(dist, n), 1)
    return weights, [_search_one_level(w, *search) for w in weights]


TENSOR_CASE = (st.sampled_from([0.1, 0.45, 0.6]), st.sampled_from([0.3, 0.6, 0.9]),
               st.tuples(*[st.sampled_from([-0.4, 0.0, 0.4])] * 2))
COARSE = np.linspace(-1.0, 1.0, 5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dyadic_sources(), st.sampled_from([2, 3]), *TENSOR_CASE, st.booleans())
@example(make_dsbs(0.5), 2, 0.45, 0.6, (0.0, 0.0), True)
@example(make_dsbs(0.5), 3, 0.1, 0.9, (0.0, 0.0), False)
def test_depth_n_searches_like_depth_one_on_the_tensor_power(
    dist, n, delta, rho, centers, coarse
):
    # the 5-value grid enumerates 2x2 sources at n = 2; the default grid and
    # every larger table leave the depth to the probe, whose answer is exact
    # only on equal weights
    (at_depth, on_power), (a, b) = tensor_searches(
        dist, n, delta, rho, centers, COARSE if coarse else discretize_range(delta))
    assert all(np.array_equal(x, y) for x, y in zip(at_depth, on_power))
    assert (a.mode, a.accept, a.best_value) == (b.mode, b.accept, b.best_value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sources(atoms=2), *TENSOR_CASE)
def test_tensoring_keeps_the_enumerated_verdict(dist, delta, rho, centers):
    # on any table the two marginals round apart by an ulp, which moves the
    # enumerated best value by rounding only
    _, (a, b) = tensor_searches(dist, 2, delta, rho, centers, COARSE)
    assert a.mode == b.mode == "enumeration"
    assert b.best_value == pytest.approx(a.best_value, abs=1e-12)
    th = _search_thresholds(delta)
    if abs(a.best_value - (rho - th["corr_margin"] - th["corr_slack"])) > 1e-9:
        assert a.accept == b.accept
