"""Seeded sources and witnesses shared by the workloads."""

from __future__ import annotations

import itertools

import numpy as np

from .. import checks


def random_table(rng: np.random.Generator, qa: int, qb: int) -> np.ndarray:
    """Joint table with every cell comfortably away from zero."""
    t = rng.dirichlet(np.full(qa * qb, 4.0)).reshape(qa, qb)
    return t / t.sum()


def joint(table: np.ndarray):
    from nisim.spaces import JointDistribution

    qa, qb = table.shape
    return JointDistribution([f"a{i}" for i in range(qa)], [f"b{j}" for j in range(qb)], table)


def certified_pair(rng: np.random.Generator, table: np.ndarray, case: str):
    """A non-constant +-1 pair on one copy and its moments, in the requested case.

    Negating g swaps Case I (E[fg] >= E[f]E[g]) and Case II, so any pair
    with E[fg] != E[f]E[g] serves either case.
    """
    qa, qb = table.shape
    pairs = [(f, g) for f in itertools.product((-1.0, 1.0), repeat=qa)
             for g in itertools.product((-1.0, 1.0), repeat=qb)
             if abs(sum(f)) < qa and abs(sum(g)) < qb]
    for i in rng.permutation(len(pairs)):
        f, g = np.array(pairs[i][0]), np.array(pairs[i][1])
        mf, mg, c = checks.pair_moments(table, 1, f, g)
        gap = c - mf * mg
        if abs(gap) < 1e-6:
            continue
        if (gap > 0) != (case == "I"):
            g, mg, c = -g, -mg, -c
        return f, g, (mf, mg, c)
    raise ValueError("every +-1 pair is uncorrelated on this source")


def target_probs(moments) -> list[list[float]]:
    """The 2x2 table over (+1, -1) outcomes with the given E[U], E[V], E[UV]."""
    eu, ev, euv = moments
    return [[(1 + eu + ev + euv) / 4, (1 + eu - ev - euv) / 4],
            [(1 - eu + ev - euv) / 4, (1 - eu - ev + euv) / 4]]


def moments_of(probs) -> tuple[float, float, float]:
    """E[U], E[V], E[UV] of a 2x2 table, in the order the program computes them."""
    p = np.asarray(probs, dtype=float).ravel()
    p = p / p.sum()
    return (float(p[0] + p[1] - p[2] - p[3]), float(p[0] - p[1] + p[2] - p[3]),
            float(p[0] - p[1] - p[2] + p[3]))
