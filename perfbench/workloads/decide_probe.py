"""decide-probe: library gap decisions at paper-grid delta, where the oracle works.

At delta in [0.02, 0.1] the default value grid never fits the work cap,
so every searched depth runs the alternating oracle and its box LPs;
this workload is where an oracle or box-LP optimisation must show.

Every query's outcome is fixed by construction, so the depths searched
per cycle do not depend on the seed or on how good the search is:

* certified ACCEPTs: the target is the moment triple of a +-1 pair (or
  the DSBS dictator pair) on one copy.  The oracle's vertex starts
  include that pair, so depth 1 accepts.
* true REJECTs: the goal lies above what any pair reaches at any depth
  (``checks.true_reject_rho``) but below the program's ceiling, so
  every depth up to ``n_search`` is searched.
* one ceiling REJECT, decided before any search.
* four REJECTs that search every depth up to 2 or 3 (two of them on the
  fixed triple, one on the 4x2 source).  They are the four slowest ops
  of a round; a cycle is four rounds, so the tail (the 11th slowest op)
  falls inside this group of sixteen, not on its edge.

Each round draws its own DSBS correlations and random 2x2, 3x3 and 4x2
tables, so a cycle's median and tail are taken over sixteen sources of
each kind and move little with the seed; the oracle's cost on one
random table can be 1.5 times its cost on another.
* one query on a 4x2 source at delta = 0.02 whose depth 3 has
  ka + kb = 72 > 65, where ``float(len(grid)) ** (ka + kb)`` overflows.
  The resulting ``OverflowError`` is a known defect and shows as a
  failed op.

The 4x2 source is also the one that reaches the random-starts-only
branch of the oracle (ka > 12) within a second: a 3x3 source reaches it
only at depth 3, after 512 vertex starts at depth 2 (about 7-12 s).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import checks
from ..harness import Op
from .sources import certified_pair, joint, moments_of, random_table, target_probs

MC_THREADS: tuple[int, ...] = ()
ROUNDS = 4  # rounds of the sixteen ops in one cycle, each on freshly drawn sources
CYCLE_SECONDS = 34.0  # op time of one cycle on the reference machine


def _op(label: str, dist, q: checks.Query) -> Op:
    import nisim.decision as decision

    if q.target is None:
        def run():
            return decision.decide_gap_nis(dist, q.rho, q.delta, q.n_search)
    else:
        probs = target_probs(q.target)
        target = decision.Target2x2.from_table(probs)
        # judge against the moments of the table the program receives
        q = checks.Query(q.table, q.delta, q.n_search, target=moments_of(probs),
                         certified=q.certified)

        def run():
            return decision.decide_2x2(dist, target, q.delta, q.n_search)

    return Op(label, run, lambda v: checks.check_verdict(q, v.as_dict()))


def build(seed: int, workdir: Path) -> list[Op]:
    from nisim.spaces import uniform_triple

    rng = np.random.default_rng([seed, 1])
    triple = uniform_triple()
    return [op for _ in range(ROUNDS) for op in _round(rng, triple)]


def _round(rng: np.random.Generator, triple) -> list[Op]:
    """The sixteen ops of one round, on sources drawn from ``rng``."""
    from nisim.spaces import make_dsbs

    rho_a, rho_b, rho_c, rho_d = rng.uniform(0.3, 0.6, size=4)
    dsbs = {r: make_dsbs(float(r)) for r in (rho_a, rho_b, rho_c, rho_d)}
    t22a, t22b = joint(random_table(rng, 2, 2)), joint(random_table(rng, 2, 2))
    t33 = joint(random_table(rng, 3, 3))
    t42 = joint(random_table(rng, 4, 2))

    def gap(label, dist, delta, n, rho, certified=False):
        return _op(label, dist, checks.Query(dist.table, delta, n, rho=float(rho),
                                             certified=certified))

    def general(label, dist, delta, n, case):
        _, _, moments = certified_pair(rng, dist.table, case)
        return _op(label, dist, checks.Query(dist.table, delta, n, target=moments,
                                             certified=True))

    def reject(label, dist, delta, n):
        return gap(label, dist, delta, n, checks.true_reject_rho(dist.table, delta))

    cycle = [
        # the dictator pair on a DSBS reaches E[fg] = rho with both means 0
        gap("gap/dsbs/accept", dsbs[rho_a], 0.05, 1, rho_a, certified=True),
        general("2x2/t22/accept-I", t22a, 0.03, 1, "I"),
        reject("gap/triple/reject", triple, 0.05, 2),
        general("2x2/t33/accept-I", t33, 0.1, 1, "I"),
        # f = (1/2, -1), g = (-1/2, 1) on the triple: means 0, E[fg] = 1/4
        gap("gap/triple/accept", triple, 0.02, 2, 0.25, certified=True),
        reject("gap/t42/reject-depth3", t42, 0.05, 3),
        general("2x2/t22/accept-II", t22a, 0.07, 2, "II"),
        reject("gap/t22/reject", t22b, 0.1, 1),
        gap("gap/t22/ceiling", t22b, 0.02, 1,
            checks.true_reject_rho(t22b.table, 0.02) + 0.05),
        reject("gap/dsbs/reject", dsbs[rho_d], 0.03, 2),
        gap("gap/dsbs/accept", dsbs[rho_b], 0.1, 3, rho_b, certified=True),
        general("2x2/t33/accept-II", t33, 0.05, 3, "II"),
        reject("gap/triple/reject", triple, 0.1, 2),
        reject("gap/t42/overflow", t42, 0.02, 3),
        _op("2x2/dsbs-target/accept", dsbs[rho_c],
            checks.Query(dsbs[rho_c].table, 0.02, 2, target=(0.0, 0.0, float(rho_c)),
                         certified=True)),
        reject("gap/t33/reject", t33, 0.07, 1),
    ]
    return cycle
