"""simulate: Monte Carlo calls to ``estimate_strategy_stats`` at a fixed sample count.

One of the three parts of the cli-mc-spectral workload.

The ``rounding`` and ``strategies`` sampling kernels do all the work.
Four pair types use them differently:

* generic ``TableStrategy`` pairs, n from 1 to 10, on 2x2 and 3x3
  sources: joint draws plus a per-coordinate ``evaluate``;
* RNG-rounded pairs from ``round_pair``: the same, plus a coin per row
  from a generator the strategy owns;
* lifted pairs from ``gaussian_simulator_strategy`` with w from
  ``berry_esseen_sample_count``: the multinomial sufficient statistic;
* ``lift_hybrid`` pairs with h >= 1: the multinomial plus the
  ``rng.choice`` prefix path.

Each job runs at ``threads=1`` and then at ``threads=2`` (nproc is 2),
which is where chunking or a thread-count-invariant sampler would show.
Rounded pairs are rebuilt for every call, so a repeat with the same
seed and threads starts from the same generator state.

References: exact moments by tensor contraction for generic and rounded
pairs (rounding keeps E[f], E[g] and E[fg]); the threshold-pair
correlation at the source's maximal correlation, by the benchmark's own
quadrature (``checks.threshold_pair_corr``), plus the Berry-Esseen
allowance (zeta for E[fg], zeta/2 for the means) for lifted pairs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import checks
from ..harness import Op, Record
from .sources import joint, random_table

MC_THREADS = (1, 2)
CYCLE_SECONDS = 1.5  # op time of one cycle on the reference machine
SAMPLES = 200_000
ZETA = 0.1  # Berry-Esseen accuracy the lifted pairs are built for


def _generic_job(rng, dist, n, rounded, seed):
    import nisim.decision as decision
    import nisim.rounding as rounding
    from nisim.strategies import TableStrategy

    qa, qb = dist.shape
    fv, gv = rng.uniform(-1, 1, size=qa**n), rng.uniform(-1, 1, size=qb**n)
    if not rounded:
        fv, gv = np.sign(fv), np.sign(gv)
    f, g = TableStrategy(dist.row_space, n, fv), TableStrategy(dist.col_space, n, gv)
    ref = checks.pair_moments(dist.table, n, fv, gv)

    def make(threads):
        def run():
            a, b = decision.round_pair(f, g, seed=seed) if rounded else (f, g)
            return rounding.estimate_strategy_stats(a, b, dist, n_samples=SAMPLES, seed=seed,
                                                    mode="monte_carlo", threads=threads)
        return run
    return make, ref, (0.0, 0.0, 0.0)


def _lifted_refs(table, means_f, means_g, weights):
    """Mixture over prefixes of threshold pairs on rho0-correlated Gaussians."""
    rho0 = checks.max_correlation(table)
    ef = float(weights.sum(axis=1) @ means_f)
    eg = float(weights.sum(axis=0) @ means_g)
    c = sum(weights[x, y] * checks.threshold_pair_corr(rho0, float(means_f[x]), float(means_g[y]))
            for x in range(len(means_f)) for y in range(len(means_g)))
    return ef, eg, float(c)


def _lifted_job(rng, dist, h, seed):
    import nisim.gaussian as gaussian
    import nisim.rounding as rounding

    rho0 = checks.max_correlation(dist.table)
    w = gaussian.berry_esseen_sample_count(rho0, dist.alpha, ZETA)
    if h == 0:
        nu = rng.uniform(-0.5, 0.5, size=2)
        f, g = rounding.gaussian_simulator_strategy(dist, (float(nu[0]), float(nu[1])), w)
        ref = _lifted_refs(dist.table, nu[:1], nu[1:], np.ones((1, 1)))
    else:
        qa, qb = dist.shape
        inner_f = rng.uniform(-0.6, 0.6, size=qa**h)
        inner_g = rng.uniform(-0.6, 0.6, size=qb**h)
        f = rounding.lift_hybrid(rounding.HybridStrategy(dist.row_space, h, inner_f), dist, w,
                                 side="row")
        g = rounding.lift_hybrid(rounding.HybridStrategy(dist.col_space, h, inner_g), dist, w,
                                 side="col")
        # prefix x maps to mean 1 - 2 Phi(inner(x)); prefixes follow the h-fold product
        means_f = np.array([checks.threshold_mean(float(t)) for t in inner_f])
        means_g = np.array([checks.threshold_mean(float(t)) for t in inner_g])
        W, _, _ = checks.tensor_weights(dist.table, h)
        ref = _lifted_refs(dist.table, means_f, means_g, W)

    def make(threads):
        def run():
            return rounding.estimate_strategy_stats(f, g, dist, n_samples=SAMPLES, seed=seed,
                                                    threads=threads)
        return run
    return make, ref, (ZETA / 2, ZETA / 2, ZETA)


def build(seed: int, workdir: Path) -> list[Op]:
    from nisim.spaces import make_dsbs

    rng = np.random.default_rng([seed, 3])
    s22, s33 = joint(random_table(rng, 2, 2)), joint(random_table(rng, 3, 3))
    dsbs = make_dsbs(float(rng.uniform(0.3, 0.6)))
    jobs = [("generic", _generic_job(rng, s22, n, False, seed + n)) for n in (1, 4, 7, 10)]
    jobs += [("generic", _generic_job(rng, s33, n, False, seed + n)) for n in (2, 5, 8)]
    jobs += [("rng_rounded", _generic_job(rng, s22, 6, True, seed + 20)),
             ("rng_rounded", _generic_job(rng, s33, 4, True, seed + 21))]
    jobs += [("lifted", _lifted_job(rng, dsbs, 0, seed + 30)),
             ("lifted", _lifted_job(rng, s22, 0, seed + 31)),
             ("lifted", _lifted_job(rng, dsbs, 1, seed + 32)),
             ("lifted", _lifted_job(rng, s22, 2, seed + 33))]

    cycle = []
    for job, (kind, (make, ref, allowance)) in enumerate(jobs):
        def check(stats, ref=ref, allowance=allowance):
            return checks.check_mc((stats.mean_f, stats.mean_g, stats.corr_fg), ref, SAMPLES,
                                   allowance)
        for threads in MC_THREADS:
            cycle.append(Op(f"mc/{kind}/t{threads}", make(threads), check,
                            {"kind": kind, "threads": threads, "job": job}))
    return cycle


def _key(rec: Record):
    s = rec.result
    return None if s is None else (s.mean_f, s.mean_g, s.corr_fg)


def determinism_counts(first: list[Record], repeat: list[Record]) -> dict[str, int]:
    """Ops whose same-seed repeat differs, and jobs whose t1 and t2 results differ."""
    nondeterministic = sum(1 for a, b in zip(first, repeat) if _key(a) != _key(b))
    by_job: dict[int, dict[int, tuple]] = {}
    for rec in first:
        by_job.setdefault(rec.op.tags["job"], {})[rec.op.tags["threads"]] = _key(rec)
    variant = sum(1 for r in by_job.values() if len(set(r.values())) > 1)
    return {"rounding.mc.nondeterministic_jobs": nondeterministic,
            "rounding.mc.thread_variant_jobs": variant}
