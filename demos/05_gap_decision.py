"""The gap decision procedure, end to end.

Can the uniform triple reach a DSBS of correlation 0.25 with one copy?
0.3?  The search discretizes strategy values to a grid, enumerates pairs
under mean caps, and either produces a verified witness or rejects with
an honest label (a rejection below the theoretical depth n0 carries no
guarantee, and the verdict says so).
"""

import numpy as np

from nisim import (
    EmpiricalJoint2x2,
    decide_2x2,
    decide_gap_nis,
    estimate_strategy_stats,
    make_dsbs,
    oracle_max_balanced_ip,
    round_pair,
    tv_distance,
    uniform_triple,
)

triple = uniform_triple()
grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])

print("Independent check first: the alternating-LP oracle on one copy,")
print("balanced means:")
oracle = oracle_max_balanced_ip(triple, 1, (0.0, 0.0))
print(f"  best found {oracle.value:.6f} with f = {oracle.f_values.round(4).tolist()},"
      f" g = {oracle.g_values.round(4).tolist()}")
print(f"  rigorous upper bound {oracle.upper_bound:.6f}")

print()
print("Decision at target 0.25, budget 0.05, one copy:")
verdict = decide_gap_nis(triple, 0.25, 0.05, 1, grid=grid)
print(f"  {verdict.decision} ({verdict.reason}); achieved {verdict.achieved}")

print()
print("Decision at target 0.51 (above the maximal-correlation ceiling):")
verdict = decide_gap_nis(triple, 0.51, 0.001, 3)
print(f"  {verdict.decision} ({verdict.reason}; sound at every depth: {verdict.sound})")

print()
print("Decision at target 0.45 at depth 1 (not reachable, not refutable):")
verdict = decide_gap_nis(triple, 0.45, 0.02, 1, grid=grid)
print(f"  {verdict.decision} ({verdict.reason})")
print(f"  caveat: {verdict.caveat}")

print()
print("Depth matters: one copy of the triple caps at 1/4, but two copies")
print("reach exactly 1/3 with balanced means.")
shallow = decide_gap_nis(triple, 1 / 3, 0.025, 1, grid=grid)
deep = decide_gap_nis(triple, 1 / 3, 0.025, 2, grid=grid)
print(f"  target 1/3 at depth 1: {shallow.decision} ({shallow.reason})")
print(f"  target 1/3 at depth 2: {deep.decision} at n = {deep.n_used},"
      f" achieved E[fg] = {deep.achieved['corr_fg']:.12f}")
oracle2 = oracle_max_balanced_ip(triple, 2, (0.0, 0.0), seed=3)
print(f"  depth-2 continuous optimum: {oracle2.value:.12f}"
      f" (certified upper bound {oracle2.upper_bound:.12f})")

print()
print("From witness to simulation: round the accepted pair and measure the")
print("empirical 2x2 against the target.")
delta = 0.1
verdict = decide_gap_nis(triple, 0.25, delta, 1, grid=grid)
fr, gr = round_pair(verdict.witness_f, verdict.witness_g, mode="rng", seed=7)
stats = estimate_strategy_stats(fr, gr, triple, n_samples=10**6, seed=3,
                                mode="monte_carlo")
target = EmpiricalJoint2x2.from_dsbs(0.25)
print(f"  empirical table {stats.joint.probs.round(4).tolist()}")
print(f"  TV to DSBS(0.25) = {tv_distance(stats.joint, target):.4f}"
      f"  (guarantee: <= {8 * delta})")

print()
print("General binary targets split into two cases by moment comparison:")
anti = EmpiricalJoint2x2.from_table([[0.0, 0.5], [0.5, 0.0]])
print(f"  target U = -V uniform: case {anti.case}, E[UV] = {anti.corr_uv}")
verdict = decide_2x2(make_dsbs(0.5), anti, 0.2, 1, grid=grid)
print(f"  from DSBS(0.5) at budget 0.2: {verdict.decision}, achieved {verdict.achieved}")
