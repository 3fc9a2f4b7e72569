"""Simulating correlated Gaussians from discrete samples.

Normalized sums of maximal-correlation witness values over w fresh
coordinates behave like a correlated Gaussian pair.  Thresholding them
gives binary strategies whose means and correlation match the Gaussian
threshold-pair stability values, with error shrinking like 1/sqrt(w).

On a source with two atoms per side the statistics of such a pair are
exact: the suffix enters each party only through how often atom 0
appears, and the law of those two counts is a product of binomials.
"""

from nisim import (
    berry_esseen_sample_count,
    estimate_strategy_stats,
    gamma_bar,
    gamma_under,
    gaussian_simulator_strategy,
    make_dsbs,
)

dist = make_dsbs(0.6)
print("Source: DSBS(0.6).  Target: balanced threshold pair.")
expected = gamma_bar(0.6, 0.0, 0.0)
print(f"Gaussian prediction: E[PQ] = 2 arcsin(0.6)/pi = {expected:.6f}")
print()
print(f"{'w':>8}  {'E[PQ] (exact)':>20}  {'error':>10}")
errors = {}
for w in (4, 8, 16, 25, 100, 400, 1600, 6400):
    f, g = gaussian_simulator_strategy(dist, 0.0, w)
    stats = estimate_strategy_stats(f, g, dist, n_samples=2 * 10**5, seed=w)
    errors[w] = abs(stats.corr_fg - expected)
    print(f"{w:>8}  {stats.corr_fg:>20.6f}  {errors[w]:>10.6f}")

print()
zeta = 0.05
w = berry_esseen_sample_count(0.6, dist.alpha, zeta)
print(f"The sample-count recipe for accuracy {zeta}: w = {w}")
smallest = min(v for v, err in errors.items() if err <= zeta)
print(f"The smallest w above whose exact error is within {zeta}: w = {smallest}")

print()
print("Unbalanced targets work the same way:")
f, g = gaussian_simulator_strategy(dist, (0.3, -0.2), 4000)
stats = estimate_strategy_stats(f, g, dist, n_samples=2 * 10**5, seed=1)
print(f"  target means (0.3, -0.2): measured ({stats.mean_f:.4f}, {stats.mean_g:.4f})")
print(f"  measured correlation {stats.corr_fg:.4f}"
      f" vs prediction {gamma_bar(0.6, 0.3, -0.2):.4f}")

print()
print("The antipodal (polarity-flipped) pair reaches the minimizing value:")
f, g = gaussian_simulator_strategy(dist, (0.0, 0.0), 4000, polarity=(1, -1))
stats = estimate_strategy_stats(f, g, dist, n_samples=2 * 10**5, seed=2)
print(f"  measured {stats.corr_fg:.4f} vs prediction {gamma_under(0.6, 0.0, 0.0):.4f}")
