"""Two entangled particles: the classical/nonclassical split of particle 1
responds to what is measured on particle 2, position correlation fixes the
nonclassical momentum correlation, and the covariance matrices close the
matrix form of the exact relation.

Uses a light sigma = 0.2, tau = 5 version of the canonical parameters; pass
--full for sigma = 0.1, tau = 10 (larger grid, slower)."""

import sys

import numpy as np

from exact_uncertainty import (
    EprParams,
    build_epr,
    collapse_momentum,
    collapse_position,
    correlations,
    epr_grids,
    nonclassical_components_2d,
    pair_moments,
)
from exact_uncertainty.twoparticle import momentum_collapse_prediction

full = "--full" in sys.argv
params = EprParams(a=1.0, sigma=0.1 if full else 0.2, tau=10.0 if full else 5.0, p0=2.0)
gx, gy = epr_grids(params)
print(f"grid: {gx.n_points} x {gy.n_points} points, dx = {gx.dx:.4g}")
state = build_epr(params, gx, gy)

parts = nonclassical_components_2d(state)
m = pair_moments(parts)
print(f"<X1 - X2> = {m['mean_relative_position']:.6f}   Var = "
      f"{m['var_relative_position']:.6f}  (sigma^2 = {params.sigma ** 2})")
print(f"<P1 + P2> = {m['mean_total_momentum']:.6f}   Var = "
      f"{m['var_total_momentum']:.6f}  (1/tau^2 = {params.tau ** -2})")

core = state.position_density() > 1e-6 * state.position_density().max()
print(f"\nclassical momentum of each particle: constant "
      f"{parts.classical_field_1[core].mean():.6f} = p0/2")
print("so ALL momentum correlation lives in the nonclassical components:")
corr = correlations(parts)
print(f"  r_P(X1, X2)         = {corr.r_pearson_position:+.6f}")
print(f"  r_P(P1_nc, P2_nc)   = {corr.pair.r_pearson:+.6f}")
print(f"  r_F(X1, X2)         = {corr.pair.r_fisher:+.6f}")
print(f"  correlation relation residual |r_P + r_F| = {corr.residual:.2e}")

product = parts.cov_position @ parts.cov_momentum
print(f"\nCov(X) Cov(P) - (hbar/2)^2 I: max entry "
      f"{np.max(np.abs(product - 0.25 * np.eye(2))):.2e}")

print("\n== conditioning on particle 2 ==")
_, comp = collapse_position(state, 0.0)
print(f"after finding X2 = 0:   P_cl of particle 1 stays {comp.mean:.6f} = p0/2")
for p2 in (0.5, 1.5):
    _, comp = collapse_momentum(state, p2)
    predicted = momentum_collapse_prediction(params, p2)
    print(f"after finding P2 = {p2}: P_cl of particle 1 jumps to {comp.mean:.6f}"
          f"  (formula {predicted:.6f})")
print("the momentum measurement on particle 2 rewrites particle 1's decomposition")
