"""Split the momentum of a wavepacket into its classical and nonclassical
parts, and watch the exact product delta_X * Delta_P_nc = hbar/2 hold for
states that are nowhere near minimum uncertainty."""

import numpy as np

from exact_uncertainty import (
    GridPureState,
    GridSpec,
    LineDensity,
    classical_estimate,
    decomposition_summary,
    fisher_length,
    gaussian_state,
    verify_position_momentum,
)

grid = GridSpec(1024, -20.0, 20.0)

print("== boosted Gaussian ==")
state = gaussian_state(grid, sigma=1.1, momentum=1.7)
comp = classical_estimate(state, "position", "P")
print(f"best momentum estimate from a position readout: constant {comp.mean:+.6f}")
summary = decomposition_summary(state, "position", "P")
print(f"Var P = {summary.var_total:.6f} splits into classical {summary.var_classical:.2e}"
      f" + nonclassical {summary.var_nonclassical:.6f}")

print("\n== lumpy superposition (far from minimum uncertainty) ==")
x = grid.points()
psi = (np.exp(-(x - 3) ** 2 / 2.2 + 0.9j * x)
       + 0.7 * np.exp(-(x + 2) ** 2 / 3.0 - 1.2j * x)
       + 0.4 * np.exp(-x ** 2 / 1.1 + 0.4j * x ** 2))
state = GridPureState(grid, psi)
delta_x = fisher_length(LineDensity(grid, state.position_density())).fisher_length
summary = decomposition_summary(state, "position", "P")
product = delta_x * np.sqrt(summary.var_nonclassical)
print(f"Fisher length delta_X            = {delta_x:.8f}")
print(f"nonclassical spread Delta_P_nc   = {np.sqrt(summary.var_nonclassical):.8f}")
print(f"product                          = {product:.12f}   (hbar/2 = 0.5)")

report = verify_position_momentum(state)
print(f"verifier verdict: {report.verdict}, residual {report.residual:.2e}")
print(f"ordinary Heisenberg product Delta_X * Delta_P = "
      f"{report.notes['heisenberg_product']:.4f}  (slack above hbar/2 comes from the"
      f" classical parts)")
