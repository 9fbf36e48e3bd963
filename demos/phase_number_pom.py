"""Photon number against the canonical phase observable: the best number
estimate from a phase readout, the energy split, the extended-space
construction of the nonclassical number POM, and the exact relation
delta_Phi * Delta_N_nc = 1/2."""

from math import lgamma

import numpy as np

from exact_uncertainty import (
    circle_density,
    classical_estimate,
    energy_split,
    extended_number_nonclassical,
    fisher_length_periodic,
    fock_basis_state,
    fock_state,
    variance,
    verify_phase_number,
)

print("== number eigenstate |3> ==")
eig = fock_basis_state(3, 8)
e_cl, e_nc = energy_split(eig)
print(f"classical energy {e_cl:.1f} hbar*omega, nonclassical {e_nc:.1f} hbar*omega"
      f"  (exactly the vacuum energy)")
report = verify_phase_number(eig)
print(f"phase distribution flag: {report.notes['flag']}  ->  uniform phase,"
      f" zero number fluctuation: complementarity as an exact statement")

print("\n== coherent-like state, mean 2 ==")
n = np.arange(41)
amps = np.exp(0.5 * (n * np.log(2.0) - np.array([lgamma(v + 1) for v in n]) - 2.0))
state = fock_state(40, amps)
comp = classical_estimate(state, "phase", "N")
print(f"<N> = {comp.mean:.6f} reproduced by the phase-readout estimate")

pom = extended_number_nonclassical(state, cutoff=80)
print(f"nonclassical POM: mean {pom.mean:+.2e}, variance {pom.variance:.6f}")
print(f"direct split Var N - Var N_cl = {variance(state, 'N') - comp.variance:.6f}")
print(f"effects sum to identity within {pom.completeness_residual():.2e}")

dens = circle_density(state.phase_density())
delta_phi = fisher_length_periodic(dens).fisher_length
delta_n_nc = np.sqrt(variance(state, "N") - comp.variance)
print(f"delta_Phi * Delta_N_nc = {delta_phi * delta_n_nc:.8f}   (target 0.5)")
