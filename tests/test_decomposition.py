import numpy as np
import pytest

from exact_uncertainty.decomposition import (
    classical_estimate,
    continuity_residual,
    decomposition_summary,
    energy_split,
    estimate_error,
    extended_number_nonclassical,
    minimum_error,
)
from exact_uncertainty.errors import UnsupportedObservable, VanishingDensity
from exact_uncertainty.grids import GridSpec
from exact_uncertainty.random_states import random_smooth_grid_state
from exact_uncertainty.states import (
    GridMixedState,
    GridPureState,
    PeriodicState,
    evolve_step,
    fock_basis_state,
    fock_state,
    gaussian_state,
    moment,
    variance,
)


class TestClassicalEstimate:
    def test_real_wavefunction_zero(self, grid):
        comp = classical_estimate(gaussian_state(grid, 1.0), "position", "P")
        # pointwise on the well-supported region, and in the density-weighted
        # norm over everything retained (deep-tail cells only hold roundoff)
        core = comp.weights > 1e-6 * comp.weights.max()
        assert np.max(np.abs(comp.values[core])) < 1e-10
        assert np.sum(comp.weights * np.abs(comp.values)) < 1e-12

    def test_boosted_gaussian_constant(self, grid):
        k = 1.9
        st = gaussian_state(grid, 1.0, momentum=k)
        comp = classical_estimate(st, "position", "P")
        assert np.max(np.abs(comp.values[comp.mask] - k)) < 1e-8
        # the density-matrix sandwich is an independent path to the same thing
        mix = GridMixedState.from_ensemble([(1.0, st)])
        comp_mix = classical_estimate(mix, "position", "P")
        assert np.max(np.abs(comp_mix.values[comp.mask] - comp.values[comp.mask])) < 1e-8

    def test_fock_number_estimate_is_n(self):
        # an n-photon eigenstate estimates its own number in every phase cell
        comp = classical_estimate(fock_basis_state(4, 9), "phase", "N")
        assert np.max(np.abs(comp.values[comp.mask] - 4.0)) < 1e-10

    def test_extended_phase_equals_physical_phase(self, rng):
        # the extended-space estimate restricted to physical states equals
        # the physical one pointwise
        from exact_uncertainty.random_states import random_fock_state

        st = random_fock_state(rng, 24, mean=3.0)
        phys = classical_estimate(st, "phase", "N")
        ext = classical_estimate(st, "extended-phase", "N")
        assert np.array_equal(phys.values, ext.values)

    def test_mixture_matches_weighted_ensemble_oracle(self, grid):
        # for rho = sum w_i |psi_i><psi_i| the estimate must equal
        # sum w_i p_i P_cl_i / sum w_i p_i, assembled here independently
        a = gaussian_state(grid, 1.0, center=-2.0, momentum=1.0)
        b = gaussian_state(grid, 1.2, center=2.0, momentum=-0.8)
        mix = GridMixedState.from_ensemble([(0.4, a), (0.6, b)])
        comp = classical_estimate(mix, "position", "P")

        num = np.zeros(grid.n_points)
        den = np.zeros(grid.n_points)
        for w, st in ((0.4, a), (0.6, b)):
            c = classical_estimate(st, "position", "P")
            p = st.position_density()
            num += w * p * c.values
            den += w * p
        oracle = np.where(comp.mask, num / np.where(comp.mask, den, 1.0), 0.0)
        core = comp.weights > 1e-4 * comp.weights.max()
        assert np.max(np.abs(comp.values[core] - oracle[core])) < 1e-8
        assert np.sum(comp.weights * np.abs(comp.values - oracle)) < 1e-8

    def test_unsupported_combination(self, grid):
        with pytest.raises(UnsupportedObservable):
            classical_estimate(gaussian_state(grid, 1.0), "position", "N")

    def test_masked_tails_carry_no_mass(self):
        # masked cells are each below 1e-12 of the peak, so for any feasible
        # grid their combined mass is far from the 20% error threshold; the
        # VanishingDensity surface is exercised by the collapse and Wigner
        # support checks instead
        grid = GridSpec(1024, -200.0, 200.0)
        x = grid.points()
        psi = np.where(np.abs(x) < 2.0, np.cos(np.pi * x / 4.0) ** 2, 0.0).astype(complex)
        st = GridPureState(grid, psi)
        comp = classical_estimate(st, "position", "P")
        assert comp.masked_mass < 1e-9


class TestEstimateError:
    def test_best_candidate_gives_nonclassical_variance(self, grid):
        st = gaussian_state(grid, 0.8, momentum=1.0)
        comp = classical_estimate(st, "position", "P")
        err = estimate_error(st, comp.values, "position", "P")
        summ = decomposition_summary(st, "position", "P")
        assert err == pytest.approx(summ.var_nonclassical, rel=1e-10)

    def test_constant_shift_adds_square(self, grid):
        st = gaussian_state(grid, 0.8, momentum=1.0)
        comp = classical_estimate(st, "position", "P")
        base = minimum_error(st, "position", "P")
        shifted = estimate_error(st, comp.values + 0.7, "position", "P")
        assert shifted - base == pytest.approx(0.49, rel=1e-9)

    def test_zero_candidate_on_boosted_gaussian(self, grid):
        k = 1.3
        st = gaussian_state(grid, 1.0, momentum=k)
        base = minimum_error(st, "position", "P")
        err = estimate_error(st, np.zeros(grid.n_points), "position", "P")
        assert err - base == pytest.approx(k ** 2, rel=1e-9)

    def test_optimality_against_random_perturbations(self, rng, grid):
        st = random_smooth_grid_state(rng, grid)
        comp = classical_estimate(st, "position", "P")
        base = minimum_error(st, "position", "P")
        x = grid.points()
        for _ in range(50):
            eps = rng.uniform(0.05, 0.5)
            freq = rng.uniform(0.2, 1.5)
            candidate = comp.values + eps * np.sin(freq * x + rng.uniform(0, 2 * np.pi))
            assert estimate_error(st, candidate, "position", "P") > base


class TestSummary:
    def test_boosted_gaussian_split(self, grid):
        sigma, k = 1.1, 1.7
        summ = decomposition_summary(gaussian_state(grid, sigma, momentum=k),
                                     "position", "P")
        assert summ.var_classical == pytest.approx(0.0, abs=1e-10)
        assert summ.var_nonclassical == pytest.approx(1.0 / (4 * sigma ** 2), rel=1e-9)
        assert summ.additivity_residual < 1e-10

    def test_fock_eigenstate_all_zero(self):
        summ = decomposition_summary(fock_basis_state(5, 10), "phase", "N")
        assert summ.var_total == pytest.approx(0.0, abs=1e-12)
        assert summ.var_classical == pytest.approx(0.0, abs=1e-12)
        assert summ.var_nonclassical == pytest.approx(0.0, abs=1e-12)

    def test_variances_never_negative(self):
        # rounding puts <N_cl^2> 3.6e-15 above <N^2> on |3> (n_max 8); the
        # minimum error and nonclassical variance are clipped at 0 and the
        # rounding shows in the additivity residual instead
        summ = decomposition_summary(fock_basis_state(3, 8), "phase", "N")
        assert summ.min_error == 0.0 and summ.var_nonclassical == 0.0
        assert summ.additivity_residual < 1e-14

    def test_two_gaussian_superposition_additivity(self, grid):
        psi = (gaussian_state(grid, 1.0, center=-3.0, momentum=1.0).amplitudes
               + gaussian_state(grid, 0.8, center=3.0, momentum=-0.5).amplitudes)
        st = GridPureState(grid, psi)
        summ = decomposition_summary(st, "position", "P")
        assert summ.additivity_residual < 1e-8 * summ.var_total

    def test_mean_equality_across_states(self, rng, grid):
        for _ in range(5):
            st = random_smooth_grid_state(rng, grid)
            comp = classical_estimate(st, "position", "P")
            mean_b = moment(st, "P", 1)
            assert abs(comp.mean - mean_b) < 1e-8 * max(1.0, abs(mean_b))
        mix = GridMixedState.from_ensemble([
            (0.5, gaussian_state(grid, 1.0, momentum=0.6)),
            (0.5, gaussian_state(grid, 1.2, momentum=-1.1)),
        ])
        comp = classical_estimate(mix, "position", "P")
        assert abs(comp.mean - moment(mix, "P", 1)) < 1e-8

    def test_strict_nonclassicality(self, rng, grid):
        for _ in range(5):
            st = random_smooth_grid_state(rng, grid)
            summ = decomposition_summary(st, "position", "P")
            assert summ.var_nonclassical > 0.0


class TestExtendedNumber:
    def test_fock_eigenstate_moments_vanish(self):
        pom = extended_number_nonclassical(fock_basis_state(3, 6), cutoff=12)
        assert pom.mean == pytest.approx(0.0, abs=1e-10)
        assert pom.variance == pytest.approx(0.0, abs=1e-10)

    def test_poissonian_variance_split(self):
        # Var N_nc from the projected POM must reproduce Var N - Var N_cl
        # computed by direct phase quadrature
        rngs = np.random.default_rng(5)
        mean = 2.0
        n = np.arange(41)
        from math import lgamma

        log_mag = 0.5 * (n * np.log(mean) - np.array([lgamma(v + 1) for v in n]) - mean)
        st = fock_state(40, np.exp(log_mag))
        pom = extended_number_nonclassical(st, cutoff=80)
        comp = classical_estimate(st, "phase", "N")
        oracle = variance(st, "N") - comp.variance
        assert pom.variance == pytest.approx(oracle, rel=1e-4)
        assert abs(pom.mean) < 1e-6

    def test_superposition_completeness(self):
        st = fock_state(1, np.array([1.0, 1.0]))
        pom = extended_number_nonclassical(st, cutoff=10)
        assert pom.completeness_residual() < 1e-10

    def test_effects_positive(self):
        st = fock_state(1, np.array([1.0, 1.0]))
        pom = extended_number_nonclassical(st, cutoff=10)
        for eff in pom.effects:
            eigs = np.linalg.eigvalsh(eff)
            assert eigs.min() > -1e-12

    def test_rotator_has_no_number_pom(self):
        # a rotator shares the circle class with Fock states but has no N
        with pytest.raises(UnsupportedObservable):
            extended_number_nonclassical(PeriodicState(-1, 1, np.array([0.0, 1.0, 0.0])), 10)


class TestEnergySplit:
    def test_fock_eigenstate(self):
        e_cl, e_nc = energy_split(fock_basis_state(3, 8))
        assert e_cl == pytest.approx(3.0, abs=1e-12)
        assert e_nc == pytest.approx(0.5, abs=1e-12)

    def test_vacuum(self):
        e_cl, e_nc = energy_split(fock_basis_state(0, 4))
        assert e_cl == pytest.approx(0.0, abs=1e-12)
        assert e_nc == pytest.approx(0.5, abs=1e-12)

    def test_superposition_total(self):
        st = fock_state(2, np.array([1.0, 0.0, 1.0]))
        e_cl, e_nc = energy_split(st)
        assert e_cl + e_nc == pytest.approx(1.5, rel=1e-12)


class TestContinuity:
    def test_stationary_rotator(self):
        amps = np.zeros(13, dtype=complex)
        amps[9] = 1.0
        st = PeriodicState(-6, 6, amps)
        assert continuity_residual(st, None, 1e-4) < 1e-10

    def test_free_drifting_gaussian(self, grid):
        st = gaussian_state(grid, 1.0, momentum=1.5)
        res = continuity_residual(st, None, 1e-4)
        assert res < 1e-5
        # closed-form oracle: d p / dt at t = 0 for the drifting, spreading
        # packet is -k d p / dx (drift) since the spreading rate vanishes at t=0
        x = grid.points()
        p = st.position_density()
        dpdx = np.gradient(p, grid.dx)
        fwd = evolve_step(st, None, 1e-4)
        bwd = evolve_step(st, None, -1e-4)
        dpdt = (fwd.position_density() - bwd.position_density()) / 2e-4
        assert np.max(np.abs(dpdt + 1.5 * dpdx)) < 1e-3

    def test_pendulum_wavepacket(self, rng):
        from exact_uncertainty.random_states import random_periodic_state

        st = random_periodic_state(rng)
        v = np.cos(st.phase_grid())
        res = continuity_residual(st, v, 1e-4)
        scale = np.max(np.abs(st.phase_density()))
        assert res < 1e-4 * max(1.0, scale / 1e-4 * 1e-4)
        # halving dt should not change the residual much once converged
        res_half = continuity_residual(st, v, 5e-5)
        assert res_half < 2 * res + 1e-8
