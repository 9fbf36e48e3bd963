import math

import numpy as np
import pytest

from exact_uncertainty.densities import LineDensity
from exact_uncertainty.energy import (
    EnergyModel,
    airy_first_zero,
    bouncer_exact_energy,
    coulomb_groundstate_bound,
    energy_identity,
    entropic_bound,
    entropic_groundstate_bound,
    fisher_bound,
    fisher_groundstate_bound,
    golden_minimize,
    mean_inverse_abs,
)
from exact_uncertainty.fisher import fisher_length
from exact_uncertainty.grids import GridSpec
from exact_uncertainty.states import Constants, GridPureState, gaussian_state


def half_gaussian_density(grid, sigma):
    x = grid.points()
    return LineDensity(grid, np.exp(-x ** 2 / (2 * sigma ** 2)))


class TestEnergyIdentity:
    def test_harmonic_ground_state(self, grid):
        # sigma^2 = hbar / 2 m omega makes the Gaussian the oscillator
        # ground state: terms (hbar omega / 4, 0, hbar omega / 4)
        st = gaussian_state(grid, math.sqrt(0.5))
        parts = energy_identity(st, EnergyModel("harmonic"))
        assert parts["fisher_term"] == pytest.approx(0.25, rel=1e-9)
        assert parts["drift_term"] == pytest.approx(0.0, abs=1e-12)
        assert parts["potential_term"] == pytest.approx(0.25, rel=1e-9)
        assert parts["total"] == pytest.approx(parts["direct_energy"], rel=1e-9)

    def test_boosted_gaussian(self, grid):
        k = 1.3
        st = gaussian_state(grid, math.sqrt(0.5), momentum=k)
        parts = energy_identity(st, EnergyModel("harmonic"))
        assert parts["drift_term"] == pytest.approx(k ** 2 / 2, rel=1e-9)
        assert parts["total"] == pytest.approx(parts["direct_energy"], rel=1e-6)

    def test_real_state_saturates_fisher_bound(self, grid):
        # any real wavefunction: the drift term vanishes, so the identity
        # collapses onto the Fisher bound
        x = grid.points()
        psi = (np.exp(-(x - 1.0) ** 2 / 3.0) + 0.4 * np.exp(-(x + 2.0) ** 2 / 2.0))
        st = GridPureState(grid, psi.astype(complex))
        model = EnergyModel("harmonic")
        parts = energy_identity(st, model)
        bound = fisher_bound(LineDensity(grid, st.position_density()), model)
        assert bound.bound == pytest.approx(parts["direct_energy"], rel=1e-8)


class TestFisherBound:
    def test_harmonic_gaussian_closed_form(self, grid):
        sigma = 0.8
        bound = fisher_bound(half_gaussian_density(grid, sigma), EnergyModel("harmonic"))
        assert bound.bound == pytest.approx(1 / (8 * sigma ** 2) + sigma ** 2 / 2, rel=1e-8)

    def test_minimized_over_sigma_hits_ground_energy(self):
        report = fisher_groundstate_bound(EnergyModel("harmonic"))
        assert report.bound == pytest.approx(0.5, rel=1e-9)
        assert report.minimizer["sigma"] == pytest.approx(math.sqrt(0.5), rel=1e-6)

    def test_gravity_exponential_family(self):
        # delta_X = lambda for the exponential density, so the objective is
        # hbar^2/(8 m lambda^2) + m g lambda; check the numeric evaluation
        # against an independently sampled density
        grid = GridSpec(4096, 0.0, 30.0)
        lam = 1.2
        x = grid.points()
        dens = LineDensity(grid, np.exp(-x / lam) / lam)
        report = fisher_bound(dens, EnergyModel("gravity"))
        expected = 1 / (8 * lam ** 2) + lam
        # the endpoint-supported density carries an O(dx/lambda) Riemann
        # normalization bias on the half-open grid
        assert report.bound == pytest.approx(expected, rel=1e-2)
        assert report.minimizer["fisher_length"] == pytest.approx(lam, rel=1e-4)

    def test_bound_below_rayleigh_quotient(self, rng, grid):
        # the bound never exceeds <H> of the real wavefunction sqrt(p)
        x = grid.points()
        v = 0.3 * x ** 2 + 0.5 * np.sin(x)
        model = EnergyModel("sampled", samples=v)
        p = (np.exp(-(x - 1) ** 2 / 2.2) + 0.5 * np.exp(-(x + 1.5) ** 2 / 1.5))
        dens = LineDensity(grid, p)
        bound = fisher_bound(dens, model)
        st = GridPureState(grid, np.sqrt(dens.values).astype(complex))
        parts = energy_identity(st, model)
        assert bound.bound <= parts["direct_energy"] + 1e-8
        assert bound.bound == pytest.approx(parts["direct_energy"], rel=1e-6)


class TestCoulomb:
    def test_natural_units(self):
        report = coulomb_groundstate_bound(1.0, 1.0)
        assert report.bound == pytest.approx(-0.5, rel=1e-9)
        assert report.comparison == pytest.approx(-0.5)
        # closed-form minimizer u* = Z q^2 m / hbar^2
        assert report.minimizer["mean_inverse_radius"] == pytest.approx(1.0, rel=1e-6)

    def test_z_two(self):
        report = coulomb_groundstate_bound(2.0, 1.0)
        assert report.bound == pytest.approx(-2.0, rel=1e-9)

    def test_unit_scaling(self):
        c = Constants(hbar=2.0, mass=3.0)
        report = coulomb_groundstate_bound(1.5, 1.1, c)
        closed = -(1.5 ** 2) * (1.1 ** 4) * 3.0 / (2.0 * 4.0)
        assert report.bound == pytest.approx(closed, rel=1e-9)

    def test_inverse_radius_inequality_on_displaced_gaussian(self):
        grid = GridSpec(2048, -2.0, 14.0)
        x = grid.points()
        dens = LineDensity(grid, np.exp(-(x - 5.0) ** 2 / (2 * 0.8 ** 2)))
        lhs = fisher_length(dens).fisher_information
        rhs = 4.0 * mean_inverse_abs(dens) ** 2
        assert lhs >= rhs
        assert mean_inverse_abs(dens) == pytest.approx(0.2052, rel=1e-2)

    def test_coulomb_fisher_bound_assembles_both_terms(self):
        grid = GridSpec(2048, -2.0, 14.0)
        x = grid.points()
        dens = LineDensity(grid, np.exp(-(x - 5.0) ** 2 / (2 * 0.8 ** 2)))
        model = EnergyModel("coulomb", nuclear_charge=1.5, charge=1.0)
        report = fisher_bound(dens, model)
        fm = fisher_length(dens)
        expected = 1.0 / (8.0 * fm.fisher_length ** 2) - 1.5 * mean_inverse_abs(dens)
        assert report.bound == pytest.approx(expected, rel=1e-12)

    def test_mean_inverse_abs_handles_origin_vanishing_density(self):
        # p ~ x^2 e^{-2x}: the 1/|x| integrand is integrable; Richardson
        # removes the exclusion-cell error;
        # closed form: integral x e^{-2x} / integral x^2 e^{-2x} = 1
        grid = GridSpec(4096, 0.0, 24.0)
        x = grid.points()
        dens = LineDensity(grid, x ** 2 * np.exp(-2 * x))
        assert mean_inverse_abs(dens) == pytest.approx(1.0, rel=1e-4)


class TestEntropic:
    def test_harmonic(self):
        report = entropic_groundstate_bound(EnergyModel("harmonic"))
        assert report.bound == pytest.approx(0.5, rel=1e-6)

    def test_bouncer_coefficient(self):
        report = entropic_groundstate_bound(EnergyModel("gravity"))
        assert report.bound == pytest.approx(1.5 * (math.pi / (2 * math.e)) ** (1 / 3),
                                             rel=1e-9)
        assert abs(report.bound - 1.249) < 1e-3

    def test_bouncer_exact_comparison(self):
        energy = bouncer_exact_energy(EnergyModel("gravity"))
        assert abs(energy - 1.856) < 1e-3
        assert energy == pytest.approx((0.5) ** (1 / 3) * airy_first_zero(), rel=1e-9)

    def test_airy_zero_against_scipy(self):
        from scipy.special import ai_zeros

        reference = -float(ai_zeros(1)[0][0])
        assert airy_first_zero() == pytest.approx(reference, abs=1e-9)

    def test_minimizer_matches_closed_form(self):
        report = entropic_groundstate_bound(EnergyModel("gravity"))
        lam_closed = (math.pi / (2 * math.e)) ** (1 / 3)  # for m = g = hbar = 1
        assert report.minimizer["lambda"] == pytest.approx(lam_closed, rel=1e-6)


class TestOrderingAndDivergence:
    def test_bound_chain_on_real_states(self, rng, grid):
        # entropic(p) <= fisher(p) <= <H> of sqrt(p), for several densities
        x = grid.points()
        model = EnergyModel("harmonic")
        for _ in range(5):
            p = np.zeros(grid.n_points)
            for _ in range(int(rng.integers(1, 4))):
                p += rng.uniform(0.3, 1.0) * np.exp(
                    -(x - rng.uniform(-2, 2)) ** 2 / (2 * rng.uniform(0.7, 1.5) ** 2))
            dens = LineDensity(grid, p)
            ent = entropic_bound(dens, model).bound
            fis = fisher_bound(dens, model).bound
            st = GridPureState(grid, np.sqrt(dens.values).astype(complex))
            direct = energy_identity(st, model)["direct_energy"]
            assert ent <= fis + 1e-8
            assert fis <= direct + 1e-8

    def test_localization_divergence(self):
        # hard-truncated density: the kinetic bound term grows without
        # bound under refinement
        terms = []
        for n in (512, 1024, 2048, 4096):
            grid = GridSpec(n, -10.0, 10.0)
            x = grid.points()
            dens = LineDensity(grid, np.where(np.abs(x) < 2.0,
                                              np.exp(-x ** 2 / 2), 0.0))
            fm = fisher_length(dens)
            terms.append(1.0 / (8.0 * fm.fisher_length ** 2))
        assert terms[0] < terms[1] < terms[2] < terms[3]
        assert terms[3] > 2.5 * terms[0]

    def test_golden_section_on_quartic(self):
        x, val = golden_minimize(lambda t: (t - 1.3) ** 4 + 2.0, 0.0, 4.0)
        assert x == pytest.approx(1.3, abs=1e-3)
        assert val == pytest.approx(2.0, abs=1e-10)
