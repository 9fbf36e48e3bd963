"""Acceptance suite: every headline identity at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output summary), and asserts the criterion at the pinned numbers.
"""

import time
from math import lgamma

import numpy as np
import pytest

from exact_uncertainty.decomposition import classical_estimate, energy_split
from exact_uncertainty.densities import LineDensity
from exact_uncertainty.energy import (
    EnergyModel,
    airy_first_zero,
    bouncer_exact_energy,
    coulomb_groundstate_bound,
    entropic_groundstate_bound,
)
from exact_uncertainty.fisher import diffusion_entropy_rate, fisher_length
from exact_uncertainty.grids import GridSpec
from exact_uncertainty.mub import mub_construct
from exact_uncertainty.random_states import (
    random_finite_state,
    random_gaussian_2d,
    random_hermitian,
    random_smooth_grid_state,
)
from exact_uncertainty.relations import (
    EQUALITY,
    FLAGGED,
    INEQUALITY,
    verify_general,
    verify_ivanovic,
    verify_phase_number,
    verify_position_momentum,
)
from exact_uncertainty.signals import gaussian_pulse, signal_from_samples, verify_time_frequency
from exact_uncertainty.states import (
    FiniteState,
    GridMixedState,
    GridPureState,
    fock_basis_state,
    fock_state,
    gaussian_state,
    variance,
)
from exact_uncertainty.twoparticle import (
    EprParams,
    build_epr,
    collapse_momentum,
    correlation_relation,
    correlations,
    epr_grids,
    momentum_collapse_prediction,
    nonclassical_components_2d,
    pair_moments,
)
from exact_uncertainty.wigner import wigner_average_momentum, wigner_transform

GRID = GridSpec(1024, -20.0, 20.0)


def report_line(num, ok, text):
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")


def suite_states(n=50, seed=1234):
    rng = np.random.default_rng(seed)
    return [random_smooth_grid_state(rng, GRID) for _ in range(n)]


def poissonian(mean, n_max):
    n = np.arange(n_max + 1)
    log_mag = 0.5 * (n * np.log(mean) - np.array([lgamma(v + 1.0) for v in n]) - mean)
    return fock_state(n_max, np.exp(log_mag))


def test_criterion_01_exact_position_momentum():
    ok = False
    try:
        start = time.perf_counter()
        worst = 0.0
        for st in suite_states():
            rep = verify_position_momentum(st, tol=1e-6)
            assert rep.verdict == EQUALITY
            worst = max(worst, rep.residual)
        elapsed = time.perf_counter() - start
        assert worst < 1e-6
        assert elapsed < 10.0
        ok = True
    finally:
        report_line(1, ok, f"50 random pure states saturate delta_X*Delta_P_nc=hbar/2 "
                           f"(worst residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_mixed_state_chain():
    ok = False
    try:
        rng = np.random.default_rng(77)
        min_margin = np.inf
        for _ in range(10):
            sig = rng.uniform(0.8, 1.3)
            # around the +-3 sigma regime of maximal mixedness effect: much
            # wider and the ensemble ignorance stops moving the product
            sep = rng.uniform(2.5, 3.2) * sig
            w = rng.uniform(0.35, 0.65)
            mix = GridMixedState.from_ensemble([
                (w, gaussian_state(GRID, sig, center=-sep)),
                (1.0 - w, gaussian_state(GRID, sig, center=sep)),
            ])
            rep = verify_position_momentum(mix, tol=1e-6)
            assert rep.verdict == INEQUALITY
            assert rep.notes["chain_identity_residual"] < 1e-6
            assert rep.notes["chain_slack"] > 0.0
            min_margin = min(min_margin, rep.left - rep.right)
        assert min_margin > 1e-3
        ok = True
    finally:
        report_line(2, ok, f"10 two-Gaussian mixtures close the density-operator chain "
                           f"(min product margin {min_margin:.2e} > 1e-3)")


def test_criterion_03_wigner_identity():
    ok = False
    try:
        rng = np.random.default_rng(4321)
        states = suite_states()
        states += [GridMixedState.from_ensemble([
            (0.5, random_smooth_grid_state(rng, GRID)),
            (0.5, random_smooth_grid_state(rng, GRID)),
        ]) for _ in range(5)]
        worst = 0.0
        for st in states:
            w = wigner_transform(st)
            _, pav, mask = wigner_average_momentum(w)
            comp = classical_estimate(st, "position", "P")
            m = mask & comp.mask
            dev = np.abs(pav - comp.values) * w.position_marginal()
            worst = max(worst, float(dev[m].max()))
        assert worst < 1e-6
        ok = True
    finally:
        report_line(3, ok, f"P_av from the Wigner function reproduces P_cl, 50 pure + 5 "
                           f"mixed states (worst weighted deviation {worst:.2e})")


def test_criterion_04_phase_number():
    ok = False
    try:
        sup = fock_state(1, np.array([1.0, 1.0]))
        rep_sup = verify_phase_number(sup, tol=1e-4)
        assert rep_sup.verdict == EQUALITY and rep_sup.residual < 1e-4

        lefts = []
        for n_max in (60, 120):  # truncation doubling
            rep = verify_phase_number(poissonian(4.0, n_max), tol=1e-4)
            assert rep.verdict == EQUALITY and rep.residual < 1e-4
            lefts.append(rep.left)
        assert abs(lefts[1] - lefts[0]) < 1e-4

        eig = fock_basis_state(3, 8)
        rep_eig = verify_phase_number(eig)
        assert rep_eig.verdict == FLAGGED
        assert rep_eig.notes["flag"] == "infinite-by-uniformity"
        assert rep_eig.notes["variance_classical"] < 1e-10
        e_cl, e_nc = energy_split(eig)
        assert abs(e_nc - 0.5) < 1e-10
        ok = True
    finally:
        report_line(4, ok, "delta_Phi*Delta_N_nc = 1/2 for superposition and Poissonian "
                           "states; number eigenstates complement with E_nc = hbar*omega/2")


def test_criterion_05_collision_sum_rule():
    ok = False
    try:
        worst = 0.0
        for d in (2, 3):
            bases = mub_construct(d)
            rng = np.random.default_rng(d)
            for _ in range(100):
                rep = verify_ivanovic(random_finite_state(rng, d), bases)
                worst = max(worst, rep.residual)
                assert rep.residual < 1e-12
        half = verify_ivanovic(FiniteState(np.eye(2) / 2), mub_construct(2))
        assert half.left == 1.5 and half.right == 1.5
        ok = True
    finally:
        report_line(5, ok, f"collision-length sum rule on 100 qubit + 100 qutrit pure "
                           f"states (worst residual {worst:.1e}); I/2 gives exactly 3/2")


def test_criterion_06_energy_bounds():
    ok = False
    try:
        coulomb = coulomb_groundstate_bound(1.0, 1.0)
        assert abs(coulomb.bound - (-0.5)) < 1e-9

        harmonic = entropic_groundstate_bound(EnergyModel("harmonic"))
        assert abs(harmonic.bound - 0.5) < 1e-6

        model = EnergyModel("gravity")
        bouncer = entropic_groundstate_bound(model)
        assert abs(bouncer.bound - 1.249) < 1e-3
        assert abs(bouncer_exact_energy(model) - 1.856) < 1e-3
        assert abs(airy_first_zero() - 2.3381) < 1e-4
        ok = True
    finally:
        report_line(6, ok, "Coulomb -Z^2 q^4 m / 2 hbar^2, harmonic hbar*omega/2, and "
                           "bouncer 1.249 / 1.856 bounds all reproduced")


@pytest.fixture(scope="module")
def epr_state():
    params = EprParams(a=1.0, sigma=0.1, tau=10.0, p0=2.0)
    gx, gy = epr_grids(params)  # 5120 points, dx = sigma/8
    return params, build_epr(params, gx, gy)


def test_criterion_07_epr_demo(epr_state):
    ok = False
    try:
        params, state = epr_state
        # one decomposition feeds the moments, the matrix relation and the
        # correlations (epr_moments and correlation_relation each run one)
        parts = nonclassical_components_2d(state)
        m = pair_moments(parts)
        assert abs(m["mean_relative_position"] - 1.0) < 1e-4
        assert abs(m["mean_total_momentum"] - 2.0) < 1e-4
        assert abs(m["var_relative_position"] - params.sigma ** 2) < 1e-4 * params.sigma ** 2
        assert abs(m["var_total_momentum"] - params.tau ** -2) < 1e-4 * params.tau ** -2

        product = parts.cov_position @ parts.cov_momentum
        matrix_residual = float(np.max(np.abs(product - 0.25 * np.eye(2))) / 0.25)
        assert matrix_residual < 1e-4

        corr = correlations(parts)
        assert abs(corr.r_pearson_position + corr.r_pearson_momentum) < 1e-3

        _, comp = collapse_momentum(state, 0.5)
        predicted = momentum_collapse_prediction(params, 0.5)
        collapse_err = abs(comp.mean - predicted)
        assert collapse_err < 1e-5
        ok = True
    finally:
        report_line(7, ok, f"EPR state sigma=0.1 tau=10: moments, matrix relation "
                           f"(residual {matrix_residual:.1e}), correlation sum, and "
                           f"momentum collapse (error {collapse_err:.1e})")


def test_criterion_08_correlation_relation():
    ok = False
    try:
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(20):
            rel = correlation_relation(random_gaussian_2d(rng))
            worst = max(worst, rel.residual)
        assert worst < 1e-6
        ok = True
    finally:
        report_line(8, ok, f"r_P(P_nc) + r_F(X) = 0 on 20 random correlated Gaussians "
                           f"(worst residual {worst:.2e})")


def test_criterion_09_diffusion_entropy_rate():
    ok = False
    try:
        dens = LineDensity(GRID, gaussian_state(GRID, 1.0).position_density())
        run = diffusion_entropy_rate(dens, gamma=1e-3, drift=0.0, dt=1e-2, steps=10)
        predicted = run.gamma / run.fisher_lengths ** 2
        initial_err = abs(run.rate_estimates[0] - predicted[0]) / predicted[0]
        assert initial_err < 1e-2
        for k in range(1, 10):
            assert abs(run.rate_estimates[k] - predicted[k]) / predicted[k] < 2e-2
        ok = True
    finally:
        report_line(9, ok, f"entropy production rate matches gamma/delta_X^2 "
                           f"(t=0 error {initial_err:.2e}, 10-step run within 2%)")


def test_criterion_10_time_frequency():
    ok = False
    try:
        tgrid = GridSpec(1024, -10.0, 10.0)
        chirped = gaussian_pulse(tgrid, width=0.8, carrier=1.2, chirp=0.7)
        rep = verify_time_frequency(chirped, tol=1e-6)
        assert rep.verdict == EQUALITY and rep.residual < 1e-6

        variances = []
        for n in (512, 1024, 2048):
            g = GridSpec(n, -10.0, 10.0)
            t = g.points()
            sig = signal_from_samples(t, np.where(t >= -2.0, np.exp(-t ** 2 / 2), 0.0))
            r = verify_time_frequency(sig)
            assert r.verdict == FLAGGED
            variances.append(r.notes["var_frequency"])
        growth = np.diff(variances)
        assert variances[0] < variances[1] < variances[2]
        assert growth[1] / growth[0] > 1.7  # band-limited part doubles per refinement
        ok = True
    finally:
        report_line(10, ok, f"chirped pulse saturates Delta_f_fluc*delta_t = 1/4pi "
                            f"(residual {rep.residual:.1e}); causal pulse flagged with "
                            f"divergent bandwidth")


def test_criterion_11_generalized_relation():
    ok = False
    try:
        rng = np.random.default_rng(1111)
        worst = 0.0
        for _ in range(10):
            state = random_finite_state(rng, 5)
            rep = verify_general(state, random_hermitian(rng, 5), random_hermitian(rng, 5),
                                 tol=1e-10)
            assert rep.verdict == EQUALITY
            worst = max(worst, rep.residual)
        assert worst < 1e-10

        mixed = verify_general(FiniteState(np.eye(5) / 5), random_hermitian(rng, 5),
                               random_hermitian(rng, 5))
        assert mixed.verdict == FLAGGED
        assert mixed.notes["flag"] == "infinite-by-commuting"
        ok = True
    finally:
        report_line(11, ok, f"dimension-5 pure pairs saturate the generalized relation "
                            f"(worst residual {worst:.1e}); maximally mixed flags as "
                            f"commuting")


def test_criterion_12_divergence_theorems():
    ok = False
    try:
        spreads = []
        for n in (512, 1024, 2048, 4096):
            g = GridSpec(n, -10.0, 10.0)
            x = g.points()
            st = GridPureState(g, np.where(x >= 0, np.exp(-x ** 2 / 2), 0.0).astype(complex))
            rep = verify_position_momentum(st)
            assert rep.verdict == FLAGGED
            assert rep.notes["flag"] == "zero-by-discontinuity"
            dens = LineDensity(g, st.position_density())
            fm = fisher_length(dens)
            assert fm.divergence_flag == "zero-by-discontinuity"
            spreads.append(np.sqrt(variance(st, "P")))
        assert spreads[0] < spreads[1] < spreads[2] < spreads[3]
        ok = True
    finally:
        report_line(12, ok, f"half-line truncation: discontinuity flag plus momentum "
                            f"spread growing {spreads[0]:.2f} -> {spreads[3]:.2f} over "
                            f"three refinements")
