import numpy as np
import pytest

from exact_uncertainty import states
from exact_uncertainty.errors import VanishingDensity
from exact_uncertainty.grids import GridSpec
from exact_uncertainty.mub import mub_construct
from exact_uncertainty.random_states import (
    random_finite_state,
    random_fock_state,
    random_gaussian_2d,
    random_hermitian,
    random_periodic_state,
    random_smooth_grid_state,
)
from exact_uncertainty.relations import (
    EQUALITY,
    FLAGGED,
    INEQUALITY,
    TOL_GRID,
    verify_conjugate,
    verify_general,
    verify_ivanovic,
    verify_multidim,
    verify_phase_angular,
    verify_phase_number,
    verify_position_momentum,
)
from exact_uncertainty.states import (
    Constants,
    FiniteState,
    Grid2DPureState,
    GridMixedState,
    GridPureState,
    MixedState,
    PeriodicState,
    fock_basis_state,
    fock_state,
    gaussian_state,
    variance,
)


def truncated_gaussian_state(n):
    g = GridSpec(n, -10.0, 10.0)
    x = g.points()
    psi = np.where(x >= 0, np.exp(-x ** 2 / 2), 0.0).astype(complex)
    return GridPureState(g, psi)


# (sigma, center, k, beta, |weight|, weight phase in turns) of the two lumps
# of a seeded `random_smooth_grid_state(..., center_spread=1.2)` draw whose
# momentum density the 1024-point conjugate lattice under-resolves: its
# conjugate residual there is 4.1e-6, over the 1e-6 tolerance
UNDER_RESOLVED_LUMPS = (
    (1.4673389671352295, -0.9010953482767918, 2.6826312637760203,
     0.47641498919011005, 0.44722533242057017, 0.39390900945815277),
    (1.5356551175106272, 0.828635720148297, -0.35924233199751043,
     -0.3726052865216637, 0.36868454550581153, 0.7033647252260139),
)


def under_resolved_state(hbar=1.0):
    """The lumps above, as the generator builds them at hbar = 1; the phases
    stay in units of hbar, so the lattice resolves the state equally at any
    hbar."""
    grid = GridSpec(1024, -20.0, 20.0)
    x = grid.points()
    psi = np.zeros(grid.n_points, dtype=complex)
    for sigma, center, k, beta, size, turn in UNDER_RESOLVED_LUMPS:
        weight = size * np.exp(2j * np.pi * turn)
        psi += weight * np.exp(-((x - center) ** 2) / (4.0 * sigma ** 2)
                               + 1j * (k * x + beta * (x - center) ** 2))
    return GridPureState(grid, psi, Constants(hbar=hbar))


class TestPositionMomentum:
    def test_random_pure_states_saturate(self, rng, grid):
        for _ in range(50):
            report = verify_position_momentum(random_smooth_grid_state(rng, grid))
            assert report.verdict == EQUALITY
            assert report.residual < 1e-6
            assert report.notes["heisenberg_satisfied"]

    def test_gaussian_closed_form(self, grid):
        sigma = 1.2
        report = verify_position_momentum(gaussian_state(grid, sigma))
        # delta_X = sigma and Delta_P_nc = hbar / 2 sigma exactly
        assert report.notes["fisher_length"] == pytest.approx(sigma, rel=1e-9)
        assert report.notes["nonclassical_spread"] == pytest.approx(0.5 / sigma, rel=1e-9)

    # (forward FFTs, inverse FFTs, to_momentum calls) of one report: one
    # forward FFT per member, shared by psi' and psi~; a conjugate report
    # transforms each member to psi~ and differentiates conj(psi~)
    TRANSFORMS = {"xp": (1, 1, 1), "time-frequency": (1, 1, 1), "conjugate": (2, 1, 1),
                  "xp-mixed": (2, 2, 2), "conjugate-mixed": (4, 2, 2)}

    @pytest.mark.parametrize("relation", sorted(TRANSFORMS))
    def test_transforms_per_report(self, monkeypatch, grid, relation):
        from exact_uncertainty import decomposition, states
        from exact_uncertainty.signals import gaussian_pulse, verify_time_frequency

        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
        to_momentum = counted("to_momentum", states.to_momentum)
        for module in (states, decomposition):
            if hasattr(module, "to_momentum"):
                monkeypatch.setattr(module, "to_momentum", to_momentum)
        state = gaussian_state(grid, 1.2, momentum=0.7)
        if relation.endswith("mixed"):
            state = GridMixedState.from_ensemble(
                [(0.4, state), (0.6, gaussian_state(grid, 0.9, center=1.0, chirp=0.2))])
        if relation == "time-frequency":
            verify_time_frequency(gaussian_pulse(GridSpec(1024, -10.0, 10.0), width=0.8,
                                                 carrier=1.2, chirp=0.6))
        elif relation.startswith("xp"):
            verify_position_momentum(state)
        else:
            verify_conjugate(state)
        found = tuple(counts.get(name, 0) for name in ("fft", "ifft", "to_momentum"))
        assert found == self.TRANSFORMS[relation]

    def test_mixture_exceeds_bound(self, grid):
        mix = GridMixedState.from_ensemble([
            (0.5, gaussian_state(grid, 1.0, center=-3.0)),
            (0.5, gaussian_state(grid, 1.0, center=3.0)),
        ])
        report = verify_position_momentum(mix)
        assert report.verdict == INEQUALITY
        assert report.left > 0.5 + 1e-3
        assert report.notes["chain_identity_residual"] < 1e-6
        assert report.notes["chain_slack"] > 0.0

    def test_pure_state_chain_closes(self, grid):
        # for rank-1 rho the chain inequality becomes an equality
        st = gaussian_state(grid, 0.9, momentum=1.0, chirp=0.3)
        mix = GridMixedState.from_ensemble([(1.0, st)])
        report = verify_position_momentum(mix)
        assert report.notes["chain_slack"] == pytest.approx(0.0, abs=1e-8)
        assert report.residual < 1e-6

    def test_truncated_state_flagged(self):
        report = verify_position_momentum(truncated_gaussian_state(1024))
        assert report.verdict == FLAGGED
        assert report.notes["flag"] == "zero-by-discontinuity"
        assert report.notes["partner_divergent"]

    def test_truncated_state_momentum_divergent_under_refinement(self):
        spreads = [np.sqrt(variance(truncated_gaussian_state(n), "P"))
                   for n in (512, 1024, 2048, 4096)]
        assert spreads[0] < spreads[1] < spreads[2] < spreads[3]

    def test_monotone_refinement_of_residuals(self, rng):
        # spectral convergence: residuals fall with n_points until they hit
        # the rounding floor
        floor = 1e-10
        for _ in range(5):
            seed = int(rng.integers(0, 2 ** 31))
            residuals = []
            for n in (128, 256, 512):
                state_rng = np.random.default_rng(seed)
                st = random_smooth_grid_state(state_rng, GridSpec(n, -20.0, 20.0))
                residuals.append(verify_position_momentum(st).residual)
            assert residuals[1] <= residuals[0] + floor
            assert residuals[2] <= residuals[1] + floor


class TestConjugate:
    def test_random_pure_states_saturate(self, rng, grid):
        # narrow center spread: the momentum density must be resolved on
        # the conjugate lattice for the mirrored analysis
        for _ in range(10):
            report = verify_conjugate(
                random_smooth_grid_state(rng, grid, center_spread=1.2))
            assert report.verdict == EQUALITY
            assert report.residual < 1e-6

    def test_gaussian_roles_swap(self, grid):
        sigma = 1.3
        report = verify_conjugate(gaussian_state(grid, sigma))
        # delta_P = hbar / 2 sigma, so Delta_X_nc must equal sigma
        assert report.notes["fisher_length"] == pytest.approx(0.5 / sigma, rel=1e-9)
        assert report.notes["nonclassical_spread"] == pytest.approx(sigma, rel=1e-9)

    def test_mixed_inequality(self, grid):
        # position-displaced members: their phases agree, so the position
        # spread inflates while the momentum density stays one lump
        mix = GridMixedState.from_ensemble([
            (0.5, gaussian_state(grid, 1.0, center=-3.0)),
            (0.5, gaussian_state(grid, 1.0, center=3.0)),
        ])
        report = verify_conjugate(mix)
        assert report.verdict == INEQUALITY
        assert report.left > 0.5 + 1e-3

    def test_momentum_boosted_mixture_nearly_saturates(self, grid):
        # members differing only by plane-wave phases leave X_cl and the
        # momentum Fisher information at their pure-state values
        mix = GridMixedState.from_ensemble([
            (0.5, gaussian_state(grid, 1.0, momentum=-3.0)),
            (0.5, gaussian_state(grid, 1.0, momentum=3.0)),
        ])
        report = verify_conjugate(mix)
        assert report.verdict == INEQUALITY
        assert report.left == pytest.approx(0.5, abs=1e-6)

    def test_state_with_momentum_gap_flagged(self, grid):
        # momentum lobe hard-truncated at its bulk: an O(1) jump bounding a
        # dead momentum band
        from conftest import from_momentum

        pgrid = grid.conjugate_grid()
        p = pgrid.points()
        tilde = np.exp(-(p - 2.0) ** 2 / (2 * 0.7 ** 2)).astype(complex)
        tilde[p < 2.0] = 0.0
        mom = GridPureState(pgrid, tilde)
        st = from_momentum(mom, grid)
        report = verify_conjugate(st)
        assert report.verdict == FLAGGED
        assert report.notes["flag"] == "zero-by-discontinuity"


class TestConjugateRefinement:
    @pytest.mark.parametrize("hbar", [1.0, 2.5])
    def test_under_resolved_violation_refined(self, hbar):
        report = verify_conjugate(under_resolved_state(hbar))
        study = report.notes["resolution_study"]
        assert study["n_points"] == [1024, 2048] == [1024, report.notes["n_points"]]
        assert study["residual"][0] > TOL_GRID
        assert study["residual"][1] == report.residual < 1e-9
        assert study["fisher_length"][1] == report.notes["fisher_length"]
        assert report.verdict == EQUALITY
        assert report.left == pytest.approx(0.5 * hbar, rel=1e-9)

    def test_under_resolved_mixture_refined(self):
        # two phases of one state: rho is pure, so the bound saturates
        state = under_resolved_state()
        turned = GridPureState(state.grid, state.amplitudes * np.exp(0.3j), state.constants)
        report = verify_conjugate(GridMixedState.from_ensemble([(0.5, state), (0.5, turned)]))
        study = report.notes["resolution_study"]
        assert study["n_points"] == [1024, 2048]
        assert study["residual"][0] > TOL_GRID
        assert report.relation_id == "conjugate-mixed"
        assert report.verdict == INEQUALITY

    def test_report_dict_is_a_fresh_copy(self):
        # to_dict converts the fields directly, without asdict's deep copy
        from dataclasses import asdict

        from exact_uncertainty.relations import _jsonable

        report = verify_conjugate(under_resolved_state())
        doc = report.to_dict()
        assert doc == _jsonable(asdict(report))
        doc["notes"]["resolution_study"]["n_points"].append(0)
        assert report.notes["resolution_study"]["n_points"] == [1024, 2048]

    def test_resolved_reports_are_not_refined(self, rng, grid):
        for _ in range(5):
            report = verify_conjugate(random_smooth_grid_state(rng, grid, center_spread=1.2))
            assert report.verdict == EQUALITY
            assert "resolution_study" not in report.notes


class TestPhaseAngular:
    def test_random_wavepackets_saturate(self, rng):
        for _ in range(10):
            report = verify_phase_angular(random_periodic_state(rng))
            assert report.verdict == EQUALITY
            assert report.residual < 1e-6
            assert report.notes["corollary_satisfied"]

    def test_eigenstate_complementarity(self):
        amps = np.zeros(13, dtype=complex)
        amps[9] = 1.0
        report = verify_phase_angular(PeriodicState(-6, 6, amps))
        assert report.verdict == FLAGGED
        assert report.notes["flag"] == "infinite-by-uniformity"
        assert report.notes["partner_nonclassical_variance"] < 1e-10

    def test_discontinuous_phase_density_flagged_and_divergent(self):
        # half-circle phase support: build from a hard-windowed phase
        # wavefunction at several resolutions
        spreads = []
        for j_max in (24, 48, 96):
            m = 8 * (2 * j_max + 1)
            m = 1 << int(np.ceil(np.log2(m)))
            phi = 2 * np.pi * np.arange(m) / m
            f = np.where(np.abs(phi - np.pi) < np.pi / 2, 1.0, 0.0).astype(complex)
            coeffs = np.fft.fft(f) / m  # e^{-i j phi} coefficients
            j = np.arange(-j_max, j_max + 1)
            amps = coeffs[np.mod(j, m)] * np.sqrt(2 * np.pi * m / (2 * np.pi))
            st = PeriodicState(-j_max, j_max, np.conj(amps))
            report = verify_phase_angular(st)
            spreads.append(np.sqrt(variance(st, "J")))
        assert spreads[0] < spreads[1] < spreads[2]

    def test_mixed_rotator_bound(self, rng):
        mix = MixedState.from_ensemble([
            (0.5, random_periodic_state(rng)),
            (0.5, random_periodic_state(rng)),
        ])
        report = verify_phase_angular(mix)
        assert report.verdict in (INEQUALITY, FLAGGED)
        if report.verdict == INEQUALITY:
            assert report.left >= 0.5 * (1 - 1e-6)


class TestPhaseNumber:
    def test_number_eigenstate_flagged(self):
        report = verify_phase_number(fock_basis_state(3, 8))
        assert report.verdict == FLAGGED
        assert report.notes["flag"] == "infinite-by-uniformity"
        assert report.notes["variance_classical"] < 1e-10

    def test_equal_superposition_equality(self):
        st = fock_state(1, np.array([1.0, 1.0]))
        report = verify_phase_number(st, tol=1e-6)
        assert report.verdict == EQUALITY
        assert report.residual < 1e-6

    def test_poissonian_with_resolution_study(self, rng):
        st = random_fock_state(rng, n_max=60, mean=4.0)
        report = verify_phase_number(st, tol=1e-4)
        assert report.verdict == EQUALITY
        study = report.notes["resolution_study"]["fisher_length"]
        assert abs(study[1] - study[0]) < 1e-6 * study[0]

    def test_number_is_the_rotator_on_negative_labels(self, rng, monkeypatch):
        # a photon-number state c_n is the rotator psi_j = c_{-j}: at hbar = 1,
        # on the same phase points and tolerance, both relations read the
        # same numbers (the rotator takes the Fock phase-point rule here)
        monkeypatch.setitem(states.CIRCLE_FAMILIES, "periodic",
                            (1, "J") + states.CIRCLE_FAMILIES["fock"][2:])
        for n_max in (8, 32, 60):
            fock = random_fock_state(rng, n_max, mean=float(rng.uniform(1.0, 6.0)))
            rotator = PeriodicState(-n_max, 0, fock.amplitudes[::-1])
            number = verify_phase_number(fock, tol=1e-4)
            angular = verify_phase_angular(rotator, tol=1e-4)
            assert number.notes["phase_points"] == angular.notes["phase_points"]
            assert number.verdict == angular.verdict == EQUALITY
            pairs = [(number.left, angular.left),
                     (number.notes["variance_total"], angular.notes["variance_total"])]
            pairs += zip(number.notes["resolution_study"]["fisher_length"],
                         angular.notes["resolution_study"]["fisher_length"])
            for a, b in pairs:
                assert a == pytest.approx(b, rel=1e-13)

    def test_mixed_fock_bound(self, rng):
        mix = MixedState.from_ensemble([
            (0.5, random_fock_state(rng, 30, mean=2.0)),
            (0.5, random_fock_state(rng, 30, mean=4.0)),
        ])
        report = verify_phase_number(mix)
        assert report.verdict == INEQUALITY
        assert report.left >= 0.5 * (1 - 1e-4)


class TestGeneral:
    def test_random_pairs_saturate(self, rng):
        for _ in range(10):
            state = random_finite_state(rng, 5)
            report = verify_general(state, random_hermitian(rng, 5),
                                    random_hermitian(rng, 5))
            assert report.verdict == EQUALITY
            assert report.residual < 1e-10

    def test_maximally_mixed_flag(self, rng):
        report = verify_general(FiniteState(np.eye(5) / 5),
                                random_hermitian(rng, 5), random_hermitian(rng, 5))
        assert report.verdict == FLAGGED
        assert report.notes["flag"] == "infinite-by-commuting"

    def test_self_estimate(self, rng):
        a = random_hermitian(rng, 4)
        state = random_finite_state(rng, 4)
        report = verify_general(state, a, a)
        assert report.verdict == FLAGGED
        assert report.notes["nonclassical_spread"] < 1e-7

    def test_mixed_state_inequality(self, rng):
        state = random_finite_state(rng, 4, pure=False)
        report = verify_general(state, random_hermitian(rng, 4), random_hermitian(rng, 4))
        assert report.verdict in (INEQUALITY, FLAGGED)
        if report.verdict == INEQUALITY:
            assert report.left >= 0.5 * (1 - 1e-10)

    def test_zero_probability_labels_downgrade_to_inequality(self, rng):
        # positive rho with a zero-probability eigenlabel: rho|a> vanishes
        # with it, so the label masks away consistently, but the retained
        # sum loses that label's |<a|B psi>|^2 weight and saturation is not
        # guaranteed even for pure states
        a = np.diag([0.0, 1.0, 2.0])
        b = random_hermitian(rng, 3)
        rho = np.zeros((3, 3), dtype=complex)
        rho[1:, 1:] = 0.5
        report = verify_general(FiniteState(rho), a, b)
        assert report.notes["masked_labels"] == 1
        assert report.verdict in (INEQUALITY, FLAGGED)
        assert report.left >= 0.5 * (1 - 1e-10)

    def test_inconsistent_zero_probability_label_raises(self):
        # a Hermitian but indefinite "density matrix" can put weight of
        # B rho on a label of zero probability; that input is rejected
        a = np.diag([0.0, 1.0, 2.0])
        b = np.zeros((3, 3), dtype=complex)
        b[1, 0] = b[0, 1] = 1.0
        rho = np.array([[0.9, 0.3, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.1]], dtype=complex)
        with pytest.raises(ValueError):
            FiniteState(rho)  # clearly indefinite: rejected where it is built
        # within the positivity tolerance (lowest eigenvalue -1.1e-12) a label
        # of zero probability can still carry 1e-6 of B rho
        rho = np.array([[0.0, 1e-6, 0.0], [1e-6, 0.9, 0.0], [0.0, 0.0, 0.1]], dtype=complex)
        with pytest.raises(VanishingDensity):
            verify_general(FiniteState(rho), a, b)

    def test_scales_with_hbar(self, rng):
        state = random_finite_state(rng, 3)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        report = verify_general(state, a, b, hbar=0.7, tol=1e-10)
        assert report.right == pytest.approx(0.35)
        assert report.verdict == EQUALITY

    def test_grid_state_with_position_and_momentum_matrices(self, rng):
        # a grid state is a finite-dimensional space under the sqrt(dx)
        # isometry: A = diag(x) and the spectral momentum matrix close the
        # relation exactly in linear algebra
        g = GridSpec(192, -14.0, 14.0)
        st = random_smooth_grid_state(rng, g, n_lumps=2)
        x_matrix = np.diag(g.points()).astype(complex)
        f = np.fft.fft(np.eye(g.n_points), axis=0)
        k = g.wavenumbers().copy()
        k[g.n_points // 2] = 0.0
        p_matrix = np.fft.ifft(k[:, None] * f, axis=0)  # hbar = 1
        p_matrix = 0.5 * (p_matrix + p_matrix.conj().T)
        report = verify_general(st, x_matrix, p_matrix, tol=1e-10)
        # tail grid labels carry probability < 1e-14 and get masked, which
        # downgrades the verdict to the inequality form, but the product
        # still sits on hbar/2 up to the vanishing lost weight
        assert report.verdict in (EQUALITY, INEQUALITY)
        assert report.left == pytest.approx(0.5, abs=1e-9)


class TestMultidim:
    def test_product_of_gaussians_diagonal(self):
        g = GridSpec(256, -12.0, 12.0)
        s1, s2 = 0.9, 1.5
        x = g.points()
        psi = np.outer(np.exp(-x ** 2 / (4 * s1 ** 2)), np.exp(-x ** 2 / (4 * s2 ** 2)))
        st = Grid2DPureState(g, g, psi.astype(complex))
        report = verify_multidim(st)
        assert report.verdict == EQUALITY
        fcov = np.array(report.notes["fisher_covariance"])
        assert fcov == pytest.approx(np.diag([s1 ** 2, s2 ** 2]), rel=1e-6, abs=1e-9)

    def test_random_correlated_gaussians(self, rng):
        for _ in range(5):
            report = verify_multidim(random_gaussian_2d(rng))
            assert report.verdict == EQUALITY
            assert report.residual < 1e-5
            assert report.notes["volume_residual"] < 1e-5
            assert report.notes["heisenberg_satisfied"]
            assert report.notes["additivity_residual"] < 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_blocks_match_one_block(self, seed, monkeypatch):
        from exact_uncertainty import grids

        st = random_gaussian_2d(np.random.default_rng(seed))
        assert st.amplitudes.shape == (384, 384)
        assert len(list(grids.row_blocks(*st.amplitudes.shape))) > 1
        blocked = verify_multidim(st)
        monkeypatch.setattr(grids, "BLOCK_ROWS", 1 << 20)
        monkeypatch.setattr(grids, "BLOCK_BYTES", 1 << 40)
        assert len(list(grids.row_blocks(*st.amplitudes.shape))) == 1
        whole = verify_multidim(st)

        assert blocked.verdict == whole.verdict
        assert blocked.notes["warnings"] == whole.notes["warnings"]
        assert blocked.notes["heisenberg_satisfied"] == whole.notes["heisenberg_satisfied"]
        # only the summation order of the blocked sums differs
        for name in ("fisher_covariance", "cov_nonclassical"):
            np.testing.assert_allclose(blocked.notes[name], whole.notes[name],
                                       rtol=1e-12, atol=0.0, err_msg=name)
        assert blocked.left == pytest.approx(whole.left, rel=1e-12, abs=0.0)
        assert blocked.residual == pytest.approx(whole.residual, rel=0.0, abs=1e-12)
        for name in ("volume_residual", "additivity_residual", "mixed_partials_residual",
                     "heisenberg_min_eigenvalue"):
            assert blocked.notes[name] == pytest.approx(whole.notes[name], rel=0.0,
                                                        abs=1e-12), name

    def test_peak_memory(self):
        import tracemalloc

        st = random_gaussian_2d(np.random.default_rng(1))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            verify_multidim(st)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        # the axis-0 spectrum plus one row block's temporaries: about 2.3 x psi
        # at 384^2, against 4.9 x psi when the whole grid was one block
        assert peak <= 3 * st.amplitudes.nbytes

    def test_product_with_chirped_factor_keeps_zero_blocks(self):
        g = GridSpec(256, -12.0, 12.0)
        x = g.points()
        f1 = np.exp(-x ** 2 / 4 + 0.4j * x ** 2)
        f2 = np.exp(-x ** 2 / (4 * 1.3 ** 2))
        st = Grid2DPureState(g, g, np.outer(f1, f2))
        report = verify_multidim(st)
        cov_nc = np.array(report.notes["cov_nonclassical"])
        fcov = np.array(report.notes["fisher_covariance"])
        assert abs(cov_nc[0, 1]) < 1e-8
        assert abs(fcov[0, 1]) < 1e-8


class TestIvanovic:
    def test_qubit_eigenstate(self):
        report = verify_ivanovic(FiniteState.from_vector([1.0, 0.0]), mub_construct(2))
        assert report.verdict == EQUALITY
        lengths = report.notes["inverse_collision_lengths"]
        assert sorted(lengths) == pytest.approx([0.5, 0.5, 1.0])

    def test_maximally_mixed_qubit(self):
        report = verify_ivanovic(FiniteState(np.eye(2) / 2), mub_construct(2))
        assert report.left == pytest.approx(1.5, abs=1e-14)
        assert report.right == pytest.approx(1.5, abs=1e-14)

    def test_random_qutrits(self, rng):
        bases = mub_construct(3)
        for _ in range(20):
            report = verify_ivanovic(random_finite_state(rng, 3), bases)
            assert report.verdict == EQUALITY
            assert report.residual < 1e-12


class TestFlagConsistency:
    def test_flagged_reports_never_multiply_infinity(self, rng):
        # every flagged report keeps a finite left/right pair or an explicit
        # inf, and pairs the flag with a zero or divergent partner note
        reports = [
            verify_phase_number(fock_basis_state(4, 9)),
            verify_phase_angular(PeriodicState(-5, 5, np.eye(11)[8])),
            verify_position_momentum(truncated_gaussian_state(1024)),
        ]
        for report in reports:
            assert report.verdict == FLAGGED
            assert "flag" in report.notes
            assert ("partner_divergent" in report.notes
                    or report.notes.get("partner_nonclassical_variance", 1.0) < 1e-8)

    def test_box_warning_propagates_to_reports(self):
        grid = GridSpec(256, -6.0, 6.0)
        st = gaussian_state(grid, 1.4)  # tails near 1e-4 at the box edge
        report = verify_position_momentum(st)
        assert "BoxTooSmall" in report.notes["warnings"]

    def test_saturation_universality(self, rng, grid):
        # >= 50 random smooth pure states per relation family hold the
        # exact equality at tolerance: saturation is generic, not special
        # to minimum-uncertainty states
        from exact_uncertainty.random_states import (
            random_fock_state,
            random_gaussian_2d,
            random_periodic_state,
        )
        from exact_uncertainty.signals import gaussian_pulse, verify_time_frequency

        for _ in range(50):
            assert verify_position_momentum(
                random_smooth_grid_state(rng, grid)).verdict == EQUALITY
            assert verify_conjugate(random_smooth_grid_state(
                rng, grid, center_spread=1.2)).verdict == EQUALITY
            assert verify_phase_angular(random_periodic_state(rng)).verdict == EQUALITY
            assert verify_phase_number(random_fock_state(rng)).verdict == EQUALITY
            state = random_finite_state(rng, 5)
            assert verify_general(state, random_hermitian(rng, 5),
                                  random_hermitian(rng, 5)).verdict == EQUALITY
        tgrid = GridSpec(512, -10.0, 10.0)
        for _ in range(50):
            pulse = gaussian_pulse(tgrid, width=float(rng.uniform(0.5, 1.2)),
                                   carrier=float(rng.uniform(-1.5, 1.5)),
                                   chirp=float(rng.uniform(-0.6, 0.6)))
            assert verify_time_frequency(pulse).verdict == EQUALITY
        for _ in range(50):
            assert verify_multidim(random_gaussian_2d(rng, n_points=384)).verdict \
                == EQUALITY

    def test_implication_chain(self, rng, grid):
        # whenever the exact relation passes, the Heisenberg-type corollary
        # recorded in the same report passes too
        for _ in range(10):
            r = verify_position_momentum(random_smooth_grid_state(rng, grid))
            assert r.verdict == EQUALITY and r.notes["heisenberg_satisfied"]
            rp = verify_phase_angular(random_periodic_state(rng))
            assert rp.verdict == EQUALITY and rp.notes["corollary_satisfied"]


def _unit(amplitudes, measure=1.0):
    """The amplitudes divided by their norm, on a path of the test's own."""
    return amplitudes / np.sqrt(np.sum(np.abs(amplitudes) ** 2) * measure)


class TestUnnormalizedInput:
    """A state built from unnormalized amplitudes gets the verdict and the
    left side of the normalized state: the constructors normalize."""

    @staticmethod
    def assert_same_report(scaled, unit, verdict, left):
        assert scaled.verdict == unit.verdict == verdict
        assert abs(scaled.left - unit.left) <= 1e-12 * abs(unit.left)
        assert unit.left == pytest.approx(left, rel=1e-6)

    @pytest.mark.parametrize("verify", [verify_position_momentum, verify_conjugate])
    def test_scaled_gaussian(self, grid, verify):
        psi = gaussian_state(grid, 1.0).amplitudes
        report = verify(GridPureState(grid, 3.0 * psi))
        self.assert_same_report(report, verify(GridPureState(grid, _unit(psi, grid.dx))),
                                EQUALITY, 0.5)
        assert abs(report.left - 0.5) < 1e-11  # the unit-norm Gaussian reads 0.5 + 1.4e-12 (xp)

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_two_lump_superposition(self, n):
        g = GridSpec(n, -20.0, 20.0)
        psi = (gaussian_state(g, 1.0, center=-3.0, momentum=1.0).amplitudes
               + gaussian_state(g, 0.8, center=3.0, momentum=-0.5).amplitudes)
        self.assert_same_report(verify_position_momentum(GridPureState(g, psi)),
                                verify_position_momentum(GridPureState(g, _unit(psi, g.dx))),
                                EQUALITY, 0.5)

    def test_scaled_rotator(self):
        j = np.arange(-5, 6)
        c = np.exp(-(j - 0.5) ** 2 / 4.0 + 0.4j * j)
        self.assert_same_report(verify_phase_angular(PeriodicState(-5, 5, 3.0 * c)),
                                verify_phase_angular(PeriodicState(-5, 5, _unit(c))),
                                EQUALITY, 0.5)

    def test_scaled_fock_state(self):
        n = np.arange(9)
        c = np.exp(-(n - 3.0) ** 2 / 6.0 - 0.7j * n)
        self.assert_same_report(verify_phase_number(fock_state(8, 3.0 * c)),
                                verify_phase_number(fock_state(8, _unit(c))),
                                EQUALITY, 0.5)

    def test_scaled_plane_state(self):
        st = random_gaussian_2d(np.random.default_rng(7))
        measure = st.grid_x.dx * st.grid_y.dx
        scaled = Grid2DPureState(st.grid_x, st.grid_y, 3.0 * st.amplitudes)
        unit = Grid2DPureState(st.grid_x, st.grid_y, _unit(st.amplitudes, measure))
        self.assert_same_report(verify_multidim(scaled), verify_multidim(unit), EQUALITY, 0.25)

    def test_mixture_with_a_scaled_member(self, grid):
        rng = np.random.default_rng(11)
        a = random_smooth_grid_state(rng, grid)
        b = random_smooth_grid_state(rng, grid)
        scaled = MixedState.from_ensemble([(0.4, GridPureState(grid, 3.0 * a.amplitudes)),
                                           (0.6, b)])
        unit = MixedState.from_ensemble([(0.4, a), (0.6, b)])
        report, reference = verify_position_momentum(scaled), verify_position_momentum(unit)
        assert report.verdict == reference.verdict == INEQUALITY
        assert abs(report.left - reference.left) <= 1e-12 * reference.left

    def test_scaled_finite_state(self, rng):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        bases = mub_construct(3)
        report, reference = verify_ivanovic(FiniteState(2.0 * rho), bases), verify_ivanovic(
            FiniteState(rho), bases)
        assert report.verdict == reference.verdict == EQUALITY
        assert abs(report.left - reference.left) <= 1e-12 * reference.left
        assert abs(report.right - reference.right) <= 1e-12 * reference.right
