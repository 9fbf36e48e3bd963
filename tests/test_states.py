import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from exact_uncertainty.decomposition import classical_estimate
from exact_uncertainty.errors import ParseError, UnsupportedObservable, ZeroNorm
from exact_uncertainty.grids import GridSpec
from conftest import from_momentum
from exact_uncertainty.random_states import (
    random_finite_state,
    random_fock_state,
    random_periodic_state,
    random_smooth_grid_state,
)
from exact_uncertainty.states import (
    Constants,
    FiniteState,
    Grid2DPureState,
    GridMixedState,
    GridPureState,
    MixedState,
    PeriodicState,
    evolve_step,
    fock_basis_state,
    fock_state,
    gaussian_state,
    moment,
    momentum_density,
    pure_state,
    state_from_dict,
    state_to_dict,
    to_momentum,
    variance,
)


def test_constants_positive():
    with pytest.raises(ValueError):
        Constants(hbar=-1.0)


def _unit_states():
    """One unit-norm state of each pure class, and its constructor."""
    g = GridSpec(64, -8.0, 8.0)
    x = g.points()
    line = np.exp(-(x - 0.5) ** 2 / 2 + 0.7j * x)
    labels = np.exp(-(np.arange(-5, 6) - 1.0) ** 2 / 4.5 + 0.3j * np.arange(11))
    return [
        (lambda a: GridPureState(g, a), GridPureState(g, line).amplitudes),
        (lambda a: PeriodicState(-5, 5, a), PeriodicState(-5, 5, labels).amplitudes),
        (lambda a: fock_state(10, a), fock_state(10, labels).amplitudes),
        (lambda a: Grid2DPureState(g, g, a), Grid2DPureState(g, g, np.outer(line, line)).amplitudes),
    ]


class TestNormalize:
    """Every pure state is normalized where it is built, at any scale."""

    def test_identity_on_normalized(self, grid):
        # a normalized input keeps its bits
        st = gaussian_state(grid, 1.0)
        assert np.array_equal(GridPureState(grid, st.amplitudes).amplitudes, st.amplitudes)
        for build, unit in _unit_states():
            assert np.array_equal(build(unit).amplitudes, unit)

    def test_scaling(self, grid):
        st = gaussian_state(grid, 1.0)
        scaled = GridPureState(grid, 3.0 * st.amplitudes)
        assert np.allclose(scaled.amplitudes, st.amplitudes, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-8, 3.0, 1e100, 1e200])
    def test_any_scale(self, scale):
        for build, unit in _unit_states():
            st = build(scale * unit)
            assert st.norm_squared == pytest.approx(1.0, abs=1e-14)
            assert np.max(np.abs(st.amplitudes - unit)) < 1e-14 * np.max(np.abs(unit))

    def test_zero_norm(self, grid):
        with pytest.raises(ZeroNorm):
            GridPureState(grid, np.zeros(grid.n_points))
        for build, unit in _unit_states():
            with pytest.raises(ZeroNorm):
                build(np.zeros_like(unit))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entry(self, entry):
        for build, unit in _unit_states():
            bad = unit.copy()
            bad.flat[3] = entry
            with pytest.raises(ParseError):
                build(bad)

    def test_finite_trace(self, rng):
        rho = random_finite_state(rng, 3, pure=False).matrix
        assert np.array_equal(FiniteState(rho).matrix, rho)
        for scale in (1e-200, 2.0, 1e200):
            assert np.max(np.abs(FiniteState(scale * rho).matrix - rho)) < 1e-15
        with pytest.raises(ZeroNorm):
            FiniteState(np.zeros((3, 3)))

    def test_2d_norm_makes_no_full_size_temporary(self):
        import tracemalloc

        g = GridSpec(512, -8.0, 8.0)
        x = g.points()
        psi = Grid2DPureState(g, g, np.outer(np.exp(-x ** 2 / 2), np.exp(-x ** 2 / 3))).amplitudes
        tracemalloc.start()
        try:
            st = Grid2DPureState(g, g, psi)
            norm = st.norm_squared
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm == pytest.approx(1.0, abs=1e-14)
        assert peak < psi.size * 8 / 4  # |psi|^2 of the whole grid would be psi.size * 8 bytes


class TestMomentum:
    def test_gaussian_width(self, grid):
        # quadrature oracle on the analytic transform: |psi~|^2 is a Gaussian
        # with spread hbar / 2 sigma
        sigma = 0.9
        st = gaussian_state(grid, sigma)
        mom = to_momentum(st)
        p = mom.grid.points()
        dens = np.abs(mom.amplitudes) ** 2
        oracle = np.exp(-2 * sigma ** 2 * p ** 2)
        oracle /= np.sum(oracle) * mom.grid.dx
        assert np.max(np.abs(dens - oracle)) < 1e-10
        assert np.sqrt(variance(st, "P")) == pytest.approx(0.5 / sigma, rel=1e-10)

    def test_shift_theorem(self, grid):
        k = 2.3
        plain = to_momentum(gaussian_state(grid, 1.1))
        boosted = to_momentum(gaussian_state(grid, 1.1, momentum=k))
        p = plain.grid.points()
        dens_plain = np.abs(plain.amplitudes) ** 2
        dens_boost = np.abs(boosted.amplitudes) ** 2
        # quadrature check of the shift: first moments differ by hbar k
        dp = plain.grid.dx
        assert np.sum(p * dens_boost) * dp - np.sum(p * dens_plain) * dp == pytest.approx(
            k, abs=1e-10)

    def test_parseval_and_round_trip(self, rng, grid):
        from exact_uncertainty.random_states import random_smooth_grid_state

        st = random_smooth_grid_state(rng, grid)
        mom = to_momentum(st)
        assert mom.norm_squared == pytest.approx(1.0, abs=1e-10)
        # the constructor normalizes, so Parseval is checked on an overlap
        other = random_smooth_grid_state(rng, grid)
        overlap = np.vdot(st.amplitudes, other.amplitudes) * grid.dx
        assert np.vdot(mom.amplitudes, to_momentum(other).amplitudes) * mom.grid.dx \
            == pytest.approx(overlap, abs=1e-10)
        back = from_momentum(mom, grid)
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) < 1e-10


class TestMoment:
    def test_gaussian_position_variance(self, grid):
        sigma = 1.4
        st = gaussian_state(grid, sigma)
        assert moment(st, "X", 2) == pytest.approx(sigma ** 2, rel=1e-12)

    def test_fock_eigenstate(self):
        st = fock_basis_state(3, 6)
        assert moment(st, "N", 1) == pytest.approx(3.0)

    def test_rotator_eigenstate(self):
        amps = np.zeros(9)
        amps[6] = 1.0  # j = 2 for j_min = -4
        st = PeriodicState(-4, 4, amps)
        assert moment(st, "J", 2) == pytest.approx(4.0)

    def test_unsupported(self, grid):
        with pytest.raises(UnsupportedObservable):
            moment(gaussian_state(grid, 1.0), "N", 1)


class TestEvolve:
    def test_free_spreading_matches_closed_form(self, grid):
        sigma, dt = 1.0, 0.05
        st = gaussian_state(grid, sigma)
        stepped = st
        for _ in range(20):
            stepped = evolve_step(stepped, None, dt)
        t = 20 * dt
        expected = sigma ** 2 + (t / (2 * sigma)) ** 2  # hbar = m = 1
        assert moment(stepped, "X", 2) == pytest.approx(expected, rel=1e-6)
        assert stepped.norm_squared == pytest.approx(1.0, abs=1e-10)

    def test_zero_step_is_identity(self, grid):
        st = gaussian_state(grid, 1.0)
        out = evolve_step(st, np.zeros(grid.n_points), 0.0)
        assert np.max(np.abs(out.amplitudes - st.amplitudes)) < 1e-14

    def test_rotator_eigenstate_density_stationary(self):
        amps = np.zeros(11, dtype=complex)
        amps[8] = 1.0
        st = PeriodicState(-5, 5, amps)
        out = evolve_step(st, None, 0.3)
        assert np.max(np.abs(out.phase_density() - st.phase_density())) < 1e-12

    def test_potential_step_preserves_norm(self, rng, grid):
        from exact_uncertainty.random_states import random_smooth_grid_state

        st = random_smooth_grid_state(rng, grid)
        v = 0.5 * grid.points() ** 2
        out = evolve_step(st, v, 1e-3)
        assert out.norm_squared == pytest.approx(1.0, abs=1e-10)
        # the constructor normalizes, so unitarity is checked on an overlap
        other = random_smooth_grid_state(rng, grid)
        assert np.vdot(out.amplitudes, evolve_step(other, v, 1e-3).amplitudes) * grid.dx \
            == pytest.approx(np.vdot(st.amplitudes, other.amplitudes) * grid.dx, abs=1e-10)

    def test_rotator_pendulum_norm(self, rng):
        from exact_uncertainty.random_states import random_periodic_state

        st = random_periodic_state(rng)
        v = np.cos(st.phase_grid())
        out = evolve_step(st, v, 1e-3)
        assert out.norm_squared == pytest.approx(1.0, abs=1e-10)
        other = random_periodic_state(rng)  # unitarity, on an overlap
        assert np.vdot(out.amplitudes, evolve_step(other, v, 1e-3).amplitudes) \
            == pytest.approx(np.vdot(st.amplitudes, other.amplitudes), abs=1e-10)

    def test_split_step_is_second_order(self, grid):
        # coherent oscillator state: <X(t)> = x0 cos(t); the global error
        # of the split stepping must shrink ~4x when dt halves
        v = 0.5 * grid.points() ** 2
        t_final, x0 = 0.5, 2.0

        def mean_error(dt):
            st = gaussian_state(grid, np.sqrt(0.5), center=x0)
            for _ in range(int(round(t_final / dt))):
                st = evolve_step(st, v, dt)
            return abs(moment(st, "X", 1) - x0 * np.cos(t_final))

        ratio = mean_error(0.02) / mean_error(0.01)
        assert 3.0 < ratio < 5.0


def test_momentum_variance_consistent_with_spectral_operator(rng, grid):
    # Var P from the momentum density equals <psi|P^2|psi> - <psi|P|psi>^2
    # computed with spectral derivatives
    from exact_uncertainty.grids import spectral_derivative
    from exact_uncertainty.random_states import random_smooth_grid_state

    st = random_smooth_grid_state(rng, grid)
    psi = st.amplitudes
    dpsi = spectral_derivative(psi, grid)
    d2psi = spectral_derivative(dpsi, grid)
    p1 = np.real(np.sum(np.conj(psi) * (-1j) * dpsi)) * grid.dx
    p2 = np.real(np.sum(np.conj(psi) * (-1.0) * d2psi)) * grid.dx
    direct = p2 - p1 ** 2
    assert variance(st, "P") == pytest.approx(direct, rel=1e-8)


class TestMixed:
    def test_ensemble_trace_and_purity(self, grid):
        a = gaussian_state(grid, 1.0, center=-2.0)
        b = gaussian_state(grid, 1.0, center=2.0)
        mix = GridMixedState.from_ensemble([(0.5, a), (0.5, b)])
        assert mix.trace == pytest.approx(1.0, abs=1e-12)
        assert mix.purity < 1.0
        pure = GridMixedState.from_ensemble([(1.0, a)])
        assert pure.purity == pytest.approx(1.0, abs=1e-10)

    def test_eigenvalue_floor(self, grid):
        small = GridSpec(256, -12.0, 12.0)
        a = gaussian_state(small, 1.0, center=-1.5)
        b = gaussian_state(small, 0.8, center=1.5, momentum=1.0)
        mix = GridMixedState.from_ensemble([(0.6, a), (0.4, b)])
        eigs = np.linalg.eigvalsh(mix.matrix)
        assert eigs.min() >= -1e-10 * eigs.max()

    def test_momentum_density_matches_ensemble(self, grid):
        a = gaussian_state(grid, 1.0, momentum=1.0)
        b = gaussian_state(grid, 1.3, momentum=-0.5)
        mix = GridMixedState.from_ensemble([(0.3, a), (0.7, b)])
        _, dens = momentum_density(mix)
        _, da = momentum_density(a)
        _, db = momentum_density(b)
        assert np.max(np.abs(dens - 0.3 * da - 0.7 * db)) < 1e-10

    def test_non_hermitian_rejected(self, grid):
        mat = np.zeros((grid.n_points, grid.n_points), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError):
            MixedState.from_matrix(mat, "grid", grid)

    def test_matrix_is_factored_and_normalized(self):
        small = GridSpec(128, -10.0, 10.0)
        a = gaussian_state(small, 1.0, center=-1.5)
        b = gaussian_state(small, 0.8, center=1.5, momentum=1.0)
        mix = GridMixedState.from_ensemble([(0.6, a), (0.4, b)])
        back = MixedState.from_matrix(3.0 * mix.matrix, "grid", small)
        assert isinstance(back, MixedState) and len(back.members) == 2
        assert back.trace == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(back.matrix - mix.matrix)) < 1e-12

    def test_non_positive_and_zero_matrices_rejected(self):
        small = GridSpec(64, -8.0, 8.0)
        a = gaussian_state(small, 1.0, center=-1.0).amplitudes
        b = gaussian_state(small, 1.0, center=1.0).amplitudes
        with pytest.raises(ValueError):
            MixedState.from_matrix(np.outer(a, a.conj()) - 0.3 * np.outer(b, b.conj()),
                                   "grid", small)
        with pytest.raises(ZeroNorm):
            MixedState.from_matrix(np.zeros((4, 4)), "fock", range(4))

    def test_member_sums_match_matrix_oracle(self, rng):
        # the n x n sandwiches <a|rho|a> and <a|B rho + rho B|a>/2, evaluated
        # on rho itself with explicit kernels, against the member sums
        small = GridSpec(256, -12.0, 12.0)
        mix = GridMixedState.from_ensemble([(0.3, random_smooth_grid_state(rng, small)),
                                            (0.7, random_smooth_grid_state(rng, small))])
        rho = mix.matrix
        x, p = small.points(), small.conjugate_grid().points()
        fourier = np.exp(-1j * np.outer(p, x)) * small.dx / np.sqrt(2.0 * np.pi)
        dens_p = np.real(np.einsum("pa,ab,pb->p", fourier, rho, fourier.conj()))
        assert np.max(np.abs(momentum_density(mix)[1] - dens_p)) < 1e-12
        k = small.wavenumbers()
        k[small.n_points // 2] = 0.0
        p_rho = -1j * np.fft.ifft(1j * k[:, None] * np.fft.fft(rho, axis=0), axis=0)
        comp = classical_estimate(mix, "position", "P")
        core = comp.weights > 1e-8 * comp.weights.max()
        numerator = comp.values * mix.position_density()
        assert np.max(np.abs(numerator[core] - np.real(np.diag(p_rho))[core])) < 1e-10

        for members, sign, observable in (
                ([random_periodic_state(rng) for _ in range(2)], 1, "J"),
                ([random_fock_state(rng, 20, mean=m) for m in (2.0, 5.0)], -1, "N")):
            circ = MixedState.from_ensemble([(0.4, members[0]), (0.6, members[1])])
            labels = sign * members[0].j_values
            m = circ.default_phase_points()
            kernel = np.exp(sign * 1j * np.outer(circ.phase_grid(m), labels)) / np.sqrt(2 * np.pi)
            rho = circ.matrix
            dens = np.real(np.einsum("mj,jk,mk->m", kernel, rho, kernel.conj()))
            num = np.real(np.einsum("mj,jk,mk->m", kernel, labels[:, None] * rho, kernel.conj()))
            assert np.max(np.abs(circ.phase_density(m) - dens)) < 1e-12
            comp = classical_estimate(circ, "phase", observable)
            assert np.max(np.abs(comp.values * dens - num)[comp.mask]) < 1e-10


class TestJsonSchema:
    def test_grid_round_trip(self, grid):
        st = gaussian_state(grid, 1.0, momentum=0.7)
        doc = state_to_dict(st)
        assert doc["family"] == "grid"
        back = state_from_dict(doc)
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) < 1e-15

    def test_fock_round_trip(self):
        st = fock_basis_state(2, 5)
        back = state_from_dict(state_to_dict(st))
        assert back.family == "fock"
        assert np.allclose(back.amplitudes, st.amplitudes)

    def test_periodic_round_trip(self):
        amps = np.exp(-np.arange(-4, 5) ** 2 / 4.0)
        st = PeriodicState(-4, 4, amps)
        back = state_from_dict(state_to_dict(st))
        assert np.allclose(back.amplitudes, st.amplitudes)

    def test_mixed_round_trip(self, grid):
        small = GridSpec(64, -8.0, 8.0)
        mix = GridMixedState.from_ensemble([(1.0, gaussian_state(small, 1.0))])
        back = state_from_dict(state_to_dict(mix))
        assert np.max(np.abs(back.matrix - mix.matrix)) < 1e-15

    @pytest.mark.parametrize("family, space", [("grid", GridSpec(32, -6.0, 6.0)),
                                               ("periodic", range(-3, 5)),
                                               ("fock", range(8))])
    def test_from_matrix_round_trips_through_a_file(self, family, space, rng):
        import json

        n = space.n_points if family == "grid" else len(space)
        members = [_random_vector(rng, n) for _ in range(2)]
        mix = MixedState.from_ensemble([(0.3, pure_state(family, space, members[0])),
                                        (0.7, pure_state(family, space, members[1]))])
        direct = MixedState.from_matrix(mix.matrix, family, space)
        back = state_from_dict(json.loads(json.dumps(state_to_dict(mix))))
        for state in (direct, back):
            assert state.family == family and len(state.members) == 2
            assert state.trace == pytest.approx(1.0, abs=1e-14)
            assert np.max(np.abs(state.matrix - mix.matrix)) < 1e-13 * np.max(np.abs(mix.matrix))

    def test_bad_document(self):
        with pytest.raises(ParseError):
            state_from_dict({"family": "nope"})
        with pytest.raises(ParseError):
            state_from_dict({"family": "grid", "grid": {"n_points": 16}})


def _random_vector(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _random_state(kind, rng):
    """One state of each serializable family, pure and mixed."""
    pure = {
        "grid": lambda: GridPureState(GridSpec(16, -4.0, 4.0), _random_vector(rng, 16)),
        "periodic": lambda: PeriodicState(-3, 4, _random_vector(rng, 8)),
        "fock": lambda: fock_state(7, _random_vector(rng, 8)),
    }
    if kind == "finite":
        return random_finite_state(rng, 4, pure=False)
    if kind in pure:
        return pure[kind]()
    member = pure[kind.split("-")[0]]
    weight = rng.uniform(0.1, 0.9)
    return MixedState.from_ensemble([(weight, member()), (1.0 - weight, member())])


@settings(max_examples=60, deadline=None)
@given(kind=hst.sampled_from(["grid", "periodic", "fock", "finite", "grid-mixed",
                              "periodic-mixed", "fock-mixed"]),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_json_round_trip_property(kind, seed):
    state = _random_state(kind, np.random.default_rng(seed))
    back = state_from_dict(state_to_dict(state))
    assert type(back) is type(state)
    if isinstance(state, (MixedState, FiniteState)):
        assert np.max(np.abs(back.matrix - state.matrix)) < 1e-12
    else:
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_finite_state_from_vector_is_the_outer_product():
    v = np.array([1.0, 2.0j, -0.5 + 0.3j])
    u = v / np.linalg.norm(v)
    state = FiniteState.from_vector(v)
    np.testing.assert_array_equal(state.matrix, np.outer(u, u.conj()))
    assert state.purity == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("vec", [[np.nan, 1.0], [np.inf, 0.0], [0.0, 0.0], [1.0]])
def test_finite_state_from_vector_rejects_bad_vectors(vec):
    with pytest.raises(ValueError):
        FiniteState.from_vector(vec)
