"""Differential checks of the line relations: each test compares two
independent computations of one quantity instead of a single report against
its target.

- conjugate(psi) against the xp report of the reflected momentum wavefunction
  conj(psi~), whose position is p and whose momentum is x;
- time-frequency against xp at hbar = 1 / (2 pi), and against xp at hbar = 1
  rescaled by 1 / (2 pi);
- a boost, a shift of the lattice with the state, and a dilation of a line
  state, pure and mixed;
- the member order of a mixture, and a global phase on one member;
- an off-centre lattice, on which the reflected state's own momentum lattice
  splits |psi|^2 across its edges.

States are drawn by hypothesis from a fixed (derandomized) sequence of seeds.
Every bound is a stated factor (``FACTOR``) over the worst case measured over
400 seeds, written next to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact_uncertainty.decomposition import classical_estimate
from exact_uncertainty.grids import GridSpec
from exact_uncertainty.random_states import random_smooth_grid_state
from exact_uncertainty.relations import EQUALITY, verify_conjugate, verify_position_momentum
from exact_uncertainty.signals import gaussian_pulse, verify_time_frequency
from exact_uncertainty.states import (
    Constants,
    GridPureState,
    MixedState,
    gaussian_state,
    moment,
    to_momentum,
)

GRID = GridSpec(1024, -20.0, 20.0)
FACTOR = 100  # every bound below is FACTOR times the worst case measured
SEEDS = st.integers(0, 2 ** 32 - 1)
HBARS = st.sampled_from([1.0, 0.5, 2.0])
SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)

# worst relative differences measured over 400 seeds, each at least one ulp
ULP = float(np.finfo(float).eps)
CONJ_REFLECTED = 9.8e-15   # conjugate against xp of conj(psi~): left, delta_P, Delta_X_nc
TF_SAME_HBAR = ULP         # time-frequency against xp at hbar = 1/(2 pi): measured 0
TF_RESCALED = 1.7e-13      # time-frequency against xp at hbar = 1, times 1/(2 pi)
# per relation: a boost by whole momentum steps; the lattice and the state
# moved by whole steps (the conjugate X_cl in the density's tails sees the
# wrap of psi's edge modes, and a mixture whose chain residual is relative to
# an origin-dependent <X^2> can be refined on one lattice and not on the
# other); x -> lambda x, lambda in [0.8, 1.25]
BOOST = {"xp": 1.7e-11, "conjugate": 1.2e-13}
SHIFT = {"xp": 1.8e-14, "conjugate": 5.2e-7}
DILATION = {"xp": 1.1e-14, "conjugate": 6.8e-14}
MIX_ORDER = ULP            # members of a mixture listed in reverse: measured 0
MIX_PHASE = 9.8e-14        # a global phase on one member


def rel(a, b):
    return abs(a - b) / abs(b)


def smooth_state(seed, hbar=1.0, grid=GRID):
    # the suite's narrow center spread keeps the momentum density resolved
    return random_smooth_grid_state(np.random.default_rng(seed), grid, Constants(hbar=hbar),
                                    center_spread=1.2)


def reflected(state: GridPureState) -> GridPureState:
    """conj(psi~) on the momentum lattice: a state whose position is p and
    whose momentum is x, so its xp report is psi's conjugate report."""
    phi = to_momentum(state)
    return GridPureState(phi.grid, np.conj(phi.amplitudes), state.constants)


def transformed(state, transform):
    """``transform`` applied to a pure state or to each member of a mixture."""
    if isinstance(state, MixedState):
        return MixedState(state.weights, tuple(transform(m) for m in state.members))
    return transform(state)


def boosted(state, steps):
    """psi e^{i p0 x / hbar}, p0 a whole number of momentum steps."""
    grid, hbar = state.grid, state.constants.hbar
    p0 = steps * grid.momentum_spacing(hbar)
    return GridPureState(grid, state.amplitudes * np.exp(1j * p0 * grid.points() / hbar),
                         state.constants), p0


def shifted(state, steps):
    """The same samples on the lattice moved by a whole number of steps:
    psi(x - a), a = steps * dx; its momentum wavefunction gains the phase
    e^{-i p a / hbar}, which is periodic on the momentum lattice."""
    g = state.grid
    a = steps * g.dx
    return GridPureState(GridSpec(g.n_points, g.x_min + a, g.x_max + a), state.amplitudes,
                         state.constants)


def dilated(state, lam):
    """lambda**-0.5 psi(x / lambda) on the lattice scaled by lambda."""
    g = state.grid
    return GridPureState(GridSpec(g.n_points, lam * g.x_min, lam * g.x_max),
                         state.amplitudes / np.sqrt(lam), state.constants)


def mixture(seed, hbar=1.0):
    rng = np.random.default_rng(seed)
    weight = float(rng.uniform(0.3, 0.7))
    first, second = (smooth_state(int(s), hbar) for s in rng.integers(0, 2 ** 32, size=2))
    return MixedState.from_ensemble([(weight, first), (1.0 - weight, second)])


def verify(relation, state):
    return (verify_position_momentum if relation == "xp" else verify_conjugate)(state)


def assert_spreads(before, after, bound, length_scale=1.0, spread_scale=1.0):
    """Same verdict; left, the Fisher length and the nonclassical spread
    within ``bound`` relative, after the stated scalings."""
    assert after.verdict == before.verdict
    assert rel(after.left, before.left) <= bound
    assert rel(after.notes["fisher_length"], before.notes["fisher_length"] * length_scale) <= bound
    assert rel(after.notes["nonclassical_spread"],
               before.notes["nonclassical_spread"] * spread_scale) <= bound


class TestConjugateIsReflectedXp:
    @SETTINGS
    @given(seed=SEEDS, hbar=HBARS)
    def test_pure(self, seed, hbar):
        state = smooth_state(seed, hbar)
        conj = verify_conjugate(state)
        xp = verify_position_momentum(reflected(state))
        assert "resolution_study" not in conj.notes  # the unrefined report
        assert_spreads(xp, conj, FACTOR * CONJ_REFLECTED)
        assert rel(conj.notes["total_spread"], xp.notes["total_spread"]) <= FACTOR * CONJ_REFLECTED

    @SETTINGS
    @given(seed=SEEDS)
    def test_classical_mean_is_the_position_mean(self, seed):
        # <X_cl> = <X>: a reflection with the wrong sign fails here, since
        # a variance alone cannot see the sign of X_cl
        state = shifted(smooth_state(seed), 77)
        comp = classical_estimate(state, "momentum", "X")
        assert comp.mean == pytest.approx(moment(state, "X"), abs=1e-10)

    def test_off_centre_lattice(self):
        # GridSpec(1024, 0, 40): the reflected state's own momentum lattice
        # is [-20, 20), so a second transform of conj(psi~) reads Var X as
        # about 360 instead of 1.69; the report reads it from |psi|^2
        sigma = 1.3
        state = gaussian_state(GridSpec(1024, 0.0, 40.0), sigma, center=20.0)
        report = verify_conjugate(state)
        assert report.verdict == EQUALITY
        assert report.notes["total_spread"] == pytest.approx(sigma, rel=1e-12)
        assert report.notes["nonclassical_spread"] == pytest.approx(sigma, rel=1e-12)
        assert report.notes["fisher_length"] == pytest.approx(0.5 / sigma, rel=1e-9)
        assert report.notes["dx"] == state.grid.dx
        centred = verify_conjugate(gaussian_state(GRID, sigma))
        assert_spreads(centred, report, FACTOR * SHIFT["conjugate"])


class TestTimeFrequencyIsXp:
    @staticmethod
    def pulse(seed):
        rng = np.random.default_rng(seed)
        return gaussian_pulse(GridSpec(1024, -10.0, 10.0), width=float(rng.uniform(0.5, 1.2)),
                              carrier=float(rng.uniform(-1.5, 1.5)),
                              chirp=float(rng.uniform(-0.6, 0.6)))

    @SETTINGS
    @given(seed=SEEDS)
    def test_at_hbar_over_two_pi(self, seed):
        signal = self.pulse(seed)
        tf = verify_time_frequency(signal)
        xp = verify_position_momentum(GridPureState(signal.grid, signal.amplitudes,
                                                    Constants(hbar=1.0 / (2.0 * np.pi))))
        bound = FACTOR * TF_SAME_HBAR
        assert tf.verdict == xp.verdict
        assert rel(tf.left, xp.left) <= bound
        assert rel(tf.right, xp.right) <= bound
        assert rel(tf.notes["fisher_time"], xp.notes["fisher_length"]) <= bound
        assert rel(tf.notes["var_frequency"], xp.notes["total_spread"] ** 2) <= 1e-14

    @SETTINGS
    @given(seed=SEEDS)
    def test_against_xp_at_unit_hbar(self, seed):
        # f = P / (2 pi hbar) at hbar = 1: Delta_f_fluc = Delta_P_nc / (2 pi)
        signal = self.pulse(seed)
        tf = verify_time_frequency(signal)
        xp = verify_position_momentum(GridPureState(signal.grid, signal.amplitudes))
        bound = FACTOR * TF_RESCALED
        assert tf.verdict == xp.verdict
        assert rel(tf.left, xp.left / (2.0 * np.pi)) <= bound
        assert rel(tf.right, xp.right / (2.0 * np.pi)) <= bound
        assert rel(tf.notes["fisher_time"], xp.notes["fisher_length"]) <= bound


@pytest.mark.parametrize("relation", ["xp", "conjugate"])
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
class TestLineSymmetries:
    @staticmethod
    def state(seed, mixed, hbar=1.0):
        return mixture(seed, hbar) if mixed else smooth_state(seed, hbar)

    @SETTINGS
    @given(seed=SEEDS, steps=st.integers(-40, 40), hbar=HBARS)
    def test_boost(self, relation, mixed, seed, steps, hbar):
        # delta_X, Delta_P_nc, delta_P and Delta_X_nc are all boost-invariant
        state = self.state(seed, mixed, hbar)
        moved = transformed(state, lambda s: boosted(s, steps)[0])
        assert_spreads(verify(relation, state), verify(relation, moved), FACTOR * BOOST[relation])
        if not mixed and relation == "xp":  # P_cl moves with the boost
            p0 = boosted(state, steps)[1]
            before = classical_estimate(state, "position", "P").mean
            after = classical_estimate(moved, "position", "P").mean
            assert abs(after - before - p0) <= FACTOR * BOOST[relation] * max(1.0, abs(p0))

    @SETTINGS
    @given(seed=SEEDS, steps=st.integers(-180, 180))
    def test_lattice_shift(self, relation, mixed, seed, steps):
        state = self.state(seed, mixed)
        moved = transformed(state, lambda s: shifted(s, steps))
        a = steps * state.grid.dx
        assert_spreads(verify(relation, state), verify(relation, moved), FACTOR * SHIFT[relation])
        if not mixed and relation == "conjugate":  # X_cl moves with the lattice
            before = classical_estimate(state, "momentum", "X").mean
            after = classical_estimate(moved, "momentum", "X").mean
            assert abs(after - before - a) <= FACTOR * SHIFT[relation] * max(1.0, abs(a))

    @SETTINGS
    @given(seed=SEEDS, lam=st.floats(0.8, 1.25))
    def test_dilation(self, relation, mixed, seed, lam):
        # x -> lambda x scales delta_X by lambda and Delta_P_nc by 1/lambda;
        # the conjugate pair the other way round
        state = self.state(seed, mixed)
        moved = transformed(state, lambda s: dilated(s, lam))
        scale = lam if relation == "xp" else 1.0 / lam
        assert_spreads(verify(relation, state), verify(relation, moved),
                       FACTOR * DILATION[relation], length_scale=scale, spread_scale=1.0 / scale)


@pytest.mark.parametrize("relation", ["xp", "conjugate"])
class TestMixtureInvariance:
    @SETTINGS
    @given(seed=SEEDS)
    def test_member_order(self, relation, seed):
        mix = mixture(seed)
        swapped = MixedState(mix.weights[::-1], mix.members[::-1])
        before, after = verify(relation, mix), verify(relation, swapped)
        assert_spreads(before, after, FACTOR * MIX_ORDER)
        assert rel(after.residual + 1.0, before.residual + 1.0) <= FACTOR * MIX_ORDER

    @SETTINGS
    @given(seed=SEEDS, turn=st.floats(0.0, 1.0))
    def test_member_global_phase(self, relation, seed, turn):
        mix = mixture(seed)
        first = mix.members[0]
        turned = GridPureState(first.grid, first.amplitudes * np.exp(2j * np.pi * turn),
                               first.constants)
        rephased = MixedState(mix.weights, (turned,) + mix.members[1:])
        before, after = verify(relation, mix), verify(relation, rephased)
        assert_spreads(before, after, FACTOR * MIX_PHASE)
        assert rel(after.residual + 1.0, before.residual + 1.0) <= FACTOR * MIX_PHASE
