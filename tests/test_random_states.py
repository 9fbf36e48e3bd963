import itertools

import numpy as np
import pytest

from conftest import gaussian_2d_parameters
from exact_uncertainty.random_states import random_gaussian_2d
from exact_uncertainty.states import Constants

# the factored samples were measured within 3.1e-15 of max|psi| of the direct
# formula (seeds 0-299 and the parameter corners); the bound is about 30x that
PARITY = 1e-13


def direct_gaussian_2d(cov, phase_form, x, hbar):
    """exp(-x^T Sigma^-1 x / 4 + i x^T C x / (2 hbar)) on the square grid x, unit norm."""
    prec = np.linalg.inv(cov)
    x1, x2 = x[:, None], x[None, :]

    def form(m):
        return m[0, 0] * x1 ** 2 + 2.0 * m[0, 1] * x1 * x2 + m[1, 1] * x2 ** 2

    psi = np.exp(-form(prec) / 4.0 + 1j * form(phase_form) / (2.0 * hbar))
    dx = x[1] - x[0]
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dx * dx)


def assert_direct(state, cov, phase_form):
    want = direct_gaussian_2d(cov, phase_form, state.grid_x.points(), state.constants.hbar)
    assert np.abs(state.amplitudes - want).max() <= PARITY * np.abs(want).max()


class CornerRng:
    """Stands in for a Generator: ``uniform`` returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high):
        value = self.values.pop(0)
        assert low <= value <= high
        return value


SEEDS = (0, 3, 4)


def test_seeds_give_both_pair_signs():
    signs = {np.sign(np.linalg.inv(gaussian_2d_parameters(np.random.default_rng(seed))[0])[0, 1])
             for seed in SEEDS}
    assert signs == {-1.0, 1.0}


@pytest.mark.parametrize("hbar", [1.0, 2.0])
@pytest.mark.parametrize("n_points", [64, 384, 1024])
@pytest.mark.parametrize("seed", SEEDS)
def test_gaussian_2d_is_the_direct_formula(seed, n_points, hbar):
    state = random_gaussian_2d(np.random.default_rng(seed), n_points, Constants(hbar=hbar))
    assert state.grid_x == state.grid_y
    assert state.amplitudes.shape == (n_points, n_points)
    assert_direct(state, *gaussian_2d_parameters(np.random.default_rng(seed)))


@pytest.mark.parametrize("n_points", [64, 384])
def test_gaussian_2d_corners_stay_finite(n_points):
    # the box (14 of the larger width) and not n sets the largest exponent,
    # so the corners of (corr, s1, s2, c11, c22, c12) are the worst cases
    for values in itertools.product((-0.7, 0.7), (0.8, 1.4), (0.8, 1.4),
                                    (-0.2, 0.2), (-0.2, 0.2), (-0.15, 0.15)):
        state = random_gaussian_2d(CornerRng(values), n_points)
        assert np.isfinite(state.amplitudes).all(), values
        assert_direct(state, *gaussian_2d_parameters(CornerRng(values)))
