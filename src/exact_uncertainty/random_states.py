"""Seeded generators of smooth random test states for verification suites."""

from __future__ import annotations

import numpy as np

from .grids import GridSpec
from .states import (
    Constants,
    FiniteState,
    Grid2DPureState,
    GridPureState,
    PeriodicState,
    fock_state,
)


def random_smooth_grid_state(rng: np.random.Generator, grid: GridSpec | None = None,
                             constants: Constants | None = None,
                             n_lumps: int | None = None,
                             center_spread: float | None = None) -> GridPureState:
    """Superposition of a few boosted, chirped Gaussians, safely box-contained.

    ``center_spread`` bounds the lump centers.  Momentum-side analysis
    (conjugate-direction Fisher lengths) needs it small: lumps a distance d
    apart put oscillations of period 2*pi*hbar/d into the momentum density,
    which the conjugate lattice must resolve.
    """
    grid = grid or GridSpec(1024, -20.0, 20.0)
    constants = constants or Constants()
    n_lumps = n_lumps or int(rng.integers(2, 5))
    if center_spread is None:
        center_spread = 0.2 * grid.length / 2.0
    x = grid.points()
    psi = np.zeros(grid.n_points, dtype=complex)
    for _ in range(n_lumps):
        sigma = rng.uniform(0.6, 1.6)
        center = rng.uniform(-center_spread, center_spread)
        k = rng.uniform(-3.0, 3.0)
        beta = rng.uniform(-0.5, 0.5)
        weight = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        psi += weight * np.exp(-((x - center) ** 2) / (4.0 * sigma ** 2)
                               + 1j * (k * x + beta * (x - center) ** 2) / constants.hbar)
    return GridPureState(grid, psi, constants)


def random_periodic_state(rng: np.random.Generator,
                          constants: Constants | None = None) -> PeriodicState:
    """Smooth circle wavepacket: Gaussian amplitudes over j with random phases."""
    constants = constants or Constants()
    j_max = 24
    j = np.arange(-j_max, j_max + 1)
    center = rng.uniform(-j_max / 4, j_max / 4)
    width = rng.uniform(2.0, j_max / 4)
    phase_center = rng.uniform(0.0, 2.0 * np.pi)
    amps = np.exp(-((j - center) ** 2) / (4.0 * width ** 2) - 1j * j * phase_center)
    return PeriodicState(-j_max, j_max, amps, constants)


def random_fock_state(rng: np.random.Generator, n_max: int = 32, mean: float | None = None,
                      constants: Constants | None = None) -> PeriodicState:
    """Poissonian-magnitude amplitudes with smooth random phases."""
    constants = constants or Constants()
    mean = mean if mean is not None else rng.uniform(1.0, 6.0)
    n = np.arange(n_max + 1)
    log_mag = 0.5 * (n * np.log(mean) - _log_factorial(n) - mean)
    theta0 = rng.uniform(0.0, 2.0 * np.pi)
    amps = np.exp(log_mag - 1j * n * theta0)
    return fock_state(n_max, amps, constants)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    from math import lgamma

    return np.array([lgamma(v + 1.0) for v in n])


def random_finite_state(rng: np.random.Generator, dimension: int,
                        pure: bool = True) -> FiniteState:
    if pure:
        vec = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
        return FiniteState.from_vector(vec)
    raw = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
    rho = raw @ raw.conj().T
    return FiniteState(rho)


def random_hermitian(rng: np.random.Generator, dimension: int) -> np.ndarray:
    raw = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
    return 0.5 * (raw + raw.conj().T)


def random_gaussian_2d(rng: np.random.Generator, n_points: int = 384,
                       constants: Constants | None = None) -> Grid2DPureState:
    """Correlated 2D Gaussian pure state with a random quadratic phase."""
    constants = constants or Constants()
    corr = rng.uniform(-0.7, 0.7)
    s1 = rng.uniform(0.8, 1.4)
    s2 = rng.uniform(0.8, 1.4)
    cov = np.array([[s1 ** 2, corr * s1 * s2], [corr * s1 * s2, s2 ** 2]])
    prec = np.linalg.inv(cov)
    c11 = rng.uniform(-0.2, 0.2)
    c22 = rng.uniform(-0.2, 0.2)
    c12 = rng.uniform(-0.15, 0.15)
    phase_form = np.array([[c11, c12], [c12, c22]])

    # 14 widths: below the edge-decay threshold even along the stretched
    # principal axis at the strongest correlation
    span = 14.0 * max(s1, s2)
    grid = GridSpec(n_points, -span, span)
    x1 = grid.points()[:, None]
    x2 = grid.points()[None, :]
    quad = prec[0, 0] * x1 ** 2 + 2.0 * prec[0, 1] * x1 * x2 + prec[1, 1] * x2 ** 2
    theta = (phase_form[0, 0] * x1 ** 2 + 2.0 * phase_form[0, 1] * x1 * x2
             + phase_form[1, 1] * x2 ** 2) / (2.0 * constants.hbar)
    psi = np.exp(-quad / 4.0 + 1j * theta)
    return Grid2DPureState(grid, grid, psi, constants)
