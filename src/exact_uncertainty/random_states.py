"""Seeded generators of smooth random test states for verification suites."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """Correlated 2D Gaussian pure state with a random quadratic phase.

    psi = exp(x^T F x) with F = -Sigma^-1 / 4 + i C / (2 hbar), sampled
    without an n^2 exponential.  Both axes share one grid, so x1 + x2 depends
    only on i + j and x1 - x2 only on i - j.  With s = sign(Sigma^-1_12),
    2 x1 x2 = s [(x1 + s x2)^2 - x1^2 - x2^2] gives

        psi_ij = u_i v_j h(x_i + s x_j),

    u = exp((F11 - s F12) x^2) and v = exp((F22 - s F12) x^2) over the n
    points and h = exp(s F12 y^2) over the 2n - 1 values y of x1 + s x2; h
    is read as a Hankel (s > 0) or Toeplitz (s < 0) view.  The sign makes
    the real part of s F12, -|Sigma^-1_12| / 4, never positive, so h only
    decays.  u and v may grow where the correlation stretches the state
    beyond an axis's own width: at the corners of the drawn parameters
    (|corr| = 0.7, widths 0.8 and 1.4) by at most e^21.6 on the box edge.
    Nothing comes near exp's overflow at e^709.
    """
    constants = constants or Constants()
    corr = rng.uniform(-0.7, 0.7)
    s1 = rng.uniform(0.8, 1.4)
    s2 = rng.uniform(0.8, 1.4)
    cov = np.array([[s1 ** 2, corr * s1 * s2], [corr * s1 * s2, s2 ** 2]])
    prec = np.linalg.inv(cov)
    c11 = rng.uniform(-0.2, 0.2)
    c22 = rng.uniform(-0.2, 0.2)
    c12 = rng.uniform(-0.15, 0.15)
    form = -prec / 4.0 + 1j * np.array([[c11, c12], [c12, c22]]) / (2.0 * constants.hbar)

    # 14 widths: below the edge-decay threshold even along the stretched
    # principal axis at the strongest correlation
    span = 14.0 * max(s1, s2)
    grid = GridSpec(n_points, -span, span)
    x = grid.points()
    sign = 1 if prec[0, 1] >= 0 else -1
    pair = form[0, 1] * sign
    # |u|, |v| <= e^21.6 and |h| <= 1 (see above): no product overflows
    u = np.exp((form[0, 0] - pair) * x ** 2)
    v = np.exp((form[1, 1] - pair) * x ** 2)
    steps = np.arange(2 * n_points - 1)
    if sign > 0:  # x_i + x_j = 2 x_min + (i + j) dx: h[i + j]
        y = 2.0 * grid.x_min + steps * grid.dx
    else:  # x_i - x_j = (i - j) dx: h[i - j + n - 1], the window's columns reversed
        y = (steps - (n_points - 1)) * grid.dx
    window = sliding_window_view(np.exp(pair * y ** 2), n_points)[:, ::sign]
    psi = np.multiply(u[:, None], v[None, :])
    psi *= window
    return Grid2DPureState(grid, grid, psi, constants)
