"""Fisher lengths, Fisher covariance matrices, entropies, collision lengths.

The Fisher length delta_X = [integral p (d ln p / dx)^2 dx]^{-1/2} is the
translation Cramer-Rao bound: delta_X <= Delta_X with equality only for
Gaussians.  In the continuum it vanishes for discontinuous densities; on a
grid a jump is diagnosed by the broadband content it injects into the
spectral derivative, and such densities get an explicit flag instead of a
meaningless number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import MASKED_MASS_LIMIT, DiscreteDistribution, LineDensity, PlaneDensity
from .errors import SingularInformation, UnstableStep, VanishingDensity
from .grids import (
    GridSpec,
    density_derivative_columns,
    local_derivative,
    real_derivative_axis,
    row_blocks,
    spectral_derivative,
)
from .states import MixedState, ensemble_sum

FINITE = "finite"
ZERO_BY_DISCONTINUITY = "zero-by-discontinuity"
INFINITE_BY_UNIFORMITY = "infinite-by-uniformity"

# a density jump puts broadband (Gibbs) content into the spectral derivative
# that no local stencil sees: the spectral Fisher length collapses far below
# the local-difference one (measured ~3e-4 of it for a truncated Gaussian),
# while even badly under-resolved smooth structure keeps them within ~2x.
DISCONTINUITY_RATIO = 0.3

# information below (this / support^2) means a flat density whose derivative
# samples are pure rounding noise
UNIFORMITY_FLOOR = 1e-8


@dataclass(frozen=True)
class FisherMetrics:
    """Fisher length of a density together with its divergence diagnosis."""

    fisher_length: float
    fisher_information: float
    divergence_flag: str
    masked_mass: float = 0.0


def _information(p: np.ndarray, dp_dx: np.ndarray, weight: float, mask: np.ndarray,
                 periodic: bool = False) -> float:
    """Quadrature of (p')^2 / p over retained points.

    When only a handful of points are masked (isolated zeros of an analytic
    density), the integrand has a finite removable limit there; dropping the
    cells would cost O(dphi) accuracy, so those values are filled by
    interpolation instead.  Long masked runs (tails, dead intervals) stay
    excluded.
    """
    integrand = np.zeros_like(p)
    integrand[mask] = dp_dx[mask] ** 2 / p[mask]
    n_masked = int(np.sum(~mask))
    if 0 < n_masked <= max(4, p.size // 200):
        idx = np.arange(p.size, dtype=float)
        period = float(p.size) if periodic else None
        integrand[~mask] = np.interp(idx[~mask], idx[mask], integrand[mask], period=period)
        return float(np.sum(integrand) * weight)
    return float(np.sum(integrand[mask]) * weight)


def _jump_detected(info_spectral: float, info_local: float) -> bool:
    return info_spectral > info_local / DISCONTINUITY_RATIO ** 2


def fisher_length(density: LineDensity) -> FisherMetrics:
    """Fisher length of a line density.

    The reported value uses spectral differentiation when the density decays
    at the array ends (box-contained states) and local differences otherwise
    (half-line supports such as exponential densities, whose periodic wrap
    is a grid artifact rather than an interior jump).
    """
    density = density.normalized()
    p = density.values
    dx = density.grid.dx
    mask = density.mask()
    masked_mass = density.masked_mass()

    decayed_edges = max(p[0], p[-1]) <= 1e-8 * p.max()
    if not decayed_edges:
        info_fd = max(_information(p, local_derivative(p, dx), dx, mask), 1e-300)
        return FisherMetrics(info_fd ** -0.5, info_fd, FINITE, masked_mass)

    dp = real_derivative_axis(p, density.grid, axis=0)
    return _spectral_metrics(p, dp, density.grid, mask, masked_mass)


def fisher_length_periodic(density: LineDensity) -> FisherMetrics:
    """Fisher length of a circle density (``circle_density``), whose lattice
    is genuinely periodic: the spectral derivative is exact there.

    A uniform density has no information at all and is flagged infinite
    rather than encoded as a float sentinel.
    """
    density = density.normalized()
    dp = real_derivative_axis(density.values, density.grid, axis=0)
    return _spectral_metrics(density.values, dp, density.grid, density.mask(),
                             density.masked_mass(), periodic=True)


def _spectral_metrics(p: np.ndarray, dp: np.ndarray, grid: GridSpec, mask: np.ndarray,
                      masked_mass: float, periodic: bool = False) -> FisherMetrics:
    """Fisher metrics of a normalized line or circle density from its spectral
    derivative, diagnosed against local differences (wrapped on a circle)."""
    info = max(_information(p, dp, grid.dx, mask, periodic), 1e-300)
    # near-flat densities carry ~no information; the derivative samples are
    # rounding noise and no diagnosis beyond "finite but huge" is possible on
    # a line, while on a circle the density is uniform: no information at all
    if info * grid.length ** 2 < UNIFORMITY_FLOOR:
        if periodic:
            return FisherMetrics(np.inf, info, INFINITE_BY_UNIFORMITY, masked_mass)
        return FisherMetrics(info ** -0.5, info, FINITE, masked_mass)

    local = ((np.roll(p, -1) - np.roll(p, 1)) / (2.0 * grid.dx) if periodic
             else local_derivative(p, grid.dx))
    info_fd = max(_information(p, local, grid.dx, mask, periodic), 1e-300)
    jump = _jump_detected(info, info_fd)
    if periodic:
        # circle densities are trigonometric polynomials sampled at >= 8
        # points per harmonic, so an O(max) swing between adjacent cells can
        # only be a jump, never under-resolved smooth structure
        jump = jump or float(np.max(np.abs(np.diff(p, append=p[0])))) / p.max() > 0.25
    if jump:
        return FisherMetrics(info_fd ** -0.5, info_fd, ZERO_BY_DISCONTINUITY, masked_mass)
    return FisherMetrics(info ** -0.5, info, FINITE, masked_mass)


def fisher_length_mixed(state: MixedState) -> FisherMetrics:
    """Fisher length of the position density of a grid mixture, in the
    commutator form (:func:`commutator_fisher_length`) with spectral psi_i'."""
    grid = state.grid
    comm_diag = ensemble_sum(state, lambda s: 2.0 * np.real(
        spectral_derivative(s.amplitudes, grid) * np.conj(s.amplitudes)))
    return commutator_fisher_length(LineDensity(grid, state.position_density()), comm_diag)


def commutator_fisher_length(density: LineDensity, derivative: np.ndarray) -> FisherMetrics:
    """Fisher length of a mixture's line density p, whose p' is given in the
    commutator form <x|[P,rho]|x> / (-i*hbar) = sum_i w_i 2 Re[psi_i' psi_i*];
    it agrees with fisher_length of p for smooth states."""
    total = density.total
    density = density.normalized()
    masked_mass = density.masked_mass()
    if masked_mass > MASKED_MASS_LIMIT:
        raise VanishingDensity("more than 20% of mass on masked points")
    return _spectral_metrics(density.values, derivative / total, density.grid, density.mask(),
                             masked_mass)


def phase_variance(density: LineDensity, theta: float) -> float:
    """Variance of the angle about theta, integrated over (theta-pi, theta+pi],
    for a circle density."""
    density = density.normalized()
    d = np.mod(density.grid.points() - theta + np.pi, 2.0 * np.pi) - np.pi
    return float(np.sum(d ** 2 * density.values) * density.grid.dx)


def circular_mean(density: LineDensity) -> float:
    density = density.normalized()
    z = np.sum(np.exp(1j * density.grid.points()) * density.values) * density.grid.dx
    return float(np.angle(z) % (2.0 * np.pi))


def entropy(density) -> float:
    """Differential entropy -integral p ln p under the density's measure."""
    if isinstance(density, LineDensity):
        w, p = density.grid.dx, density.normalized().values
    elif isinstance(density, PlaneDensity):
        w, p = density.measure, density.normalized().values
    elif isinstance(density, DiscreteDistribution):
        w, p = 1.0, density.normalized().probs
    else:
        raise TypeError(f"no entropy for {type(density).__name__}")
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return float(-np.sum(terms) * w)


def collision_length(distribution: DiscreteDistribution) -> float:
    """1 / sum p_j^2: ranges from 1 (point mass) to n (uniform over n)."""
    p = distribution.normalized().probs
    return float(1.0 / np.sum(p ** 2))


def fisher_covariance(density) -> np.ndarray:
    """Inverse of the translation Fisher information matrix.

    Symmetric positive definite for smooth strictly positive densities;
    equals the covariance matrix exactly for Gaussians.  A line density
    yields the 1x1 matrix [[delta_X^2]].
    """
    if isinstance(density, LineDensity):
        fm = fisher_length(density)
        return np.array([[fm.fisher_length ** 2]])
    density = density.normalized()
    p = density.values
    mask = density.mask()
    grad_x, _ = density_derivative_columns(p, density.grid_x)
    sums = np.zeros(3)
    for rows in row_blocks(*p.shape):
        sums += plane_information_rows(p[rows], grad_x[rows], mask[rows], density.grid_y)
    return inverse_information(sums * density.measure)


def plane_information_rows(p: np.ndarray, grad_x: np.ndarray, mask: np.ndarray,
                           grid_y: GridSpec) -> np.ndarray:
    """Sums of (dp/dx)^2 / p, (dp/dx)(dp/dy) / p and (dp/dy)^2 / p over the
    retained points of a block of whole rows of a plane density.

    ``grad_x`` is the block's share of the spectral derivative along the
    rows, which needs whole columns (``density_derivative_columns``); the
    derivative along y is taken here.
    """
    grad_y = real_derivative_axis(p, grid_y, axis=1)[mask]
    grad_x, p = grad_x[mask], p[mask]
    over_p = grad_x / p
    return np.array([over_p @ grad_x, over_p @ grad_y, (grad_y / p) @ grad_y])


def inverse_information(entries: np.ndarray) -> np.ndarray:
    """Fisher covariance from the information entries (xx, xy, yy).

    Raises SingularInformation when the matrix cannot be inverted reliably.
    """
    info = np.array([[entries[0], entries[1]], [entries[1], entries[2]]])
    try:
        cond = np.linalg.cond(info)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SingularInformation("Fisher information matrix is singular") from exc
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularInformation("Fisher information matrix is numerically singular")
    return np.linalg.inv(info)


@dataclass(frozen=True)
class DiffusionRun:
    """Entropy history of a density under Gaussian diffusion with drift."""

    gamma: float
    drift: float
    dt: float
    steps: int
    entropies: np.ndarray
    rate_estimates: np.ndarray
    fisher_lengths: np.ndarray


def diffusion_entropy_rate(density: LineDensity, gamma: float, drift: float,
                           dt: float, steps: int) -> DiffusionRun:
    """Evolve dp/dt = gamma p'' + drift p' and trace the entropy production.

    Stepping is exact in Fourier space (heat-kernel multiplication), so the
    measured entropy rate can be compared against gamma / delta_X(t)^2
    without time-discretization error.  Raises UnstableStep if entropy
    decreases while gamma > 0.
    """
    density = density.normalized()
    grid = density.grid
    k = grid.wavenumbers()
    kernel = np.exp((-gamma * k ** 2 + 1j * drift * k) * dt)
    spec = np.fft.fft(density.values.astype(complex))

    entropies, lengths = [], []
    cur = density
    for step in range(steps + 1):
        entropies.append(entropy(cur))
        lengths.append(fisher_length(cur).fisher_length)
        if step < steps:
            spec = spec * kernel
            vals = np.clip(np.real(np.fft.ifft(spec)), 0.0, None)
            cur = LineDensity(grid, vals).normalized()
    entropies = np.array(entropies)
    if gamma > 0 and np.any(np.diff(entropies) < -1e-12):
        raise UnstableStep("entropy decreased under pure diffusion")

    rates = np.gradient(entropies, dt)
    return DiffusionRun(gamma, drift, dt, steps, entropies, rates, np.array(lengths))
