"""Two-particle states: vector decompositions, correlations, EPR collapse.

The approximate EPR state is sharply peaked in the relative position and the
total momentum; on it the classical momentum components are constant, so all
momentum correlation is carried by the nonclassical components, and the
decomposition of particle 1 responds nonlocally to measurements on
particle 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .decomposition import ClassicalComponent, classical_estimate
from .densities import MASKED_MASS_LIMIT, PlaneDensity, floor_mask
from .errors import GridResolution, VanishingDensity
from .fisher import inverse_information, plane_information_rows
from .grids import GridSpec, row_blocks, spectral_derivative_axis
from .states import Constants, Grid2DPureState, GridPureState, normalize


def position_plane_density(state: Grid2DPureState) -> PlaneDensity:
    return PlaneDensity(state.grid_x, state.grid_y, state.position_density())


def momentum_plane_density(state: Grid2DPureState):
    """(p1 lattice, p2 lattice, |psi~|^2) with lattices in fft order.

    The box-offset phases exp(-i k x_min) have unit modulus, so |.|^2 drops
    them, and the dx dy / (2 pi hbar) scale is applied to the real density.
    """
    hbar = state.constants.hbar
    gx, gy = state.grid_x, state.grid_y
    dens = np.abs(np.fft.fft2(state.amplitudes))
    dens *= dens
    dens *= (gx.dx * gy.dx / (2.0 * np.pi * hbar)) ** 2
    return hbar * gx.wavenumbers(), hbar * gy.wavenumbers(), dens


def momentum_covariance(state: Grid2DPureState) -> np.ndarray:
    k1, k2, dens = momentum_plane_density(state)
    hbar = state.constants.hbar
    dp = (state.grid_x.momentum_spacing(hbar) * state.grid_y.momentum_spacing(hbar))
    moments = sum(_moment_sums(dens[rows], k1[rows, None], k2)
                  for rows in row_blocks(*dens.shape))
    return _cov(moments * dp)


def _moment_sums(weights: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Weighted sums of a1, a2, a1^2, a1 a2, a2^2 over a block (a1, a2
    broadcast against the weights)."""
    w1, w2 = weights * a1, weights * a2
    return np.array([w1.sum(), w2.sum(), (w1 * a1).sum(), (w1 * a2).sum(), (w2 * a2).sum()])


def _cov(moments) -> np.ndarray:
    """Covariance matrix from the moments (E a1, E a2, E a1^2, E a1 a2, E a2^2)."""
    m1, m2, s11, s12, s22 = moments
    return np.array([[s11 - m1 ** 2, s12 - m1 * m2], [s12 - m1 * m2, s22 - m2 ** 2]])


@dataclass(frozen=True)
class TwoParticleDecomposition:
    """Classical momentum fields and the covariance bookkeeping of a 2D state."""

    classical_field_1: np.ndarray   # P_cl^(1)(x1, x2) on the retained region
    classical_field_2: np.ndarray
    retained: np.ndarray            # density mask
    cov_position: np.ndarray
    cov_momentum: np.ndarray
    cov_classical: np.ndarray
    cov_nonclassical: np.ndarray
    additivity_residual: float
    mixed_partials_residual: float
    mean_nonclassical: np.ndarray
    information_position: np.ndarray  # Fisher information entries (11, 12, 22)

    @property
    def cov_fisher(self) -> np.ndarray:
        """Fisher covariance of the position density; raises SingularInformation."""
        return inverse_information(self.information_position)


def nonclassical_components_2d(state: Grid2DPureState) -> TwoParticleDecomposition:
    """Decompose both momentum components of a smooth 2D pure state.

    Cov(P_nc) is computed directly from the residual fields (not by
    subtraction), so the reported additivity residual is a genuine check of
    Cov(P) = Cov(P_cl) + Cov(P_nc).

    The derivatives along x1 transform whole columns, so they are computed
    whole, in one complex buffer.  The rest is computed over blocks of rows
    (``row_blocks``), with every weighted sum accumulated in that one loop:
    no full-size chi, flux or weight array exists.
    """
    hbar = state.constants.hbar
    psi = state.amplitudes
    w = state.measure
    gx, gy = state.grid_x, state.grid_y
    cov_p = momentum_covariance(state)

    p = state.position_density()
    mask = floor_mask(p)
    if np.sum(p[~mask]) * w > MASKED_MASS_LIMIT:
        raise VanishingDensity("2D density vanishes on > 20% of mass")

    # the buffer first gives the density's x1 gradient (Fisher information),
    # then d(psi)/dx1
    d1 = p.astype(complex)
    grad_x = spectral_derivative_axis(d1, gx, axis=0, out=d1).real.copy()
    spectral_derivative_axis(psi, gx, axis=0, out=d1)

    x1, x2 = gx.points(), gy.points()
    v1 = np.zeros_like(p)
    v2 = np.zeros_like(p)
    position = np.zeros(5)      # p-weighted sums of x1, x2, x1^2, x1 x2, x2^2
    classical = np.zeros(5)     # the same for v1, v2
    nonclassical = np.zeros(5)  # <psi|chi1>, <psi|chi2>, <chi1|chi1>, <chi1|chi2>, <chi2|chi2>
    information = np.zeros(3)
    for rows in row_blocks(*p.shape):
        psi_b, p_b, m_b, d1_b = psi[rows], p[rows], mask[rows], d1[rows]
        d2_b = spectral_derivative_axis(psi_b, gy, axis=1)
        flux1 = hbar * np.imag(np.conj(psi_b) * d1_b)  # = p * v1
        flux2 = hbar * np.imag(np.conj(psi_b) * d2_b)
        v1_b, v2_b = v1[rows], v2[rows]
        v1_b[m_b] = flux1[m_b] / p_b[m_b]
        v2_b[m_b] = flux2[m_b] / p_b[m_b]
        position += _moment_sums(p_b, x1[rows, None], x2)
        classical += _moment_sums(p_b, v1_b, v2_b)

        # residual fields chi_k = (P_k - v_k) psi give Cov(P_nc) directly
        chi1 = -1j * hbar * d1_b - v1_b * psi_b
        chi2 = -1j * hbar * d2_b - v2_b * psi_b
        nonclassical += np.real([np.vdot(psi_b, chi1), np.vdot(psi_b, chi2),
                                 np.vdot(chi1, chi1), np.vdot(chi1, chi2),
                                 np.vdot(chi2, chi2)])
        information += plane_information_rows(p_b, grad_x[rows], m_b, gy)
    del d1, d1_b, grad_x  # the last block's view would keep the buffer alive

    cov_x = _cov(position * w)
    cov_cl = _cov(classical * w)
    cov_nc = _cov(nonclassical * w)
    mean_nc = nonclassical[:2] * w
    scale = max(float(np.max(np.abs(cov_p))), 1e-300)
    additivity = float(np.max(np.abs(cov_p - cov_cl - cov_nc))) / scale

    mixed = _mixed_partials_residual(v1, v2, p, state)

    # Fisher information of the normalized density p / total
    total = float(np.sum(p)) * w
    information *= w / total
    return TwoParticleDecomposition(v1, v2, mask, cov_x, cov_p, cov_cl, cov_nc,
                                    additivity, mixed, mean_nc, information)


def _mixed_partials_residual(v1, v2, p, state) -> float:
    """Max |d(v1)/dx2 - d(v2)/dx1| on the well-retained core.

    Local differences only: the fields are defined just where the density
    is retained, so spectral stencils would drag in masked noise.
    """
    core = p > 1e-6 * p.max()
    core[[0, -1], :] = False
    core[:, [0, -1]] = False
    d_v1_d2 = np.gradient(v1, state.grid_y.dx, axis=1)
    d_v2_d1 = np.gradient(v2, state.grid_x.dx, axis=0)
    # exclude points whose stencil touches masked neighbours
    interior = core & np.roll(core, 1, 0) & np.roll(core, -1, 0) \
        & np.roll(core, 1, 1) & np.roll(core, -1, 1)
    if not interior.any():
        return 0.0
    return float(np.max(np.abs(d_v1_d2[interior] - d_v2_d1[interior])))


# ---------------------------------------------------------------------------
# correlation coefficients


@dataclass(frozen=True)
class CorrelationPair:
    r_pearson: float
    r_fisher: float


@dataclass(frozen=True)
class CorrelationRelation:
    """r_P of the nonclassical momenta plus r_F of the positions, which the
    matrix relation forces to cancel."""

    pair: CorrelationPair
    residual: float
    r_pearson_position: float
    r_pearson_momentum: float


def pearson_from_cov(cov: np.ndarray) -> float:
    return float(cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]))


def correlation_relation(state: Grid2DPureState) -> CorrelationRelation:
    """Evaluate r_P(P_nc^(1), P_nc^(2)) + r_F(X^(1), X^(2)) and its residual."""
    return correlations(nonclassical_components_2d(state))


def correlations(parts: TwoParticleDecomposition) -> CorrelationRelation:
    """The correlation relation read from a computed decomposition."""
    r_p_nc = pearson_from_cov(parts.cov_nonclassical)
    r_f_x = pearson_from_cov(parts.cov_fisher)
    return CorrelationRelation(CorrelationPair(r_p_nc, r_f_x), abs(r_p_nc + r_f_x),
                               pearson_from_cov(parts.cov_position),
                               pearson_from_cov(parts.cov_momentum))


# ---------------------------------------------------------------------------
# the approximate EPR state and conditional collapse


@dataclass(frozen=True)
class EprParams:
    """Separation a, relative width sigma << 1, center width tau >> 1, boost p0."""

    a: float = 1.0
    sigma: float = 0.1
    tau: float = 10.0
    p0: float = 2.0

    def __post_init__(self):
        if self.sigma <= 0 or self.tau <= 0:
            raise ValueError("widths must be positive")
        if not (self.sigma < 1.0 < self.tau):
            warnings.warn("EPR regime expects sigma < 1 < tau", stacklevel=3)


def epr_grids(params: EprParams, n_points: int | None = None,
              points_per_sigma: int = 8,
              span_factor: float = 6.4) -> tuple[GridSpec, GridSpec]:
    """Symmetric per-axis grids resolving sigma and spanning the tau envelope.

    The default span factor leaves the boundary amplitude around 1e-5 of
    peak for the canonical sigma = 0.1, tau = 10 parameters: small enough
    for 1e-4 moment accuracy, while keeping the state matrix under a
    gigabyte.  A BoxTooSmall warning still attaches downstream, honestly.
    """
    dx = params.sigma / points_per_sigma
    if n_points is None:
        span = max(span_factor * params.tau, 16.0 * params.sigma + 4.0 * abs(params.a))
        n_points = int(np.ceil(span / dx / 512.0)) * 512
    half = n_points * dx / 2.0
    g = GridSpec(n_points, -half, half)
    return g, g


def build_epr(params: EprParams, grid_x: GridSpec, grid_y: GridSpec,
              constants: Constants | None = None) -> Grid2DPureState:
    """Sample and normalize the approximate EPR wavefunction.

    psi ~ exp(-(x1-x2-a)^2 / 4 sigma^2) * exp(-(x1+x2)^2 / 4 tau^2)
          * exp(i p0 (x1+x2) / 2 hbar)
    """
    constants = constants or Constants()
    span_sum = grid_x.length + grid_y.length
    if span_sum < 8.0 * params.tau:
        raise GridResolution(
            f"grid spans {span_sum:.1f} along x1+x2; need >= {8 * params.tau:.1f}")
    if max(grid_x.dx, grid_y.dx) > params.sigma / 8.0 * (1.0 + 1e-9):
        raise GridResolution(
            f"dx = {max(grid_x.dx, grid_y.dx):.4g} does not resolve sigma with >= 8 points")
    x1 = grid_x.points()[:, None]
    x2 = grid_y.points()[None, :]
    rel = x1 - x2 - params.a
    com = x1 + x2
    psi = np.exp(-rel ** 2 / (4.0 * params.sigma ** 2)
                 - com ** 2 / (4.0 * params.tau ** 2)
                 + 0.5j * params.p0 * com / constants.hbar)
    return normalize(Grid2DPureState(grid_x, grid_y, psi, constants))


def epr_moments(state: Grid2DPureState) -> dict:
    """Means and variances of the relative position and total momentum."""
    k1, k2, dens = momentum_plane_density(state)
    x1, x2 = state.grid_x.points(), state.grid_y.points()
    sums = np.zeros(4)  # sums of p rel, p rel^2, |psi~|^2 tot, |psi~|^2 tot^2
    for rows in row_blocks(*dens.shape):
        rel = x1[rows, None] - x2[None, :]
        tot = k1[rows, None] + k2[None, :]
        p_rel = np.abs(state.amplitudes[rows]) ** 2 * rel
        dens_tot = dens[rows] * tot
        sums += [p_rel.sum(), (p_rel * rel).sum(), dens_tot.sum(), (dens_tot * tot).sum()]

    hbar = state.constants.hbar
    dp = state.grid_x.momentum_spacing(hbar) * state.grid_y.momentum_spacing(hbar)
    mean_rel, sq_rel = sums[:2] * state.measure
    mean_tot, sq_tot = sums[2:] * dp
    return {
        "mean_relative_position": float(mean_rel),
        "var_relative_position": float(sq_rel - mean_rel ** 2),
        "mean_total_momentum": float(mean_tot),
        "var_total_momentum": float(sq_tot - mean_tot ** 2),
    }


def collapse_position(state: Grid2DPureState, x: float) -> tuple[GridPureState, ClassicalComponent]:
    """Condition on particle 2 found at x: slice the nearest column, renormalize."""
    gy = state.grid_y
    idx = int(np.clip(round((x - gy.x_min) / gy.dx), 0, gy.n_points - 1))
    column = state.amplitudes[:, idx]
    col_density = np.abs(column) ** 2
    full = state.position_density()
    if col_density.max() <= 1e-12 * full.max():
        raise VanishingDensity(f"no support at x2 = {x}")
    collapsed = normalize(GridPureState(state.grid_x, column, state.constants))
    return collapsed, classical_estimate(collapsed, "position", "P")


def collapse_momentum(state: Grid2DPureState, p: float) -> tuple[GridPureState, ClassicalComponent]:
    """Condition on particle 2 momentum p via the partial Fourier transform.

    The transform over x2 is evaluated at the exact requested p (a direct
    Fourier sum), not at the nearest lattice point.
    """
    hbar = state.constants.hbar
    gy = state.grid_y
    kernel = np.exp(-1j * p * gy.points() / hbar) * gy.dx / np.sqrt(2.0 * np.pi * hbar)
    sliced = state.amplitudes @ kernel
    mass = float(np.sum(np.abs(sliced) ** 2) * state.grid_x.dx)

    # compare against the particle-2 momentum marginal on the lattice
    spec = np.fft.fft(state.amplitudes, axis=1)
    marginal = np.sum(np.abs(spec) ** 2, axis=0)  # up to common scale
    lattice_max = float(marginal.max() * state.grid_x.dx * gy.dx ** 2 / (2.0 * np.pi * hbar))
    if mass <= 1e-12 * lattice_max:
        raise VanishingDensity(f"no support at p2 = {p}")
    collapsed = normalize(GridPureState(state.grid_x, sliced, state.constants))
    return collapsed, classical_estimate(collapsed, "position", "P")


def momentum_collapse_prediction(params: EprParams, p: float) -> float:
    """The collapsed classical momentum [sigma^2 p + tau^2 (p0 - p)] / (sigma^2 + tau^2)."""
    s2, t2 = params.sigma ** 2, params.tau ** 2
    return (s2 * p + t2 * (params.p0 - p)) / (s2 + t2)
