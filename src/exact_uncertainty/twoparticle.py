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
from .grids import GridSpec, real_derivative_axis, row_blocks, spectral_derivative_axis
from .states import Constants, Grid2DPureState, GridPureState, _check_scale, normalize


def position_plane_density(state: Grid2DPureState) -> PlaneDensity:
    return PlaneDensity(state.grid_x, state.grid_y, state.position_density())


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
    mean_position: np.ndarray
    mean_momentum: np.ndarray

    @property
    def cov_fisher(self) -> np.ndarray:
        """Fisher covariance of the position density; raises SingularInformation."""
        return inverse_information(self.information_position)


def nonclassical_components_2d(state: Grid2DPureState) -> TwoParticleDecomposition:
    """Decompose both momentum components of a smooth 2D pure state.

    Cov(P_nc) is computed directly from the residual fields (not by
    subtraction), so the reported additivity residual is a genuine check of
    Cov(P) = Cov(P_cl) + Cov(P_nc).

    psi is transformed along x1 (whole columns) once, into one complex
    buffer ``spec``.  Blocks of its rows transformed along x2 give the
    k-space density |psi~|^2, whose moments give Cov(P) and <P>; then
    ``spec`` times i k1, transformed back in place, is d(psi)/dx1.  The
    derivatives along x2 are taken per block of rows (``row_blocks``), where
    every other weighted sum is accumulated: no full-size chi, flux or
    weight array exists.

    Two quantities keep paths of their own on purpose.  Cov(P) comes from
    |psi~|^2, not from <d psi|d psi>: with the same d(psi) the additivity
    residual would be an algebraic identity.  The Fisher information comes
    from the spectral derivatives of the real density p (``rfft``/``irfft``),
    not from 2 Re(conj(psi) d psi): that product rule would make
    (hbar^2/4) I equal Cov(P_nc) point by point, even on an under-resolved
    lattice.
    """
    hbar = state.constants.hbar
    psi = state.amplitudes
    w = state.measure
    gx, gy = state.grid_x, state.grid_y

    p = state.position_density()
    mask = floor_mask(p)
    if np.sum(p[~mask]) * w > MASKED_MASS_LIMIT:
        raise VanishingDensity("2D density vanishes on > 20% of mass")
    grad_x = real_derivative_axis(p, gx, axis=0)

    spec = np.fft.fft(psi, axis=0)
    kx = gx.wavenumbers()
    k1, k2 = hbar * kx, hbar * gy.wavenumbers()
    momentum = np.zeros(5)      # |psi~|^2-weighted sums of k1, k2, k1^2, k1 k2, k2^2
    for rows in row_blocks(*psi.shape):
        dens = np.abs(np.fft.fft(spec[rows], axis=1))
        dens *= dens
        momentum += _moment_sums(dens, k1[rows, None], k2)
    # unnormalized DFT: sum |psi~|^2 = psi.size sum |psi|^2, box-offset phases drop
    momentum *= w / psi.size
    kx[gx.n_points // 2] = 0.0
    spec *= (1j * kx)[:, None]
    d1 = np.fft.ifft(spec, axis=0, out=spec)  # d(psi)/dx1, as spectral_derivative_axis

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
    del spec, d1, d1_b, grad_x  # the last block's view would keep the buffer alive

    cov_x, cov_p = _cov(position * w), _cov(momentum)
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
                                    additivity, mixed, mean_nc, information,
                                    position[:2] * w, momentum[:2])


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
    x1, x2 = grid_x.points(), grid_y.points()
    phase1 = np.exp(0.5j * params.p0 * x1 / constants.hbar)
    phase2 = np.exp(0.5j * params.p0 * x2 / constants.hbar)
    psi = np.empty((grid_x.n_points, grid_y.n_points), dtype=complex)
    norm_sq = 0.0
    for rows in row_blocks(*psi.shape):
        rel = x1[rows, None] - x2 - params.a
        com = x1[rows, None] + x2
        block = psi[rows]
        np.multiply(phase1[rows, None], phase2, out=block)
        block *= np.exp(-rel ** 2 / (4.0 * params.sigma ** 2)
                        - com ** 2 / (4.0 * params.tau ** 2))
        norm_sq += np.vdot(block, block).real
    norm_sq *= grid_x.dx * grid_y.dx
    _check_scale(norm_sq)
    psi /= np.sqrt(norm_sq)
    return Grid2DPureState(grid_x, grid_y, psi, constants)


def epr_moments(state: Grid2DPureState) -> dict:
    """Means and variances of the relative position and total momentum."""
    return pair_moments(nonclassical_components_2d(state))


def pair_moments(parts: TwoParticleDecomposition) -> dict:
    """Means and variances of X1 - X2 and P1 + P2 read from a decomposition."""
    cx, cp = parts.cov_position, parts.cov_momentum
    return {
        "mean_relative_position": float(parts.mean_position[0] - parts.mean_position[1]),
        "var_relative_position": float(cx[0, 0] + cx[1, 1] - 2.0 * cx[0, 1]),
        "mean_total_momentum": float(parts.mean_momentum[0] + parts.mean_momentum[1]),
        "var_total_momentum": float(cp[0, 0] + cp[1, 1] + 2.0 * cp[0, 1]),
    }


def collapse_position(state: Grid2DPureState, x: float) -> tuple[GridPureState, ClassicalComponent]:
    """Condition on particle 2 found at x: slice the nearest column, renormalize."""
    gy = state.grid_y
    idx = int(np.clip(round((x - gy.x_min) / gy.dx), 0, gy.n_points - 1))
    column = state.amplitudes[:, idx]
    col_density = np.abs(column) ** 2
    if col_density.max() <= 1e-12 * state.peak_amplitude() ** 2:
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
    marginal = np.zeros(gy.n_points)  # up to common scale
    for rows in row_blocks(*state.amplitudes.shape):
        marginal += np.sum(np.abs(np.fft.fft(state.amplitudes[rows], axis=1)) ** 2, axis=0)
    lattice_max = float(marginal.max() * state.grid_x.dx * gy.dx ** 2 / (2.0 * np.pi * hbar))
    if mass <= 1e-12 * lattice_max:
        raise VanishingDensity(f"no support at p2 = {p}")
    collapsed = normalize(GridPureState(state.grid_x, sliced, state.constants))
    return collapsed, classical_estimate(collapsed, "position", "P")


def momentum_collapse_prediction(params: EprParams, p: float) -> float:
    """The collapsed classical momentum [sigma^2 p + tau^2 (p0 - p)] / (sigma^2 + tau^2)."""
    s2, t2 = params.sigma ** 2, params.tau ** 2
    return (s2 * p + t2 * (params.p0 - p)) / (s2 + t2)
