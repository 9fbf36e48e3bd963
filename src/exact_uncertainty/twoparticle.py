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

from . import grids
from .decomposition import ClassicalComponent, classical_estimate
from .densities import MASKED_MASS_LIMIT, floor_mask
from .errors import GridResolution, VanishingDensity, ZeroNorm
from .fisher import inverse_information, plane_information_rows
from .grids import (
    GridSpec,
    block_map,
    block_workers,
    density_derivative_columns,
    real_inner,
    row_blocks,
    spectral_derivative_axis,
)
from .states import ZERO_NORM, Constants, Grid2DPureState, GridPureState


def _moment_sums(weights: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Weighted sums of a1, a2, a1^2, a1 a2, a2^2 over a block (a1, a2
    broadcast against the weights)."""
    w1, w2 = weights * a1, weights * a2
    return np.array([w1.sum(), w2.sum(), (w1 * a1).sum(), (w1 * a2).sum(), (w2 * a2).sum()])


def _separable_sums(weights: np.ndarray, a1: np.ndarray, a2: np.ndarray):
    """``_moment_sums(weights, a1[:, None], a2)`` of a block whose a1 varies
    per row and a2 per column, from its row sums, its column sums and one
    row reduction against a2; and the column sums."""
    rows, cols = weights.sum(axis=1), weights.sum(axis=0)
    cross = a1 @ np.einsum("ij,j->i", weights, a2)
    return np.array([rows @ a1, cols @ a2, rows @ a1 ** 2, cross, cols @ a2 ** 2]), cols


def _cov(moments) -> np.ndarray:
    """Covariance matrix from the moments (E a1, E a2, E a1^2, E a1 a2, E a2^2)."""
    m1, m2, s11, s12, s22 = moments
    return np.array([[s11 - m1 ** 2, s12 - m1 * m2], [s12 - m1 * m2, s22 - m2 ** 2]])


@dataclass(frozen=True)
class TwoParticleDecomposition:
    """Classical momentum components and the covariance bookkeeping of a 2D state.

    The classical components P_cl^(k) = hbar Im(conj(psi) d_k psi) / |psi|^2
    are kept only where the density is retained: ``classical_values_k``
    lists them in the row-major order of the ``retained`` mask (about 2% of
    the 5120^2 EPR grid).  ``classical_field_k`` scatters them into a
    full-size field, zero elsewhere, on each read.
    """

    classical_values_1: np.ndarray  # P_cl^(1) at the retained points
    classical_values_2: np.ndarray
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
    momentum_marginal: np.ndarray   # particle-2 momentum density at hbar k2, fft order
    peak_density: float             # max |psi|^2

    @property
    def cov_fisher(self) -> np.ndarray:
        """Fisher covariance of the position density; raises SingularInformation."""
        return inverse_information(self.information_position)

    @property
    def classical_field_1(self) -> np.ndarray:
        """P_cl^(1)(x1, x2) on the retained region, 0 elsewhere."""
        return self._field(self.classical_values_1)

    @property
    def classical_field_2(self) -> np.ndarray:
        return self._field(self.classical_values_2)

    def _field(self, values: np.ndarray) -> np.ndarray:
        field = np.zeros(self.retained.shape)
        field[self.retained] = values
        return field


def nonclassical_components_2d(state: Grid2DPureState) -> TwoParticleDecomposition:
    """Decompose both momentum components of a smooth 2D pure state.

    Cov(P_nc) is computed directly from the residual fields (not by
    subtraction), so the reported additivity residual is a genuine check of
    Cov(P) = Cov(P_cl) + Cov(P_nc).

    Only psi, one complex buffer ``spec`` and the ``retained`` mask are ever
    full-size; every other field lives in blocks of rows (``row_blocks``) or
    of columns and feeds sums, a maximum or the retained classical values.
    A block has at most ``grids.BLOCK_ROWS`` rows (or columns) and at most
    ``grids.BLOCK_BYTES`` of complex samples: 4 blocks of a 384^2 grid,
    whose temporaries then stay in L2, and 54 of a 5120^2 one.  The block
    size moves only the summation order of the sums; the mask, the
    classical values and the mixed-partials residual are elementwise.
    The passes over psi:

    1. dp/dx1, transformed along x1 from blocks of whole columns of
       p = |psi|^2 (``density_derivative_columns``), and max p over the same
       column blocks;
    2. per block of rows: the mask, the total and retained mass, the
       position moments from the row and column sums (``_separable_sums``)
       and the Fisher information sums; dp/dx1 is then freed, before
       ``spec`` exists;
    3. psi transformed along x1 into ``spec``; its row blocks transformed
       along x2 give the k-space density |psi~|^2, whose row and column sums
       give Cov(P) and <P>, and whose column sums are the particle-2
       momentum marginal; then ``spec`` times i k1, transformed back in
       place, is d(psi)/dx1;
    4. per block of rows of half the byte budget (``BLOCK_BYTES // 2``),
       with one halo row on each side: d(psi)/dx2 and
       chi_k = (P_k - P_cl^(k)) psi with their sums; the classical
       components, their sums and the mixed-partials residual only on the
       block's window of retained columns (``_row_sums``).  Each block
       writes its classical values at its offset in two arrays sized from
       the mask.

    On a psi above ``grids.POOL_BYTES`` (the 1536^2 and 5120^2 grids, not
    the 384^2 multidim case) every pass runs on two threads
    (``grids.block_map``): the column and row blocks, and the axis-0
    transforms of pass 3 in two column halves.  Each block returns its
    partial sums, which are added in block order, and a pass's blocks are
    the same on one thread and on two, so every result is bit for bit the
    serial one.  The blocks write into buffers the caller makes, one set
    per thread (``np.abs``, ``rfft``, ``fft``, ``irfft`` and ``multiply``
    with ``out=``): temporaries freed on a worker thread stay in its malloc
    arena, and the peak RSS would grow.  No sum over a block calls BLAS:
    the inner products of psi and chi_k are ``grids.real_inner``'s row sums
    and the information entries are pairwise ``np.sum``s.  OpenBLAS would
    wake its second thread for a dot product of more than 10,000 points,
    which then competes with the other block for the second core, and the
    sums would depend on the BLAS thread count.  ``_separable_sums`` still
    takes ``@`` products of one row or column of sums, of n points per
    axis: on more than 10,000 points per axis they are split too.

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
    n1, n2 = psi.shape
    x1, x2 = gx.points(), gy.points()
    workers = block_workers(psi.nbytes)

    grad_x, peak = density_derivative_columns(psi, gx)
    blocks = list(row_blocks(n1, n2))
    height = blocks[0].stop
    mask = np.empty(psi.shape, dtype=bool)

    def position_rows(rows, buffers):
        """The block's mask and its position, mass and information sums."""
        p_b, grad_y, half = (buffer[:rows.stop - rows.start] for buffer in buffers)
        np.abs(psi[rows], out=p_b)
        p_b *= p_b
        m_b = floor_mask(p_b, peak, out=mask[rows])
        block, cols = _separable_sums(p_b, x1[rows], x2)
        return (block, cols.sum(), p_b[m_b].sum(),
                plane_information_rows(p_b, grad_x[rows], m_b, gy, grad_y, half))

    position = np.zeros(5)      # p-weighted sums of x1, x2, x1^2, x1 x2, x2^2
    information = np.zeros(3)
    total = retained_mass = 0.0
    for block, mass, retained_b, info in block_map(
            position_rows, blocks, workers,
            lambda: (np.empty((height, n2)), np.empty((height, n2)),
                     np.empty((height, n2 // 2 + 1), complex))):
        position += block
        total += mass
        retained_mass += retained_b
        information += info
    del grad_x
    if (total - retained_mass) * w > MASKED_MASS_LIMIT:
        raise VanishingDensity("2D density vanishes on > 20% of mass")

    # the axis-0 transforms run on one range of columns per worker
    col_ranges = [slice(i * n2 // workers, (i + 1) * n2 // workers) for i in range(workers)]
    # rows padded by one sample spread each column over the cache sets: faster axis-0 FFTs
    spec = np.empty((n1, n2 + 1), dtype=complex)[:, :n2]
    list(block_map(lambda cols, _: np.fft.fft(psi[:, cols], axis=0, out=spec[:, cols]),
                   col_ranges, workers))
    kx = gx.wavenumbers()
    k1, k2 = hbar * kx, hbar * gy.wavenumbers()

    def spectrum_rows(rows, buffers):
        """The block's |psi~|^2 sums: its rows of spec transformed along x2."""
        transformed, dens = (buffer[:rows.stop - rows.start] for buffer in buffers)
        np.fft.fft(spec[rows], axis=1, out=transformed)
        np.abs(transformed, out=dens)
        dens *= dens
        return _separable_sums(dens, k1[rows], k2)

    momentum = np.zeros(5)      # |psi~|^2-weighted sums of k1, k2, k1^2, k1 k2, k2^2
    marginal = np.zeros(n2)     # |psi~|^2 summed over k1
    for block, cols in block_map(spectrum_rows, blocks, workers,
                                 lambda: (np.empty((height, n2), complex), np.empty((height, n2)))):
        momentum += block
        marginal += cols
    # unnormalized DFT: sum |psi~|^2 = psi.size sum |psi|^2, box-offset phases drop
    momentum *= w / psi.size
    kx[gx.n_points // 2] = 0.0
    ik = (1j * kx)[:, None]

    def derivative_x1(cols, _):
        """d(psi)/dx1 on the columns, in place of their spectrum, as
        spectral_derivative_axis forms it."""
        part = spec[:, cols]
        part *= ik
        np.fft.ifft(part, axis=0, out=part)

    list(block_map(derivative_x1, col_ranges, workers))
    d1 = spec  # now d(psi)/dx1

    # half-size blocks: two buffer sets cost what one set of full blocks
    # would, and the blocks are the same on one thread and on two
    blocks = list(row_blocks(n1, n2, grids.BLOCK_BYTES // 2))
    height = blocks[0].stop
    # each block's retained classical values land at its offset in two
    # arrays sized from the mask
    ends = np.cumsum([np.count_nonzero(mask[rows]) for rows in blocks])
    values_1, values_2 = np.empty(ends[-1]), np.empty(ends[-1])
    floor = 1e-6 * peak

    def nonclassical_rows(block, buffers):
        """The block's sums and mixed-partials residual; its classical values
        written at its offset."""
        rows, end = block
        lo, hi = max(rows.start - 1, 0), min(rows.stop + 1, n1)
        sums, v1, v2, mixed = _row_sums(
            psi[lo:hi], d1[lo:hi], mask[lo:hi], slice(rows.start - lo, rows.stop - lo),
            (lo == 0, hi == n1), floor, state, buffers)
        values_1[end - v1.size:end] = v1
        values_2[end - v2.size:end] = v2
        return sums, mixed

    sums = np.zeros(10)         # classical then nonclassical, as in _row_sums
    mixed = 0.0
    for block, block_mixed in block_map(
            nonclassical_rows, zip(blocks, ends), workers,
            lambda: (np.empty((height + 2, n2), complex), np.empty((height, n2), complex))):
        sums += block
        mixed = max(mixed, block_mixed)
    del spec, d1

    cov_x, cov_p = _cov(position * w), _cov(momentum)
    cov_cl = _cov(sums[:5] * w)
    cov_nc = _cov(sums[5:] * w)
    mean_nc = sums[5:7] * w
    scale = max(float(np.max(np.abs(cov_p))), 1e-300)
    additivity = float(np.max(np.abs(cov_p - cov_cl - cov_nc))) / scale

    # Fisher information of the normalized density p / total
    total *= w
    information *= w / total
    return TwoParticleDecomposition(values_1, values_2, mask,
                                    cov_x, cov_p, cov_cl, cov_nc, additivity, mixed, mean_nc,
                                    information, position[:2] * w, momentum[:2],
                                    _partner_momentum_density(marginal / n1, state), float(peak))


def _row_sums(psi, d1, retained, inner, edges, floor, state, buffers):
    """The classical and nonclassical sums of the ``inner`` rows of a block,
    their retained classical values, and the block's mixed-partials residual.

    ``psi``, ``d1`` = d(psi)/dx1 and ``retained`` hold the inner rows plus
    one halo row on each side that the lattice has (``edges`` tells where it
    has none): the residual's x1 stencil reads them.  The classical work
    runs on the block's retained columns plus one halo column on each side.
    d(psi)/dx2 and chi_1 go to the two complex ``buffers``, of at least the
    block's and the inner rows' shapes.
    """
    hbar = state.constants.hbar
    d2 = spectral_derivative_axis(psi, state.grid_y, axis=1, out=buffers[0][:len(psi)])
    cols = np.flatnonzero(retained.any(axis=0))
    win = slice(max(cols[0] - 1, 0), cols[-1] + 2) if cols.size else slice(0, 0)
    psi_w, retained_w = psi[:, win], retained[:, win]
    p = np.abs(psi_w) ** 2
    v1 = _classical_component(psi_w, d1[:, win], p, retained_w, hbar)
    v2 = _classical_component(psi_w, d2[:, win], p, retained_w, hbar)
    mixed = _mixed_partials_residual(v1, v2, p, state, floor, edges)

    at = retained_w[inner]
    psi_at, p, v1, v2 = psi_w[inner][at], p[inner][at], v1[inner][at], v2[inner][at]
    psi = psi[inner]
    # residual fields chi_k = (P_k - v_k) psi give Cov(P_nc) directly; off
    # the mask v_k psi is a signed zero, so only the retained points change
    chi1 = np.multiply(-1j * hbar, d1[inner], out=buffers[1][:len(psi)])
    chi2 = d2[inner]
    chi2 *= -1j * hbar
    chi1[:, win][at] -= v1 * psi_at
    chi2[:, win][at] -= v2 * psi_at
    nonclassical = [real_inner(psi, chi1), real_inner(psi, chi2), real_inner(chi1, chi1),
                    real_inner(chi1, chi2), real_inner(chi2, chi2)]
    sums = np.concatenate([_moment_sums(p, v1, v2), nonclassical])
    return sums, v1, v2, mixed


def _classical_component(psi, d, p, retained, hbar) -> np.ndarray:
    """hbar Im(conj(psi) d) / p on the retained points, 0 elsewhere."""
    v = np.zeros_like(p)
    v[retained] = hbar * np.imag(np.conj(psi[retained]) * d[retained]) / p[retained]
    return v


def _mixed_partials_residual(v1, v2, p, state, floor=None, edges=(True, True)) -> float:
    """Max |d(v1)/dx2 - d(v2)/dx1| on the well-retained core.

    The arrays hold consecutive rows of a range of columns whose first and
    last columns are the lattice's or hold no core point; rows 1 to -2 are
    evaluated and the first and last rows serve as their x1 neighbours.
    The core is p > ``floor`` (by default 1e-6 max p) without the first and
    last columns and without the lattice's edge rows; ``edges`` tells
    whether the first and last rows are the lattice's.  Only points whose
    whole stencil lies in the core count.

    Local differences only: the fields are defined just where the density
    is retained, so spectral stencils would drag in masked noise.
    """
    core = p > (1e-6 * p.max() if floor is None else floor)
    core[:, :1] = core[:, -1:] = False
    if edges[0]:
        core[0] = False
    if edges[1]:
        core[-1] = False
    interior = core[1:-1, 1:-1] & core[:-2, 1:-1] & core[2:, 1:-1] \
        & core[1:-1, :-2] & core[1:-1, 2:]
    i, j = np.nonzero(interior)
    if i.size == 0:
        return 0.0
    i += 1
    j += 1
    # np.gradient's central differences
    d_v1_d2 = (v1[i, j + 1] - v1[i, j - 1]) / (2. * state.grid_y.dx)
    d_v2_d1 = (v2[i + 1, j] - v2[i - 1, j]) / (2. * state.grid_x.dx)
    return float(np.max(np.abs(d_v1_d2 - d_v2_d1)))


# ---------------------------------------------------------------------------
# correlation coefficients


@dataclass(frozen=True)
class CorrelationRelation:
    """r_P of the nonclassical momenta plus r_F of the positions, which the
    matrix relation forces to cancel."""

    r_pearson: float
    r_fisher: float
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
    return CorrelationRelation(r_p_nc, r_f_x, abs(r_p_nc + r_f_x),
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

    Each block of rows is evaluated only on its band of columns within
    |x1 - x2 - a| <= 2 sigma sqrt(760): beyond it the exponent is below -760,
    and exp underflows to exactly 0 below -745.14, so psi stays at 0 there.
    The norm is summed over whole rows (``real_inner``, so not on OpenBLAS's
    threads) and applied in place as a reciprocal multiply (numpy's complex /
    real): psi equals the full-grid formula's value by value (signs of zeros
    aside), and Grid2DPureState keeps it as unit norm.
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
    psi = np.zeros((grid_x.n_points, grid_y.n_points), dtype=complex)
    reach = 2.0 * params.sigma * np.sqrt(760.0)
    norm_sq = 0.0
    bands = []
    for rows in row_blocks(*psi.shape):
        band = slice(np.searchsorted(x2, x1[rows.start] - params.a - reach),
                     np.searchsorted(x2, x1[rows.stop - 1] - params.a + reach, side="right"))
        bands.append((rows, band))
        # -(x1 - x2 - a)^2 / 4 sigma^2 - (x1 + x2)^2 / 4 tau^2, in place
        expo = np.subtract(x1[rows, None], x2[band])
        expo -= params.a
        np.square(expo, out=expo)
        expo /= 4.0 * params.sigma ** 2
        np.negative(expo, out=expo)
        com = np.add(x1[rows, None], x2[band])
        np.square(com, out=com)
        com /= 4.0 * params.tau ** 2
        expo -= com
        block = psi[rows, band]
        np.multiply(phase1[rows, None], phase2[band], out=block)
        block *= np.exp(expo, out=expo)
        norm_sq += real_inner(psi[rows], psi[rows])
    norm_sq *= grid_x.dx * grid_y.dx
    if norm_sq < ZERO_NORM:
        raise ZeroNorm("state norm is numerically zero")
    scale = 1.0 / np.sqrt(norm_sq)
    for rows, band in bands:
        psi[rows, band] *= scale
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


def collapse_position(state: Grid2DPureState, x: float,
                      peak_density: float | None = None) -> tuple[GridPureState, ClassicalComponent]:
    """Condition on particle 2 found at x: slice the nearest column, renormalize.

    The column's mass is checked against max |psi|^2: ``peak_density`` when
    given (``TwoParticleDecomposition.peak_density``), else read from psi.
    """
    gy = state.grid_y
    idx = int(np.clip(round((x - gy.x_min) / gy.dx), 0, gy.n_points - 1))
    column = state.amplitudes[:, idx]
    col_density = np.abs(column) ** 2
    peak = state.peak_amplitude() ** 2 if peak_density is None else peak_density
    if col_density.max() <= 1e-12 * peak:
        raise VanishingDensity(f"no support at x2 = {x}")
    collapsed = GridPureState(state.grid_x, column, state.constants)
    return collapsed, classical_estimate(collapsed, "position", "P")


def collapse_momentum(state: Grid2DPureState, p: float,
                      marginal: np.ndarray | None = None) -> tuple[GridPureState, ClassicalComponent]:
    """Condition on particle 2 momentum p via the partial Fourier transform.

    The transform over x2 is evaluated at the exact requested p (a direct
    Fourier sum), not at the nearest lattice point.  Its mass is checked
    against the peak of the particle-2 momentum marginal on the lattice:
    ``marginal`` when given (``TwoParticleDecomposition.momentum_marginal``),
    else ``momentum_marginal(state)``.
    """
    hbar = state.constants.hbar
    gy = state.grid_y
    kernel = np.exp(-1j * p * gy.points() / hbar) * gy.dx / np.sqrt(2.0 * np.pi * hbar)
    sliced = state.amplitudes @ kernel
    mass = float(np.sum(np.abs(sliced) ** 2) * state.grid_x.dx)
    if marginal is None:
        marginal = momentum_marginal(state)
    if mass <= 1e-12 * float(marginal.max()):
        raise VanishingDensity(f"no support at p2 = {p}")
    collapsed = GridPureState(state.grid_x, sliced, state.constants)
    return collapsed, classical_estimate(collapsed, "position", "P")


def momentum_marginal(state: Grid2DPureState) -> np.ndarray:
    """The particle-2 momentum density at the lattice momenta hbar k2 (fft
    order), from blocks of rows transformed along x2."""
    sums = np.zeros(state.grid_y.n_points)
    for rows in row_blocks(*state.amplitudes.shape):
        sums += np.sum(np.abs(np.fft.fft(state.amplitudes[rows], axis=1)) ** 2, axis=0)
    return _partner_momentum_density(sums, state)


def _partner_momentum_density(sums: np.ndarray, state: Grid2DPureState) -> np.ndarray:
    """The particle-2 momentum density from the x1-sums of |DFT_x2 psi|^2."""
    return sums * (state.grid_x.dx * state.grid_y.dx ** 2 / (2.0 * np.pi * state.constants.hbar))


def momentum_collapse_prediction(params: EprParams, p: float) -> float:
    """The collapsed classical momentum [sigma^2 p + tau^2 (p0 - p)] / (sigma^2 + tau^2)."""
    s2, t2 = params.sigma ** 2, params.tau ** 2
    return (s2 * p + t2 * (params.p0 - p)) / (s2 + t2)
