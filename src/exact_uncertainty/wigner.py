"""Wigner transform on the grid and the average momentum it induces.

The transform W(x,p) = (2*pi*hbar)^-1 int dxi e^{-i p xi / hbar}
rho(x + xi/2, x - xi/2) is evaluated as a DFT over anti-diagonal slices of
rho.  Half-lattice offsets are sampled by trigonometric interpolation of
the state, which keeps the first moment of W in p free of O(dx) bias.

Slices are Hermitian in xi, s(x, -xi) = conj s(x, xi), for pure states and
mixtures, so only the n/2 + 1 offsets xi >= 0 are built, as strided windows
of the interpolated members, and a real-output transform of each row gives
the real, p-sorted W.  The slices are formed and transformed one
cache-sized block of x-rows at a time, straight into W, so W is the only
full-size array.  The offset xi = -L/2 has no partner on the lattice and is
W's only imaginary part in exact arithmetic: ``imaginary_residue`` is
(dx / 2 pi hbar) max |Im s(x, L/2)|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .densities import masked_ratio
from .grids import GridSpec, fourier_interpolate, row_blocks
from .states import MixedState

# byte budget of one complex block of slice rows: L2-sized, so a block's
# slices are still in cache when its rows are transformed (63 rows at n = 1024)
SLICE_BLOCK_BYTES = 512 << 10


@dataclass(frozen=True)
class WignerGrid:
    """W(x,p) samples; rows are x, columns are p (both sorted increasing)."""

    x_grid: GridSpec
    p_grid: GridSpec
    values: np.ndarray
    imaginary_residue: float
    box_warning: bool = False

    @property
    def measure(self) -> float:
        return self.x_grid.dx * self.p_grid.dx

    @property
    def total(self) -> float:
        return float(np.sum(self.values) * self.measure)

    def position_marginal(self) -> np.ndarray:
        return np.sum(self.values, axis=1) * self.p_grid.dx

    def momentum_marginal(self) -> np.ndarray:
        return np.sum(self.values, axis=0) * self.x_grid.dx


def wigner_transform(state) -> WignerGrid:
    """Wigner function of a grid pure state or mixture.

    W is built one block of SLICE_BLOCK_BYTES of x-rows at a time: the
    block's slices, summed over the members in ``ensemble_sum``'s order, go
    through one ``irfft`` into W's rows.  Each row is computed by the same
    operations as a whole-array build, so the values do not depend on the
    block size.
    """
    if state.family != "grid":
        raise TypeError("wigner_transform needs a grid state")

    grid = state.grid
    hbar = state.constants.hbar
    n = grid.n_points
    half = n // 2

    def windows(fine):  # row k holds fine[k - n/2 .. k], wrapped
        return sliding_window_view(np.concatenate([fine[-half:], fine, fine[:half]]), half + 1)

    def member_windows(member):
        # (-1)^o conj s(x_i, o dx) = (-1)^(2i+o) conj psi(x_i + o dx/2) psi(x_i - o dx/2)
        # for o = 0..n/2 is the product of these two windows, row by row; the
        # sign sorts W in p (the p lattice starts at -n/2 dp)
        fine = fourier_interpolate(member.amplitudes, 2)
        ahead = np.conj(fine)
        ahead[1::2] *= -1.0
        return windows(ahead)[half:half + 2 * n:2], windows(fine)[0:2 * n:2, ::-1]

    mixed = isinstance(state, MixedState)
    views = [member_windows(member) for member in (state.members if mixed else (state,))]

    def slices(rows):
        if not mixed:
            (ahead, behind), = views
            return np.multiply(ahead[rows], behind[rows])
        total = 0.0
        for weight, (ahead, behind) in zip(state.weights, views):
            # the fresh product first, as in ensemble_sum, so numpy reuses it
            total = total + np.multiply(ahead[rows], behind[rows]) * weight
        return total

    scale = grid.dx / (2.0 * np.pi * hbar)
    w = np.empty((n, n))

    def transform(rows):
        """Fill W's ``rows``; return the block's max |Im s(x, L/2)|."""
        block = slices(rows)
        peak = float(np.max(np.abs(block[:, half].imag)))
        # hfft(s) is irfft(conj s) without the 1/n; conj s is at hand, so no copy
        np.fft.irfft(block, n, axis=1, norm="forward", out=w[rows])
        w[rows] *= scale
        return peak

    residue = scale * max(transform(rows)
                          for rows in row_blocks(n, half + 1, budget=SLICE_BLOCK_BYTES))
    pgrid = grid.conjugate_grid(hbar)
    return WignerGrid(grid, pgrid, w, residue, state.box_warning())


def wigner_average_momentum(w: WignerGrid, marginal: np.ndarray | None = None
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x values, P_av(x), retained mask): first moment of W over p per row.

    Rows whose marginal is below threshold (nodes of the density) are
    masked, mirroring the density masking of the decomposition module.
    ``marginal`` is ``w.position_marginal()`` when the caller already holds it.
    """
    if marginal is None:
        marginal = w.position_marginal()
    # a matrix-vector product in einsum's own loop: on a shared 2-core host a
    # two-thread BLAS gemv took 0.2 to 8 ms at n = 1024, einsum a steady 0.5 ms
    first = np.einsum("ij,j->i", w.values, w.p_grid.points()) * w.p_grid.dx
    values, mask, _ = masked_ratio(first, marginal, w.x_grid.dx, "position marginal")
    return w.x_grid.points(), values, mask


def position_classical_in_momentum(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p values, X_cl(p), retained mask) via the Wigner first moment over x."""
    w = wigner_transform(state)
    first = np.einsum("i,ij->j", w.x_grid.points(), w.values) * w.x_grid.dx
    values, mask, _ = masked_ratio(first, w.momentum_marginal(), w.p_grid.dx,
                                   "momentum marginal")
    return w.p_grid.points(), values, mask


def wigner_to_csv_rows(w: WignerGrid):
    """Yield CSV rows (header then data) for export of the W(x,p) matrix."""
    yield ["x\\p"] + [f"{p:.12g}" for p in w.p_grid.points()]
    for xi, row in zip(w.x_grid.points(), w.values):
        yield [f"{xi:.12g}"] + [f"{v:.12g}" for v in row]
