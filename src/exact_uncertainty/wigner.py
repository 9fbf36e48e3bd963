"""Wigner transform on the grid and the average momentum it induces.

The transform W(x,p) = (2*pi*hbar)^-1 int dxi e^{-i p xi / hbar}
rho(x + xi/2, x - xi/2) is evaluated as a DFT over anti-diagonal slices of
rho.  Half-lattice offsets are sampled by trigonometric interpolation of
the state, which keeps the first moment of W in p free of O(dx) bias.

Slices are Hermitian in xi, s(x, -xi) = conj s(x, xi), for pure states and
mixtures, so only the n/2 + 1 offsets xi >= 0 are built, as strided windows
of the interpolated members, and a real-output transform of each row gives
the real, p-sorted W.  The slices are formed and transformed one
cache-sized block of x-rows at a time: ``wigner_transform`` lands each block
in W, its only full-size array; the `wigner` report reduces each block (and
writes its CSV rows) as it arrives, so it never holds W.  The offset xi = -L/2
has no partner on the lattice and is W's only imaginary part in exact
arithmetic: ``imaginary_residue`` is (dx / 2 pi hbar) max |Im s(x, L/2)|.
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


def wigner_rows(state, w: np.ndarray | None = None):
    """Yield (rows, W[rows], the block's imaginary residue) of a grid state
    in x order, one block of SLICE_BLOCK_BYTES of x-rows at a time.

    A block's slices, summed over the members in ``ensemble_sum``'s order, go
    through one ``irfft`` into ``w[rows]`` if an n x n ``w`` is given, else into
    one block-sized buffer that the next block overwrites.  Each row is made by
    the same operations as a whole-array build, whatever the block size.
    """
    grid = state.grid
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
    blocks = list(row_blocks(n, half + 1, budget=SLICE_BLOCK_BYTES))
    # reused by every block: a fresh block-sized array page-faults anew after each free
    held = np.empty((2 if mixed else 1, blocks[0].stop, half + 1), complex)
    buffer = np.empty((blocks[0].stop, n)) if w is None else None

    def slices(rows):
        if not mixed:
            (ahead, behind), = views
            return np.multiply(ahead[rows], behind[rows], out=held[0, :rows.stop - rows.start])
        total, term = held[:, :rows.stop - rows.start]
        total[...] = 0.0
        for weight, (ahead, behind) in zip(state.weights, views):
            # each member's product times its weight, then the sum, as in ensemble_sum
            np.multiply(ahead[rows], behind[rows], out=term)
            term *= weight
            total += term
        return total

    scale = grid.dx / (2.0 * np.pi * state.constants.hbar)
    for rows in blocks:
        out = w[rows] if w is not None else buffer[:rows.stop - rows.start]
        block = slices(rows)
        residue = scale * float(np.max(np.abs(block[:, half].imag)))
        # hfft(s) is irfft(conj s) without the 1/n; conj s is at hand, so no copy
        np.fft.irfft(block, n, axis=1, norm="forward", out=out)
        out *= scale
        yield rows, out, residue


def wigner_transform(state) -> WignerGrid:
    """Wigner function of a grid pure state or mixture: ``wigner_rows``
    writes straight into W, the only full-size array."""
    if state.family != "grid":
        raise TypeError("wigner_transform needs a grid state")
    w = np.empty((state.grid.n_points,) * 2)
    residue = max(residue for _, _, residue in wigner_rows(state, w))
    return WignerGrid(state.grid, state.grid.conjugate_grid(state.constants.hbar), w, residue,
                      state.box_warning())


def wigner_row_moments(blocks, x_grid: GridSpec, p_grid: GridSpec):
    """(position marginal, P_av(x), retained mask, min W, imaginary residue)
    from W's row blocks, each reduced as it arrives.  P_av(x) is W's first
    moment over p per row over the marginal; rows whose marginal is below
    threshold (nodes of the density) are masked, as in the decomposition module.
    """
    sums, first = np.empty(x_grid.n_points), np.empty(x_grid.n_points)
    p = p_grid.points()
    low, residue = np.inf, 0.0
    for rows, block, block_residue in blocks:
        sums[rows] = np.sum(block, axis=1)
        # a matrix-vector product in einsum's own loop: on a shared 2-core host a
        # two-thread BLAS gemv took 0.2 to 8 ms at n = 1024, einsum a steady 0.5 ms
        first[rows] = np.einsum("ij,j->i", block, p)
        low = float(np.minimum(low, block.min()))
        residue = max(residue, block_residue)
    marginal = sums * p_grid.dx
    values, mask, _ = masked_ratio(first * p_grid.dx, marginal, x_grid.dx, "position marginal")
    return marginal, values, mask, low, residue


def wigner_average_momentum(w: WignerGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x values, P_av(x), retained mask) of a whole W, by ``wigner_row_moments``."""
    _, values, mask, _, _ = wigner_row_moments([(slice(None), w.values, w.imaginary_residue)],
                                               w.x_grid, w.p_grid)
    return w.x_grid.points(), values, mask


def position_classical_in_momentum(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p values, X_cl(p), retained mask) via the Wigner first moment over x."""
    w = wigner_transform(state)
    first = np.einsum("i,ij->j", w.x_grid.points(), w.values) * w.x_grid.dx
    values, mask, _ = masked_ratio(first, w.momentum_marginal(), w.p_grid.dx,
                                   "momentum marginal")
    return w.p_grid.points(), values, mask


def wigner_to_csv_rows(blocks, x_grid: GridSpec, p_grid: GridSpec, writer):
    """Pass W's row blocks on, first writing each block's rows to the csv
    ``writer`` (after a header row of p values), so an export holds one block."""
    writer.writerow(["x\\p"] + [f"{p:.12g}" for p in p_grid.points()])
    x = x_grid.points()
    for rows, block, residue in blocks:
        writer.writerows([f"{xi:.12g}"] + [f"{v:.12g}" for v in row]
                         for xi, row in zip(x[rows], block))
        yield rows, block, residue
