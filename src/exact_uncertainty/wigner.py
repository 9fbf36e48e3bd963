"""Wigner transform on the grid and the average momentum it induces.

The transform W(x,p) = (2*pi*hbar)^-1 int dxi e^{-i p xi / hbar}
rho(x - xi/2, x + xi/2) is evaluated as a DFT over anti-diagonal slices of
rho.  Half-lattice offsets are sampled by trigonometric interpolation of
the state, which keeps the first moment of W in p free of O(dx) bias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import masked_ratio
from .grids import GridSpec, fourier_interpolate
from .states import GridPureState, ensemble_sum, family


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
    """Wigner function of a grid pure state or mixture (one FFT either way)."""
    if family(state) is not GridPureState:
        raise TypeError("wigner_transform needs a grid state")

    grid = state.grid
    hbar = state.constants.hbar
    n = grid.n_points
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    offset = k - n // 2  # xi_k / dx
    a = np.mod(2 * i + offset, 2 * n)
    b = np.mod(2 * i - offset, 2 * n)
    # rho(x + xi/2, x - xi/2): the orientation for which the x-integral
    # reproduces the momentum density (rather than its mirror image), summed
    # over the members of a mixture

    def member_slices(member):
        fine = fourier_interpolate(member.amplitudes, 2)
        return fine[a] * np.conj(fine[b])

    slices = ensemble_sum(state, member_slices)

    spec = np.fft.fft(slices, axis=1)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # e^{+i pi j} for the xi offset
    w = spec * signs[None, :] * (grid.dx / (2.0 * np.pi * hbar))
    residue = float(np.max(np.abs(w.imag)))
    w = np.fft.fftshift(np.real(w), axes=1)

    pgrid = grid.conjugate_grid(hbar)
    return WignerGrid(grid, pgrid, w, residue, state.box_warning())


def wigner_average_momentum(w: WignerGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x values, P_av(x), retained mask): first moment of W over p per row.

    Rows whose marginal is below threshold (nodes of the density) are
    masked, mirroring the density masking of the decomposition module.
    """
    p = w.p_grid.points()
    first = np.sum(w.values * p[None, :], axis=1) * w.p_grid.dx
    values, mask, _ = masked_ratio(first, w.position_marginal(), w.x_grid.dx,
                                   "position marginal")
    return w.x_grid.points(), values, mask


def position_classical_in_momentum(state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p values, X_cl(p), retained mask) via the Wigner first moment over x."""
    w = wigner_transform(state)
    x = w.x_grid.points()
    first = np.sum(w.values * x[:, None], axis=0) * w.x_grid.dx
    values, mask, _ = masked_ratio(first, w.momentum_marginal(), w.p_grid.dx,
                                   "momentum marginal")
    return w.p_grid.points(), values, mask


def wigner_to_csv_rows(w: WignerGrid):
    """Yield CSV rows (header then data) for export of the W(x,p) matrix."""
    yield ["x\\p"] + [f"{p:.12g}" for p in w.p_grid.points()]
    for xi, row in zip(w.x_grid.points(), w.values):
        yield [f"{xi:.12g}"] + [f"{v:.12g}" for v in row]
