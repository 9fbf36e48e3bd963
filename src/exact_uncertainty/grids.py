"""Uniform spatial grids and the spectral (DFT-based) calculus on them.

All states live on periodic uniform grids; derivatives and Fourier
conjugation are spectral, so smooth well-contained states are resolved to
near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid of ``n_points`` samples on ``[x_min, x_max)``."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 8, got {self.n_points}")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Signed spatial frequencies k (in fft order), so d/dx <-> i*k."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    def momenta(self, hbar: float = 1.0) -> np.ndarray:
        """Conjugate momentum lattice p = hbar*k in fft order; dp = 2*pi*hbar/(n*dx)."""
        return hbar * self.wavenumbers()

    def momentum_spacing(self, hbar: float = 1.0) -> float:
        return 2.0 * np.pi * hbar / (self.n_points * self.dx)

    def conjugate_grid(self, hbar: float = 1.0) -> "GridSpec":
        """The momentum-side grid, with points sorted increasingly."""
        dp = self.momentum_spacing(hbar)
        half = self.n_points // 2
        return GridSpec(self.n_points, -half * dp, half * dp)


def spectral_derivative(values, grid: GridSpec, order: int = 1, spectrum=None) -> np.ndarray:
    """Differentiate samples of a periodic (or box-decayed) function; from
    ``spectrum``, their ``np.fft.fft``, when the caller has formed it.

    Exact for band-limited inputs.  The Nyquist mode is zeroed for odd
    orders, where its derivative is not representable on the grid.
    """
    spectrum = np.fft.fft(np.asarray(values, dtype=complex)) if spectrum is None else spectrum
    k = grid.wavenumbers()
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[grid.n_points // 2] = 0.0
    return np.fft.ifft(mult * spectrum)


def spectral_derivative_axis(values, grid: GridSpec, axis: int, out=None) -> np.ndarray:
    """Spectral first derivative of a matrix of samples along one axis.

    The transform runs in one complex array of the input's shape: ``out``
    when given, else a new one.
    """
    values = np.asarray(values)
    k = grid.wavenumbers()
    k[grid.n_points // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = grid.n_points
    spec = np.fft.fft(values, axis=axis, out=out)
    spec *= (1j * k).reshape(shape)
    return np.fft.ifft(spec, axis=axis, out=spec)


def real_derivative_axis(values, grid: GridSpec, axis: int) -> np.ndarray:
    """Spectral first derivative of real samples along one axis, through the
    half spectrum (``rfft``/``irfft``): float64 of the input's shape, equal
    to the real part of ``spectral_derivative_axis`` up to rounding."""
    values = np.asarray(values, dtype=float)
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.n_points, d=grid.dx)
    k[-1] = 0.0  # the Nyquist bin
    shape = [1] * values.ndim
    shape[axis] = k.size
    spec = np.fft.rfft(values, axis=axis)
    spec *= (1j * k).reshape(shape)
    return np.fft.irfft(spec, n=grid.n_points, axis=axis)


def real_derivative_columns(columns, shape: tuple[int, int], grid: GridSpec) -> np.ndarray:
    """``real_derivative_axis(values, grid, axis=0)`` of a real matrix of
    ``shape`` whose columns ``columns(cols)`` returns for a slice ``cols``.

    The columns are fetched and transformed one block at a time, so the
    float64 result is the only full-size array; each column's transform is
    the whole-matrix one, bit for bit.
    """
    n_rows, n_cols = shape
    out = np.empty(shape)
    for cols in row_blocks(n_cols, n_rows):  # whole columns instead of whole rows
        out[:, cols] = real_derivative_axis(columns(cols), grid, axis=0)
    return out


# byte budget of one complex row block in the blocked 2D reductions: 102
# rows of a 5120 x 5120 grid, which BLOCK_ROWS then caps at 96
BLOCK_BYTES = 8 << 20
# row cap of a default block: the temporaries of a 96 x 384 block, about
# five times its 576 KiB of samples, fit a 4 MiB L2 (a whole 384^2 grid's do not)
BLOCK_ROWS = 96


def row_blocks(n_rows: int, n_cols: int, budget: int | None = None):
    """Slices of consecutive rows.

    A block has at most BLOCK_ROWS rows and its complex samples fit
    ``budget`` bytes, BLOCK_BYTES if None (both read at the call): 4 blocks
    of a 384 x 384 grid, 54 of a 5120 x 5120 one.
    """
    step = max(1, min(BLOCK_ROWS, (BLOCK_BYTES if budget is None else budget) // (16 * n_cols)))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def local_derivative(values, dx: float) -> np.ndarray:
    """Second-order finite differences: central interior, one-sided ends.

    Used where spectral differentiation is invalid (discontinuities,
    densities that do not decay at the array ends).
    """
    return np.gradient(np.asarray(values, dtype=float), dx, edge_order=2)


def fourier_interpolate(values, factor: int = 2) -> np.ndarray:
    """Trigonometric upsampling of periodic samples by an integer factor.

    Works on 1D vectors or 2D matrices (both axes upsampled).  Nyquist
    bins are split evenly, which preserves real-valuedness and norm.
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        return _interp_axis(values, factor, axis=0)
    out = _interp_axis(values, factor, axis=0)
    return _interp_axis(out, factor, axis=1)


def _interp_axis(values: np.ndarray, factor: int, axis: int) -> np.ndarray:
    n = values.shape[axis]
    spec = np.fft.fft(values, axis=axis)
    spec = np.moveaxis(spec, axis, 0)
    m = factor * n
    padded = np.zeros((m,) + spec.shape[1:], dtype=complex)
    half = n // 2
    padded[:half] = spec[:half]
    padded[m - half:] = spec[half:]
    # split the Nyquist bin between +n/2 and -n/2
    padded[half] = 0.5 * spec[half]
    padded[m - half] = 0.5 * spec[half]
    out = np.fft.ifft(padded, axis=0) * factor
    return np.moveaxis(out, 0, axis)
