"""Uniform spatial grids and the spectral (DFT-based) calculus on them.

All states live on periodic uniform grids; derivatives and Fourier
conjugation are spectral, so smooth well-contained states are resolved to
near machine precision.
"""

from __future__ import annotations

import os
import threading
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


def real_derivative_axis(values, grid: GridSpec, axis: int, out=None, spec=None) -> np.ndarray:
    """Spectral first derivative of real samples along one axis, through the
    half spectrum (``rfft``/``irfft``): float64 of the input's shape, equal
    to the real part of ``spectral_derivative_axis`` up to rounding.

    The derivative goes to ``out`` and the half spectrum to ``spec`` when
    they are given, else to new arrays.
    """
    values = np.asarray(values, dtype=float)
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.n_points, d=grid.dx)
    k[-1] = 0.0  # the Nyquist bin
    shape = [1] * values.ndim
    shape[axis] = k.size
    spec = np.fft.rfft(values, axis=axis, out=spec)
    spec *= (1j * k).reshape(shape)
    return np.fft.irfft(spec, n=grid.n_points, axis=axis, out=out)


# byte budget of one complex row block in the blocked 2D reductions: 102
# rows of a 5120 x 5120 grid, which BLOCK_ROWS then caps at 96
BLOCK_BYTES = 8 << 20
# row cap of a default block: the temporaries of a 96 x 384 block, about
# five times its 576 KiB of samples, fit a 4 MiB L2 (a whole 384^2 grid's do not)
BLOCK_ROWS = 96
# arrays above this size run their FFT-bound block passes on two threads
# (block_workers).  The EPR decomposition on 2 cores, pooled against serial:
# 384^2 (2.25 MiB, the multidim report) 20% slower, 1536^2 (36 MiB) -8%
# within the noise, 2048^2 (64 MiB) -13%, 3584^2 and 5120^2 (400 MiB) -20%
POOL_BYTES = 48 << 20


def row_blocks(n_rows: int, n_cols: int, budget: int | None = None):
    """Slices of consecutive rows.

    A block has at most BLOCK_ROWS rows and its complex samples fit
    ``budget`` bytes, BLOCK_BYTES if None (both read at the call): 4 blocks
    of a 384 x 384 grid, 54 of a 5120 x 5120 one.
    """
    step = max(1, min(BLOCK_ROWS, (BLOCK_BYTES if budget is None else budget) // (16 * n_cols)))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def block_workers(nbytes: int) -> int:
    """Threads for the FFT-bound block passes over an array of ``nbytes``:
    2 above POOL_BYTES when the process may run on two CPUs, else 1."""
    if nbytes <= POOL_BYTES:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 2 if (cpus or 1) >= 2 else 1


_pool = None  # the two-thread pool of block_map, made on first use
_pool_lock = threading.Lock()


def block_map(fn, blocks, workers: int, scratch=tuple):
    """``fn(block, buffers)`` for each block, the results in block order.

    One worker runs the blocks in turn (the built-in ``map``); two run them
    on a two-thread pool, which holds the GIL only between numpy calls.
    ``scratch()`` makes one set of buffers, and the caller makes one set
    per worker: each block borrows a set that no running block holds, so
    the workers allocate no block temporaries (a worker thread's malloc
    arena would keep them, and the process's RSS would grow).
    """
    global _pool
    if workers == 1:
        buffers = scratch()
        return map(lambda block: fn(block, buffers), blocks)
    # imported here: a process that never pools pays nothing at import
    import queue
    from concurrent.futures import ThreadPoolExecutor

    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(scratch())

    def run(block):
        buffers = free.get()
        try:
            return fn(block, buffers)
        finally:
            free.put(buffers)

    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(2, thread_name_prefix="block")
    return _pool.map(run, blocks)


def density_derivative_columns(values: np.ndarray, grid: GridSpec):
    """dp/dx along axis 0 of the density p = |values|^2 (complex values) or
    p = values (real), and max p.

    p is formed and transformed one block of whole columns at a time
    (``block_map``), so the float64 derivative is the only full-size array;
    each column's transform is ``real_derivative_axis``'s whole-matrix
    one, bit for bit.
    """
    n_rows, n_cols = values.shape
    squared = np.iscomplexobj(values)
    out = np.empty(values.shape)
    blocks = list(row_blocks(n_cols, n_rows))  # whole columns instead of whole rows
    width = blocks[0].stop

    def scratch():
        return (np.empty((n_rows, width)) if squared else None,
                np.empty((n_rows // 2 + 1, width), complex))

    def derivative(cols, buffers):
        n = cols.stop - cols.start
        if squared:
            p = np.abs(values[:, cols], out=buffers[0][:, :n])
            p *= p
        else:
            p = values[:, cols]
        real_derivative_axis(p, grid, 0, out=out[:, cols], spec=buffers[1][:, :n])
        return p.max()

    peaks = block_map(derivative, blocks, block_workers(values.nbytes), scratch)
    return out, max(peaks)


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
