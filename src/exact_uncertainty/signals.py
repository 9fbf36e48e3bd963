"""Time-frequency analogue: instantaneous frequency and the exact relation.

A normalized complex signal a(t) decomposes its frequency content into the
instantaneous frequency f_inst(t) = (2*pi)^-1 d(arg a)/dt plus a fluctuation
whose strength pairs with the Fisher time delta_t in the exact relation
Delta_f_fluc * delta_t = (4*pi)^-1.

This is the position-momentum relation again: a signal is a normalized
``GridPureState`` of t at hbar = 1/(2*pi) (:func:`signal_from_samples`), whose
momentum P is the frequency f, and f_inst is the classical component
P_cl = hbar Im[a* a'] / |a|^2.  The report reads the xp report's measurement
of that state.
"""

from __future__ import annotations

import numpy as np

from .decomposition import classical_estimate, line_measurement
from .errors import ParseError
from .grids import GridSpec
from .relations import RelationReport, relation_report
from .states import Constants, GridPureState

SIGNAL_CONSTANTS = Constants(hbar=1.0 / (2.0 * np.pi))  # momentum is frequency


def signal_from_samples(times, values) -> GridPureState:
    """The unit-energy signal (integral |a|^2 dt = 1) of samples at strictly
    increasing uniform times, normalized as every state is where it is built:
    at any scale, and an all-zero signal is ZeroNorm."""
    times = np.asarray(times, dtype=float)
    if times.size < 8:
        raise ParseError("need at least 8 samples")
    if not np.all(np.isfinite(times)):  # a non-finite value is refused by GridPureState
        raise ParseError("sample times must be finite")
    dt = np.diff(times)
    # written so that a NaN fails the test
    if not (dt[0] > 0.0 and np.max(np.abs(dt - dt[0])) <= 1e-9 * dt[0]):
        raise ParseError("sample times must be strictly increasing and uniform")
    try:
        grid = GridSpec(times.size, float(times[0]), float(times[0] + dt[0] * times.size))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return GridPureState(grid, values, SIGNAL_CONSTANTS)


def frequency_representation(signal: GridPureState) -> tuple[np.ndarray, np.ndarray]:
    """(f lattice sorted, A(f)) for the displayed A(f) = integral a(t)
    e^{+2 pi i f t} dt, the mirror image of the signal's momentum density; the
    relation reads only the frequency variance, on which the two agree."""
    grid = signal.grid
    f = np.fft.fftfreq(grid.n_points, d=grid.dx)
    spec = (grid.n_points * np.fft.ifft(signal.amplitudes) * grid.dx
            * np.exp(2j * np.pi * f * grid.x_min))
    order = np.argsort(f)
    return f[order], spec[order]


def signal_from_rows(rows) -> GridPureState:
    """Build a signal from CSV rows with header columns t, re, im."""
    rows = list(rows)
    if not rows:
        raise ParseError("empty signal table")
    header = [c.strip().lower() for c in rows[0]]
    if header[:3] != ["t", "re", "im"]:
        raise ParseError("signal CSV must start with header t,re,im")
    try:
        data = np.array([[float(c) for c in row[:3]] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ParseError(f"non-numeric signal entry: {exc}") from exc
    if data.ndim != 2 or data.shape[0] < 8:
        raise ParseError("need at least 8 numeric rows")
    return signal_from_samples(data[:, 0], data[:, 1] + 1j * data[:, 2])


def instantaneous_frequency(signal: GridPureState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, f_inst(t), retained mask): f_inst is the signal's P_cl,
    Im[a* a'] / (2 pi |a|^2).

    Branch-free: no phase unwrapping.  Points where |a|^2 is negligible are
    masked; a VanishingDensity error means the mask ate > 20% of the energy.
    """
    comp = classical_estimate(signal, "position", "P")
    return comp.labels, comp.values, comp.mask


def verify_time_frequency(signal: GridPureState, tol: float = 1e-6) -> RelationReport:
    """Delta_f_fluc * delta_t = (4*pi)^-1 for smooth signals.

    Causal or otherwise discontinuous envelopes are flagged (delta_t -> 0
    under refinement, with the spectral variance divergent), mirroring the
    position-momentum verifier.
    """
    record = line_measurement(signal)
    (mean_t, second_t), var_f = record.measured, record.partner_variance
    heis = float(np.sqrt(var_f) * np.sqrt(max(second_t - mean_t ** 2, 0.0)))
    notes = {
        "n_samples": signal.grid.n_points,
        "dt": signal.grid.dx,
        "fisher_time": record.fisher.fisher_length,
        "var_frequency": var_f,
        "var_instantaneous": record.classical.variance,
        "heisenberg_product": heis,
        "heisenberg_satisfied": bool(heis >= record.target * (1 - tol)),
    }
    return relation_report(record, "time-frequency", tol, notes)


def gaussian_pulse(grid: GridSpec, width: float, center: float = 0.0,
                   carrier: float = 0.0, chirp: float = 0.0) -> GridPureState:
    """Gaussian envelope of the given temporal width with carrier and chirp."""
    t = grid.points()
    a = np.exp(-((t - center) ** 2) / (4.0 * width ** 2)
               + 2j * np.pi * carrier * t + 1j * chirp * (t - center) ** 2)
    return GridPureState(grid, a, SIGNAL_CONSTANTS)
