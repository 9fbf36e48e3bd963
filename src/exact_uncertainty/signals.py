"""Time-frequency analogue: instantaneous frequency and the exact relation.

A normalized complex signal a(t) decomposes its frequency content into the
instantaneous frequency f_inst(t) = (2*pi)^-1 d(arg a)/dt plus a fluctuation
whose strength pairs with the Fisher time delta_t in the exact relation
Delta_f_fluc * delta_t = (4*pi)^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import MASKED_MASS_LIMIT, LineDensity, floor_mask
from .errors import ParseError, VanishingDensity
from .fisher import ZERO_BY_DISCONTINUITY, fisher_length
from .grids import GridSpec, spectral_derivative
from .relations import FLAGGED, RelationReport, _equality_verdict


@dataclass(frozen=True)
class SignalRecord:
    """Uniformly sampled complex amplitude with unit energy integral |a|^2 dt.

    The frequency representation uses A(f) = integral a(t) e^{+2 pi i f t} dt
    as displayed; only even moments of |A|^2 enter the relations, so the
    mirrored frequency axis this implies is harmless and documented here
    once.
    """

    grid: GridSpec  # time axis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n_points,):
            raise ValueError("sample count does not match the time grid")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_samples(cls, times, values) -> "SignalRecord":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=complex)
        if times.size < 8:
            raise ParseError("need at least 8 samples")
        dt = np.diff(times)
        if np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
            raise ParseError("samples must be uniform in time")
        grid = GridSpec(times.size, float(times[0]), float(times[0] + dt[0] * times.size))
        norm = np.sum(np.abs(values) ** 2) * dt[0]
        if norm < 1e-30:
            raise ParseError("signal has zero energy")
        return cls(grid, values / np.sqrt(norm))

    @property
    def dt(self) -> float:
        return self.grid.dx

    def times(self) -> np.ndarray:
        return self.grid.points()

    def envelope_density(self) -> LineDensity:
        return LineDensity(self.grid, np.abs(self.amplitudes) ** 2)

    def frequency_representation(self) -> tuple[np.ndarray, np.ndarray]:
        """(f lattice sorted, A(f)) under the e^{+2 pi i f t} convention."""
        n = self.grid.n_points
        f = np.fft.fftfreq(n, d=self.dt)
        t0 = self.grid.x_min
        spec = n * np.fft.ifft(self.amplitudes) * self.dt * np.exp(2j * np.pi * f * t0)
        order = np.argsort(f)
        return f[order], spec[order]


def signal_from_rows(rows) -> SignalRecord:
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
    return SignalRecord.from_samples(data[:, 0], data[:, 1] + 1j * data[:, 2])


def instantaneous_frequency(signal: SignalRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, f_inst(t), retained mask) via Im[a* a'] / (2 pi |a|^2).

    Branch-free: no phase unwrapping.  Points where |a|^2 is negligible are
    masked; a VanishingDensity error means the mask ate > 20% of the energy.
    """
    a = signal.amplitudes
    da = spectral_derivative(a, signal.grid)
    dens = np.abs(a) ** 2
    mask = floor_mask(dens)
    if np.sum(dens[~mask]) * signal.dt > MASKED_MASS_LIMIT:
        raise VanishingDensity("signal envelope vanishes on > 20% of energy")
    values = np.zeros(signal.grid.n_points)
    values[mask] = np.imag(np.conj(a[mask]) * da[mask]) / (2.0 * np.pi * dens[mask])
    return signal.times(), values, mask


def frequency_moments(signal: SignalRecord) -> tuple[float, float]:
    """(mean, variance) of the spectral density |A(f)|^2."""
    f, spec = signal.frequency_representation()
    dens = np.abs(spec) ** 2
    df = f[1] - f[0]
    total = np.sum(dens) * df
    mean = float(np.sum(f * dens) * df / total)
    second = float(np.sum(f ** 2 * dens) * df / total)
    return mean, second - mean ** 2


def instantaneous_moments(signal: SignalRecord) -> tuple[float, float]:
    """(mean, variance) of f_inst over the envelope density."""
    _, values, mask = instantaneous_frequency(signal)
    dens = np.abs(signal.amplitudes) ** 2
    w = dens * signal.dt
    mean = float(np.sum(w[mask] * values[mask]))
    second = float(np.sum(w[mask] * values[mask] ** 2))
    return mean, second - mean ** 2


def verify_time_frequency(signal: SignalRecord, tol: float = 1e-6) -> RelationReport:
    """Delta_f_fluc * delta_t = (4*pi)^-1 for smooth signals.

    Causal or otherwise discontinuous envelopes are flagged (delta_t -> 0
    under refinement, with the spectral variance divergent), mirroring the
    position-momentum verifier.
    """
    dens = signal.envelope_density()
    fm = fisher_length(dens)
    _, var_f = frequency_moments(signal)
    _, var_inst = instantaneous_moments(signal)
    fluc = float(np.sqrt(max(var_f - var_inst, 0.0)))
    target = 1.0 / (4.0 * np.pi)

    notes = {
        "n_samples": signal.grid.n_points,
        "dt": signal.dt,
        "fisher_time": fm.fisher_length,
        "fisher_flag": fm.divergence_flag,
        "var_frequency": var_f,
        "var_instantaneous": var_inst,
        "heisenberg_product": float(np.sqrt(var_f) * np.sqrt(
            max(_time_variance(signal), 0.0))),
        "warnings": [],
    }
    notes["heisenberg_satisfied"] = bool(notes["heisenberg_product"] >= target * (1 - tol))
    if fm.divergence_flag == ZERO_BY_DISCONTINUITY:
        notes["flag"] = fm.divergence_flag
        notes["partner_divergent"] = True
        return RelationReport("time-frequency", fm.fisher_length, target, 0.0, tol,
                              FLAGGED, notes)
    left = fm.fisher_length * fluc
    residual, verdict = _equality_verdict(left, target, tol)
    return RelationReport("time-frequency", left, target, residual, tol, verdict, notes)


def _time_variance(signal: SignalRecord) -> float:
    t = signal.times()
    dens = np.abs(signal.amplitudes) ** 2
    w = dens * signal.dt
    mean = float(np.sum(w * t))
    return float(np.sum(w * t ** 2)) - mean ** 2


def gaussian_pulse(grid: GridSpec, width: float, center: float = 0.0,
                   carrier: float = 0.0, chirp: float = 0.0) -> SignalRecord:
    """Gaussian envelope of the given temporal width with carrier and chirp."""
    t = grid.points()
    a = np.exp(-((t - center) ** 2) / (4.0 * width ** 2)
               + 2j * np.pi * carrier * t + 1j * chirp * (t - center) ** 2)
    return SignalRecord.from_samples(t, a)
