"""Probability densities on lines and circles, and over discrete labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VanishingDensity
from .grids import GridSpec
from .states import _in_range

MASK_FLOOR = 1e-12  # labels with p below this fraction of max(p) are masked
MASKED_MASS_LIMIT = 0.2  # more probability mass than this on masked labels is an error


def floor_mask(values: np.ndarray, peak: float | None = None, out=None) -> np.ndarray:
    """True where a density is retained: above MASK_FLOOR of its maximum,
    which ``peak`` gives when ``values`` is one block of the density; into
    ``out`` when given."""
    return np.greater(values, MASK_FLOOR * (values.max() if peak is None else peak), out=out)


def masked_ratio(numerator: np.ndarray, density: np.ndarray, measure: float,
                 what: str = "probability mass"):
    """(numerator / density on retained labels and 0 elsewhere, the mask, the
    masked mass); VanishingDensity when that mass exceeds MASKED_MASS_LIMIT."""
    mask = floor_mask(density)
    masked_mass = float(np.sum(density[~mask]) * measure)
    if masked_mass > MASKED_MASS_LIMIT:
        raise VanishingDensity(f"{masked_mass:.2f} of the {what} lies on masked labels")
    values = np.zeros_like(density)
    values[mask] = numerator[mask] / density[mask]
    return values, mask, masked_mass


@dataclass(frozen=True)
class LineDensity:
    """Nonnegative samples p(x_k) on a uniform grid, normalized where it is
    built: the values are divided by their total sum(p) dx at any scale
    (``states._in_range``)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("value count does not match grid")
        if vals.min() < -1e-14 * max(vals.max(), 1.0):
            raise ValueError("density has negative values")
        vals, total = _in_range(np.clip(vals, 0.0, None),
                                lambda v: float(np.sum(v) * self.grid.dx))
        object.__setattr__(self, "values", vals / total)

    def mask(self) -> np.ndarray:
        return floor_mask(self.values)

    def masked_mass(self) -> float:
        return float(np.sum(self.values[~self.mask()]) * self.grid.dx)


def circle_density(values) -> LineDensity:
    """Samples p(phi_m) on phi_m = 2*pi*m/M: a line density on the periodic
    lattice [0, 2*pi)."""
    values = np.asarray(values, dtype=float)
    return LineDensity(GridSpec(values.size, 0.0, 2.0 * np.pi), values)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probabilities over a finite outcome set, divided by their sum where
    they are built, at any scale (``states._in_range``)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.min() < -1e-14:
            raise ValueError("negative probability")
        p, total = _in_range(np.clip(p, 0.0, None), lambda q: float(q.sum()))
        object.__setattr__(self, "probs", p / total)

    @property
    def n_outcomes(self) -> int:
        return self.probs.size
