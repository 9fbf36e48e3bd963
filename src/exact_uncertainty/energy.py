"""Energy identity and the Fisher / entropic ground-state bounds.

For mass m in potential V the mean energy of a pure state splits exactly as

    E = hbar^2 / (8 m dX^2) + <P_cl^2> / 2m + <V>,

so lower bounds on energy follow from bounds on the Fisher length dX, and
from the entropy via dX <= (2 pi e)^{-1/2} e^S.  Three worked potentials
(Coulomb, harmonic, uniform gravity) come with closed-form comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .decomposition import classical_estimate
from .densities import LineDensity
from .fisher import FINITE, entropy, fisher_length
from .states import Constants, GridPureState, moment

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EnergyModel:
    """Potential descriptor with its constants."""

    kind: str                      # coulomb | harmonic | gravity | sampled
    constants: Constants = field(default_factory=Constants)
    charge: float = 1.0            # q for coulomb
    nuclear_charge: float = 1.0    # Z for coulomb
    gravity: float = 1.0           # g for the bouncer
    samples: np.ndarray | None = None

    def potential_on(self, grid) -> np.ndarray:
        x = grid.points()
        if self.kind == "harmonic":
            return 0.5 * self.constants.mass * self.constants.omega ** 2 * x ** 2
        if self.kind == "gravity":
            return self.constants.mass * self.gravity * x
        if self.kind == "coulomb":
            with np.errstate(divide="ignore"):
                return -self.nuclear_charge * self.charge ** 2 / np.abs(x)
        if self.kind == "sampled":
            if self.samples is None or len(self.samples) != grid.n_points:
                raise ValueError("sampled potential must match the grid")
            return np.asarray(self.samples, dtype=float)
        raise ValueError(f"unknown potential kind {self.kind!r}")


@dataclass(frozen=True)
class BoundReport:
    bound: float
    kind: str                       # fisher | entropic | coulomb-closed-form
    minimizer: dict
    comparison: float | None = None
    notes: dict = field(default_factory=dict)


def golden_minimize(f, lo: float, hi: float, iterations: int = 200) -> tuple[float, float]:
    """Deterministic golden-section minimum of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    x = 0.5 * (a + b)
    return x, f(x)


def bracket_minimum(f, start: float = 1.0) -> tuple[float, float]:
    """Geometric expansion around `start` until the minimum is enclosed."""
    lo, hi = start, start
    for _ in range(200):
        lo /= 1.9
        hi *= 1.9
        if f(lo) > f(np.sqrt(lo * hi)) < f(hi):
            return lo, hi
    return lo, hi


def energy_identity(state: GridPureState, model: EnergyModel) -> dict:
    """Three-term energy split and the independently computed <H>."""
    c = model.constants
    dens = LineDensity(state.grid, state.position_density())
    fm = fisher_length(dens)
    comp = classical_estimate(state, "position", "P")
    v = model.potential_on(state.grid)
    mask = comp.mask
    v_mean = float(np.sum(dens.normalized().values[mask] * v[mask]) * state.grid.dx)

    fisher_term = c.hbar ** 2 / (8.0 * c.mass * fm.fisher_length ** 2) \
        if fm.divergence_flag == FINITE else float("inf")
    drift_term = comp.second_moment / (2.0 * c.mass)
    total = fisher_term + drift_term + v_mean

    kinetic = moment(state, "P", 2) / (2.0 * c.mass)
    return {
        "fisher_term": fisher_term,
        "drift_term": drift_term,
        "potential_term": v_mean,
        "total": total,
        "direct_energy": kinetic + v_mean,
        "fisher_flag": fm.divergence_flag,
    }


def fisher_bound(density: LineDensity, model: EnergyModel) -> BoundReport:
    """E >= hbar^2/(8 m dX^2) + <V>; saturated by real wavefunctions."""
    c = model.constants
    density = density.normalized()
    fm = fisher_length(density)
    v = model.potential_on(density.grid)
    mask = density.mask()
    if model.kind == "coulomb":
        v_mean = -model.nuclear_charge * model.charge ** 2 \
            * mean_inverse_abs(density)
    else:
        v_mean = float(np.sum(density.values[mask] * v[mask]) * density.grid.dx)
    if fm.divergence_flag != FINITE:
        return BoundReport(float("inf"), "fisher", {},
                           notes={"fisher_flag": fm.divergence_flag})
    bound = c.hbar ** 2 / (8.0 * c.mass * fm.fisher_length ** 2) + v_mean
    return BoundReport(bound, "fisher", {"fisher_length": fm.fisher_length},
                       notes={"potential_mean": v_mean})


def entropic_bound_value(s: float, v_mean: float, constants: Constants) -> float:
    """E >= pi e hbar^2 e^{-2S} / 4m + <V> for position entropy S."""
    c = constants
    return math.pi * math.e * c.hbar ** 2 * math.exp(-2.0 * s) / (4.0 * c.mass) + v_mean


def entropic_bound(density: LineDensity, model: EnergyModel) -> BoundReport:
    """The entropy route applied to one given density."""
    density = density.normalized()
    s = entropy(density)
    v = model.potential_on(density.grid)
    mask = density.mask()
    v_mean = float(np.sum(density.values[mask] * v[mask]) * density.grid.dx)
    bound = entropic_bound_value(s, v_mean, model.constants)
    return BoundReport(bound, "entropic", {"entropy": s}, notes={"potential_mean": v_mean})


def entropic_groundstate_bound(model: EnergyModel) -> BoundReport:
    """Maximize entropy at fixed potential mean, then minimize over the family.

    harmonic -> Gaussian family, optimum hbar*omega/2 (the true ground
    energy); gravity -> exponential family, optimum
    (3/2) (pi/2e)^{1/3} (m g^2 hbar^2)^{1/3}.
    """
    c = model.constants
    if model.kind == "harmonic":
        def objective(sigma):
            s = 0.5 * math.log(2.0 * math.pi * math.e * sigma ** 2)
            return entropic_bound_value(s, 0.5 * c.mass * c.omega ** 2 * sigma ** 2, c)

        lo, hi = bracket_minimum(objective, start=math.sqrt(c.hbar / (c.mass * c.omega)))
        sigma_star, value = golden_minimize(objective, lo, hi)
        closed = 0.5 * c.hbar * c.omega
        return BoundReport(value, "entropic", {"sigma": sigma_star}, comparison=closed,
                           notes={"family": "gaussian"})
    if model.kind == "gravity":
        def objective(lam):
            s = 1.0 + math.log(lam)  # exponential-density entropy
            return entropic_bound_value(s, c.mass * model.gravity * lam, c)

        scale = (c.hbar ** 2 / (c.mass ** 2 * model.gravity)) ** (1.0 / 3.0)
        lo, hi = bracket_minimum(objective, start=scale)
        lam_star, value = golden_minimize(objective, lo, hi)
        closed = 1.5 * (math.pi / (2.0 * math.e)) ** (1.0 / 3.0) \
            * (c.mass * model.gravity ** 2 * c.hbar ** 2) ** (1.0 / 3.0)
        return BoundReport(value, "entropic", {"lambda": lam_star}, comparison=closed,
                           notes={"family": "exponential"})
    raise ValueError(f"no entropy-maximizing family for {model.kind!r}")


def fisher_groundstate_bound(model: EnergyModel) -> BoundReport:
    """The Fisher route over the same one-parameter families."""
    c = model.constants
    if model.kind == "harmonic":
        def objective(sigma):
            return c.hbar ** 2 / (8.0 * c.mass * sigma ** 2) \
                + 0.5 * c.mass * c.omega ** 2 * sigma ** 2

        lo, hi = bracket_minimum(objective, start=math.sqrt(c.hbar / (c.mass * c.omega)))
        sigma_star, value = golden_minimize(objective, lo, hi)
        return BoundReport(value, "fisher", {"sigma": sigma_star},
                           comparison=0.5 * c.hbar * c.omega, notes={"family": "gaussian"})
    if model.kind == "gravity":
        def objective(lam):
            # exponential density has Fisher length lambda
            return c.hbar ** 2 / (8.0 * c.mass * lam ** 2) + c.mass * model.gravity * lam

        scale = (c.hbar ** 2 / (c.mass ** 2 * model.gravity)) ** (1.0 / 3.0)
        lo, hi = bracket_minimum(objective, start=scale)
        lam_star, value = golden_minimize(objective, lo, hi)
        return BoundReport(value, "fisher", {"lambda": lam_star},
                           notes={"family": "exponential"})
    raise ValueError(f"no Fisher family for {model.kind!r}")


def coulomb_groundstate_bound(nuclear_charge: float, charge: float,
                              constants: Constants | None = None) -> BoundReport:
    """Minimize hbar^2 u^2/2m - Z q^2 u over u = <1/|x|> numerically.

    Reproduces the closed form -Z^2 q^4 m / (2 hbar^2), the true ground
    energy of the Coulomb problem.
    """
    c = constants or Constants()
    zq2 = nuclear_charge * charge ** 2

    def objective(u):
        return c.hbar ** 2 * u ** 2 / (2.0 * c.mass) - zq2 * u

    u_scale = zq2 * c.mass / c.hbar ** 2
    lo, hi = bracket_minimum(objective, start=u_scale)
    u_star, value = golden_minimize(objective, lo, hi)
    closed = -nuclear_charge ** 2 * charge ** 4 * c.mass / (2.0 * c.hbar ** 2)
    return BoundReport(value, "coulomb-closed-form", {"mean_inverse_radius": u_star},
                       comparison=closed, notes={})


def mean_inverse_abs(density: LineDensity, exclusion_cells: int = 1) -> float:
    """<1/|x|> with a symmetric cell excluded around x = 0, Richardson-refined.

    The integrand is integrable when the density vanishes at the origin;
    the two-radius evaluation removes the O(eps^2) exclusion error.
    """
    density = density.normalized()
    x = density.grid.points()
    p = density.values

    def integral(eps):
        sel = np.abs(x) > eps
        return float(np.sum(p[sel] / np.abs(x[sel])) * density.grid.dx)

    eps1 = exclusion_cells * density.grid.dx
    i1 = integral(eps1)
    i2 = integral(2.0 * eps1)
    return (4.0 * i1 - i2) / 3.0


@cache
def airy_first_zero(step: float = 1e-3) -> float:
    """First zero of Ai(-z), from integrating u'' = -z u and bisecting.

    Initial data are the standard Ai(0), Ai'(0) values; fourth-order
    Runge-Kutta in z keeps the bracketing error far below the bisection
    tolerance.  A pure function of ``step``, so it is solved once per step.
    """
    u0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)   # Ai(0)
    du0 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)  # -Ai'(0)

    def integrate_to(z_end: float) -> float:
        z, u, v = 0.0, u0, du0
        n = max(1, int(math.ceil(z_end / step)))
        h = z_end / n
        for _ in range(n):
            k1u, k1v = v, -z * u
            k2u, k2v = v + 0.5 * h * k1v, -(z + 0.5 * h) * (u + 0.5 * h * k1u)
            k3u, k3v = v + 0.5 * h * k2v, -(z + 0.5 * h) * (u + 0.5 * h * k2u)
            k4u, k4v = v + h * k3v, -(z + h) * (u + h * k3u)
            u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            z += h
        return u

    lo, hi = 1.0, 4.0
    flo = integrate_to(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = integrate_to(mid)
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 0.5 * (lo + hi)


def bouncer_exact_energy(model: EnergyModel) -> float:
    """(m g^2 hbar^2 / 2)^{1/3} times the first zero of Ai(-z)."""
    c = model.constants
    return (c.mass * model.gravity ** 2 * c.hbar ** 2 / 2.0) ** (1.0 / 3.0) * airy_first_zero()
