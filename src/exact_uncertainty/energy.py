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
from functools import cache, partial

import numpy as np

from .decomposition import line_measurement
from .densities import LineDensity
from .fisher import FINITE, entropy, fisher_length
from .states import Constants, GridPureState

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


def golden_minimize(f, lo: float, hi: float) -> tuple[float, float]:
    """Deterministic golden-section minimum of a unimodal f on [lo, hi], in
    at most 200 steps."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
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


def _potential_mean(density: LineDensity, model: EnergyModel, mask: np.ndarray) -> float:
    """<V> by the plain quadrature over the retained points ``mask``."""
    v = model.potential_on(density.grid)
    return float(np.sum(density.values[mask] * v[mask]) * density.grid.dx)


def energy_identity(state: GridPureState, model: EnergyModel) -> dict:
    """Three-term energy split and the independently computed <H>, from the
    xp report's measurement (one forward FFT of psi)."""
    c = model.constants
    record = line_measurement(state)
    fm, comp = record.fisher, record.classical
    v_mean = _potential_mean(record.density, model, comp.mask)

    fisher_term = c.hbar ** 2 / (8.0 * c.mass * fm.fisher_length ** 2) \
        if fm.divergence_flag == FINITE else float("inf")
    drift_term = comp.second_moment / (2.0 * c.mass)
    total = fisher_term + drift_term + v_mean

    kinetic = record.partner[1] / (2.0 * c.mass)
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
    fm = fisher_length(density)
    if model.kind == "coulomb":
        v_mean = -model.nuclear_charge * model.charge ** 2 * mean_inverse_abs(density)
    else:
        v_mean = _potential_mean(density, model, density.mask())
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
    s = entropy(density)
    v_mean = _potential_mean(density, model, density.mask())
    bound = entropic_bound_value(s, v_mean, model.constants)
    return BoundReport(bound, "entropic", {"entropy": s}, notes={"potential_mean": v_mean})


def _family(model: EnergyModel) -> tuple | None:
    """The one-parameter density family of both ground-state routes, whose
    Fisher length is its parameter t: (name, parameter, start scale of the
    search, S(t), <V>(t), {route: closed-form minimum, or None}); None for a
    potential without one."""
    c = model.constants
    if model.kind == "harmonic":  # Gaussian densities of width sigma
        ground = 0.5 * c.hbar * c.omega  # the true ground energy
        return ("gaussian", "sigma", math.sqrt(c.hbar / (c.mass * c.omega)),
                lambda t: 0.5 * math.log(2.0 * math.pi * math.e * t ** 2),
                lambda t: 0.5 * c.mass * c.omega ** 2 * t ** 2,
                {"entropic": ground, "fisher": ground})
    if model.kind == "gravity":  # exponential densities of mean lambda
        return ("exponential", "lambda",
                (c.hbar ** 2 / (c.mass ** 2 * model.gravity)) ** (1.0 / 3.0),
                lambda t: 1.0 + math.log(t),
                lambda t: c.mass * model.gravity * t,
                {"entropic": 1.5 * (math.pi / (2.0 * math.e)) ** (1.0 / 3.0)
                 * (c.mass * model.gravity ** 2 * c.hbar ** 2) ** (1.0 / 3.0), "fisher": None})
    return None


def _groundstate_bound(model: EnergyModel, route: str, what: str, bound) -> BoundReport:
    """The minimum over the model's family of ``bound(S, V, t)``, where S and
    V give the family's entropy and potential mean at t."""
    family = _family(model)
    if family is None:
        raise ValueError(f"no {what} family for {model.kind!r}")
    name, parameter, scale, entropy_at, potential_at, closed = family
    objective = partial(bound, entropy_at, potential_at)
    lo, hi = bracket_minimum(objective, start=scale)
    t_star, value = golden_minimize(objective, lo, hi)
    return BoundReport(value, route, {parameter: t_star}, comparison=closed[route],
                       notes={"family": name})


def entropic_groundstate_bound(model: EnergyModel) -> BoundReport:
    """Maximize entropy at fixed potential mean, then minimize over the family:
    hbar*omega/2 (the true ground energy) for the harmonic potential, and
    (3/2) (pi/2e)^{1/3} (m g^2 hbar^2)^{1/3} for gravity."""
    return _groundstate_bound(model, "entropic", "entropy-maximizing", lambda s, v, t:
                              entropic_bound_value(s(t), v(t), model.constants))


def fisher_groundstate_bound(model: EnergyModel) -> BoundReport:
    """The Fisher route over the same one-parameter families."""
    c = model.constants
    return _groundstate_bound(model, "fisher", "Fisher", lambda s, v, t:
                              c.hbar ** 2 / (8.0 * c.mass * t ** 2) + v(t))


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


def mean_inverse_abs(density: LineDensity) -> float:
    """<1/|x|> with one cell excluded on each side of x = 0, Richardson-refined.

    The integrand is integrable when the density vanishes at the origin;
    the two-radius evaluation removes the O(eps^2) exclusion error.
    """
    x = density.grid.points()
    p = density.values

    def integral(eps):
        sel = np.abs(x) > eps
        return float(np.sum(p[sel] / np.abs(x[sel])) * density.grid.dx)

    i1 = integral(density.grid.dx)
    i2 = integral(2.0 * density.grid.dx)
    return (4.0 * i1 - i2) / 3.0


@cache
def airy_first_zero() -> float:
    """First zero of Ai(-z), from integrating u'' = -z u and bisecting.

    Initial data are the standard Ai(0), Ai'(0) values; fourth-order
    Runge-Kutta in z with steps of at most 1e-3 keeps the bracketing error
    far below the bisection tolerance.  Solved once per process.
    """
    step = 1e-3
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
