"""Best-estimate (classical) components of observables and their residuals.

For a measured basis {|a>} and observable B on state rho, the classical
component is the function

    B_cl(a) = <a|B rho + rho B|a> / (2 <a|rho|a>),

the estimate of B compatible with measuring A that minimizes the mean square
error.  Its residual statistics define the nonclassical fluctuation strength
entering the exact uncertainty relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .densities import masked_ratio
from .errors import CutoffTooSmall, UnsupportedObservable
from .grids import GridSpec, real_derivative_axis, spectral_derivative
from .states import (
    Constants,
    GridPureState,
    PeriodicState,
    ensemble_sum,
    evolve_step,
    moment,
    moments,
    to_momentum,
)


@dataclass(frozen=True)
class ClassicalComponent:
    """B_cl(a) over the measured basis, with its moment summary."""

    labels: np.ndarray          # basis labels (grid points, angles, eigenvalues)
    values: np.ndarray          # B_cl on the labels (masked entries hold 0)
    weights: np.ndarray         # probability mass per label, p(a) * measure
    mask: np.ndarray            # True where the label is retained
    observable: str
    basis: str
    masked_mass: float

    @property
    def mean(self) -> float:
        return float(np.sum(self.weights[self.mask] * self.values[self.mask]))

    @property
    def second_moment(self) -> float:
        return float(np.sum(self.weights[self.mask] * self.values[self.mask] ** 2))

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean ** 2


@dataclass(frozen=True)
class DecompositionSummary:
    var_total: float
    var_classical: float
    var_nonclassical: float
    additivity_residual: float
    min_error: float


@dataclass(frozen=True)
class PomObservable:
    """Outcome values with positive effects summing to the identity."""

    outcomes: np.ndarray
    effects: np.ndarray  # stacked (n_outcomes, d, d) positive matrices
    mean: float
    variance: float
    cutoff_study: tuple = ()

    def completeness_residual(self) -> float:
        total = np.sum(self.effects, axis=0)
        return float(np.max(np.abs(total - np.eye(total.shape[0]))))


def _masked_component(labels, state, terms, weight_measure, observable, basis):
    """Assemble a ClassicalComponent from the member sums of ``terms``, a pure
    state's stacked (numerator, density); labels with negligible density are
    masked."""
    numerator, density = ensemble_sum(state, terms)
    values, mask, masked_mass = masked_ratio(numerator, density, weight_measure)
    return ClassicalComponent(labels, values, density * weight_measure, mask,
                              observable, basis, masked_mass)


def classical_estimate(state, basis: str, observable: str) -> ClassicalComponent:
    """The best estimate of `observable` compatible with measuring `basis`.

    Supported combinations: grid states with (position, P) and (momentum, X);
    rotator states with (phase, J); Fock states with (phase, N) and
    (extended-phase, N).
    """
    key = (basis, observable)
    kind = state.family
    if kind == "grid" and key == ("position", "P"):
        return _grid_momentum_estimate(state)
    if kind == "grid" and key == ("momentum", "X"):
        return _grid_position_estimate(state)
    if (kind, *key) in (("periodic", "phase", "J"), ("fock", "phase", "N"),
                        ("fock", "extended-phase", "N")):
        return _rotator_estimate(state)
    raise UnsupportedObservable(f"no estimate of {observable} from {basis} "
                                f"for a {kind} state")


# Each estimate below sums <a|B rho + rho B|a> / 2 and <a|rho|a> over the
# members of a mixture; for one member psi the numerator is Re[<psi|a><a|B|psi>].


def _grid_momentum_estimate(state) -> ClassicalComponent:
    """P_cl(x); for pure psi this is hbar * Im[psi* psi'] / |psi|^2 (branch-free)."""
    hbar = state.constants.hbar
    grid = state.grid

    def terms(member):
        psi = member.amplitudes
        dpsi = spectral_derivative(psi, grid)
        return np.array([hbar * np.imag(np.conj(psi) * dpsi), np.abs(psi) ** 2])

    return _masked_component(grid.points(), state, terms, grid.dx, "P", "position")


def _grid_position_estimate(state) -> ClassicalComponent:
    """X_cl(p) in the momentum representation (X acts as +i*hbar d/dp)."""
    hbar = state.constants.hbar
    pgrid = state.grid.conjugate_grid(hbar)

    def terms(member):
        phi = to_momentum(member).amplitudes
        dphi = spectral_derivative(phi, pgrid)
        return np.array([-hbar * np.imag(np.conj(phi) * dphi), np.abs(phi) ** 2])

    return _masked_component(pgrid.points(), state, terms, pgrid.dx, "X", "momentum")


def _rotator_estimate(state, m: int | None = None) -> ClassicalComponent:
    """B_cl(phi) = (dB/dj) Im[f* f'] / |f|^2 on the phase grid for the label
    observable B: J_cl = hbar * Im[f* f'] / |f|^2 on a rotator, and
    N_cl = -Im[f* f'] / |f|^2 in Fock space, where N = n = -j; on m phase
    points, by default the state's own number."""
    slope = state.slope
    m = m or state.default_phase_points()

    def terms(member):
        f = member.phase_samples(m)
        df = member.phase_samples(m, weights=1j * member.j_values)
        return np.array([slope * np.imag(np.conj(f) * df), np.abs(f) ** 2])

    return _masked_component(state.phase_grid(m), state, terms,
                             2.0 * np.pi / m, state.observable, "phase")


def estimate_error(state, candidate, basis: str, observable: str) -> float:
    """Mean square error <(B - B~)^2> of an arbitrary compatible estimate.

    `candidate` is sampled on the same labels as the classical estimate.
    Always >= the minimum error, with equality iff candidate = B_cl on the
    retained support.
    """
    comp = classical_estimate(state, basis, observable)
    cand = np.asarray(candidate, dtype=float)
    if cand.shape != comp.values.shape:
        raise ValueError("candidate must be sampled on the basis labels")
    b_second = moment(state, observable, 2)
    m = comp.mask
    cross = float(np.sum(comp.weights[m] * cand[m] * comp.values[m]))
    cand_sq = float(np.sum(comp.weights[m] * cand[m] ** 2))
    return b_second - 2.0 * cross + cand_sq


def minimum_error(state, basis: str, observable: str) -> float:
    """<B^2> - <B_cl^2>, the error of the best compatible estimate."""
    comp = classical_estimate(state, basis, observable)
    return moment(state, observable, 2) - comp.second_moment


def decomposition_summary(state, basis: str, observable: str) -> DecompositionSummary:
    """Variance split Var B = Var B_cl + Var B_nc with its numerical residual.

    The nonclassical variance is the independently computed minimum error,
    so the residual genuinely measures the mean-equality <B> = <B_cl>.
    """
    comp = classical_estimate(state, basis, observable)
    mean, second = moments(state, observable)
    var_total = second - mean ** 2
    var_cl = comp.variance
    min_err = max(second - comp.second_moment, 0.0)  # rounding can put <B_cl^2> above <B^2>
    var_nc = min_err  # <B_nc^2> with <B_nc> = 0
    residual = abs(var_total - var_cl - var_nc)
    return DecompositionSummary(var_total, var_cl, var_nc, residual, min_err)


def energy_split(state: PeriodicState, constants: Constants | None = None) -> tuple[float, float]:
    """(E_cl, E_nc) with E_cl = hbar*omega*<N_cl> and E_cl + E_nc = hbar*omega*<N + 1/2>."""
    c = constants or state.constants
    comp = classical_estimate(state, "phase", "N")
    e_cl = c.hbar * c.omega * comp.mean
    total = c.hbar * c.omega * (moment(state, "N", 1) + 0.5)
    return e_cl, total - e_cl


# ---------------------------------------------------------------------------
# extended-space construction of the nonclassical number observable


def extended_number_nonclassical(state: PeriodicState, cutoff: int) -> PomObservable:
    """POM for the nonclassical number component via the extended space.

    The number space is extended with negative labels n = -cutoff..cutoff so
    phase kets become orthogonal; there N* - N*_cl is a genuine Hermitian
    operator, and projecting its eigenprojections back onto the physical
    subspace yields the effects.  Doubling the cutoff must leave the
    variance within 1e-4 relative, else CutoffTooSmall is raised.
    """
    if state.family != "fock":
        raise UnsupportedObservable(f"no number POM for a {state.family} state")
    if cutoff < state.label_max:
        raise ValueError("cutoff must cover the physical support")

    outcomes, effects, mean, var = _extended_pom(state, cutoff)
    _, _, mean2, var2 = _extended_pom(state, 2 * cutoff)
    scale = max(abs(var), abs(var2), 1e-30)
    if abs(var2 - var) / scale > 1e-4 and scale > 1e-12:
        raise CutoffTooSmall(
            f"Var N_nc moved from {var:.6g} to {var2:.6g} when doubling the cutoff")
    return PomObservable(outcomes, effects, mean, var,
                         cutoff_study=((cutoff, mean, var), (2 * cutoff, mean2, var2)))


def _extended_pom(state: PeriodicState, cutoff: int):
    labels = np.arange(-cutoff, cutoff + 1)
    dim = labels.size
    m_grid = 1 << max(12, int(np.ceil(np.log2(16 * dim))))

    # N*_cl(phi) of the embedded physical state
    comp = _rotator_estimate(state, m_grid)
    ncl, mask = comp.values, comp.mask
    if not mask.all():
        # fill masked points by interpolation so the Fourier analysis of
        # N*_cl(phi) is not polluted by artificial spikes
        idx = np.arange(m_grid)
        ncl[~mask] = np.interp(idx[~mask], idx[mask], ncl[mask], period=m_grid)

    # Toeplitz matrix elements <m|N*_cl|n> = (2 pi)^-1 int N*_cl e^{i(m-n)phi}
    coeffs = np.fft.ifft(ncl)  # coeffs[k] = (1/M) sum_m ncl_m e^{+2 pi i k m / M}
    order = np.subtract.outer(labels, labels)  # m - n
    ncl_matrix = coeffs[np.mod(order, m_grid)]

    nstar = np.diag(labels.astype(float))
    nonclassical = nstar - ncl_matrix
    herm_defect = np.max(np.abs(nonclassical - nonclassical.conj().T))
    nonclassical = 0.5 * (nonclassical + nonclassical.conj().T)
    if herm_defect > 1e-8:
        raise CutoffTooSmall("extended operator lost Hermiticity; raise the cutoff")

    eigvals, eigvecs = np.linalg.eigh(nonclassical)
    phys = slice(cutoff, cutoff + state.label_max + 1)  # labels 0..n_max
    proj = eigvecs[phys, :]  # rows: physical block of each eigenvector
    effects = np.einsum("il,jl->lij", proj, proj.conj())

    amps = state.amplitudes
    probs = np.real(np.einsum("i,lij,j->l", amps.conj(), effects, amps))
    probs = np.clip(probs, 0.0, None)
    mean = float(np.sum(eigvals * probs))
    second = float(np.sum(eigvals ** 2 * probs))
    return eigvals, effects, mean, second - mean ** 2


# ---------------------------------------------------------------------------
# continuity-equation cross-check


def continuity_residual(state, potential, dt: float) -> float:
    """Max-norm residual of d(p)/dt + d/dx [p * v_cl].

    The time derivative is a symmetric difference of single split steps; the
    flux divergence is spectral.  Valid for Hamiltonians quadratic in the
    conjugate observable.
    """
    if not isinstance(state, (GridPureState, PeriodicState)):
        raise UnsupportedObservable(f"no continuity equation for {type(state).__name__}")
    c = state.constants
    if state.family == "grid":
        grid, speed, density = state.grid, c.hbar / c.mass, GridPureState.position_density
        f = state.amplitudes
        df = spectral_derivative(f, grid)
    else:  # the phase samples on the periodic lattice [0, 2*pi)
        m = state.default_phase_points()
        grid, speed = GridSpec(m, 0.0, 2.0 * np.pi), c.hbar / c.moment_of_inertia
        f = state.phase_samples(m)
        df = state.phase_samples(m, weights=1j * state.j_values)
        density = partial(PeriodicState.phase_density, m=m)
    div = real_derivative_axis(speed * np.imag(np.conj(f) * df), grid, axis=0)
    fwd = evolve_step(state, potential, dt)
    bwd = evolve_step(state, potential, -dt)
    dpdt = (density(fwd) - density(bwd)) / (2.0 * dt)
    return float(np.max(np.abs(dpdt + div)))
