"""Best-estimate (classical) components of observables and their residuals.

For a measured basis {|a>} and observable B on state rho, the classical
component is the function

    B_cl(a) = <a|B rho + rho B|a> / (2 <a|rho|a>),

the estimate of B compatible with measuring A that minimizes the mean square
error.  Its residual statistics define the nonclassical fluctuation strength
entering the exact uncertainty relations; a LineMeasurement holds everything
a line or circle relation reads, each quantity formed once per report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .densities import LineDensity, circle_density, floor_mask, masked_ratio
from .errors import CutoffTooSmall, UnsupportedObservable
from .fisher import (
    FisherMetrics,
    commutator_fisher_length,
    fisher_length,
    fisher_length_periodic,
)
from .grids import GridSpec, real_derivative_axis, spectral_derivative
from .states import (
    GridPureState,
    MixedState,
    PeriodicState,
    density_moments,
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


@dataclass(frozen=True)
class LineMeasurement:
    """One report's measurement of A on a line or circle, each quantity formed
    once, for delta_A * Delta_B_nc against ``target`` = |dB/dj| / 2; for a
    mixture on a line also both sides of the chain identity
    hbar^2 / (4 delta_A^2) + <B_cl^2> = integral |<a|B rho|a>|^2 / p(a)."""

    density: LineDensity            # p(a)
    fisher: FisherMetrics           # of p(a)
    classical: ClassicalComponent   # B_cl(a)
    partner: tuple                  # (<B>, <B^2>)
    target: float
    mixed: bool
    measured: tuple | None = None   # (<A>, <A^2>) on a line
    chain: tuple | None = None      # (left side, right side)

    @property
    def partner_variance(self) -> float:
        mean, second = self.partner
        return second - mean ** 2

    @property
    def nonclassical_variance(self) -> float:
        """<B_nc^2> = Var B - Var B_cl, clipped at 0 against rounding."""
        return max(self.partner_variance - self.classical.variance, 0.0)


def classical_estimate(state, basis: str, observable: str) -> ClassicalComponent:
    """The best estimate of `observable` compatible with measuring `basis`.

    Supported combinations: grid states with (position, P) and (momentum, X);
    rotator states with (phase, J); Fock states with (phase, N) and
    (extended-phase, N).
    """
    key = (basis, observable)
    kind = state.family
    if kind == "grid" and key in (("position", "P"), ("momentum", "X")):
        line_state = state if basis == "position" else _reflected(state)
        density, numerator = ensemble_sum(line_state, partial(_line_terms, partner=False))[:2]
        return _component(line_state.grid.points(), numerator, density, line_state.grid.dx)
    if (kind, *key) in (("periodic", "phase", "J"), ("fock", "phase", "N"),
                        ("fock", "extended-phase", "N")):
        return circle_measurement(state).classical
    raise UnsupportedObservable(f"no estimate of {observable} from {basis} "
                                f"for a {kind} state")


def _component(labels, numerator, density, measure) -> ClassicalComponent:
    """B_cl from the member sums of <a|B rho + rho B|a> / 2 (for one member psi,
    Re[<psi|a><a|B|psi>]) and of <a|rho|a>; negligible densities are masked."""
    values, mask, masked_mass = masked_ratio(numerator, density, measure)
    return ClassicalComponent(labels, values, density * measure, mask, masked_mass)


def _line_terms(member, partner: bool) -> tuple:
    """One member's terms on its lattice, from one forward FFT: |psi|^2,
    hbar Im[psi* psi'], psi' psi*, the moments of the lattice coordinate and,
    when ``partner``, the momentum's from |psi~|^2 of the same spectrum."""
    grid, hbar, psi = member.grid, member.constants.hbar, member.amplitudes
    spectrum = np.fft.fft(psi)
    dpsi, conj = spectral_derivative(psi, grid, spectrum=spectrum), np.conj(psi)
    density = np.abs(psi) ** 2
    # psi* psi' and psi' psi* can differ in the last bit of the imaginary part
    # (fused multiply-adds); each keeps the order its quantity has been formed in
    terms = (density, hbar * np.imag(conj * dpsi), dpsi * conj,
             np.array(density_moments(grid.points(), density, grid.dx)))
    if not partner:
        return terms
    p_density = np.abs(to_momentum(member, spectrum).amplitudes) ** 2
    return terms + (np.array(density_moments(grid.conjugate_grid(hbar).points(), p_density,
                                             grid.momentum_spacing(hbar))),)


def _reflected(state):
    """conj(psi~) of each member on the momentum lattice: its position is p,
    its momentum is x, and its P_cl(p) = -hbar Im[psi~* psi~'] / |psi~|^2 is
    X_cl(p) of psi."""
    def reflect(member):
        phi = to_momentum(member)
        return replace(phi, amplitudes=np.conj(phi.amplitudes))

    if isinstance(state, MixedState):
        return MixedState(state.weights, tuple(reflect(m) for m in state.members))
    return reflect(state)


def line_measurement(state, conjugate: bool = False) -> LineMeasurement:
    """The measurement of X on a grid state or mixture, <P> and <P^2> from the
    transform that gives psi' (one forward FFT per member); when ``conjugate``,
    that of the reflected state (:func:`_reflected`), <X> and <X^2> from |psi|^2.
    A mixture's Fisher length takes the commutator form for X, and for P comes
    from the density, whose derivative alone (the reflected members are exactly
    band-limited) shows a lattice too coarse for the momentum density."""
    line_state = _reflected(state) if conjugate else state
    grid, hbar = line_state.grid, line_state.constants.hbar
    mixed = isinstance(state, MixedState)
    sums = ensemble_sum(line_state, partial(_line_terms, partner=not conjugate))
    density, numerator, z, moments_a = sums[:4]
    line = LineDensity(grid, density)
    fisher = (commutator_fisher_length(grid, density, 2.0 * np.real(z)) if mixed and not conjugate
              else fisher_length(line))
    # P_cl = hbar Im[psi* psi'] / |psi|^2, branch-free; X_cl(p) of psi when conjugate
    classical = _component(grid.points(), numerator, density, grid.dx)
    chain = None
    if mixed:
        # <x|P rho|x> = -i hbar d/dx rho(x, x') at x' = x = -i hbar sum_i w_i psi_i' psi_i*
        q = -1j * hbar * z
        mask = floor_mask(density)
        chain = (hbar ** 2 / (4.0 * fisher.fisher_length ** 2) + classical.second_moment,
                 float(np.sum(np.abs(q[mask]) ** 2 / density[mask]) * grid.dx))
    partner = moments(state, "X") if conjugate else sums[4]
    return LineMeasurement(line, fisher, classical, tuple(float(v) for v in partner),
                           0.5 * hbar, mixed, tuple(float(v) for v in moments_a), chain)


def _circle_terms(member, m: int) -> tuple:
    """One member's |f|^2, (dB/dj) Im[f* f'] and label moments on m phase points."""
    f = member.phase_samples(m)
    df = member.phase_samples(m, weights=1j * member.j_values)
    return (np.abs(f) ** 2, member.slope * np.imag(np.conj(f) * df),
            np.array(density_moments(member.slope * member.j_values,
                                     np.abs(member.amplitudes) ** 2, 1.0)))


def circle_measurement(state, m: int | None = None) -> LineMeasurement:
    """The measurement of the phase of a circle state or mixture on m points
    (by default its own number), with B_cl(phi) = (dB/dj) Im[f* f'] / |f|^2:
    J_cl = hbar Im[f* f'] / |f|^2 and N_cl = -Im[f* f'] / |f|^2 (N = n = -j)."""
    m = m or state.default_phase_points()
    density, numerator, partner = ensemble_sum(state, partial(_circle_terms, m=m))
    circle = circle_density(density)
    fisher = fisher_length_periodic(circle)
    classical = _component(state.phase_grid(m), numerator, density, 2.0 * np.pi / m)
    return LineMeasurement(circle, fisher, classical, tuple(float(v) for v in partner),
                           0.5 * abs(state.slope), isinstance(state, MixedState))


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
    return _summary(state, observable, classical_estimate(state, basis, observable))


def _summary(state, observable: str, comp: ClassicalComponent) -> DecompositionSummary:
    """:func:`decomposition_summary` from the classical component ``comp``."""
    mean, second = moments(state, observable)
    var_total = second - mean ** 2
    var_cl = comp.variance
    min_err = max(second - comp.second_moment, 0.0)  # rounding can put <B_cl^2> above <B^2>
    var_nc = min_err  # <B_nc^2> with <B_nc> = 0
    residual = abs(var_total - var_cl - var_nc)
    return DecompositionSummary(var_total, var_cl, var_nc, residual, min_err)


def energy_split(state: PeriodicState) -> tuple[float, float]:
    """(E_cl, E_nc) with E_cl = hbar*omega*<N_cl> and E_cl + E_nc = hbar*omega*<N + 1/2>."""
    c = state.constants
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
    comp = circle_measurement(state, m_grid).classical
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
    if state.family == "grid":  # the flux p v_cl = P_cl |psi|^2 / mass
        grid, inertia, density = state.grid, c.mass, GridPureState.position_density
        flux = _line_terms(state, partner=False)[1]
    else:  # on the phase samples, the periodic lattice [0, 2*pi)
        m = state.default_phase_points()
        grid, inertia = GridSpec(m, 0.0, 2.0 * np.pi), c.moment_of_inertia
        flux = _circle_terms(state, m)[1]
        density = partial(PeriodicState.phase_density, m=m)
    div = real_derivative_axis(flux / inertia, grid, axis=0)
    fwd = evolve_step(state, potential, dt)
    bwd = evolve_step(state, potential, -dt)
    dpdt = (density(fwd) - density(bwd)) / (2.0 * dt)
    return float(np.max(np.abs(dpdt + div)))
