"""Verifiers for the exact uncertainty relations.

Each verifier evaluates both sides of one relation through independent
computational paths and returns a RelationReport with the residual, the
verdict, and enough provenance (grid, cutoffs, masked mass, warnings) to
reproduce the numbers.  Divergent cases are reported through flags; no
report ever multiplies an infinity by a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .decomposition import classical_estimate
from .densities import LineDensity, circle_density, floor_mask
from .errors import VanishingDensity
from .fisher import (
    FINITE,
    INFINITE_BY_UNIFORMITY,
    ZERO_BY_DISCONTINUITY,
    circular_mean,
    fisher_length,
    fisher_length_mixed,
    fisher_length_periodic,
    phase_variance,
)
from .grids import spectral_derivative
from .states import (
    FiniteState,
    GridPureState,
    MixedState,
    embed_in_larger_box,
    ensemble_sum,
    momentum_density,
    moments,
    to_momentum,
    variance,
)

TOL_GRID = 1e-6     # grid relations at n_points = 1024
TOL_FINITE = 1e-10  # finite-dimensional linear algebra
TOL_FOCK = 1e-4     # phase quadratures with cutoff study

EQUALITY = "equality"
INEQUALITY = "inequality-satisfied"
FLAGGED = "flagged-infinite"
VIOLATED = "violated"


@dataclass(frozen=True)
class RelationReport:
    relation_id: str
    left: float
    right: float
    residual: float
    tolerance: float
    verdict: str
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict in (EQUALITY, INEQUALITY, FLAGGED)

    def to_dict(self) -> dict:
        doc = asdict(self)
        return _jsonable(doc)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        # strict JSON has no infinities: +-inf is written "inf" / "-inf" (the
        # report's flag says why); a NaN is left for the emitter to refuse
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _equality_verdict(left: float, right: float, tol: float):
    residual = abs(left - right) / abs(right)
    return residual, (EQUALITY if residual <= tol else VIOLATED)


def _lower_bound_verdict(left: float, right: float, tol: float):
    """One-sided check left >= right - tol*|right|."""
    residual = max(0.0, right - left) / abs(right)
    return residual, (INEQUALITY if residual <= tol else VIOLATED)


# ---------------------------------------------------------------------------
# position-momentum


def verify_position_momentum(state, tol: float = TOL_GRID) -> RelationReport:
    """delta_X * Delta_P_nc: equality hbar/2 for pure states, >= for mixed.

    For mixed states every link of the chain
    hbar^2/(4 dX^2) + <P_cl^2> = int |<x|P rho|x>|^2 / <x|rho|x>  <=  <P^2>
    is verified separately and recorded in the notes.
    """
    if state.family != "grid":
        raise TypeError("verify_position_momentum needs a grid state")
    if isinstance(state, MixedState):
        return _verify_mixed_grid(state, conjugate=False, tol=tol)
    return _verify_pure_grid(state, conjugate=False, tol=tol)


def verify_conjugate(state, tol: float = TOL_GRID) -> RelationReport:
    """Delta_X_nc * delta_P >= hbar/2, saturated by pure states.

    The momentum lattice must resolve the momentum density's structure.  So
    a `violated` verdict on a box-contained state is checked once more in a
    2x box (a 2x finer momentum lattice, exact for a decayed state), and the
    refined report is returned with both lattices' n_points, Fisher lengths
    and residuals in notes["resolution_study"].
    """
    if state.family != "grid":
        raise TypeError("verify_conjugate needs a grid state")
    mixed = isinstance(state, MixedState)
    verify = _verify_mixed_grid if mixed else _verify_pure_grid
    report = verify(state, conjugate=True, tol=tol)
    if report.verdict != VIOLATED or "BoxTooSmall" in report.notes["warnings"]:
        return report
    wider = (MixedState(state.weights, tuple(embed_in_larger_box(m, 2) for m in state.members))
             if mixed else embed_in_larger_box(state, 2))
    refined = verify(wider, conjugate=True, tol=tol)
    refined.notes["resolution_study"] = {
        "n_points": [report.notes["n_points"], refined.notes["n_points"]],
        "fisher_length": [report.notes["fisher_length"], refined.notes["fisher_length"]],
        "residual": [report.residual, refined.residual],
    }
    return refined


def _line_measurement(state: GridPureState):
    """(Fisher metrics of |psi|^2, P_cl, Var X, Var P) of a pure line state:
    the measurement behind the xp and time-frequency reports."""
    fm = fisher_length(LineDensity(state.grid, state.position_density()))
    return (fm, classical_estimate(state, "position", "P"), variance(state, "X"),
            variance(state, "P"))


def _verify_pure_grid(state: GridPureState, conjugate: bool, tol: float) -> RelationReport:
    hbar = state.constants.hbar
    if conjugate:
        # literal mirror: the momentum lattice must resolve the momentum
        # density's structure (interference oscillations have period
        # 2*pi*hbar / lump separation), just as the box convention demands
        # of the position side
        rel_id = "conjugate"
        working = to_momentum(state)
        fm = fisher_length(LineDensity(working.grid, np.abs(working.amplitudes) ** 2))
        comp = classical_estimate(state, "momentum", "X")
        var_x, var_p = variance(state, "X"), variance(state, "P")
        var_b = var_x
    else:
        rel_id = "xp"
        fm, comp, var_x, var_p = _line_measurement(state)
        var_b = var_p

    var_nc = var_b - comp.variance
    delta_nc = float(np.sqrt(max(var_nc, 0.0)))
    notes = _grid_notes(state, fm, comp)
    notes["nonclassical_spread"] = delta_nc
    notes["total_spread"] = float(np.sqrt(var_b))

    heis = float(np.sqrt(var_x * var_p))
    notes["heisenberg_product"] = heis
    notes["heisenberg_satisfied"] = bool(heis >= 0.5 * hbar * (1 - tol))

    if fm.divergence_flag == ZERO_BY_DISCONTINUITY:
        notes["flag"] = fm.divergence_flag
        notes["partner_divergent"] = True
        return RelationReport(rel_id, fm.fisher_length, 0.5 * hbar, 0.0, tol, FLAGGED, notes)

    left = fm.fisher_length * delta_nc
    residual, verdict = _equality_verdict(left, 0.5 * hbar, tol)
    return RelationReport(rel_id, left, 0.5 * hbar, residual, tol, verdict, notes)


def _verify_mixed_grid(state: MixedState, conjugate: bool, tol: float) -> RelationReport:
    hbar = state.constants.hbar
    grid = state.grid
    if conjugate:
        rel_id = "conjugate-mixed"
        fm = fisher_length(LineDensity(grid.conjugate_grid(hbar), momentum_density(state)[1]))
        comp = classical_estimate(state, "momentum", "X")
        var_b = variance(state, "X")
    else:
        rel_id = "xp-mixed"
        fm = fisher_length_mixed(state)
        comp = classical_estimate(state, "position", "P")
        p_mean, p_second = moments(state, "P")
        var_b = p_second - p_mean ** 2
    delta_nc = float(np.sqrt(max(var_b - comp.variance, 0.0)))

    notes = _grid_notes(state, fm, comp)
    notes["nonclassical_spread"] = delta_nc
    if fm.divergence_flag != FINITE:
        notes["flag"] = fm.divergence_flag
        return RelationReport(rel_id, fm.fisher_length, 0.5 * hbar, 0.0, tol, FLAGGED, notes)

    left = fm.fisher_length * delta_nc
    residual, verdict = _lower_bound_verdict(left, 0.5 * hbar, tol)
    if conjugate:
        return RelationReport(rel_id, left, 0.5 * hbar, residual, tol, verdict, notes)

    # <x|P rho|x> = -i hbar d/dx rho(x, x') at x' = x = -i hbar sum_i w_i psi_i' psi_i*
    q = -1j * hbar * ensemble_sum(
        state, lambda s: spectral_derivative(s.amplitudes, grid) * np.conj(s.amplitudes))
    p_diag = state.position_density()
    mask = floor_mask(p_diag)
    chain_rhs = float(np.sum(np.abs(q[mask]) ** 2 / p_diag[mask]) * grid.dx)
    chain_lhs = hbar ** 2 / (4.0 * fm.fisher_length ** 2) + comp.second_moment
    link1_residual = abs(chain_lhs - chain_rhs) / abs(chain_rhs)
    link2_slack = p_second - chain_rhs
    notes["chain_identity_lhs"] = chain_lhs
    notes["chain_identity_rhs"] = chain_rhs
    notes["chain_identity_residual"] = link1_residual
    notes["chain_second_moment"] = p_second
    notes["chain_slack"] = link2_slack

    heis = float(np.sqrt(variance(state, "X") * var_b))
    notes["heisenberg_product"] = heis
    notes["heisenberg_satisfied"] = bool(heis >= 0.5 * hbar * (1 - tol))
    if link1_residual > tol or link2_slack < -tol * abs(p_second):
        verdict = VIOLATED
        residual = max(residual, link1_residual)
    return RelationReport(rel_id, left, 0.5 * hbar, residual, tol, verdict, notes)


def _grid_notes(state, fm, comp) -> dict:
    notes = {
        "n_points": state.grid.n_points,
        "dx": state.grid.dx,
        "fisher_length": fm.fisher_length if np.isfinite(fm.fisher_length) else "inf",
        "fisher_flag": fm.divergence_flag,
        "masked_mass": comp.masked_mass,
        "warnings": [],
    }
    if state.box_warning():
        notes["warnings"].append("BoxTooSmall")
    return notes


# ---------------------------------------------------------------------------
# phase-angular momentum and phase-number


def verify_phase_angular(state, tol: float = TOL_GRID) -> RelationReport:
    """delta_Phi * Delta_J_nc = hbar/2 for pure rotator states (>= mixed)."""
    return _verify_circle(state, "periodic", "phase-angular", tol)


def verify_phase_number(state, tol: float = TOL_FOCK) -> RelationReport:
    """delta_Phi * Delta_N_nc = 1/2 for pure photon states (>= mixed).

    The quadrature grid is doubled automatically and both values recorded,
    so slow phase-POM convergence is visible in the report.
    """
    return _verify_circle(state, "fock", "phase-number", tol)


def _verify_circle(state, family: str, rel_id: str, tol: float) -> RelationReport:
    """delta_Phi * Delta_B_nc against |dB/dj| / 2 for a ``family`` state's label observable B."""
    if state.family != family:
        raise TypeError(f"{rel_id} needs a {family} state")
    observable, target = state.observable, 0.5 * abs(state.slope)
    m = state.default_phase_points()
    dens = circle_density(state.phase_density(m))
    fm = fisher_length_periodic(dens)
    comp = classical_estimate(state, "phase", observable)
    var_b = variance(state, observable)
    var_cl = comp.variance
    var_nc = max(var_b - var_cl, 0.0)
    delta_nc = float(np.sqrt(var_nc))

    # quadrature-resolution study: same quantities on the doubled phase grid
    fm2 = fisher_length_periodic(circle_density(state.phase_density(2 * m)))

    theta = circular_mean(dens)
    var_theta = phase_variance(dens, theta)
    normalized = dens.normalized()
    opposite = np.interp(theta + np.pi, normalized.grid.points(), normalized.values,
                         period=2.0 * np.pi)
    corollary_rhs = abs(1.0 - 2.0 * np.pi * opposite) * target
    corollary_lhs = float(np.sqrt(var_theta * var_b))

    notes = {
        "phase_points": m,
        "fisher_flag": fm.divergence_flag,
        "masked_mass": comp.masked_mass,
        "variance_total": var_b,
        "variance_classical": var_cl,
        "resolution_study": {
            "fisher_length": [fm.fisher_length, fm2.fisher_length],
        },
        "corollary_lhs": corollary_lhs,
        "corollary_rhs": corollary_rhs,
        "corollary_satisfied": bool(corollary_lhs >= corollary_rhs * (1 - tol) - 1e-12),
        "warnings": [],
    }

    if fm.divergence_flag == INFINITE_BY_UNIFORMITY:
        notes["flag"] = fm.divergence_flag
        notes["partner_nonclassical_variance"] = var_nc
        verdict = FLAGGED if var_nc <= max(tol, 1e-8) * max(1.0, var_b) else VIOLATED
        return RelationReport(rel_id, float("inf") if verdict == FLAGGED else 0.0,
                              target, 0.0, tol, verdict, notes)
    if fm.divergence_flag == ZERO_BY_DISCONTINUITY:
        notes["flag"] = fm.divergence_flag
        notes["partner_divergent"] = True
        return RelationReport(rel_id, fm.fisher_length, target, 0.0, tol, FLAGGED, notes)

    left = fm.fisher_length * delta_nc
    if not isinstance(state, MixedState):
        residual, verdict = _equality_verdict(left, target, tol)
    else:
        residual, verdict = _lower_bound_verdict(left, target, tol)
    if not notes["corollary_satisfied"]:
        verdict = VIOLATED
    return RelationReport(rel_id, left, target, residual, tol, verdict, notes)


# ---------------------------------------------------------------------------
# arbitrary observable pairs on finite spaces


def verify_general(state, a_observable: np.ndarray,
                   b_observable: np.ndarray, hbar: float = 1.0,
                   tol: float = TOL_FINITE) -> RelationReport:
    """(delta_B A) * Delta_B_nc >= hbar/2 with equality for pure states.

    a_observable and b_observable are Hermitian matrices; the measured basis
    is the eigenbasis of A.  Grid states are accepted through the sqrt(dx)
    isometry onto a plain finite-dimensional space, with the observables
    given as matrices in the grid basis.
    """
    if state.family == "grid":
        state = (FiniteState(state.matrix * state.grid.dx) if isinstance(state, MixedState)
                 else FiniteState.from_vector(state.amplitudes * np.sqrt(state.grid.dx)))
    a = np.asarray(a_observable, dtype=complex)
    b = np.asarray(b_observable, dtype=complex)
    rho = state.matrix
    d = state.dimension
    if a.shape != (d, d) or b.shape != (d, d):
        raise ValueError("observables must match the state dimension")
    for name, mat in (("A", a), ("B", b)):
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
            raise ValueError(f"{name} is not Hermitian")

    _, vecs = np.linalg.eigh(a)
    rho_a = vecs.conj().T @ rho @ vecs          # rho in the A eigenbasis
    b_rho_a = vecs.conj().T @ (b @ rho) @ vecs  # B rho in the A eigenbasis
    probs = np.clip(np.real(np.diag(rho_a)), 0.0, None)
    z = np.diag(b_rho_a)  # <a|B rho|a>

    scale_b = max(float(np.max(np.abs(b))), 1e-300)
    zero = probs < 1e-14
    if np.any(zero & (np.abs(z) > 1e-12 * scale_b)):
        raise VanishingDensity("zero-probability eigenlabel carries weight of B rho")
    retained = ~zero

    b_cl = np.real(z[retained]) / probs[retained]
    mean_cl = float(np.sum(probs[retained] * b_cl))
    second_cl = float(np.sum(probs[retained] * b_cl ** 2))
    var_cl = second_cl - mean_cl ** 2

    b_mean = float(np.real(np.trace(rho @ b)))
    b_second = float(np.real(np.trace(rho @ b @ b)))
    var_b = b_second - b_mean ** 2
    var_nc = max(var_b - var_cl, 0.0)
    delta_nc = float(np.sqrt(var_nc))

    # <a|(i/hbar)[B, rho]|a> = -(2/hbar) Im <a|B rho|a>
    numerators = -2.0 / hbar * np.imag(z)
    info = float(np.sum(numerators[retained] ** 2 / probs[retained]))

    notes = {
        "dimension": d,
        "purity": state.purity,
        "masked_labels": int(np.sum(zero)),
        "nonclassical_spread": delta_nc,
        "warnings": [],
    }
    if np.max(np.abs(numerators)) < 1e-12 * scale_b / hbar:
        notes["flag"] = "infinite-by-commuting"
        notes["partner_nonclassical_variance"] = var_nc
        return RelationReport("general", float("inf"), 0.5 * hbar, 0.0, tol, FLAGGED, notes)

    delta_ba = info ** -0.5
    notes["estimate_length"] = delta_ba
    left = delta_ba * delta_nc
    # saturation needs every eigenlabel populated: a zero-probability label
    # still carries |<a|B psi>|^2 weight that the retained sum cannot see
    if state.purity > 1.0 - 1e-12 and not np.any(zero):
        residual, verdict = _equality_verdict(left, 0.5 * hbar, tol)
    else:
        residual, verdict = _lower_bound_verdict(left, 0.5 * hbar, tol)
    return RelationReport("general", left, 0.5 * hbar, residual, tol, verdict, notes)


# ---------------------------------------------------------------------------
# two-dimensional matrix relation


def verify_multidim(state, tol: float = 1e-5) -> RelationReport:
    """FCov(X) Cov(P_nc) = (hbar/2)^2 I, the volume equality, and the
    Heisenberg matrix inequality, for smooth 2D pure states."""
    from .twoparticle import nonclassical_components_2d

    hbar = state.constants.hbar
    parts = nonclassical_components_2d(state)
    fcov = parts.cov_fisher
    target = (0.5 * hbar) ** 2

    product = fcov @ parts.cov_nonclassical
    residual_matrix = product - target * np.eye(2)
    residual = float(np.linalg.norm(residual_matrix) / target)

    vol_left = float(np.sqrt(np.linalg.det(fcov) * np.linalg.det(parts.cov_nonclassical)))
    vol_residual = abs(vol_left - target) / target

    # Heisenberg matrix inequality as Cov(X) - (hbar/2)^2 Cov(P)^{-1} >= 0
    cov_x = parts.cov_position
    cov_p = parts.cov_momentum
    slack = cov_x - target * np.linalg.inv(cov_p)
    min_eig = float(np.min(np.linalg.eigvalsh(slack)))
    heis_ok = min_eig >= -tol * float(np.max(np.abs(cov_x)))

    notes = {
        "grid": [state.grid_x.n_points, state.grid_y.n_points],
        "fisher_covariance": _jsonable(fcov),
        "cov_nonclassical": _jsonable(parts.cov_nonclassical),
        "volume_left": vol_left,
        "volume_right": target,
        "volume_residual": vol_residual,
        "additivity_residual": parts.additivity_residual,
        "mixed_partials_residual": parts.mixed_partials_residual,
        "heisenberg_min_eigenvalue": min_eig,
        "heisenberg_satisfied": bool(heis_ok),
        "warnings": (["BoxTooSmall"] if state.box_warning(parts.peak_density) else []),
    }
    verdict = EQUALITY
    if residual > tol or vol_residual > tol or not heis_ok:
        verdict = VIOLATED
    return RelationReport("multidim", float(np.trace(product) / 2.0), target,
                          max(residual, vol_residual), tol, verdict, notes)


# ---------------------------------------------------------------------------
# collision-length sum rule


def verify_ivanovic(state: FiniteState, bases, tol: float = 1e-12) -> RelationReport:
    """sum_i 1/L_i = 1 + tr[rho^2] over a complete set of mutually
    complementary bases; equals 2 exactly for pure states."""
    from .mub import complementarity_check, measurement_distribution
    from .fisher import collision_length

    complementarity_check(bases)  # raises NotComplementary on failure
    inverse_lengths = []
    for basis_index in range(bases.n_bases):
        dist = measurement_distribution(state, bases, basis_index)
        inverse_lengths.append(1.0 / collision_length(dist))
    left = float(np.sum(inverse_lengths))
    right = 1.0 + state.purity
    residual = abs(left - right)
    verdict = EQUALITY if residual <= tol else VIOLATED
    notes = {
        "dimension": state.dimension,
        "purity": state.purity,
        "inverse_collision_lengths": inverse_lengths,
        "bound_two_satisfied": bool(left <= 2.0 + tol),
        "warnings": [],
    }
    return RelationReport("ivanovic", left, right, residual, tol, verdict, notes)
