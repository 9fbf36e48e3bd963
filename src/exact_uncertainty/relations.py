"""Verifiers for the exact uncertainty relations.

Each verifier evaluates both sides of one relation through independent
computational paths and returns a RelationReport with the residual, the
verdict, and enough provenance (grid, cutoffs, masked mass, warnings) to
reproduce the numbers.  Divergent cases are reported through flags; no
report ever multiplies an infinity by a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .decomposition import LineMeasurement, circle_measurement, line_measurement
from .densities import circle_density
from .errors import VanishingDensity
from .fisher import (
    INFINITE_BY_UNIFORMITY,
    ZERO_BY_DISCONTINUITY,
    circular_mean,
    fisher_length_periodic,
    phase_variance,
)
from .states import FiniteState, MixedState, embed_in_larger_box

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
        # _jsonable builds fresh containers, so no deep copy is needed first
        return _jsonable({f.name: getattr(self, f.name) for f in fields(self)})


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


def _verdict(left: float, right: float, tol: float, lower_bound: bool):
    """(residual, verdict) of left = right, or of the one-sided check
    left >= right - tol*|right| when ``lower_bound``."""
    residual = (max(0.0, right - left) if lower_bound else abs(left - right)) / abs(right)
    return residual, (VIOLATED if residual > tol else INEQUALITY if lower_bound else EQUALITY)


def relation_report(record: LineMeasurement, relation_id: str, tol: float,
                    notes: dict) -> RelationReport:
    """The verdict on delta_A * Delta_B_nc against |dB/dj| / 2 for one
    measurement: equality for a pure state, a lower bound for a mixture, and
    on a line every link of a mixture's chain checked.  ``notes`` holds the
    relation's own notes and gains the shared ones."""
    fm, target = record.fisher, record.target
    notes["fisher_flag"] = fm.divergence_flag
    notes.setdefault("warnings", [])
    if fm.divergence_flag == INFINITE_BY_UNIFORMITY:  # a uniform circle density
        var_nc = record.nonclassical_variance
        notes["flag"] = fm.divergence_flag
        notes["partner_nonclassical_variance"] = var_nc
        flagged = var_nc <= max(tol, 1e-8) * max(1.0, record.partner_variance)
        return RelationReport(relation_id, float("inf") if flagged else 0.0, target, 0.0, tol,
                              FLAGGED if flagged else VIOLATED, notes)
    if fm.divergence_flag == ZERO_BY_DISCONTINUITY:
        notes["flag"] = fm.divergence_flag
        if record.chain is None:  # a mixture on a line reports the flag alone
            notes["partner_divergent"] = True
        return RelationReport(relation_id, fm.fisher_length, target, 0.0, tol, FLAGGED, notes)

    left = fm.fisher_length * float(np.sqrt(record.nonclassical_variance))
    residual, verdict = _verdict(left, target, tol, lower_bound=record.mixed)
    if record.chain is not None:  # LineMeasurement's identity, and rhs <= <B^2>
        (lhs, rhs), second = record.chain, record.partner[1]
        link1_residual = abs(lhs - rhs) / abs(rhs)
        notes.update(chain_identity_lhs=lhs, chain_identity_rhs=rhs,
                     chain_identity_residual=link1_residual, chain_second_moment=second,
                     chain_slack=second - rhs, **_heisenberg_notes(record, tol))
        if link1_residual > tol or second - rhs < -tol * abs(second):
            verdict, residual = VIOLATED, max(residual, link1_residual)
    return RelationReport(relation_id, left, target, residual, tol, verdict, notes)


def _heisenberg_notes(record: LineMeasurement, tol: float) -> dict:
    mean, second = record.measured
    heis = float(np.sqrt((second - mean ** 2) * record.partner_variance))
    return {"heisenberg_product": heis,
            "heisenberg_satisfied": bool(heis >= record.target * (1 - tol))}


# ---------------------------------------------------------------------------
# position-momentum and its conjugate


def verify_position_momentum(state, tol: float = TOL_GRID) -> RelationReport:
    """delta_X * Delta_P_nc: equality hbar/2 for pure states, >= for mixed,
    with every link of a mixture's chain checked (:func:`relation_report`)."""
    if state.family != "grid":
        raise TypeError("verify_position_momentum needs a grid state")
    return _line_report(state, False, tol)


def verify_conjugate(state, tol: float = TOL_GRID) -> RelationReport:
    """Delta_X_nc * delta_P >= hbar/2, saturated by pure states: the xp
    relation of the reflected state conj(psi~), whose position is p.

    The momentum lattice must resolve the momentum density's structure.  So
    a `violated` verdict on a box-contained state is checked once more in a
    2x box (a 2x finer momentum lattice, exact for a decayed state), and the
    refined report is returned with both lattices' n_points, Fisher lengths
    and residuals in notes["resolution_study"].
    """
    if state.family != "grid":
        raise TypeError("verify_conjugate needs a grid state")
    report = _line_report(state, True, tol)
    if report.verdict != VIOLATED or "BoxTooSmall" in report.notes["warnings"]:
        return report
    wider = (MixedState(state.weights, tuple(embed_in_larger_box(m, 2) for m in state.members))
             if isinstance(state, MixedState) else embed_in_larger_box(state, 2))
    refined = _line_report(wider, True, tol)
    refined.notes["resolution_study"] = {
        "n_points": [report.notes["n_points"], refined.notes["n_points"]],
        "fisher_length": [report.notes["fisher_length"], refined.notes["fisher_length"]],
        "residual": [report.residual, refined.residual],
    }
    return refined


def _line_report(state, conjugate: bool, tol: float) -> RelationReport:
    """The xp (or conjugate) report; its lattice notes are those of ``state``."""
    record = line_measurement(state, conjugate)
    notes = {
        "n_points": state.grid.n_points,
        "dx": state.grid.dx,
        "fisher_length": record.fisher.fisher_length,  # finite on a line
        "masked_mass": record.classical.masked_mass,
        "nonclassical_spread": float(np.sqrt(record.nonclassical_variance)),
        "warnings": ["BoxTooSmall"] if state.box_warning() else [],
    }
    if not record.mixed:
        notes["total_spread"] = float(np.sqrt(record.partner_variance))
        notes.update(_heisenberg_notes(record, tol))
    relation_id = ("conjugate" if conjugate else "xp") + ("-mixed" if record.mixed else "")
    return relation_report(record, relation_id, tol, notes)


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
    """delta_Phi * Delta_B_nc against |dB/dj| / 2 for a ``family`` state's label
    observable B, and the corollary Delta_Phi * Delta_B >= |1 - 2 pi p(theta + pi)| |dB/dj| / 2."""
    if state.family != family:
        raise TypeError(f"{rel_id} needs a {family} state")
    m = state.default_phase_points()
    record = circle_measurement(state, m)
    # quadrature-resolution study: the Fisher length on the doubled phase grid
    fm2 = fisher_length_periodic(circle_density(state.phase_density(2 * m)))

    dens, var_b = record.density, record.partner_variance
    theta = circular_mean(dens)
    opposite = np.interp(theta + np.pi, dens.grid.points(), dens.values, period=2.0 * np.pi)
    corollary_rhs = abs(1.0 - 2.0 * np.pi * opposite) * record.target
    corollary_lhs = float(np.sqrt(phase_variance(dens, theta) * var_b))
    notes = {
        "phase_points": m,
        "masked_mass": record.classical.masked_mass,
        "variance_total": var_b,
        "variance_classical": record.classical.variance,
        "resolution_study": {"fisher_length": [record.fisher.fisher_length, fm2.fisher_length]},
        "corollary_lhs": corollary_lhs,
        "corollary_rhs": corollary_rhs,
        "corollary_satisfied": bool(corollary_lhs >= corollary_rhs * (1 - tol) - 1e-12),
    }
    report = relation_report(record, rel_id, tol, notes)
    if report.verdict != FLAGGED and not notes["corollary_satisfied"]:
        return replace(report, verdict=VIOLATED)
    return report


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
    saturated = state.purity > 1.0 - 1e-12 and not np.any(zero)
    residual, verdict = _verdict(left, 0.5 * hbar, tol, lower_bound=not saturated)
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
