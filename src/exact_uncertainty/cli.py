"""Command-line surface: run verification suites and demos, emit JSON reports.

Exit codes: 0 all verdicts pass, 1 relation violation, 2 parse error or
unreadable input, 3 computation error.  Reports are deterministic for a
fixed seed: keys are sorted and suites are assembled in a fixed order.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .densities import LineDensity
from .decomposition import _summary, classical_estimate
from .energy import (
    EnergyModel,
    airy_first_zero,
    bouncer_exact_energy,
    coulomb_groundstate_bound,
    entropic_groundstate_bound,
    fisher_groundstate_bound,
)
from .errors import ExactUncertaintyError, NonFiniteResult, ParseError
from .fisher import diffusion_entropy_rate
from .grids import GridSpec
from .mub import complementarity_check, measurement_distribution, mub_construct
from .relations import (
    TOL_FINITE,
    TOL_FOCK,
    TOL_GRID,
    RelationReport,
    _jsonable,
    verify_conjugate,
    verify_general,
    verify_ivanovic,
    verify_multidim,
    verify_phase_angular,
    verify_phase_number,
    verify_position_momentum,
)
from .random_states import (
    random_finite_state,
    random_fock_state,
    random_gaussian_2d,
    random_hermitian,
    random_periodic_state,
    random_smooth_grid_state,
)
from .signals import gaussian_pulse, instantaneous_frequency, signal_from_rows, verify_time_frequency
from .states import (
    Constants,
    FiniteState,
    _complex_list,
    gaussian_state,
    state_from_dict,
)
from .twoparticle import (
    EprParams,
    build_epr,
    collapse_momentum,
    collapse_position,
    correlations,
    epr_grids,
    momentum_collapse_prediction,
    nonclassical_components_2d,
    pair_moments,
)
from .wigner import wigner_row_moments, wigner_rows, wigner_to_csv_rows


@dataclass(frozen=True)
class RunConfig:
    """The global flags: each field is the flag ``--field-name``, with its default."""

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    inertia: float = 1.0
    grid_n: int = 1024
    tol_grid: float = TOL_GRID
    tol_finite: float = TOL_FINITE
    tol_fock: float = TOL_FOCK
    seed: int = 0
    out: str | None = field(default=None, metadata={"help": "write the JSON report here"})

    def __post_init__(self):
        # a value the library rejects is bad input, refused before any report runs
        try:
            self.constants()
            GridSpec(self.grid_n, -1.0, 1.0)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        _positive(tol_grid=self.tol_grid, tol_finite=self.tol_finite, tol_fock=self.tol_fock)
        if self.seed < 0:
            raise ParseError(f"--seed must be nonnegative, got {self.seed}")

    def constants(self) -> Constants:
        return Constants(self.hbar, self.mass, self.omega, self.inertia)

    def provenance(self) -> dict:
        doc = asdict(self)
        doc.pop("out")
        doc["version"] = __version__
        return doc


def _positive(**flags) -> None:
    """ParseError naming the first flag value that is not finite and strictly positive."""
    for name, value in flags.items():
        if not 0 < value < np.inf:  # a NaN fails too
            raise ParseError(f"--{name.replace('_', '-')} must be finite and strictly positive, got {value}")


SUITE_FAMILIES = {
    "gaussian-random": ("xp", "conjugate"),
    "full": ("xp", "conjugate", "phase-angular", "phase-number", "general",
             "multidim", "ivanovic", "time-frequency"),
}


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted before or after the subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag in fields(RunConfig):
        common.add_argument("--" + flag.name.replace("_", "-"), help=flag.metadata.get("help"),
                            type=str if flag.default is None else type(flag.default))

    parser = argparse.ArgumentParser(
        prog="exact-uncertainty",
        description="Verify exact uncertainty relations and run the worked demos.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run relation verifiers", parents=[common])
    p_verify.add_argument("state", nargs="?", help="state JSON file")
    p_verify.add_argument("--relation", choices=["xp", "conjugate", "phase-angular",
                                                 "phase-number", "ivanovic"], default=None)
    p_verify.add_argument("--suite", choices=sorted(SUITE_FAMILIES), default=None)
    p_verify.add_argument("--n", type=int, default=10, help="states per family in a suite")

    p_dec = sub.add_parser("decompose", parents=[common], help="classical/nonclassical split of a state")
    p_dec.add_argument("state")
    p_dec.add_argument("--basis", default="position",
                       choices=["position", "momentum", "phase"])
    p_dec.add_argument("--observable", default=None, choices=["P", "X", "J", "N"])

    p_wig = sub.add_parser("wigner", parents=[common], help="Wigner transform and its average momentum")
    p_wig.add_argument("state")
    p_wig.add_argument("--csv", default=None, help="write the W(x,p) matrix here")

    p_en = sub.add_parser("energy-bound", parents=[common], help="ground-state energy bounds")
    p_en.add_argument("--model", required=True, choices=["coulomb", "harmonic", "bouncer"])
    p_en.add_argument("--nuclear-charge", type=float, default=1.0)
    p_en.add_argument("--charge", type=float, default=1.0)
    p_en.add_argument("--gravity", type=float, default=1.0)

    p_epr = sub.add_parser("epr-demo", parents=[common], help="entangled two-particle demonstration")
    p_epr.add_argument("--sigma", type=float, default=0.1)
    p_epr.add_argument("--tau", type=float, default=10.0)
    p_epr.add_argument("--p0", type=float, default=2.0)
    p_epr.add_argument("--a", type=float, default=1.0)
    p_epr.add_argument("--collapse-p", type=float, default=0.5)
    p_epr.add_argument("--collapse-x", type=float, default=0.0)
    p_epr.add_argument("--epr-grid-n", type=int, default=None,
                       help="points per axis (default: sized by epr_grids)")

    p_mub = sub.add_parser("mub", parents=[common], help="mutually complementary bases and the sum rule")
    p_mub.add_argument("--d", type=int, required=True)
    p_mub.add_argument("--state", default="random", help="'random', 'mixed' or basis index")

    p_sig = sub.add_parser("signal", parents=[common], help="time-frequency analysis of a sampled signal")
    p_sig.add_argument("csv", nargs="?", help="CSV file with header t,re,im")
    p_sig.add_argument("--demo", choices=["chirp", "pulse"], default=None)

    p_dif = sub.add_parser("diffusion", parents=[common], help="entropy production under diffusion")
    p_dif.add_argument("--gamma", type=float, default=1e-3)
    p_dif.add_argument("--drift", type=float, default=0.0)
    p_dif.add_argument("--dt", type=float, default=1e-2)
    p_dif.add_argument("--steps", type=int, default=10)
    p_dif.add_argument("--sigma", type=float, default=1.0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)  # a global flag is in args only where given
    try:
        config = RunConfig(**{flag.name: getattr(args, flag.name) for flag in fields(RunConfig)
                              if hasattr(args, flag.name)})
        code, report = COMMANDS[args.command](config, args)
        report["provenance"] = config.provenance()
        text = _emit(report)
    except (ParseError, json.JSONDecodeError, OSError) as exc:  # OSError: unreadable input
        code, text = 2, _emit({"error": str(exc), "kind": "parse"})
    except ExactUncertaintyError as exc:
        code, text = 3, _emit({"error": str(exc), "kind": type(exc).__name__})
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
            return code
        except OSError as exc:  # the --out file itself: its parse-error document goes to stdout
            code, text = 2, _emit({"error": str(exc), "kind": "parse"})
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left (`| head -1`): the rest goes to devnull, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _emit(report: dict) -> str:
    """The report as strict JSON; a NaN in it raises NonFiniteResult."""
    try:
        return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(f"report holds a NaN: {exc}") from exc


def _load_state(path: str, constants: Constants):
    with open(path) as fh:
        doc = json.load(fh)
    return state_from_dict(doc, constants)


def _report_code(reports) -> int:
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(config: RunConfig, args) -> tuple[int, dict]:
    if args.suite is None and args.state is None:
        raise ParseError("verify needs a state file or --suite")
    reports: list[RelationReport] = []
    if args.suite is not None:
        _positive(n=args.n)  # a suite that runs nothing would report a pass
        reports.extend(_run_suite(config, args.suite, args.n))
    if args.state is not None:
        state = _load_state(args.state, config.constants())
        reports.append(_verify_one(state, args.relation, config))
    doc = {
        "reports": [r.to_dict() for r in reports],
        "n_reports": len(reports),
        "all_passed": all(r.passed for r in reports),
    }
    return _report_code(reports), doc


# the state-file family each ``verify --relation`` applies to; a family's
# first relation here is the one verified when none is given
RELATION_FAMILY = {"xp": "grid", "conjugate": "grid", "phase-angular": "periodic",
                   "phase-number": "fock", "ivanovic": "finite"}


def _verify_one(state, relation: str | None, config: RunConfig) -> RelationReport:
    if relation is None:
        relation = next((name for name, kind in RELATION_FAMILY.items()
                         if kind == state.family), None)
        if relation is None:
            raise ParseError("cannot infer a relation for this state family")
    if RELATION_FAMILY[relation] != state.family:
        raise ParseError(f"relation {relation!r} does not apply to this state")
    if relation == "xp":
        return verify_position_momentum(state, config.tol_grid)
    if relation == "conjugate":
        return verify_conjugate(state, config.tol_grid)
    if relation == "phase-angular":
        return verify_phase_angular(state, config.tol_grid)
    if relation == "phase-number":
        return verify_phase_number(state, config.tol_fock)
    return verify_ivanovic(state, mub_construct(state.dimension))


def _run_suite(config: RunConfig, suite: str, n: int) -> list[RelationReport]:
    rng = np.random.default_rng(config.seed)
    constants = config.constants()
    grid = GridSpec(config.grid_n, -20.0, 20.0)
    reports = []
    for family in SUITE_FAMILIES[suite]:
        for index in range(n):
            report = _suite_case(family, rng, grid, constants, config)
            reports.append(replace(report, notes={**report.notes, "state_index": index,
                                                  "family": family}))
    return reports


def _suite_case(family: str, rng, grid, constants, config: RunConfig) -> RelationReport:
    if family == "xp":
        return verify_position_momentum(random_smooth_grid_state(rng, grid, constants),
                                        config.tol_grid)
    if family == "conjugate":
        # narrow center spread keeps the momentum density resolved on the
        # conjugate lattice (the mirror of the box-decay convention)
        return verify_conjugate(random_smooth_grid_state(rng, grid, constants,
                                                         center_spread=1.2),
                                config.tol_grid)
    if family == "phase-angular":
        return verify_phase_angular(random_periodic_state(rng, constants=constants),
                                    config.tol_grid)
    if family == "phase-number":
        return verify_phase_number(random_fock_state(rng, constants=constants),
                                   config.tol_fock)
    if family == "general":
        state = random_finite_state(rng, 5)
        return verify_general(state, random_hermitian(rng, 5), random_hermitian(rng, 5),
                              hbar=config.hbar, tol=config.tol_finite)
    if family == "multidim":
        return verify_multidim(random_gaussian_2d(rng, constants=constants), tol=1e-5)
    if family == "ivanovic":
        d = int(rng.choice([2, 3]))
        return verify_ivanovic(random_finite_state(rng, d), mub_construct(d))
    if family == "time-frequency":
        tgrid = GridSpec(config.grid_n, -10.0, 10.0)
        pulse = gaussian_pulse(tgrid, width=float(rng.uniform(0.5, 1.2)),
                               carrier=float(rng.uniform(-1.5, 1.5)),
                               chirp=float(rng.uniform(-0.6, 0.6)))
        return verify_time_frequency(pulse, config.tol_grid)
    raise ParseError(f"unknown family {family!r}")


def cmd_decompose(config: RunConfig, args) -> tuple[int, dict]:
    state = _load_state(args.state, config.constants())
    observable = args.observable or {"position": "P", "momentum": "X", "phase": None}[args.basis]
    if observable is None:
        observable = "J" if state.family == "periodic" else "N"
    comp = classical_estimate(state, args.basis, observable)
    summary = _summary(state, observable, comp)
    doc = {
        "basis": args.basis,
        "observable": observable,
        "classical_mean": comp.mean,
        "classical_variance": comp.variance,
        "masked_mass": comp.masked_mass,
        "summary": asdict(summary),
    }
    return 0, doc


def cmd_wigner(config: RunConfig, args) -> tuple[int, dict]:
    state = _load_state(args.state, config.constants())
    if state.family != "grid":
        raise ParseError("wigner needs a grid state")
    grid, pgrid = state.grid, state.grid.conjugate_grid(state.constants.hbar)
    # W's row blocks are reduced (and written out) one at a time; W is never held
    with open(args.csv, "w", newline="") if args.csv else nullcontext() as fh:
        blocks = wigner_rows(state)
        if args.csv:
            blocks = wigner_to_csv_rows(blocks, grid, pgrid, csv.writer(fh))
        marginal, pav, mask, low, residue = wigner_row_moments(blocks, grid, pgrid)
    comp = classical_estimate(state, "position", "P")
    weighted = np.abs(pav - comp.values) * marginal
    doc = {
        "total": float(np.sum(marginal) * grid.dx),
        "imaginary_residue": residue,
        "min_value": low,
        "average_momentum_max_weighted_deviation": float(weighted[mask].max()),
        "box_warning": state.box_warning(),
    }
    if args.csv:
        doc["csv"] = args.csv
    return 0, doc


def cmd_energy_bound(config: RunConfig, args) -> tuple[int, dict]:
    constants = config.constants()
    if args.model == "coulomb":
        # Z q^2 <= 0 binds nothing: no ground state to bound
        _positive(nuclear_charge=args.nuclear_charge)
        if not (np.isfinite(args.charge) and args.charge != 0):
            raise ParseError(f"--charge must be finite and nonzero, got {args.charge}")
        rep = coulomb_groundstate_bound(args.nuclear_charge, args.charge, constants)
        doc = {"model": "coulomb", "bound": rep.bound, "closed_form": rep.comparison,
               "minimizer": rep.minimizer}
    elif args.model == "harmonic":
        model = EnergyModel("harmonic", constants)
        ent = entropic_groundstate_bound(model)
        fis = fisher_groundstate_bound(model)
        doc = {"model": "harmonic", "entropic_bound": ent.bound, "fisher_bound": fis.bound,
               "ground_energy": ent.comparison}
    else:
        _positive(gravity=args.gravity)
        model = EnergyModel("gravity", constants, gravity=args.gravity)
        ent = entropic_groundstate_bound(model)
        fis = fisher_groundstate_bound(model)
        scale = (constants.mass * args.gravity ** 2 * constants.hbar ** 2) ** (1.0 / 3.0)
        doc = {
            "model": "bouncer",
            "entropic_bound": ent.bound,
            "entropic_coefficient": ent.bound / scale,
            "fisher_bound": fis.bound,
            "exact_energy": bouncer_exact_energy(model),
            "exact_coefficient": bouncer_exact_energy(model) / scale,
            "airy_first_zero": airy_first_zero(),
        }
    return 0, doc


def cmd_epr_demo(config: RunConfig, args) -> tuple[int, dict]:
    constants = config.constants()
    try:  # the widths and grid size are checked where they are built
        params = EprParams(args.a, args.sigma, args.tau, args.p0)
        gx, gy = epr_grids(params, n_points=args.epr_grid_n)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    state = build_epr(params, gx, gy, constants)
    parts = nonclassical_components_2d(state)
    corr = correlations(parts)
    _, comp_x = collapse_position(state, args.collapse_x, parts.peak_density)
    _, comp_p = collapse_momentum(state, args.collapse_p, parts.momentum_marginal)
    target = (0.5 * constants.hbar) ** 2
    heis = parts.cov_position @ parts.cov_momentum
    doc = {
        "params": asdict(params),
        "grid": {"n_points": gx.n_points, "dx": gx.dx, "span": gx.length},
        "moments": pair_moments(parts),
        "classical_momentum_fields": {
            "particle_1_range": [float(parts.classical_values_1.min()),
                                 float(parts.classical_values_1.max())],
            "particle_2_range": [float(parts.classical_values_2.min()),
                                 float(parts.classical_values_2.max())],
            "expected_constant": args.p0 / 2.0,
        },
        "covariances": {
            "position": parts.cov_position,
            "momentum": parts.cov_momentum,
            "nonclassical": parts.cov_nonclassical,
            "matrix_product_residual": float(np.linalg.norm(heis - target * np.eye(2)) / target),
        },
        "correlations": {
            "pearson_position": corr.r_pearson_position,
            "pearson_momentum": corr.r_pearson_momentum,
            "pearson_nonclassical": corr.r_pearson,
            "fisher_position": corr.r_fisher,
            "relation_residual": corr.residual,
            "pearson_sum_residual": abs(corr.r_pearson_position + corr.r_pearson_momentum),
        },
        "collapse": {
            "position_value": args.collapse_x,
            "classical_momentum_after_position_collapse": comp_x.mean,
            "momentum_value": args.collapse_p,
            "classical_momentum_after_momentum_collapse": comp_p.mean,
            "formula_prediction": momentum_collapse_prediction(params, args.collapse_p),
        },
        "box_warning": state.box_warning(parts.peak_density),
    }
    return 0, doc


def cmd_mub(config: RunConfig, args) -> tuple[int, dict]:
    bases = mub_construct(args.d)
    check = complementarity_check(bases)
    rng = np.random.default_rng(config.seed)
    if args.state == "random":
        state = random_finite_state(rng, args.d)
    elif args.state == "mixed":
        state = random_finite_state(rng, args.d, pure=False)
    elif args.state.isdigit() and int(args.state) < args.d:
        state = FiniteState.from_vector(np.eye(args.d)[int(args.state)])
    else:
        raise ParseError(f"--state must be 'random', 'mixed' or a basis index below {args.d}")
    report = verify_ivanovic(state, bases, tol=config.tol_finite * 100)
    doc = {
        "dimension": args.d,
        "complementarity": check,
        "ivanovic": report.to_dict(),
        "distributions": [
            list(measurement_distribution(state, bases, i).probs)
            for i in range(bases.n_bases)
        ],
        "bases": [[_complex_list(col) for col in basis.T] for basis in bases.bases],
    }
    return (0 if report.passed else 1), doc


def cmd_signal(config: RunConfig, args) -> tuple[int, dict]:
    if args.csv is not None:
        with open(args.csv, newline="") as fh:
            signal = signal_from_rows(csv.reader(fh))
    elif args.demo is not None:
        tgrid = GridSpec(config.grid_n, -10.0, 10.0)
        chirp = 0.6 if args.demo == "chirp" else 0.0
        signal = gaussian_pulse(tgrid, width=0.8, carrier=1.2, chirp=chirp)
    else:
        raise ParseError("signal needs a CSV file or --demo")
    report = verify_time_frequency(signal, config.tol_grid)
    _, finst, mask = instantaneous_frequency(signal)
    doc = {
        "report": report.to_dict(),
        "instantaneous_frequency_range": [float(finst[mask].min()), float(finst[mask].max())],
    }
    return _report_code([report]), doc


def cmd_diffusion(config: RunConfig, args) -> tuple[int, dict]:
    # a rate needs two entropies (steps >= 1), a time step and a spreading density
    _positive(steps=args.steps, gamma=args.gamma, dt=args.dt, sigma=args.sigma)
    grid = GridSpec(config.grid_n, -20.0, 20.0)
    state = gaussian_state(grid, args.sigma, constants=config.constants())
    density = LineDensity(grid, state.position_density())
    run = diffusion_entropy_rate(density, args.gamma, args.drift, args.dt, args.steps)
    predicted = [args.gamma / ell ** 2 for ell in run.fisher_lengths]
    doc = {
        "gamma": args.gamma,
        "drift": args.drift,
        "dt": args.dt,
        "steps": args.steps,
        "entropies": list(run.entropies),
        "measured_rates": list(run.rate_estimates),
        "predicted_rates": predicted,
        "initial_rate_relative_error": abs(run.rate_estimates[0] - predicted[0]) / predicted[0],
    }
    return 0, doc


COMMANDS = {
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "wigner": cmd_wigner,
    "energy-bound": cmd_energy_bound,
    "epr-demo": cmd_epr_demo,
    "mub": cmd_mub,
    "signal": cmd_signal,
    "diffusion": cmd_diffusion,
}


if __name__ == "__main__":
    sys.exit(main())
