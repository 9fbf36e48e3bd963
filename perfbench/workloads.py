"""The benchmark's seeded workloads: inputs, timed reports and output checks.

A workload turns its seed into a pool of units once (set-up), then hands
the timed loop one *unit* of reports at a time: a round of the eight suite
families, a mixed pair, or one EPR demonstration.  A report is one
``RelationReport``, or one report in the shape a CLI subcommand emits,
serialised the way ``cli._emit`` does.  Set-up generates every unit's
inputs once and keeps only the random generator's state before each; a
unit's inputs are generated again from that state just before its first
report is timed.  So the process holds one unit's inputs at a time, as the
CLI holds one case, and the library never sees the same state object twice.

Importing this module imports the library; the benchmark counts that in
``setup_s``.
"""

from __future__ import annotations

import argparse
import json
from contextlib import nullcontext

import numpy as np

from exact_uncertainty import (
    cli,
    mub,
    random_states,
    relations,
    signals,
    states,
    twoparticle,
)
from exact_uncertainty.grids import GridSpec

CONFIG = cli.RunConfig()  # the CLI defaults: grid_n 1024 and its tolerances
POOL_UNITS = 32           # distinct seeded units; the timed loop cycles them
TINY_POOL_UNITS = 2
WIGNER_DEVIATION_BOUND = 1e-6  # acceptance criterion 03


def parse_strict(text: str):
    """json.loads that rejects NaN and infinities, which are not JSON."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in report")
    return json.loads(text, parse_constant=reject)


class Workload:
    """Base: serialisation and the tracer hook shared by every workload."""

    name = ""

    def __init__(self):
        self.span = lambda name: nullcontext()  # replaced by Tracer.span in traced runs

    def emit(self, doc: dict) -> str:
        """Serialise a report as cli._emit does."""
        with self.span("cli.report_json"):
            return json.dumps(cli._jsonable(doc), sort_keys=True, indent=2)

    def emit_relation(self, report) -> str:
        with self.span("cli.report_json"):
            return json.dumps(cli._jsonable(report.to_dict()), sort_keys=True, indent=2)

    def unit(self, index: int) -> list:
        """[(kind, zero-argument callable returning the report text)]."""
        raise NotImplementedError

    def check(self, kind: str, doc: dict) -> str | None:
        """None when a parsed report is correct, else the reason it is not."""
        raise NotImplementedError

    def problem(self, kind: str, text: str) -> str | None:
        """Check one report's text: strict JSON, then the workload's check."""
        try:
            return self.check(kind, parse_strict(text))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {type(exc).__name__}: {exc}"

    def computed_sizes(self) -> dict:
        return {}


def _generator_states(rng, units: int, generate) -> list[dict]:
    """The generator's state before each of ``units`` units; each unit's
    inputs are generated with ``generate(rng)`` and dropped."""
    states_before = []
    for _ in range(units):
        states_before.append(rng.bit_generator.state)  # a fresh dict on every read
        generate(rng)
    return states_before


def _generator_at(state: dict) -> np.random.Generator:
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _verdict_problem(doc: dict, expected: str) -> str | None:
    if doc.get("verdict") != expected:
        return f"verdict {doc.get('verdict')!r}, expected {expected!r}"
    return None


# ---------------------------------------------------------------------------
# suite-full: the `verify --suite full` mix


class SuiteFull(Workload):
    """Equal numbers of the eight `verify --suite full` families, drawn with
    the generators and parameters of ``cli._suite_case``."""

    name = "suite-full"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        n = 256 if tiny else CONFIG.grid_n
        self.multidim_n = 64 if tiny else 384
        self.grid = GridSpec(n, -20.0, 20.0)
        self.tgrid = GridSpec(n, -10.0, 10.0)
        self.unit_states = _generator_states(np.random.default_rng(seed),
                                             TINY_POOL_UNITS if tiny else POOL_UNITS, self._round)

    def _round(self, rng) -> list:
        """One case per family, drawn as in ``cli._suite_case``: (kind,
        zero-argument callable returning the RelationReport)."""
        grid, tgrid, constants = self.grid, self.tgrid, CONFIG.constants()
        tol_grid = CONFIG.tol_grid
        xp = random_states.random_smooth_grid_state(rng, grid, constants)
        conj = random_states.random_smooth_grid_state(rng, grid, constants, center_spread=1.2)
        rotator = random_states.random_periodic_state(rng, constants=constants)
        photon = random_states.random_fock_state(rng, constants=constants)
        finite = random_states.random_finite_state(rng, 5)
        a_obs = random_states.random_hermitian(rng, 5)
        b_obs = random_states.random_hermitian(rng, 5)
        plane = random_states.random_gaussian_2d(rng, n_points=self.multidim_n,
                                                 constants=constants)
        d = int(rng.choice([2, 3]))
        small = random_states.random_finite_state(rng, d)
        pulse = signals.gaussian_pulse(tgrid, width=float(rng.uniform(0.5, 1.2)),
                                       carrier=float(rng.uniform(-1.5, 1.5)),
                                       chirp=float(rng.uniform(-0.6, 0.6)))
        # verifiers are looked up when the report runs, so a traced run
        # reaches them through the tracer's wrappers; the MUBs are built in
        # the report, as cli._suite_case builds them per case
        return [
            ("xp", lambda: relations.verify_position_momentum(xp, tol_grid)),
            ("conjugate", lambda: relations.verify_conjugate(conj, tol_grid)),
            ("phase-angular", lambda: relations.verify_phase_angular(rotator, tol_grid)),
            ("phase-number", lambda: relations.verify_phase_number(photon, CONFIG.tol_fock)),
            ("general", lambda: relations.verify_general(finite, a_obs, b_obs, hbar=CONFIG.hbar,
                                                         tol=CONFIG.tol_finite)),
            ("multidim", lambda: relations.verify_multidim(plane, tol=1e-5)),
            ("ivanovic", lambda: relations.verify_ivanovic(small, mub.mub_construct(d))),
            ("time-frequency", lambda: signals.verify_time_frequency(pulse, tol_grid)),
        ]

    def unit(self, index: int) -> list:
        cases = self._round(_generator_at(self.unit_states[index % len(self.unit_states)]))
        return [(kind, self._reporter(verify)) for kind, verify in cases]

    def _reporter(self, verify):
        return lambda: self.emit_relation(verify())

    def check(self, kind: str, doc: dict) -> str | None:
        return _verdict_problem(doc, relations.EQUALITY)


# ---------------------------------------------------------------------------
# mixed-wigner: rank-2 density matrices and Wigner slices


class MixedWigner(Workload):
    """Seeded pairs of smooth pure states and their rank-2 mixture.

    Per pair: the mixture (built inside the first report) through
    verify_position_momentum and verify_conjugate, then the `wigner`
    subcommand's report for each pure state and for the mixture.
    """

    name = "mixed-wigner"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        self.n = 256 if tiny else CONFIG.grid_n
        self.grid = GridSpec(self.n, -20.0, 20.0)
        self.unit_states = _generator_states(np.random.default_rng(seed),
                                             TINY_POOL_UNITS if tiny else POOL_UNITS, self._pair)

    def _pair(self, rng) -> tuple:
        """Two smooth pure states and the first one's weight.  The conjugate
        verifier needs the momentum density resolved, hence the suite's
        narrow center spread for the conjugate family."""
        grid, constants = self.grid, CONFIG.constants()
        return (random_states.random_smooth_grid_state(rng, grid, constants, center_spread=1.2),
                random_states.random_smooth_grid_state(rng, grid, constants, center_spread=1.2),
                float(rng.uniform(0.3, 0.7)))

    def unit(self, index: int) -> list:
        first, second, weight = self._pair(
            _generator_at(self.unit_states[index % len(self.unit_states)]))
        held = {}

        def mixed_xp():
            held["mixture"] = states.GridMixedState.from_ensemble(
                [(weight, first), (1.0 - weight, second)])
            return self.emit_relation(
                relations.verify_position_momentum(held["mixture"], CONFIG.tol_grid))

        def mixed_conjugate():
            return self.emit_relation(
                relations.verify_conjugate(held["mixture"], CONFIG.tol_grid))

        return [
            ("mixed-xp", mixed_xp),
            ("mixed-conjugate", mixed_conjugate),
            ("wigner-pure", lambda: self.wigner_report(first)),
            ("wigner-pure", lambda: self.wigner_report(second)),
            ("wigner-mixed", lambda: self.wigner_report(held["mixture"])),
        ]

    def wigner_report(self, state) -> str:
        """The `wigner` subcommand's report: ``cli.cmd_wigner`` itself, handed
        the state in place of the state file it would read."""
        load_state = cli._load_state
        cli._load_state = lambda path, constants: state
        try:
            _, doc = cli.cmd_wigner(CONFIG, argparse.Namespace(state=None, csv=None))
        finally:
            cli._load_state = load_state
        doc["provenance"] = CONFIG.provenance()
        return self.emit(doc)

    def check(self, kind: str, doc: dict) -> str | None:
        if kind.startswith("wigner"):
            deviation = doc.get("average_momentum_max_weighted_deviation")
            if not isinstance(deviation, float) or not deviation < WIGNER_DEVIATION_BOUND:
                return f"weighted P_av deviation {deviation!r} >= {WIGNER_DEVIATION_BOUND}"
            return None
        return _verdict_problem(doc, relations.INEQUALITY)

    def computed_sizes(self) -> dict:
        n = self.n
        matrix = n * n * 16
        return {
            "n": n,
            "vector_bytes": n * 16,
            "density_matrix_bytes": matrix,
            "wigner_interpolated_matrix_bytes": 4 * matrix,
            # fine matrix, two int64 index arrays, slices and their spectrum
            "wigner_mixed_live_set_bytes": 4 * matrix + 2 * n * n * 8 + 2 * matrix,
            # rho and its two spectral derivatives in fisher_length_mixed
            "fisher_length_mixed_live_set_bytes": 3 * matrix,
        }


# ---------------------------------------------------------------------------
# epr-2d: the epr-demo subcommand on the library's own grid sizing


class Epr2D(Workload):
    """The `epr-demo` subcommand at a=1, sigma=0.1, tau=10, p0=2 on
    ``epr_grids(params)`` (5120 points per axis), with seeded collapse
    points inside the support."""

    name = "epr-2d"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.params = twoparticle.EprParams(1.0, 0.1, 2.0 if tiny else 10.0, 2.0)
        self.n = twoparticle.epr_grids(self.params)[0].n_points
        self.collapse_points = [(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-1.0, 3.0)))
                                for _ in range(TINY_POOL_UNITS if tiny else POOL_UNITS)]

    def unit(self, index: int) -> list:
        x, p = self.collapse_points[index % len(self.collapse_points)]
        params = self.params
        args = argparse.Namespace(a=params.a, sigma=params.sigma, tau=params.tau,
                                  p0=params.p0, collapse_x=x, collapse_p=p,
                                  epr_grid_n=self.n)

        def epr_demo():
            _, doc = cli.cmd_epr_demo(CONFIG, args)
            doc["provenance"] = CONFIG.provenance()
            return self.emit(doc)

        return [("epr-demo", epr_demo)]

    def check(self, kind: str, doc: dict) -> str | None:
        """Acceptance criterion 07's bounds."""
        params = self.params
        m = doc["moments"]
        problems = []
        if not abs(m["mean_relative_position"] - params.a) < 1e-4:
            problems.append("mean relative position")
        if not abs(m["mean_total_momentum"] - params.p0) < 1e-4:
            problems.append("mean total momentum")
        if not abs(m["var_relative_position"] - params.sigma ** 2) < 1e-4 * params.sigma ** 2:
            problems.append("relative position variance")
        if not abs(m["var_total_momentum"] - params.tau ** -2) < 1e-4 * params.tau ** -2:
            problems.append("total momentum variance")
        cov = doc["covariances"]
        product = np.array(cov["position"]) @ np.array(cov["momentum"])
        target = (0.5 * CONFIG.hbar) ** 2
        if not float(np.max(np.abs(product - target * np.eye(2)))) / target < 1e-4:
            problems.append("matrix relation residual")
        if not doc["correlations"]["pearson_sum_residual"] < 1e-3:
            problems.append("Pearson sum")
        collapse = doc["collapse"]
        error = abs(collapse["classical_momentum_after_momentum_collapse"]
                    - collapse["formula_prediction"])
        if not error < 1e-5:
            problems.append("momentum collapse")
        return ", ".join(problems) or None

    def computed_sizes(self) -> dict:
        n = self.n
        complex_array, real_array, mask = n * n * 16, n * n * 8, n * n
        return {
            "n": n,
            "complex_array_bytes": complex_array,
            "real_array_bytes": real_array,
            "mask_bytes": mask,
            # bound at once in nonclassical_components_2d when Cov(P_nc) is
            # formed: psi, d1, d2, chi1, chi2; p, flux1, flux2, v1, v2, weights; mask
            "nonclassical_components_2d_live_set_bytes":
                5 * complex_array + 6 * real_array + mask,
        }


WORKLOADS = {cls.name: cls for cls in (SuiteFull, MixedWigner, Epr2D)}
