import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from exact_uncertainty import cli
from exact_uncertainty.cli import main
from exact_uncertainty.random_states import (
    random_finite_state,
    random_fock_state,
    random_periodic_state,
)
from exact_uncertainty.states import (
    FiniteState,
    GridMixedState,
    GridPureState,
    MixedState,
    fock_basis_state,
    gaussian_state,
    state_to_dict,
)
from exact_uncertainty.grids import GridSpec


def run(args, out_path):
    code = main(list(args) + ["--out", str(out_path)])
    return code, json.loads(out_path.read_text())


def test_verify_suite_and_determinism(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a, _ = run(["verify", "--suite", "gaussian-random", "--n", "4", "--seed", "7"], out_a)
    code_b, _ = run(["verify", "--suite", "gaussian-random", "--n", "4", "--seed", "7"], out_b)
    assert code_a == code_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["n_reports"] == 8  # 4 states x 2 families
    assert doc["all_passed"] is True
    assert doc["provenance"]["seed"] == 7


def test_readme_example_passes(tmp_path):
    # report 94 (conjugate, state 44) is under-resolved on the 1024-point
    # momentum lattice (residual 1.0e-6) and passes once it is refined
    code, doc = run(["verify", "--suite", "gaussian-random", "--n", "50", "--seed", "7"],
                    tmp_path / "readme.json")
    assert code == 0
    assert doc["n_reports"] == 100 and doc["all_passed"] is True
    assert "resolution_study" in doc["reports"][94]["notes"]


def test_verify_full_suite(tmp_path):
    code, doc = run(["verify", "--suite", "full", "--n", "2", "--seed", "3"],
                    tmp_path / "f.json")
    assert code == 0
    assert doc["n_reports"] == 16  # 2 states x 8 families
    families = {r["notes"]["family"] for r in doc["reports"]}
    assert len(families) == 8


def test_verify_state_file(tmp_path):
    grid = GridSpec(512, -16.0, 16.0)
    doc = state_to_dict(gaussian_state(grid, 1.0, momentum=1.0))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(doc))
    code, report = run(["verify", str(state_path), "--relation", "xp"], tmp_path / "r.json")
    assert code == 0
    assert report["reports"][0]["verdict"] == "equality"


def test_relation_violation_exits_one(tmp_path):
    # an impossible tolerance turns a clean equality into a violation
    grid = GridSpec(512, -16.0, 16.0)
    doc = state_to_dict(gaussian_state(grid, 1.0))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    code = main(["verify", str(state_path), "--relation", "xp",
                 "--tol-grid", "1e-16", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["reports"][0]["verdict"] == "violated"


def test_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.json"
    code = main(["verify", str(bad), "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["kind"] == "parse"


@pytest.mark.parametrize("case", ["missing state file", "csv in a missing directory",
                                  "out in a missing directory"])
def test_unreadable_file_exits_two(tmp_path, capsys, case):
    # a file that cannot be opened is bad input: the parse-error document on
    # stdout and exit 2, which the README keeps apart from a violation's 1;
    # an --out file that cannot be written gets its document on stdout too
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state_to_dict(gaussian_state(GridSpec(64, -8.0, 8.0), 1.0))))
    args = {"missing state file": ["decompose", str(tmp_path / "missing.json")],
            "csv in a missing directory": ["wigner", str(state_path), "--csv",
                                           str(tmp_path / "nodir" / "w.csv")],
            "out in a missing directory": ["decompose", str(state_path), "--out",
                                           str(tmp_path / "nodir" / "out.json")]}[case]
    assert main(args) == 2
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    assert doc["kind"] == "parse" and "No such file or directory" in doc["error"]


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "full", "--n", "1", "--grid-n", "7"],
    ["signal", "--demo", "chirp", "--grid-n", "6"],
    ["verify", "--suite", "full", "--n", "1", "--hbar", "0"],
    ["energy-bound", "--model", "harmonic", "--mass", "-1"],
    ["epr-demo", "--sigma", "-1"],
    ["epr-demo", "--sigma", "0.2", "--tau", "5", "--epr-grid-n", "7"],
    ["mub", "--d", "3", "--state", "foo"],
    ["mub", "--d", "3", "--state", "5"],
    ["mub", "--d", "3", "--state", "-1"],
])
def test_rejected_flag_value_exits_two(capsys, args):
    # a value the library rejects is bad input (exit 2), not a traceback
    assert main(args) == 2
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    assert doc["kind"] == "parse"


def test_bouncer_report_solves_the_airy_zero_once(tmp_path, monkeypatch):
    from exact_uncertainty import energy

    solves, gamma = [], math.gamma
    monkeypatch.setattr(energy.math, "gamma", lambda x: solves.append(x) or gamma(x))
    energy.airy_first_zero.cache_clear()
    code, _ = run(["energy-bound", "--model", "bouncer"], tmp_path / "b.json")
    assert code == 0
    assert len(solves) == 2  # Ai(0) and Ai'(0), the initial data of one solve


def test_computation_error_exits_three(tmp_path):
    out = tmp_path / "out.json"
    code = main(["mub", "--d", "4", "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["kind"] == "NotPrime"


def test_energy_bound_models(tmp_path):
    code, doc = run(["energy-bound", "--model", "bouncer"], tmp_path / "b.json")
    assert code == 0
    assert doc["entropic_coefficient"] == pytest.approx(1.249, abs=1e-3)
    assert doc["exact_coefficient"] == pytest.approx(1.856, abs=1e-3)
    assert doc["airy_first_zero"] == pytest.approx(2.3381, abs=1e-4)

    code, doc = run(["energy-bound", "--model", "coulomb", "--nuclear-charge", "2"],
                    tmp_path / "c.json")
    assert doc["bound"] == pytest.approx(-2.0, rel=1e-9)

    # q enters squared: a negative charge binds as a positive one does
    code, doc = run(["energy-bound", "--model", "coulomb", "--charge", "-1"], tmp_path / "q.json")
    assert code == 0 and doc["bound"] == pytest.approx(-0.5, rel=1e-9)

    code, doc = run(["energy-bound", "--model", "harmonic"], tmp_path / "h.json")
    assert doc["entropic_bound"] == pytest.approx(0.5, rel=1e-6)


def test_mub_sum_rule(tmp_path):
    code, doc = run(["mub", "--d", "3", "--state", "random", "--seed", "1"],
                    tmp_path / "m.json")
    assert code == 0
    assert doc["ivanovic"]["left"] == pytest.approx(2.0, abs=1e-12)
    assert len(doc["bases"]) == 4


def test_signal_demo(tmp_path):
    code, doc = run(["signal", "--demo", "chirp"], tmp_path / "s.json")
    assert code == 0
    assert doc["report"]["verdict"] == "equality"


def test_signal_csv_ingestion(tmp_path):
    t = np.linspace(-4, 4, 256, endpoint=False)
    a = np.exp(-t ** 2 + 2j * np.pi * 0.4 * t)
    csv_path = tmp_path / "sig.csv"
    rows = ["t,re,im"] + [f"{ti},{ai.real},{ai.imag}" for ti, ai in zip(t, a)]
    csv_path.write_text("\n".join(rows))
    code, doc = run(["signal", str(csv_path)], tmp_path / "s.json")
    assert code == 0
    assert doc["report"]["verdict"] == "equality"


def test_signal_csv_scale_does_not_change_report(tmp_path):
    # a signal is normalized as a state file is: 1e-16 and 1e-200 once read
    # as "zero energy", and |a|^2 of 1e160 and 1e200 overflowed to a zero
    # signal and a traceback; an all-zero signal is ZeroNorm, as a zero state
    t = np.linspace(-4, 4, 256, endpoint=False)
    a = np.exp(-t ** 2 + 2j * np.pi * 0.4 * t)
    runs = {}
    for factor in (1.0, 1e-16, 1e-200, 1e160, 1e200, 0.0):
        path = tmp_path / f"sig-{factor:g}.csv"
        rows = ["t,re,im"] + [f"{ti},{ai.real},{ai.imag}" for ti, ai in zip(t, factor * a)]
        path.write_text("\n".join(rows))
        runs[factor] = run(["signal", str(path)], tmp_path / "out.json")
    ref_code, ref = runs[1.0]
    assert ref_code == 0
    for factor in (1e-16, 1e-200, 1e160, 1e200):
        code, doc = runs[factor]
        assert code == ref_code
        report = doc["report"]
        assert report["verdict"] == ref["report"]["verdict"]
        assert report["left"] == pytest.approx(ref["report"]["left"], rel=1e-12)
        # the residual is itself relative to the right-hand side
        assert report["residual"] == pytest.approx(ref["report"]["residual"], abs=1e-12)
    code, doc = runs[0.0]
    assert code == 3 and doc["kind"] == "ZeroNorm"


@pytest.mark.parametrize("bad", ["nan-time", "constant-time", "decreasing-time", "inf-amplitude",
                                 "odd-count"])
def test_bad_signal_csv_exits_two(tmp_path, bad):
    t = np.linspace(-4, 4, 63 if bad == "odd-count" else 64, endpoint=False)
    a = np.exp(-t ** 2).astype(complex)
    if bad == "nan-time":
        t[10] = np.nan
    elif bad == "constant-time":
        t[:] = 1.0
    elif bad == "decreasing-time":
        t = -t
    elif bad == "inf-amplitude":
        a[20] = np.inf
    csv_path = tmp_path / "sig.csv"
    rows = ["t,re,im"] + [f"{ti},{ai.real},{ai.imag}" for ti, ai in zip(t, a)]
    csv_path.write_text("\n".join(rows))
    code, doc = run(["signal", str(csv_path)], tmp_path / "s.json")
    assert code == 2
    assert doc["kind"] == "parse"


def test_diffusion_rate(tmp_path):
    code, doc = run(["diffusion", "--gamma", "0.001", "--steps", "8"], tmp_path / "d.json")
    assert code == 0
    assert doc["initial_rate_relative_error"] < 1e-2


def test_wigner_csv_export(tmp_path):
    grid = GridSpec(128, -8.0, 8.0)
    doc = state_to_dict(gaussian_state(grid, 1.0))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(doc))
    csv_path = tmp_path / "w.csv"
    code, report = run(["wigner", str(state_path), "--csv", str(csv_path)],
                       tmp_path / "r.json")
    assert code == 0
    assert report["total"] == pytest.approx(1.0, abs=1e-8)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 129  # header + one row per grid point


@pytest.mark.parametrize("state, command", [
    ("fock", ["verify", "--relation", "xp"]),
    ("fock", ["verify", "--relation", "conjugate"]),
    ("fock", ["verify", "--relation", "phase-angular"]),
    ("grid", ["verify", "--relation", "phase-angular"]),
    ("grid", ["verify", "--relation", "phase-number"]),
    ("fock", ["wigner"]),
])
def test_relation_outside_state_family_exits_two(tmp_path, state, command):
    # a relation or transform that does not fit the file's state is bad
    # input (exit 2), not a relation violation (exit 1)
    doc = state_to_dict(fock_basis_state(3, 8) if state == "fock"
                        else gaussian_state(GridSpec(128, -8.0, 8.0), 1.0))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(doc))
    code, report = run([command[0], str(state_path), *command[1:]], tmp_path / "out.json")
    assert code == 2
    assert report["kind"] == "parse"


def test_decompose(tmp_path):
    grid = GridSpec(512, -16.0, 16.0)
    doc = state_to_dict(gaussian_state(grid, 1.0, momentum=1.5))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(doc))
    code, report = run(["decompose", str(state_path), "--basis", "position"],
                       tmp_path / "d.json")
    assert code == 0
    assert report["classical_mean"] == pytest.approx(1.5, abs=1e-8)
    assert report["summary"]["var_classical"] == pytest.approx(0.0, abs=1e-9)


def _decompose_files(tmp_path):
    """(path, basis) of a pure grid file, a grid mixture file and a Fock file,
    with every basis each one supports."""
    rng = np.random.default_rng(5)
    grid = GridSpec(256, -16.0, 16.0)
    files = {
        "pure": (gaussian_state(grid, 1.0, momentum=1.5), ("position", "momentum")),
        "mixture": (MixedState.from_ensemble([(0.3, gaussian_state(grid, 1.2, momentum=-0.5)),
                                              (0.7, gaussian_state(grid, 0.8, momentum=1.0))]),
                    ("position", "momentum")),
        "fock": (random_fock_state(rng, 30), ("phase",)),
    }
    cases = []
    for name, (state, bases) in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(state_to_dict(state)))
        cases += [(path, basis) for basis in bases]
    return cases


def test_decompose_summary_reuses_the_reported_component(tmp_path, monkeypatch):
    from exact_uncertainty.decomposition import decomposition_summary

    for path, basis in _decompose_files(tmp_path):
        args = ["decompose", str(path), "--basis", basis, "--out", str(tmp_path / "new.json")]
        assert main(args) == 0
        with monkeypatch.context() as m:  # the summary formed from a second estimate
            m.setattr(cli, "_summary", lambda state, observable, comp:
                      decomposition_summary(state, basis, observable))
            assert main(args[:-1] + [str(tmp_path / "separate.json")]) == 0
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "separate.json").read_bytes()


def test_decompose_forms_one_classical_estimate(tmp_path, monkeypatch):
    from exact_uncertainty import decomposition

    calls = []

    def counted(*args):
        calls.append(args)
        return estimate(*args)

    estimate = decomposition.classical_estimate
    monkeypatch.setattr(decomposition, "classical_estimate", counted)
    monkeypatch.setattr(cli, "classical_estimate", counted)
    for path, basis in _decompose_files(tmp_path):
        calls.clear()
        assert main(["decompose", str(path), "--basis", basis, "--out", str(tmp_path / "d.json")]) == 0
        assert len(calls) == 1, (path.name, basis)


def test_epr_demo_small(tmp_path):
    code, doc = run(["epr-demo", "--sigma", "0.2", "--tau", "5", "--epr-grid-n", "1280"],
                    tmp_path / "e.json")
    assert code == 0
    collapse = doc["collapse"]
    assert collapse["classical_momentum_after_momentum_collapse"] == pytest.approx(
        collapse["formula_prediction"], abs=1e-5)
    assert doc["correlations"]["relation_residual"] < 1e-3
    assert doc["covariances"]["matrix_product_residual"] < 1e-4


def test_epr_demo_default_grid_is_library_sizing(tmp_path):
    from exact_uncertainty.twoparticle import EprParams, epr_grids

    code, doc = run(["epr-demo", "--sigma", "0.2", "--tau", "5"], tmp_path / "e.json")
    assert code == 0
    expected = epr_grids(EprParams(a=1.0, sigma=0.2, tau=5.0, p0=2.0))[0]
    assert doc["grid"]["n_points"] == expected.n_points
    collapse = doc["collapse"]
    assert collapse["classical_momentum_after_momentum_collapse"] == pytest.approx(
        collapse["formula_prediction"], abs=1e-5)
    assert doc["correlations"]["relation_residual"] < 1e-3
    assert doc["covariances"]["matrix_product_residual"] < 1e-4


def _reject_non_finite(token):
    raise ValueError(f"non-finite JSON token {token}")


def _loader_case(kind):
    """A state document that the loader must accept or reject."""
    grid = GridSpec(256, -12.0, 12.0)
    a = gaussian_state(grid, 1.0, center=-1.0)
    b = gaussian_state(grid, 0.8, center=1.5, momentum=1.0)
    doc = state_to_dict(a)
    amps = np.array(doc["amplitudes"])
    if kind == "nan-amplitude":
        amps[100, 0] = np.nan
    elif kind == "inf-amplitude":
        amps[100, 1] = np.inf
    elif kind == "zero-state":
        amps[:] = 0.0
    elif kind == "scaled-state":
        amps *= 3.0
    elif kind in ("non-positive-matrix", "zero-matrix"):
        mat = (np.outer(a.amplitudes, a.amplitudes.conj())
               - 0.3 * np.outer(b.amplitudes, b.amplitudes.conj()))
        doc = state_to_dict(GridMixedState.from_ensemble([(1.0, a)]))
        doc["matrix"] = np.stack([mat.real, mat.imag], axis=-1) * (kind != "zero-matrix")
        return doc
    doc["amplitudes"] = amps
    return doc


@pytest.mark.parametrize("kind, code, error_kind", [
    ("nan-amplitude", 2, "parse"),
    ("inf-amplitude", 2, "parse"),
    ("zero-state", 3, "ZeroNorm"),
    ("non-positive-matrix", 2, "parse"),
    ("zero-matrix", 3, "ZeroNorm"),
    ("scaled-state", 0, None),  # normalized at load
])
def test_state_loading_exit_codes(tmp_path, kind, code, error_kind):
    doc = _loader_case(kind)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(doc, default=lambda arr: arr.tolist()))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way either
        assert main(["verify", str(state_path), "--out", str(out)]) == code
    report = json.loads(out.read_text(), parse_constant=_reject_non_finite)
    if error_kind is None:
        assert report["reports"][0]["verdict"] == "equality"
    else:
        assert report["kind"] == error_kind


@pytest.mark.parametrize("kind, scale", [("gaussian", 1e-8), ("gaussian", 1e160),
                                         ("one-entry", 1e308)])
def test_state_scale_does_not_change_reports(tmp_path, kind, scale):
    # a scaled file is the state it scales: 1e-8 once read as ZeroNorm, and
    # |psi|^2 of the other two overflowed to a zero state or a traceback
    grid = GridSpec(64, -8.0, 8.0)
    amps = gaussian_state(grid, 1.0).amplitudes if kind == "gaussian" else np.eye(64)[20]
    runs = []
    for factor in (1.0, scale):
        path = tmp_path / f"state-{factor:g}.json"
        path.write_text(json.dumps(state_to_dict(GridPureState(grid, factor * amps))))
        runs.append([run([command, str(path)], tmp_path / "out.json")
                     for command in ("verify", "wigner")])
    (verify_code, verify), (wigner_code, wigner) = runs[1]
    (ref_verify_code, ref_verify), (ref_wigner_code, ref_wigner) = runs[0]
    assert (verify_code, wigner_code) == (ref_verify_code, ref_wigner_code)
    report, ref = verify["reports"][0], ref_verify["reports"][0]
    assert report["verdict"] == ref["verdict"]
    assert report["left"] == pytest.approx(ref["left"], rel=1e-12)
    assert report["residual"] == pytest.approx(ref["residual"], rel=1e-12, abs=1e-14)
    for key in ("total", "imaginary_residue", "min_value",
                "average_momentum_max_weighted_deviation"):
        assert wigner[key] == pytest.approx(ref_wigner[key], rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("matrix", [np.diag([1.5, -0.5]), np.full((2, 2), np.nan)],
                         ids=["not-positive", "nan"])
def test_finite_state_must_be_a_density_matrix(tmp_path, matrix):
    with pytest.raises(ValueError):
        FiniteState(matrix)
    state_path = tmp_path / "finite.json"
    # json writes and reads the NaN token
    state_path.write_text(json.dumps({
        "family": "finite", "grid": {"dimension": 2},
        "matrix": np.stack([matrix.real, matrix.imag], axis=-1).tolist()}))
    code, report = run(["verify", str(state_path)], tmp_path / "out.json")
    assert code == 2 and report["kind"] == "parse"


def test_reports_are_strict_json(tmp_path):
    # a number eigenstate has a flat phase density: its Fisher length is
    # infinite and the report says so with the "inf" string and its flag
    state_path = tmp_path / "fock.json"
    state_path.write_text(json.dumps(state_to_dict(fock_basis_state(3, 8))))
    out = tmp_path / "out.json"
    assert main(["verify", str(state_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=_reject_non_finite)["reports"][0]
    assert report["left"] == "inf"
    assert report["notes"]["flag"] == "infinite-by-uniformity"


def test_nan_in_report_exits_three(tmp_path, monkeypatch):
    monkeypatch.setitem(cli.COMMANDS, "diffusion", lambda config, args: (0, {"x": np.nan}))
    out = tmp_path / "out.json"
    assert main(["diffusion", "--out", str(out)]) == 3
    report = json.loads(out.read_text(), parse_constant=_reject_non_finite)
    assert report["kind"] == "NonFiniteResult"


@pytest.mark.parametrize("mixture, relation", [
    (lambda rng: MixedState.from_ensemble(
        [(0.5, random_periodic_state(rng)), (0.5, random_periodic_state(rng))]),
     "phase-angular"),
    (lambda rng: MixedState.from_ensemble(
        [(0.5, random_fock_state(rng, 30, mean=2.0)), (0.5, random_fock_state(rng, 30, mean=4.0))]),
     "phase-number"),
])
def test_mixture_file_relation_follows_member_family(tmp_path, rng, mixture, relation):
    state_path = tmp_path / "mixture.json"
    state_path.write_text(json.dumps(state_to_dict(mixture(rng))))
    code, report = run(["verify", str(state_path)], tmp_path / "out.json")
    assert code == 0
    assert report["reports"][0]["relation_id"] == relation
    assert report["reports"][0]["verdict"] in ("inequality-satisfied", "flagged-infinite")


@pytest.mark.parametrize("d, expected_code", [(2, 0), (3, 0), (4, 3)])
def test_finite_state_file_infers_ivanovic(tmp_path, rng, d, expected_code):
    state_path = tmp_path / "finite.json"
    state_path.write_text(json.dumps(state_to_dict(random_finite_state(rng, d))))
    code, report = run(["verify", str(state_path)], tmp_path / "out.json")
    assert code == expected_code
    if expected_code == 0:
        assert report["reports"][0]["relation_id"] == "ivanovic"
    else:
        assert report["kind"] == "NotPrime"


# a value other than the default for every global flag but --out
GLOBAL_VALUES = {"hbar": 2.0, "mass": 1.5, "omega": 0.5, "inertia": 3.0, "grid_n": 512,
                 "tol_grid": 1e-5, "tol_finite": 1e-9, "tol_fock": 1e-5, "seed": 5}


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("name", [flag.name for flag in fields(cli.RunConfig)])
def test_global_flag_on_either_side_of_the_subcommand(tmp_path, name, before):
    out = tmp_path / "out.json"
    value = str(out) if name == "out" else GLOBAL_VALUES[name]
    flag = ["--" + name.replace("_", "-"), str(value)]
    command = ["verify", "--suite", "gaussian-random", "--n", "1"]
    args = flag + command if before else command + flag
    assert main(args if name == "out" else args + ["--out", str(out)]) == 0
    provenance = json.loads(out.read_text())["provenance"]
    if name != "out":
        assert provenance[name] == value
    assert set(provenance) == set(GLOBAL_VALUES) | {"version"}


@pytest.mark.parametrize("args, flag, value", [
    (["--hbar", "nan", "verify", "--suite", "gaussian-random", "--n", "1"], "hbar", "nan"),
    (["--tol-grid", "-1", "verify", "--suite", "gaussian-random", "--n", "1"], "--tol-grid", "-1"),
    (["--seed", "-1", "verify", "--suite", "gaussian-random", "--n", "1"], "--seed", "-1"),
    (["diffusion", "--steps", "0"], "--steps", "0"),
    (["energy-bound", "--model", "bouncer", "--gravity", "-1"], "--gravity", "-1"),
    (["verify", "--suite", "gaussian-random", "--n", "0"], "--n", "0"),
    (["verify", "--suite", "gaussian-random", "--n", "-1"], "--n", "-1"),
    (["energy-bound", "--model", "coulomb", "--nuclear-charge", "-1"], "--nuclear-charge", "-1"),
    (["energy-bound", "--model", "coulomb", "--nuclear-charge", "0"], "--nuclear-charge", "0"),
    (["energy-bound", "--model", "coulomb", "--nuclear-charge", "inf"], "--nuclear-charge", "inf"),
    (["energy-bound", "--model", "coulomb", "--charge", "0"], "--charge", "0"),
    (["energy-bound", "--model", "coulomb", "--charge", "nan"], "--charge", "nan"),
], ids=["hbar-nan", "tol-grid-negative", "seed-negative", "steps-zero", "gravity-negative",
        "n-zero", "n-negative", "nuclear-charge-negative", "nuclear-charge-zero",
        "nuclear-charge-inf", "charge-zero", "charge-nan"])
def test_bad_flag_value_is_named(capsys, args, flag, value):
    # exit 2 with a parse document that names the flag and its value
    assert main(args) == 2
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    assert doc["kind"] == "parse"
    assert doc["error"].startswith(flag) and f"got {value}" in doc["error"]


def test_closed_pipe_prints_no_traceback():
    import os
    import subprocess
    import sys

    import exact_uncertainty

    # the report outgrows a pipe's buffer, so the reader closes the pipe
    # while the report is still being written
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(exact_uncertainty.__file__)))
    child = subprocess.Popen([sys.executable, "-m", "exact_uncertainty.cli", "verify", "--suite",
                              "gaussian-random", "--n", "100"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0  # the report's own exit code
    assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr
