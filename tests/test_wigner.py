import argparse
import csv
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from exact_uncertainty import cli
from exact_uncertainty.decomposition import classical_estimate
from exact_uncertainty.densities import masked_ratio
from exact_uncertainty.grids import GridSpec, fourier_interpolate
from exact_uncertainty.random_states import random_smooth_grid_state
from exact_uncertainty.states import (
    Constants,
    GridMixedState,
    GridPureState,
    MixedState,
    ensemble_sum,
    gaussian_state,
    to_momentum,
)
from exact_uncertainty import wigner
from exact_uncertainty.wigner import (
    position_classical_in_momentum,
    wigner_average_momentum,
    wigner_transform,
)


def gaussian_wigner_oracle(x, p, sigma, hbar=1.0):
    # closed form for psi ~ exp(-x^2 / 4 sigma^2)
    return np.exp(-x ** 2 / (2 * sigma ** 2) - 2 * sigma ** 2 * p ** 2 / hbar ** 2) \
        / (np.pi * hbar)


class TestTransform:
    def test_gaussian_closed_form(self, grid):
        sigma = 1.1
        w = wigner_transform(gaussian_state(grid, sigma))
        x, p = np.meshgrid(w.x_grid.points(), w.p_grid.points(), indexing="ij")
        assert np.max(np.abs(w.values - gaussian_wigner_oracle(x, p, sigma))) < 1e-12
        assert w.total == pytest.approx(1.0, abs=1e-8)
        assert w.imaginary_residue < 1e-12

    def test_cat_state_interference_fringe(self):
        # closed-form oracle: two displaced Gaussians plus an oscillating
        # interference term centred between them.  The coherence block
        # rho(x, -x) extends twice as far in the slice direction as the
        # density does, so the box must be bigger than for a single lump.
        grid = GridSpec(1024, -24.0, 24.0)
        a, sigma = 4.0, 1.0
        raw = gaussian_state(grid, sigma, center=-a).amplitudes \
            + gaussian_state(grid, sigma, center=a).amplitudes
        cat = GridPureState(grid, raw)
        w = wigner_transform(cat)
        x, p = np.meshgrid(w.x_grid.points(), w.p_grid.points(), indexing="ij")
        overlap = np.exp(-a ** 2 / (2 * sigma ** 2))
        oracle = (gaussian_wigner_oracle(x - a, p, sigma)
                  + gaussian_wigner_oracle(x + a, p, sigma)
                  + 2 * gaussian_wigner_oracle(x, p, sigma) * np.cos(2 * a * p)) \
            / (2 * (1 + overlap))
        assert np.max(np.abs(w.values - oracle)) < 1e-12
        assert w.values.min() < -0.05

    def test_boost_shifts_momentum(self, grid):
        k = 1.4
        sigma = 1.0
        w = wigner_transform(gaussian_state(grid, sigma, momentum=k))
        x, p = np.meshgrid(w.x_grid.points(), w.p_grid.points(), indexing="ij")
        assert np.max(np.abs(w.values - gaussian_wigner_oracle(x, p - k, sigma))) < 1e-12

    def test_marginals(self, rng, grid):
        st = random_smooth_grid_state(rng, grid)
        w = wigner_transform(st)
        assert np.max(np.abs(w.position_marginal() - st.position_density())) < 1e-8
        mom = to_momentum(st)
        assert np.max(np.abs(w.momentum_marginal() - np.abs(mom.amplitudes) ** 2)) < 1e-8

    def test_mixed_state_linearity(self):
        grid = GridSpec(256, -12.0, 12.0)
        a = gaussian_state(grid, 1.0, center=-2.0, momentum=0.5)
        b = gaussian_state(grid, 0.8, center=2.0)
        mix = GridMixedState.from_ensemble([(0.3, a), (0.7, b)])
        w_mix = wigner_transform(mix)
        w_sum = 0.3 * wigner_transform(a).values + 0.7 * wigner_transform(b).values
        assert np.max(np.abs(w_mix.values - w_sum)) < 1e-10


def full_slice_reference(state):
    """W and its largest imaginary part from all n slice offsets
    xi_k = (k - n/2) dx: index matrices into the interpolated members, one
    complex FFT over xi, the e^{i pi j} offset signs and an fftshift over p."""
    grid, hbar, n = state.grid, state.constants.hbar, state.grid.n_points
    i = np.arange(n)[:, None]
    offset = np.arange(n)[None, :] - n // 2
    a, b = np.mod(2 * i + offset, 2 * n), np.mod(2 * i - offset, 2 * n)
    ensemble = (zip(state.weights, state.members) if isinstance(state, MixedState)
                else [(1.0, state)])
    slices = 0.0
    for weight, member in ensemble:
        fine = fourier_interpolate(member.amplitudes, 2)
        slices = slices + weight * fine[a] * np.conj(fine[b])
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    w = np.fft.fft(slices, axis=1) * signs * (grid.dx / (2.0 * np.pi * hbar))
    return np.fft.fftshift(w.real, axes=1), float(np.max(np.abs(w.imag)))


class TestHalfSlices:
    grid = GridSpec(256, -12.0, 12.0)

    def states(self):
        rng = np.random.default_rng(256)
        pure = random_smooth_grid_state(rng, self.grid)
        raw = gaussian_state(self.grid, 1.0, center=-3.0).amplitudes \
            + gaussian_state(self.grid, 1.0, center=3.0).amplitudes
        cat = GridPureState(self.grid, raw)
        rank2 = GridMixedState.from_ensemble(
            [(0.35, random_smooth_grid_state(rng, self.grid)), (0.65, pure)])
        scaled = random_smooth_grid_state(rng, self.grid, Constants(hbar=0.7))
        return {"pure": pure, "cat": cat, "rank-2": rank2, "hbar-0.7": scaled}

    @pytest.mark.parametrize("name", ["pure", "cat", "rank-2", "hbar-0.7"])
    def test_matches_full_slice_formula(self, name):
        state = self.states()[name]
        w = wigner_transform(state)
        values, residue = full_slice_reference(state)
        assert w.values.shape == values.shape
        assert np.max(np.abs(w.values - values)) <= 1e-14 * np.max(np.abs(values))
        assert abs(w.imaginary_residue - residue) <= 1e-15

    def test_rank2_peak_memory(self):
        grid = GridSpec(1024, -20.0, 20.0)
        rng = np.random.default_rng(1024)
        mix = GridMixedState.from_ensemble([(0.4, random_smooth_grid_state(rng, grid)),
                                            (0.6, random_smooth_grid_state(rng, grid))])
        tracemalloc.start()
        try:
            w = wigner_transform(mix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * w.values.nbytes


def whole_array_reference(state):
    """W and its imaginary residue from the whole n x (n/2 + 1) array of
    xi >= 0 slices, summed over the members by ``ensemble_sum`` and turned
    into W by one ``irfft`` of every row at once."""
    n, half = state.grid.n_points, state.grid.n_points // 2

    def windows(fine):
        return sliding_window_view(np.concatenate([fine[-half:], fine, fine[:half]]), half + 1)

    def member_slices(member):
        fine = fourier_interpolate(member.amplitudes, 2)
        ahead = np.conj(fine)
        ahead[1::2] *= -1.0
        return np.multiply(windows(ahead)[half:half + 2 * n:2], windows(fine)[0:2 * n:2, ::-1])

    slices = ensemble_sum(state, member_slices)
    scale = state.grid.dx / (2.0 * np.pi * state.constants.hbar)
    residue = scale * float(np.max(np.abs(slices[:, half].imag)))
    values = np.fft.irfft(slices, n, axis=1, norm="forward")
    values *= scale
    return values, residue


class TestRowBlocks:
    @staticmethod
    def state(n, kind):
        grid = GridSpec(n, -20.0, 20.0)
        rng = np.random.default_rng(n)
        pure = random_smooth_grid_state(rng, grid)
        if kind == "pure":
            return pure
        return GridMixedState.from_ensemble([(0.45, random_smooth_grid_state(rng, grid)),
                                             (0.55, pure)])

    # the default budget cuts n = 1000 into blocks of 65 rows and a last one
    # of 25, and the row cap cuts n = 200 into 96, 96 and 8 rows, as it does
    # under the largest budget; 7-row blocks leave a short last block at
    # both sizes
    @pytest.mark.parametrize("kind", ["pure", "rank-2"])
    @pytest.mark.parametrize("n", [200, 1000])
    def test_equals_whole_array_build(self, n, kind, monkeypatch):
        state = self.state(n, kind)
        values, residue = whole_array_reference(state)
        for budget in (wigner.SLICE_BLOCK_BYTES, 16 * (n // 2 + 1) * 7, 1 << 40):
            monkeypatch.setattr(wigner, "SLICE_BLOCK_BYTES", budget)
            w = wigner_transform(state)
            assert np.array_equal(w.values, values)
            assert w.imaginary_residue == residue

    @pytest.mark.parametrize("kind", ["pure", "rank-2"])
    def test_peak_memory_is_w_and_one_block(self, kind):
        # W (8 MiB at n = 1024) is the only full-size array; the slices of
        # one row block and the members' windows add well under a quarter
        state = self.state(1024, kind)
        tracemalloc.start()
        try:
            w = wigner_transform(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * w.values.nbytes


def whole_w_report(state, csv_path=None):
    """The `wigner` report from the whole W of ``wigner_transform``; W's CSV
    is written row by row to ``csv_path`` when one is given."""
    w = wigner_transform(state)
    marginal = np.sum(w.values, axis=1) * w.p_grid.dx
    first = np.einsum("ij,j->i", w.values, w.p_grid.points()) * w.p_grid.dx
    pav, mask, _ = masked_ratio(first, marginal, w.x_grid.dx, "position marginal")
    weighted = np.abs(pav - classical_estimate(state, "position", "P").values) * marginal
    if csv_path is not None:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x\\p"] + [f"{p:.12g}" for p in w.p_grid.points()])
            for xi, row in zip(w.x_grid.points(), w.values):
                writer.writerow([f"{xi:.12g}"] + [f"{v:.12g}" for v in row])
    return {
        "total": float(np.sum(marginal) * w.x_grid.dx),
        "imaginary_residue": w.imaginary_residue,
        "min_value": float(w.values.min()),
        "average_momentum_max_weighted_deviation": float(weighted[mask].max()),
        "box_warning": w.box_warning,
    }


def wigner_report(state, monkeypatch, csv_path=None):
    """``cli.cmd_wigner``'s report, handed ``state`` in place of a state file."""
    monkeypatch.setattr(cli, "_load_state", lambda path, constants: state)
    _, doc = cli.cmd_wigner(cli.RunConfig(), argparse.Namespace(state=None, csv=csv_path))
    return doc


class TestStreamedReport:
    @staticmethod
    def state(n, kind):
        constants = Constants(hbar=0.7 if kind == "hbar-0.7" else 1.0)
        grid = GridSpec(n, -20.0, 20.0)
        rng = np.random.default_rng(n + 1)
        pure = random_smooth_grid_state(rng, grid, constants)
        if kind != "rank-2":
            return pure
        return GridMixedState.from_ensemble([(0.4, random_smooth_grid_state(rng, grid)),
                                             (0.6, pure)])

    # n = 1024 in the default 63-row blocks and a last one of 16; n = 200 in
    # 7-row blocks and a last one of 4.  The blocks depend on n alone, so the
    # 1024-point CSV (about a second to format) is compared for one state
    @pytest.mark.parametrize("kind", ["pure", "rank-2", "hbar-0.7"])
    @pytest.mark.parametrize("n", [200, 1024])
    def test_equals_whole_w_report(self, n, kind, monkeypatch, tmp_path):
        if n == 200:
            monkeypatch.setattr(wigner, "SLICE_BLOCK_BYTES", 16 * (n // 2 + 1) * 7)
        state = self.state(n, kind)
        whole, streamed = tmp_path / "whole.csv", tmp_path / "streamed.csv"
        exported = n == 200 or kind == "pure"
        expected = whole_w_report(state, whole if exported else None)
        assert wigner_report(state, monkeypatch) == expected
        if exported:
            assert wigner_report(state, monkeypatch, str(streamed)) == dict(expected,
                                                                           csv=str(streamed))
            assert streamed.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("kind", ["pure", "rank-2"])
    def test_peak_memory_is_under_half_of_w(self, kind, monkeypatch):
        # the report holds one block of W's rows (and its slices), never W
        n = 1024
        state = self.state(n, kind)
        tracemalloc.start()
        try:
            wigner_report(state, monkeypatch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * n * n * 8


class TestAverageMomentum:
    def test_real_gaussian_zero(self, grid):
        w = wigner_transform(gaussian_state(grid, 1.0))
        x, pav, mask = wigner_average_momentum(w)
        weighted = np.abs(pav) * w.position_marginal()
        assert weighted[mask].max() < 1e-10

    def test_boosted_gaussian_constant(self, grid):
        k = 1.7
        w = wigner_transform(gaussian_state(grid, 1.0, momentum=k))
        _, pav, mask = wigner_average_momentum(w)
        core = w.position_marginal() > 1e-6 * w.position_marginal().max()
        assert np.max(np.abs(pav[core] - k)) < 1e-8

    def test_matches_classical_estimate_on_superposition(self, grid):
        raw = gaussian_state(grid, 1.0, center=-3.0, momentum=1.0).amplitudes \
            + gaussian_state(grid, 0.9, center=3.0, momentum=-0.6).amplitudes
        st = GridPureState(grid, raw)
        w = wigner_transform(st)
        _, pav, mask = wigner_average_momentum(w)
        comp = classical_estimate(st, "position", "P")
        marginal = w.position_marginal()
        weighted = np.abs(pav - comp.values) * marginal
        assert weighted[mask & comp.mask].max() < 1e-6

    def test_identity_over_random_suite(self, rng, grid):
        # the weighted deviation bound 1e-6 * hbar / L, over 20 random
        # states, pure and mixed
        bound = 1e-6 / grid.length
        for index in range(20):
            st = random_smooth_grid_state(rng, grid)
            if index % 4 == 0:
                st = GridMixedState.from_ensemble(
                    [(0.5, st), (0.5, random_smooth_grid_state(rng, grid))])
            w = wigner_transform(st)
            _, pav, mask = wigner_average_momentum(w)
            comp = classical_estimate(st, "position", "P")
            weighted = np.abs(pav - comp.values) * w.position_marginal()
            assert weighted[mask & comp.mask].max() < bound


class TestPositionClassical:
    def test_gaussian_zero(self, grid):
        p, xcl, mask = position_classical_in_momentum(gaussian_state(grid, 1.0))
        weighted = np.abs(xcl)
        core = mask  # symmetric: all retained points should vanish
        w = wigner_transform(gaussian_state(grid, 1.0)).momentum_marginal()
        assert np.max(np.abs(xcl[w > 1e-6 * w.max()])) < 1e-8

    def test_displaced_gaussian_constant(self, grid):
        a = 3.0
        st = gaussian_state(grid, 1.0, center=a)
        p, xcl, mask = position_classical_in_momentum(st)
        w = wigner_transform(st).momentum_marginal()
        core = w > 1e-6 * w.max()
        assert np.max(np.abs(xcl[core] - a)) < 1e-7

    def test_chirped_gaussian_linear(self, grid):
        # Gaussian moment oracle: for psi ~ exp(-x^2/4s^2 + i beta x^2),
        # X_cl(p) = Cov(X,P)/Var(P) * p with Cov(X,P) = 2 beta s^2 and
        # Var P = 1/4s^2 + 4 beta^2 s^4 / s^2 ... computed directly below
        sigma, beta = 1.0, 0.4
        st = gaussian_state(grid, sigma, chirp=beta)
        var_x = sigma ** 2
        cov_xp = 2 * beta * sigma ** 2  # <xp+px>/2 for this family
        var_p = 1.0 / (4 * sigma ** 2) + 4 * beta ** 2 * sigma ** 2
        slope = cov_xp / var_p
        p, xcl, mask = position_classical_in_momentum(st)
        w = wigner_transform(st).momentum_marginal()
        core = w > 1e-6 * w.max()
        assert np.max(np.abs(xcl[core] - slope * p[core])) < 1e-6

    def test_agrees_with_momentum_basis_estimate(self, rng, grid):
        st = random_smooth_grid_state(rng, grid)
        p, xcl, mask = position_classical_in_momentum(st)
        comp = classical_estimate(st, "momentum", "X")
        w = wigner_transform(st).momentum_marginal()
        weighted = np.abs(xcl - comp.values) * w
        assert weighted[mask & comp.mask].max() < 1e-6
