import numpy as np
import pytest

from exact_uncertainty.errors import GridResolution, VanishingDensity
from exact_uncertainty.grids import GridSpec
from exact_uncertainty.states import Grid2DPureState
from exact_uncertainty.twoparticle import (
    POINTS_PER_SIGMA,
    EprParams,
    build_epr,
    collapse_momentum,
    collapse_position,
    correlation_relation,
    epr_grids,
    epr_moments,
    momentum_collapse_prediction,
    nonclassical_components_2d,
    pearson_from_cov,
)

# scaled-down regime for module tests: same physics, light grids
SMALL = EprParams(a=1.0, sigma=0.2, tau=5.0, p0=2.0)


@pytest.fixture(scope="module")
def small_epr():
    gx, gy = epr_grids(SMALL)
    return build_epr(SMALL, gx, gy)


@pytest.fixture(scope="module")
def small_epr_reference(small_epr):
    return unblocked_reference(small_epr)


def product_state(n=192, span=10.0, k1=0.0, chirp1=0.0):
    g = GridSpec(n, -span, span)
    x = g.points()
    f1 = np.exp(-x ** 2 / 4.0 + 1j * (k1 * x + chirp1 * x ** 2))
    f2 = np.exp(-x ** 2 / (4 * 1.3 ** 2))
    return Grid2DPureState(g, g, np.outer(f1, f2))


WINDOW_CASES = ["edge_to_edge", "cut", "cut_mirrored", "banded"]


def window_state(case):
    """A 96^2 state of the column-window tests (the banded case is
    ``small_epr``).

    edge_to_edge: the core reaches the lattice's first and last columns, so
    every window is the full width and the edge columns bound it; cut: the
    core spans columns 20-79 with no retained point beside it, so halo
    columns bound every window, and the residual peaks at column 78, whose
    stencil reads column 79 (at column 17 next to column 16 when mirrored).
    """
    g = GridSpec(96, -5.0, 5.0) if case == "edge_to_edge" else GridSpec(96, -8.0, 8.0)
    x1, x2 = g.points()[:, None], g.points()[None, :]
    chirp = 1j * (0.3 * x1 * x2 + 0.2 * x2 ** 2)
    if case == "edge_to_edge":
        psi = np.exp(-x1 ** 2 / 16.0 - x2 ** 2 / 25.0 + chirp)
    else:
        psi = np.exp(-x1 ** 2 / 4.0 - x2 ** 2 / 64.0 + chirp)
        psi[:, :20] = psi[:, 80:] = 0.0
        if case == "cut_mirrored":
            psi = psi[:, ::-1]
    return Grid2DPureState(g, g, psi)


class TestBuild:
    def test_displayed_moments(self, small_epr):
        m = epr_moments(small_epr)
        assert m["mean_relative_position"] == pytest.approx(SMALL.a, abs=1e-6)
        assert m["mean_total_momentum"] == pytest.approx(SMALL.p0, abs=1e-6)
        assert m["var_relative_position"] == pytest.approx(SMALL.sigma ** 2, rel=1e-4)
        assert m["var_total_momentum"] == pytest.approx(1.0 / SMALL.tau ** 2, rel=1e-4)

    def test_classical_momentum_constant(self, small_epr):
        parts = nonclassical_components_2d(small_epr)
        core = small_epr.position_density() > 1e-6 * small_epr.position_density().max()
        assert np.max(np.abs(parts.classical_field_1[core] - SMALL.p0 / 2)) < 1e-6
        assert np.max(np.abs(parts.classical_field_2[core] - SMALL.p0 / 2)) < 1e-6

    def test_factorized_case_has_no_correlations(self):
        with pytest.warns(UserWarning):
            params = EprParams(a=0.0, sigma=1.0, tau=1.0, p0=0.0)
        g = GridSpec(128, -8.0, 8.0)
        st = build_epr(params, g, g)
        rel = correlation_relation(st)
        assert abs(rel.r_pearson_position) < 1e-8
        assert abs(rel.r_pearson) < 1e-8

    def test_blocked_build_matches_closed_form(self):
        import tracemalloc

        from exact_uncertainty.grids import row_blocks

        gx, gy = epr_grids(SMALL)
        tracemalloc.start()
        try:
            state = build_epr(SMALL, gx, gy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the state plus row-block temporaries, not whole-array ones
        assert peak < 2 * state.amplitudes.nbytes
        assert len(list(row_blocks(gx.n_points, gy.n_points))) > 2
        x1, x2 = gx.points()[:, None], gy.points()[None, :]
        rel, com = x1 - x2 - SMALL.a, x1 + x2
        ref = np.exp(-rel ** 2 / (4.0 * SMALL.sigma ** 2) - com ** 2 / (4.0 * SMALL.tau ** 2)
                     + 0.5j * SMALL.p0 * com)
        ref /= np.sqrt(np.sum(np.abs(ref) ** 2) * gx.dx * gy.dx)
        assert np.max(np.abs(state.amplitudes - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert state.norm_squared == pytest.approx(1.0, abs=1e-14)

    def test_grid_resolution_guards(self):
        tight = GridSpec(64, -4.0, 4.0)
        with pytest.raises(GridResolution):
            build_epr(SMALL, tight, tight)

    def test_resolution_is_points_per_sigma(self):
        for g in epr_grids(SMALL):  # dx = (x_max - x_min) / n, to rounding
            assert g.dx == pytest.approx(SMALL.sigma / POINTS_PER_SIGMA, rel=1e-12)
        # spans 25.6 per axis (the span check needs 20), dx just above sigma / 8
        n = 1024
        half = 0.5 * n * SMALL.sigma / POINTS_PER_SIGMA * (1.0 + 1e-6)
        coarse = GridSpec(n, -half, half)
        with pytest.raises(GridResolution, match="does not resolve sigma"):
            build_epr(SMALL, coarse, coarse)


def _band_case(case):
    """(params, grid_x, grid_y, BLOCK_BYTES or None) of a banded-build case."""
    if case == "small":
        return (SMALL, *epr_grids(SMALL), None)
    if case == "unequal":
        # different x_min, n and dx per axis, each resolving sigma = 0.2
        params = EprParams(a=1.0, sigma=0.2, tau=2.0, p0=2.0)
        return params, GridSpec(400, -5.0, 4.6), GridSpec(512, -6.5, 5.5), 64 << 10
    if case == "negative-a":
        params = EprParams(a=-2.0, sigma=0.2, tau=2.0, p0=2.0)
        return (params, *epr_grids(params), 64 << 10)
    if case == "whole-band":
        # 2 sigma sqrt(760) = 27.6 exceeds every |x1 - x2 - a| on the lattice
        params = EprParams(a=0.5, sigma=0.5, tau=1.5, p0=2.0)
        g = GridSpec(128, -4.0, 4.0)
        return params, g, g, 64 << 10
    # x1 reaches 20 but x2 only 3, so rows with |x1| > 14.1 have no band
    params = EprParams(a=0.0, sigma=0.2, tau=5.0, p0=2.0)
    return params, GridSpec(1600, -20.0, 20.0), GridSpec(240, -3.0, 3.0), 64 << 10


class TestBandedBuild:
    """build_epr samples each row block only on its band of columns around
    x1 - x2 = a, where exp does not underflow; psi equals the full-grid formula."""

    @pytest.mark.parametrize("case", ["small", "unequal", "negative-a", "whole-band",
                                      "empty-blocks"])
    def test_matches_full_grid_formula(self, case, monkeypatch):
        from exact_uncertainty import grids

        params, gx, gy, block_bytes = _band_case(case)
        if block_bytes is not None:
            monkeypatch.setattr(grids, "BLOCK_BYTES", block_bytes)
        blocks = list(grids.row_blocks(gx.n_points, gy.n_points))
        assert len(blocks) > 2
        state = build_epr(params, gx, gy)
        assert np.array_equal(state.amplitudes, full_grid_epr(params, gx, gy))

        reach = 2.0 * params.sigma * np.sqrt(760.0)
        x1, x2 = gx.points(), gy.points()
        if case == "whole-band":
            assert np.all(state.amplitudes != 0)
        if case == "empty-blocks":
            for rows in (blocks[0], blocks[-1]):
                assert np.all(np.abs(x1[rows, None] - x2 - params.a) > reach)
                assert not np.any(state.amplitudes[rows])

    def test_empty_band_everywhere_is_zero_norm(self):
        from exact_uncertainty.errors import ZeroNorm

        # |x1 - x2 - a| >= 42 on the lattice: every band is empty
        params = EprParams(a=50.0, sigma=0.5, tau=1.5, p0=2.0)
        g = GridSpec(128, -4.0, 4.0)
        with pytest.raises(ZeroNorm):
            build_epr(params, g, g)


class TestDecomposition2D:
    def test_product_state_block_diagonal(self):
        st = product_state(chirp1=0.3)
        parts = nonclassical_components_2d(st)
        assert abs(parts.cov_nonclassical[0, 1]) < 1e-8
        assert parts.additivity_residual < 1e-6
        assert abs(parts.mean_nonclassical).max() < 1e-8

    def test_epr_nonclassical_covariance_is_full_covariance(self, small_epr):
        parts = nonclassical_components_2d(small_epr)
        assert np.max(np.abs(parts.cov_nonclassical - parts.cov_momentum)) \
            < 1e-4 * np.max(np.abs(parts.cov_momentum))

    def test_superposition_couples_particles(self):
        # psi = product(+2) + product(-2): the phase gradient in x1 varies
        # with x2 far more than for either factorized branch
        g = GridSpec(256, -12.0, 12.0)
        x = g.points()
        f_a = np.outer(np.exp(-(x - 2) ** 2 / 4 + 0.8j * x),
                       np.exp(-(x - 2) ** 2 / 4))
        f_b = np.outer(np.exp(-(x + 2) ** 2 / 4 - 0.8j * x),
                       np.exp(-(x + 2) ** 2 / 4))
        st = Grid2DPureState(g, g, f_a + f_b)

        def variation_over_x2(state):
            parts = nonclassical_components_2d(state)
            dens = state.position_density()
            core = dens > 1e-3 * dens.max()
            rows = [np.std(parts.classical_field_1[i, core[i]])
                    for i in range(core.shape[0]) if core[i].sum() > 1]
            return max(rows)

        assert variation_over_x2(st) > 10 * max(variation_over_x2(product_state()), 1e-12)

    def test_mixed_partials_vanish(self, small_epr):
        parts = nonclassical_components_2d(small_epr)
        assert parts.mixed_partials_residual < 1e-6

    def test_transposed_state_permutes_the_covariances(self):
        # a unit-norm array is kept as given, here a strided view
        st = window_state("edge_to_edge")
        swapped = Grid2DPureState(st.grid_y, st.grid_x, st.amplitudes.T)
        assert swapped.amplitudes.flags.c_contiguous
        parts, swapped_parts = nonclassical_components_2d(st), nonclassical_components_2d(swapped)
        for name in ("cov_position", "cov_momentum", "cov_classical", "cov_nonclassical"):
            matrix = getattr(parts, name)
            np.testing.assert_allclose(getattr(swapped_parts, name), matrix[::-1, ::-1],
                                       rtol=0.0, atol=1e-12 * np.max(np.abs(matrix)), err_msg=name)
        info = parts.information_position
        np.testing.assert_allclose(swapped_parts.information_position, info[::-1],
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(info)))
        assert np.array_equal(swapped_parts.retained, parts.retained.T)


class TestCorrelationRelation:
    def test_epr_highly_correlated(self, small_epr):
        rel = correlation_relation(small_epr)
        assert rel.r_pearson_position > 0.97
        assert rel.r_pearson_momentum < -0.97
        assert abs(rel.r_pearson_position + rel.r_pearson_momentum) < 1e-3
        assert rel.residual < 1e-3

    def test_random_gaussians_cancel_exactly(self, rng):
        from exact_uncertainty.random_states import random_gaussian_2d

        for _ in range(5):
            st = random_gaussian_2d(rng)
            rel = correlation_relation(st)
            assert rel.residual < 1e-6
            # Fisher correlation equals the Pearson one for Gaussians
            parts = nonclassical_components_2d(st)
            assert pearson_from_cov(parts.cov_fisher) == pytest.approx(
                pearson_from_cov(parts.cov_position), abs=1e-6)


class TestGaussianClosedForms:
    """``random_gaussian_2d``'s family psi = exp(-x^T Sigma^-1 x / 4 + i x^T C x / (2 hbar))
    has p = N(0, Sigma), FCov(X) = Sigma, P_cl = C x, Cov(P_cl) = C Sigma C and
    Cov(P_nc) = (hbar/2)^2 Sigma^-1.  Each bound is BOUND_FACTOR times the
    worst error measured over these cases: max |got - want| / max |want|."""

    BOUND_FACTOR = 30
    MEASURED = {"cov_position": 1.3e-15, "cov_fisher": 2.9e-11, "cov_nonclassical": 9.9e-12,
                "cov_classical": 2.9e-11, "cov_momentum": 6.9e-16, "classical_values": 9.8e-9}

    @staticmethod
    def relative_error(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    @pytest.mark.parametrize("seed", range(12))
    def test_decomposition_is_the_closed_form(self, seed, hbar):
        from conftest import gaussian_2d_parameters
        from exact_uncertainty.random_states import random_gaussian_2d
        from exact_uncertainty.states import Constants

        st = random_gaussian_2d(np.random.default_rng(seed), constants=Constants(hbar=hbar))
        cov, c = gaussian_2d_parameters(np.random.default_rng(seed))
        parts = nonclassical_components_2d(st)
        nonclassical = (hbar / 2.0) ** 2 * np.linalg.inv(cov)
        x = st.grid_x.points()
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        x1, x2 = x1[parts.retained], x2[parts.retained]
        errors = {
            "cov_position": self.relative_error(parts.cov_position, cov),
            "cov_fisher": self.relative_error(parts.cov_fisher, cov),
            "cov_nonclassical": self.relative_error(parts.cov_nonclassical, nonclassical),
            "cov_classical": self.relative_error(parts.cov_classical, c @ cov @ c),
            "cov_momentum": self.relative_error(parts.cov_momentum, nonclassical + c @ cov @ c),
            "classical_values": max(
                self.relative_error(parts.classical_values_1, c[0, 0] * x1 + c[0, 1] * x2),
                self.relative_error(parts.classical_values_2, c[1, 0] * x1 + c[1, 1] * x2)),
        }
        for name, error in errors.items():
            assert error <= self.BOUND_FACTOR * self.MEASURED[name], name


class TestCollapse:
    def test_position_collapse_keeps_classical_momentum(self, small_epr):
        collapsed, comp = collapse_position(small_epr, 0.0)
        assert collapsed.norm_squared == pytest.approx(1.0, abs=1e-12)
        assert comp.mean == pytest.approx(SMALL.p0 / 2, abs=1e-6)
        # the collapsed packet mean: the center-of-mass envelope pulls the
        # relative-coordinate peak in by tau^2 / (sigma^2 + tau^2)
        dens = collapsed.position_density()
        x = collapsed.grid.points()
        expected = SMALL.a * SMALL.tau ** 2 / (SMALL.sigma ** 2 + SMALL.tau ** 2)
        assert np.sum(x * dens) * collapsed.grid.dx == pytest.approx(expected, abs=1e-6)

    def test_position_collapse_product_state_unchanged(self):
        st = product_state()
        collapsed, comp = collapse_position(st, 0.5)
        f1 = st.amplitudes[:, st.grid_y.n_points // 2]
        overlap = abs(np.vdot(collapsed.amplitudes, f1)) ** 2 \
            / (np.sum(np.abs(f1) ** 2) * np.sum(np.abs(collapsed.amplitudes) ** 2))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_far_tail_raises(self, small_epr):
        with pytest.raises(VanishingDensity):
            collapse_position(small_epr, small_epr.grid_y.x_max - 0.1)

    def test_momentum_collapse_matches_formula(self, small_epr):
        for p in (0.5, 1.2, -0.4):
            _, comp = collapse_momentum(small_epr, p)
            predicted = momentum_collapse_prediction(SMALL, p)
            assert comp.mean == pytest.approx(predicted, abs=1e-5)

    def test_momentum_collapse_fixed_point(self, small_epr):
        _, comp = collapse_momentum(small_epr, SMALL.p0 / 2)
        assert comp.mean == pytest.approx(SMALL.p0 / 2, abs=1e-6)

    def test_momentum_collapse_product_state_unchanged(self):
        st = product_state(k1=0.9)
        _, comp = collapse_momentum(st, 0.3)
        assert comp.mean == pytest.approx(0.9, abs=1e-8)

    def test_momentum_far_tail_raises(self, small_epr):
        with pytest.raises(VanishingDensity):
            collapse_momentum(small_epr, 60.0)


class TestPeakFromDecomposition:
    """max |psi|^2 is read once, by the decomposition, and handed to
    collapse_position and box_warning."""

    def test_square_root_of_squares_is_exact(self, rng):
        a = rng.uniform(0.5, 1.0, 100_000) * 2.0 ** rng.integers(-500, 500, 100_000)
        assert np.array_equal(np.sqrt(np.abs(a) ** 2), a)

    def test_collapse_position_with_peak_matches_pass(self, small_epr):
        parts = nonclassical_components_2d(small_epr)
        assert parts.peak_density == small_epr.peak_amplitude() ** 2
        for x in (0.0, 1.3, -4.2):
            state_a, comp_a = collapse_position(small_epr, x)
            state_b, comp_b = collapse_position(small_epr, x, parts.peak_density)
            assert np.array_equal(state_a.amplitudes, state_b.amplitudes)
            assert np.array_equal(comp_a.values, comp_b.values)
        far = small_epr.grid_y.x_max - 0.1
        with pytest.raises(VanishingDensity):
            collapse_position(small_epr, far, parts.peak_density)

    def test_box_warning_with_peak_matches_pass(self, small_epr):
        cut = product_state(n=64, span=2.0)   # |psi| at the edges is e^-1 of its peak
        wide = product_state(n=256, span=14.0)
        assert cut.box_warning() and not wide.box_warning()
        for st in (small_epr, cut, wide):
            peak_density = nonclassical_components_2d(st).peak_density
            assert np.sqrt(peak_density) == st.peak_amplitude()
            assert st.box_warning(peak_density) == st.box_warning()


class TestLocality:
    def test_product_state_invariant_under_partner_unitaries(self):
        st = product_state(k1=0.7, chirp1=0.2)
        parts = nonclassical_components_2d(st)
        core = st.position_density() > 1e-6 * st.position_density().max()

        # displacement of particle 2 by whole cells, and a momentum boost
        rolled = Grid2DPureState(st.grid_x, st.grid_y, np.roll(st.amplitudes, 7, axis=1))
        boosted = Grid2DPureState(
            st.grid_x, st.grid_y,
            st.amplitudes * np.exp(1.3j * st.grid_y.points())[None, :])
        for altered in (rolled, boosted):
            parts2 = nonclassical_components_2d(altered)
            joint = core & (altered.position_density()
                            > 1e-6 * altered.position_density().max())
            assert np.max(np.abs(parts2.classical_field_1
                                 - parts.classical_field_1)[joint]) < 1e-10

    def test_epr_momentum_measurement_shifts_partner(self, small_epr):
        for p in (0.2, 1.5):
            _, comp = collapse_momentum(small_epr, p)
            assert abs(comp.mean - SMALL.p0 / 2) > 0.1

    def test_epr_gaussian_saturation(self, small_epr):
        parts = nonclassical_components_2d(small_epr)
        product = parts.cov_position @ parts.cov_momentum
        assert np.max(np.abs(product - 0.25 * np.eye(2))) < 1e-4 * 0.25


class TestOneDecompositionPerReport:
    """The epr-demo report and the blocked reductions against independent
    computations."""

    def test_epr_demo_matches_separate_calls(self, small_epr, monkeypatch):
        import argparse

        from exact_uncertainty import cli, twoparticle

        calls = []
        original = twoparticle.nonclassical_components_2d

        def counted(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(cli, "nonclassical_components_2d", counted)
        monkeypatch.setattr(twoparticle, "nonclassical_components_2d", counted)
        args = argparse.Namespace(a=SMALL.a, sigma=SMALL.sigma, tau=SMALL.tau, p0=SMALL.p0,
                                  collapse_x=0.0, collapse_p=0.5, epr_grid_n=None)
        _, doc = cli.cmd_epr_demo(cli.RunConfig(), args)
        assert len(calls) == 1
        monkeypatch.undo()

        parts = nonclassical_components_2d(small_epr)
        corr = correlation_relation(small_epr)
        cov = doc["covariances"]
        for key, expected in (("position", parts.cov_position),
                              ("momentum", parts.cov_momentum),
                              ("nonclassical", parts.cov_nonclassical)):
            np.testing.assert_allclose(cov[key], expected, rtol=1e-12, atol=0.0)
        got = doc["correlations"]
        for key, expected in (("pearson_position", corr.r_pearson_position),
                              ("pearson_momentum", corr.r_pearson_momentum),
                              ("pearson_nonclassical", corr.r_pearson),
                              ("fisher_position", corr.r_fisher),
                              ("relation_residual", corr.residual)):
            assert got[key] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_epr_demo_transforms_psi_once_along_axis_0(self, monkeypatch):
        import argparse

        from exact_uncertainty import cli

        n = epr_grids(SMALL)[0].n_points
        widths, fft2_calls = [], []
        fft, fft2 = np.fft.fft, np.fft.fft2

        # an axis-0 transform of all n rows, of the whole psi (one thread)
        # or of one range of its columns per block thread (the pool)
        def counted_fft(a, *args, **kwargs):
            axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
            if np.ndim(a) == 2 and np.shape(a)[0] == n and axis % 2 == 0:
                widths.append((np.shape(a)[1], np.asarray(a).dtype))
            return fft(a, *args, **kwargs)

        def counted_fft2(*args, **kwargs):
            fft2_calls.append(1)
            return fft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted_fft)
        monkeypatch.setattr(np.fft, "fft2", counted_fft2)
        args = argparse.Namespace(a=SMALL.a, sigma=SMALL.sigma, tau=SMALL.tau, p0=SMALL.p0,
                                  collapse_x=0.0, collapse_p=0.5, epr_grid_n=None)
        cli.cmd_epr_demo(cli.RunConfig(), args)
        assert fft2_calls == []
        assert sum(width for width, _ in widths) == n
        assert {dtype for _, dtype in widths} == {np.dtype(complex)}

    def test_blocked_reductions_match_unblocked_formulas(self, small_epr, small_epr_reference):
        from exact_uncertainty.grids import row_blocks

        st = small_epr
        assert len(list(row_blocks(*st.amplitudes.shape))) > 2
        ref = small_epr_reference
        parts = nonclassical_components_2d(st)

        # the fields and the mask are elementwise, so they are bit for bit equal
        assert np.array_equal(parts.retained, ref["mask"])
        assert np.array_equal(parts.classical_field_1, ref["v1"])
        assert np.array_equal(parts.classical_field_2, ref["v2"])
        assert parts.mixed_partials_residual == ref["mixed"]

        # only the summation order of the reductions differs
        for name, got in (("cov_position", parts.cov_position),
                          ("cov_momentum", parts.cov_momentum),
                          ("cov_nonclassical", parts.cov_nonclassical),
                          ("cov_fisher", parts.cov_fisher)):
            np.testing.assert_allclose(got, ref[name], rtol=1e-12, atol=0.0, err_msg=name)
        # Cov(P_cl) and <P_nc> nearly vanish here: they are compared on the
        # scale of Cov(P), as the additivity residual is
        scale = np.max(np.abs(ref["cov_momentum"]))
        np.testing.assert_allclose(parts.cov_classical, ref["cov_classical"],
                                   rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(parts.mean_nonclassical, ref["mean_nonclassical"],
                                   rtol=0.0, atol=1e-12 * np.sqrt(scale))
        assert parts.additivity_residual == pytest.approx(ref["additivity"], abs=1e-12)

        moments = epr_moments(st)
        for key, expected in ref["moments"].items():
            assert moments[key] == pytest.approx(expected, rel=1e-12, abs=0.0), key


class TestStreamedDecomposition:
    """Only psi, the axis-0 spectrum and the mask are full-size; the rest is
    built per block, with halo rows for the mixed-partials stencil."""

    def test_block_size_invariance(self, small_epr, monkeypatch):
        from exact_uncertainty import grids

        ref = nonclassical_components_2d(small_epr)
        monkeypatch.setattr(grids, "BLOCK_BYTES", 64 << 10)
        assert len(list(grids.row_blocks(*small_epr.amplitudes.shape))) > 100
        parts = nonclassical_components_2d(small_epr)

        assert np.array_equal(parts.retained, ref.retained)
        assert np.array_equal(parts.classical_field_1, ref.classical_field_1)
        assert np.array_equal(parts.classical_field_2, ref.classical_field_2)
        assert parts.mixed_partials_residual == ref.mixed_partials_residual
        assert parts.mixed_partials_residual > 0.0
        for name in ("cov_position", "cov_momentum", "cov_nonclassical", "cov_fisher",
                     "mean_position", "mean_momentum", "momentum_marginal"):
            np.testing.assert_allclose(getattr(parts, name), getattr(ref, name),
                                       rtol=1e-12, atol=0.0, err_msg=name)
        # Cov(P_cl) and <P_nc> are rounding noise here, compared on the
        # scale of Cov(P) as the additivity residual is
        scale = np.max(np.abs(ref.cov_momentum))
        np.testing.assert_allclose(parts.cov_classical, ref.cov_classical,
                                   rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(parts.mean_nonclassical, ref.mean_nonclassical,
                                   rtol=0.0, atol=1e-12 * np.sqrt(scale))

    def test_mixed_partials_blocks_match_gradient_formula(self):
        from exact_uncertainty.twoparticle import _mixed_partials_residual

        rng = np.random.default_rng(5)
        n1, n2 = 16, 12
        gx, gy = GridSpec(n1, -2.0, 2.0), GridSpec(n2, -1.0, 2.0)
        st = Grid2DPureState(gx, gy, np.ones((n1, n2), dtype=complex))
        v1, v2 = rng.normal(size=(2, n1, n2))
        # rows and columns next to the lattice edges, outside the interior
        v1[[1, -2]] *= 100.0
        v2[:, [1, -2]] *= 100.0
        p = rng.uniform(0.5, 1.0, size=(n1, n2))
        p[5, 7] = 0.0  # a hole in the core
        core = p > 1e-6 * p.max()
        core[[0, -1], :] = False
        core[:, [0, -1]] = False
        interior = core & np.roll(core, 1, 0) & np.roll(core, -1, 0) \
            & np.roll(core, 1, 1) & np.roll(core, -1, 1)
        diff = np.gradient(v1, gy.dx, axis=1) - np.gradient(v2, gx.dx, axis=0)
        expected = float(np.max(np.abs(diff[interior])))
        floor = 1e-6 * p.max()
        assert _mixed_partials_residual(v1, v2, p, st, floor, (True, True)) == expected

        for step in (1, 2, 5):
            got = 0.0
            for start in range(0, n1, step):
                lo, hi = max(start - 1, 0), min(start + step + 1, n1)
                got = max(got, _mixed_partials_residual(v1[lo:hi], v2[lo:hi], p[lo:hi], st,
                                                        floor, (lo == 0, hi == n1)))
            assert got == expected, step

    def test_separable_sums_match_block_formula(self):
        from exact_uncertainty.twoparticle import _moment_sums, _separable_sums

        rng = np.random.default_rng(11)
        n1, n2 = 300, 1000
        weights = rng.normal(0.5, 1.0, size=(n1, n2))  # signed
        a1, a2 = rng.uniform(1.0, 2.0, size=n1), rng.uniform(-2.0, -1.0, size=n2)
        sums, cols = np.zeros(5), np.zeros(n2)
        blocks = [slice(start, start + 64) for start in range(0, n1, 64)]
        assert len(blocks) >= 3
        for rows in blocks:
            block, block_cols = _separable_sums(weights[rows], a1[rows], a2)
            sums += block
            cols += block_cols
        np.testing.assert_allclose(sums, _moment_sums(weights, a1[:, None], a2),
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(cols, weights.sum(axis=0), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_column_windows_match_unblocked_reference(self, case, request, monkeypatch):
        from exact_uncertainty import grids

        if case == "banded":
            st = request.getfixturevalue("small_epr")
            ref = request.getfixturevalue("small_epr_reference")
        else:
            st = window_state(case)
            ref = unblocked_reference(st)
            monkeypatch.setattr(grids, "BLOCK_BYTES", 16 * 16 * 96)
        blocks = list(grids.row_blocks(*st.amplitudes.shape))
        assert len(blocks) > 2
        parts = nonclassical_components_2d(st)
        p = st.position_density()
        core = p > 1e-6 * p.max()
        if case == "edge_to_edge":
            assert core[:, [0, -1]].all()
        elif case.startswith("cut"):
            cols = np.flatnonzero(parts.retained.any(axis=0))
            assert cols.size == cols[-1] - cols[0] + 1 == 60
            assert core[:, cols[0]].any() and core[:, cols[-1]].any()
            assert 0 < cols[0] and cols[-1] < st.grid_y.n_points - 1
        else:
            # the retained band of a middle block is a narrow window
            middle = parts.retained[blocks[len(blocks) // 2]].any(axis=0)
            assert np.ptp(np.flatnonzero(middle)) < st.grid_y.n_points // 2

        assert np.array_equal(parts.retained, ref["mask"])
        assert np.array_equal(parts.classical_field_1, ref["v1"])
        assert np.array_equal(parts.classical_field_2, ref["v2"])
        assert parts.mixed_partials_residual == ref["mixed"]
        assert parts.mixed_partials_residual > 0.0
        # the cut state's Cov(P_nc) is nearly diagonal (off-diagonal 6e-6 of
        # the diagonal), so it is compared on the scale of its diagonal
        scale = np.max(np.abs(ref["cov_nonclassical"])) if case.startswith("cut") else 0.0
        np.testing.assert_allclose(parts.cov_nonclassical, ref["cov_nonclassical"],
                                   rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than float64 here")
    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_reductions_match_extended_precision(self, case, request, monkeypatch):
        """Cov(P_nc), <P_nc> and the information entries against long-double
        sums of the same float64 fields.  An error is measured in units of
        eps times the sum of the absolute terms, the scale a rounded sum's
        error has however its entries cancel.  BLAS dot products over whole
        blocks, on one or two OpenBLAS threads, had worst errors over these
        four states of 4.3 (Cov(P_nc)), 0.12 (<P_nc>) and 2.3
        (information); the bound is twice those.  One einsum over each whole
        block reached 0.36 on <P_nc>, and over each block's retained points
        5.6 on the information."""
        from exact_uncertainty import grids
        from exact_uncertainty.grids import real_derivative_axis, spectral_derivative_axis

        if case == "banded":
            st = request.getfixturevalue("small_epr")
        else:
            st = window_state(case)
            monkeypatch.setattr(grids, "BLOCK_BYTES", 16 * 16 * 96)
        parts = nonclassical_components_2d(st)
        bound = {"cov_nonclassical": 8.6, "mean_nonclassical": 0.24, "information": 4.6}
        eps, wide = np.finfo(float).eps, np.longdouble
        hbar, psi, w = st.constants.hbar, st.amplitudes, wide(st.measure)

        def exact(terms):
            """The sum of the terms and of their magnitudes, in long double,
            over blocks of rows."""
            pairs = [(np.sum(t), np.sum(np.abs(t))) for t in map(terms, range(0, len(psi), 128))]
            return sum(t for t, _ in pairs), sum(a for _, a in pairs)

        def inner(f, g):
            return exact(lambda i: f[i:i + 128].view(float).astype(wide)
                         * g[i:i + 128].view(float).astype(wide))

        chi = [-1j * hbar * spectral_derivative_axis(psi, st.grid_x, axis=0)
               - parts.classical_field_1 * psi,
               -1j * hbar * spectral_derivative_axis(psi, st.grid_y, axis=1)
               - parts.classical_field_2 * psi]
        means = [inner(psi, c) for c in chi]
        errors = {"mean_nonclassical": [abs(got - m * w) / (a * w) for got, (m, a)
                                        in zip(parts.mean_nonclassical, means)],
                  "cov_nonclassical": []}
        for i, j in ((0, 0), (0, 1), (1, 1)):
            second, magnitude = inner(chi[i], chi[j])
            product = means[i][0] * means[j][0] * w * w
            errors["cov_nonclassical"].append(abs(parts.cov_nonclassical[i, j]
                                                  - (second * w - product))
                                              / (magnitude * w + abs(product)))

        p = np.abs(psi) ** 2
        grads = [real_derivative_axis(p, st.grid_x, axis=0),
                 real_derivative_axis(p, st.grid_y, axis=1)]
        total, _ = exact(lambda i: p[i:i + 128].astype(wide))
        errors["information"] = []
        for n, (a, b) in enumerate(((0, 0), (0, 1), (1, 1))):
            def terms(i):
                m = parts.retained[i:i + 128]
                return (grads[a][i:i + 128][m].astype(wide) * grads[b][i:i + 128][m]
                        / p[i:i + 128][m])
            value, magnitude = exact(terms)
            errors["information"].append(abs(parts.information_position[n] - value / total)
                                         / (magnitude / total))
        for name, errs in errors.items():
            assert max(errs) / eps <= bound[name], (name, [float(e / eps) for e in errs])

    def test_peak_memory(self, small_epr):
        import tracemalloc

        from exact_uncertainty.grids import BLOCK_BYTES

        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            nonclassical_components_2d(small_epr)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        # the axis-0 spectrum plus row-block temporaries: 88 MiB at 1536^2,
        # against 160 MiB when p, dp/dx1 and both classical fields were whole
        assert peak <= small_epr.amplitudes.nbytes + 8 * BLOCK_BYTES

    def test_collapse_reuses_decomposition_marginal(self, small_epr):
        from exact_uncertainty.twoparticle import momentum_marginal

        parts = nonclassical_components_2d(small_epr)
        blocked = momentum_marginal(small_epr)
        assert parts.momentum_marginal.max() == pytest.approx(blocked.max(), rel=1e-12, abs=0.0)
        np.testing.assert_allclose(parts.momentum_marginal, blocked,
                                   rtol=0.0, atol=1e-12 * blocked.max())
        # a density over the lattice momenta, dp2 = 2 pi hbar / (n dx2)
        dp = small_epr.grid_y.momentum_spacing(small_epr.constants.hbar)
        assert np.sum(blocked) * dp == pytest.approx(1.0, abs=1e-12)

        for p in (0.5, -0.4):
            state_a, comp_a = collapse_momentum(small_epr, p)
            state_b, comp_b = collapse_momentum(small_epr, p, parts.momentum_marginal)
            assert np.array_equal(state_a.amplitudes, state_b.amplitudes)
            assert np.array_equal(comp_a.values, comp_b.values)
            assert comp_a.mean == comp_b.mean
        with pytest.raises(VanishingDensity):
            collapse_momentum(small_epr, 60.0, parts.momentum_marginal)


class TestBlockPool:
    """Above grids.POOL_BYTES every pass runs on two threads and adds its
    blocks' sums in block order, so nothing moves by a bit."""

    @pytest.mark.parametrize("case", ["epr-1536", "gaussian-384"])
    def test_pooled_decomposition_is_the_serial_one(self, case, request, block_pool,
                                                    monkeypatch):
        from dataclasses import fields

        from exact_uncertainty import grids
        from exact_uncertainty.random_states import random_gaussian_2d

        if case == "epr-1536":
            st = request.getfixturevalue("small_epr")
        else:
            st = random_gaussian_2d(np.random.default_rng(3), n_points=384)
        # a process bound to one CPU stays on one thread at any size
        monkeypatch.setattr(grids.os, "sched_getaffinity", lambda pid: {0})
        serial = nonclassical_components_2d(st)
        assert grids._pool is None
        block_pool()
        pooled = nonclassical_components_2d(st)
        assert grids._pool is not None
        for field in fields(serial):
            assert np.array_equal(getattr(pooled, field.name), getattr(serial, field.name)), \
                field.name

    def test_grid_below_the_rule_starts_no_thread(self, block_pool):
        import threading

        from exact_uncertainty import grids
        from exact_uncertainty.random_states import random_gaussian_2d

        # the 384^2 multidim case, and an EPR state of 416^2 points (2.6 MiB)
        params = EprParams(a=1.0, sigma=0.2, tau=2.0, p0=2.0)
        states = [random_gaussian_2d(np.random.default_rng(3), n_points=384),
                  build_epr(params, *epr_grids(params, n_points=416))]
        threads = threading.active_count()
        for st in states:
            assert st.amplitudes.nbytes <= grids.POOL_BYTES
            nonclassical_components_2d(st)
        assert grids._pool is None
        assert threading.active_count() == threads

    def test_peak_memory_on_the_pool(self, small_epr, block_pool):
        from exact_uncertainty import grids

        block_pool()
        TestStreamedDecomposition().test_peak_memory(small_epr)
        assert grids._pool is not None


class TestBlasThreads:
    """Up to 10,000 points per axis the EPR report and the 2D norm make no
    BLAS reduction that OpenBLAS would split over its threads, so the EPR
    report and the full suite's (its 384^2 multidim states are normalized
    where they are built) do not depend on their number."""

    # the pooled decomposition of small_epr, forced onto two threads
    POOLED = """
import hashlib
from dataclasses import fields

import numpy as np

from exact_uncertainty import grids
from exact_uncertainty.twoparticle import (EprParams, build_epr, epr_grids,
                                           nonclassical_components_2d)

grids.POOL_BYTES = 0
grids.os.sched_getaffinity = lambda pid: {0, 1}
params = EprParams(a=1.0, sigma=0.2, tau=5.0, p0=2.0)
parts = nonclassical_components_2d(build_epr(params, *epr_grids(params)))
digest = hashlib.sha256()
for field in fields(parts):
    digest.update(np.ascontiguousarray(getattr(parts, field.name)).tobytes())
print(digest.hexdigest())
"""

    @staticmethod
    def stdout_digests(args):
        """SHA-256 of a child's stdout under one and two OpenBLAS threads."""
        import hashlib
        import os
        import subprocess
        import sys

        import exact_uncertainty

        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.dirname(os.path.dirname(exact_uncertainty.__file__)))
            run = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
            digests.append(hashlib.sha256(run.stdout).hexdigest())
        return digests

    def test_epr_demo_report(self):
        one, two = self.stdout_digests(["-m", "exact_uncertainty.cli", "epr-demo",
                                        "--sigma", "0.2", "--tau", "5"])
        assert one == two

    def test_pooled_decomposition(self):
        one, two = self.stdout_digests(["-c", self.POOLED])
        assert one == two

    def test_full_suite_report(self):
        one, two = self.stdout_digests(["-m", "exact_uncertainty.cli", "verify",
                                        "--suite", "full", "--n", "2"])
        assert one == two


def full_grid_epr(params, gx, gy):
    """build_epr's exponent evaluated on the whole lattice, normalized by
    division with the norm summed as build_epr sums it: over the same row
    blocks, by ``real_inner``."""
    from exact_uncertainty.grids import real_inner, row_blocks

    x1, x2 = gx.points(), gy.points()
    expo = -((x1[:, None] - x2 - params.a) ** 2 / (4.0 * params.sigma ** 2)) \
        - (x1[:, None] + x2) ** 2 / (4.0 * params.tau ** 2)
    psi = np.multiply(np.exp(0.5j * params.p0 * x1)[:, None], np.exp(0.5j * params.p0 * x2))
    psi *= np.exp(expo)
    norm_sq = sum(real_inner(psi[rows], psi[rows]) for rows in row_blocks(*psi.shape))
    psi /= np.sqrt(norm_sq * (gx.dx * gy.dx))
    return psi


def unblocked_reference(state):
    """Whole-array versions of the decomposition, Fisher covariance and EPR
    moment formulas, with the momentum density built from the phase-corrected,
    scaled spectrum."""
    from exact_uncertainty.grids import spectral_derivative_axis
    from exact_uncertainty.twoparticle import _mixed_partials_residual

    hbar = state.constants.hbar
    psi = state.amplitudes
    w = state.measure
    gx, gy = state.grid_x, state.grid_y
    x1 = gx.points()[:, None]
    x2 = gy.points()[None, :]
    p = state.position_density()
    mask = p > 1e-12 * p.max()

    def weighted_cov(weights, a1, a2):
        m1 = float(np.sum(weights * a1))
        m2 = float(np.sum(weights * a2))
        c11 = float(np.sum(weights * a1 * a1)) - m1 ** 2
        c22 = float(np.sum(weights * a2 * a2)) - m2 ** 2
        c12 = float(np.sum(weights * a1 * a2)) - m1 * m2
        return np.array([[c11, c12], [c12, c22]])

    def overlap(f, g):
        return float(np.real(np.sum(np.conj(f) * g)) * w)

    d1 = spectral_derivative_axis(psi, gx, axis=0)
    d2 = spectral_derivative_axis(psi, gy, axis=1)
    v1 = np.zeros_like(p)
    v2 = np.zeros_like(p)
    v1[mask] = (hbar * np.imag(np.conj(psi) * d1))[mask] / p[mask]
    v2[mask] = (hbar * np.imag(np.conj(psi) * d2))[mask] / p[mask]
    cov_cl = weighted_cov(p * w, v1, v2)
    chi1 = -1j * hbar * d1 - v1 * psi
    chi2 = -1j * hbar * d2 - v2 * psi
    mean_nc = np.array([overlap(psi, chi1), overlap(psi, chi2)])
    cov_nc = np.array([[overlap(chi1, chi1), overlap(chi1, chi2)],
                       [overlap(chi1, chi2), overlap(chi2, chi2)]]) - np.outer(mean_nc, mean_nc)

    kx, ky = gx.wavenumbers(), gy.wavenumbers()
    spec = np.fft.fft2(psi)
    spec *= np.exp(-1j * kx * gx.x_min)[:, None]
    spec *= np.exp(-1j * ky * gy.x_min)[None, :]
    spec *= gx.dx * gy.dx / (2.0 * np.pi * hbar)
    dp = gx.momentum_spacing(hbar) * gy.momentum_spacing(hbar)
    dens = np.abs(spec) ** 2 * dp
    k1, k2 = hbar * kx[:, None], hbar * ky[None, :]
    cov_p = weighted_cov(dens, k1, k2)
    additivity = float(np.max(np.abs(cov_p - cov_cl - cov_nc))) / np.max(np.abs(cov_p))

    q = p / (np.sum(p) * w)
    grads = [np.real(spectral_derivative_axis(q, gx, axis=0)),
             np.real(spectral_derivative_axis(q, gy, axis=1))]
    info = np.array([[np.sum(a[mask] * b[mask] / q[mask]) * w for b in grads] for a in grads])

    tot = k1 + k2
    rel = x1 - x2
    mean_rel = float(np.sum(p * w * rel))
    mean_tot = float(np.sum(dens * tot))
    return {
        "mask": mask, "v1": v1, "v2": v2,
        "mixed": _mixed_partials_residual(v1, v2, p, state, 1e-6 * p.max(), (True, True)),
        "cov_position": weighted_cov(p * w, x1, x2),
        "cov_momentum": cov_p,
        "cov_classical": cov_cl,
        "cov_nonclassical": cov_nc,
        "mean_nonclassical": mean_nc,
        "additivity": additivity,
        "cov_fisher": np.linalg.inv(info),
        "moments": {
            "mean_relative_position": mean_rel,
            "var_relative_position": float(np.sum(p * w * rel ** 2)) - mean_rel ** 2,
            "mean_total_momentum": mean_tot,
            "var_total_momentum": float(np.sum(dens * tot ** 2)) - mean_tot ** 2,
        },
    }
