import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact_uncertainty.densities import DiscreteDistribution, LineDensity, circle_density
from exact_uncertainty.errors import ParseError, ZeroNorm
from exact_uncertainty.fisher import (
    DISCONTINUITY_RATIO,
    FINITE,
    UNIFORMITY_FLOOR,
    INFINITE_BY_UNIFORMITY,
    ZERO_BY_DISCONTINUITY,
    circular_mean,
    collision_length,
    diffusion_entropy_rate,
    entropy,
    fisher_covariance,
    fisher_length,
    fisher_length_mixed,
    fisher_length_periodic,
    phase_variance,
)
from exact_uncertainty.fisher import _information
from exact_uncertainty.grids import GridSpec
from exact_uncertainty.random_states import random_fock_state, random_periodic_state
from exact_uncertainty.states import (
    Grid2DPureState,
    GridMixedState,
    GridPureState,
    PeriodicState,
    gaussian_state,
)
from exact_uncertainty.twoparticle import nonclassical_components_2d


def line_gaussian(grid, sigma, center=0.0):
    x = grid.points()
    p = np.exp(-((x - center) ** 2) / (2 * sigma ** 2))
    return LineDensity(grid, p)


class TestNormalizedWhereBuilt:
    """A density is divided by its total where it is built, at any scale."""

    @pytest.mark.parametrize("scale", [1e308, 1e-300])
    def test_scaled_density_is_the_density(self, grid, scale):
        p = np.exp(-grid.points() ** 2 / 2)
        unscaled = LineDensity(grid, p)
        scaled = LineDensity(grid, scale * p)
        fm, ref = fisher_length(scaled), fisher_length(unscaled)
        assert fm.divergence_flag == ref.divergence_flag == FINITE
        assert fm.fisher_length == pytest.approx(ref.fisher_length, rel=1e-12)
        assert entropy(scaled) == pytest.approx(entropy(unscaled), rel=1e-12)

    def test_zero_and_nan_are_rejected(self, grid):
        with pytest.raises(ZeroNorm):
            LineDensity(grid, np.zeros(grid.n_points))
        with pytest.raises(ParseError):
            LineDensity(grid, np.full(grid.n_points, np.nan))
        with pytest.raises(ZeroNorm):
            DiscreteDistribution(np.zeros(3))
        with pytest.raises(ParseError):
            DiscreteDistribution([0.5, np.nan, 0.5])

    def test_collision_length_of_huge_probabilities(self):
        assert collision_length(DiscreteDistribution([1e308] * 3)) == pytest.approx(3.0, rel=1e-15)


class TestFisherLength:
    def test_gaussian_equals_sigma(self, grid):
        # analytic: integral p (ln p)'^2 = 1/sigma^2; double-checked by
        # direct quadrature of the exact integrand
        sigma = 1.3
        dens = line_gaussian(grid, sigma)
        fm = fisher_length(dens)
        assert fm.divergence_flag == FINITE
        assert fm.fisher_length == pytest.approx(sigma, rel=1e-10)
        x = grid.points()
        oracle = np.sum(dens.values * (x / sigma ** 2) ** 2) * grid.dx
        assert fm.fisher_information == pytest.approx(oracle, rel=1e-8)

    def test_half_line_truncation_flagged_and_shrinking(self):
        values = {}
        for n in (1024, 2048, 4096):
            g = GridSpec(n, -10.0, 10.0)
            x = g.points()
            dens = LineDensity(g, np.where(x >= 0, np.exp(-x ** 2 / 2), 0.0))
            fm = fisher_length(dens)
            assert fm.divergence_flag == ZERO_BY_DISCONTINUITY
            values[n] = fm.fisher_length
        # the jump cell contributes ~ h/(4 dx) information, so the computed
        # length contracts by ~ 2^-1/2 per halving and by < 0.6 over two
        assert values[2048] < 0.75 * values[1024]
        assert values[4096] < 0.6 * values[1024]

    def test_bimodal_strictly_below_rms(self, grid):
        a, sigma = 5.0, 0.7
        x = grid.points()
        p = np.exp(-((x - a) ** 2) / (2 * sigma ** 2)) \
            + np.exp(-((x + a) ** 2) / (2 * sigma ** 2))
        dens = LineDensity(grid, p)
        fm = fisher_length(dens)
        rms = np.sqrt(np.sum(dens.values * x ** 2) * grid.dx)
        assert fm.fisher_length < 0.5 * rms  # far below, not merely below

    @pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
    def test_scaling_covariance(self, lam):
        base = GridSpec(1024, -14.0, 14.0)
        scaled = GridSpec(1024, -14.0 * lam, 14.0 * lam)
        d1 = line_gaussian(base, 1.2)
        d2 = line_gaussian(scaled, 1.2 * lam)
        f1 = fisher_length(d1).fisher_length
        f2 = fisher_length(d2).fisher_length
        assert f2 == pytest.approx(lam * f1, rel=1e-10)

    def test_finite_for_strictly_positive(self, rng, grid):
        x = grid.points()
        p = np.exp(-x ** 2 / 8) + 0.05 * np.exp(-(x - 3) ** 2 / 2) + 1e-4
        fm = fisher_length(LineDensity(grid, p))
        assert fm.divergence_flag == FINITE
        assert np.isfinite(fm.fisher_length)


class TestCramerRao:
    def test_gaussian_saturates(self, grid):
        dens = line_gaussian(grid, 0.9)
        fm = fisher_length(dens)
        rms = np.sqrt(np.sum(dens.values * grid.points() ** 2) * grid.dx)
        assert fm.fisher_length == pytest.approx(rms, rel=1e-8)

    def test_non_gaussian_strict_gap(self, rng, grid):
        x = grid.points()
        base = np.exp(-x ** 2 / 2)
        for _ in range(20):
            bump = rng.uniform(0.05, 0.3) * np.exp(-(x - rng.uniform(-2, 2)) ** 2
                                                   / (2 * rng.uniform(0.4, 1.0) ** 2))
            dens = LineDensity(grid, base + bump)
            fm = fisher_length(dens)
            mean = np.sum(dens.values * x) * grid.dx
            rms = np.sqrt(np.sum(dens.values * (x - mean) ** 2) * grid.dx)
            assert rms - fm.fisher_length > 1e-6 * rms


class TestPeriodic:
    def test_uniform_is_infinite(self):
        fm = fisher_length_periodic(circle_density(np.full(512, 1 / (2 * np.pi))))
        assert fm.divergence_flag == INFINITE_BY_UNIFORMITY
        assert np.isinf(fm.fisher_length)

    def test_von_mises_finite_and_bounded_by_variance(self):
        phi = 2 * np.pi * np.arange(2048) / 2048
        dens = circle_density(np.exp(3.0 * np.cos(phi - 1.0)))
        fm = fisher_length_periodic(dens)
        assert fm.divergence_flag == FINITE
        theta = circular_mean(dens)
        spread = np.sqrt(phase_variance(dens, theta))
        opposite = np.interp(theta + np.pi, dens.grid.points(), dens.values, period=2 * np.pi)
        assert spread >= abs(1 - 2 * np.pi * opposite) * fm.fisher_length - 1e-12

    def test_truncated_gaussian_near_equality(self):
        # the modified bound is saturated by truncated Gaussians centred on
        # theta; residual shrinks to quadrature level for narrow ones
        theta = np.pi
        phi = 2 * np.pi * np.arange(4096) / 4096
        d = np.mod(phi - theta + np.pi, 2 * np.pi) - np.pi
        dens = circle_density(np.exp(-d ** 2 / (2 * 0.5 ** 2)))
        fm = fisher_length_periodic(dens)
        spread = np.sqrt(phase_variance(dens, theta))
        opposite = np.interp(theta + np.pi, dens.grid.points(), dens.values, period=2 * np.pi)
        lhs = spread
        rhs = abs(1 - 2 * np.pi * opposite) * fm.fisher_length
        assert lhs >= rhs - 1e-12
        assert (lhs - rhs) / lhs < 1e-3


def circle_reference(values):
    """(flag, information) of a circle density by the circle's own formula:
    the complex derivative on integer harmonics, the wrapped central
    difference and the cell-swing jump rule."""
    m = values.size
    dphi = 2 * np.pi / m
    p = values / (np.sum(values) * dphi)
    mask = p > 1e-12 * p.max()
    k = np.fft.fftfreq(m, d=1.0 / m)
    info = _information(p, np.real(np.fft.ifft(1j * k * np.fft.fft(p))), dphi, mask,
                        periodic=True)
    if info * (2 * np.pi) ** 2 < UNIFORMITY_FLOOR:
        return INFINITE_BY_UNIFORMITY, info
    wrapped = (np.roll(p, -1) - np.roll(p, 1)) / (2 * dphi)
    info_fd = _information(p, wrapped, dphi, mask, periodic=True)
    swing = np.max(np.abs(np.diff(p, append=p[0]))) / p.max()
    if info > info_fd / DISCONTINUITY_RATIO ** 2 or swing > 0.25:
        return ZERO_BY_DISCONTINUITY, info_fd
    return FINITE, info


class TestCircleCore:
    def densities(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            yield random_periodic_state(rng).phase_density()
            yield random_fock_state(rng).phase_density()
            # a few random harmonics: interference zeros and small swings
            amps = rng.normal(size=13) + 1j * rng.normal(size=13)
            yield PeriodicState(-6, 6, amps).phase_density()
        yield np.full(1024, 1 / (2 * np.pi))
        phi = 2 * np.pi * np.arange(1024) / 1024
        yield np.where(phi < np.pi, 1.0, 0.2)

    def test_matches_circle_formula(self):
        flags = []
        for values in self.densities():
            flag, info = circle_reference(values)
            fm = fisher_length_periodic(circle_density(values))
            assert fm.divergence_flag == flag
            if flag != INFINITE_BY_UNIFORMITY:
                assert fm.fisher_information == pytest.approx(info, rel=1e-13, abs=0)
            flags.append(flag)
        assert flags.count(FINITE) >= 40
        assert flags[-2:] == [INFINITE_BY_UNIFORMITY, ZERO_BY_DISCONTINUITY]


class TestPhaseVariance:
    def test_uniform_value(self):
        # the wrapped quadratic has a kink at the antipode, so the Riemann
        # quadrature converges at O(dphi^2); 4096 points put it below 1e-6
        dens = circle_density(np.full(4096, 1 / (2 * np.pi)))
        for theta in (0.0, 1.0, 4.0):
            assert phase_variance(dens, theta) == pytest.approx(np.pi ** 2 / 3, rel=1e-6)

    def test_narrowing_bump_goes_to_zero(self):
        phi = 2 * np.pi * np.arange(4096) / 4096
        theta = 2.0
        widths = [0.5, 0.2, 0.05]
        values = []
        for w in widths:
            d = np.mod(phi - theta + np.pi, 2 * np.pi) - np.pi
            dens = circle_density(np.exp(-d ** 2 / (2 * w ** 2)))
            values.append(phase_variance(dens, theta))
        assert values[0] > values[1] > values[2]
        assert values[2] == pytest.approx(0.05 ** 2, rel=1e-3)

    def test_bounded_by_pi_squared(self, rng):
        p = rng.uniform(0.1, 1.0, size=512)
        dens = circle_density(p)
        assert phase_variance(dens, float(rng.uniform(0, 2 * np.pi))) <= np.pi ** 2 + 1e-12


class TestEntropyCollision:
    def test_point_distribution(self):
        assert collision_length(DiscreteDistribution(np.eye(6)[2])) == pytest.approx(1.0)

    def test_uniform_distribution(self):
        assert collision_length(DiscreteDistribution(np.full(7, 1 / 7))) == pytest.approx(7.0)

    def test_gaussian_entropy_closed_form(self, grid):
        sigma = 1.1
        dens = line_gaussian(grid, sigma)
        expected = 0.5 * np.log(2 * np.pi * np.e * sigma ** 2)
        assert entropy(dens) == pytest.approx(expected, rel=1e-10)

    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_collision_length_bounds(self, n, seed):
        probs = np.random.default_rng(seed).uniform(0.0, 1.0, size=n) + 1e-12
        value = collision_length(DiscreteDistribution(probs))
        assert 1.0 - 1e-12 <= value <= n + 1e-12


class TestMixedFisher:
    def test_rank_one_matches_pure(self, grid):
        sigma = 1.2
        st = gaussian_state(grid, sigma)
        mix = GridMixedState.from_ensemble([(1.0, st)])
        fm = fisher_length_mixed(mix)
        assert fm.fisher_length == pytest.approx(sigma, rel=1e-8)

    def test_mixture_matches_summed_density(self, grid):
        a = gaussian_state(grid, 1.0, center=-2.5)
        b = gaussian_state(grid, 1.0, center=2.5)
        mix = GridMixedState.from_ensemble([(0.5, a), (0.5, b)])
        fm = fisher_length_mixed(mix)
        dens = LineDensity(grid, mix.position_density())
        fm_direct = fisher_length(dens)
        assert fm.fisher_length == pytest.approx(fm_direct.fisher_length, rel=1e-8)

    def test_flat_box_density_gives_large_length(self):
        grid = GridSpec(512, -8.0, 8.0)
        x = grid.points()
        psi = np.exp(1j * 2.0 * x) * np.exp(-x ** 8 / 7.5 ** 8)  # near-flat, soft edges
        stp = GridPureState(grid, psi.astype(complex))
        mix = GridMixedState.from_ensemble([(1.0, stp)])
        fm = fisher_length_mixed(mix)
        assert fm.divergence_flag == FINITE
        assert fm.fisher_length > 1.0  # far above any local feature scale


class TestFisherCovariance:
    """A 2D density's Fisher covariance is the decomposition's, from the
    state sqrt(p); a line density's is [[delta_X^2]]."""

    def plane(self, n, span, builder):
        """The grid, the normalized density p and Cov_F of sqrt(p)."""
        g = GridSpec(n, -span, span)
        p = builder(g.points()[:, None], g.points()[None, :])
        p = p / (np.sum(p) * g.dx ** 2)
        return g, p, nonclassical_components_2d(Grid2DPureState(g, g, np.sqrt(p))).cov_fisher

    def test_product_gaussian_diagonal(self):
        s1, s2 = 1.0, 1.7
        _, _, fcov = self.plane(256, 14.0, lambda x, y: np.exp(-x ** 2 / (2 * s1 ** 2)
                                                               - y ** 2 / (2 * s2 ** 2)))
        assert fcov == pytest.approx(np.diag([s1 ** 2, s2 ** 2]), rel=1e-8)

    def test_correlated_gaussian_exact(self):
        cov = np.array([[1.0, 0.6], [0.6, 1.5]])
        prec = np.linalg.inv(cov)
        _, _, fcov = self.plane(256, 14.0,
                                lambda x, y: np.exp(-0.5 * (prec[0, 0] * x ** 2
                                                            + 2 * prec[0, 1] * x * y
                                                            + prec[1, 1] * y ** 2)))
        assert np.max(np.abs(fcov - cov)) < 1e-8

    def test_ring_density_strict_cramer_rao(self):
        g, p, fcov = self.plane(256, 10.0,
                                lambda x, y: np.exp(-((np.sqrt(x ** 2 + y ** 2) - 3.0) ** 2)
                                                    / (2 * 0.5 ** 2)))
        x = g.points()[:, None]
        y = g.points()[None, :]
        w = p * g.dx ** 2
        cov = np.array([
            [np.sum(w * x * x), np.sum(w * x * y)],
            [np.sum(w * x * y), np.sum(w * y * y)],
        ]) - np.outer([np.sum(w * x), np.sum(w * y)], [np.sum(w * x), np.sum(w * y)])
        gap = np.linalg.eigvalsh(cov - fcov)
        assert gap.min() > 0.0

    def test_one_dimensional_reduction(self, grid):
        dens = line_gaussian(grid, 1.4)
        fcov = fisher_covariance(dens)
        fm = fisher_length(dens)
        assert fcov.shape == (1, 1)
        assert fcov[0, 0] == pytest.approx(fm.fisher_length ** 2, rel=1e-10)


class TestDiffusion:
    def test_gaussian_rate(self, grid):
        dens = line_gaussian(grid, 1.0)
        run = diffusion_entropy_rate(dens, gamma=1e-3, drift=0.0, dt=1e-2, steps=10)
        predicted = run.gamma / run.fisher_lengths[0] ** 2
        assert run.rate_estimates[0] == pytest.approx(predicted, rel=1e-2)
        # analytic heat flow: sigma^2(t) = sigma^2 + 2 gamma t
        for k in range(1, 10):
            t = k * run.dt
            assert run.fisher_lengths[k] ** 2 == pytest.approx(1.0 + 2e-3 * t, rel=1e-6)

    def test_drift_only_entropy_constant(self, grid):
        dens = line_gaussian(grid, 1.0)
        run = diffusion_entropy_rate(dens, gamma=0.0, drift=0.5, dt=1e-2, steps=10)
        assert np.max(np.abs(run.entropies - run.entropies[0])) < 1e-8

    def test_bimodal_rate_tracks_fisher(self, grid):
        x = grid.points()
        p = np.exp(-(x - 2.5) ** 2 / 2) + 0.7 * np.exp(-(x + 2.5) ** 2 / (2 * 0.8 ** 2))
        dens = LineDensity(grid, p)
        run = diffusion_entropy_rate(dens, gamma=1e-3, drift=0.0, dt=1e-2, steps=10)
        for k in range(1, 10):
            predicted = run.gamma / run.fisher_lengths[k] ** 2
            assert run.rate_estimates[k] == pytest.approx(predicted, rel=2e-2)

    def test_entropy_never_decreases_under_diffusion(self, grid):
        dens = line_gaussian(grid, 0.8)
        run = diffusion_entropy_rate(dens, gamma=5e-3, drift=0.2, dt=1e-2, steps=20)
        assert np.all(np.diff(run.entropies) > -1e-12)
