import numpy as np
import pytest

from exact_uncertainty.errors import ParseError
from exact_uncertainty.fisher import ZERO_BY_DISCONTINUITY
from exact_uncertainty.grids import GridSpec
from exact_uncertainty.relations import EQUALITY, FLAGGED
from exact_uncertainty.signals import (
    frequency_representation,
    gaussian_pulse,
    instantaneous_frequency,
    signal_from_rows,
    signal_from_samples,
    verify_time_frequency,
)


@pytest.fixture
def tgrid():
    return GridSpec(1024, -10.0, 10.0)


class TestInstantaneousFrequency:
    def test_carrier_recovered_exactly(self, tgrid):
        f0 = 1.3
        sig = gaussian_pulse(tgrid, width=0.8, carrier=f0)
        _, finst, mask = instantaneous_frequency(sig)
        core = np.abs(sig.amplitudes) ** 2 > 1e-6 * np.max(np.abs(sig.amplitudes) ** 2)
        assert np.max(np.abs(finst[core] - f0)) < 1e-9

    def test_linear_chirp(self, tgrid):
        beta, f0 = 0.6, 0.5
        sig = gaussian_pulse(tgrid, width=0.9, carrier=f0, chirp=beta)
        t, finst, mask = instantaneous_frequency(sig)
        core = np.abs(sig.amplitudes) ** 2 > 1e-6 * np.max(np.abs(sig.amplitudes) ** 2)
        expected = beta * t / np.pi + f0
        assert np.max(np.abs(finst[core] - expected[core])) < 1e-8

    def test_real_signal_zero(self, tgrid):
        sig = gaussian_pulse(tgrid, width=1.0)
        _, finst, mask = instantaneous_frequency(sig)
        core = np.abs(sig.amplitudes) ** 2 > 1e-6 * np.max(np.abs(sig.amplitudes) ** 2)
        assert np.max(np.abs(finst[core])) < 1e-10


class TestExactRelation:
    def test_gaussian_pulse_closed_form(self, tgrid):
        s = 0.8
        sig = gaussian_pulse(tgrid, width=s, carrier=1.0)
        report = verify_time_frequency(sig)
        assert report.verdict == EQUALITY
        assert report.notes["fisher_time"] == pytest.approx(s, rel=1e-9)
        fluc = report.left / report.notes["fisher_time"]
        assert fluc == pytest.approx(1.0 / (4 * np.pi * s), rel=1e-9)

    def test_chirped_pulse_equality(self, tgrid):
        sig = gaussian_pulse(tgrid, width=0.7, carrier=1.2, chirp=0.8)
        report = verify_time_frequency(sig)
        assert report.verdict == EQUALITY
        assert report.residual < 1e-6
        assert report.notes["var_instantaneous"] > 1e-3  # genuinely subtracted

    def test_causal_pulse_flagged_with_divergent_bandwidth(self):
        variances = []
        for n in (512, 1024, 2048):
            grid = GridSpec(n, -10.0, 10.0)
            t = grid.points()
            values = np.where(t >= -2.0, np.exp(-t ** 2 / 2), 0.0)
            sig = signal_from_samples(t, values)
            report = verify_time_frequency(sig)
            assert report.verdict == FLAGGED
            assert report.notes["fisher_flag"] == ZERO_BY_DISCONTINUITY
            variances.append(report.notes["var_frequency"])
        # an amplitude jump gives |A(f)|^2 ~ f^-2 tails: the divergent part
        # of the spectral variance doubles with each doubling of the band
        assert variances[0] < variances[1] < variances[2]
        increments = np.diff(variances)
        assert increments[1] / increments[0] == pytest.approx(2.0, rel=0.2)

    def test_off_centre_time_grid(self):
        # every other signal here lies on a grid centred at t = 0
        w, kappa = 0.8, 0.6
        sig = gaussian_pulse(GridSpec(1024, 3.0, 23.0), width=w, center=13.0, carrier=1.2,
                             chirp=kappa)
        report = verify_time_frequency(sig)
        assert report.verdict == EQUALITY
        assert report.notes["fisher_time"] == pytest.approx(w, rel=1e-9)
        assert report.notes["var_instantaneous"] == pytest.approx((kappa * w / np.pi) ** 2,
                                                                  rel=1e-9)
        assert report.notes["var_frequency"] == pytest.approx(
            1.0 / (4 * np.pi * w) ** 2 + (kappa * w / np.pi) ** 2, rel=1e-9)

    def test_mapping_to_position_momentum(self, rng, tgrid):
        # the same samples as a wavefunction with hbar = 1/(2 pi) must give
        # the same relation values
        from exact_uncertainty.relations import verify_position_momentum
        from exact_uncertainty.states import Constants, GridPureState

        t = tgrid.points()
        a = (np.exp(-(t - 1) ** 2 / 2.2 + 2j * np.pi * 0.8 * t)
             + 0.6 * np.exp(-(t + 1.5) ** 2 / 1.4 - 1j * np.pi * t))
        sig = signal_from_samples(t, a)
        r_sig = verify_time_frequency(sig)

        st = GridPureState(tgrid, sig.amplitudes, Constants(hbar=1.0 / (2.0 * np.pi)))
        r_xp = verify_position_momentum(st)
        assert abs(r_sig.left - r_xp.left) < 1e-10
        assert abs(r_sig.right - r_xp.right) < 1e-16
        assert abs(r_sig.residual - r_xp.residual) < 1e-8

    def test_parseval(self, tgrid):
        sig = gaussian_pulse(tgrid, width=0.9, carrier=0.7, chirp=0.2)
        f, spec = frequency_representation(sig)
        df = f[1] - f[0]
        assert np.sum(np.abs(spec) ** 2) * df == pytest.approx(1.0, abs=1e-10)

    def test_frequency_axis_is_mirrored_under_displayed_convention(self, tgrid):
        # A(f) = int a e^{+2 pi i f t} puts a carrier f0 at -f0; variances
        # are unaffected, and f_inst still reports +f0
        f0 = 1.1
        sig = gaussian_pulse(tgrid, width=0.8, carrier=f0)
        f, spec = frequency_representation(sig)
        peak = f[np.argmax(np.abs(spec))]
        assert peak == pytest.approx(-f0, abs=2 * (f[1] - f[0]))
        dens = np.abs(spec) ** 2 / (np.sum(np.abs(spec) ** 2) * (f[1] - f[0]))
        mean = np.sum(f * dens) * (f[1] - f[0])
        var = np.sum(f ** 2 * dens) * (f[1] - f[0]) - mean ** 2
        assert mean == pytest.approx(-f0, abs=1e-9)
        assert var == pytest.approx(1.0 / (4 * np.pi * 0.8) ** 2, rel=1e-9)


class TestCsv:
    def rows(self, n=64):
        t = np.linspace(-3, 3, n)
        a = np.exp(-t ** 2 + 2j * np.pi * 0.5 * t)
        yield ["t", "re", "im"]
        for ti, ai in zip(t, a):
            yield [f"{ti}", f"{ai.real}", f"{ai.imag}"]

    def test_round_trip(self):
        sig = signal_from_rows(self.rows())
        assert sig.grid.n_points == 64
        assert np.sum(np.abs(sig.amplitudes) ** 2) * sig.grid.dx == pytest.approx(1.0)

    def test_header_required(self):
        rows = list(self.rows())
        rows[0] = ["time", "re", "im"]
        with pytest.raises(ParseError):
            signal_from_rows(rows)

    def test_non_numeric_rejected(self):
        rows = list(self.rows())
        rows[3][1] = "oops"
        with pytest.raises(ParseError):
            signal_from_rows(rows)

    def test_nonuniform_rejected(self):
        rows = list(self.rows())
        rows[5][0] = "17.0"
        with pytest.raises(ParseError):
            signal_from_rows(rows)

    @pytest.mark.parametrize("times", ["decreasing", "constant", "nan", "inf"])
    def test_bad_times_rejected(self, times):
        rows = list(self.rows())
        for i, row in enumerate(rows[1:]):
            row[0] = {"decreasing": f"{-i * 0.1}", "constant": "1.0"}.get(times, row[0])
        if times in ("nan", "inf"):
            rows[7][0] = times
        with pytest.raises(ParseError):
            signal_from_rows(rows)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 2])
    def test_non_finite_amplitude_rejected(self, value, column):
        rows = list(self.rows())
        rows[9][column] = value
        with pytest.raises(ParseError):
            signal_from_rows(rows)
