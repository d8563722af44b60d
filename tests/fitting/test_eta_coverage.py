"""Unit tests for deviation / eta-coverage analysis."""

import numpy as np
import pytest

from repro.core import EtaBound, max_eta_minus
from repro.fitting import (
    DelayMeasurement,
    DelaySample,
    compute_deviations,
    eta_band,
)


def measurement_from_pair(pair, offset=0.0, rising_offset=None) -> DelayMeasurement:
    """Synthetic measurement: the pair's delays shifted by a constant offset."""
    measurement = DelayMeasurement()
    for T in np.linspace(-0.3, 6.0, 25):
        for rising in (True, False):
            delay_fn = pair.delta_up if rising else pair.delta_down
            value = delay_fn(float(T))
            if not np.isfinite(value):
                continue
            shift = offset if (rising_offset is None or not rising) else rising_offset
            measurement.add(
                DelaySample(
                    T=float(T),
                    delta=float(value + shift),
                    rising_output=rising,
                    pulse_width=float("nan"),
                )
            )
    return measurement


class TestEtaBand:
    def test_matches_paper_dimensioning(self, exp_pair):
        band = eta_band(exp_pair, 0.05)
        assert band.eta_plus == 0.05
        assert band.eta_minus == pytest.approx(max_eta_minus(exp_pair, 0.05))

    def test_back_off(self, exp_pair):
        band = eta_band(exp_pair, 0.05, back_off=0.1)
        assert band.eta_minus == pytest.approx(0.9 * max_eta_minus(exp_pair, 0.05))


class TestComputeDeviations:
    def test_zero_deviation_for_exact_model(self, exp_pair):
        measurement = measurement_from_pair(exp_pair)
        analysis = compute_deviations(measurement, exp_pair, eta_plus=0.05)
        assert analysis.max_abs_deviation() == pytest.approx(0.0, abs=1e-9)
        assert analysis.coverage() == 1.0

    def test_positive_offset_detected(self, exp_pair):
        measurement = measurement_from_pair(exp_pair, offset=0.03)
        analysis = compute_deviations(measurement, exp_pair, eta_plus=0.05)
        assert analysis.max_abs_deviation() == pytest.approx(0.03, abs=1e-9)
        assert analysis.coverage() == 1.0

    def test_offset_beyond_band_not_covered(self, exp_pair):
        measurement = measurement_from_pair(exp_pair, offset=0.2)
        analysis = compute_deviations(measurement, exp_pair, eta_plus=0.05)
        assert analysis.coverage() == 0.0

    def test_negative_offset_uses_eta_minus(self, exp_pair):
        # eta_minus is much larger than eta_plus under the paper's
        # dimensioning, so a negative offset of 0.2 is still covered.
        measurement = measurement_from_pair(exp_pair, offset=-0.2)
        analysis = compute_deviations(measurement, exp_pair, eta_plus=0.05)
        assert analysis.coverage() == 1.0

    def test_polarity_specific_deviation(self, exp_pair):
        measurement = measurement_from_pair(exp_pair, offset=0.0, rising_offset=0.1)
        analysis = compute_deviations(measurement, exp_pair, eta_plus=0.05)
        T_up, D_up = analysis.polarity(True)
        T_down, D_down = analysis.polarity(False)
        assert np.allclose(D_up, 0.1)
        assert np.allclose(D_down, 0.0)

    def test_coverage_restricted_to_small_T(self, exp_pair):
        # Deviation grows with T: covered for small T, not for large T.
        measurement = DelayMeasurement()
        for T in np.linspace(0.0, 6.0, 30):
            value = exp_pair.delta_down(float(T))
            measurement.add(
                DelaySample(
                    T=float(T),
                    delta=float(value + 0.02 * T),
                    rising_output=False,
                    pulse_width=float("nan"),
                )
            )
        analysis = compute_deviations(measurement, exp_pair, eta_plus=0.05)
        assert analysis.coverage(T_max=1.0) == 1.0
        assert analysis.coverage() < 1.0

    def test_band_or_eta_plus_required(self, exp_pair):
        with pytest.raises(ValueError):
            compute_deviations(measurement_from_pair(exp_pair), exp_pair)

    def test_explicit_band(self, exp_pair):
        measurement = measurement_from_pair(exp_pair, offset=0.08)
        analysis = compute_deviations(
            measurement, exp_pair, eta=EtaBound(0.1, 0.1)
        )
        assert analysis.coverage() == 1.0

    def test_summary_keys(self, exp_pair):
        analysis = compute_deviations(
            measurement_from_pair(exp_pair), exp_pair, eta_plus=0.05
        )
        summary = analysis.summary()
        for key in ("coverage_all", "coverage_small_T", "max_abs_deviation", "n_samples"):
            assert key in summary

    def test_out_of_domain_samples_skipped(self, exp_pair):
        measurement = DelayMeasurement()
        measurement.add(
            DelaySample(T=-10.0, delta=1.0, rising_output=True, pulse_width=1.0)
        )
        measurement.add(
            DelaySample(T=1.0, delta=exp_pair.delta_up(1.0), rising_output=True, pulse_width=1.0)
        )
        analysis = compute_deviations(measurement, exp_pair, eta_plus=0.05)
        assert len(analysis.samples) == 1

    def test_empty_coverage_is_nan(self, exp_pair):
        analysis = compute_deviations(DelayMeasurement(), exp_pair, eta_plus=0.05)
        assert np.isnan(analysis.coverage())


def simulated_eta_coverage(pair, eta, **params):
    """The ``eta_coverage`` kind's DeviationAnalysis for a live pair and band."""
    from repro import api
    from repro.specs import eta_to_dict, pair_to_dict

    params.update(pair=pair_to_dict(pair), eta=eta_to_dict(eta))
    return api.experiment("eta_coverage", params).raw


class TestSimulatedEtaCoverage:
    """Monte Carlo coverage via the batched sweep runner."""

    def test_admissible_noise_is_fully_covered(self, exp_pair, eta_small):
        analysis = simulated_eta_coverage(
            exp_pair, eta_small, stages=3, n_runs=8, seed=7
        )
        assert len(analysis.samples) > 0
        # Every sampled shift is admissible, so the band must cover all
        # deviations exactly; anything less is an engine/kernel regression.
        assert analysis.coverage() == 1.0
        assert analysis.max_abs_deviation() <= max(
            eta_small.eta_plus, eta_small.eta_minus
        ) + 1e-9

    def test_deterministic_per_seed(self, exp_pair, eta_small):
        first = simulated_eta_coverage(exp_pair, eta_small, stages=2, n_runs=4, seed=3)
        second = simulated_eta_coverage(exp_pair, eta_small, stages=2, n_runs=4, seed=3)
        assert [s.deviation for s in first.samples] == [
            s.deviation for s in second.samples
        ]
