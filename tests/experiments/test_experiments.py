"""Smoke and shape tests for the experiment drivers (small configurations).

The full-size experiments run in ``benchmarks/``; here we only check that
the drivers work end to end and that the qualitative shapes match the
paper (monotonicities, coverage orderings, regime consistency).  Every
experiment runs through ``api.experiment``; the assertions read the kind's
typed result from ``ExperimentResult.raw``.
"""

import numpy as np
import pytest

from repro import api
from repro.core import InvolutionPair
from repro.experiments import (
    ExperimentContext,
    default_adversaries,
    format_table,
    format_value,
    get_experiment_kind,
)
from repro.specs import pair_to_dict


def run(kind, **params):
    """The kind's in-process result object, via the one experiment path."""
    return api.experiment(kind, params).raw


def call_runner(kind, **live):
    """The typed result of *kind*'s registered runner, called directly with
    *live* (objects, callables) over its defaults."""
    info = get_experiment_kind(kind)
    return info.runner({**info.defaults, **live}, ExperimentContext()).raw


@pytest.fixture(scope="module")
def pair() -> InvolutionPair:
    return InvolutionPair.exp_channel(1.0, 0.5)


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(float("nan")) == "nan"
        assert format_value(float("inf")) == "inf"
        assert format_value([1, 2]) == "[1, 2]"

    def test_format_value_scientific_for_extreme_magnitudes(self):
        # Large/small magnitudes deliberately use scientific notation so
        # mixed-magnitude columns stay scannable.
        assert format_value(0.000123456) == "1.235e-04"
        assert format_value(123456.789) == "1.235e+05"
        assert format_value(-123456.789) == "-1.235e+05"
        assert format_value(1e-9) == "1.000e-09"

    def test_format_value_boundaries(self):
        # Exactly 1e5 and anything below 1e-3 switch to scientific; the
        # half-open band [1e-3, 1e5) keeps the general format.
        assert format_value(1e5) == "1.000e+05"
        assert format_value(99999.0, precision=5) == "99999"
        assert format_value(1e-3) == "0.001"
        assert format_value(0.00099999) == "1.000e-03"
        assert format_value(1.0) == "1"
        assert format_value(0.0) == "0"

    def test_format_value_precision(self):
        assert format_value(0.000123456, precision=2) == "1.2e-04"
        assert format_value(123456.789, precision=6) == "1.23457e+05"

    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        text = format_table(rows, title="T")
        assert text.splitlines()[0] == "T"
        assert "a" in text and "b" in text

    def test_format_empty_table(self):
        assert "(no rows)" in format_table([])


class TestFig7:
    def test_delay_ordering_with_vdd(self):
        result = run(
            "fig7", vdd_levels=[0.6, 1.0], n_widths=10, stages=2, stage_index=1
        )
        assert result.is_monotone_in_vdd()
        delays = result.saturation_delays()
        assert delays[0.6] > delays[1.0]

    def test_curves_are_concave_increasing(self):
        result = run("fig7", vdd_levels=[1.0], n_widths=12, stages=2, stage_index=1)
        curve = result.curves[1.0]
        assert len(curve.T) >= 6
        # Increasing in T (up to digitisation wiggle).
        coarse = np.interp(np.linspace(curve.T[0], curve.T[-1], 6), curve.T, curve.delta)
        assert all(b >= a - 0.05 for a, b in zip(coarse, coarse[1:]))

    def test_rows_structure(self):
        result = run("fig7", vdd_levels=[1.0], n_widths=8, stages=2, stage_index=1)
        rows = result.rows()
        assert rows[0]["vdd"] == 1.0
        assert rows[0]["n_samples"] > 0


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        # Three stages so the characterised stage sees realistic input slew,
        # and a dense-enough width sweep that the reference delta_min is not
        # overestimated; the band asymmetry (large eta_minus, small eta_plus)
        # then matches the paper's dimensioning and the Fig. 8 coverage
        # pattern.
        return run("fig8", stages=3, stage_index=1, n_widths=16, seed=1)

    def test_all_scenarios_present(self, result):
        assert set(result.scenarios) == {"supply_1pct", "width_plus10", "width_minus10"}

    def test_small_variations_covered_at_small_T(self, result):
        supply = result.scenarios["supply_1pct"].summary
        assert supply["coverage_small_T"] >= 0.9

    def test_narrow_transistors_exceed_band_at_large_T(self, result):
        narrow = result.scenarios["width_minus10"].summary
        assert narrow["coverage_all"] < 1.0

    def test_wider_covered_better_than_narrower(self, result):
        wide = result.scenarios["width_plus10"].summary
        narrow = result.scenarios["width_minus10"].summary
        assert wide["coverage_all"] >= narrow["coverage_all"]

    def test_rows(self, result):
        rows = result.rows()
        assert len(rows) == 3
        assert all("coverage_all" in row for row in rows)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run("fig8", scenarios=["bogus"], stages=2, n_widths=6)


class TestFig9:
    def test_exp_fit_reasonable(self):
        result = run("fig9", stages=2, stage_index=1, n_widths=12)
        assert result.fit.tau > 0
        assert result.fit.t_p > 0
        assert 0.0 < result.fit.v_th < 1.0
        # Deviations of the fitted exp-channel stay small near T = 0
        # ("only minor mispredictions near T = 0").
        assert result.summary["coverage_small_T"] >= 0.8
        assert result.rows()[0]["tau"] == result.fit.tau


class TestTheorem9:
    def test_all_observations_consistent(self, pair):
        result = run(
            "theorem9",
            pair=pair_to_dict(pair),
            pulse_lengths=np.linspace(0.2, 1.4, 7).tolist(),
            adversaries={
                name: spec.to_dict() for name, spec in default_adversaries().items()
            },
            end_time=250.0,
        )
        assert result.all_consistent
        assert len(result.rows()) == 7 * 4

    def test_regime_fractions(self, pair):
        result = run("theorem9", pair=pair_to_dict(pair), end_time=250.0)
        regimes = {obs.regime for obs in result.observations}
        assert {"cancelled", "marginal", "latched"} <= regimes

    def test_lemma5_sweep_monotonicities(self, pair):
        rows = run(
            "lemma5", pair=pair_to_dict(pair), eta_plus_values=[0.0, 0.02, 0.05, 0.1]
        )
        taus = [row["tau"] for row in rows]
        gammas = [row["gamma"] for row in rows]
        assert all(b > a for a, b in zip(taus, taus[1:]))
        assert all(g < 1.0 for g in gammas)
        assert all(row["Delta"] < row["delta_min"] for row in rows)

    def test_accepts_pair_and_adversary_specs(self, pair):
        """Spec dicts through the kind match live objects through its runner."""
        lengths = np.linspace(0.3, 1.3, 3)
        from_objects = call_runner(
            "theorem9",
            pair=pair,
            pulse_lengths=lengths,
            adversaries={"zero": default_adversaries()["zero"]},
            end_time=150.0,
        )
        from_specs = run(
            "theorem9",
            pair={"kind": "exp", "tau": 1.0, "t_p": 0.5, "v_th": 0.5},
            pulse_lengths=lengths.tolist(),
            adversaries={"zero": {"kind": "zero"}},
            end_time=150.0,
        )
        assert from_objects.rows() == from_specs.rows()
        spec_rows = run(
            "lemma5",
            pair={"kind": "exp", "tau": 1.0, "t_p": 0.5},
            eta_plus_values=[0.02, 0.05],
        )
        assert spec_rows == call_runner("lemma5", pair=pair, eta_plus_values=[0.02, 0.05])


class TestModelComparison:
    def test_qualitative_ordering(self):
        result = run("comparison", stages=3, pulse_count=4)
        survivors = result.stage_survivors
        # Pure delay keeps every glitch; inertial kills them all at stage 1;
        # involution-family channels attenuate gradually (at most the input count).
        assert survivors["pure"] == [4, 4, 4]
        assert survivors["inertial"][0] == 0
        assert survivors["involution"][0] <= 4
        assert survivors["involution"][-1] <= survivors["pure"][-1]
        assert result.output_transitions["pure"] == 8

    def test_rows(self):
        result = run("comparison", stages=2, pulse_count=3)
        rows = result.rows()
        assert {row["model"] for row in rows} == {
            "pure",
            "inertial",
            "ddm",
            "involution",
            "eta_involution",
        }


class TestScaling:
    def test_throughput_measured(self):
        samples = run("scaling", stage_counts=[2, 4], input_transitions=40)
        assert len(samples) == 2
        assert all(s.events > 0 for s in samples)
        assert all(s.events_per_second > 0 for s in samples)
        assert samples[1].events > samples[0].events

    def test_accepts_channel_spec(self):
        from repro.specs import ChannelSpec

        samples = run(
            "scaling",
            stage_counts=[2],
            input_transitions=20,
            channel=ChannelSpec.exp_involution(1.0, 0.5).to_dict(),
        )
        assert samples[0].events > 0


class TestModelComparisonSpecs:
    def test_spec_factories_match_callable_factories(self):
        from repro.core import PureDelayChannel
        from repro.specs import ChannelSpec

        with_callables = call_runner(
            "comparison",
            stages=2,
            pulse_count=3,
            factories={"pure": lambda: PureDelayChannel(1.19)},
        )
        with_specs = run(
            "comparison",
            stages=2,
            pulse_count=3,
            factories={"pure": ChannelSpec("pure", delay=1.19).to_dict()},
        )
        assert with_callables.stage_survivors == with_specs.stage_survivors
        assert with_callables.output_transitions == with_specs.output_transitions
