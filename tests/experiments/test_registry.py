"""The declarative experiment surface: registry, results, equivalence.

Pinned here:

* every experiment kind runs via ``repro.api.experiment`` and produces
  numbers bit-identical to a direct call of its registered
  ``(params, context)`` runner with live objects in ``params``,
* :class:`ExperimentResult` round-trips through JSON,
* identical re-runs hit the artifact store.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.experiments import (
    ExperimentContext,
    ExperimentResult,
    ExperimentSpec,
    experiment_kinds,
    get_experiment_kind,
    register_experiment_kind,
    run_experiment,
)
from repro.specs import SpecError


THEOREM9_PARAMS = {
    "pulse_lengths": [0.3, 0.8, 1.3],
    "adversaries": {"zero": {"kind": "zero"}, "random": {"kind": "random", "seed": 5}},
    "end_time": 150.0,
}
COMPARISON_PARAMS = {"stages": 2, "pulse_count": 3}


#: Each built-in parameter whose default fixes a JSON type (boolean,
#: integer, number or list), with each value of another type (an integer
#: is a number).
WRONG_TYPED_PARAMS = [
    (kind, name, value)
    for kind in experiment_kinds()
    for name, default in sorted(get_experiment_kind(kind).defaults.items())
    if type(default) in (bool, int, float, list)
    for value in (None, "x", -1, 1.5, [], {}, True)
    if type(value) is not type(default) and (type(default), type(value)) != (float, int)
]


def call_runner(kind, **live):
    """The typed result of *kind*'s registered runner, called directly with
    *live* (objects, callables) over its defaults."""
    info = get_experiment_kind(kind)
    return info.runner({**info.defaults, **live}, ExperimentContext()).raw


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        assert {
            "theorem9",
            "lemma5",
            "fig7",
            "fig8",
            "fig9",
            "comparison",
            "scaling",
            "eta_coverage",
        } <= set(experiment_kinds())

    def test_descriptions_exposed(self):
        listing = api.experiments()
        assert set(listing) == set(experiment_kinds())
        assert all(description for description in listing.values())

    def test_unknown_kind_raises(self):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            run_experiment("not_an_experiment")

    def test_unknown_param_raises(self):
        with pytest.raises(SpecError, match="unknown parameter"):
            run_experiment("lemma5", {"eta_plus_valuez": [0.1]})

    def test_duplicate_registration_rejected(self):
        info = get_experiment_kind("lemma5")
        with pytest.raises(SpecError, match="already registered"):
            register_experiment_kind("lemma5", info.runner)
        # replace=True is the escape hatch (restore the original runner).
        register_experiment_kind(
            "lemma5",
            info.runner,
            description=info.description,
            defaults=info.defaults,
            replace=True,
        )

    def test_resolved_promotes_int_spellings_of_float_params(self):
        from repro.store import ArtifactStore

        as_int = ExperimentSpec("comparison", {"end_time": 200}).resolved()
        as_float = ExperimentSpec("comparison", {"end_time": 200.0}).resolved()
        assert as_int == as_float
        assert ArtifactStore.key_for(as_int) == ArtifactStore.key_for(as_float)
        assert as_int.params["end_time"] == 200.0
        # Bool params are not "ints" for promotion purposes.
        assert ExperimentSpec("comparison", {"record_traces": True}).resolved().params[
            "record_traces"
        ] is True

    @pytest.mark.parametrize(
        "kind, name, value",
        WRONG_TYPED_PARAMS,
        ids=[f"{kind}.{name}={json.dumps(value)}" for kind, name, value in WRONG_TYPED_PARAMS],
    )
    def test_resolved_rejects_a_wrong_typed_param(self, kind, name, value):
        with pytest.raises(SpecError) as info:
            ExperimentSpec(kind, {name: value}).resolved()
        assert info.value.path == f"/{name}"
        assert [defect.path for defect in info.value.defects] == [f"/{name}"]

    def test_resolved_merges_defaults(self):
        spec = ExperimentSpec("lemma5", {"eta_plus_values": [0.1]})
        resolved = spec.resolved()
        assert resolved.params["eta_plus_values"] == [0.1]
        assert resolved.params["back_off"] == pytest.approx(1e-3)
        assert resolved.params["pair"]["kind"] == "exp"
        # Spelled-out defaults resolve to the same spec (same cache key).
        explicit = ExperimentSpec("lemma5", dict(resolved.params))
        assert explicit.resolved() == resolved


class TestResults:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("theorem9", THEOREM9_PARAMS)

    def test_rows_and_columns(self, result):
        assert len(result.rows) == 3 * 2
        assert result.columns[0] == "delta_0"
        assert all(list(row) == result.columns for row in result.rows)
        result.validate()

    def test_provenance(self, result):
        prov = result.provenance
        assert prov["spec"] == result.spec.to_dict()
        assert len(prov["spec_key"]) == 64
        assert prov["backend"] == "sequential"
        assert prov["cpu_count"] >= 1
        assert prov["wall_time_s"] > 0
        import repro

        assert prov["version"] == repro.__version__

    def test_json_round_trip(self, result):
        clone = ExperimentResult.from_json(result.to_json())
        assert clone == result
        assert clone.rows == result.rows
        assert clone.columns == result.columns
        assert clone.spec == result.spec
        clone.validate()

    def test_equality_ignores_provenance(self, result):
        clone = ExperimentResult.from_json(result.to_json())
        clone.provenance["wall_time_s"] = 123.0
        assert clone == result

    def test_raw_is_transient(self, result):
        assert result.raw is not None
        assert ExperimentResult.from_json(result.to_json()).raw is None

    def test_table_renders(self, result):
        text = result.table()
        assert "experiment theorem9" in text
        assert "delta_0" in text

    def test_spec_run_method(self):
        spec = ExperimentSpec("lemma5", {"eta_plus_values": [0.05]})
        assert spec.run().rows == run_experiment(spec).rows

    def test_bad_row_schema_rejected(self, result):
        broken = ExperimentResult.from_json(result.to_json())
        broken.rows[0] = dict(reversed(list(broken.rows[0].items())))
        with pytest.raises(SpecError, match="do not match"):
            broken.validate()


class TestTraces:
    def test_traces_recorded_on_request(self):
        with_traces = run_experiment(
            "comparison", dict(COMPARISON_PARAMS, record_traces=True)
        )
        assert set(with_traces.traces) == {
            f"{model}.out"
            for model in ("pure", "inertial", "ddm", "involution", "eta_involution")
        }
        signals = with_traces.signals()
        assert signals["pure.out"].final_value in (0, 1)
        # Traces survive the JSON round trip.
        clone = ExperimentResult.from_json(with_traces.to_json())
        assert clone.traces == with_traces.traces

    def test_traces_off_by_default(self):
        assert run_experiment("comparison", COMPARISON_PARAMS).traces is None


class TestCaching:
    def test_cache_roundtrip_and_hit(self, tmp_path):
        store_dir = tmp_path / "store"
        first = api.experiment("lemma5", {"eta_plus_values": [0.02]}, cache=store_dir)
        assert not first.from_cache
        second = api.experiment("lemma5", {"eta_plus_values": [0.02]}, cache=store_dir)
        assert second.from_cache
        assert second == first
        assert second.rows == first.rows

    def test_force_recomputes(self, tmp_path):
        store_dir = tmp_path / "store"
        api.experiment("lemma5", {"eta_plus_values": [0.02]}, cache=store_dir)
        forced = api.experiment(
            "lemma5", {"eta_plus_values": [0.02]}, cache=store_dir, force=True
        )
        assert not forced.from_cache

    def test_default_params_share_cache_entry(self, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        sparse = api.experiment("lemma5", {"eta_plus_values": [0.02]}, cache=store)
        explicit = api.experiment(
            "lemma5",
            dict(sparse.spec.resolved().params),
            cache=store,
        )
        assert explicit.from_cache
        assert len(store) == 1


class TestEquivalence:
    """Direct runner calls with live objects vs. the registered-kind path."""

    def test_theorem9(self):
        from repro.core import InvolutionPair, ZeroAdversary, RandomAdversary

        pair = InvolutionPair.exp_channel(1.0, 0.5)
        direct = call_runner(
            "theorem9",
            pair=pair,
            pulse_lengths=np.asarray(THEOREM9_PARAMS["pulse_lengths"]),
            adversaries={
                "zero": ZeroAdversary,
                "random": lambda: RandomAdversary(seed=5),
            },
            end_time=150.0,
        )
        via_api = api.experiment("theorem9", THEOREM9_PARAMS)
        assert via_api.rows == direct.rows()
        assert via_api.raw.analysis_summary == direct.analysis_summary

    def test_lemma5(self):
        from repro.core import InvolutionPair

        pair = InvolutionPair.exp_channel(1.0, 0.5)
        direct = call_runner("lemma5", pair=pair, eta_plus_values=[0.02, 0.05])
        assert api.experiment("lemma5", {"eta_plus_values": [0.02, 0.05]}).rows == direct

    def test_comparison(self):
        direct = call_runner("comparison", **COMPARISON_PARAMS)
        via_api = api.experiment("comparison", COMPARISON_PARAMS)
        assert via_api.rows == direct.rows()

    def test_scaling_deterministic_columns(self):
        config = dict(stage_counts=(2, 3), input_transitions=30)
        direct = call_runner("scaling", **config)
        via_api = api.experiment(
            "scaling", {"stage_counts": [2, 3], "input_transitions": 30}
        )
        # seconds/events_per_second are wall clock; events are pinned.
        assert [row["events"] for row in via_api.rows] == [s.events for s in direct]

    def test_eta_coverage(self):
        from repro.core import EtaBound, InvolutionPair

        pair = InvolutionPair.exp_channel(1.0, 0.5)
        eta = EtaBound(0.05, 0.05)
        config = dict(stages=2, n_runs=4, seed=9)
        direct = call_runner("eta_coverage", pair=pair, eta=eta, **config)
        via_api = api.experiment(
            "eta_coverage",
            {"eta": {"eta_plus": 0.05, "eta_minus": 0.05}, **config},
        )
        assert via_api.rows == [direct.summary()]
        assert via_api.raw.samples == direct.samples

    def test_fig9(self):
        config = dict(stages=2, stage_index=1, n_widths=10)
        direct = call_runner("fig9", **config)
        via_api = api.experiment(
            "fig9", {"stages": 2, "stage_index": 1, "n_widths": 10}
        )
        assert via_api.rows == direct.rows()
        assert via_api.raw.fit.tau == direct.fit.tau

    def test_fig7(self):
        config = dict(vdd_levels=(1.0,), stages=2, stage_index=1, n_widths=8)
        direct = call_runner("fig7", **config)
        via_api = api.experiment(
            "fig7",
            {"vdd_levels": [1.0], "stages": 2, "stage_index": 1, "n_widths": 8},
        )
        assert via_api.rows == direct.rows()
        np.testing.assert_array_equal(
            via_api.raw.curves[1.0].delta, direct.curves[1.0].delta
        )

    def test_fig8(self):
        config = dict(
            scenarios=("width_plus10",), stages=2, stage_index=1, n_widths=8, seed=1
        )
        direct = call_runner("fig8", **config)
        via_api = api.experiment(
            "fig8",
            {
                "scenarios": ["width_plus10"],
                "stages": 2,
                "stage_index": 1,
                "n_widths": 8,
                "seed": 1,
            },
        )
        assert via_api.rows == direct.rows()


class TestBackends:
    """Experiments inherit the sweep runner's engines and executors,
    result-neutrally."""

    @pytest.mark.parametrize("backend", ["sequential", "vector", "auto"])
    def test_theorem9_backend_equivalence(self, backend):
        reference = run_experiment("theorem9", THEOREM9_PARAMS)
        other = run_experiment(
            "theorem9", THEOREM9_PARAMS, backend=backend, max_workers=2
        )
        assert other.rows == reference.rows
        assert other.provenance["backend"] == backend

    def test_eta_coverage_backend_equivalence(self):
        params = {"stages": 2, "n_runs": 4, "seed": 9}
        sequential = run_experiment("eta_coverage", params)
        pooled = run_experiment("eta_coverage", params, max_workers=2)
        assert pooled.rows == sequential.rows

    def test_scaling_under_auto_remeasures_on_the_engine_that_ran(self):
        # Regression: the re-measurement fed the sweep's result label
        # back in as a backend and raised ValueError.
        result = api.experiment(
            "scaling", {"stage_counts": [2, 4], "input_transitions": 20},
            backend="auto",
        )
        assert result.provenance["backend_executed"] == "sequential"
        assert [row["backend"] for row in result.rows] == ["sequential"] * 2

    @pytest.mark.parametrize("kind", ["fig7", "lemma5"])
    def test_unknown_backend_raises(self, kind):
        # Regression: kinds that never call run_many ran anyway and wrote
        # the bogus backend into provenance and the stored artifact.
        with pytest.raises(ValueError, match="max_workers="):
            api.experiment(kind, backend="thread")

    def test_unknown_backend_raises_before_the_cache_lookup(self, tmp_path):
        params = {"eta_plus_values": [0.02]}
        api.experiment("lemma5", params, cache=tmp_path)
        with pytest.raises(ValueError, match="max_workers="):
            api.experiment("lemma5", params, backend="thread", cache=tmp_path)


class TestUserClasses:
    """User-defined adversaries and channels run through their registered kind."""

    def test_custom_adversary_kind_runs_in_theorem9(self):
        from repro.core import ZeroAdversary
        from repro.specs import register_adversary_kind

        class CustomAdversary(ZeroAdversary):
            pass

        built = []

        def build(params):
            built.append(CustomAdversary())
            return built[-1]

        register_adversary_kind("test_custom_adversary", build, replace=True)
        result = api.experiment(
            "theorem9",
            {
                "pulse_lengths": [0.3],
                "adversaries": {"custom": {"kind": "test_custom_adversary"}},
                "end_time": 100.0,
            },
        )
        assert len(result.raw.observations) == 1
        assert built

    def test_custom_channel_kind_runs_in_comparison(self):
        from repro.core import PureDelayChannel
        from repro.specs import register_channel_kind

        class OddChannel(PureDelayChannel):
            pass

        built = []

        def build(params):
            built.append(OddChannel(float(params["delay"])))
            return built[-1]

        register_channel_kind("test_odd_channel", build, replace=True)
        result = api.experiment(
            "comparison",
            {
                "stages": 2,
                "pulse_count": 3,
                "factories": {"odd": {"kind": "test_odd_channel", "delay": 1.0}},
            },
        )
        assert set(result.raw.stage_survivors) == {"odd"}
        assert built


class TestExtensionHook:
    def test_user_registered_kind_runs_and_caches(self, tmp_path):
        from repro.experiments import ExperimentOutcome

        def runner(params, context):
            return ExperimentOutcome(
                rows=[{"x": params["x"], "doubled": 2 * params["x"]}]
            )

        register_experiment_kind(
            "test_doubler", runner, description="doubles x", defaults={"x": 1},
            replace=True,
        )
        result = api.experiment("test_doubler", {"x": 21}, cache=tmp_path)
        assert result.rows == [{"x": 21, "doubled": 42}]
        assert api.experiment("test_doubler", {"x": 21}, cache=tmp_path).from_cache
