"""Unit tests for the batched sweep runner."""

import pytest

from repro.circuits import fed_back_or, inverter_chain, simulate
from repro.core import (
    EtaInvolutionChannel,
    InvolutionChannel,
    PureDelayChannel,
    Signal,
    WorstCaseAdversary,
    ZeroAdversary,
)
from repro.engine import (
    CircuitTopology,
    Engine,
    Scenario,
    SimulationError,
    channel_overrides,
    eta_monte_carlo,
    run_many,
)


@pytest.fixture()
def chain(exp_pair):
    return inverter_chain(4, lambda: InvolutionChannel(exp_pair))


class TestRunMany:
    def test_matches_naive_simulate_loop(self, chain):
        scenarios = [
            Scenario(f"w={w}", {"in": Signal.pulse(1.0, w)}, 60.0)
            for w in (0.5, 1.0, 2.0, 4.0)
        ]
        sweep = run_many(chain, scenarios)
        assert len(sweep) == 4
        for run in sweep:
            naive = simulate(chain, run.scenario.inputs, 60.0)
            assert run.execution.output("out") == naive.output("out")
            assert run.execution.event_count == naive.event_count

    def test_accepts_prebuilt_topology(self, chain):
        topology = CircuitTopology(chain)
        sweep = run_many(
            topology, [Scenario("s", {"in": Signal.pulse(1.0, 2.0)}, 50.0)]
        )
        assert sweep.topology is topology
        assert sweep.execution("s").output("out").final_value == 0

    def test_execution_lookup_unknown_name(self, chain):
        sweep = run_many(chain, [Scenario("s", {"in": Signal.zero()}, 10.0)])
        with pytest.raises(KeyError):
            sweep.execution("nope")

    def test_execution_lookup_is_cached(self, chain):
        sweep = run_many(
            chain,
            [
                Scenario(f"s{i}", {"in": Signal.pulse(1.0, 2.0)}, 50.0)
                for i in range(3)
            ],
        )
        assert sweep.execution("s1") is sweep.runs[1].execution
        assert sweep.__dict__["_by_name"]["s2"] is sweep.runs[2]

    def test_duplicate_scenario_names_rejected(self, chain):
        sweep = run_many(
            chain,
            [
                Scenario("dup", {"in": Signal.zero()}, 10.0),
                Scenario("dup", {"in": Signal.zero()}, 10.0),
            ],
        )
        with pytest.raises(SimulationError, match="duplicate scenario names"):
            sweep.execution("dup")

    def test_duplicate_scenario_error_names_scenario_and_index(self, chain):
        """Regression: the error must say which scenario collides and where."""
        sweep = run_many(
            chain,
            [
                Scenario("a", {"in": Signal.zero()}, 10.0),
                Scenario("dup", {"in": Signal.zero()}, 10.0),
                Scenario("dup", {"in": Signal.zero()}, 10.0),
            ],
        )
        with pytest.raises(
            SimulationError,
            match=r"'dup' at index 2 \(first seen at index 1\)",
        ):
            sweep.execution("a")

    def test_sequential_backend_alias(self, chain):
        scenarios = [
            Scenario(f"w={w}", {"in": Signal.pulse(1.0, w)}, 60.0)
            for w in (0.5, 2.0)
        ]
        default = run_many(chain, scenarios)
        explicit = run_many(chain, scenarios, backend="sequential", max_workers=8)
        for a, b in zip(default, explicit):
            assert a.execution.node_signals == b.execution.node_signals

    def test_channel_override_per_scenario(self, exp_pair, eta_small):
        circuit = fed_back_or(
            EtaInvolutionChannel(exp_pair, eta_small, ZeroAdversary())
        )
        long_pulse = {"i": Signal.pulse(0.0, 5.0)}
        short_pulse = {"i": Signal.pulse(0.0, 0.2)}
        scenarios = [
            Scenario(
                "worst-long",
                long_pulse,
                100.0,
                channels={
                    "feedback": EtaInvolutionChannel(
                        exp_pair, eta_small, WorstCaseAdversary()
                    )
                },
            ),
            Scenario(
                "worst-short",
                short_pulse,
                100.0,
                channels={
                    "feedback": EtaInvolutionChannel(
                        exp_pair, eta_small, WorstCaseAdversary()
                    )
                },
            ),
        ]
        sweep = run_many(circuit, scenarios, max_events=2_000_000)
        assert sweep.execution("worst-long").output_signals["or_out"].final_value == 1
        assert sweep.execution("worst-short").output_signals["or_out"].final_value == 0

    def test_unknown_override_edge_rejected(self, chain):
        scenario = Scenario(
            "bad",
            {"in": Signal.zero()},
            10.0,
            channels={"no-such-edge": PureDelayChannel(1.0)},
        )
        with pytest.raises(SimulationError):
            run_many(chain, [scenario])

    def test_parallel_matches_sequential(self, chain):
        scenarios = [
            Scenario(f"w={w}", {"in": Signal.pulse(1.0, w)}, 60.0)
            for w in (0.5, 1.0, 2.0, 4.0)
        ]
        sequential = run_many(chain, scenarios)
        parallel = run_many(chain, scenarios, max_workers=3)
        for seq_run, par_run in zip(sequential, parallel):
            assert seq_run.execution.output("out") == par_run.execution.output("out")

    def test_unknown_backend_rejected(self, chain):
        with pytest.raises(ValueError, match="backend"):
            run_many(
                chain, [Scenario("s", {"in": Signal.zero()}, 10.0)], backend="mpi"
            )

    def test_records_timing(self, chain):
        sweep = run_many(chain, [Scenario("s", {"in": Signal.pulse(1.0, 2.0)}, 50.0)])
        assert sweep.total_seconds > 0.0
        assert all(run.seconds >= 0.0 for run in sweep)


class TestBackendEquivalence:
    """Fixed seeds => bit-identical executions on every run_many backend."""

    @pytest.fixture()
    def mc_setup(self, exp_pair, eta_small):
        circuit = inverter_chain(
            3, lambda: EtaInvolutionChannel(exp_pair, eta_small, ZeroAdversary())
        )
        inputs = {"in": Signal.pulse_train(1.0, [2.0, 2.0], [3.0])}
        scenarios = eta_monte_carlo(circuit, inputs, 60.0, 8, seed=11)
        return circuit, scenarios

    def test_all_backends_bit_identical(self, mc_setup, tmp_path):
        """Every engine x executor, with and without a store, matches inline
        sequential run for run, in scenario order."""
        circuit, scenarios = mc_setup
        reference = run_many(circuit, scenarios)
        names = [run.scenario.name for run in reference]
        for backend in ("sequential", "vector", "auto"):
            for max_workers in (None, 2):
                for store in (None, tmp_path / f"{backend}-{max_workers}"):
                    case = (backend, max_workers, store)
                    sweep = run_many(
                        circuit,
                        scenarios,
                        backend=backend,
                        max_workers=max_workers,
                        checkpoint=store,
                    )
                    assert [run.scenario.name for run in sweep] == names, case
                    assert sweep.shard_report.executor == (
                        "process" if max_workers else "inline"
                    ), case
                    for ref, run in zip(reference, sweep):
                        a, b = ref.execution, run.execution
                        assert a.node_signals == b.node_signals, case
                        assert a.edge_signals == b.edge_signals, case
                        assert a.event_count == b.event_count, case
                        assert a.dropped_transitions == b.dropped_transitions, case

    def test_process_backend_chunking_preserves_order(self, mc_setup):
        circuit, scenarios = mc_setup
        sequential = run_many(circuit, scenarios)
        chunked = run_many(circuit, scenarios, max_workers=2, chunk_size=3)
        assert chunked.shard_report.chunk_size == 3
        assert len(chunked.shard_report.records) == 3
        for seq, proc in zip(sequential, chunked):
            assert seq.scenario.name == proc.scenario.name
            assert seq.execution.node_signals == proc.execution.node_signals

    def test_process_worker_init_consumes_spec_json(self, mc_setup):
        """The worker initializer rebuilds its engine from CircuitSpec JSON.

        Calls the initializer in-process with exactly what the parent
        ships (the spec JSON text), then checks the rebuilt engine matches
        a parent-side engine run for run: the worker path needs no pickled
        circuit object.
        """
        import repro.engine.shard as shard_module

        circuit, scenarios = mc_setup
        spec_json = circuit.to_spec().to_json(indent=None)
        original = shard_module._SHARD_WORKER
        try:
            shard_module._shard_worker_init(spec_json, "error", 1_000_000, None, None)
            worker_engine = shard_module._SHARD_WORKER["engine"]
            scenario = scenarios[0]
            worker_run = worker_engine.run(
                scenario.inputs, scenario.end_time, channels=scenario.channels
            )
            parent_run = Engine(CircuitTopology(circuit)).run(
                scenario.inputs, scenario.end_time, channels=scenario.channels
            )
            assert worker_run.node_signals == parent_run.node_signals
            assert worker_run.edge_signals == parent_run.edge_signals
        finally:
            shard_module._SHARD_WORKER = original

    def test_process_backend_rejects_unspecable_circuit(self, exp_pair):
        class OpaqueChannel(PureDelayChannel):
            """No registered spec kind -- cannot ship to process workers."""

        circuit = inverter_chain(2, lambda: OpaqueChannel(1.0))
        scenarios = [
            Scenario(f"s{i}", {"in": Signal.pulse(1.0, 2.0)}, 20.0) for i in range(2)
        ]
        with pytest.raises(SimulationError, match="CircuitSpec"):
            run_many(circuit, scenarios, max_workers=2)
        # The same circuit still runs inline.
        assert len(run_many(circuit, scenarios)) == 2

    def test_process_backend_rejects_unpicklable_scenarios(self, chain):
        captured = []  # a closure makes the override channel unpicklable

        class ClosureChannel(PureDelayChannel):
            def delay_for(self, T, rising_output, index, time):
                captured.append(index)
                return super().delay_for(T, rising_output, index, time)

        first_edge = next(iter(chain.edges))
        scenarios = [
            Scenario(
                f"s{i}",
                {"in": Signal.pulse(1.0, 2.0)},
                50.0,
                channels={first_edge: ClosureChannel(1.0)},
            )
            for i in range(2)
        ]
        with pytest.raises(SimulationError, match="picklable"):
            run_many(chain, scenarios, max_workers=2, retry=1)

    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_empty_sweep_returns_empty_result(self, chain, max_workers):
        sweep = run_many(chain, [], max_workers=max_workers)
        assert len(sweep) == 0
        assert sweep.backend is None
        assert sweep.shard_report.records == ()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_removed_backend_names_point_at_max_workers(self, chain, backend):
        with pytest.raises(ValueError, match="max_workers="):
            run_many(
                chain, [Scenario("s", {"in": Signal.zero()}, 10.0)], backend=backend
            )


class TestChannelOverrides:
    def test_skips_zero_delay_edges(self, chain, exp_pair):
        overrides = channel_overrides(
            chain, lambda edge: InvolutionChannel(exp_pair)
        )
        # The 4-stage chain has 4 factory channels plus the zero-delay out tap.
        assert len(overrides) == 4
        assert all(isinstance(c, InvolutionChannel) for c in overrides.values())

    def test_factory_none_keeps_base_channel(self, chain):
        overrides = channel_overrides(chain, lambda edge: None)
        assert overrides == {}


class TestEtaMonteCarlo:
    def test_scenarios_are_deterministic_per_seed(self, exp_pair, eta_small):
        circuit = inverter_chain(
            3, lambda: EtaInvolutionChannel(exp_pair, eta_small, ZeroAdversary())
        )
        inputs = {"in": Signal.pulse(1.0, 4.0)}
        first = run_many(circuit, eta_monte_carlo(circuit, inputs, 60.0, 5, seed=3))
        second = run_many(circuit, eta_monte_carlo(circuit, inputs, 60.0, 5, seed=3))
        other = run_many(circuit, eta_monte_carlo(circuit, inputs, 60.0, 5, seed=4))
        firsts = [r.execution.output("out").transition_times() for r in first]
        seconds = [r.execution.output("out").transition_times() for r in second]
        others = [r.execution.output("out").transition_times() for r in other]
        assert firsts == seconds
        assert firsts != others

    def test_runs_differ_from_each_other(self, exp_pair, eta_small):
        circuit = inverter_chain(
            3, lambda: EtaInvolutionChannel(exp_pair, eta_small, ZeroAdversary())
        )
        inputs = {"in": Signal.pulse(1.0, 4.0)}
        sweep = run_many(circuit, eta_monte_carlo(circuit, inputs, 60.0, 4, seed=9))
        outputs = {
            tuple(r.execution.output("out").transition_times()) for r in sweep
        }
        assert len(outputs) > 1  # independent adversaries per run

    def test_non_eta_edges_keep_base_channel(self, exp_pair):
        circuit = inverter_chain(3, lambda: InvolutionChannel(exp_pair))
        scenarios = eta_monte_carlo(circuit, {"in": Signal.zero()}, 10.0, 2)
        assert all(s.channels == {} for s in scenarios)


class TestEngineReuse:
    def test_engine_run_is_repeatable(self, chain):
        engine = Engine(CircuitTopology(chain))
        inputs = {"in": Signal.pulse(1.0, 2.0)}
        first = engine.run(inputs, 50.0)
        second = engine.run(inputs, 50.0)
        assert first.output("out") == second.output("out")
        assert first.event_count == second.event_count
