"""Tests for the `repro.api` facade."""

import pytest

from repro import api
from repro.circuits import Circuit, inverter_chain
from repro.core import Signal
from repro.engine import CircuitTopology, Scenario
from repro.io.netlist import save_netlist
from repro.specs import ChannelSpec


@pytest.fixture()
def chain_spec():
    return inverter_chain(3, ChannelSpec.exp_eta_involution(1.0, 0.5, (0.05, 0.05))).to_spec()


class TestBuild:
    def test_build_from_spec(self, chain_spec):
        circuit = api.build(chain_spec)
        assert isinstance(circuit, Circuit)
        assert circuit.to_spec() == chain_spec

    def test_build_from_dict(self, chain_spec):
        assert api.build(chain_spec.to_dict()).to_spec() == chain_spec

    def test_build_passes_circuits_through(self, chain_spec):
        circuit = chain_spec.build()
        assert api.build(circuit) is circuit

    def test_build_from_netlist_path(self, chain_spec, tmp_path):
        path = save_netlist(chain_spec, tmp_path / "c.json")
        assert api.build(path).to_spec() == chain_spec
        assert api.build(str(path)).to_spec() == chain_spec


class TestSimulate:
    def test_simulate_spec_matches_circuit(self, chain_spec):
        inputs = {"in": Signal.pulse(1.0, 3.0)}
        a = api.simulate(chain_spec, inputs, 60.0)
        b = api.simulate(chain_spec.build(), inputs, 60.0)
        assert a.output("out") == b.output("out")

    def test_simulate_coerces_signal_dicts(self, chain_spec):
        a = api.simulate(
            chain_spec, {"in": {"pulse": {"start": 1.0, "length": 3.0}}}, 60.0
        )
        b = api.simulate(chain_spec, {"in": Signal.pulse(1.0, 3.0)}, 60.0)
        assert a.output("out") == b.output("out")


class TestSweep:
    def test_sweep_from_spec(self, chain_spec):
        scenarios = [
            Scenario(f"w={w}", {"in": Signal.pulse(1.0, w)}, 60.0)
            for w in (1.0, 2.0, 4.0)
        ]
        result = api.sweep(chain_spec, scenarios)
        assert len(result) == 3
        for run in result:
            reference = api.simulate(chain_spec, run.scenario.inputs, 60.0)
            assert run.execution.output("out") == reference.output("out")

    def test_sweep_accepts_prebuilt_topology(self, chain_spec):
        topology = CircuitTopology(chain_spec.build())
        result = api.sweep(
            topology, [Scenario("s", {"in": Signal.pulse(1.0, 2.0)}, 50.0)]
        )
        assert result.topology is topology

    def test_monte_carlo_end_to_end(self, chain_spec):
        circuit, scenarios = api.monte_carlo(
            chain_spec, {"in": Signal.pulse(1.0, 4.0)}, 60.0, 4, seed=9
        )
        assert len(scenarios) == 4
        sequential = api.sweep(circuit, scenarios)
        process = api.sweep(circuit, scenarios, max_workers=2)
        for seq, proc in zip(sequential, process):
            assert seq.execution.node_signals == proc.execution.node_signals
