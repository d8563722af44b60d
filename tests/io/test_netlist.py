"""JSON netlist load/save round-trips and golden-file checks."""

import json
import re
from pathlib import Path

import pytest

from repro import api
from repro.circuits import Circuit, inverter_chain
from repro.core import Signal
from repro.io.netlist import (
    Netlist,
    load_netlist,
    netlist_from_dict,
    netlist_to_dict,
    save_netlist,
    signal_from_dict,
    signal_to_dict,
)
from repro.specs import ChannelSpec, SpecError

GOLDEN = Path(__file__).parent / "golden"
EXAMPLES = Path(__file__).parents[2] / "examples" / "netlists"


class TestSignalSerialisation:
    def test_transition_list_round_trip(self):
        signal = Signal.pulse_train(1.0, [2.0, 1.0], [3.0])
        assert signal_from_dict(signal_to_dict(signal)) == signal

    def test_constant_round_trip(self):
        assert signal_from_dict(signal_to_dict(Signal.one())) == Signal.one()

    def test_pulse_shorthand(self):
        assert signal_from_dict({"pulse": {"start": 1.0, "length": 2.0}}) == Signal.pulse(1.0, 2.0)

    def test_pulse_train_shorthand(self):
        data = {"pulse_train": {"start": 1.0, "widths": [2.0, 1.0], "gaps": [3.0]}}
        assert signal_from_dict(data) == Signal.pulse_train(1.0, [2.0, 1.0], [3.0])

    @pytest.mark.parametrize(
        "data, named",
        [
            (5, "signal=5 must be an object"),
            ({"transitionsx": [[1.0, 1]]}, "'transitionsx'"),
            ({"pulse": {"start": 1.0, "length": 3.0, "polaritx": 0}}, "'polaritx'"),
            ({"pulse": {"start": 1.0, "length": 3.0}, "transitions": [[9.0, 1]]},
             "'transitions'"),
            ({"pulse_train": {"widths": [1.0], "gaps": []}, "initial_value": 1},
             "'initial_value'"),
            ({"pulse_train": {"widths": [1.0], "gaps": [], "gapz": []}}, "'gapz'"),
        ],
    )
    def test_key_it_does_not_read_is_named(self, data, named):
        """One form per dict: a misspelt key or a second form's key is an
        error, never a constant signal or a silently dropped field."""
        with pytest.raises(TypeError, match=re.escape(named)):
            signal_from_dict(data)


class TestNetlistRoundTrip:
    def _chain(self):
        return inverter_chain(3, ChannelSpec.exp_involution(1.0, 0.5))

    def test_save_load_round_trip(self, tmp_path):
        circuit = self._chain()
        inputs = {"in": Signal.pulse(1.0, 3.0)}
        path = save_netlist(circuit, tmp_path / "c.json", inputs=inputs, end_time=50.0)
        netlist = load_netlist(path)
        assert netlist.circuit == circuit.to_spec()
        assert netlist.inputs == inputs
        assert netlist.end_time == 50.0

    def test_round_trip_simulates_identically(self, tmp_path):
        circuit = self._chain()
        inputs = {"in": Signal.pulse_train(1.0, [3.0, 0.8], [4.0])}
        path = save_netlist(circuit, tmp_path / "c.json", inputs=inputs, end_time=40.0)
        netlist = load_netlist(path)
        a = api.simulate(circuit, inputs, 40.0)
        b = api.simulate(netlist.circuit, netlist.inputs, netlist.end_time)
        assert a.node_signals == b.node_signals
        assert a.edge_signals == b.edge_signals
        assert a.event_count == b.event_count

    def test_bare_circuit_spec_dict_accepted(self):
        netlist = netlist_from_dict(self._chain().to_spec().to_dict())
        assert isinstance(netlist, Netlist)
        assert netlist.inputs == {} and netlist.end_time is None

    def test_wrong_format_rejected(self):
        with pytest.raises(SpecError, match="format"):
            netlist_from_dict({"format": "spice", "circuit": {}})

    def test_newer_version_rejected(self):
        data = netlist_to_dict(self._chain())
        data["version"] = 99
        with pytest.raises(SpecError, match="version"):
            netlist_from_dict(data)

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="JSON"):
            load_netlist(path)

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("version", "x", "/version"),
            ("version", "1", "/version"),
            ("version", 1.9, "/version"),
            ("version", True, "/version"),
            ("end_time", [], "/end_time"),
            ("end_time", True, "/end_time"),
            ("end_time", "60", "/end_time"),
            ("inputs", 1, "/inputs"),
            ("inputs", 0, "/inputs"),
            ("inputs", [], "/inputs"),
            ("inputs", False, "/inputs"),
            ("inputs", "", "/inputs"),
            ("inputs", {"in": {"transitions": [[1.0]]}}, "/inputs/in"),
            ("inputs", {"in": {"initial_value": -1}}, "/inputs/in"),
            ("end_time", float("nan"), "/end_time"),
            ("end_time", -5, "/end_time"),
            ("inputs", {"in": {"pulse": {"start": "1", "length": 3.0}}}, "/inputs/in"),
            ("inputs", {"in": {"pulse": {"start": 1.0, "length": True}}}, "/inputs/in"),
            ("inputs", {"in": {"pulse": {"start": 1.0, "length": 3.0, "polarity": "1"}}},
             "/inputs/in"),
            ("inputs", {"in": {"pulse_train": {"widths": ["1"], "gaps": []}}}, "/inputs/in"),
            ("inputs", {"in": {"pulse_train": {"widths": [1.0], "gaps": [],
                                               "initial_value": 0.0}}}, "/inputs/in"),
            ("inputs", {"in": {"transitions": [[True, 1]]}}, "/inputs/in"),
            ("inputs", {"in": {"transitions": [[1.0, 1.0]]}}, "/inputs/in"),
            ("inputs", {"in": {"initial_value": "0"}}, "/inputs/in"),
            ("inputs", {"in": {"initial_value": True}}, "/inputs/in"),
            ("metadata", "x", "/metadata"),
            ("metadata", 0, "/metadata"),
            ("metadata", [], "/metadata"),
            ("metadata", False, "/metadata"),
            ("metadata", "", "/metadata"),
            ("inputs", {"in": 5}, "/inputs/in"),
            ("inputs", {"in": {"transitionsx": [[1.0, 1]]}}, "/inputs/in"),
            ("inputs", {"in": {"pulse": {"start": 1.0, "length": 3.0, "polaritx": 0}}},
             "/inputs/in"),
            ("inputs", {"in": {"pulse": {"start": 1.0, "length": 3.0},
                               "transitions": [[9.0, 1]]}}, "/inputs/in"),
            ("inputs", {"in": {"pulse": [1.0, 3.0]}}, "/inputs/in"),
            ("inputs", {"in": {"pulse_train": {"widths": [1.0], "gaps": [], "gapz": []}}},
             "/inputs/in"),
        ],
    )
    def test_envelope_field_that_does_not_decode_is_named(self, field, value, where):
        data = netlist_to_dict(self._chain(), end_time=10.0)
        data[field] = value
        with pytest.raises(SpecError, match=rf"\(at {where}\)$"):
            netlist_from_dict(data)

    def test_circuit_that_is_not_an_object_rejected(self):
        with pytest.raises(SpecError, match="'circuit' field is not an object"):
            netlist_from_dict({"circuit": None})


class TestGoldenFiles:
    """Committed netlists must keep loading and producing the same outputs."""

    def test_golden_netlist_simulates_to_expected_outputs(self):
        netlist = load_netlist(GOLDEN / "inverter_chain_3.json")
        expected = json.loads((GOLDEN / "inverter_chain_3.expected.json").read_text())
        execution = api.simulate(netlist.circuit, netlist.inputs, netlist.end_time)
        assert execution.event_count == expected["event_count"]
        for name, golden_signal in expected["outputs"].items():
            signal = execution.output_signals[name]
            assert signal.initial_value == golden_signal["initial_value"]
            assert [t.value for t in signal] == [
                v for _, v in golden_signal["transitions"]
            ]
            assert [t.time for t in signal] == pytest.approx(
                [t for t, _ in golden_signal["transitions"]], rel=1e-9
            )

    def test_golden_netlist_round_trips_textually(self, tmp_path):
        """save(load(golden)) reproduces the committed JSON byte-for-byte."""
        source = GOLDEN / "inverter_chain_3.json"
        netlist = load_netlist(source)
        rewritten = save_netlist(
            netlist.circuit,
            tmp_path / "rewritten.json",
            inputs=netlist.inputs,
            end_time=netlist.end_time,
            metadata=netlist.metadata,
        )
        assert rewritten.read_text() == source.read_text()

    @pytest.mark.parametrize("name", ["inverter_chain.json", "spf.json"])
    def test_example_netlists_load_and_validate(self, name):
        netlist = load_netlist(EXAMPLES / name)
        circuit = netlist.build()
        circuit.validate()
        assert netlist.end_time is not None
        assert set(netlist.inputs) == {p.name for p in circuit.input_ports()}

    def test_example_inverter_chain_simulates(self):
        netlist = load_netlist(EXAMPLES / "inverter_chain.json")
        execution = api.simulate(netlist.circuit, netlist.inputs, netlist.end_time)
        # 4 input pulses through an odd-length chain: all survive inverted.
        assert len(execution.output_signals["out"]) == 8


class TestCircuitFromSpecEntryPoint:
    def test_circuit_from_spec_accepts_dict(self):
        circuit = inverter_chain(2, ChannelSpec.exp_involution(1.0, 0.5))
        rebuilt = Circuit.from_spec(circuit.to_spec().to_dict())
        assert rebuilt.to_spec() == circuit.to_spec()
