"""Unit tests for circuit construction and validation."""

import pickle

import pytest

from repro.circuits import (
    AND2,
    BUF,
    INV,
    OR2,
    Circuit,
    CircuitError,
    GateType,
    buffer_chain,
    fed_back_or,
    glitch_generator,
    inverter_chain,
    sr_latch_nor,
)
from repro.circuits.circuit import IncompleteCircuitError
from repro.core import PureDelayChannel, ZeroDelayChannel


def small_circuit() -> Circuit:
    circuit = Circuit("small")
    circuit.add_input("a")
    circuit.add_gate("g", BUF, initial_value=0)
    circuit.add_output("y")
    circuit.connect("a", "g", PureDelayChannel(1.0), pin=0)
    circuit.connect("g", "y")
    return circuit


def _self_loop() -> Circuit:
    circuit = Circuit("self_loop")
    circuit.add_input("i")
    circuit.add_gate("or", OR2)
    circuit.add_output("o")
    circuit.connect("i", "or", pin=0)
    circuit.connect("or", "or", PureDelayChannel(1.0), pin=1)
    circuit.connect("or", "o")
    return circuit


def _parallel_edges(loop: bool) -> Circuit:
    """Both AND pins driven by one node: by the input, or by a gate fed back."""
    circuit = Circuit("parallel_loop" if loop else "parallel")
    circuit.add_input("a")
    circuit.add_gate("buf", BUF)
    circuit.add_gate("and", AND2)
    circuit.add_output("y")
    circuit.connect("a", "buf")
    source = "and" if loop else "buf"
    circuit.connect(source, "and", PureDelayChannel(1.0), pin=0)
    circuit.connect(source, "and", PureDelayChannel(2.0), pin=1)
    circuit.connect("and", "y")
    return circuit


def _two_gate_loop() -> Circuit:
    circuit = Circuit("two_gate_loop")
    circuit.add_input("i")
    circuit.add_gate("or", OR2)
    circuit.add_gate("buf", BUF)
    circuit.add_output("o")
    circuit.connect("i", "or", pin=0)
    circuit.connect("or", "buf", PureDelayChannel(1.0))
    circuit.connect("buf", "or", PureDelayChannel(1.0), pin=1)
    circuit.connect("buf", "o")
    return circuit


#: Circuits with and without cycles: self-loops, parallel edges and the library.
FEEDBACK_CASES = {
    "small": small_circuit,
    "self_loop": _self_loop,
    "parallel": lambda: _parallel_edges(loop=False),
    "parallel_loop": lambda: _parallel_edges(loop=True),
    "two_gate_loop": _two_gate_loop,
    "inverter_chain": lambda: inverter_chain(3, lambda: PureDelayChannel(1.0)),
    "buffer_chain": lambda: buffer_chain(3, lambda: PureDelayChannel(1.0)),
    "fed_back_or": lambda: fed_back_or(PureDelayChannel(1.0)),
    "sr_latch_nor": lambda: sr_latch_nor(lambda: PureDelayChannel(1.0)),
    "glitch_generator": lambda: glitch_generator(PureDelayChannel(1.0), ZeroDelayChannel()),
}


class TestConstruction:
    def test_summary_counts(self):
        circuit = small_circuit()
        assert "1 inputs" in circuit.summary()
        assert "1 gates" in circuit.summary()

    def test_duplicate_node_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_gate("a", BUF)

    def test_unknown_nodes_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.connect("a", "nonexistent")
        with pytest.raises(CircuitError):
            circuit.connect("nonexistent", "a")

    def test_output_port_cannot_drive(self):
        circuit = Circuit()
        circuit.add_output("y")
        circuit.add_gate("g", BUF)
        with pytest.raises(CircuitError):
            circuit.connect("y", "g")

    def test_input_port_cannot_be_driven(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", BUF)
        with pytest.raises(CircuitError):
            circuit.connect("g", "a")

    def test_pin_range_checked(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", OR2)
        with pytest.raises(CircuitError):
            circuit.connect("a", "g", pin=2)

    def test_double_driver_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g", BUF)
        circuit.connect("a", "g", pin=0)
        with pytest.raises(CircuitError):
            circuit.connect("b", "g", pin=0)

    def test_default_channel_is_zero_delay(self):
        circuit = small_circuit()
        edge = circuit.edges_into("y")[0]
        assert isinstance(edge.channel, ZeroDelayChannel)

    def test_gate_initial_value_validated(self):
        circuit = Circuit()
        with pytest.raises(CircuitError):
            circuit.add_gate("g", BUF, initial_value=2)

    def test_input_initial_value_validated(self):
        circuit = Circuit()
        with pytest.raises(CircuitError, match="input initial value"):
            circuit.add_input("a", initial_value=-1)

    def test_duplicate_edge_name_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", OR2)
        circuit.connect("a", "g", pin=0, name="e")
        circuit.add_input("b")
        with pytest.raises(CircuitError):
            circuit.connect("b", "g", pin=1, name="e")


class TestValidationAndQueries:
    def test_valid_circuit_passes(self):
        small_circuit().validate()

    def test_undriven_gate_pin_detected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", OR2)
        circuit.add_output("y")
        circuit.connect("a", "g", pin=0)
        circuit.connect("g", "y")
        with pytest.raises(CircuitError):
            circuit.validate()

    def test_missing_ports_detected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", BUF)
        circuit.connect("a", "g", pin=0)
        with pytest.raises(CircuitError):
            circuit.validate()

    def test_output_needs_exactly_one_driver(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_output("y")
        with pytest.raises(CircuitError):
            circuit.validate()

    def test_edges_into_sorted_by_pin(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g", OR2)
        circuit.connect("b", "g", pin=1)
        circuit.connect("a", "g", pin=0)
        pins = [e.pin for e in circuit.edges_into("g")]
        assert pins == [0, 1]

    def test_fan_in(self):
        circuit = small_circuit()
        assert circuit.fan_in("g") == 1
        assert circuit.fan_in("y") == 1

    def test_feedback_detection(self):
        circuit = Circuit()
        circuit.add_input("i")
        circuit.add_gate("or", OR2, initial_value=0)
        circuit.add_output("o")
        circuit.connect("i", "or", pin=0)
        circuit.connect("or", "or", PureDelayChannel(1.0), pin=1)
        circuit.connect("or", "o")
        assert circuit.has_feedback()
        assert not small_circuit().has_feedback()

    @pytest.mark.parametrize("name", sorted(FEEDBACK_CASES))
    def test_feedback_detection_agrees_with_networkx(self, name):
        nx = pytest.importorskip("networkx")
        circuit = FEEDBACK_CASES[name]()
        assert circuit.has_feedback() == (
            not nx.is_directed_acyclic_graph(circuit.to_networkx())
        )

    def test_to_networkx(self):
        graph = small_circuit().to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 2

    def test_node_and_edge_lookup(self):
        circuit = small_circuit()
        assert circuit.node("g").name == "g"
        with pytest.raises(CircuitError):
            circuit.node("nope")
        edge_name = next(iter(circuit.edges))
        assert circuit.edge(edge_name).name == edge_name
        with pytest.raises(CircuitError):
            circuit.edge("nope")


#: What a JSON document may hold where an int belongs: bools, floats, strings.
NOT_INTS = [True, False, 1.0, 0.5, "1"]


class TestValuesAreNotCoerced:
    """``Circuit`` and ``GateType`` decide what is well-formed: a value
    ``int()`` would convert is an error, and the error names its field."""

    @pytest.mark.parametrize("value", NOT_INTS)
    def test_initial_value(self, value):
        circuit = Circuit()
        with pytest.raises(CircuitError, match="input initial value must be 0 or 1") as info:
            circuit.add_input("a", initial_value=value)
        assert info.value.field == "initial_value"
        with pytest.raises(CircuitError, match="gate initial value must be 0 or 1"):
            circuit.add_gate("g", BUF, initial_value=value)

    @pytest.mark.parametrize("value", NOT_INTS)
    def test_pin(self, value):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("g", OR2)
        with pytest.raises(CircuitError, match="pin must be an integer") as info:
            circuit.connect("a", "g", pin=value)
        assert info.value.field == "pin"
        assert pickle.loads(pickle.dumps(info.value)).field == "pin"

    @pytest.mark.parametrize("value", NOT_INTS)
    def test_arity(self, value):
        with pytest.raises(ValueError, match="arity must be an integer"):
            GateType("g", value, lambda v: 0)
        with pytest.raises(ValueError, match="arity must be an integer"):
            GateType.from_truth_table("g", value, {(0,): 1})

    @pytest.mark.parametrize(
        "table",
        [{(0, 0): 1}, {(): 1}, {(0,): 2}, {(0,): -1}, {(0,): True}, {(0,): "1"}, {("0",): 1}],
        ids=["long-row", "short-row", "output-2", "output-minus-1", "output-bool",
             "output-str", "input-str"],
    )
    def test_truth_table_row(self, table):
        with pytest.raises(ValueError, match="truth-table row"):
            GateType.from_truth_table("g", 1, table)

    @pytest.mark.parametrize("name", [5, True, ["a"]])
    def test_names_are_strings(self, name):
        circuit = Circuit()
        with pytest.raises(CircuitError, match="node name must be a string"):
            circuit.add_input(name)
        circuit.add_input("a")
        circuit.add_output("y")
        with pytest.raises(CircuitError, match="edge name must be a string"):
            circuit.connect("a", "y", name=name)

    def test_validate_names_every_defect(self):
        circuit = Circuit()
        circuit.add_gate("g", OR2)
        circuit.add_output("y")
        circuit.add_output("z")
        with pytest.raises(IncompleteCircuitError) as info:
            circuit.validate()
        assert [d.node for d in info.value.defects] == ["g", "y", "z", None]
        assert str(info.value) == "; ".join(str(d) for d in info.value.defects)
        assert str(info.value).startswith("gate 'g' has undriven input pins [0, 1]; ")
        assert str(info.value).endswith("; circuit has no input ports")
