"""Unit and property-based tests for the declarative spec layer."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, fed_back_or, glitch_generator, inverter_chain
from repro.circuits.gates import GateType
from repro.core import (
    DegradationDelayChannel,
    EtaBound,
    EtaInvolutionChannel,
    InertialDelayChannel,
    InvolutionChannel,
    InvolutionPair,
    PureDelayChannel,
    RandomAdversary,
    SequenceAdversary,
    Signal,
    SineAdversary,
    TableDelay,
    WorstCaseAdversary,
    ZeroAdversary,
    ZeroDelayChannel,
    admissible_eta_bound,
)
from repro.specs import (
    AdversarySpec,
    ChannelSpec,
    CircuitSpec,
    DelaySpec,
    ExperimentSpec,
    SpecError,
    UnknownKindError,
    as_channel,
    as_channel_factory,
    as_eta,
    as_pair,
    pair_from_dict,
    register_channel_kind,
)


# --------------------------------------------------------------------------- #
# Channel specs
# --------------------------------------------------------------------------- #


CHANNEL_EXAMPLES = [
    ZeroDelayChannel(),
    ZeroDelayChannel(inverting=True),
    PureDelayChannel(1.5),
    PureDelayChannel(1.5, 2.0, inverting=True),
    InertialDelayChannel(1.0, 0.4),
    DegradationDelayChannel(2.0, 1.5, 0.1),
    InvolutionChannel(InvolutionPair.exp_channel(1.0, 0.5)),
    InvolutionChannel(InvolutionPair.exp_channel(0.8, 0.4, 0.6), inverting=True),
    EtaInvolutionChannel(
        InvolutionPair.exp_channel(1.0, 0.5), EtaBound(0.05, 0.1), ZeroAdversary()
    ),
    EtaInvolutionChannel(
        InvolutionPair.exp_channel(1.0, 0.5),
        EtaBound(0.05, 0.1),
        RandomAdversary(seed=42, distribution="gaussian", sigma_fraction=0.3),
    ),
    EtaInvolutionChannel(
        InvolutionPair.exp_channel(1.0, 0.5),
        EtaBound(0.02, 0.02),
        SineAdversary(period=10.0, phase=0.5, amplitude_fraction=0.8),
    ),
    EtaInvolutionChannel(
        InvolutionPair.exp_channel(1.0, 0.5),
        EtaBound(0.05, 0.1),
        SequenceAdversary([0.01, -0.02, 0.0], fill=0.01),
    ),
    EtaInvolutionChannel(
        InvolutionPair.exp_channel(1.0, 0.5),
        EtaBound(0.05, 0.1),
        WorstCaseAdversary(),
        name="c",
    ),
]


class TestChannelSpecRoundTrip:
    @pytest.mark.parametrize(
        "channel", CHANNEL_EXAMPLES, ids=lambda c: f"{type(c).__name__}"
    )
    def test_spec_round_trip_is_stable(self, channel):
        spec = ChannelSpec.from_channel(channel)
        rebuilt = spec.build()
        assert type(rebuilt) is type(channel)
        assert rebuilt.name == channel.name
        assert ChannelSpec.from_channel(rebuilt) == spec

    @pytest.mark.parametrize(
        "channel", CHANNEL_EXAMPLES, ids=lambda c: f"{type(c).__name__}"
    )
    def test_json_round_trip(self, channel):
        spec = ChannelSpec.from_channel(channel)
        assert ChannelSpec.from_json(spec.to_json()) == spec
        # canonical JSON => usable as a hash key
        assert hash(ChannelSpec.from_json(spec.to_json())) == hash(spec)

    @pytest.mark.parametrize(
        "channel",
        [c for c in CHANNEL_EXAMPLES if not isinstance(c, ZeroDelayChannel)],
        ids=lambda c: f"{type(c).__name__}",
    )
    def test_rebuilt_channel_is_behaviourally_identical(self, channel):
        spec = ChannelSpec.from_channel(channel)
        # Well separated pulses plus one narrow one: exercises cancellation
        # without triggering same-instant causality corner cases.
        stimulus = Signal.pulse_train(1.0, [3.0, 0.7, 3.0], [4.0, 4.0])
        channel.reset()
        expected = channel(stimulus)
        assert spec.build()(stimulus) == expected

    def test_table_delay_pair_round_trips(self):
        base = InvolutionPair.exp_channel(1.0, 0.5)
        T = [-0.4, 0.0, 0.5, 1.0, 2.0, 4.0]
        pair = InvolutionPair.from_samples(
            T, [base.delta_up(t) for t in T], T, [base.delta_down(t) for t in T]
        )
        channel = InvolutionChannel(pair)
        spec = ChannelSpec.from_channel(channel)
        rebuilt = spec.build()
        assert isinstance(rebuilt.pair.delta_up, TableDelay)
        stimulus = Signal.pulse(1.0, 2.0)
        assert rebuilt(stimulus) == channel(stimulus)
        assert ChannelSpec.from_channel(rebuilt) == spec

    def test_unregistered_channel_raises(self):
        class CustomChannel(PureDelayChannel):
            pass

        with pytest.raises(SpecError, match="register"):
            ChannelSpec.from_channel(CustomChannel(1.0))

    def test_extension_hook(self):
        class DoubleDelayChannel(PureDelayChannel):
            def delay_for(self, T, rising_output, index, time):
                return 2.0 * super().delay_for(T, rising_output, index, time)

        register_channel_kind(
            "double-test",
            lambda p: DoubleDelayChannel(float(p["delay"])),
            channel_class=DoubleDelayChannel,
            extractor=lambda c: {"delay": c.rising_delay},
            replace=True,
        )
        spec = ChannelSpec.from_channel(DoubleDelayChannel(1.5))
        assert spec.kind == "double-test"
        rebuilt = spec.build()
        assert isinstance(rebuilt, DoubleDelayChannel)
        assert rebuilt.rising_delay == 1.5

    def test_unknown_kind_raises(self):
        with pytest.raises(SpecError, match="unknown channel kind"):
            ChannelSpec("no-such-kind").build()

    @pytest.mark.parametrize(
        "build, registry, kind",
        [
            (lambda: ChannelSpec("no-such-kind").build(), "channel", "no-such-kind"),
            (lambda: ChannelSpec.from_dict({"kind": ["pure"]}), "channel", ["pure"]),
            (lambda: ChannelSpec.from_dict({"delay": 1.0}), "channel", None),
            (lambda: AdversarySpec.from_dict({"kind": {}}), "adversary", {}),
            (lambda: DelaySpec("warp").build(), "delay", "warp"),
            (lambda: pair_from_dict({"kind": "spline"}), "involution-pair", "spline"),
            (lambda: ExperimentSpec(7), "experiment", 7),
        ],
        ids=["channel", "list-kind", "missing-kind", "adversary", "delay", "pair", "experiment"],
    )
    def test_unknown_kind_error_names_its_registry_and_the_kind(self, build, registry, kind):
        with pytest.raises(UnknownKindError) as info:
            build()
        assert (info.value.registry, info.value.kind) == (registry, kind)
        assert str(info.value).startswith(f"unknown {registry} kind {kind!r}; registered: [")
        copy = pickle.loads(pickle.dumps(info.value))
        assert (copy.registry, copy.kind, str(copy)) == (registry, kind, str(info.value))

    def test_build_returns_fresh_instances(self):
        spec = ChannelSpec.from_channel(
            EtaInvolutionChannel(
                InvolutionPair.exp_channel(1.0, 0.5),
                EtaBound(0.05, 0.1),
                RandomAdversary(seed=3),
            )
        )
        a, b = spec.build(), spec.build()
        assert a is not b
        assert a.adversary is not b.adversary


class TestSpecValueSemantics:
    def test_equality_ignores_param_order(self):
        a = ChannelSpec("pure", {"delay": 1.0, "inverting": False})
        b = ChannelSpec("pure", {"inverting": False, "delay": 1.0})
        assert a == b and hash(a) == hash(b)

    def test_different_params_differ(self):
        assert ChannelSpec("pure", delay=1.0) != ChannelSpec("pure", delay=2.0)

    def test_specs_are_immutable(self):
        spec = ChannelSpec("pure", delay=1.0)
        with pytest.raises(AttributeError):
            spec.kind = "other"

    def test_specs_are_dict_keys(self):
        seen = {ChannelSpec("pure", delay=1.0): "a"}
        assert seen[ChannelSpec("pure", {"delay": 1.0})] == "a"

    def test_non_json_params_rejected(self):
        with pytest.raises(SpecError, match="JSON"):
            ChannelSpec("pure", delay=object())


# --------------------------------------------------------------------------- #
# Coercion helpers
# --------------------------------------------------------------------------- #


class TestCoercions:
    def test_as_channel_accepts_dict(self):
        channel = as_channel({"kind": "pure", "delay": 2.0})
        assert isinstance(channel, PureDelayChannel)
        assert channel.rising_delay == 2.0

    def test_as_channel_factory_from_spec_builds_fresh(self):
        factory = as_channel_factory(ChannelSpec("pure", delay=1.0))
        assert factory() is not factory()

    def test_as_channel_factory_passes_callables_through(self):
        sentinel = PureDelayChannel(1.0)
        factory = as_channel_factory(lambda: sentinel)
        assert factory() is sentinel

    def test_as_channel_factory_coerces_instances_to_fresh_copies(self):
        """Channels are callable; an instance must not be taken as a factory."""
        channel = InvolutionChannel(InvolutionPair.exp_channel(1.0, 0.5))
        factory = as_channel_factory(channel)
        a, b = factory(), factory()
        assert type(a) is InvolutionChannel
        assert a is not b and a is not channel
        # and the library builders accept instances the same way
        circuit = inverter_chain(2, channel)
        edge_channels = [
            e.channel for e in circuit.edges.values()
            if isinstance(e.channel, InvolutionChannel)
        ]
        assert len(edge_channels) == 2
        assert edge_channels[0] is not edge_channels[1]

    def test_as_pair_from_dict(self):
        pair = as_pair({"kind": "exp", "tau": 1.0, "t_p": 0.5})
        assert pair.delta_min == pytest.approx(0.5)

    def test_as_eta_forms(self):
        assert as_eta(EtaBound(0.1, 0.2)) == EtaBound(0.1, 0.2)
        assert as_eta({"eta_plus": 0.1, "eta_minus": 0.2}) == EtaBound(0.1, 0.2)
        assert as_eta((0.1, 0.2)) == EtaBound(0.1, 0.2)

    def test_delay_spec_round_trip(self):
        from repro.core import ExpDelay

        fn = ExpDelay(1.0, 0.5, 0.6, rising=False)
        spec = DelaySpec.from_delay(fn)
        rebuilt = spec.build()
        for T in (0.0, 0.5, 2.0, 10.0):
            assert rebuilt(T) == fn(T)

    def test_adversary_spec_random_seed_round_trip(self):
        import numpy as np

        seq = np.random.SeedSequence(1234).spawn(3)[1]
        adversary = RandomAdversary(seed=seq)
        spec = AdversarySpec.from_adversary(adversary)
        rebuilt = spec.build()
        bound = EtaBound(0.1, 0.1)
        first = [adversary.choose(i, 0.0, True, 0.0, bound) for i in range(5)]
        second = [rebuilt.choose(i, 0.0, True, 0.0, bound) for i in range(5)]
        assert first == second


# --------------------------------------------------------------------------- #
# Circuit specs
# --------------------------------------------------------------------------- #


def _eta_spec():
    pair = InvolutionPair.exp_channel(1.0, 0.5)
    eta = admissible_eta_bound(pair, 0.05)
    return ChannelSpec.exp_eta_involution(1.0, 0.5, eta)


class TestCircuitSpec:
    def test_round_trip_is_a_fixed_point(self):
        circuit = inverter_chain(4, _eta_spec(), expose_taps=True)
        spec = circuit.to_spec()
        again = Circuit.from_spec(spec).to_spec()
        assert spec == again and hash(spec) == hash(again)

    def test_round_trip_preserves_node_and_edge_order(self):
        circuit = fed_back_or(_eta_spec().build())
        rebuilt = Circuit.from_spec(circuit.to_spec())
        assert list(rebuilt.nodes) == list(circuit.nodes)
        assert list(rebuilt.edges) == list(circuit.edges)

    def test_json_round_trip(self):
        circuit = inverter_chain(3, _eta_spec())
        spec = circuit.to_spec()
        assert CircuitSpec.from_json(spec.to_json()) == spec
        # And the JSON text is canonical enough to diff
        assert json.loads(spec.to_json())["name"] == "inverter_chain"

    def test_custom_gate_round_trips_by_truth_table(self):
        gate = GateType.from_function("CUSTOM_ANDNOT", 2, lambda a, b: a and not b)
        circuit = Circuit("custom")
        circuit.add_input("a")
        circuit.add_input("b")
        circuit.add_gate("g", gate, initial_value=0)
        circuit.add_output("o")
        circuit.connect("a", "g", PureDelayChannel(1.0), pin=0)
        circuit.connect("b", "g", PureDelayChannel(1.0), pin=1)
        circuit.connect("g", "o")
        rebuilt = Circuit.from_spec(circuit.to_spec())
        rebuilt_gate = rebuilt.node("g").gate_type
        assert rebuilt_gate.truth_table() == gate.truth_table()
        assert rebuilt.to_spec() == circuit.to_spec()

    def test_library_gate_restores_registry_instance(self):
        from repro.circuits.gates import INV

        circuit = inverter_chain(2, _eta_spec())
        rebuilt = Circuit.from_spec(circuit.to_spec())
        assert rebuilt.node("inv1").gate_type is INV

    def test_unspecable_circuit_raises(self):
        class OpaqueChannel(PureDelayChannel):
            pass

        circuit = inverter_chain(2, lambda: OpaqueChannel(1.0))
        with pytest.raises(SpecError):
            circuit.to_spec()

    def test_build_failure_names_the_edge(self):
        data = inverter_chain(4, _eta_spec()).to_spec().to_dict()
        data["edges"][3]["channel"]["pair"]["tau"] = -1.0
        spec = CircuitSpec.from_dict(data)
        with pytest.raises(SpecError, match=r"^tau must be positive.* \(at /edges/3\)$") as info:
            spec.build()
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "node, message",
        [("inv1", "node is not an object"), ({"kind": "gate", "name": "g"}, "missing field 'type'")],
    )
    def test_build_failure_names_the_node(self, node, message):
        data = inverter_chain(2, _eta_spec()).to_spec().to_dict()
        data["nodes"][1] = node
        with pytest.raises(SpecError, match=rf"^{message}.* \(at /nodes/1\)$"):
            CircuitSpec.from_dict(data).build()

    @pytest.mark.parametrize("field", ["nodes", "edges"])
    def test_from_dict_rejects_a_field_that_is_not_a_list(self, field):
        data = inverter_chain(2, _eta_spec()).to_spec().to_dict()
        data[field] = "x"
        with pytest.raises(SpecError, match=f"at /{field}"):
            CircuitSpec.from_dict(data)


class TestSimulateEquivalence:
    """to_spec -> from_spec rebuilds must execute bit-identically."""

    def test_inverter_chain(self):
        from repro.circuits import simulate

        circuit = inverter_chain(5, _eta_spec(), expose_taps=True)
        rebuilt = Circuit.from_spec(circuit.to_spec())
        inputs = {"in": Signal.pulse_train(1.0, [2.0, 0.8, 3.0], [2.5, 2.5])}
        a = simulate(circuit, inputs, 80.0)
        b = simulate(rebuilt, inputs, 80.0)
        assert a.node_signals == b.node_signals
        assert a.edge_signals == b.edge_signals
        assert a.event_count == b.event_count

    def test_spf_circuit(self):
        from repro.circuits import simulate
        from repro.spf import build_spf_circuit

        pair = InvolutionPair.exp_channel(1.0, 0.5)
        eta = admissible_eta_bound(pair, 0.05)
        circuit = build_spf_circuit(pair, eta)
        rebuilt = Circuit.from_spec(circuit.to_spec())
        inputs = {"i": Signal.pulse(0.0, 2.0)}
        a = simulate(circuit, inputs, 300.0, max_events=2_000_000)
        b = simulate(rebuilt, inputs, 300.0, max_events=2_000_000)
        assert a.node_signals == b.node_signals
        assert a.edge_signals == b.edge_signals

    def test_spf_circuit_from_spec_dicts(self):
        """build_spf_circuit accepts pair/eta/adversary spec dicts."""
        from repro.circuits import simulate
        from repro.spf import build_spf_circuit

        pair = InvolutionPair.exp_channel(1.0, 0.5)
        eta = admissible_eta_bound(pair, 0.05)
        reference = build_spf_circuit(pair, eta, WorstCaseAdversary())
        declarative = build_spf_circuit(
            {"kind": "exp", "tau": 1.0, "t_p": 0.5, "v_th": 0.5},
            {"eta_plus": eta.eta_plus, "eta_minus": eta.eta_minus},
            {"kind": "worst"},
        )
        inputs = {"i": Signal.pulse(0.0, 1.5)}
        a = simulate(reference, inputs, 200.0, max_events=2_000_000)
        b = simulate(declarative, inputs, 200.0, max_events=2_000_000)
        assert a.output_signals == b.output_signals


# --------------------------------------------------------------------------- #
# Property-based round-trips
# --------------------------------------------------------------------------- #


_channel_specs = st.one_of(
    st.builds(
        lambda d: ChannelSpec("pure", delay=d),
        st.floats(0.1, 5.0, allow_nan=False),
    ),
    st.builds(
        # The window is a fraction of the delay: an inertial channel needs
        # window <= delay.
        lambda d, f: ChannelSpec("inertial", delay=d, window=f * d),
        st.floats(0.1, 5.0),
        st.floats(0.0, 1.0),
    ),
    st.builds(
        lambda n, t: ChannelSpec("ddm", delta_nominal=n, tau_deg=t),
        st.floats(0.5, 5.0),
        st.floats(0.1, 3.0),
    ),
    st.builds(
        lambda tau, t_p, v_th: ChannelSpec(
            "involution", pair={"kind": "exp", "tau": tau, "t_p": t_p, "v_th": v_th}
        ),
        st.floats(0.2, 2.0),
        st.floats(0.1, 1.0),
        st.floats(0.2, 0.8),
    ),
    st.builds(
        lambda tau, t_p, eta, seed: ChannelSpec(
            "eta_involution",
            pair={"kind": "exp", "tau": tau, "t_p": t_p, "v_th": 0.5},
            eta={"eta_plus": eta, "eta_minus": eta},
            adversary={"kind": "random", "seed": seed},
        ),
        st.floats(0.2, 2.0),
        st.floats(0.1, 1.0),
        st.floats(0.0, 0.05),
        st.integers(0, 2**32 - 1),
    ),
)


class TestPropertyRoundTrips:
    @given(spec=_channel_specs, stages=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_chain_to_spec_from_spec_to_spec_identity(self, spec, stages):
        circuit = inverter_chain(stages, spec)
        circuit_spec = circuit.to_spec()
        rebuilt_spec = Circuit.from_spec(circuit_spec).to_spec()
        assert circuit_spec == rebuilt_spec
        assert hash(circuit_spec) == hash(rebuilt_spec)

    @given(spec=_channel_specs, width=st.floats(0.3, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_rebuilt_circuit_simulates_identically(self, spec, width):
        from repro.circuits import simulate

        circuit = glitch_generator(spec.build(), spec.build())
        rebuilt = Circuit.from_spec(circuit.to_spec())
        inputs = {"in": Signal.pulse(1.0, width)}
        # Equal path delays can schedule same-instant deliveries; the drop
        # policy resolves them identically on both sides.
        a = simulate(circuit, inputs, 60.0, on_causality="drop")
        b = simulate(rebuilt, inputs, 60.0, on_causality="drop")
        assert a.node_signals == b.node_signals
        assert a.edge_signals == b.edge_signals
