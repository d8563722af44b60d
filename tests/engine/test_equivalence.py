"""Property-based online/offline equivalence of the shared kernel.

The kernel refactor must preserve the seed's central invariant: on a
single-channel circuit, the event-driven simulator agrees
transition-for-transition with the offline channel algorithm of
:mod:`repro.core.channel`.  Both paths now execute the same
:class:`~repro.engine.kernel.ChannelKernel`, and these hypothesis tests
pin the equivalence down over random stimuli, channel parameters and
admissible adversarial shift sequences.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import BUF, INV, NOR2, OR2, XOR2, Circuit, simulate
from repro.core import (
    DegradationDelayChannel,
    EtaInvolutionChannel,
    InertialDelayChannel,
    InvolutionChannel,
    InvolutionPair,
    PureDelayChannel,
    SequenceAdversary,
    Signal,
    ZeroDelayChannel,
    admissible_eta_bound,
    remove_short_pulses,
)

END_TIME = 1e6


def single_channel_circuit(channel) -> Circuit:
    """in -> [channel under test] -> BUF -> out (zero-delay tap)."""
    circuit = Circuit("single-channel")
    circuit.add_input("a")
    circuit.add_gate("g", BUF, initial_value=channel.output_initial_value(0))
    circuit.add_output("y")
    circuit.connect("a", "g", channel, pin=0, name="ch")
    circuit.connect("g", "y")
    return circuit


def online_edge_signal(channel, stimulus: Signal) -> Signal:
    execution = simulate(single_channel_circuit(channel), {"a": stimulus}, END_TIME)
    return execution.edge("ch")


@st.composite
def stimuli(draw) -> Signal:
    """Alternating signals with random (possibly tight) gaps, initial 0."""
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=6.0, allow_nan=False),
            min_size=1,
            max_size=25,
        )
    )
    times = []
    t = 0.0
    for gap in gaps:
        t += gap
        times.append(t)
    return Signal.from_times(times)


@st.composite
def exp_pairs(draw) -> InvolutionPair:
    tau = draw(st.floats(min_value=0.3, max_value=2.0, allow_nan=False))
    t_p = draw(st.floats(min_value=0.1, max_value=1.0, allow_nan=False))
    return InvolutionPair.exp_channel(tau, t_p)


@settings(max_examples=60, deadline=None)
@given(stimuli(), exp_pairs())
def test_involution_channel_online_matches_offline(stimulus, pair):
    offline = InvolutionChannel(pair).apply(stimulus)
    online = online_edge_signal(InvolutionChannel(pair), stimulus)
    assert online.initial_value == offline.initial_value
    assert online.transition_times() == offline.transition_times()
    assert [tr.value for tr in online] == [tr.value for tr in offline]


@settings(max_examples=60, deadline=None)
@given(stimuli(), exp_pairs(), st.data())
def test_eta_channel_online_matches_offline(stimulus, pair, data):
    eta = admissible_eta_bound(pair, eta_plus=0.04)
    shifts = data.draw(
        st.lists(
            st.floats(
                min_value=-eta.eta_minus,
                max_value=eta.eta_plus,
                allow_nan=False,
            ),
            min_size=len(stimulus),
            max_size=len(stimulus),
        )
    )
    offline = EtaInvolutionChannel(
        pair, eta, SequenceAdversary(shifts)
    ).apply(stimulus)
    online = online_edge_signal(
        EtaInvolutionChannel(pair, eta, SequenceAdversary(shifts)), stimulus
    )
    assert online.transition_times() == offline.transition_times()
    assert [tr.value for tr in online] == [tr.value for tr in offline]


@settings(max_examples=40, deadline=None)
@given(
    stimuli(),
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
)
def test_pure_delay_online_matches_offline(stimulus, rising, falling):
    offline = PureDelayChannel(rising, falling).apply(stimulus)
    online = online_edge_signal(PureDelayChannel(rising, falling), stimulus)
    assert online.transition_times() == offline.transition_times()


@settings(max_examples=40, deadline=None)
@given(stimuli(), exp_pairs())
def test_ddm_online_matches_offline(stimulus, pair):
    channel_args = dict(delta_nominal=pair.delta_up_inf, tau_deg=1.0)
    offline = DegradationDelayChannel(**channel_args).apply(stimulus)
    online = online_edge_signal(DegradationDelayChannel(**channel_args), stimulus)
    assert online.transition_times() == offline.transition_times()


@st.composite
def inertial_cases(draw):
    """``(gaps, delay, window)`` on a 1/4 grid with ``window <= delay``.

    Sums and differences of grid values are exact, so the filter (pulse
    widths measured on input times) and the kernel (measured on delayed
    output times) round identically, and pulse widths equal to the window
    or to the delay come up often.
    """
    quarters = st.integers(min_value=1, max_value=8)
    gaps = draw(st.lists(quarters, min_size=1, max_size=25))
    delay = draw(quarters)
    window = draw(st.integers(min_value=0, max_value=delay))
    return [gap / 4 for gap in gaps], delay / 4, window / 4


@settings(max_examples=100, deadline=None)
@given(inertial_cases(), st.booleans())
def test_inertial_online_matches_offline_and_the_filter(case, inverting):
    """For window <= delay the engine's edge signal, the offline channel
    function and the idealised filter -- remove_short_pulses, then the
    constant delay (and the inversion) -- are one signal."""
    gaps, delay, window = case
    stimulus = Signal.from_times(list(itertools.accumulate(gaps)))
    offline = InertialDelayChannel(delay, window, inverting=inverting)(stimulus)
    online = online_edge_signal(
        InertialDelayChannel(delay, window, inverting=inverting), stimulus
    )
    filtered = remove_short_pulses(stimulus, window)
    expected = Signal.from_times(
        [t + delay for t in filtered.transition_times()], int(inverting)
    )
    assert online == offline == expected


def test_inverting_channel_online_matches_offline(exp_pair):
    stimulus = Signal.pulse_train(0.0, [2.0, 0.4, 1.5], [2.0, 1.0])
    channel = InvolutionChannel(exp_pair, inverting=True)
    offline = channel.apply(stimulus)
    online = online_edge_signal(InvolutionChannel(exp_pair, inverting=True), stimulus)
    assert online.initial_value == offline.initial_value == 1
    assert online.transition_times() == offline.transition_times()


@settings(max_examples=40, deadline=None)
@given(
    stimuli(),
    st.lists(exp_pairs(), min_size=2, max_size=4),
)
def test_inverter_chain_matches_offline_composition(stimulus, pairs):
    """The optimized engine equals stage-by-stage offline evaluation.

    On a chain, the event-driven engine's per-edge executions must equal
    the offline channel algorithm applied stage by stage (each stage's
    offline output, inverted by the INV gate, feeding the next stage).
    This pins the optimized kernel/scheduler (deque frontier, cancelled
    deliveries told apart by id order, integer dispatch) to the PR-1
    semantics over random stimuli and heterogeneous channel parameters.
    """
    from repro.circuits import inverter_chain

    channels = [InvolutionChannel(pair) for pair in pairs]
    channel_iter = iter(list(channels))
    circuit = inverter_chain(len(channels), lambda: next(channel_iter))
    execution = simulate(circuit, {"in": stimulus}, END_TIME)

    offline_in = stimulus
    for stage, pair in enumerate(pairs, start=1):
        offline_out = InvolutionChannel(pair).apply(offline_in)
        # Resolve the edge into this stage structurally (edge names are
        # auto-generated by the circuit builder).
        online_out = None
        for ename, edge in circuit.edges.items():
            if edge.target == f"inv{stage}":
                online_out = execution.edge(ename)
        assert online_out is not None
        assert online_out.initial_value == offline_out.initial_value
        assert online_out.transition_times() == offline_out.transition_times()
        assert [t.value for t in online_out] == [t.value for t in offline_out]
        # The INV gate inverts in zero time: next stage's offline input.
        offline_in = offline_out.inverted()


def test_domain_guard_cancellation_matches(exp_pair):
    # A long stable phase followed by a very short glitch triggers the
    # -inf domain guard; online and offline must cancel identically.
    stimulus = Signal.from_times([1.0, 40.0, 40.0 + 1e-4, 45.0])
    channel = InvolutionChannel(exp_pair)
    offline = channel.apply(stimulus)
    online = online_edge_signal(InvolutionChannel(exp_pair), stimulus)
    assert online.transition_times() == offline.transition_times()
    assert all(math.isfinite(t) for t in online.transition_times())


def _port_channel(draw):
    """A zero-delay, pure-delay, inertial or involution channel."""
    kind = draw(st.sampled_from(["zero", "pure", "inertial", "involution"]))
    if kind == "zero":
        return ZeroDelayChannel()
    if kind == "pure":
        return PureDelayChannel(
            draw(st.floats(min_value=0.1, max_value=3.0)),
            draw(st.floats(min_value=0.1, max_value=3.0)),
        )
    if kind == "inertial":
        return InertialDelayChannel(1.0, draw(st.floats(min_value=0.0, max_value=1.0)))
    return InvolutionChannel(draw(exp_pairs()), inverting=draw(st.booleans()))


@st.composite
def port_circuits(draw):
    """A random acyclic circuit, its stimuli and a horizon that may cut them.

    Gates read earlier nodes; each output port is driven by an input port
    or a gate through a random channel (zero-delay ones included).
    """
    circuit = Circuit("ports")
    nodes = []
    inputs = {}
    for i in range(draw(st.integers(min_value=1, max_value=2))):
        name = f"i{i}"
        initial = draw(st.integers(0, 1))
        circuit.add_input(name, initial_value=initial)
        gaps = draw(
            st.lists(st.floats(min_value=0.05, max_value=4.0), min_size=0, max_size=10)
        )
        inputs[name] = Signal.from_times(list(itertools.accumulate(gaps)), initial)
        nodes.append(name)
    for g in range(draw(st.integers(min_value=0, max_value=3))):
        name = f"g{g}"
        gate = draw(st.sampled_from([BUF, INV, OR2, NOR2, XOR2]))
        circuit.add_gate(name, gate, initial_value=draw(st.integers(0, 1)))
        for pin in range(gate.arity):
            circuit.connect(
                draw(st.sampled_from(nodes)), name, _port_channel(draw),
                pin=pin, name=f"{name}.{pin}",
            )
        nodes.append(name)
    drivers = {}
    for o in range(draw(st.integers(min_value=1, max_value=2))):
        name = f"o{o}"
        circuit.add_output(name)
        circuit.connect(
            draw(st.sampled_from(nodes)), name, _port_channel(draw), name=f"{name}.in"
        )
        drivers[name] = f"{name}.in"
    end_time = draw(st.floats(min_value=0.0, max_value=45.0))
    return circuit, inputs, drivers, end_time


@settings(max_examples=60, deadline=None)
@given(port_circuits())
def test_port_signals_are_the_inputs_and_the_driving_edges(case):
    """An input port's node signal is its input cut at ``end_time``, and an
    output port's is its driving edge's signal: the engine keeps no second
    copy of either."""
    circuit, inputs, drivers, end_time = case
    execution = simulate(circuit, inputs, end_time, on_causality="drop")
    for name, stimulus in inputs.items():
        assert execution.node(name) == stimulus.restricted(end_time)
    for name, edge in drivers.items():
        assert execution.node(name) == execution.edge(edge)
        assert execution.output(name) == execution.edge(edge)
