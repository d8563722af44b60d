"""Differential harness: scalar vs vector over random *cyclic* circuits.

PR 5's property tests pinned scalar/vector bit-identity for acyclic
chains.  This module extends the pin to the shapes the fixpoint
lockstep schedule and pre-drawn RNG streams opened up: feedback loops,
unseeded ``RandomAdversary`` channels, seeded gaussian ones whose clip
fires (the scalar engine's block draws against the vector engine's
``size=n`` draws), zero-delay edges into multi-input gates, and
settle-inconsistent initial values.  Each
hypothesis example builds a random circuit + scenario family and
asserts the two backends agree on *everything*: node/edge/output
signals, event counts, dropped-transition counts, and raised errors.
A dynamic refusal (``VectorUnsupportedError``) is legal but must be
loud and must reproduce the sequential outcome unchanged.  A third party,
``backend="auto"``, must equal sequential too, whichever engine its cost
model picks per chunk.

The default profile is small and derandomized so plain ``pytest -x -q``
stays fast and deterministic; the ``ci`` profile (selected with
``--hypothesis-profile=ci`` by the dedicated CI job, which also pins
``--hypothesis-seed``) runs a much larger example budget.  Profiles are
registered in ``tests/conftest.py``.

A third property mixes, in one batch, lanes the vector edge kernel
resolves in closed form (no rejection window, tentative outputs that
strictly increase) with lanes that need its pending frontier: glitch
trains that cancel, inertial windows, pure delays that reorder, and
causality violations under both policies.

Shrunk counterexamples found while developing the fixpoint schedule and
the closed form for regular lanes are checked in below as
``test_regression_*`` cases.
"""

import warnings
from array import array
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.circuits import BUF, INV, OR2, Circuit, fed_back_or, inverter_chain
from repro.core import (
    DegradationDelayChannel,
    EtaInvolutionChannel,
    InertialDelayChannel,
    InvolutionChannel,
    InvolutionPair,
    PureDelayChannel,
    RandomAdversary,
    Signal,
    SineAdversary,
    WorstCaseAdversary,
    ZeroAdversary,
    admissible_eta_bound,
)
from repro.core.channel import ZeroDelayChannel
from repro.core.delay_functions import ExpDelay, ShiftedDelay
from repro.engine import CircuitTopology, eta_monte_carlo, run_many, vector
from repro.engine.errors import SimulationError
from repro.engine.shard import SweepFailedError
from repro.engine.sweep import Scenario
from repro.engine.vector import (
    _BREAK_EVEN_LANES,
    VectorUnsupportedError,
    compile_sweep,
    predraw_random_adversaries,
)

pytestmark = pytest.mark.differential

PAIR = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
ETA = admissible_eta_bound(PAIR, eta_plus=0.05)

# One fixed seed pins every unseeded RandomAdversary slot before either
# backend runs; without it the two backends would (correctly) draw
# different fresh entropy and diverge by design.
PREDRAW_SEED = 0xD1FF


def _signal_bytes(signals):
    """Initial values and float64 time bytes: ``==`` equates -0.0 and 0.0."""
    return {
        name: (signal.initial_value, array("d", signal.transition_times()).tobytes())
        for name, signal in signals.items()
    }


def _assert_bit_identical(sequential_runs, vector_runs):
    assert len(sequential_runs) == len(vector_runs)
    for seq, vec in zip(sequential_runs, vector_runs):
        for group in ("node_signals", "edge_signals", "output_signals"):
            seq_signals = getattr(seq.execution, group)
            vec_signals = getattr(vec.execution, group)
            assert seq_signals == vec_signals
            assert _signal_bytes(seq_signals) == _signal_bytes(vec_signals)
        assert seq.execution.event_count == vec.execution.event_count
        assert (
            seq.execution.dropped_transitions
            == vec.execution.dropped_transitions
        )


def _outcome(thunk):
    """Run a backend, normalising an engine error to comparable form."""
    try:
        return thunk(), None
    except VectorUnsupportedError:
        raise  # a refusal, not a simulation outcome -- handled by the caller
    except SimulationError as exc:
        return None, (type(exc).__name__, str(exc))


def assert_auto_matches(topology, scenarios, sequential, seq_err, **kwargs):
    """``backend="auto"`` equals sequential, error text included.

    The family is repeated up to the vector break-even, so the cost model
    (not the scenario count alone) decides; repeated scenarios replay
    identically on either engine.
    """
    copies = -(-_BREAK_EVEN_LANES // len(scenarios))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            auto = run_many(
                topology, scenarios * copies, backend="auto",
                on_chunk_failure="raise", **kwargs
            )
        except SweepFailedError as exc:
            (failure,) = exc.report.failures
            assert (failure.error_type, failure.error) == seq_err
            return
    assert seq_err is None
    _assert_bit_identical(sequential.runs * copies, auto.runs)


def assert_differential(circuit, scenarios, **kwargs):
    """The full contract, error channel included.

    Returns ``"vector"`` when the batch path executed and matched, or
    ``"fallback"`` when it refused (statically or dynamically) and the
    public entry point reproduced the sequential outcome unchanged.
    """
    topology = CircuitTopology(circuit)
    scenarios = predraw_random_adversaries(
        topology, scenarios, seed=PREDRAW_SEED
    )
    sequential, seq_err = _outcome(
        lambda: run_many(topology, scenarios, backend="sequential", **kwargs)
    )
    assert_auto_matches(topology, scenarios, sequential, seq_err, **kwargs)
    try:
        vector_runs, vec_err = _outcome(
            lambda: compile_sweep(topology, scenarios, **kwargs).run()
        )
    except VectorUnsupportedError:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fallback, fb_err = _outcome(
                lambda: run_many(topology, scenarios, backend="vector", **kwargs)
            )
        assert fb_err == seq_err
        if seq_err is None:
            assert fallback.backend == "sequential"
            _assert_bit_identical(sequential.runs, fallback.runs)
        return "fallback"
    assert vec_err == seq_err
    if seq_err is None:
        _assert_bit_identical(sequential.runs, vector_runs)
    return "vector"


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #


def _channel_from_code(code, salt):
    if code == 0:
        return PureDelayChannel(1.3, 0.9)
    if code == 1:
        return PureDelayChannel(0.6)
    if code == 2:
        return InertialDelayChannel(1.1, 0.6)
    if code == 3:
        return DegradationDelayChannel(1.5, 2.0, T0=0.1)
    if code == 4:
        return InvolutionChannel(PAIR, inverting=True)
    if code == 5:
        return EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    if code == 6:
        return EtaInvolutionChannel(PAIR, ETA, WorstCaseAdversary())
    if code == 7:
        return EtaInvolutionChannel(PAIR, ETA, SineAdversary(period=2.0))
    if code == 8:
        return EtaInvolutionChannel(PAIR, ETA, RandomAdversary(seed=salt))
    if code == 9:
        return EtaInvolutionChannel(PAIR, ETA, RandomAdversary())  # unseeded
    if code == 10:
        # Wide enough that the clip to [-eta_minus, eta_plus] fires often.
        gaussian = RandomAdversary(seed=salt, distribution="gaussian", sigma_fraction=2.0)
        return EtaInvolutionChannel(PAIR, ETA, gaussian)
    return ZeroDelayChannel()


# Loop-internal edges stay timed (a zero-delay-only cycle is a static
# obstacle by design) and avoid the dynamically-refusing degradation
# channel so most examples exercise the fixpoint path, not the fallback.
_TIMED_CODES = st.integers(min_value=0, max_value=10).filter(lambda c: c != 3)
_ANY_CODE = st.integers(min_value=0, max_value=11)


@st.composite
def cyclic_sweeps(draw):
    """A random chain feeding an optional two-gate storage loop."""
    circuit = Circuit("differential")
    circuit.add_input("in", initial_value=draw(st.integers(0, 1)))
    previous = "in"
    n_chain = draw(st.integers(min_value=0, max_value=3))
    for i in range(n_chain):
        gate = f"g{i}"
        circuit.add_gate(
            gate,
            draw(st.sampled_from([BUF, INV])),
            initial_value=draw(st.integers(0, 1)),
        )
        circuit.connect(
            previous,
            gate,
            _channel_from_code(draw(_ANY_CODE), 11 * i + 1),
            pin=0,
            name=f"c{i}",
        )
        previous = gate
    with_loop = draw(st.booleans())
    if with_loop:
        circuit.add_gate("l0", OR2, initial_value=draw(st.integers(0, 1)))
        circuit.add_gate(
            "l1",
            draw(st.sampled_from([BUF, INV])),
            initial_value=draw(st.integers(0, 1)),
        )
        circuit.connect(
            previous,
            "l0",
            _channel_from_code(draw(_ANY_CODE), 97),
            pin=0,
            name="el0",
        )
        circuit.connect(
            "l0", "l1", _channel_from_code(draw(_TIMED_CODES), 98),
            pin=0, name="el1",
        )
        circuit.connect(
            "l1", "l0", _channel_from_code(draw(_TIMED_CODES), 99),
            pin=1, name="el2",
        )
        previous = "l0"
    circuit.add_output("out")
    circuit.connect(previous, "out")

    scenarios = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        gaps = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
                min_size=1,
                max_size=8,
            )
        )
        t, times = 0.0, []
        for gap in gaps:
            t += gap
            times.append(t)
        scenarios.append(
            Scenario(
                name=f"s{index}",
                inputs={"in": Signal.from_times(times)},
                end_time=draw(st.floats(min_value=8.0, max_value=35.0)),
            )
        )
    max_events = draw(st.sampled_from([150, 100_000]))
    return circuit, scenarios, max_events


# --------------------------------------------------------------------------- #
# The harness
# --------------------------------------------------------------------------- #


@settings(deadline=None)
@given(cyclic_sweeps())
def test_random_cyclic_circuits_bit_identical(sweep):
    circuit, scenarios, max_events = sweep
    outcome = assert_differential(
        circuit, scenarios, on_causality="drop", max_events=max_events
    )
    event(f"executed: {outcome}")


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
        min_size=1,
        max_size=8,
    ),
)
def test_random_unseeded_chains_bit_identical(stages, gaps):
    # Pure pre-drawn-RNG coverage: every edge carries fresh unseeded
    # entropy, pinned by the harness before either backend runs.
    circuit = inverter_chain(
        stages, lambda: EtaInvolutionChannel(PAIR, ETA, RandomAdversary())
    )
    t, times = 1.0, []
    for gap in gaps:
        t += gap
        times.append(t)
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.from_times(times)}, end_time=40.0)
    ]
    outcome = assert_differential(circuit, scenarios, on_causality="drop")
    assert outcome == "vector"


def _acausal_channel():
    # A (deliberately non-involution) pair whose falling delay is negative
    # for moderate T: a fall fed after the rise has been delivered lands
    # before it, which the causality policy drops or raises on.
    up = ExpDelay(tau=1.0, t_p=0.5, rising=True)
    down = ShiftedDelay(ExpDelay(tau=1.0, t_p=0.5, rising=False), shift_delta=-3.0)
    return InvolutionChannel(InvolutionPair(up, down, validate=False), guard_domain=False)


def _train(draw, low, high):
    gaps = draw(
        st.lists(
            st.floats(min_value=low, max_value=high, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    t, times = 1.0, []
    for gap in gaps:
        t += gap
        times.append(t)
    return Signal.from_times(times)


@st.composite
def mixed_lane_sweeps(draw):
    """An eta inverter chain whose one batch mixes regular lanes (wide
    pulses through random-adversary channels) with lanes that need the
    pending frontier; at most one lane violates causality, so under the
    ``error`` policy both backends fail on the same lane."""
    stages = draw(st.integers(min_value=1, max_value=3))
    circuit = inverter_chain(
        stages, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    timed = list(circuit.edges)[:stages]
    kinds = ["regular", "glitch"] + draw(
        st.lists(
            st.sampled_from(["regular", "glitch", "inertial", "pure"]),
            min_size=1,
            max_size=8,
        )
    )
    if draw(st.booleans()):
        kinds.append("acausal")
    scenarios = []
    for index, kind in enumerate(kinds):
        channels = {}
        if kind == "regular":
            channels = {
                name: EtaInvolutionChannel(
                    PAIR, ETA, RandomAdversary(seed=10 * index + e)
                )
                for e, name in enumerate(timed)
            }
        elif kind == "inertial":
            window = draw(st.floats(min_value=0.05, max_value=1.0))
            channels = {timed[0]: InertialDelayChannel(1.0, window)}
        elif kind == "pure":
            rise = draw(st.floats(min_value=1.0, max_value=2.0))
            fall = draw(st.floats(min_value=0.1, max_value=0.5))
            channels = {timed[0]: PureDelayChannel(rise, fall)}
        elif kind == "acausal":
            channels = {timed[0]: _acausal_channel()}
        if kind == "regular" or (kind != "glitch" and draw(st.booleans())):
            stimulus = _train(draw, 3.0, 5.0)
        elif kind == "acausal":
            stimulus = _train(draw, 1.5, 4.0)
        else:
            stimulus = _train(draw, 0.02, 0.45)
        scenarios.append(
            Scenario(
                name=f"{kind}{index}",
                inputs={"in": stimulus},
                end_time=draw(st.floats(min_value=10.0, max_value=40.0)),
                channels=channels or None,
            )
        )
    return circuit, scenarios, draw(st.sampled_from(["drop", "error"]))


@settings(deadline=None)
@given(mixed_lane_sweeps())
def test_mixed_regular_and_frontier_lanes_bit_identical(sweep):
    circuit, scenarios, on_causality = sweep
    outcome = assert_differential(circuit, scenarios, on_causality=on_causality)
    event(f"executed: {outcome}")


# --------------------------------------------------------------------------- #
# Shrunk counterexamples from developing the fixpoint schedule, pinned
# as deterministic regressions.
# --------------------------------------------------------------------------- #


def test_regression_theorem9_cancellation_and_latching():
    # The paper's storage loop across the cancellation threshold: the
    # fixpoint schedule must replay glitch trains that die mid-loop
    # (suppressed reversed deliveries) as well as latched pulses.
    circuit = fed_back_or(EtaInvolutionChannel(PAIR, ETA, ZeroAdversary()))
    scenarios = [
        Scenario(
            name=f"w{width:g}",
            inputs={"i": Signal.pulse(0.0, width)},
            end_time=400.0,
        )
        for width in (0.05, 0.2, 0.35, 0.5, 0.7, 1.0, 1.8)
    ]
    assert assert_differential(circuit, scenarios) == "vector"


def test_regression_zero_delay_into_multi_input_gate():
    # A zero-delay edge racing a timed edge into one OR2: vectorizes as
    # long as the two arrival classes never share an instant.
    circuit = Circuit("fanin")
    circuit.add_input("a", initial_value=0)
    circuit.add_input("b", initial_value=0)
    circuit.add_gate("g", BUF, initial_value=0)
    circuit.add_gate("or", OR2, initial_value=0)
    circuit.add_output("out")
    circuit.connect("a", "g", PureDelayChannel(0.5), pin=0, name="e1")
    circuit.connect("g", "or", ZeroDelayChannel(), pin=0, name="e2")
    circuit.connect("b", "or", PureDelayChannel(1.25), pin=1, name="e3")
    circuit.connect("or", "out")
    clean = [
        Scenario(
            name="disjoint",
            inputs={
                "a": Signal.from_times([1.0, 4.0]),
                "b": Signal.from_times([2.0, 5.0]),
            },
            end_time=12.0,
        )
    ]
    assert assert_differential(circuit, clean) == "vector"
    # ...and refuses loudly (bit-identically) when they do coincide:
    # a@1.0 arrives through e1+e2 at t=1.5 while b@0.25 arrives through
    # e3 at the same (exactly representable) 1.5 instant, in different
    # engine delta cycles.
    colliding = [
        Scenario(
            name="collide",
            inputs={
                "a": Signal.from_times([1.0]),
                "b": Signal.from_times([0.25]),
            },
            end_time=12.0,
        )
    ]
    assert assert_differential(circuit, colliding) == "fallback"


def test_regression_settle_inconsistent_initials_vectorize():
    # Declared gate initials that flip in the time-0 settle pass used to
    # be a blanket obstacle; with timed fan-in they are now replayed.
    circuit = Circuit("settle")
    circuit.add_input("a", initial_value=1)
    circuit.add_gate("g0", INV, initial_value=1)  # flips to 0 at t=0
    circuit.add_gate("g1", BUF, initial_value=1)  # flips with g0's settle
    circuit.add_output("out")
    circuit.connect("a", "g0", PureDelayChannel(0.9), pin=0, name="e1")
    circuit.connect("g0", "g1", PureDelayChannel(1.1), pin=0, name="e2")
    circuit.connect("g1", "out")
    scenarios = [
        Scenario(
            name="s",
            inputs={"a": Signal(1, [(2.0, 0), (5.0, 1)])},
            end_time=15.0,
        )
    ]
    assert assert_differential(circuit, scenarios) == "vector"


def test_regression_bounded_oscillator_vectorizes():
    # A ring oscillator whose whole burst fits the horizon converges in
    # the fixpoint schedule (the bounded horizon caps the wave) and must
    # replay every oscillation period bit-identically.
    circuit = Circuit("ring")
    circuit.add_input("in", initial_value=0)
    circuit.add_gate("l0", OR2, initial_value=0)
    circuit.add_gate("l1", INV, initial_value=1)
    circuit.add_output("out")
    circuit.connect("in", "l0", PureDelayChannel(0.5), pin=0, name="drive")
    circuit.connect("l0", "l1", PureDelayChannel(0.5), pin=0, name="fwd")
    circuit.connect("l1", "l0", PureDelayChannel(0.5), pin=1, name="back")
    circuit.connect("l1", "out")
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.pulse(1.0, 2.0)}, end_time=30.0)
    ]
    assert assert_differential(circuit, scenarios) == "vector"


def test_regression_auto_surfaces_the_sequential_error():
    # The error channel of the third party: a loop that overruns
    # max_events fails under "auto" with the sequential error text.
    circuit = Circuit("ring")
    circuit.add_input("in", initial_value=0)
    circuit.add_gate("l0", OR2, initial_value=0)
    circuit.add_gate("l1", INV, initial_value=1)
    circuit.add_output("out")
    circuit.connect("in", "l0", PureDelayChannel(0.5), pin=0, name="drive")
    circuit.connect("l0", "l1", PureDelayChannel(0.5), pin=0, name="fwd")
    circuit.connect("l1", "l0", PureDelayChannel(0.5), pin=1, name="back")
    circuit.connect("l1", "out")
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.pulse(1.0, 2.0)}, end_time=30.0)
    ]
    with pytest.raises(SimulationError, match="max_events"):
        run_many(circuit, scenarios, backend="sequential", max_events=20)
    assert_differential(circuit, scenarios, max_events=20)


def test_regression_per_scenario_adversary_overrides():
    # theorem9's exact override pattern: one shared topology, the
    # feedback channel swapped per scenario -- including an unseeded
    # random slot that the pre-draw pass must pin per (scenario, edge).
    circuit = fed_back_or(EtaInvolutionChannel(PAIR, ETA, ZeroAdversary()))
    factories = [
        ZeroAdversary,
        WorstCaseAdversary,
        lambda: RandomAdversary(),
        lambda: SineAdversary(period=2.0),
    ]
    scenarios = [
        Scenario(
            name=f"adv{i}",
            inputs={"i": Signal.pulse(0.0, 0.45)},
            end_time=120.0,
            channels={"feedback": EtaInvolutionChannel(PAIR, ETA, factory())},
        )
        for i, factory in enumerate(factories)
    ]
    assert assert_differential(circuit, scenarios) == "vector"


def test_regression_regular_lanes_skip_the_frontier(monkeypatch):
    # One 16-scenario chunk: 15 Monte Carlo lanes of well-separated
    # pulses resolve in closed form, and the one lane whose glitch train
    # cancels on the first edge is the only one the frontier runs.
    circuit = inverter_chain(
        4, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    topology = CircuitTopology(circuit)
    unit = PAIR.delta_up_inf + PAIR.delta_down_inf
    wide = Signal.pulse_train(1.0, [4.0 * unit] * 6, [4.0 * unit] * 5)
    end_time = 1.0 + 48.0 * unit + 40.0 * PAIR.delta_up_inf
    monte_carlo = eta_monte_carlo(topology, {"in": wide}, end_time, 16, seed=5)
    glitch = Signal.pulse_train(1.0, [0.1] * 3, [0.1] * 2)
    mixed = monte_carlo[:15] + [
        replace(monte_carlo[15], name="glitch", inputs={"in": glitch}, fingerprint=None)
    ]
    frontier_lanes = []
    run_frontier = vector._run_frontier

    def spy(program, times, *args):
        frontier_lanes.append(times.shape[0])
        return run_frontier(program, times, *args)

    monkeypatch.setattr(vector, "_run_frontier", spy)
    for scenarios, expected in ((monte_carlo, []), (mixed, [1])):
        frontier_lanes.clear()
        runs = compile_sweep(topology, scenarios).run()
        assert frontier_lanes == expected
        sequential = run_many(topology, scenarios, backend="sequential")
        _assert_bit_identical(sequential.runs, runs)
    assert len(runs[-1].execution.edge_signals[list(circuit.edges)[0]]) == 0
    assert all(len(run.execution.output_signals["out"]) == 12 for run in runs[:15])


@pytest.mark.parametrize("on_causality", ["drop", "error"])
def test_regression_reversed_delivery_into_a_gate_refuses(on_causality):
    # The acausal channel delivers its fall at 4.66, before the 6.5 that
    # fed it, into an inverter whose own channel already delivered at
    # 5.39 in the engine; the next output (4.87) then drops or raises
    # there, while a levelized replay would cancel it.  The vector
    # engine must refuse such a value change, never replay it.
    circuit = inverter_chain(
        2, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    scenarios = [
        Scenario(
            name="reversed",
            inputs={"in": Signal.from_times([3.0, 6.5])},
            end_time=10.0,
            channels={list(circuit.edges)[0]: _acausal_channel()},
        )
    ]
    outcome = assert_differential(circuit, scenarios, on_causality=on_causality)
    assert outcome == "fallback"
