"""Vector/scalar equivalence of the NumPy batch backend.

The vector backend advertises *bit identity* with the sequential scalar
engine: same transition lists, same event counts, same dropped counts,
same errors.  These tests pin that contract over random circuits,
channels and stimuli (hypothesis), over the edge cases named in the
design (transport-cancellation suffix pops, ``on_causality="drop"``,
zero-delay loops, unsupported-channel fallback), and over the
integration surface (``run_many(backend="vector")``, capability
reports, experiment kinds).
"""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import BUF, INV, OR2, Circuit, glitch_generator, inverter_chain
from repro.core import (
    BestCaseAdversary,
    DegradationDelayChannel,
    EtaInvolutionChannel,
    InertialDelayChannel,
    InvolutionChannel,
    InvolutionPair,
    PureDelayChannel,
    RandomAdversary,
    SequenceAdversary,
    Signal,
    SineAdversary,
    WorstCaseAdversary,
    ZeroAdversary,
    admissible_eta_bound,
)
from repro.core.channel import Channel, ZeroDelayChannel
from repro.engine import CircuitTopology, eta_monte_carlo, run_many
from repro.engine.errors import CausalityError, SimulationError
from repro.engine.sweep import Scenario
from repro.engine.vector import (
    VectorUnsupportedError,
    compile_sweep,
    predraw_random_adversaries,
    vector_capability,
)

PAIR = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
ETA = admissible_eta_bound(PAIR, eta_plus=0.05)


def run_vector(topology, scenarios, **kwargs):
    """The vector engine alone: compile and run, with no scalar fallback."""
    return compile_sweep(topology, scenarios, **kwargs).run()


def assert_bit_identical(sequential, vector_runs):
    """Full-execution equality: every signal, event count and drop count."""
    assert len(sequential.runs) == len(vector_runs)
    for seq, vec in zip(sequential.runs, vector_runs):
        assert seq.execution.node_signals == vec.execution.node_signals
        assert seq.execution.edge_signals == vec.execution.edge_signals
        assert seq.execution.output_signals == vec.execution.output_signals
        assert seq.execution.event_count == vec.execution.event_count
        assert (
            seq.execution.dropped_transitions
            == vec.execution.dropped_transitions
        )


def both_backends(circuit, scenarios, **kwargs):
    """The vector contract: bit-identical, or a loud bit-identical fallback.

    A sweep the compiler accepts statically may still refuse dynamically
    (same-instant deliveries discovered mid-run); in that case
    ``run_many(backend="vector")`` must warn and produce the sequential
    results unchanged.
    """
    topology = CircuitTopology(circuit)
    sequential = run_many(topology, scenarios, backend="sequential", **kwargs)
    try:
        vector_runs = run_vector(topology, scenarios, **kwargs)
    except VectorUnsupportedError:
        with pytest.warns(RuntimeWarning):
            fallback = run_many(topology, scenarios, backend="vector", **kwargs)
        assert fallback.backend == "sequential"
        assert_bit_identical(sequential, fallback.runs)
        return sequential, fallback.runs
    assert_bit_identical(sequential, vector_runs)
    return sequential, vector_runs


# --------------------------------------------------------------------------- #
# The headline workload: eta Monte Carlo over an inverter chain
# --------------------------------------------------------------------------- #


def test_eta_monte_carlo_bit_identical():
    circuit = inverter_chain(
        6, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    unit = PAIR.delta_up_inf + PAIR.delta_down_inf
    inputs = {"in": Signal.pulse_train(1.0, [2.0 * unit] * 5, [3.0 * unit] * 4)}
    end_time = 1.0 + 30.0 * unit + 10.0 * 7 * PAIR.delta_up_inf
    scenarios = eta_monte_carlo(circuit, inputs, end_time, 25, seed=11)
    both_backends(circuit, scenarios)


def test_transport_cancellation_suffix_pops():
    # A marginal-width pulse dies at an eta-dependent depth: every run
    # exercises the pending-frontier suffix pops of the cancellation
    # machinery, and scenarios diverge in transition counts per edge.
    circuit = inverter_chain(
        16, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    width = 0.5 * PAIR.delta_up_inf
    inputs = {"in": Signal.pulse(1.0, width)}
    end_time = 1.0 + width + 20.0 * 16 * PAIR.delta_up_inf
    scenarios = eta_monte_carlo(circuit, inputs, end_time, 40, seed=3)
    sequential, _ = both_backends(circuit, scenarios)
    depths = {
        sum(len(run.execution.edge_signals[e]) > 0 for e in circuit.edges)
        for run in sequential.runs
    }
    assert len(depths) > 1, "workload should kill the pulse at varying depths"


def test_run_many_vector_backend_field_and_report():
    circuit = inverter_chain(
        3, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    inputs = {"in": Signal.pulse(1.0, 4.0)}
    scenarios = eta_monte_carlo(circuit, inputs, 60.0, 5, seed=1)
    result = run_many(circuit, scenarios, backend="vector")
    assert result.backend == "vector"
    assert result.vector_report is not None and result.vector_report.supported
    sequential = run_many(circuit, scenarios, backend="sequential")
    assert sequential.backend == "sequential"
    assert_bit_identical(sequential, result.runs)
    # The batched wall time is split evenly across the per-run seconds.
    total = sum(run.seconds for run in result.runs)
    assert total <= result.total_seconds * 1.01


# --------------------------------------------------------------------------- #
# Property-based equivalence over random chains and stimuli
# --------------------------------------------------------------------------- #


def _channel_from_code(code: int, seed: int):
    if code == 0:
        return PureDelayChannel(1.3, 0.9)
    if code == 1:
        return InertialDelayChannel(1.1, 0.6)
    if code == 2:
        return DegradationDelayChannel(1.5, 2.0, T0=0.1)
    if code == 3:
        return InvolutionChannel(PAIR, inverting=True)
    if code == 4:
        return EtaInvolutionChannel(
            PAIR, ETA, RandomAdversary(seed=seed), inverting=False
        )
    return EtaInvolutionChannel(
        PAIR, ETA, RandomAdversary(seed=seed, distribution="gaussian")
    )


@st.composite
def chain_sweeps(draw):
    """A mixed-channel BUF chain plus a family of tight-gap scenarios."""
    codes = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4)
    )
    circuit = Circuit("mixed-chain")
    circuit.add_input("in", initial_value=0)
    previous = "in"
    value = 0
    for i, code in enumerate(codes):
        channel = _channel_from_code(code, seed=7 * i + 1)
        value = channel.output_initial_value(value)
        gate = f"g{i}"
        circuit.add_gate(gate, BUF, initial_value=value)
        circuit.connect(previous, gate, channel, pin=0, name=f"ch{i}")
        previous = gate
    circuit.add_output("out")
    circuit.connect(previous, "out")

    scenarios = []
    n_scenarios = draw(st.integers(min_value=1, max_value=4))
    for index in range(n_scenarios):
        gaps = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
                min_size=1,
                max_size=12,
            )
        )
        t, times = 0.0, []
        for gap in gaps:
            t += gap
            times.append(t)
        end_time = draw(st.floats(min_value=5.0, max_value=120.0))
        scenarios.append(
            Scenario(
                name=f"s{index}",
                inputs={"in": Signal.from_times(times)},
                end_time=end_time,
            )
        )
    return circuit, scenarios


@settings(max_examples=40, deadline=None)
@given(chain_sweeps())
def test_random_chains_bit_identical(sweep):
    circuit, scenarios = sweep
    both_backends(circuit, scenarios, on_causality="drop")


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(
        st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        min_size=1,
        max_size=16,
    ),
)
def test_random_adversaries_bit_identical(seed, gaps):
    circuit = inverter_chain(
        3, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    t, times = 1.0, []
    for gap in gaps:
        t += gap
        times.append(t)
    inputs = {"in": Signal.from_times(times)}
    scenarios = eta_monte_carlo(circuit, inputs, t + 40.0, 3, seed=seed)
    both_backends(circuit, scenarios)


# --------------------------------------------------------------------------- #
# Causality policies
# --------------------------------------------------------------------------- #


def _causality_violating_sweep():
    # A (deliberately non-involution) pair whose falling delay is negative
    # for moderate T: the fall scheduled after the rise has matured lands
    # *before* the delivered rise -- the classic causality violation.
    from repro.core.delay_functions import ExpDelay, ShiftedDelay

    up = ExpDelay(tau=1.0, t_p=0.5, rising=True)
    down = ShiftedDelay(ExpDelay(tau=1.0, t_p=0.5, rising=False), shift_delta=-3.0)
    pair = InvolutionPair(up, down, validate=False)
    channel = InvolutionChannel(pair, guard_domain=False)
    circuit = Circuit("acausal")
    circuit.add_input("in", initial_value=0)
    circuit.add_gate("g", BUF, initial_value=0)
    circuit.add_output("out")
    circuit.connect("in", "g", channel, pin=0, name="ch")
    circuit.connect("g", "out")
    inputs = {"in": Signal.from_times([1.0, 3.0])}
    return circuit, [Scenario(name="v", inputs=inputs, end_time=50.0)]


def test_on_causality_drop_matches():
    circuit, scenarios = _causality_violating_sweep()
    sequential, vector_runs = both_backends(
        circuit, scenarios, on_causality="drop"
    )
    assert sequential.runs[0].execution.dropped_transitions > 0


def test_on_causality_error_matches():
    circuit, scenarios = _causality_violating_sweep()
    topology = CircuitTopology(circuit)
    with pytest.raises(CausalityError) as scalar_error:
        run_many(topology, scenarios, backend="sequential")
    with pytest.raises(CausalityError) as vector_error:
        run_vector(topology, scenarios)
    assert str(scalar_error.value) == str(vector_error.value)


# --------------------------------------------------------------------------- #
# Fallback and capability reporting
# --------------------------------------------------------------------------- #


class _OpaqueChannel(Channel):
    """A custom channel class the vector compiler cannot know about."""

    def delay_for(self, T, rising_output, index, time):
        return 1.0


def test_unsupported_channel_falls_back_with_report():
    circuit = Circuit("custom")
    circuit.add_input("in", initial_value=0)
    circuit.add_gate("g", BUF, initial_value=0)
    circuit.add_output("out")
    circuit.connect("in", "g", _OpaqueChannel(), pin=0, name="weird")
    circuit.connect("g", "out")
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.pulse(1.0, 3.0)}, end_time=20.0)
    ]
    report = vector_capability(circuit, scenarios)
    assert not report
    assert any(
        "weird" in reason and "_OpaqueChannel" in reason
        for reason in report.reasons
    )
    with pytest.raises(VectorUnsupportedError):
        compile_sweep(circuit, scenarios)
    with pytest.warns(RuntimeWarning, match="_OpaqueChannel"):
        result = run_many(circuit, scenarios, backend="vector")
    assert result.backend == "sequential"
    assert result.vector_report is not None and not result.vector_report.supported
    sequential = run_many(circuit, scenarios, backend="sequential")
    assert_bit_identical(sequential, result.runs)


def test_feedback_cycle_vectorizes_bit_identical():
    # The paper's storage loop (theorem9's shape): a fed-back OR gate.
    # Cycles run on the fixpoint lockstep schedule -- no fallback, and
    # the result is bit-identical to the event-driven engine across the
    # cancellation and latching regimes.
    from repro.circuits import fed_back_or

    circuit = fed_back_or(EtaInvolutionChannel(PAIR, ETA, ZeroAdversary()))
    scenarios = [
        Scenario(
            name=f"w{width:g}",
            inputs={"i": Signal.pulse(0.0, width)},
            end_time=60.0,
        )
        for width in (0.2, 0.4, 0.6, 0.9, 1.5)
    ]
    report = vector_capability(circuit, scenarios)
    assert report.supported, report.reasons
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_many(circuit, scenarios, backend="vector")
    assert result.backend == "vector"
    sequential = run_many(circuit, scenarios, backend="sequential")
    assert_bit_identical(sequential, result.runs)


def test_oscillating_cycle_exhausts_max_events_identically():
    # Termination guard: a free-running ring whose burst outlives the
    # horizon keeps generating transitions.  Neither backend may spin --
    # the scalar engine trips its max_events bound, and the vector
    # backend (whose fixpoint guard refuses the unconverging loop and
    # falls back loudly) must surface the *same* error text.
    from repro.circuits.gates import OR2

    ring = Circuit("ring")
    ring.add_input("in", initial_value=0)
    ring.add_gate("l0", OR2, initial_value=0)
    ring.add_gate("l1", INV, initial_value=1)
    ring.add_output("out")
    ring.connect("in", "l0", PureDelayChannel(0.5), pin=0, name="drive")
    ring.connect("l0", "l1", PureDelayChannel(0.5), pin=0, name="fwd")
    ring.connect("l1", "l0", PureDelayChannel(0.5), pin=1, name="back")
    ring.connect("l1", "out")
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.pulse(1.0, 2.0)}, end_time=500.0)
    ]
    with pytest.raises(SimulationError) as scalar_exc:
        run_many(ring, scenarios, backend="sequential", max_events=64)
    with pytest.warns(RuntimeWarning, match="free-running oscillation"):
        with pytest.raises(SimulationError) as vector_exc:
            run_many(ring, scenarios, backend="vector", max_events=64)
    assert str(scalar_exc.value) == str(vector_exc.value)
    assert "max_events=64" in str(vector_exc.value)


def test_bounded_oscillator_converges_and_raises_max_events_identically():
    # Same ring, horizon short enough for the fixpoint to converge: the
    # vector backend executes (no fallback) and must still raise the
    # scalar engine's exact max_events error from its own global check.
    from repro.circuits.gates import OR2

    ring = Circuit("ring")
    ring.add_input("in", initial_value=0)
    ring.add_gate("l0", OR2, initial_value=0)
    ring.add_gate("l1", INV, initial_value=1)
    ring.add_output("out")
    ring.connect("in", "l0", PureDelayChannel(0.5), pin=0, name="drive")
    ring.connect("l0", "l1", PureDelayChannel(0.5), pin=0, name="fwd")
    ring.connect("l1", "l0", PureDelayChannel(0.5), pin=1, name="back")
    ring.connect("l1", "out")
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.pulse(1.0, 2.0)}, end_time=30.0)
    ]
    with pytest.raises(SimulationError) as scalar_exc:
        run_many(ring, scenarios, backend="sequential", max_events=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SimulationError) as vector_exc:
            run_vector(CircuitTopology(ring), scenarios, max_events=40)
    assert str(scalar_exc.value) == str(vector_exc.value)


def test_zero_delay_loop_raises_like_scalar():
    # A combinational zero-delay loop oscillates within one instant; the
    # scalar engine detects it via its delta-cycle bound.  The vector
    # backend cannot express the cycle, falls back, and surfaces the very
    # same error.
    from repro.circuits.gates import GateType

    nandish = GateType("NANDish", 2, lambda v: 1 - (v[0] & v[1]))
    loop = Circuit("osc")
    loop.add_input("in", initial_value=0)
    loop.add_gate("g", nandish, initial_value=0)
    loop.add_output("out")
    loop.connect("in", "g", ZeroDelayChannel(), pin=0, name="drive")
    loop.connect("g", "g", ZeroDelayChannel(), pin=1, name="loop")
    loop.connect("g", "out")
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.pulse(1.0, 3.0)}, end_time=10.0)
    ]
    with pytest.raises(SimulationError, match="loop"):
        run_many(loop, scenarios, backend="sequential")
    with pytest.warns(RuntimeWarning):
        with pytest.raises(SimulationError, match="loop"):
            run_many(loop, scenarios, backend="vector")


def test_scenario_dependent_structure_falls_back():
    circuit = inverter_chain(
        2, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    scenarios = [
        Scenario(
            name="a",
            inputs={"in": Signal.pulse(1.0, 3.0)},
            end_time=30.0,
        ),
        Scenario(
            name="b",
            inputs={"in": Signal(1, [(2.0, 0)])},
            end_time=30.0,
        ),
    ]
    report = vector_capability(circuit, scenarios)
    assert any("initial value differs" in reason for reason in report.reasons)
    with pytest.warns(RuntimeWarning, match="initial value differs"):
        result = run_many(circuit, scenarios, backend="vector")
    sequential = run_many(circuit, scenarios, backend="sequential")
    assert_bit_identical(sequential, result.runs)


def test_shared_random_adversary_falls_back_bit_identical():
    # One seeded RandomAdversary *instance* on several edges: the scalar
    # engine interleaves a single RNG stream across the sharing edges in
    # event order, which per-edge eta matrices cannot replay -- the
    # compiler must refuse (and the fallback must match sequential).
    shared = RandomAdversary(seed=7)
    circuit = inverter_chain(
        2, lambda: EtaInvolutionChannel(PAIR, ETA, shared)
    )
    scenarios = [
        Scenario(
            name="s",
            inputs={"in": Signal.from_times([1.0, 4.0, 7.0])},
            end_time=40.0,
        )
    ]
    report = vector_capability(circuit, scenarios)
    assert any("shared by edges" in reason for reason in report.reasons)
    with pytest.warns(RuntimeWarning, match="shared by edges"):
        result = run_many(circuit, scenarios, backend="vector")
    assert result.backend == "sequential"
    sequential = run_many(circuit, scenarios, backend="sequential")
    assert_bit_identical(sequential, result.runs)


def test_provenance_records_executed_backend():
    # theorem9's storage loop now vectorizes on the fixpoint schedule:
    # the artifact must say what actually ran, not just what was
    # requested.
    from repro import api

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = api.experiment(
            "theorem9", {"pulse_lengths": [0.3]}, backend="vector"
        )
    assert result.provenance["backend"] == "vector"
    assert result.provenance["backend_executed"] == "vector"
    vectorized = api.experiment(
        "eta_coverage", {"n_runs": 4, "stages": 2}, backend="vector"
    )
    assert vectorized.provenance["backend_executed"] == "vector"


def test_cli_sweep_reports_executed_backend(tmp_path, capsys):
    # A vector request over the (cyclic) SPF netlist now runs on the
    # fixpoint schedule; the CLI envelope must report the backend that
    # actually ran, with no fallback reasons.
    import json as _json

    from repro.cli import main

    netlist = tmp_path / "spf.json"
    main(["export", "spf", "-o", str(netlist)])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        main(["sweep", str(netlist), "--runs", "2", "--backend", "vector", "--json"])
    payload = _json.loads(capsys.readouterr().out)
    assert payload["backend"] == "vector"
    assert payload["backend_requested"] == "vector"
    assert "vector_fallback_reasons" not in payload


def test_scaling_rows_record_executed_backend():
    # backend="auto" runs scaling's single-scenario sweeps scalar (below
    # the vector break-even), also on worker processes; the published
    # rows must say what ran.
    from repro import api

    result = api.experiment(
        "scaling",
        {"stage_counts": [2], "input_transitions": 20},
        backend="auto",
        max_workers=2,
    )
    assert [row["backend"] for row in result.rows] == ["sequential"]
    vectorized = api.experiment(
        "scaling",
        {"stage_counts": [2], "input_transitions": 20},
        backend="vector",
    )
    assert [row["backend"] for row in vectorized.rows] == ["vector"]
    assert [row["events"] for row in vectorized.rows] == [
        row["events"] for row in result.rows
    ]


def test_zero_constant_delay_falls_back_bit_identical():
    # A zero-delay *valued* timed channel schedules every delivery at its
    # own input instant; the engine resolves that with a second batch at
    # the same timestamp (double gate evaluation), which the compiler
    # must refuse statically.
    circuit = Circuit("same-instant")
    circuit.add_input("a", initial_value=0)
    circuit.add_gate("g", BUF, initial_value=1)  # settle-inconsistent
    circuit.add_output("o")
    circuit.connect("a", "g", PureDelayChannel(0.0), pin=0, name="e1")
    circuit.connect("g", "o", PureDelayChannel(0.2), pin=0, name="e2")
    scenarios = [
        Scenario(name="s", inputs={"a": Signal.pulse(0.0, 1.0)}, end_time=5.0)
    ]
    report = vector_capability(circuit, scenarios)
    assert any("same-instant" in reason for reason in report.reasons)
    with pytest.warns(RuntimeWarning, match="same-instant"):
        result = run_many(circuit, scenarios, backend="vector")
    assert result.backend == "sequential"
    sequential = run_many(circuit, scenarios, backend="sequential")
    assert_bit_identical(sequential, result.runs)


def test_settle_flip_through_zero_delay_edge_falls_back():
    # An upstream gate whose declared initial flips in the settle pass
    # glitches its zero-delay-fed neighbour within the time-0 instant;
    # event counts diverge unless the compiler refuses.
    from repro.core.channel import ZeroDelayChannel

    circuit = Circuit("settle-glitch")
    circuit.add_input("a", initial_value=0)
    circuit.add_gate("g1", BUF, initial_value=1)  # settles to 0 at t=0
    circuit.add_gate("g2", BUF, initial_value=0)
    circuit.add_output("o")
    circuit.connect("a", "g1", PureDelayChannel(1.0), pin=0, name="e1")
    circuit.connect("g1", "g2", ZeroDelayChannel(), pin=0, name="e2")
    circuit.connect("g2", "o", PureDelayChannel(0.5), pin=0, name="e3")
    scenarios = [
        Scenario(name="s", inputs={"a": Signal.from_times([2.0])}, end_time=10.0)
    ]
    report = vector_capability(circuit, scenarios)
    assert any("settle" in reason for reason in report.reasons)
    with pytest.warns(RuntimeWarning):
        result = run_many(circuit, scenarios, backend="vector")
    sequential = run_many(circuit, scenarios, backend="sequential")
    assert_bit_identical(sequential, result.runs)


def test_dynamic_same_instant_delivery_falls_back():
    # DegradationDelayChannel yields a 0.0 delay for closely spaced
    # transitions (T <= T0) -- statically fine, but the run discovers the
    # same-instant delivery and must fall back, not diverge.
    circuit = Circuit("degradation")
    circuit.add_input("a", initial_value=0)
    circuit.add_gate("g", BUF, initial_value=0)
    circuit.add_output("o")
    circuit.connect(
        "a", "g", DegradationDelayChannel(1.5, 2.0, T0=0.5), pin=0, name="e1"
    )
    circuit.connect("g", "o")
    scenarios = [
        Scenario(
            name="s",
            inputs={"a": Signal.from_times([1.0, 1.2, 1.3, 1.35])},
            end_time=20.0,
        )
    ]
    assert vector_capability(circuit, scenarios).supported  # static pass
    with pytest.warns(RuntimeWarning, match="same-instant"):
        result = run_many(circuit, scenarios, backend="vector")
    assert result.backend == "sequential"
    sequential = run_many(circuit, scenarios, backend="sequential")
    assert_bit_identical(sequential, result.runs)


def test_unseeded_random_adversary_vectorizes():
    # Unseeded RandomAdversary instances are materialised by pre-drawing
    # one seed per (scenario, edge) slot before compilation -- no longer
    # a capability obstacle.  With the same pre-drawn seeds applied to
    # both backends the runs are bit-identical.
    circuit = inverter_chain(
        2, lambda: EtaInvolutionChannel(PAIR, ETA, RandomAdversary())
    )
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.pulse(1.0, 3.0)}, end_time=30.0)
    ]
    report = vector_capability(circuit, scenarios)
    assert report.supported, report.reasons
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_many(circuit, scenarios, backend="vector")
    assert result.backend == "vector"
    pinned = predraw_random_adversaries(
        CircuitTopology(circuit), scenarios, seed=1234
    )
    sequential = run_many(circuit, pinned, backend="sequential")
    vectorized = run_many(circuit, pinned, backend="vector")
    assert vectorized.backend == "vector"
    assert_bit_identical(sequential, vectorized.runs)


def test_capability_probe_never_raises_on_invalid_sweeps():
    circuit = inverter_chain(
        2, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    invalid = [
        Scenario(name="missing", inputs={}, end_time=10.0),
        Scenario(
            name="unknown-port",
            inputs={"in": Signal.pulse(1.0, 2.0), "bogus": Signal.constant(0)},
            end_time=10.0,
        ),
        Scenario(
            name="unknown-edge",
            inputs={"in": Signal.pulse(1.0, 2.0)},
            end_time=10.0,
            channels={"nope": PureDelayChannel(1.0)},
        ),
    ]
    for scenario in invalid:
        report = vector_capability(circuit, [scenario])
        assert not report.supported
        assert any("invalid sweep" in reason for reason in report.reasons)
        # compile_sweep (and the engine itself) still raise for these.
        with pytest.raises(SimulationError):
            compile_sweep(circuit, [scenario])


# --------------------------------------------------------------------------- #
# Deterministic adversaries, varying horizons, multi-input gates
# --------------------------------------------------------------------------- #


def test_deterministic_adversaries_bit_identical():
    inputs = {"in": Signal.from_times([1.0, 1.8, 4.0, 4.7, 9.0])}
    adversaries = [
        WorstCaseAdversary(),
        BestCaseAdversary(),
        SineAdversary(period=3.0, phase=0.4),
        SequenceAdversary([0.01, -0.01, 0.02], fill=0.0),
    ]
    circuit = inverter_chain(
        3, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    scenarios = [
        Scenario(
            name=f"adv{i}",
            inputs=inputs,
            end_time=40.0,
            channels={
                ename: edge.channel.with_adversary(adversary)
                for ename, edge in circuit.edges.items()
                if isinstance(edge.channel, EtaInvolutionChannel)
            },
        )
        for i, adversary in enumerate(adversaries)
    ]
    both_backends(circuit, scenarios)


def test_inadmissible_sequence_shift_raises_like_scalar():
    circuit = inverter_chain(
        1,
        lambda: EtaInvolutionChannel(
            PAIR, ETA, SequenceAdversary([10.0 * (ETA.eta_plus + 1.0)])
        ),
    )
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.pulse(1.0, 3.0)}, end_time=30.0)
    ]
    topology = CircuitTopology(circuit)
    with pytest.raises(ValueError, match="outside the admissible"):
        run_many(topology, scenarios, backend="sequential")
    with pytest.raises(ValueError, match="outside the admissible"):
        run_vector(topology, scenarios)


def test_varying_end_times_and_inputs():
    circuit = inverter_chain(
        3, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    scenarios = [
        Scenario(
            name=f"s{i}",
            inputs={"in": Signal.from_times([1.0 + 0.3 * i, 4.0 + 0.2 * i, 7.5])},
            end_time=5.0 + 4.0 * i,
        )
        for i in range(6)
    ]
    both_backends(circuit, scenarios)


def test_multi_input_gate_with_settle():
    # XOR of a signal with a delayed copy of itself: a two-input gate fed
    # by two timed channels with different delays, producing glitches.
    circuit = glitch_generator(
        PureDelayChannel(0.4, 0.4), PureDelayChannel(1.7, 1.7)
    )
    scenarios = [
        Scenario(
            name=f"s{i}",
            inputs={"in": Signal.from_times([1.0, 3.0 + 0.1 * i, 6.0])},
            end_time=20.0,
        )
        for i in range(4)
    ]
    both_backends(circuit, scenarios)


def test_inconsistent_gate_initial_settles_at_zero():
    circuit = Circuit("settle")
    circuit.add_input("in", initial_value=1)
    # BUF of a constant-1 input declared with initial 0: the engine's
    # settle pass flips it at time 0.
    circuit.add_gate("g", BUF, initial_value=0)
    circuit.add_output("out")
    circuit.connect("in", "g", PureDelayChannel(0.5), pin=0, name="ch")
    circuit.connect("g", "out")
    scenarios = [
        Scenario(name="s", inputs={"in": Signal.constant(1)}, end_time=10.0)
    ]
    sequential, vector_runs = both_backends(circuit, scenarios)
    out = vector_runs[0].execution.node_signals["g"]
    assert out.initial_value == 0 and list(out)[0].time == 0.0


def test_max_events_exceeded_raises_like_scalar():
    circuit = inverter_chain(
        4, lambda: EtaInvolutionChannel(PAIR, ETA, ZeroAdversary())
    )
    inputs = {"in": Signal.from_times([1.0 + 0.9 * k for k in range(30)])}
    scenarios = [Scenario(name="s", inputs=inputs, end_time=200.0)]
    topology = CircuitTopology(circuit)
    with pytest.raises(SimulationError, match="max_events"):
        run_many(topology, scenarios, backend="sequential", max_events=20)
    with pytest.raises(SimulationError, match="max_events"):
        run_vector(topology, scenarios, max_events=20)


def test_api_sweep_vector_backend():
    from repro import api
    from repro.specs import ChannelSpec

    channel = ChannelSpec.exp_eta_involution(
        tau=1.0, t_p=0.5, eta=(0.05, 0.05)
    )
    circuit = inverter_chain(4, channel)
    circuit_built, scenarios = api.monte_carlo(
        circuit, {"in": Signal.pulse(1.0, 4.0)}, end_time=60.0, n_runs=8, seed=2
    )
    vector = api.sweep(circuit_built, scenarios, backend="vector")
    sequential = api.sweep(circuit_built, scenarios, backend="sequential")
    assert vector.backend == "vector"
    assert_bit_identical(sequential, vector.runs)
