"""Self-test of the benchmark's output checks, tracing and calibration.

Corrupting one transition or one theorem9 row must raise the failure
count above 0; untouched outputs must pass.  Run with
``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

import dataclasses
import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from calibrate import REFERENCE_S, Probe, sample, scaled  # noqa: E402
from checks import (  # noqa: E402
    Tally,
    digest_mismatches,
    digests,
    eta_band_violations,
    run_digest,
    same_execution,
    theorem9_problem,
)
from tracing import PER_LAYER, Tracer, per_layer  # noqa: E402
from worker import scipy_import_s  # noqa: E402

TAU, T_P, V_TH = 1.0, 0.5, 0.5


@pytest.fixture(scope="module")
def sweep():
    """A 3-stage eta chain, 3 Monte Carlo scenarios, on the scalar engine."""
    from repro import api
    from repro.circuits import inverter_chain
    from repro.core import EtaInvolutionChannel, InvolutionPair, Signal, admissible_eta_bound
    from repro.engine import CircuitTopology, eta_monte_carlo
    from repro.specs import ChannelSpec

    pair = InvolutionPair.exp_channel(tau=TAU, t_p=T_P, v_th=V_TH)
    eta = admissible_eta_bound(pair, eta_plus=0.05)
    topology = CircuitTopology(
        inverter_chain(3, ChannelSpec.exp_eta_involution(TAU, T_P, eta, V_TH))
    )
    unit = pair.delta_up_inf + pair.delta_down_inf
    inputs = {"in": Signal.pulse_train(1.0, [4.0 * unit] * 4, [4.0 * unit] * 3)}
    scenarios = eta_monte_carlo(topology, inputs, 100.0, 3, seed=11)
    edges = {
        name: edge.source
        for name, edge in topology.edges.items()
        if isinstance(edge.channel, EtaInvolutionChannel)
    }
    result = api.sweep(topology, scenarios, backend="sequential")
    return result, edges, eta, (api, topology, scenarios)


def _shift_one(signal, delta):
    times = signal.transition_times()
    times[len(times) // 2] += delta
    return type(signal).from_times(times, signal.initial_value)


def _corrupt_output(run, delta=1e-9):
    execution = run.execution
    outputs = {port: _shift_one(sig, delta) for port, sig in execution.output_signals.items()}
    return dataclasses.replace(
        run, execution=dataclasses.replace(execution, output_signals=outputs)
    )


def test_untouched_outputs_pass(sweep):
    result, edges, eta, (api, topology, scenarios) = sweep
    again = api.sweep(topology, scenarios, backend="vector")
    assert digest_mismatches(digests(result), digests(again)) == 0
    assert all(same_execution(a.execution, b.execution) for a, b in zip(result, again))
    for run in result:
        assert eta_band_violations(
            run.execution, edges, tau=TAU, t_p=T_P, v_th=V_TH,
            eta_plus=eta.eta_plus, eta_minus=eta.eta_minus,
        ) == []


def test_corrupted_transition_fails(sweep):
    result, edges, eta, _ = sweep
    reference = digests(result)
    runs = list(result.runs)
    runs[1] = _corrupt_output(runs[1])
    tally = Tally()
    tally.add(len(runs), digest_mismatches(reference, [run_digest(r) for r in runs]), "digest")
    assert tally.failed == 1
    assert tally.failed_frac > 0


def test_corrupted_edge_delay_leaves_eta_band(sweep):
    result, edges, eta, _ = sweep
    execution = result.runs[0].execution
    edge = next(iter(edges))
    signals = dict(execution.edge_signals)
    # Later than delta(T) + eta_plus for any T: outside the band.
    signals[edge] = _shift_one(signals[edge], eta.eta_plus + 0.1)
    corrupted = dataclasses.replace(execution, edge_signals=signals)
    bad = eta_band_violations(
        corrupted, edges, tau=TAU, t_p=T_P, v_th=V_TH,
        eta_plus=eta.eta_plus, eta_minus=eta.eta_minus,
    )
    assert len(bad) == 1
    assert not same_execution(execution, corrupted)
    tally = Tally()
    tally.add(1, bool(bad), "eta band")
    assert tally.failed_frac > 0


def test_corrupted_theorem9_row_fails():
    rows = [{"consistent": True, "delta_0": 0.1 * i} for i in range(72)]
    assert theorem9_problem({"result": {"rows": rows}}, 0, 72) is None
    rows[5] = dict(rows[5], consistent=False)
    problem = theorem9_problem({"result": {"rows": rows}}, 0, 72)
    assert problem == "1 rows not consistent"
    tally = Tally()
    tally.add(1, problem is not None, "theorem9")
    assert tally.failed_frac == 1.0
    assert theorem9_problem({"result": {"rows": rows[:71]}}, 0, 72) is not None
    assert theorem9_problem(None, 0, 72) is not None
    assert theorem9_problem({"result": {"rows": rows}}, 1, 72) == "exit code 1"


def test_tracer_sees_layers_and_restores_them(sweep):
    _, _, _, (api, topology, scenarios) = sweep
    import repro.engine.scheduler as scheduler

    original = scheduler.Engine.run
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_call("wall:0")
        api.sweep(topology, scenarios, backend="sequential")
        tracer.end_call()
    finally:
        tracer.uninstall()
    assert scheduler.Engine.run is original
    export = tracer.export()
    metrics = per_layer(export["spans"], export["draws"], {}, 0.0)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["engine.scheduler.runs"] == len(scenarios)
    assert metrics["engine.vector.compile_calls"] == 0
    assert metrics["core.adversary.draws"] > 0
    assert metrics["engine.sweep.self_s"] >= 0


def test_scaled_time_uses_the_probe_samples_inside_the_span():
    samples = [(0.5, 9 * REFERENCE_S), (1.0, REFERENCE_S), (2.0, 3 * REFERENCE_S), (5.0, 9.0)]
    # Inside [1, 3] the probe ran 2x slower than the reference on average.
    assert scaled(2.0, samples, 1.0, 3.0) == pytest.approx(1.0)
    # No sample inside: the nearest one counts.
    assert scaled(2.0, samples, 2.1, 2.2) == pytest.approx(2.0 / 3)
    assert sample() > 0.0


def test_probe_samples_until_closed():
    probe = Probe(sorted(os.sched_getaffinity(0))[0])
    time.sleep(0.2)
    samples = probe.close()
    assert probe.proc.returncode == 0
    assert len(samples) >= 2
    assert all(start > 0 and seconds > 0 for start, seconds in samples)


def test_scipy_share_counts_outermost_imports_once():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:        50 |         50 |   numpy",
            "import time:        10 |        360 | repro.core",
            "import time:        40 |         40 | scipy.optimize",
        ]
    )
    assert scipy_import_s(text) == pytest.approx(340e-6)
