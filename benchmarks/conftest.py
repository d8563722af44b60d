"""Shared fixtures for the paper-claim tests and the engine equalities.

Every test in this directory is a plain test that runs once and times
nothing; ``perfbench/`` is the repository's benchmark.  The file and test
names are the ones these checks had when this directory was a timing
harness, kept so that their ids stay stable.

The paper-claim tests each regenerate one figure, lemma or theorem of the
paper and check its invariants (``repro experiment run <kind>`` prints
the same tables).  The engine equalities (``test_bench_engine_hot_path``,
``test_bench_sharded_sweep``, ``test_bench_sweep_runner`` and
``test_bench_vector_backend``, marked ``differential``) check the
engine's fast paths bit for bit against their references.  Their size
follows the hypothesis profile ``tests/conftest.py`` loads when pytest
runs from the repository root: ``ci`` (the ``differential`` CI job) runs
the full sizes, the default ``dev`` (tier-1) sizes at which each check
takes well under 2 s.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.circuits import BUF, OR2, inverter_chain
from repro.core import (
    EtaInvolutionChannel,
    InvolutionPair,
    PureDelayChannel,
    Signal,
    ZeroAdversary,
    admissible_eta_bound,
)
from repro.engine import CircuitTopology, eta_monte_carlo, run_many


@pytest.fixture(scope="session")
def exp_pair() -> InvolutionPair:
    """The canonical symmetric exp-channel pair used by the paper claims."""
    return InvolutionPair.exp_channel(tau=1.0, t_p=0.5)


@pytest.fixture(scope="session")
def eta_small(exp_pair):
    """The eta bound used by the storage-loop claims (eta_plus = 0.05)."""
    return admissible_eta_bound(exp_pair, eta_plus=0.05)


@pytest.fixture(scope="session")
def full_size() -> bool:
    """Whether the engine equalities run at full size.

    The ``ci`` profile runs 200 hypothesis examples, ``dev`` 15.
    """
    return settings.default.max_examples >= 200


class ChainSweep:
    """The eta Monte Carlo chain sweep and its one sequential reference.

    *n* seeded scenarios of a surviving pulse train through an
    eta-involution inverter chain of *stages* stages: every pulse
    traverses the whole chain, so each run does real event work on every
    stage.  ``cyclic`` terminates the chain by a storage loop (an OR2
    latch held through a slow buffer, two 45-unit pure delays), so the
    vector engine must run its fixpoint pass while most of the event
    traffic still flows through the acyclic prefix.
    """

    def __init__(self, n: int, stages: int, pulses: int, cyclic: bool) -> None:
        pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
        eta = admissible_eta_bound(pair, eta_plus=0.05)
        circuit = inverter_chain(
            stages, lambda: EtaInvolutionChannel(pair, eta, ZeroAdversary())
        )
        if cyclic:
            circuit.add_gate("latch", OR2, initial_value=0)
            circuit.add_gate("hold", BUF, initial_value=0)
            circuit.add_output("stored")
            circuit.connect(
                f"inv{stages}", "latch",
                EtaInvolutionChannel(pair, eta, ZeroAdversary()),
                pin=0, name="into_loop",
            )
            circuit.connect("latch", "hold", PureDelayChannel(45.0), pin=0, name="fwd")
            circuit.connect("hold", "latch", PureDelayChannel(45.0), pin=1, name="back")
            circuit.connect("latch", "stored")
        unit = pair.delta_up_inf + pair.delta_down_inf
        inputs = {
            "in": Signal.pulse_train(
                1.0, [2.0 * unit] * pulses, [3.0 * unit] * (pulses - 1)
            )
        }
        end_time = 1.0 + 5.0 * unit * pulses + 10.0 * stages * pair.delta_up_inf
        self.topology = CircuitTopology(circuit)
        self.scenarios = eta_monte_carlo(circuit, inputs, end_time, n, seed=5)
        self.reference = run_many(self.topology, self.scenarios, backend="sequential")

    def assert_matches(self, sweep) -> None:
        """Every run of *sweep* equals the sequential reference bit for bit."""
        assert len(sweep.runs) == len(self.reference.runs)
        for ref, run in zip(self.reference.runs, sweep.runs):
            assert run.scenario.name == ref.scenario.name
            assert run.execution.event_count == ref.execution.event_count
            assert run.execution.dropped_transitions == ref.execution.dropped_transitions
            assert run.execution.node_signals == ref.execution.node_signals
            assert run.execution.edge_signals == ref.execution.edge_signals


def _chain_sweep(full_size: bool, cyclic: bool) -> ChainSweep:
    # Full size: 120 scenarios of 72 pulses through 32 stages.
    if full_size:
        return ChainSweep(120, stages=32, pulses=72, cyclic=cyclic)
    return ChainSweep(24, stages=16, pulses=8, cyclic=cyclic)


@pytest.fixture(scope="session")
def chain(full_size) -> ChainSweep:
    """The acyclic chain sweep, shared by every equality on it."""
    return _chain_sweep(full_size, cyclic=False)


@pytest.fixture(scope="session")
def cyclic_chain(full_size) -> ChainSweep:
    """The chain sweep terminated by a storage loop."""
    return _chain_sweep(full_size, cyclic=True)
