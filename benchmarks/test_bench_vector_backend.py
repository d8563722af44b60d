"""Bit-identity of the vectorized batch backend and the sequential engine.

``run_many(backend="vector")`` compiles the topology once into dense
per-scenario arrays and evaluates all runs of the eta Monte Carlo chain
sweep at once; every run must equal the sequential reference.  The
second workload terminates the chain by a storage loop, so the sweep is
cyclic and the vector engine runs its fixpoint schedule.

Sizes follow the hypothesis profile (see ``conftest.py``).
"""

import pytest

from repro.engine import run_many

pytestmark = pytest.mark.differential


def test_vector_sweep_vs_sequential(chain):
    vector = run_many(chain.topology, chain.scenarios, backend="vector")
    assert vector.backend == "vector"
    chain.assert_matches(vector)


def test_vector_sweep_cyclic_vs_sequential(cyclic_chain):
    vector = run_many(cyclic_chain.topology, cyclic_chain.scenarios, backend="vector")
    assert vector.backend == "vector"
    cyclic_chain.assert_matches(vector)
