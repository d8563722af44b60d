"""Bit-identity of checkpointed and resumed sweeps.

``run_many(backend="auto", checkpoint=...)`` over the eta Monte Carlo
chain sweep must return the sequential reference bit for bit, and so
must a resume against the finished store.  The fresh run computes every
chunk and the resume computes none, which is why a resume is cheap.  The
same checkpointed sweep on two worker processes must match as well.

Sizes follow the hypothesis profile (see ``conftest.py``); at both sizes
the 16-scenario checkpoint chunks split the sweep into several chunks.
"""

import pytest

from repro.engine import run_many
from repro.store import ArtifactStore

pytestmark = pytest.mark.differential


def test_sharded_checkpoint_overhead(chain, tmp_path):
    store = ArtifactStore(tmp_path / "ckpt")
    fresh = run_many(chain.topology, chain.scenarios, backend="auto", checkpoint=store)
    resumed = run_many(chain.topology, chain.scenarios, backend="auto", checkpoint=store)
    chunks = len(fresh.shard_report.records)
    assert chunks > 1
    assert fresh.shard_report.computed == chunks
    assert resumed.shard_report.computed == 0
    assert resumed.shard_report.resumed == chunks
    chain.assert_matches(fresh)
    chain.assert_matches(resumed)

    pooled = run_many(
        chain.topology, chain.scenarios, backend="auto", max_workers=2,
        checkpoint=ArtifactStore(tmp_path / "pooled"),
    )
    chain.assert_matches(pooled)
