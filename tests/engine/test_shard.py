"""Fault-tolerance tests for the sharded sweep runner.

Faults are injected through the private ``_chaos`` table of
``run_many_sharded``.  Inline faults (raise, abort) are deterministic and
fast and live here unmarked; the tests that kill or hang *real*
process-pool workers are marked ``chaos`` and run as a separate CI job
(they respawn pools and wait out timeouts, which is slow and noisy next
to tier-1).  Only a crashed or timed-out worker is retried, so every
retry test kills or hangs a pool worker.  A dead worker is charged to
the chunk that killed it, whichever chunks ran beside it: those that
were in flight together rerun one at a time, at the same attempt, so a
test may kill any chunk.
"""

import base64
import json
import tempfile
import warnings
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import inverter_chain
from repro.core import (
    EtaInvolutionChannel,
    InvolutionChannel,
    Signal,
    ZeroAdversary,
)
from repro.engine import Scenario, SimulationError, eta_monte_carlo, run_many
from repro.engine.scheduler import CircuitTopology
from repro.engine.shard import (
    DEFAULT_CHUNK_SIZE,
    ChunkTimeoutError,
    SweepChunk,
    SweepFailedError,
    WorkerCrashError,
    _backoff,
    _ChunkOutcome,
    _decode_chunk_payload,
    _encode_chunk_payload,
    make_chunks,
    run_many_sharded,
)
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def chain(exp_pair):
    return inverter_chain(3, lambda: InvolutionChannel(exp_pair))


@pytest.fixture(scope="module")
def eta_chain(exp_pair, eta_small):
    return inverter_chain(
        3, lambda: EtaInvolutionChannel(exp_pair, eta_small, ZeroAdversary())
    )


@pytest.fixture(scope="module")
def mc_scenarios(eta_chain):
    """Eight seeded Monte Carlo scenarios: the bit-identity workload."""
    return eta_monte_carlo(
        eta_chain, {"in": Signal.pulse(1.0, 2.0)}, 40.0, 8, seed=11
    )


@pytest.fixture(scope="module")
def baseline(eta_chain, mc_scenarios):
    """The uninterrupted sweep every resume test must match bit-for-bit."""
    return run_many(eta_chain, mc_scenarios, backend="sequential")


def pulse_scenarios(n, end_time=40.0):
    return [
        Scenario(f"w={i}", {"in": Signal.pulse(1.0, 0.5 + 0.5 * i)}, end_time)
        for i in range(n)
    ]


def assert_sweeps_identical(a, b):
    assert len(a.runs) == len(b.runs)
    for ra, rb in zip(a.runs, b.runs):
        assert ra.scenario.name == rb.scenario.name
        assert ra.execution.event_count == rb.execution.event_count
        assert ra.execution.dropped_transitions == rb.execution.dropped_transitions
        assert ra.execution.node_signals == rb.execution.node_signals
        assert ra.execution.edge_signals == rb.execution.edge_signals


class TestRetryPolicy:
    """``retry=`` is ``None`` or an int of total attempts; retries back off."""

    def test_delay_schedule_is_exponential_and_capped(self):
        assert _backoff(1) == 0.0
        assert _backoff(2) == pytest.approx(0.1)
        assert _backoff(3) == pytest.approx(0.2)
        assert _backoff(4) == pytest.approx(0.4)
        assert _backoff(10) == pytest.approx(25.6)
        assert _backoff(11) == pytest.approx(30.0)  # capped
        assert _backoff(40) == pytest.approx(30.0)

    def test_validation(self, eta_chain, mc_scenarios):
        for retry in (0, -1):
            with pytest.raises(ValueError, match="retry"):
                run_many_sharded(eta_chain, mc_scenarios, retry=retry)

    @pytest.mark.chaos
    def test_coercion(self, eta_chain, mc_scenarios):
        # None is a single attempt: a killed worker's chunk is not retried.
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, backend="sequential", chunk_size=4,
            max_workers=2, retry=None, on_chunk_failure="keep",
            _chaos={"kill": [[0, 1]]},
        )
        (failure,) = sweep.failure_report
        assert (failure.index, failure.kind, failure.attempts) == (0, "crash", 1)
        for retry in ("twice", 2.0):
            with pytest.raises(TypeError, match="retry"):
                run_many_sharded(eta_chain, mc_scenarios, retry=retry)


class TestChunking:
    def test_chunks_preserve_order_and_cover_everything(self):
        scenarios = pulse_scenarios(7)
        chunks = make_chunks(scenarios, 3)
        assert [len(c.scenarios) for c in chunks] == [3, 3, 1]
        flat = [s for c in chunks for s in c.scenarios]
        assert flat == scenarios

    def test_keys_absent_without_circuit_spec(self):
        (chunk,) = make_chunks(pulse_scenarios(2), 4)
        assert chunk.key is None and chunk.spec is None

    def test_keys_are_deterministic(self, eta_chain, mc_scenarios):
        spec = eta_chain.to_spec().to_dict()
        a = make_chunks(mc_scenarios, 3, circuit_spec=spec)
        b = make_chunks(mc_scenarios, 3, circuit_spec=spec)
        assert [c.key for c in a] == [c.key for c in b]
        assert all(len(c.key) == 64 for c in a)

    def test_keys_ignore_names_and_metadata(self, eta_chain, mc_scenarios):
        spec = eta_chain.to_spec().to_dict()
        renamed = [
            Scenario(f"other[{i}]", s.inputs, s.end_time, s.channels, {"extra": i})
            for i, s in enumerate(mc_scenarios)
        ]
        a = make_chunks(mc_scenarios, 3, circuit_spec=spec)
        b = make_chunks(renamed, 3, circuit_spec=spec)
        assert [c.key for c in a] == [c.key for c in b]

    def test_precomputed_fingerprints_match_derived(self, mc_scenarios):
        # eta_monte_carlo fills Scenario.fingerprint knowing only the
        # adversary seed varies between runs; it must agree exactly with
        # what scenario_fingerprint derives from the live objects, or a
        # resumed sweep could return a *different* scenario's cached
        # chunk.  (The docstrings promise this pin -- keep it.)
        import dataclasses

        from repro.engine.shard import scenario_fingerprint

        for scenario in mc_scenarios:
            assert scenario.fingerprint is not None
            derived = scenario_fingerprint(
                dataclasses.replace(scenario, fingerprint=None)
            )
            assert scenario.fingerprint == derived

    def test_pooled_specs_key_identically_for_aliased_and_fresh_dicts(
        self, eta_chain, mc_scenarios
    ):
        # Chunk-spec pooling is by value (canonical JSON), never by
        # object identity: scenarios whose producer aliased the shared
        # fingerprint tables and scenarios rebuilt from scratch must
        # produce the same chunk keys.
        import dataclasses

        spec = eta_chain.to_spec().to_dict()
        fresh = [dataclasses.replace(s, fingerprint=None) for s in mc_scenarios]
        a = make_chunks(mc_scenarios, 3, circuit_spec=spec)
        b = make_chunks(fresh, 3, circuit_spec=spec)
        assert [c.key for c in a] == [c.key for c in b]

    def test_keys_depend_on_computation_inputs(self, eta_chain, mc_scenarios):
        spec = eta_chain.to_spec().to_dict()
        base = make_chunks(mc_scenarios, 3, circuit_spec=spec)
        resized = make_chunks(mc_scenarios, 4, circuit_spec=spec)
        assert base[0].key != resized[0].key  # boundaries are identity
        other_events = make_chunks(mc_scenarios, 3, circuit_spec=spec, max_events=99)
        assert base[0].key != other_events[0].key
        reseeded = eta_monte_carlo(
            eta_chain, {"in": Signal.pulse(1.0, 2.0)}, 40.0, 8, seed=12
        )
        assert make_chunks(reseeded, 3, circuit_spec=spec)[0].key != base[0].key


def _signal_bytes(signals):
    """Initial values and float64 time bytes: ``==`` equates -0.0 and 0.0."""
    return {
        name: (signal.initial_value, array("d", signal.transition_times()).tobytes())
        for name, signal in signals.items()
    }


def test_vector_signals_survive_the_checkpoint_codec_byte_for_byte(
    eta_chain, mc_scenarios, baseline
):
    # Vector assembly copies one result-matrix row per signal; the
    # checkpoint codec must carry exactly those bytes, and they must be
    # the sequential engine's.
    result = run_many(eta_chain, mc_scenarios, backend="vector")
    assert result.backend == "vector"
    outcome = _ChunkOutcome(
        runs=result.runs, backend="vector", vector_reasons=(), seconds=0.0
    )
    payload = json.loads(json.dumps(_encode_chunk_payload(outcome)))
    chunk = SweepChunk(index=0, scenarios=tuple(mc_scenarios))
    decoded = _decode_chunk_payload(CircuitTopology(eta_chain), chunk, payload)
    assert decoded is not None
    checked = 0
    for vec, dec, seq in zip(result.runs, decoded.runs, baseline.runs):
        for group in ("node_signals", "edge_signals", "output_signals"):
            vec_bytes = _signal_bytes(getattr(vec.execution, group))
            assert vec_bytes == _signal_bytes(getattr(dec.execution, group))
            assert vec_bytes == _signal_bytes(getattr(seq.execution, group))
            checked += sum(len(t) for _, t in vec_bytes.values())
    assert checked > 0


class TestShardedEquivalence:
    @pytest.mark.parametrize("backend", ["auto", "vector", "sequential"])
    def test_matches_plain_run_many(self, eta_chain, mc_scenarios, baseline, backend):
        sharded = run_many_sharded(
            eta_chain, mc_scenarios, backend=backend, chunk_size=3
        )
        assert_sweeps_identical(baseline, sharded)
        # Three chunks of at most 3 scenarios: below the break-even, auto
        # runs them all scalar.
        assert sharded.backend == {
            "auto": "sequential", "vector": "vector", "sequential": "sequential"
        }[backend]
        assert sharded.shard_report.computed == 3
        assert sharded.shard_report.failed == 0

    def test_run_many_routes_auto_to_sharded(self, eta_chain, mc_scenarios):
        sweep = run_many(eta_chain, mc_scenarios, backend="auto")
        assert sweep.shard_report is not None
        # Without a store the whole sweep is one inline chunk.
        assert sweep.shard_report.chunk_size == len(mc_scenarios)

    def test_default_chunk_size_follows_the_inputs(
        self, eta_chain, mc_scenarios, tmp_path
    ):
        def size(**kwargs):
            sweep = run_many(eta_chain, mc_scenarios, **kwargs)
            return sweep.shard_report.chunk_size

        assert size() == len(mc_scenarios)
        assert size(max_workers=2) == len(mc_scenarios) // 2
        # Chunk boundaries are part of the checkpoint key: a store keeps
        # the fixed default whatever the worker count.
        assert size(checkpoint=tmp_path / "a") == DEFAULT_CHUNK_SIZE
        assert size(checkpoint=tmp_path / "b", max_workers=2) == DEFAULT_CHUNK_SIZE
        assert size(chunk_size=3, checkpoint=tmp_path / "c") == 3

    def test_run_many_routes_on_any_sharding_knob(self, eta_chain, mc_scenarios):
        sweep = run_many(eta_chain, mc_scenarios, backend="sequential", retry=2)
        assert sweep.shard_report is not None

    def test_vector_runs_report_per_chunk_seconds(self, eta_chain, mc_scenarios):
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, backend="vector", chunk_size=4
        )
        assert {r.backend for r in sweep.shard_report.records} == {"vector"}
        assert all(r.seconds >= 0.0 for r in sweep.shard_report.records)


class TestCheckpointResume:
    def test_second_run_resumes_every_chunk(self, eta_chain, mc_scenarios, tmp_path):
        store = ArtifactStore(tmp_path / "ckpt")
        first = run_many_sharded(
            eta_chain, mc_scenarios, backend="vector", checkpoint=store,
            chunk_size=3,
        )
        assert first.shard_report.computed == 3
        second = run_many_sharded(
            eta_chain, mc_scenarios, backend="vector", checkpoint=store,
            chunk_size=3,
        )
        assert second.shard_report.resumed == 3
        assert second.shard_report.computed == 0
        assert_sweeps_identical(first, second)
        # The resumed result still reports the backend that originally ran.
        assert {r.backend for r in second.shard_report.records} == {"vector"}

    def test_interrupted_sweep_resumes_bit_identically(
        self, eta_chain, mc_scenarios, baseline, tmp_path
    ):
        store = ArtifactStore(tmp_path / "ckpt")
        with pytest.raises(KeyboardInterrupt):
            run_many_sharded(
                eta_chain, mc_scenarios, checkpoint=store, chunk_size=3,
                _chaos={"abort": [[2, 1]]},
            )
        # Chunks 0 and 1 finished before the "kill" and are on disk.
        resumed = run_many_sharded(
            eta_chain, mc_scenarios, checkpoint=store, chunk_size=3
        )
        assert resumed.shard_report.resumed == 2
        assert resumed.shard_report.computed == 1
        assert_sweeps_identical(baseline, resumed)

    def test_failed_checkpoint_write_ends_the_sweep_at_its_chunk(
        self, eta_chain, mc_scenarios, baseline, tmp_path
    ):
        class FailingStore(ArtifactStore):
            puts = 0

            def put_payload(self, *args, **kwargs):
                self.puts += 1
                if self.puts == 2:
                    raise OSError("disk full")
                return super().put_payload(*args, **kwargs)

        store = FailingStore(tmp_path / "ckpt")
        with pytest.raises(OSError, match="^disk full$"):
            run_many_sharded(eta_chain, mc_scenarios, checkpoint=store, chunk_size=2)
        assert store.puts == 2  # chunks 2 and 3 never ran
        resumed = run_many_sharded(
            eta_chain, mc_scenarios, checkpoint=tmp_path / "ckpt", chunk_size=2
        )
        assert resumed.shard_report.resumed == 1
        assert resumed.shard_report.computed == 3
        assert_sweeps_identical(baseline, resumed)

    def test_cyclic_sweep_resumes_onto_vector_chunks(self, tmp_path):
        # Feedback cycles run on the vector backend: a killed
        # `backend="vector"` sweep over the paper's storage loop must
        # resume with every chunk -- checkpointed and recomputed alike
        # -- on the vector path, bit-identical to an unbroken run.
        from repro.circuits import fed_back_or
        from repro.core import InvolutionPair, admissible_eta_bound

        pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
        eta = admissible_eta_bound(pair, eta_plus=0.05)
        loop = fed_back_or(EtaInvolutionChannel(pair, eta, ZeroAdversary()))
        scenarios = [
            Scenario(
                f"w={w:g}", {"i": Signal.pulse(0.0, w)}, 120.0
            )
            for w in (0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.4, 1.8)
        ]
        baseline = run_many(loop, scenarios, backend="sequential")
        store = ArtifactStore(tmp_path / "ckpt")
        with pytest.raises(KeyboardInterrupt):
            run_many_sharded(
                loop, scenarios, backend="vector", checkpoint=store,
                chunk_size=3, _chaos={"abort": [[2, 1]]},
            )
        resumed = run_many_sharded(
            loop, scenarios, backend="vector", checkpoint=store, chunk_size=3
        )
        assert resumed.shard_report.resumed == 2
        assert resumed.shard_report.computed == 1
        assert {r.backend for r in resumed.shard_report.records} == {"vector"}
        assert_sweeps_identical(baseline, resumed)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(interrupted_at=st.integers(min_value=0, max_value=3))
    def test_resume_equivalence_for_all_interruption_points(
        self, eta_chain, mc_scenarios, baseline, interrupted_at
    ):
        """resume(interrupted_at=k) == uninterrupted sweep, for every k."""
        with tempfile.TemporaryDirectory() as tmp:
            store = ArtifactStore(tmp)
            with pytest.raises(KeyboardInterrupt):
                run_many_sharded(
                    eta_chain, mc_scenarios, checkpoint=store, chunk_size=2,
                    _chaos={"abort": [[interrupted_at, 1]]},
                )
            resumed = run_many_sharded(
                eta_chain, mc_scenarios, checkpoint=store, chunk_size=2
            )
            assert resumed.shard_report.resumed == interrupted_at
            assert resumed.shard_report.computed == 4 - interrupted_at
            assert_sweeps_identical(baseline, resumed)
            assert resumed.shard_report.failed == 0

    def test_accepts_plain_directory_path(self, eta_chain, mc_scenarios, tmp_path):
        run_many_sharded(
            eta_chain, mc_scenarios, checkpoint=str(tmp_path / "c"), chunk_size=4
        )
        resumed = run_many_sharded(
            eta_chain, mc_scenarios, checkpoint=str(tmp_path / "c"), chunk_size=4
        )
        assert resumed.shard_report.resumed == 2

    def test_damaged_chunk_artifact_is_recomputed(
        self, eta_chain, mc_scenarios, baseline, tmp_path
    ):
        store = ArtifactStore(tmp_path / "ckpt")
        run_many_sharded(eta_chain, mc_scenarios, checkpoint=store, chunk_size=3)
        victim = store.paths()[0]
        victim.write_text(victim.read_text()[: len(victim.read_text()) // 2])
        with warnings.catch_warnings():
            # Recomputing over the torn artifact repairs it (with the
            # store's replacing-damaged-artifact warning).
            warnings.simplefilter("ignore", RuntimeWarning)
            resumed = run_many_sharded(
                eta_chain, mc_scenarios, checkpoint=store, chunk_size=3
            )
        assert resumed.shard_report.computed == 1
        assert resumed.shard_report.resumed == 2
        assert_sweeps_identical(baseline, resumed)

    @pytest.mark.parametrize("edit", ["reverse_times", "initial_value_2", "delete"])
    def test_hand_edited_signal_is_recomputed(
        self, eta_chain, mc_scenarios, baseline, tmp_path, edit
    ):
        """Edits that still parse must not be trusted: the chunk is a miss."""
        store = ArtifactStore(tmp_path / "ckpt")
        run_many_sharded(eta_chain, mc_scenarios, checkpoint=store, chunk_size=3)
        victim = store.paths()[0]
        data = json.loads(victim.read_text())
        edges = data["payload"]["runs"][0]["edge_signals"]
        # An edge with two or more transitions (12 base64 chars per float64).
        name = next(n for n, sig in edges.items() if len(sig["t"]) > 12)
        if edit == "reverse_times":
            times = array("d", base64.b64decode(edges[name]["t"]))
            times.reverse()
            edges[name]["t"] = base64.b64encode(times).decode("ascii")
        elif edit == "initial_value_2":
            edges[name]["i"] = 2
        else:
            del edges[name]
        victim.write_text(json.dumps(data))
        resumed = run_many_sharded(
            eta_chain, mc_scenarios, checkpoint=store, chunk_size=3
        )
        assert resumed.shard_report.computed == 1
        assert resumed.shard_report.resumed == 2
        assert_sweeps_identical(baseline, resumed)

    def test_wrong_run_count_payload_is_recomputed(
        self, eta_chain, mc_scenarios, tmp_path
    ):
        store = ArtifactStore(tmp_path / "ckpt")
        run_many_sharded(eta_chain, mc_scenarios, checkpoint=store, chunk_size=3)
        victim = store.paths()[0]
        data = json.loads(victim.read_text())
        data["payload"]["runs"] = data["payload"]["runs"][:1]  # truncated chunk
        victim.write_text(json.dumps(data))
        resumed = run_many_sharded(
            eta_chain, mc_scenarios, checkpoint=store, chunk_size=3
        )
        assert resumed.shard_report.computed == 1

    def test_unspeccable_scenarios_rejected_with_checkpoint(self, chain, tmp_path):
        class Opaque(InvolutionChannel):
            pass

        ename = next(iter(chain.edges))
        scenarios = [
            Scenario(
                "s", {"in": Signal.pulse(1.0, 1.0)}, 10.0,
                channels={ename: Opaque(chain.edges[ename].channel.pair)},
            )
        ]
        with pytest.raises(SimulationError, match="spec-representable"):
            run_many_sharded(chain, scenarios, checkpoint=tmp_path / "c")
        # ... but the same sweep runs fine without a checkpoint (falling
        # back, audibly, to the scalar engine for the opaque channel).
        with pytest.warns(RuntimeWarning, match="fell back"):
            run_many_sharded(chain, scenarios, backend="vector")

    def test_checkpoint_reclaims_stale_tmp_files(
        self, eta_chain, mc_scenarios, tmp_path
    ):
        import os
        import time

        store = ArtifactStore(tmp_path / "ckpt")
        store.root.mkdir(parents=True)
        stale = store.root / "ab"
        stale.mkdir()
        stale = stale / "x.json.tmp-1-deadbeef"
        stale.write_text("{")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        run_many_sharded(eta_chain, mc_scenarios, checkpoint=store, chunk_size=4)
        assert not stale.exists()


class TestRetrySemantics:
    @pytest.mark.chaos
    def test_transient_failure_retries_with_backoff_then_succeeds(
        self, eta_chain, mc_scenarios, baseline, monkeypatch
    ):
        import repro.engine.shard as shard_module

        delays = []

        def recording_backoff(attempt):
            delays.append(_backoff(attempt))
            return delays[-1]

        monkeypatch.setattr(shard_module, "_backoff", recording_backoff)
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, chunk_size=3, max_workers=2, retry=3,
            _chaos={"kill": [[0, 1], [0, 2]]},
        )
        assert_sweeps_identical(baseline, sweep)
        records = {r.index: r for r in sweep.shard_report.records}
        assert records[0].attempts == 3
        assert records[1].attempts == 1 and records[2].attempts == 1
        assert delays == [pytest.approx(0.1), pytest.approx(0.2)]

    @pytest.mark.chaos
    def test_integer_retry_means_total_attempts(self, eta_chain, mc_scenarios):
        with pytest.raises(SweepFailedError) as excinfo:
            run_many_sharded(
                eta_chain, mc_scenarios, chunk_size=4, max_workers=2,
                retry=2, on_chunk_failure="raise",
                _chaos={"kill": [[0, a] for a in range(1, 9)]},
            )
        failure = excinfo.value.report.failures[0]
        assert (failure.index, failure.kind, failure.attempts) == (0, "crash", 2)

    @pytest.mark.chaos
    def test_failure_kinds_are_classified(self, eta_chain, mc_scenarios):
        for chaos, timeout, kind, error_type in [
            ({"kill": [[0, 1]]}, None, "crash", WorkerCrashError),
            ({"hang": [[0, 1]]}, 1.0, "timeout", ChunkTimeoutError),
            ({"raise": [[0, 1]]}, None, "exception", RuntimeError),
        ]:
            with pytest.raises(SweepFailedError) as excinfo:
                run_many_sharded(
                    eta_chain, mc_scenarios, backend="sequential", chunk_size=8,
                    max_workers=2, retry=1, chunk_timeout=timeout,
                    on_chunk_failure="raise", _chaos=chaos,
                )
            failure = excinfo.value.report.failures[0]
            assert failure.kind == kind
            assert failure.error_type == error_type.__name__

    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_raising_chunk_is_attempted_once(
        self, eta_chain, mc_scenarios, max_workers
    ):
        """A chunk's run is fixed by its scenarios: one that raised would
        raise again, so ``retry=`` does not apply to it."""
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, chunk_size=4, max_workers=max_workers,
            retry=3, on_chunk_failure="keep", _chaos={"raise": [[0, 1]]},
        )
        (failure,) = sweep.failure_report
        assert (failure.index, failure.kind, failure.attempts) == (0, "exception", 1)
        assert [r.index for r in sweep.shard_report.records] == [1]

    def test_unset_policy_is_one_attempt_then_the_chunk_exception(
        self, eta_chain, mc_scenarios, tmp_path
    ):
        store = ArtifactStore(tmp_path / "ckpt")
        with pytest.raises(
            RuntimeError, match="^chaos: injected failure in chunk 1$"
        ) as excinfo:
            run_many_sharded(
                eta_chain, mc_scenarios, chunk_size=3, checkpoint=store,
                _chaos={"raise": [[1, 1]]},
            )
        assert type(excinfo.value) is RuntimeError  # unchanged, not wrapped
        assert len(store) == 1  # chunk 0 was written; chunk 2 never ran


class TestPoisonChunks:
    def test_poison_chunk_quarantines_without_losing_siblings(
        self, eta_chain, mc_scenarios
    ):
        with pytest.raises(SweepFailedError) as excinfo:
            run_many_sharded(
                eta_chain, mc_scenarios, chunk_size=3, retry=3,
                on_chunk_failure="raise",
                _chaos={"raise": [[1, a] for a in range(1, 4)]},
            )
        error = excinfo.value
        assert len(error.report) == 1
        failure = error.report.failures[0]
        assert failure.index == 1
        assert failure.attempts == 1  # a raising chunk is not retried
        assert failure.scenario_names == ("mc[3]", "mc[4]", "mc[5]")
        # The partial result still carries the sibling chunks' runs.
        partial = error.result
        assert [r.scenario.name for r in partial.runs] == [
            "mc[0]", "mc[1]", "mc[2]", "mc[6]", "mc[7]",
        ]
        assert partial.shard_report.failed == 1

    def test_keep_mode_degrades_gracefully(self, eta_chain, mc_scenarios):
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, chunk_size=3, retry=1,
            on_chunk_failure="keep", _chaos={"raise": [[0, 1]]},
        )
        assert len(sweep.runs) == 5
        assert sweep.failure_report is not None
        assert "quarantined" in sweep.failure_report.summary()

    def test_quarantined_chunks_are_not_checkpointed(
        self, eta_chain, mc_scenarios, tmp_path
    ):
        store = ArtifactStore(tmp_path / "ckpt")
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, chunk_size=3, retry=1,
            on_chunk_failure="keep", checkpoint=store,
            _chaos={"raise": [[0, 1]]},
        )
        assert sweep.shard_report.failed == 1
        assert len(store) == 2  # only the two successful chunks
        # A rerun without faults computes exactly the quarantined chunk.
        healed = run_many_sharded(
            eta_chain, mc_scenarios, chunk_size=3, checkpoint=store
        )
        assert healed.shard_report.resumed == 2
        assert healed.shard_report.computed == 1
        assert healed.shard_report.failed == 0


class TestPerChunkDispatch:
    def test_ineligible_chunk_falls_back_alone(self, exp_pair, chain):
        class Opaque(InvolutionChannel):
            """Not vector-compilable, perfectly scalar-simulable."""

        ename = next(iter(chain.edges))
        eligible = pulse_scenarios(3)
        ineligible = [
            Scenario(
                f"opaque{i}", {"in": Signal.pulse(1.0, 1.0)}, 40.0,
                channels={ename: Opaque(exp_pair)},
            )
            for i in range(3)
        ]
        with pytest.warns(RuntimeWarning, match="fell back"):
            sweep = run_many_sharded(
                chain, eligible + ineligible, backend="vector", chunk_size=3
            )
        records = {r.index: r for r in sweep.shard_report.records}
        assert records[0].backend == "vector"
        assert records[1].backend == "sequential"
        assert records[1].vector_reasons  # the obstacle is named
        assert not sweep.vector_report.supported
        assert any("chunk(s) 1" in r for r in sweep.vector_report.reasons)
        assert sweep.backend == "sequential+vector"

    def test_fully_eligible_sweep_reports_supported(self, eta_chain, mc_scenarios):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = run_many_sharded(
                eta_chain, mc_scenarios, backend="vector", chunk_size=4
            )
        assert sweep.vector_report.supported
        assert sweep.backend == "vector"

    def test_sequential_backend_never_dispatches(self, eta_chain, mc_scenarios):
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, backend="sequential", chunk_size=4
        )
        assert sweep.vector_report is None
        assert {r.backend for r in sweep.shard_report.records} == {"sequential"}


def _cyclic_chain_sweep(n):
    """The cyclic eta chain: 32 eta stages into a storage loop.

    Mirrors the ``cyclic_chain`` workload of ``benchmarks/conftest.py``
    at its full size.
    """
    from repro.circuits import BUF, OR2
    from repro.core import InvolutionPair, PureDelayChannel, admissible_eta_bound

    pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
    eta = admissible_eta_bound(pair, eta_plus=0.05)
    circuit = inverter_chain(
        32, lambda: EtaInvolutionChannel(pair, eta, ZeroAdversary())
    )
    circuit.add_gate("latch", OR2, initial_value=0)
    circuit.add_gate("hold", BUF, initial_value=0)
    circuit.add_output("stored")
    circuit.connect(
        "inv32", "latch", EtaInvolutionChannel(pair, eta, ZeroAdversary()),
        pin=0, name="into_loop",
    )
    circuit.connect("latch", "hold", PureDelayChannel(45.0), pin=0, name="fwd")
    circuit.connect("hold", "latch", PureDelayChannel(45.0), pin=1, name="back")
    circuit.connect("latch", "stored")
    unit = pair.delta_up_inf + pair.delta_down_inf
    inputs = {"in": Signal.pulse_train(1.0, [2.0 * unit] * 72, [3.0 * unit] * 71)}
    end_time = 1.0 + 5.0 * unit * 72 + 10.0 * 32 * pair.delta_up_inf
    return circuit, eta_monte_carlo(circuit, inputs, end_time, n, seed=5)


class TestCostModelDispatch:
    """``backend="auto"``: the cost model picks each chunk's engine."""

    def test_theorem9_defaults_run_scalar_chunks(self, monkeypatch):
        from repro import api
        from repro.experiments import theorem9

        sweeps = []

        def recording_run_many(*args, **kwargs):
            sweeps.append(run_many(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(theorem9, "run_many", recording_run_many)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auto = api.experiment("theorem9", backend="auto")
        sequential = api.experiment("theorem9", backend="sequential")
        auto_sweep, sequential_sweep = sweeps
        records = auto_sweep.shard_report.records
        # No store: the 72 scenarios are one inline chunk.
        assert [(r.scenarios, r.backend) for r in records] == [(72, "sequential")]
        assert all(r.reason.startswith("fixpoint pass") for r in records)
        assert all(r.vector_cost > r.scalar_cost for r in records)
        assert auto_sweep.vector_report.supported
        assert auto.provenance["backend_executed"] == "sequential"
        assert {row["adversary"] for row in auto.rows} >= {"random"}
        assert auto.rows == sequential.rows
        assert_sweeps_identical(sequential_sweep, auto_sweep)

    def test_eta_chain_16_scenario_chunks_stay_on_vector(self, eta_chain):
        scenarios = eta_monte_carlo(
            eta_chain, {"in": Signal.pulse_train(1.0, [3.0] * 4, [3.0] * 3)},
            60.0, 32, seed=3,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = run_many_sharded(
                eta_chain, scenarios, backend="auto", chunk_size=16
            )
        records = sweep.shard_report.records
        assert [(r.scenarios, r.backend) for r in records] == [(16, "vector")] * 2
        assert all("reach the vector break-even" in r.reason for r in records)
        assert all(r.vector_cost < r.scalar_cost for r in records)
        baseline = run_many(eta_chain, scenarios, backend="sequential")
        assert_sweeps_identical(baseline, sweep)

    def test_chunk_below_break_even_runs_scalar_without_compiling(
        self, eta_chain, mc_scenarios, baseline, monkeypatch
    ):
        from repro.engine import vector

        def no_compile(*args, **kwargs):
            raise AssertionError("compile_sweep called below the break-even")

        monkeypatch.setattr(vector, "compile_sweep", no_compile)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = run_many_sharded(
                eta_chain, mc_scenarios, backend="auto", chunk_size=4
            )
        records = sweep.shard_report.records
        assert {r.backend for r in records} == {"sequential"}
        assert all("below the vector break-even" in r.reason for r in records)
        assert all(r.vector_cost > r.scalar_cost for r in records)
        assert not any(r.vector_reasons for r in records)
        assert sweep.vector_report.supported
        assert_sweeps_identical(baseline, sweep)

    def test_cyclic_benchmark_chain_keeps_16_scenario_chunks_on_vector(self):
        # A loop that pays off: the fixpoint passes must not trip the
        # cost check while the acyclic prefix is cheaper on vector.
        circuit, scenarios = _cyclic_chain_sweep(16)
        sweep = run_many_sharded(circuit, scenarios, backend="auto")
        (record,) = sweep.shard_report.records
        assert record.backend == "vector"
        assert record.vector_cost < record.scalar_cost
        baseline = run_many(circuit, scenarios, backend="sequential")
        assert_sweeps_identical(baseline, sweep)

    def test_explicit_vector_keeps_theorem9_on_vector(self):
        from repro import api

        params = {"pulse_lengths": [0.3, 0.45]}
        vector = api.experiment("theorem9", params, backend="vector")
        assert vector.provenance["backend_executed"] == "vector"
        auto = api.experiment("theorem9", params, backend="auto")
        assert auto.provenance["backend_executed"] == "sequential"
        assert auto.rows == vector.rows

    def test_resumed_chunks_report_the_stored_decision(
        self, eta_chain, mc_scenarios, tmp_path
    ):
        store = ArtifactStore(tmp_path / "ckpt")
        first = run_many_sharded(
            eta_chain, mc_scenarios, checkpoint=store, chunk_size=4
        )
        resumed = run_many_sharded(
            eta_chain, mc_scenarios, checkpoint=store, chunk_size=4
        )
        assert resumed.shard_report.resumed == 2
        for a, b in zip(first.shard_report.records, resumed.shard_report.records):
            assert (b.reason, b.scalar_cost, b.vector_cost) == (
                a.reason, a.scalar_cost, a.vector_cost
            )
        lines = resumed.shard_report.summary().splitlines()
        assert lines[0].startswith("0 chunk(s) computed, 2 resumed")
        assert lines[1].startswith("  chunk 0 (resumed): sequential, 4 scenario(s)")
        assert "events)" in lines[1]

    def test_sequential_summary_has_no_decisions(self, eta_chain, mc_scenarios):
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, backend="sequential", chunk_size=4
        )
        assert all(r.reason == "" for r in sweep.shard_report.records)
        assert len(sweep.shard_report.summary().splitlines()) == 1


class TestValidation:
    def test_unknown_backend_rejected(self, eta_chain, mc_scenarios):
        with pytest.raises(ValueError, match="backend"):
            run_many_sharded(eta_chain, mc_scenarios, backend="quantum")

    def test_unknown_failure_policy_rejected(self, eta_chain, mc_scenarios):
        with pytest.raises(ValueError, match="on_chunk_failure"):
            run_many_sharded(
                eta_chain, mc_scenarios, on_chunk_failure="shrug"
            )

    def test_thread_parallel_chunks_rejected(self, eta_chain, mc_scenarios):
        with pytest.raises(ValueError, match="max_workers="):
            run_many_sharded(
                eta_chain, mc_scenarios, backend="thread", max_workers=4
            )

    def test_inline_chunk_timeout_warns(self, eta_chain, mc_scenarios):
        with pytest.warns(RuntimeWarning, match="chunk_timeout"):
            run_many_sharded(
                eta_chain, mc_scenarios, backend="sequential", chunk_timeout=5.0
            )

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            make_chunks(pulse_scenarios(3), 0)

    @pytest.mark.parametrize("fault", ["kill", "hang"])
    def test_pool_only_faults_rejected_inline(self, eta_chain, mc_scenarios, fault):
        with pytest.raises(ValueError, match="max_workers > 1"):
            run_many_sharded(eta_chain, mc_scenarios, _chaos={fault: [[0, 1]]})


class TestApiPlumbing:
    def test_api_sweep_passes_sharding_knobs(self, eta_chain, mc_scenarios, tmp_path):
        from repro import api

        sweep = api.sweep(
            eta_chain, mc_scenarios, backend="auto",
            checkpoint=tmp_path / "ckpt", chunk_size=4,
        )
        assert sweep.shard_report.computed == 2
        resumed = api.sweep(
            eta_chain, mc_scenarios, backend="auto",
            checkpoint=tmp_path / "ckpt", chunk_size=4,
        )
        assert resumed.shard_report.resumed == 2

    def test_experiment_provenance_records_chunks(self, tmp_path):
        from repro import api

        result = api.experiment(
            "eta_coverage", {"n_runs": 8, "stages": 2}, backend="auto",
            checkpoint=tmp_path / "ckpt",
        )
        assert result.provenance["chunks_computed"] == 1
        assert result.provenance["chunks_resumed"] == 0
        rerun = api.experiment(
            "eta_coverage", {"n_runs": 8, "stages": 2}, backend="auto",
            checkpoint=tmp_path / "ckpt",
        )
        assert rerun.provenance["chunks_resumed"] == 1
        assert rerun.rows == result.rows

    def test_unsharded_experiment_provenance_is_null(self):
        from repro import api

        result = api.experiment("eta_coverage", {"n_runs": 4, "stages": 2})
        assert result.provenance["chunks_computed"] is None


class TestProcessPool:
    def test_queued_chunks_do_not_make_the_parent_spin(
        self, eta_chain, mc_scenarios, baseline, monkeypatch
    ):
        # More chunks than workers: a chunk waiting for a free worker must
        # not turn the parent's wait() into a zero-timeout poll.
        import repro.engine.shard as shard_module

        calls = []
        real_wait = shard_module.wait

        def counting_wait(fs, timeout=None, return_when="ALL_COMPLETED"):
            calls.append(timeout)
            return real_wait(fs, timeout=timeout, return_when=return_when)

        monkeypatch.setattr(shard_module, "wait", counting_wait)
        sweep = run_many(eta_chain, mc_scenarios, max_workers=2, chunk_size=1)
        assert_sweeps_identical(baseline, sweep)
        assert len(sweep.shard_report.records) == len(mc_scenarios)
        assert 0 < len(calls) <= len(mc_scenarios)


# --------------------------------------------------------------------------- #
# Chaos: real process workers killed, hung, and crashed
# --------------------------------------------------------------------------- #


@pytest.mark.chaos
class TestProcessChaos:
    def test_killed_worker_is_respawned_and_chunk_retried(
        self, eta_chain, mc_scenarios, baseline
    ):
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, backend="auto", chunk_size=3,
            max_workers=2, retry=3, _chaos={"kill": [[0, 1]]},
        )
        assert_sweeps_identical(baseline, sweep)
        records = {r.index: r for r in sweep.shard_report.records}
        assert records[0].attempts == 2  # died once, succeeded on retry
        assert records[1].attempts == 1

    def test_dead_worker_is_charged_to_the_chunk_that_killed_it(
        self, exp_pair, eta_small
    ):
        # Chunk 1 kills its worker while chunk 0 (or 2) may be in flight
        # beside it: only chunk 1 is charged, whatever ran next to it.
        chain = inverter_chain(
            4, lambda: EtaInvolutionChannel(exp_pair, eta_small, ZeroAdversary())
        )
        scenarios = eta_monte_carlo(chain, {"in": Signal.pulse(1.0, 2.0)}, 40.0, 6, seed=5)
        survivors = run_many(chain, scenarios[:2] + scenarios[4:], backend="sequential")
        for _ in range(3):
            sweep = run_many_sharded(
                chain, scenarios, chunk_size=2, max_workers=2, retry=1,
                on_chunk_failure="keep", _chaos={"kill": [[1, 1]]},
            )
            assert [(f.index, f.kind) for f in sweep.failure_report] == [(1, "crash")]
            assert_sweeps_identical(survivors, sweep)  # chunks 0 and 2

    def test_hung_worker_times_out_and_quarantines(self, eta_chain, mc_scenarios):
        with pytest.raises(SweepFailedError) as excinfo:
            run_many_sharded(
                eta_chain, mc_scenarios, backend="auto", chunk_size=3,
                max_workers=2, chunk_timeout=1.0, on_chunk_failure="raise",
                retry=2, _chaos={"hang": [[1, 1], [1, 2]]},
            )
        failure = excinfo.value.report.failures[0]
        assert failure.kind == "timeout"
        assert failure.index == 1
        assert failure.attempts == 2
        # Sibling chunks completed despite the pool being killed twice.
        assert len(excinfo.value.result.runs) == 5

    def test_worker_exception_quarantines_as_exception(
        self, eta_chain, mc_scenarios
    ):
        with pytest.raises(SweepFailedError) as excinfo:
            run_many_sharded(
                eta_chain, mc_scenarios, backend="auto", chunk_size=4,
                max_workers=2, retry=1, on_chunk_failure="raise",
                _chaos={"raise": [[0, 1]]},
            )
        failure = excinfo.value.report.failures[0]
        assert failure.kind == "exception"
        assert "chaos" in failure.error

    def test_failure_report_lists_chunks_in_order(self, eta_chain, mc_scenarios):
        # Chunk 1 fails at once, chunk 0 only when its timeout runs out:
        # the report still lists them by chunk index.
        sweep = run_many_sharded(
            eta_chain, mc_scenarios, backend="sequential", chunk_size=4,
            max_workers=2, retry=1, chunk_timeout=1.0, on_chunk_failure="keep",
            _chaos={"hang": [[0, 1]], "raise": [[1, 1]]},
        )
        report = sweep.failure_report
        assert [f.index for f in report] == [0, 1]
        assert [f.kind for f in report] == ["timeout", "exception"]

    def test_process_checkpoint_resumes_after_crashy_run(
        self, eta_chain, mc_scenarios, baseline, tmp_path
    ):
        store = ArtifactStore(tmp_path / "ckpt")
        first = run_many_sharded(
            eta_chain, mc_scenarios, backend="auto", chunk_size=3,
            max_workers=2, checkpoint=store, retry=3,
            _chaos={"kill": [[0, 1]]},
        )
        assert_sweeps_identical(baseline, first)
        # The resumed run needs no pool at all: every chunk is on disk.
        resumed = run_many_sharded(
            eta_chain, mc_scenarios, backend="auto", chunk_size=3,
            max_workers=2, checkpoint=store,
        )
        assert resumed.shard_report.resumed == 3
        assert_sweeps_identical(baseline, resumed)

    def test_process_and_inline_checkpoints_are_interchangeable(
        self, eta_chain, mc_scenarios, tmp_path
    ):
        # One 8-scenario chunk: it reaches the break-even, so the worker
        # runs it on the vector engine and checkpoints a vector payload.
        store = ArtifactStore(tmp_path / "ckpt")
        first = run_many_sharded(
            eta_chain, mc_scenarios, backend="auto", chunk_size=8,
            max_workers=2, checkpoint=store,
        )
        (record,) = first.shard_report.records
        assert record.backend == "vector"
        assert "reach the vector break-even" in record.reason
        # An inline (auto) rerun hits the chunk the process run wrote.
        resumed = run_many_sharded(
            eta_chain, mc_scenarios, backend="auto", chunk_size=8,
            checkpoint=store,
        )
        assert resumed.shard_report.resumed == 1
        assert resumed.shard_report.computed == 0
        assert_sweeps_identical(first, resumed)
        # The worker's cost-model decision travels with the chunk.
        (again,) = resumed.shard_report.records
        assert again.backend == "vector"
        assert (again.reason, again.scalar_cost, again.vector_cost) == (
            record.reason, record.scalar_cost, record.vector_cost
        )
