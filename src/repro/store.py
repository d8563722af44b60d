"""Content-addressed artifact store for experiment results and sweep chunks.

Results are keyed by the SHA-256 of their *resolved* experiment spec's
canonical JSON -- the same canonical form that gives specs value semantics
-- so a store lookup asks exactly "has this experiment, with these
parameters, been computed before?".  Execution knobs (backend, worker
count) are deliberately absent from the key: the sweep runner's determinism
guarantee makes them result-neutral, so a result computed on the process
backend is a valid cache hit for a sequential rerun.

Layout mirrors git's object store: ``<root>/<key[:2]>/<key>.json``, one
canonical-JSON :class:`~repro.experiments.base.ExperimentResult` per file.
Writes go through a uniquely named temp file + rename so concurrent sweep
workers never observe a torn artifact, and a writer that dies mid-write
leaves at most one stale ``*.tmp-*`` file that :meth:`ArtifactStore.gc_tmp`
reclaims.  ``run(..., cache=...)`` entry points
(:func:`repro.experiments.run_experiment`, :func:`repro.api.experiment`,
``repro experiment run --cache``) consult the store before computing,
which is what makes large experiment sweeps resumable.

Beyond whole experiments, the store also holds *generic JSON payloads*
addressed the same way (:meth:`ArtifactStore.put_payload` /
:meth:`ArtifactStore.get_payload`); the sweep runner
(:mod:`repro.engine.shard`) uses those for its per-chunk checkpoints, so
a killed sweep resumes from exactly the chunks that finished.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .specs import _canonical_key

__all__ = ["ArtifactStore", "as_store"]


class ArtifactStore:
    """A directory of spec-hash-addressed artifacts (results and payloads)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()

    # -- keys -------------------------------------------------------------- #

    @staticmethod
    def key_for(spec) -> str:
        """Content hash of a spec (or spec dict): SHA-256 of canonical JSON.

        :class:`~repro.specs.ExperimentSpec` instances should be resolved
        (defaults merged) before keying so spelled-out defaults and omitted
        ones address the same artifact; :func:`repro.experiments.run_experiment`
        does that resolution for every caller.
        """
        payload = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        # The exact canonical form that gives specs their value semantics.
        text = _canonical_key(payload)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def path_for(self, spec) -> Path:
        """Where the artifact for ``spec`` lives (whether or not it exists)."""
        key = self.key_for(spec)
        return self.root / key[:2] / f"{key}.json"

    # -- atomic writes ----------------------------------------------------- #

    @staticmethod
    def _tmp_for(path: Path) -> Path:
        # Unique per write: pid alone collides for two threads of one
        # process (and a recycled pid could adopt a dead writer's file),
        # so a random token joins it.  The name never ends in ".json" --
        # `paths()` must not see half-written artifacts.
        return path.with_name(f"{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}")

    def _write_atomic(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp_for(path)
        try:
            tmp.write_text(text)
            tmp.replace(path)
        except BaseException:
            # A writer that fails between write and rename must not leak
            # its temp file; gc_tmp() only exists for writers that *die*.
            tmp.unlink(missing_ok=True)
            raise

    def _damage_report(self, path: Path, expected_spec: Dict[str, Any]) -> Optional[str]:
        """Why the artifact at ``path`` fails verification, or ``None`` if OK."""
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return "unparseable JSON (truncated or torn write)"
        if not isinstance(data, dict):
            return "not a JSON object"
        if data.get("spec") != expected_spec:
            return "embedded spec does not match the key (hand-edited artifact?)"
        return None

    def _warn_if_replacing_damaged(self, path: Path, spec_dict: Dict[str, Any]) -> None:
        if not path.exists():
            return
        damage = self._damage_report(path, spec_dict)
        if damage is not None:
            warnings.warn(
                f"replacing damaged artifact at {path}: {damage}",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- access ------------------------------------------------------------ #

    def get(self, spec):
        """The stored :class:`ExperimentResult` for ``spec``, or ``None``.

        A stored file that cannot be parsed (truncated write, newer result
        version) or whose embedded spec does not match the requested one
        (hand-edited artifact, hash collision) is treated as a miss rather
        than returned wrongly -- a damaged artifact must never break the
        resumability it exists to provide; ``put`` overwrites it (with a
        :class:`RuntimeWarning` naming the damaged file).
        """
        from .experiments.base import ExperimentResult

        path = self.path_for(spec)
        if not path.exists():
            return None
        try:
            result = ExperimentResult.from_json(path.read_text())
        except (OSError, ValueError):
            # ValueError covers both json.JSONDecodeError and SpecError.
            return None
        requested = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        if result.spec.to_dict() != requested:
            return None
        return result

    def put(self, result) -> Path:
        """Store a result under its spec's key; returns the artifact path.

        Overwriting an artifact that fails verification (corrupt JSON, or
        an embedded spec that does not match its key) emits a
        :class:`RuntimeWarning` naming the path -- silently papering over
        a damaged file would hide store corruption from its owner.
        """
        path = self.path_for(result.spec)
        self._warn_if_replacing_damaged(path, result.spec.to_dict())
        self._write_atomic(path, result.to_json() + "\n")
        return path

    def __contains__(self, spec) -> bool:
        """True iff :meth:`get` would return a result (not mere file existence)."""
        return self.get(spec) is not None

    # -- generic JSON payloads --------------------------------------------- #

    def _payload_path(self, spec_dict: Dict[str, Any], key: Optional[str]) -> Path:
        """Artifact path for a payload spec, honouring a precomputed key.

        ``key`` must be ``key_for(spec)`` for the same spec; callers that
        already hold the hash (the sweep runner keys every chunk up
        front) pass it to skip re-canonicalising a large spec dict on
        every store round-trip.  A wrong key is harmless on read -- the
        embedded-spec check turns it into a miss -- and on write produces
        an artifact that can only ever miss, never alias another spec.
        """
        if key is not None:
            return self.root / key[:2] / f"{key}.json"
        return self.path_for(spec_dict)

    def put_payload(
        self, spec, payload: Dict[str, Any], *, fmt: str, key: Optional[str] = None
    ) -> Path:
        """Store an arbitrary JSON payload under ``spec``'s key.

        The artifact embeds the spec dict and the ``fmt`` tag, so
        :meth:`get_payload` can verify both before trusting the content.
        Used by the sweep runner for per-chunk checkpoints.
        ``key`` optionally supplies the precomputed ``key_for(spec)``.
        """
        spec_dict = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        path = self._payload_path(spec_dict, key)
        self._warn_if_replacing_damaged(path, spec_dict)
        envelope = {"format": fmt, "version": 1, "spec": spec_dict, "payload": payload}
        self._write_atomic(
            path, json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"
        )
        return path

    def get_payload(
        self, spec, *, fmt: str, key: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The stored payload for ``spec`` (and format ``fmt``), or ``None``.

        Mirrors :meth:`get`: a torn, hand-edited, format-mismatched or
        spec-mismatched artifact is a miss, never an error -- the caller
        recomputes and :meth:`put_payload` repairs the damaged entry.
        ``key`` optionally supplies the precomputed ``key_for(spec)``.
        """
        spec_dict = spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)
        path = self._payload_path(spec_dict, key)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("format") != fmt:
            return None
        if data.get("spec") != spec_dict:
            return None
        payload = data.get("payload")
        return payload if isinstance(payload, dict) else None

    # -- maintenance ------------------------------------------------------- #

    def paths(self) -> List[Path]:
        """All artifact files currently in the store, sorted."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*/*.json"))

    def __len__(self) -> int:
        return len(self.paths())

    def gc_tmp(self, *, max_age_s: float = 3600.0) -> int:
        """Remove stale ``*.tmp-*`` files left by writers that died mid-write.

        Only files older than ``max_age_s`` seconds are reclaimed, so a
        *live* sweep's in-flight chunk writers are never raced -- an atomic
        write holds its temp file for milliseconds, not an hour.  The
        sweep runner calls this on every checkpointed run, which
        keeps a store that survived crashes from accumulating litter.
        Returns the number of files removed.
        """
        if not self.root.exists():
            return 0
        cutoff = time.time() - max_age_s
        removed = 0
        for tmp in list(self.root.glob("*/*.tmp-*")) + list(self.root.glob("*.tmp-*")):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue  # a concurrent writer renamed or removed it first
        return removed

    def clear(self) -> int:
        """Delete every artifact; returns how many were removed.

        Shard subdirectories (``<key[:2]>/``) left empty by the deletions
        are pruned as well -- a cleared store should not keep hundreds of
        empty two-character directories around.  Directories still holding
        non-artifact files (stale temp files, say) are kept; run
        :meth:`gc_tmp` first for a full cleanup.
        """
        removed = 0
        for path in self.paths():
            path.unlink()
            removed += 1
        if self.root.exists():
            for sub in self.root.iterdir():
                if sub.is_dir() and next(sub.iterdir(), None) is None:
                    sub.rmdir()
        return removed

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"


def as_store(obj) -> ArtifactStore:
    """Coerce an ArtifactStore or a directory path to an ArtifactStore."""
    if isinstance(obj, ArtifactStore):
        return obj
    if isinstance(obj, (str, Path)):
        return ArtifactStore(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as an artifact store")
