"""Content-addressed on-disk stores: the shared base and the results store.

Two kinds of artifact are memoised on disk by this package, both under
the same contract:

- miss-ratio curves (:mod:`repro.analysis.misscache`), keyed by the
  full profiling configuration, and
- whole-simulation result artifacts (:class:`ResultStore`, driving the
  ``repro sweep`` orchestrator), keyed by a scenario digest.

:class:`ContentStore` is that contract, factored out of the original
miss-curve implementation so both stores share one code path:

- entries are atomic single-JSON files named ``<digest>.json``; writes
  go through :func:`repro.util.atomicio.write_atomic_text` (fsync'd
  temp file + ``os.replace``) so concurrent workers never observe a
  partial entry and a crash mid-write never tears one,
- an unreadable entry (bit rot, manual editing, a torn write from a
  pre-fsync build) is **quarantined** on read — renamed to
  ``<digest>.corrupt`` and counted — rather than deleted, so the
  evidence survives for inspection while the artifact is transparently
  recomputed,
- per-store hit/miss/store/quarantine counters are surfaced by
  :meth:`ContentStore.stats`,
- the store is an optimisation, never a hard dependency: a disabled or
  unwritable store degrades to recomputation.

Keys are SHA-256 digests of canonical JSON (:func:`content_digest`);
including a source fingerprint of the producing modules
(:func:`modules_fingerprint`) in the keyed payload invalidates stored
artifacts when the code that computes them changes, instead of
silently serving stale ones.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Union

from repro.util.atomicio import write_atomic_text

#: Suffix given to quarantined (unreadable) entries.
QUARANTINE_SUFFIX = ".corrupt"

#: Exceptions that mark an on-disk entry as corrupt rather than absent.
#: ``FileNotFoundError`` (a subclass of ``OSError``) is handled first
#: by :meth:`ContentStore.load` and counts as a plain miss.
_CORRUPT_ERRORS = (ValueError, KeyError, TypeError, OSError)


def canonical_json(payload: object) -> str:
    """Canonical JSON: sorted keys, no whitespace — digest-stable."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload: object) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


_fingerprints: Dict[Sequence[str], str] = {}


def modules_fingerprint(module_names: Sequence[str]) -> str:
    """SHA-256 over the source of every named module (memoised).

    Keying stored artifacts on this fingerprint makes editing any
    producing module orphan previously stored entries instead of
    serving values the current code would no longer compute.
    """
    names = tuple(module_names)
    cached = _fingerprints.get(names)
    if cached is None:
        digest = hashlib.sha256()
        for module_name in names:
            module = importlib.import_module(module_name)
            digest.update(module_name.encode())
            digest.update(inspect.getsource(module).encode())
        cached = digest.hexdigest()
        _fingerprints[names] = cached
    return cached


class ContentStore:
    """Atomic, quarantining, counted store of ``<digest>.json`` entries.

    ``directory`` and ``enabled`` may be plain values or zero-argument
    callables; callables are re-evaluated on every access, which lets
    :mod:`repro.analysis.misscache` keep its environment-variable-
    driven configuration while delegating all mechanics here.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike, Callable[[], Path]],
        *,
        enabled: Union[bool, Callable[[], bool]] = True,
    ) -> None:
        self._directory = directory
        self._enabled = enabled
        self._counters = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "quarantined": 0,
        }

    # -- configuration -------------------------------------------------

    def directory(self) -> Path:
        """Directory holding the entries (created lazily on store)."""
        if callable(self._directory):
            return self._directory()
        return Path(self._directory)

    def enabled(self) -> bool:
        """Whether load/store are active."""
        if callable(self._enabled):
            return self._enabled()
        return bool(self._enabled)

    # -- statistics ----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Copy of this store's hit/miss/store/quarantine counters."""
        return dict(self._counters)

    def reset_stats(self) -> None:
        """Zero the counters (test isolation / per-report accounting)."""
        for key in self._counters:
            self._counters[key] = 0

    # -- load / store --------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not present)."""
        return self.directory() / f"{key}.json"

    def contains(
        self,
        key: str,
        *,
        decode: Optional[Callable[[dict], object]] = None,
    ) -> bool:
        """Whether an entry exists on disk and, given ``decode``, decodes.

        A read-only probe for status displays: no counter changes, and
        a corrupt entry stays where it is — only :meth:`load`
        quarantines.
        """
        path = self.path_for(key)
        if decode is None:
            return path.is_file()
        try:
            decode(json.loads(path.read_text()))
        except _CORRUPT_ERRORS:
            return False
        return True

    def load(
        self,
        key: str,
        *,
        decode: Optional[Callable[[dict], object]] = None,
    ) -> Optional[object]:
        """Return the stored payload for ``key``, or ``None``.

        ``decode`` post-processes the parsed JSON; any schema error it
        raises (``ValueError``/``KeyError``/``TypeError``) marks the
        entry corrupt exactly like unparseable JSON does.  A corrupt
        entry counts as a miss and is quarantined — renamed to
        ``<digest>.corrupt`` — instead of raising or being deleted:
        the artifact gets recomputed and re-stored under the original
        name while the damaged bytes stay on disk for post-mortem
        inspection.
        """
        if not self.enabled():
            return None
        path = self.path_for(key)
        try:
            payload: object = json.loads(path.read_text())
            if decode is not None:
                payload = decode(payload)  # type: ignore[arg-type]
        except FileNotFoundError:
            self._counters["misses"] += 1
            return None
        except _CORRUPT_ERRORS:
            self._counters["misses"] += 1
            self.quarantine(path)
            return None
        self._counters["hits"] += 1
        return payload

    def quarantine(self, path: Path) -> Optional[Path]:
        """Move an unreadable entry aside; return its new path if moved.

        The rename is atomic, so a concurrent reader of the same
        corrupt entry either sees it (and re-quarantines onto the same
        name — the replace is idempotent) or already finds it gone and
        takes the plain miss path.
        """
        target = path.with_suffix(QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            return None
        self._counters["quarantined"] += 1
        return target

    def store(self, key: str, payload: dict) -> Optional[Path]:
        """Persist ``payload`` under ``key``; return the entry's path.

        The write is atomic and durable (fsync'd temp file + rename
        via :mod:`repro.util.atomicio`) so a concurrent reader either
        sees the complete entry or none.  Returns ``None`` when the
        store is disabled or the directory is unwritable.
        """
        if not self.enabled():
            return None
        path = self.path_for(key)
        try:
            write_atomic_text(path, json.dumps(payload, sort_keys=True))
        except OSError:
            return None
        self._counters["stores"] += 1
        return path

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Delete every entry (quarantined included); return the count."""
        directory = self.directory()
        removed = 0
        if directory.is_dir():
            for pattern in ("*.json", f"*{QUARANTINE_SUFFIX}"):
                for entry in directory.glob(pattern):
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def entry_count(self) -> int:
        """Number of readable entries currently on disk."""
        directory = self.directory()
        if not directory.is_dir():
            return 0
        return sum(1 for _ in directory.glob("*.json"))

    def quarantine_count(self) -> int:
        """Number of quarantined (corrupt) entries currently on disk."""
        directory = self.directory()
        if not directory.is_dir():
            return 0
        return sum(1 for _ in directory.glob(f"*{QUARANTINE_SUFFIX}"))


# -- the results store -------------------------------------------------------

_ENV_RESULT_DIR = "REPRO_RESULT_STORE_DIR"


def default_result_dir() -> Path:
    """Default directory of the simulation-result store.

    ``REPRO_RESULT_STORE_DIR`` overrides it (the ``repro sweep``
    ``--store-dir`` flag mirrors into that variable so multiprocessing
    workers share the parent's store).
    """
    env = os.environ.get(_ENV_RESULT_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-qos" / "results"


class ResultStore(ContentStore):
    """Store of whole-simulation result artifacts, keyed by scenario.

    Keys are scenario digests (:func:`repro.analysis.sweep.point_digest`
    — scenario payload + code fingerprint + seed); values are
    serialised :class:`repro.sim.system.ResultArtifact` payloads.  The
    decode step validates the artifact schema, so a stored artifact
    with the wrong shape or version quarantines like corrupt JSON and
    the scenario transparently reruns.
    """

    def __init__(
        self,
        directory: Union[None, str, os.PathLike, Callable[[], Path]] = None,
    ) -> None:
        super().__init__(
            directory if directory is not None else default_result_dir
        )

    def load_artifact(self, key: str):
        """The stored :class:`~repro.sim.system.ResultArtifact`, or None."""
        from repro.sim.system import ResultArtifact

        return self.load(key, decode=ResultArtifact.from_dict)

    def has_artifact(self, key: str) -> bool:
        """Whether a decodable artifact is stored (read-only)."""
        from repro.sim.system import ResultArtifact

        return self.contains(key, decode=ResultArtifact.from_dict)

    def store_artifact(self, key: str, artifact) -> Optional[Path]:
        """Persist one :class:`~repro.sim.system.ResultArtifact`."""
        return self.store(key, artifact.to_dict())
