"""Content-addressed caches behind the DSE evaluation engine.

Two layers, both keyed by *content* digests
(:func:`repro.core.ir.digest.module_digest`) rather than object
identity, so a recycled ``id()`` can never alias two different kernel
sources:

* :class:`PreparedModuleCache` — a bounded in-memory LRU of
  knob-transformed ("prepared") modules and their HLS designs, so a
  compile lowers and synthesizes each variant once;
* :class:`CostCache` — a two-level cost store (in-memory dict plus an
  optional persistent on-disk directory) memoizing
  ``(module_digest, kernel, knobs, model)`` → cost estimate, so a
  second ``repro`` invocation of the same kernel skips HLS re-synthesis
  entirely.

Both caches are thread-safe (the parallel explorer evaluates batches
from worker threads) and keep their own hit/miss statistics instead of
reporting to the ambient observation from workers: the explorer
publishes deltas from the main thread, keeping traces and metrics
deterministic regardless of ``workers``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.core.ir.digest import DIGEST_VERSION
from repro.core.variants import CostEstimate
from repro.errors import DSEError
from repro.platform.resources import FPGAResources

#: Bump when the entry layout or key recipe changes incompatibly.
CACHE_FORMAT_VERSION = "1"

#: Default bound of the prepared-module LRU (entries, not bytes).
DEFAULT_PREPARED_CAPACITY = 512


@dataclass
class CacheStats:
    """Monotonic counters one cache keeps about itself."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy (for delta accounting)."""
        return CacheStats(self.hits, self.misses, self.stores,
                          self.evictions)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counters accumulated after ``since`` was snapshotted."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            stores=self.stores - since.stores,
            evictions=self.evictions - since.evictions,
        )

    def add(self, delta: "CacheStats") -> None:
        """Fold another stats delta into this one.

        The process-pool explorer uses this to merge the prepared-cache
        counters its worker processes accumulated back into the parent's
        stats, so hit ratios published after a run account for work
        done in children exactly as a serial run would.
        """
        self.hits += delta.hits
        self.misses += delta.misses
        self.stores += delta.stores
        self.evictions += delta.evictions

    @property
    def lookups(self) -> int:
        """Total gets served."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits per lookup (0.0 when never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0


class PreparedModuleCache:
    """Bounded LRU of prepared variants (module plus HLS design).

    The cost model keys entries on ``(module_digest, kernel, knobs)``
    with ``threads`` reset to 1, as no pass reads it; the digest is
    the content hash of the *source* (tensor-form) module, so mutating
    or garbage-collecting a module can never resurrect a stale entry.
    ``clear``, the capacity and the stats cover designs too.
    ``clock_hz`` and ``memory_strategy`` stay in the key although only
    synthesis reads them: sharing across them would let serial runs
    hit where process-pool children miss, breaking stat parity.
    """

    def __init__(self, capacity: int = DEFAULT_PREPARED_CAPACITY):
        if capacity < 1:
            raise DSEError(
                f"prepared-module cache capacity must be >= 1, "
                f"got {capacity}"
            )
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()

    def get(self, key: Tuple) -> Optional[Any]:
        """The cached value for ``key``, refreshing its recency."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Tuple, value: Any) -> None:
        """Insert (or refresh) one entry, evicting the oldest at cap."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _cost_to_dict(cost: CostEstimate) -> Dict[str, Any]:
    return {
        "latency_s": cost.latency_s,
        "energy_j": cost.energy_j,
        "resources": {
            "luts": cost.resources.luts,
            "ffs": cost.resources.ffs,
            "bram_kb": cost.resources.bram_kb,
            "dsps": cost.resources.dsps,
        },
        "data_bytes": cost.data_bytes,
        "feasible": cost.feasible,
        "infeasible_reason": cost.infeasible_reason,
        "accuracy": cost.accuracy,
    }


def _cost_from_dict(payload: Dict[str, Any]) -> CostEstimate:
    resources = payload.get("resources") or {}
    return CostEstimate(
        latency_s=float(payload["latency_s"]),
        energy_j=float(payload["energy_j"]),
        resources=FPGAResources(
            luts=int(resources.get("luts", 0)),
            ffs=int(resources.get("ffs", 0)),
            bram_kb=int(resources.get("bram_kb", 0)),
            dsps=int(resources.get("dsps", 0)),
        ),
        data_bytes=int(payload.get("data_bytes", 0)),
        feasible=bool(payload["feasible"]),
        infeasible_reason=str(payload.get("infeasible_reason", "")),
        accuracy=float(payload.get("accuracy", 1.0)),
    )


class CostCache:
    """Two-level (memory + optional disk) store of cost estimates.

    ``directory=None`` keeps the cache purely in-memory. With a
    directory, entries are JSON files sharded by key prefix and written
    atomically (temp file + rename), so concurrent processes sharing
    one cache directory never observe torn entries.

    ``get`` always returns a *fresh* :class:`CostEstimate`: callers
    (the explorer's requirement check) mutate feasibility in place, and
    a shared instance would poison later lookups.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 enabled: bool = True):
        self.directory = Path(directory) if directory else None
        self.enabled = enabled
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._memory: Dict[str, Dict[str, Any]] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    # -- keying --------------------------------------------------------

    @staticmethod
    def key(module_digest: str, kernel: str, knobs: Any,
            model_fingerprint: str) -> str:
        """Stable cache key for one evaluation point."""
        material = "\x1f".join((
            f"dse-cost-v{CACHE_FORMAT_VERSION}",
            f"ir-v{DIGEST_VERSION}",
            module_digest,
            kernel,
            repr(knobs),
            model_fingerprint,
        ))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # -- lookup / store ------------------------------------------------

    def _path_for(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[CostEstimate]:
        """The cached estimate for ``key`` (a fresh copy), or None."""
        if not self.enabled:
            return None
        with self._lock:
            payload = self._memory.get(key)
        if payload is None and self.directory is not None:
            payload = self._read_disk(key)
            if payload is not None:
                with self._lock:
                    self._memory[key] = payload
        with self._lock:
            if payload is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
        return _cost_from_dict(payload)

    def put(self, key: str, cost: CostEstimate,
            context: Optional[Dict[str, Any]] = None) -> None:
        """Store one estimate; ``context`` is extra debug metadata."""
        if not self.enabled:
            return
        payload = _cost_to_dict(cost)
        with self._lock:
            self._memory[key] = payload
            self.stats.stores += 1
        if self.directory is not None:
            entry = {"version": CACHE_FORMAT_VERSION, "key": key,
                     "cost": payload}
            if context:
                entry["context"] = context
            self._write_disk(key, entry)

    def _read_disk(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path_for(key)
        try:
            entry = json.loads(path.read_text())
            if entry.get("version") != CACHE_FORMAT_VERSION:
                return None
            return entry["cost"]
        except (OSError, ValueError, KeyError):
            return None

    def _write_disk(self, key: str, entry: Dict[str, Any]) -> None:
        path = self._path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            with os.fdopen(handle, "w") as stream:
                json.dump(entry, stream, sort_keys=True)
            os.replace(temp, path)
        except OSError:
            # Disk persistence is best-effort: a read-only or full
            # cache directory degrades to memory-only behavior.
            pass

    # -- maintenance ---------------------------------------------------

    def _disk_files(self) -> Iterator[Path]:
        if self.directory is None or not self.directory.is_dir():
            return iter(())
        return self.directory.glob("*/*.json")

    def entry_count(self) -> int:
        """Distinct cached points (union of memory and disk)."""
        keys = set(self._memory)
        keys.update(path.stem for path in self._disk_files())
        return len(keys)

    def disk_bytes(self) -> int:
        """Total size of the on-disk entries."""
        return sum(path.stat().st_size for path in self._disk_files())

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns entries removed."""
        removed = self.entry_count()
        with self._lock:
            self._memory.clear()
        for path in list(self._disk_files()):
            try:
                path.unlink()
            except OSError:
                pass
        return removed


# ---------------------------------------------------------------------
# Process-wide default instances (what the cost model actually uses).

_prepared = PreparedModuleCache()
_cost = CostCache()
_config_lock = threading.Lock()


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro-dse`` or ``~/.cache/repro-dse``."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro-dse"


def prepared_cache() -> PreparedModuleCache:
    """The process-wide prepared-module LRU."""
    return _prepared


def cost_cache() -> CostCache:
    """The process-wide cost cache."""
    return _cost


def configure(
    cache_dir: Optional[os.PathLike] = None,
    enabled: bool = True,
    prepared_capacity: Optional[int] = None,
) -> CostCache:
    """Reconfigure the process-wide caches.

    ``cache_dir=None`` keeps the cost cache memory-only (the library
    default); the CLI passes :func:`default_cache_dir` so repeated
    invocations share one persistent store. Returns the new cost cache.
    """
    global _prepared, _cost
    with _config_lock:
        _cost = CostCache(directory=cache_dir, enabled=enabled)
        if prepared_capacity is not None:
            _prepared = PreparedModuleCache(capacity=prepared_capacity)
        return _cost


def clear_caches() -> int:
    """Empty both process-wide caches; returns entries removed."""
    return prepared_cache().clear() + cost_cache().clear()
