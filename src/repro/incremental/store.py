"""The pass-level memo store behind incremental recompilation.

:class:`PassMemoStore` is a thin, namespaced view over a
:class:`~repro.service.cache.SynthesisCache` — it inherits the two-tier
layout (memory LRU + concurrency-safe append-only segment store on disk)
and adds:

* **key namespacing** by memo kind (``"pass"`` for whole-pass rewrites,
  ``"region"`` for per-block/per-run results inside a pass) and by the
  ``repro`` version, so a release whose pass behavior changed can never
  replay a stale disk entry;
* **layered hit/miss counters** (:class:`MemoStats`), split by kind, that
  :func:`repro.target.api.compile` surfaces through
  ``CompilationResult.summary()`` and the daemon aggregates per session.

Because every entry is keyed by the exact content bytes of the unit it
replaces (the whole pass input, or a self-contained region whose rewrite is
a pure function of region content), replaying a memo hit is bit-identical
to recomputation by construction — the property the ``incr`` perf family
and the randomized edit-sequence tests gate in CI.

The store is **not picklable** (the backing cache holds locks and file
handles); :class:`~repro.compiler.result.CompilationResult` drops its memo
handle when crossing a process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import __version__
from repro.incremental.fingerprint import gate_region_key
from repro.service.cache import SynthesisCache

__all__ = ["MISS", "MemoStats", "PassMemoStore", "memoized_batch"]


class _MemoMiss:
    """Sentinel distinguishing "no entry" from a stored ``None`` result."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<memo miss>"


#: Returned by :meth:`PassMemoStore.lookup` when no entry exists.
MISS = _MemoMiss()


@dataclass
class MemoStats:
    """Layered memo counters: whole-pass and region-level hits/misses."""

    pass_hits: int = 0
    pass_misses: int = 0
    region_hits: int = 0
    region_misses: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary (summary/CLI/daemon-stats serialization)."""
        return {
            "pass_hits": self.pass_hits,
            "pass_misses": self.pass_misses,
            "region_hits": self.region_hits,
            "region_misses": self.region_misses,
            "stores": self.stores,
        }

    def snapshot(self) -> "MemoStats":
        """Independent copy of the current counters."""
        return MemoStats(
            self.pass_hits,
            self.pass_misses,
            self.region_hits,
            self.region_misses,
            self.stores,
        )

    def delta_since(self, earlier: "MemoStats") -> "MemoStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        return MemoStats(
            self.pass_hits - earlier.pass_hits,
            self.pass_misses - earlier.pass_misses,
            self.region_hits - earlier.region_hits,
            self.region_misses - earlier.region_misses,
            self.stores - earlier.stores,
        )

    def merge(self, other: "MemoStats") -> None:
        """Accumulate another snapshot into this one."""
        self.pass_hits += other.pass_hits
        self.pass_misses += other.pass_misses
        self.region_hits += other.region_hits
        self.region_misses += other.region_misses
        self.stores += other.stores


class PassMemoStore:
    """Content-addressed memo store for pass and region rewrite results.

    Parameters
    ----------
    capacity:
        Memory-tier LRU capacity when the store owns its backing cache.
    directory:
        Optional disk directory (the segment store) when owning the cache.
    backing:
        An existing :class:`SynthesisCache` to share instead of owning one —
        the daemon's workers hand in their warm per-shard cache so memo
        entries persist (and flow between processes) through the same
        segment store as synthesis results.
    """

    def __init__(
        self,
        capacity: int = 8192,
        directory: Optional[str] = None,
        backing: Optional[SynthesisCache] = None,
    ) -> None:
        if backing is not None:
            self.backing = backing
            self._owns_backing = False
        else:
            self.backing = SynthesisCache(capacity=capacity, directory=directory)
            self._owns_backing = True
        self.stats = MemoStats()
        # Version-scoped namespace: a repro upgrade that changes any pass's
        # behavior must never replay entries written by the old code.
        self._tag = f"incr/{__version__}"

    # ------------------------------------------------------------------
    def _key(self, kind: str, key: str) -> str:
        return sha256(f"{self._tag}|{kind}|{key}".encode("utf-8")).hexdigest()

    def lookup(self, kind: str, key: str) -> Any:
        """Fetch the entry for ``(kind, key)``; :data:`MISS` when absent."""
        value = self.backing.get(self._key(kind, key), MISS)
        if value is MISS:
            if kind == "pass":
                self.stats.pass_misses += 1
            else:
                self.stats.region_misses += 1
        else:
            if kind == "pass":
                self.stats.pass_hits += 1
            else:
                self.stats.region_hits += 1
        return value

    def store(self, kind: str, key: str, value: Any) -> None:
        """Insert ``value`` (both tiers; ``None`` results are cached too)."""
        self.backing.put(self._key(kind, key), value)
        self.stats.stores += 1

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Current memo counters as a flat dict."""
        return self.stats.as_dict()

    def flush(self) -> None:
        """Publish the backing cache's disk index."""
        self.backing.flush()

    def compact(self) -> Dict[str, int]:
        """Compact the backing cache's segment store (offline maintenance)."""
        return self.backing.compact()

    def scrub(self) -> Dict[str, Any]:
        """Scrub the backing cache's segment store (offline maintenance).

        Memoized pass results share the synthesis cache's segment format, so
        the same CRC-verify / quarantine / salvage pass
        (:meth:`~repro.service.cache.SynthesisCache.scrub`) repairs them too.
        """
        return self.backing.scrub()

    def disk_stats(self) -> Dict[str, Any]:
        """Disk inventory and health counters of the backing cache."""
        return self.backing.disk_stats()

    def close(self) -> None:
        """Close the backing cache iff this store owns it."""
        if self._owns_backing:
            self.backing.close()

    # Locks and file handles never cross process boundaries.
    def __reduce__(self):
        raise TypeError(
            "PassMemoStore is not picklable; results drop their memo handle "
            "when serialized (see CompilationResult.__getstate__)"
        )

    def __repr__(self) -> str:
        return (
            f"PassMemoStore(tag={self._tag!r}, owns_backing={self._owns_backing}, "
            f"stats={self.stats.as_dict()})"
        )


def memoized_batch(
    memo: Optional[PassMemoStore],
    gates: Dict[bytes, Any],
    context: Sequence[str],
    compute: Callable[[List[Any]], List[Any]],
) -> Dict[bytes, Any]:
    """Per-gate results for ``gates`` (unique gates keyed by content bytes).

    With a memo store, each gate's result is looked up as a region entry
    (``gate_region_key(gate, *context)``) first; the misses are computed in
    one ``compute`` call and stored.  ``compute`` must be
    composition-independent (an item's result never depends on which other
    items share its batch), so replaying a hit is bit-identical to
    recomputing it.
    """
    results: Dict[bytes, Any] = {}
    keys: Dict[bytes, str] = {}
    if memo is not None:
        for content, gate in gates.items():
            key = gate_region_key(gate, *context)
            cached = memo.lookup("region", key)
            if cached is MISS:
                keys[content] = key
            else:
                results[content] = cached
    misses = [content for content in gates if content not in results]
    if misses:
        for content, value in zip(misses, compute([gates[content] for content in misses])):
            results[content] = value
            if memo is not None:
                memo.store("region", keys[content], value)
    return results
