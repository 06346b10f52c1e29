"""Content-addressed synthesis cache (the memoization tier of the service layer).

Synthesizing a two- or three-qubit unitary — a KAK decomposition for the
``{Can, U3}`` ISA (Section 4.1), a template realization (Section 5.2) or a
numerical approximate-synthesis run (Section 5.1) — depends only on the
unitary itself plus a handful of solver settings.  Across a benchmark suite
the same blocks recur constantly (every Toffoli, every QFT rotation ladder),
so the service layer memoizes synthesis results behind a *content-addressed*
cache: entries are keyed by a canonical fingerprint of the exact matrix bytes
plus a context tag, never by object identity.

Two storage tiers are provided:

* an in-memory LRU dictionary (always on, bounded by ``capacity``), and
* an optional on-disk store under ``directory`` that persists results across
  processes and across CLI invocations — this is what makes a *second*
  ``python -m repro suite`` run measurably faster.

Exact-byte keys guarantee that a cached value is bit-identical to what a
fresh computation would return, which keeps parallel batch compilation
(:mod:`repro.service.batch`) deterministic: it can never matter in which
order worker processes populate the cache.

Disk-tier concurrency model (the ``repro serve`` daemon and batch workers
hammer one cache directory from many processes at once):

* **Append-only segments.**  Every writer process appends complete records
  (magic, key, length, CRC32, pickled payload) to its *own* segment file
  under ``directory/segments/``; no file is ever written by two processes
  and no byte is ever rewritten.  A process killed mid-append can only
  leave a truncated *tail*, which readers detect (length/CRC validation)
  and ignore — earlier records stay readable, so a crash can never corrupt
  the store for anybody else.
* **Atomic index swaps.**  A JSON index (key → segment/offset/length plus
  per-segment scan high-water marks) is periodically published via
  write-temp-then-``os.replace``, so readers always see either the old or
  the new index, never a torn one.  The index is a pure accelerator:
  readers tail-scan segments past their high-water marks, so a stale or
  missing index costs a re-scan, not a lost entry.
* **Compaction.**  :meth:`SynthesisCache.compact` folds every live record
  into a single fresh segment and swaps the index — run it offline (no concurrent
  writers); concurrent readers degrade to misses, never to corrupt reads.

Usage::

    from repro.service.cache import SynthesisCache, unitary_fingerprint

    cache = SynthesisCache(capacity=4096, directory=".repro-cache")
    key = unitary_fingerprint(matrix, "kak")
    decomposition = cache.get_or_compute(key, lambda: kak_decompose(matrix))
    print(cache.stats.hits, cache.stats.misses)
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import struct
import threading
import time
import zlib
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "CacheStats",
    "SynthesisCache",
    "circuit_fingerprint",
    "scrub_age_seconds",
    "unitary_fingerprint",
]

logger = logging.getLogger(__name__)

#: Segment record header: magic, key length, payload length, CRC32 of
#: ``key_bytes + payload``.  A record is header + key bytes + payload bytes.
_RECORD_HEADER = struct.Struct(">4sHQI")
_RECORD_MAGIC = b"RSC1"
#: Publish the JSON index every this many puts (pure accelerator — readers
#: tail-scan segments regardless, see the module docstring).
_INDEX_PUBLISH_INTERVAL = 64
_INDEX_NAME = "index.json"
_SEGMENT_DIR = "segments"
_SEGMENT_SUFFIX = ".seg"
_QUARANTINE_DIR = "quarantine"
_SCRUB_STAMP = "scrub.stamp"

#: Test/chaos hook: when set, called with a stage name ("pre-replace",
#: "post-replace", "pre-unlink") at the crash-sensitive points of
#: :meth:`SynthesisCache.compact`.  Raising (or ``os._exit``-ing) from the
#: hook models a crash at exactly that point; the store must recover
#: losslessly on the next open.  Never set in production.
_compact_test_hook: Optional[Callable[[str], None]] = None


def _compact_stage(stage: str) -> None:
    if _compact_test_hook is not None:
        _compact_test_hook(stage)


def scrub_age_seconds(directory: str) -> Optional[float]:
    """Seconds since ``directory`` was last scrubbed, or None if never.

    Reads the ``scrub.stamp`` written by :meth:`SynthesisCache.scrub`
    without opening the cache — cheap enough for the daemon's ``health``
    op to call on every probe.
    """
    try:
        with open(os.path.join(directory, _SCRUB_STAMP), "r", encoding="utf-8") as handle:
            stamp = json.load(handle)
        return max(0.0, time.time() - float(stamp["time"]))
    except (OSError, ValueError, TypeError, KeyError):
        return None

class _NoneSentinel:
    """Stored in place of ``None`` (negative caching, e.g. "approximate
    synthesis did not beat the original block").  Unpickles back to the module
    singleton so identity survives the disk tier; lookups additionally match
    by type for robustness."""

    def __reduce__(self):
        return (_none_sentinel, ())

    def __repr__(self) -> str:
        return "<cached-None>"


def _none_sentinel() -> "_NoneSentinel":
    return _NONE


_NONE = _NoneSentinel()

#: Sentinel returned by the internal lookup helpers on a miss, so that a
#: legitimately cached ``None`` is distinguishable from "not present".
_MISS = object()


def unitary_fingerprint(matrix: np.ndarray, *context: str) -> str:
    """Canonical content fingerprint of a unitary plus a context tag.

    The fingerprint hashes the exact bytes of the C-contiguous complex128
    representation of ``matrix`` together with its shape and every ``context``
    string (pass name, solver settings, ...).  Two arrays with equal entries
    produce the same fingerprint regardless of memory layout; any difference
    in value, shape or context produces a different one.

    Exactness is deliberate: no rounding is applied, so a cache keyed by this
    fingerprint returns results that are bit-identical to recomputation.
    """
    array = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    digest = hashlib.sha256()
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    for tag in context:
        digest.update(b"\x00")
        digest.update(str(tag).encode())
    return digest.hexdigest()


def circuit_fingerprint(circuit, *context: str) -> str:
    """Content fingerprint of a :class:`~repro.circuits.circuit.QuantumCircuit`.

    Hashes the qubit count and, per instruction, the gate identity and qubit
    tuple, so a :class:`~repro.ir.CircuitIR` holding the same program gets
    the same key.  Named gates are identified by name + exact parameter bytes;
    explicit-matrix gates (fused ``su4`` blocks) by their matrix bytes, so two
    fused blocks with the same label but different unitaries never collide.
    """
    from repro.gates.gate import UnitaryGate

    # One sha256 over the joined pieces: the digest of the piecewise updates.
    pieces = [str(circuit.num_qubits).encode()]
    for instruction in circuit:
        gate = instruction.gate
        pieces.append(b"|" + gate.name.encode() + str(instruction.qubits).encode())
        if isinstance(gate, UnitaryGate):
            pieces.append(np.ascontiguousarray(gate.matrix).tobytes())
        elif gate.params:
            pieces.append(array("d", gate.params).tobytes())
    for tag in context:
        pieces.append(b"\x00" + str(tag).encode())
    return hashlib.sha256(b"".join(pieces)).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of a :class:`SynthesisCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    puts: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary (used by the CLI JSON output)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
        }

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another stats snapshot into this one (batch workers)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.disk_hits += other.disk_hits
        self.puts += other.puts

    def snapshot(self) -> "CacheStats":
        """Independent copy of the current counters."""
        return CacheStats(self.hits, self.misses, self.evictions, self.disk_hits, self.puts)

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
            self.disk_hits - earlier.disk_hits,
            self.puts - earlier.puts,
        )


class SynthesisCache:
    """Two-tier (memory LRU + optional disk) content-addressed cache.

    Parameters
    ----------
    capacity:
        Maximum number of in-memory entries; the least recently used entry is
        evicted first.  ``None`` disables the bound.
    directory:
        When given, every entry is additionally appended to this process's
        own segment file under ``directory/segments/`` and in-memory misses
        fall back to the segment store.  The directory is created on first write.  The disk tier is safe
        under concurrent multi-process readers and writers — see the module
        docstring for the concurrency model.

    The cache is thread-safe; cached values must be picklable when the disk
    tier is enabled.
    """

    def __init__(self, capacity: Optional[int] = 4096, directory: Optional[str] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self.directory = os.fspath(directory) if directory else None
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.RLock()
        # Disk tier state: key -> (segment name, payload offset, payload
        # length); per-segment scan high-water marks; this process's own
        # append-only segment (opened lazily on first put).
        self._seg_index: Dict[str, Tuple[str, int, int]] = {}
        self._seg_offsets: Dict[str, int] = {}
        self._own_segment_name: Optional[str] = None
        self._own_segment_fd: Optional[int] = None
        self._puts_since_publish = 0
        self._index_loaded = False
        # Disk-health counters (see disk_stats): how often the tail scan hit
        # a truncated record (killed writer / in-progress append) or stopped
        # at a corrupt one (bad magic or CRC), deduplicated per byte offset
        # so repeated refreshes over the same damage count once.
        self._partial_tail_events = 0
        self._corrupt_record_events = 0
        self._scan_anomalies: Dict[Tuple[str, int], str] = {}
        # Chaos hook: a FaultInjector for the "cache" layer (repro.resilience).
        # When set, scheduled bit-flips / truncations are applied to records
        # immediately after they are appended — the scrubber must catch them.
        self.fault_injector: Optional[Any] = None

    # ------------------------------------------------------------------
    # Container protocol.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries or self._disk_path_exists(key)

    # ------------------------------------------------------------------
    # Core operations.
    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key``; counts a hit or a miss.  Returns ``default`` on miss."""
        value = self._lookup(key)
        if value is _MISS:
            return default
        return None if isinstance(value, _NoneSentinel) else value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` in both tiers."""
        stored = _NONE if value is None else value
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = stored
            self.stats.puts += 1
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
        self._disk_write(key, stored)

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing on miss."""
        value = self._lookup(key)
        if value is not _MISS:
            return None if isinstance(value, _NoneSentinel) else value
        result = compute()
        self.put(key, result)
        return result

    def clear(self, *, reset_stats: bool = False) -> None:
        """Drop every in-memory entry (the disk tier is left untouched)."""
        with self._lock:
            self._entries.clear()
            if reset_stats:
                self.stats = CacheStats()

    def flush(self) -> None:
        """Publish the disk index now (write-temp + atomic rename).

        Appends themselves are durable as soon as :meth:`put` returns; the
        index only accelerates other processes' lookups.  Long-running
        writers (the ``repro serve`` workers) call this at shutdown.
        """
        with self._lock:
            if self.directory is None:
                return
            self._refresh_segments()
            self._publish_index()

    def compact(self) -> Dict[str, int]:
        """Fold every live disk record into one fresh segment.

        Rewrites the newest record per key into a single segment, swaps the
        index atomically, then removes the superseded segment files.
        Intended as an offline maintenance step: run it
        without concurrent *writers*; concurrent readers fall back to a
        miss-and-recompute if a segment vanishes underneath them.

        Returns ``{"entries": ..., "segments_removed": ...}``.
        """
        with self._lock:
            if self.directory is None:
                return {"entries": 0, "segments_removed": 0}
            self._refresh_segments()
            live: Dict[str, bytes] = {}
            for key, location in self._seg_index.items():
                payload = self._read_segment_payload(key, location)
                if payload is not None:
                    live[key] = payload

            segment_dir = os.path.join(self.directory, _SEGMENT_DIR)
            os.makedirs(segment_dir, exist_ok=True)
            old_segments = [
                entry.name
                for entry in os.scandir(segment_dir)
                if entry.is_file() and entry.name.endswith(_SEGMENT_SUFFIX)
            ]
            # Write the compacted segment to a temp file, fsync, then rename
            # into place so it appears fully formed or not at all.
            name = f"compact-{os.getpid()}-{os.urandom(4).hex()}{_SEGMENT_SUFFIX}"
            final_path = os.path.join(segment_dir, name)
            tmp_path = f"{final_path}.tmp"
            index: Dict[str, Tuple[str, int, int]] = {}
            offset = 0
            with open(tmp_path, "wb") as handle:
                for key in sorted(live):
                    record = self._build_record(key, live[key])
                    payload_offset = offset + _RECORD_HEADER.size + len(key.encode("utf-8"))
                    index[key] = (name, payload_offset, len(live[key]))
                    handle.write(record)
                    offset += len(record)
                handle.flush()
                os.fsync(handle.fileno())
            _compact_stage("pre-replace")
            os.replace(tmp_path, final_path)
            _compact_stage("post-replace")

            # Swap in the new view, publish, then delete the superseded files.
            self._close_own_segment()
            self._seg_index = index
            self._seg_offsets = {name: offset}
            self._publish_index()
            _compact_stage("pre-unlink")
            removed = 0
            for old in old_segments:
                if old == name:
                    continue
                try:
                    os.unlink(os.path.join(segment_dir, old))
                    removed += 1
                except OSError:
                    pass
            return {"entries": len(live), "segments_removed": removed}

    def scrub(self) -> Dict[str, Any]:
        """CRC-verify every disk record; quarantine and salvage corruption.

        The tail scan (:meth:`_scan_records`) is an *optimistic* reader: it
        stops at the first invalid record, so corruption in the middle of a
        segment silently hides every record after it.  ``scrub`` is the
        repair pass: it re-reads every segment from byte zero, classifies
        every stop, and

        * keeps healthy segments (a truncated record at EOF is the normal
          signature of a killed writer and is tolerated in place),
        * moves any segment with *mid-file* damage (bad magic, CRC mismatch,
          a torn record followed by more data) to ``segments/quarantine/``
          for forensics — after salvaging every record in it that still
          CRC-verifies into a fresh ``scrub-*.seg`` segment, so no valid
          record is ever lost,
        * deletes stale ``*.tmp`` files left by crashed compactions,
        * rebuilds and atomically republishes the index from what was
          actually verified, and
        * records a ``scrub.stamp`` (surfaced as ``last_scrub_age_seconds``
          in :meth:`disk_stats` and the daemon's ``health`` op).

        Like :meth:`compact`, scrub is an offline maintenance step: run it
        without concurrent writers (concurrent readers degrade to misses).
        """
        empty = {
            "segments_scanned": 0,
            "records_valid": 0,
            "records_salvaged": 0,
            "segments_quarantined": 0,
            "torn_tails": 0,
            "corrupt_sites": 0,
            "tmp_files_removed": 0,
            "unreadable_segments": 0,
            "entries": 0,
        }
        with self._lock:
            if self.directory is None:
                return dict(empty)
            segment_dir = os.path.join(self.directory, _SEGMENT_DIR)
            report = dict(empty)
            self._close_own_segment()
            try:
                listing = list(os.scandir(segment_dir))
            except OSError:
                listing = []
            for entry in listing:
                if entry.is_file() and entry.name.endswith(".tmp"):
                    try:
                        os.unlink(entry.path)
                        report["tmp_files_removed"] += 1
                    except OSError:
                        pass
            names = self._segment_names_oldest_first(segment_dir)

            # The live index is the authority on *which* copy of a key is
            # current: duplicate keys across segments (a crashed compact, an
            # overwrite in a newer segment) carry no version markers, and
            # segment names do not sort by age.  The full scan below rebuilds
            # reachability; ``prior`` then re-anchors every key whose indexed
            # record still verifies (or was salvaged) to that exact copy.
            # The one thing newer than the index is a record appended *past*
            # a segment's known high-water mark (an overwrite the index never
            # saw before the writer died): those outrank ``prior``.
            if not self._index_loaded:
                self._load_published_index()
            prior = dict(self._seg_index)
            known_hw = dict(self._seg_offsets)
            new_index: Dict[str, Tuple[str, int, int]] = {}
            new_offsets: Dict[str, int] = {}
            newer: Dict[str, Tuple[str, int, int]] = {}
            valid_locations: set = set()
            salvage: Dict[str, Tuple[bytes, Tuple[str, int, int]]] = {}
            damaged: List[Tuple[str, List[Tuple[str, int, int, int]]]] = []
            for name in names:
                path = os.path.join(segment_dir, name)
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError:
                    report["unreadable_segments"] += 1
                    continue
                records, torn, corrupt = self._scrub_scan(data)
                report["segments_scanned"] += 1
                report["records_valid"] += len(records)
                report["torn_tails"] += torn
                report["corrupt_sites"] += corrupt
                hw = known_hw.get(name)
                if corrupt == 0:
                    for key, payload_offset, payload_len, end in records:
                        location = (name, payload_offset, payload_len)
                        new_index[key] = location
                        valid_locations.add(location)
                        if hw is not None and end > hw:
                            newer[key] = location
                    # With a torn tail, park the high-water mark at the last
                    # valid record so a still-in-flight append is retried.
                    if torn == 0:
                        new_offsets[name] = len(data)
                    else:
                        new_offsets[name] = records[-1][3] if records else 0
                else:
                    damaged.append((name, records))
                    for key, payload_offset, payload_len, end in records:
                        location = (name, payload_offset, payload_len)
                        salvage[key] = (
                            data[payload_offset : payload_offset + payload_len],
                            location,
                        )
                        if hw is not None and end > hw:
                            newer[key] = location

            quarantine_names = [name for name, _ in damaged]
            relocations: Dict[Tuple[str, int, int], Tuple[str, int, int]] = {}
            if salvage:
                os.makedirs(segment_dir, exist_ok=True)
                scrub_name = f"scrub-{os.getpid()}-{os.urandom(4).hex()}{_SEGMENT_SUFFIX}"
                final_path = os.path.join(segment_dir, scrub_name)
                tmp_path = f"{final_path}.tmp"
                offset = 0
                salvage_index: Dict[str, Tuple[str, int, int]] = {}
                try:
                    with open(tmp_path, "wb") as handle:
                        for key in sorted(salvage):
                            payload, old_location = salvage[key]
                            record = self._build_record(key, payload)
                            payload_offset = offset + _RECORD_HEADER.size + len(key.encode("utf-8"))
                            salvage_index[key] = (scrub_name, payload_offset, len(payload))
                            relocations[old_location] = salvage_index[key]
                            handle.write(record)
                            offset += len(record)
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp_path, final_path)
                    new_offsets[scrub_name] = offset
                    report["records_salvaged"] = len(salvage)
                    for key, location in salvage_index.items():
                        new_index.setdefault(key, location)
                except OSError:
                    # Could not write the salvage segment: leave the damaged
                    # segments in place (their valid records are individually
                    # readable and CRC-checked) rather than quarantining
                    # records we failed to copy out.
                    logger.warning("scrub: failed to write salvage segment; leaving store as-is")
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
                    quarantine_names = []
                    relocations = {}
                    for name, records in damaged:
                        for key, payload_offset, payload_len, _ in records:
                            new_index.setdefault(key, (name, payload_offset, payload_len))
                            valid_locations.add((name, payload_offset, payload_len))
                        new_offsets[name] = records[-1][3] if records else 0

            if quarantine_names:
                quarantine_dir = os.path.join(segment_dir, _QUARANTINE_DIR)
                try:
                    os.makedirs(quarantine_dir, exist_ok=True)
                except OSError:
                    quarantine_dir = None
                for name in quarantine_names:
                    if quarantine_dir is None:
                        break
                    try:
                        os.replace(
                            os.path.join(segment_dir, name), os.path.join(quarantine_dir, name)
                        )
                        report["segments_quarantined"] += 1
                        logger.warning("scrub: quarantined corrupt cache segment %s", name)
                    except OSError:
                        continue
                    self._scan_anomalies = {
                        site: kind for site, kind in self._scan_anomalies.items() if site[0] != name
                    }

            # Re-anchor keys the live index already resolved: where the scan
            # saw the same key in several segments, the indexed copy (possibly
            # relocated into the salvage segment) wins over name order — and a
            # record appended past a segment's high-water mark wins over both.
            for overlay in (prior, newer):
                for key, location in overlay.items():
                    if location in valid_locations:
                        new_index[key] = location
                    elif location in relocations:
                        new_index[key] = relocations[location]

            self._seg_index = new_index
            self._seg_offsets = new_offsets
            report["entries"] = len(new_index)
            self._publish_index()
            self._write_scrub_stamp(report)
            # The full rescan supersedes the incremental damage tallies: what
            # scrub found is in the report/stamp, and anything it healed (or
            # quarantined) is no longer a live anomaly.
            self._partial_tail_events = 0
            self._corrupt_record_events = 0
            self._scan_anomalies = {}
            return report

    def _scrub_scan(self, data: bytes) -> Tuple[List[Tuple[str, int, int, int]], int, int]:
        """Full-depth scan of one segment's bytes with forward resync.

        Returns ``(records, torn_tails, corrupt_sites)`` where each record is
        ``(key, payload_offset, payload_len, end_offset)``.  Unlike
        :meth:`_scan_records`, an invalid record does not end the scan: the
        scanner searches forward for the next record magic and keeps going,
        which is what salvages records stranded behind a damaged one.  A
        truncated record at EOF with nothing after it counts as a torn tail
        (normal); every other anomaly counts as a corrupt site.
        """
        records: List[Tuple[str, int, int, int]] = []
        torn = 0
        corrupt = 0
        pos = 0
        while pos < len(data):
            status, parsed = self._parse_record_at(data, pos)
            if status == "ok":
                records.append(parsed)
                pos = parsed[3]
                continue
            resync = data.find(_RECORD_MAGIC, pos + 1)
            if status == "incomplete" and resync == -1:
                torn += 1  # clean torn tail at EOF — a killed writer, not corruption
                break
            corrupt += 1
            if resync == -1:
                break
            pos = resync
        return records, torn, corrupt

    @staticmethod
    def _parse_record_at(
        data: bytes, pos: int
    ) -> Tuple[str, Optional[Tuple[str, int, int, int]]]:
        """Try to parse one record at ``pos``: ("ok", record) / ("incomplete"
        | "corrupt", None)."""
        header_size = _RECORD_HEADER.size
        if pos + header_size > len(data):
            return "incomplete", None
        magic, key_len, payload_len, crc = _RECORD_HEADER.unpack_from(data, pos)
        if magic != _RECORD_MAGIC:
            return "corrupt", None
        end = pos + header_size + key_len + payload_len
        if end > len(data):
            return "incomplete", None
        body = data[pos + header_size : end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            return "corrupt", None
        key = body[:key_len].decode("utf-8", errors="replace")
        return "ok", (key, pos + header_size + key_len, payload_len, end)

    def _write_scrub_stamp(self, report: Dict[str, Any]) -> None:
        if self.directory is None:
            return
        path = os.path.join(self.directory, _SCRUB_STAMP)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump({"time": time.time(), "report": report}, handle)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

    def disk_stats(self) -> Dict[str, Any]:
        """Disk-tier inventory plus health: entries, segments, bytes, damage.

        Refreshes the segment view first, so the numbers include records
        appended by other processes since this cache was opened.  Beyond the
        inventory, the health fields report what the tail scan has seen:
        ``partial_tails`` (truncated records at a segment tail — a killed
        writer or an append raced mid-write), ``corrupt_records`` (bad magic or CRC mismatch — real
        damage only :meth:`scrub` repairs), ``quarantined_segments`` (files
        scrub moved aside), and ``last_scrub_age_seconds`` (``None`` if the
        store was never scrubbed).
        """
        empty: Dict[str, Any] = {
            "entries": 0,
            "segments": 0,
            "bytes": 0,
            "partial_tails": 0,
            "corrupt_records": 0,
            "quarantined_segments": 0,
            "last_scrub_age_seconds": None,
        }
        with self._lock:
            if self.directory is None:
                return empty
            self._refresh_segments()
            segment_dir = os.path.join(self.directory, _SEGMENT_DIR)
            segments = 0
            total_bytes = 0
            try:
                for entry in os.scandir(segment_dir):
                    if entry.is_file() and entry.name.endswith(_SEGMENT_SUFFIX):
                        segments += 1
                        total_bytes += entry.stat().st_size
            except OSError:
                pass
            quarantined = 0
            try:
                quarantined = sum(
                    1
                    for entry in os.scandir(os.path.join(segment_dir, _QUARANTINE_DIR))
                    if entry.is_file()
                )
            except OSError:
                pass
            scrub_age = scrub_age_seconds(self.directory)
            return {
                "entries": len(self._seg_index),
                "segments": segments,
                "bytes": total_bytes,
                "partial_tails": self._partial_tail_events,
                "corrupt_records": self._corrupt_record_events,
                "quarantined_segments": quarantined,
                "last_scrub_age_seconds": scrub_age,
            }

    def close(self) -> None:
        """Flush the index and close this process's segment file."""
        with self._lock:
            if self.directory is not None:
                try:
                    self.flush()
                except OSError:
                    pass
            self._close_own_segment()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _lookup(self, key: str) -> Any:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
        value = self._disk_read(key)
        with self._lock:
            if value is not _MISS:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._entries[key] = value
                if self.capacity is not None:
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.stats.evictions += 1
            else:
                self.stats.misses += 1
        return value

    # -- segment plumbing ----------------------------------------------

    def _segment_dir(self) -> Optional[str]:
        if self.directory is None:
            return None
        return os.path.join(self.directory, _SEGMENT_DIR)

    @staticmethod
    def _build_record(key: str, payload: bytes) -> bytes:
        key_bytes = key.encode("utf-8")
        crc = zlib.crc32(key_bytes + payload) & 0xFFFFFFFF
        return _RECORD_HEADER.pack(_RECORD_MAGIC, len(key_bytes), len(payload), crc) + key_bytes + payload

    def _open_own_segment(self) -> Optional[int]:
        if self._own_segment_fd is not None:
            return self._own_segment_fd
        segment_dir = self._segment_dir()
        if segment_dir is None:
            return None
        os.makedirs(segment_dir, exist_ok=True)
        # One segment per process (pid + random token survives pid reuse):
        # no file ever has two writers, so records never interleave.
        name = f"w-{os.getpid()}-{os.urandom(4).hex()}{_SEGMENT_SUFFIX}"
        path = os.path.join(segment_dir, name)
        self._own_segment_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._own_segment_name = name
        self._seg_offsets.setdefault(name, 0)
        return self._own_segment_fd

    def _close_own_segment(self) -> None:
        if self._own_segment_fd is not None:
            try:
                os.close(self._own_segment_fd)
            except OSError:
                pass
        self._own_segment_fd = None
        self._own_segment_name = None

    def _load_published_index(self) -> None:
        """Seed the in-memory index from the published ``index.json`` (if any).

        The index is advisory: entries are CRC-verified on read, and the
        recorded high-water marks only tell the tail scan where to start.
        """
        self._index_loaded = True
        if self.directory is None:
            return
        path = os.path.join(self.directory, _INDEX_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            entries = data.get("entries", {})
            offsets = data.get("segments", {})
            for key, location in entries.items():
                name, offset, length = location
                self._seg_index.setdefault(str(key), (str(name), int(offset), int(length)))
            for name, offset in offsets.items():
                self._seg_offsets[str(name)] = max(self._seg_offsets.get(str(name), 0), int(offset))
        except (OSError, ValueError, TypeError, KeyError):
            # A missing or unreadable index just means a full tail scan.
            pass

    @staticmethod
    def _segment_names_oldest_first(segment_dir: str) -> List[str]:
        """Segment names sorted oldest-mtime-first (ties broken by name).

        Duplicate keys across segments carry no version markers, so scan
        order decides which copy wins when the index is silent (e.g. whole
        segments orphaned by a crashed compact).  The random tokens in
        segment names are meaningless for age; mtime order approximates
        write order, so the newest copy of a key is scanned last and wins.
        """
        decorated = []
        try:
            listing = list(os.scandir(segment_dir))
        except OSError:
            return []
        for entry in listing:
            if not (entry.is_file() and entry.name.endswith(_SEGMENT_SUFFIX)):
                continue
            try:
                mtime = entry.stat().st_mtime_ns
            except OSError:
                mtime = 0
            decorated.append((mtime, entry.name))
        return [name for _, name in sorted(decorated)]

    def _refresh_segments(self) -> None:
        """Tail-scan every segment past its high-water mark for new records."""
        segment_dir = self._segment_dir()
        if segment_dir is None:
            return
        if not self._index_loaded:
            self._load_published_index()
        names = self._segment_names_oldest_first(segment_dir)
        for name in names:
            start = self._seg_offsets.get(name, 0)
            path = os.path.join(segment_dir, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size <= start:
                continue
            try:
                with open(path, "rb") as handle:
                    handle.seek(start)
                    data = handle.read(size - start)
            except OSError:
                continue
            consumed = self._scan_records(name, start, data)
            self._seg_offsets[name] = start + consumed

    def _note_scan_anomaly(self, segment_name: str, offset: int, kind: str) -> None:
        """Count a tail-scan stop once per (segment, byte offset).

        The scan offset never advances past an anomaly, so every refresh
        re-encounters the same damage; deduplicating by position keeps the
        counters meaningful ("distinct damaged sites", not "refreshes").
        """
        site = (segment_name, offset)
        if self._scan_anomalies.get(site) == kind:
            return
        self._scan_anomalies[site] = kind
        if kind == "partial-tail":
            self._partial_tail_events += 1
            logger.debug(
                "cache segment %s: partial record at offset %d "
                "(in-progress append or torn tail from a killed writer)",
                segment_name,
                offset,
            )
        else:
            self._corrupt_record_events += 1
            logger.warning(
                "cache segment %s: %s at offset %d — records beyond it are "
                "unreachable until scrub() salvages the segment",
                segment_name,
                kind,
                offset,
            )

    def _scan_records(self, segment_name: str, base_offset: int, data: bytes) -> int:
        """Index every complete, CRC-valid record in ``data``.

        Returns how many bytes were consumed.  Scanning stops at the first
        incomplete or invalid record: an in-progress append is retried on the
        next refresh (the offset does not advance past it), and a truncated
        tail left by a killed writer is ignored.  Every stop is classified
        and counted (``disk_stats()``): a *partial tail* — header or body
        running past EOF — is the normal signature of an in-flight or torn
        append, while a *bad magic* or *CRC mismatch* inside the data means
        real corruption that only :meth:`scrub` can repair.
        """
        consumed = 0
        header_size = _RECORD_HEADER.size
        while True:
            if consumed + header_size > len(data):
                if consumed < len(data):
                    self._note_scan_anomaly(segment_name, base_offset + consumed, "partial-tail")
                break
            try:
                magic, key_len, payload_len, crc = _RECORD_HEADER.unpack_from(data, consumed)
            except struct.error:
                self._note_scan_anomaly(segment_name, base_offset + consumed, "partial-tail")
                break
            if magic != _RECORD_MAGIC:
                self._note_scan_anomaly(segment_name, base_offset + consumed, "bad magic")
                break
            end = consumed + header_size + key_len + payload_len
            if end > len(data):
                self._note_scan_anomaly(segment_name, base_offset + consumed, "partial-tail")
                break
            body = data[consumed + header_size : end]
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                self._note_scan_anomaly(segment_name, base_offset + consumed, "CRC mismatch")
                break
            key = body[:key_len].decode("utf-8", errors="replace")
            payload_offset = base_offset + consumed + header_size + key_len
            self._seg_index[key] = (segment_name, payload_offset, payload_len)
            # A site previously flagged as a partial tail that now parses was
            # just an in-flight append we raced — take the count back.
            site = (segment_name, base_offset + consumed)
            if self._scan_anomalies.get(site) == "partial-tail":
                del self._scan_anomalies[site]
                self._partial_tail_events -= 1
            consumed = end
        return consumed

    def _read_segment_payload(self, key: str, location: Tuple[str, int, int]) -> Optional[bytes]:
        """Raw payload bytes for an indexed record, CRC-verified; None if gone."""
        segment_dir = self._segment_dir()
        if segment_dir is None:
            return None
        name, offset, length = location
        key_bytes = key.encode("utf-8")
        try:
            with open(os.path.join(segment_dir, name), "rb") as handle:
                handle.seek(offset - len(key_bytes) - _RECORD_HEADER.size)
                record = handle.read(_RECORD_HEADER.size + len(key_bytes) + length)
        except OSError:
            return None
        if len(record) != _RECORD_HEADER.size + len(key_bytes) + length:
            return None
        try:
            magic, key_len, payload_len, crc = _RECORD_HEADER.unpack_from(record, 0)
        except struct.error:
            return None
        body = record[_RECORD_HEADER.size :]
        if (
            magic != _RECORD_MAGIC
            or key_len != len(key_bytes)
            or payload_len != length
            or zlib.crc32(body) & 0xFFFFFFFF != crc
            or body[:key_len] != key_bytes
        ):
            return None
        return body[key_len:]

    def _publish_index(self) -> None:
        """Atomically swap ``index.json`` (write-temp + ``os.replace``)."""
        if self.directory is None:
            return
        path = os.path.join(self.directory, _INDEX_NAME)
        payload = {
            "version": 1,
            "segments": dict(self._seg_offsets),
            "entries": {key: list(loc) for key, loc in self._seg_index.items()},
        }
        tmp_path = f"{path}.tmp.{os.getpid()}.{os.urandom(4).hex()}"
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

    # -- read / write entry points -------------------------------------

    def _disk_path_exists(self, key: str) -> bool:
        if self.directory is None:
            return False
        if key in self._seg_index:
            return True
        self._refresh_segments()
        return key in self._seg_index

    def _disk_read(self, key: str) -> Any:
        if self.directory is None:
            return _MISS
        with self._lock:
            return self._disk_read_locked(key)

    def _disk_read_locked(self, key: str) -> Any:
        location = self._seg_index.get(key)
        if location is None:
            self._refresh_segments()
            location = self._seg_index.get(key)
        if location is not None:
            payload = self._read_segment_payload(key, location)
            if payload is not None:
                try:
                    return pickle.loads(payload)
                except (pickle.PickleError, EOFError, AttributeError, ValueError):
                    pass
            # The record vanished (compaction) or failed validation: drop
            # the stale index entry; the value is recomputed.
            self._seg_index.pop(key, None)
        return _MISS

    def _disk_write(self, key: str, value: Any) -> None:
        if self.directory is None:
            return
        try:
            with self._lock:
                self._disk_write_locked(key, value)
        except (OSError, pickle.PickleError):
            # The disk tier is best-effort: an unwritable store degrades the
            # cache to memory-only instead of failing the compilation.
            pass

    def _disk_write_locked(self, key: str, value: Any) -> None:
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            fd = self._open_own_segment()
            if fd is None:
                return
            record = self._build_record(key, payload)
            name = self._own_segment_name
            offset = self._seg_offsets.get(name, 0)
            os.write(fd, record)  # one complete record per write
            on_disk = self._inject_write_fault(fd, offset, record)
            self._seg_offsets[name] = offset + on_disk
            if on_disk == len(record):
                self._seg_index[key] = (
                    name,
                    offset + _RECORD_HEADER.size + len(key.encode("utf-8")),
                    len(payload),
                )
            else:
                # The injected torn append left no complete record on disk.
                self._seg_index.pop(key, None)
            self._puts_since_publish += 1
            if self._puts_since_publish >= _INDEX_PUBLISH_INTERVAL:
                self._puts_since_publish = 0
                self._publish_index()
        except (OSError, pickle.PickleError):
            # The disk tier is best-effort: an unwritable store degrades the
            # cache to memory-only instead of failing the compilation.
            pass

    def _inject_write_fault(self, fd: int, offset: int, record: bytes) -> int:
        """Chaos hook: maybe corrupt the record just appended at ``offset``.

        Draws from :attr:`fault_injector` (the ``cache`` layer of a
        :class:`~repro.resilience.faultplan.FaultPlan`).  ``bitflip`` flips
        one payload bit in place — the record keeps its length but will fail
        CRC on every future read; ``truncate`` cuts the file mid-record,
        exactly the torn tail a writer killed inside ``write(2)`` would
        leave.  Returns the record's actual on-disk length so the caller's
        offset bookkeeping stays truthful.
        """
        if self.fault_injector is None:
            return len(record)
        mode = self.fault_injector.draw()
        if mode is None:
            return len(record)
        if mode == "bitflip" and len(record) > _RECORD_HEADER.size:
            # Deterministic target: the middle of the key+payload body.
            target = _RECORD_HEADER.size + (len(record) - _RECORD_HEADER.size) // 2
            os.pwrite(fd, bytes([record[target] ^ 0x40]), offset + target)
            logger.warning(
                "chaos: flipped a bit in cache segment %s at offset %d",
                self._own_segment_name,
                offset + target,
            )
            return len(record)
        if mode == "truncate" and len(record) >= 2:
            keep = len(record) // 2
            os.ftruncate(fd, offset + keep)
            logger.warning(
                "chaos: tore cache segment %s mid-record at offset %d",
                self._own_segment_name,
                offset + keep,
            )
            return keep
        return len(record)

    def __repr__(self) -> str:
        tier = f", directory={self.directory!r}" if self.directory else ""
        return (
            f"SynthesisCache(entries={len(self._entries)}, capacity={self.capacity}{tier}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
