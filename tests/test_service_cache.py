"""Tests for the content-addressed synthesis cache (repro.service.cache)."""

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.linalg.random import haar_random_su4
from repro.linalg.weyl import install_kak_cache, installed_kak_cache, kak_decompose
from repro.service.cache import (
    CacheStats,
    SynthesisCache,
    circuit_fingerprint,
    unitary_fingerprint,
)


# ---------------------------------------------------------------------------
# Fingerprints.
# ---------------------------------------------------------------------------


def test_unitary_fingerprint_is_stable():
    matrix = haar_random_su4(rng=np.random.default_rng(1))
    assert unitary_fingerprint(matrix) == unitary_fingerprint(matrix)
    assert unitary_fingerprint(matrix, "kak") == unitary_fingerprint(matrix.copy(), "kak")


def test_unitary_fingerprint_ignores_memory_layout():
    matrix = haar_random_su4(rng=np.random.default_rng(2))
    fortran = np.asfortranarray(matrix)
    assert unitary_fingerprint(matrix) == unitary_fingerprint(fortran)


def test_unitary_fingerprint_discriminates_value_shape_and_context():
    rng = np.random.default_rng(3)
    a = haar_random_su4(rng=rng)
    b = haar_random_su4(rng=rng)
    assert unitary_fingerprint(a) != unitary_fingerprint(b)
    assert unitary_fingerprint(a) != unitary_fingerprint(a, "kak")
    assert unitary_fingerprint(a, "kak") != unitary_fingerprint(a, "hier")
    # A tiny perturbation must change the fingerprint (exact-byte keys).
    perturbed = a.copy()
    perturbed[0, 0] += 1e-15
    assert unitary_fingerprint(a) != unitary_fingerprint(perturbed)
    assert unitary_fingerprint(np.eye(2)) != unitary_fingerprint(np.eye(4))


def test_circuit_fingerprint_tracks_content():
    def build(angle):
        circuit = QuantumCircuit(2, "fp")
        circuit.h(0)
        circuit.cp(angle, 0, 1)
        return circuit

    assert circuit_fingerprint(build(0.5)) == circuit_fingerprint(build(0.5))
    assert circuit_fingerprint(build(0.5)) != circuit_fingerprint(build(0.25))
    assert circuit_fingerprint(build(0.5)) != circuit_fingerprint(build(0.5), "ctx")


def test_circuit_fingerprint_distinguishes_unitary_gates_with_same_label():
    rng = np.random.default_rng(4)
    first = QuantumCircuit(2).unitary(haar_random_su4(rng=rng), [0, 1], label="su4")
    second = QuantumCircuit(2).unitary(haar_random_su4(rng=rng), [0, 1], label="su4")
    assert circuit_fingerprint(first) != circuit_fingerprint(second)


def _streaming_circuit_fingerprint(circuit, *context):
    """The fingerprint's definition: one sha256 update per piece, in order."""
    import hashlib

    from repro.gates.gate import UnitaryGate

    digest = hashlib.sha256()
    digest.update(str(circuit.num_qubits).encode())
    for instruction in circuit:
        gate = instruction.gate
        digest.update(b"|")
        digest.update(gate.name.encode())
        digest.update(str(instruction.qubits).encode())
        if isinstance(gate, UnitaryGate):
            digest.update(np.ascontiguousarray(gate.matrix).tobytes())
        elif gate.params:
            digest.update(np.asarray(gate.params, dtype=float).tobytes())
    for tag in context:
        digest.update(b"\x00")
        digest.update(str(tag).encode())
    return digest.hexdigest()


def test_circuit_fingerprint_is_its_streaming_definition():
    from repro.ir import CircuitIR
    from repro.workloads.suite import benchmark_suite

    rng = np.random.default_rng(6)
    mixed = QuantumCircuit(3, "mixed").h(0).cx(0, 1).rz(-0.0, 2).can(0.3, 0.2, 0.1, 1, 2)
    mixed.unitary(haar_random_su4(rng=rng), [2, 0], label="su4").ccx(0, 1, 2).cx(0, 1)
    circuits = [mixed, CircuitIR.from_circuit(mixed), QuantumCircuit(1)]
    circuits += [case.circuit for case in benchmark_suite(scale="tiny")[:5]]
    for circuit in circuits:
        for context in ((), ("serve", "reqisc-eff", "None", "0")):
            assert circuit_fingerprint(circuit, *context) == _streaming_circuit_fingerprint(circuit, *context)


# ---------------------------------------------------------------------------
# Hit / miss / eviction behaviour.
# ---------------------------------------------------------------------------


def test_cache_hit_and_miss_counters():
    cache = SynthesisCache(capacity=8)
    assert cache.get("absent") is None
    assert cache.stats.misses == 1 and cache.stats.hits == 0
    cache.put("key", 42)
    assert cache.get("key") == 42
    assert cache.stats.hits == 1 and cache.stats.puts == 1


def test_cache_get_or_compute_computes_once():
    cache = SynthesisCache()
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get_or_compute("k", compute) == "value"
    assert len(calls) == 1
    assert cache.stats.misses == 1 and cache.stats.hits == 1


def test_cache_negative_result_is_cached():
    cache = SynthesisCache()
    calls = []

    def compute():
        calls.append(1)
        return None

    assert cache.get_or_compute("reject", compute) is None
    assert cache.get_or_compute("reject", compute) is None
    assert len(calls) == 1


def test_cache_lru_eviction():
    cache = SynthesisCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a": now "b" is least recently used
    cache.put("c", 3)
    assert cache.stats.evictions == 1
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3


def test_cache_clear_keeps_or_resets_stats():
    cache = SynthesisCache()
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0 and cache.stats.hits == 1
    cache.clear(reset_stats=True)
    assert cache.stats.hits == 0


# ---------------------------------------------------------------------------
# Disk tier.
# ---------------------------------------------------------------------------


def test_disk_cache_round_trip(tmp_path):
    directory = str(tmp_path / "store")
    writer = SynthesisCache(directory=directory)
    payload = {"matrix": np.eye(4, dtype=complex), "count": 3}
    writer.put("entry", payload)

    reader = SynthesisCache(directory=directory)
    value = reader.get("entry")
    assert value is not None and value["count"] == 3
    assert np.array_equal(value["matrix"], payload["matrix"])
    assert reader.stats.disk_hits == 1 and reader.stats.hits == 1
    # Second read is served from memory.
    reader.get("entry")
    assert reader.stats.disk_hits == 1 and reader.stats.hits == 2


def test_negative_entry_survives_disk_round_trip(tmp_path):
    directory = str(tmp_path / "store")
    writer = SynthesisCache(directory=directory)
    writer.put("reject", None)

    reader = SynthesisCache(directory=directory)
    calls = []

    def compute():
        calls.append(1)
        return "should not run"

    # The disk-loaded sentinel must still read back as None (not recompute,
    # and not leak the sentinel object).
    assert reader.get("reject", default="sentinel-default") is None
    assert reader.get_or_compute("reject", compute) is None
    assert calls == []


def _segment_paths(directory):
    import glob
    import os

    return sorted(glob.glob(os.path.join(directory, "segments", "*.seg")))


def test_corrupt_segment_degrades_to_miss(tmp_path):
    directory = str(tmp_path / "store")
    writer = SynthesisCache(directory=directory)
    writer.put("entry", [1, 2, 3])
    (path,) = _segment_paths(directory)
    with open(path, "wb") as handle:
        handle.write(b"not a segment record")
    reader = SynthesisCache(directory=directory)
    assert reader.get("entry") is None
    assert reader.stats.misses == 1


def test_truncated_segment_tail_keeps_earlier_entries_readable(tmp_path):
    # A writer killed mid-append leaves a partial record at the tail of its
    # own segment; every record before it must stay readable.
    directory = str(tmp_path / "store")
    writer = SynthesisCache(directory=directory)
    for i in range(5):
        writer.put(f"key-{i}", {"value": i})
    (path,) = _segment_paths(directory)
    size = __import__("os").path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 7)  # chop into the last record
        handle.seek(size - 7)
        handle.write(b"\x01\x02\x03")  # and leave trailing garbage

    reader = SynthesisCache(directory=directory)
    for i in range(4):
        assert reader.get(f"key-{i}") == {"value": i}
    assert reader.get("key-4") is None  # the torn record reads as a miss


def test_concurrent_style_writers_share_one_directory(tmp_path):
    # Two cache instances (as two processes would be) write disjoint and
    # overlapping keys to one directory; each sees the other's entries.
    directory = str(tmp_path / "store")
    a = SynthesisCache(capacity=2, directory=directory)
    b = SynthesisCache(capacity=2, directory=directory)
    a.put("shared", "same-bytes")
    b.put("shared", "same-bytes")
    a.put("only-a", 1)
    b.put("only-b", 2)
    assert len(_segment_paths(directory)) == 2  # one segment per writer
    assert a.get("only-b") == 2
    assert b.get("only-a") == 1
    fresh = SynthesisCache(directory=directory)
    assert fresh.get("shared") == "same-bytes"


def test_flush_publishes_atomic_index(tmp_path):
    import json
    import os

    directory = str(tmp_path / "store")
    writer = SynthesisCache(directory=directory)
    writer.put("k1", "v1")
    writer.flush()
    index_path = os.path.join(directory, "index.json")
    assert os.path.exists(index_path)
    with open(index_path, "r", encoding="utf-8") as handle:
        index = json.load(handle)
    assert "k1" in index["entries"]
    # No torn temp files left behind.
    assert not [name for name in os.listdir(directory) if ".tmp" in name]
    # A reader seeded from the published index resolves without a full scan.
    reader = SynthesisCache(directory=directory)
    assert reader.get("k1") == "v1"


def test_compaction_folds_segments_and_preserves_entries(tmp_path):
    directory = str(tmp_path / "store")
    a = SynthesisCache(directory=directory)
    b = SynthesisCache(directory=directory)
    for i in range(10):
        (a if i % 2 else b).put(f"key-{i}", i * i)
    assert len(_segment_paths(directory)) == 2

    compactor = SynthesisCache(directory=directory)
    outcome = compactor.compact()
    assert outcome["entries"] == 10
    assert len(_segment_paths(directory)) == 1

    fresh = SynthesisCache(directory=directory)
    for i in range(10):
        assert fresh.get(f"key-{i}") == i * i


def test_stray_legacy_pickle_reads_as_a_miss_and_stays_on_disk(tmp_path):
    import os
    import pickle

    # A file in the retired one-pickle-per-entry layout is not part of the
    # store: it is neither read, nor compacted, nor deleted.
    directory = str(tmp_path / "store")
    key = "abcdef0123456789"
    legacy_path = os.path.join(directory, key[:2], f"{key}.pkl")
    os.makedirs(os.path.dirname(legacy_path))
    with open(legacy_path, "wb") as handle:
        pickle.dump({"legacy": True}, handle)

    reader = SynthesisCache(directory=directory)
    assert key not in reader
    assert reader.get(key, "missing") == "missing"
    assert reader.stats.misses == 1 and reader.stats.hits == 0
    assert reader.compact() == {"entries": 0, "segments_removed": 0}
    assert os.path.exists(legacy_path)


def test_cache_stats_snapshot_and_delta():
    stats = CacheStats(hits=5, misses=2)
    snap = stats.snapshot()
    stats.hits += 3
    delta = stats.delta_since(snap)
    assert delta.hits == 3 and delta.misses == 0
    merged = CacheStats()
    merged.merge(delta)
    assert merged.hits == 3


# ---------------------------------------------------------------------------
# KAK cache hook.
# ---------------------------------------------------------------------------


def test_kak_decompose_uses_installed_cache():
    matrix = haar_random_su4(rng=np.random.default_rng(11))
    cache = SynthesisCache()
    previous = install_kak_cache(cache)
    try:
        assert installed_kak_cache() is cache
        first = kak_decompose(matrix)
        second = kak_decompose(matrix)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert second is first  # the cached object itself is returned
        assert first.reconstruction_error(matrix) < 1e-8
    finally:
        install_kak_cache(previous)
    assert installed_kak_cache() is previous


def test_kak_cached_result_matches_uncached():
    matrix = haar_random_su4(rng=np.random.default_rng(12))
    plain = kak_decompose(matrix)
    cache = SynthesisCache()
    previous = install_kak_cache(cache)
    try:
        kak_decompose(matrix)
        cached = kak_decompose(matrix)
    finally:
        install_kak_cache(previous)
    assert cached.coordinates == plain.coordinates
    assert np.array_equal(cached.l1, plain.l1)
    assert np.array_equal(cached.r2, plain.r2)


def _legacy_gate_dumps(value, protocol=None):
    """``pickle.dumps`` laying gates out as older releases did.

    Those releases gave :class:`~repro.gates.gate.Gate` one more slot,
    ``_content``, so their pickles restore a slot the class no longer has.
    """
    import copyreg
    import io
    import pickle

    from repro.gates.gate import Gate

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, obj):
            if not isinstance(obj, Gate):
                return NotImplemented
            slots = {name: getattr(obj, name) for name in Gate.__slots__ if hasattr(obj, name)}
            slots["_content"] = None
            return copyreg.__newobj__, (type(obj),), (getattr(obj, "__dict__", None), slots)

    buffer = io.BytesIO()
    LegacyPickler(buffer, protocol).dump(value)
    return buffer.getvalue()


def test_entries_with_gates_from_older_releases_read_as_misses(tmp_path, monkeypatch):
    import pickle

    from repro.target.api import compile as target_compile

    circuit = QuantumCircuit(4, "tof_chain")
    circuit.h(0).ccx(0, 1, 2).cx(2, 3).ccx(1, 2, 3)
    cold = target_compile(circuit, spec="reqisc-eff")

    directory = str(tmp_path / "store")
    with monkeypatch.context() as patch:
        patch.setattr(pickle, "dumps", _legacy_gate_dumps)
        writer = SynthesisCache(directory=directory)
        target_compile(circuit, spec="reqisc-eff", synthesis_cache=writer)
        writer.close()

    reader = SynthesisCache(directory=directory)
    warm = target_compile(circuit, spec="reqisc-eff", synthesis_cache=reader)
    reader.close()
    # The template pass's stored output holds gates: it fails to unpickle,
    # reads as a miss and is recomputed.
    assert reader.stats.misses > 0
    assert warm.circuit.instructions == cold.circuit.instructions  # bit-exact gate equality
