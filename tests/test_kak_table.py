"""The per-compile KAK decomposition table and the batched reuse check.

Inside one ``compile`` the batched KAK kernel keeps every decomposition it
makes or reads in a table keyed by exact matrix bytes, so a block that
mirroring decomposed is not decomposed again by finalization.  These tests
pin what that may and may not change: every unique block is decomposed once
per compile, the output is bit-identical to a compile without the table
(with and without a synthesis cache, under both SABRE backends), concurrent
compiles never share a table, and a corrupted cached decomposition is still
refused by the one stacked reuse check.
"""

import contextlib
import dataclasses
import threading

import numpy as np
import pytest

import repro.kernels.kak_batch as kak_batch
from repro.kernels import backend_info
from repro.kernels.kak_batch import batch_stats, decomposition_table, kak_decompose_batch, reset_batch_stats
from repro.linalg.random import haar_random_su4
from repro.linalg.weyl import install_kak_cache
from repro.service.cache import SynthesisCache, unitary_fingerprint
from repro.synthesis.templates import default_template_library
from repro.target.api import compile as target_compile
from repro.target.target import Target
from repro.workloads.suite import benchmark_suite

from circuit_helpers import circuits_bit_identical, random_two_qubit_circuit

BACKENDS = ["py"] + (["native"] if backend_info()["native_available"] else [])


def _cases():
    """A logical reqisc-eff compile and a line24-shaped (routed) one."""
    logical = random_two_qubit_circuit(8, 160, seed=11)
    return [
        (logical, None, "reqisc-eff"),
        (random_two_qubit_circuit(24, 600, seed=5), Target.xy_line(24), "reqisc-eff"),
    ]


def _without_table(monkeypatch):
    """Make every compile run its batches without a shared table."""
    monkeypatch.setattr(kak_batch, "decomposition_table", contextlib.nullcontext)


def _recording_requests(monkeypatch):
    """Record the exact bytes of every matrix handed to the batch kernel."""
    requested = set()
    original = kak_batch.kak_decompose_batch

    def spy(unitaries, validate=True):
        requested.update(np.ascontiguousarray(u, dtype=complex).tobytes() for u in unitaries)
        return original(unitaries, validate=validate)

    monkeypatch.setattr(kak_batch, "kak_decompose_batch", spy)
    return requested


@pytest.mark.parametrize("case", range(2), ids=["logical", "line24"])
def test_each_unique_block_is_decomposed_once_per_compile(monkeypatch, case):
    circuit, target, spec = _cases()[case]
    default_template_library()  # built once per process, outside any compile's table
    requested = _recording_requests(monkeypatch)
    reset_batch_stats()
    target_compile(circuit, target=target, spec=spec)
    stats = batch_stats()
    assert stats["decomposed"] == len(requested)
    assert stats["table_hits"] > 0  # finalization reused mirroring's work
    assert stats["cache_hits"] == 0

    # Without the table the same compile decomposes some blocks twice.
    _without_table(monkeypatch)
    requested.clear()
    reset_batch_stats()
    target_compile(circuit, target=target, spec=spec)
    assert batch_stats()["decomposed"] > len(requested)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_table_changes_no_output_bit(monkeypatch, backend, cached):
    monkeypatch.setenv("REPRO_KERNELS", backend)
    programs = [(circuit, target, spec) for circuit, target, spec in _cases()]
    programs += [
        (case.circuit, None, spec)
        for case in benchmark_suite(scale="tiny")[:6]
        for spec in ("reqisc-eff", "reqisc-full")
    ]

    def run_all():
        cache = SynthesisCache() if cached else None
        return [target_compile(c, target=t, spec=s, synthesis_cache=cache) for c, t, s in programs]

    with_table = run_all()
    _without_table(monkeypatch)
    without_table = run_all()
    for got, want in zip(with_table, without_table):
        assert circuits_bit_identical(got.circuit, want.circuit)
        assert got.properties.get("mirror_permutation") == want.properties.get("mirror_permutation")
        assert got.final_permutation == want.final_permutation


def test_concurrent_compiles_never_share_a_table(monkeypatch):
    circuits = [random_two_qubit_circuit(8, 160, seed=seed) for seed in (21, 22)]
    expected = [target_compile(c, spec="reqisc-eff").circuit for c in circuits]
    seen = {}  # thread ident -> tables seen by its batches
    barrier = threading.Barrier(2, timeout=30)
    original = kak_batch.kak_decompose_batch

    def spy(unitaries, validate=True):
        tables = seen.setdefault(threading.get_ident(), [])
        tables.append(kak_batch._TABLE.get())
        if len(tables) == 1:
            barrier.wait()  # both compiles are now inside their own table
        return original(unitaries, validate=validate)

    monkeypatch.setattr(kak_batch, "kak_decompose_batch", spy)
    results = [None, None]

    def work(index):
        results[index] = target_compile(circuits[index], spec="reqisc-eff").circuit

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(seen) == 2
    first, second = seen.values()
    assert all(table is first[0] for table in first) and first[0] is not None
    assert all(table is second[0] for table in second) and second[0] is not None
    assert first[0] is not second[0]
    assert all(circuits_bit_identical(got, want) for got, want in zip(results, expected))
    assert kak_batch._TABLE.get() is None


def test_table_lives_for_one_block_only():
    u = haar_random_su4(np.random.default_rng(3))
    with decomposition_table():
        first = kak_decompose_batch([u])[0]
        assert kak_decompose_batch([u.copy()])[0] is first
    assert kak_batch._TABLE.get() is None
    assert kak_decompose_batch([u])[0] is not first


@contextlib.contextmanager
def _installed(cache):
    previous = install_kak_cache(cache)
    try:
        yield cache
    finally:
        install_kak_cache(previous)


def _corrupted_cache(matrices, bad_index):
    """A cache holding every matrix's batch decomposition, one of them corrupted."""
    cache = SynthesisCache()
    for index, (matrix, decomposition) in enumerate(zip(matrices, kak_decompose_batch(matrices))):
        if index == bad_index:
            decomposition = dataclasses.replace(decomposition, x=decomposition.x + 0.1)
        cache.put(unitary_fingerprint(matrix, "kak", "batch"), decomposition)
    return cache


def test_corrupted_cached_decomposition_is_refused():
    rng = np.random.default_rng(17)
    matrices = [haar_random_su4(rng) for _ in range(5)]
    with _installed(_corrupted_cache(matrices, bad_index=3)):
        with pytest.raises(ValueError, match="cached KAK reconstruction error too large"):
            kak_decompose_batch(matrices)
        # Unvalidated reads get the entry as stored: the check is what refuses it.
        bad = kak_decompose_batch(matrices, validate=False)[3]
        assert bad.reconstruction_error(matrices[3]) > 1e-6
    with _installed(_corrupted_cache(matrices, bad_index=None)):
        assert [d.coordinates for d in kak_decompose_batch(matrices)] == [
            d.coordinates for d in kak_decompose_batch(matrices, validate=False)
        ]


def test_corrupted_entry_reused_from_the_table_is_refused():
    # Mirroring reads a block unvalidated; finalization's validating read of
    # the same block within the compile must still run the check.
    rng = np.random.default_rng(18)
    matrices = [haar_random_su4(rng) for _ in range(3)]
    with _installed(_corrupted_cache(matrices, bad_index=0)), decomposition_table():
        kak_decompose_batch(matrices, validate=False)
        with pytest.raises(ValueError, match="cached KAK reconstruction error too large"):
            kak_decompose_batch(matrices[:1])


def test_fresh_decompositions_are_not_checked_twice(monkeypatch):
    rng = np.random.default_rng(19)
    matrices = [haar_random_su4(rng) for _ in range(4)]
    calls = []
    original = kak_batch._reconstruction_errors
    monkeypatch.setattr(kak_batch, "_reconstruction_errors", lambda *args: calls.append(1) or original(*args))
    with decomposition_table():
        unvalidated = kak_decompose_batch(matrices, validate=False)
        validated = kak_decompose_batch(matrices)
    assert all(a is b for a, b in zip(unvalidated, validated))
    assert calls == []  # their errors were measured when they were made


class _DroppingCache:
    """A synthesis cache whose writes never land (every entry evicted at once)."""

    def get(self, key):
        return None

    def put(self, key, value):
        pass


def test_failed_fresh_entry_is_not_blamed_on_the_cache(monkeypatch):
    # A fresh decomposition read unvalidated, whose write-back to an installed
    # cache did not land, never came from the cache: a validating read of it
    # fails with the fresh-decomposition error.
    original = kak_batch._kak_decompose_stack

    def corrupting(stack):
        decompositions, errors = original(stack)
        decompositions[0] = dataclasses.replace(decompositions[0], x=decompositions[0].x + 0.1)
        errors[0] = decompositions[0].reconstruction_error(stack[0])
        return decompositions, errors

    monkeypatch.setattr(kak_batch, "_kak_decompose_stack", corrupting)
    u = haar_random_su4(np.random.default_rng(20))
    with _installed(_DroppingCache()), decomposition_table():
        kak_decompose_batch([u], validate=False)
        with pytest.raises(ValueError, match="^KAK reconstruction error too large: "):
            kak_decompose_batch([u])
