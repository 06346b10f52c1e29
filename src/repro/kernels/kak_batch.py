"""Batched SU(4)/KAK numerics.

:func:`kak_decompose_batch` decomposes N two-qubit unitaries with vectorized
(gufunc) linear algebra — one ``det``/``eigh``/``svd``/matmul call over the
``(N, 4, 4)`` stack instead of N scalar calls — eliminating the per-call
numpy dispatch overhead that dominates one-at-a-time
:func:`repro.linalg.weyl.kak_decompose`.

Two properties make the batch path safe to wire into the compiler:

* **Composition independence.**  Every batched operation (stacked LAPACK
  gufuncs, broadcast matmuls, elementwise ufuncs) processes each item
  independently, so an item's decomposition never depends on which other
  matrices share its batch.  Callers (the finalize and mirror passes,
  block consolidation) may therefore group work differently between runs
  without perturbing any result.
* **Exact-bytes interning.**  Inputs are deduplicated on their exact matrix
  bytes before any numerics run (identical fused blocks recur heavily across
  benchmark programs), and the per-family interning statistics are exposed
  through :func:`batch_stats` for the benchmark.

The per-item arithmetic mirrors the scalar ``kak_decompose`` step for step
(same mixing angle, same residue fix, same canonicalization), and the two
paths agree to 1e-12 on every coordinate/local factor across the benchmark
suite (property-tested).  Batch results are nevertheless kept out of the
scalar path's synthesis-cache namespace (context tag ``("kak", "batch")``
instead of ``("kak",)``) so the two populations can never alias on a
platform where stacked and scalar LAPACK calls round differently.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.linalg.constants import COORD_TO_PHASE, MAGIC_BASIS, MAGIC_BASIS_DAG
from repro.linalg import weyl as _weyl
from repro.linalg.weyl import (
    KAKDecomposition,
    _canonicalize_record,
    _DecompositionRecord,
    _phases_to_coordinates,
    _simultaneously_diagonalize,
)

__all__ = ["kak_decompose_batch", "batch_stats", "reset_batch_stats"]

#: First mixing angle of the simultaneous diagonalization — must match the
#: deterministic attempt-0 angle of ``weyl._simultaneously_diagonalize`` so
#: the batched first attempt is the same computation as the scalar one.
_FIRST_ANGLE = 0.61803398875

_STATS: Dict[str, int] = {
    "batches": 0,
    "inputs": 0,
    "unique": 0,
    "interned": 0,
    "cache_hits": 0,
}


def batch_stats() -> Dict[str, int]:
    """Counters of the batch collector (inputs, exact-bytes dedup, cache).

    ``interned`` counts inputs that were deduplicated against another batch
    member by exact matrix bytes; ``cache_hits`` counts unique matrices that
    were served from an installed KAK cache without running the numerics.
    """
    return dict(_STATS)


def reset_batch_stats() -> None:
    """Zero the batch counters (the benchmark brackets runs with this)."""
    for key in _STATS:
        _STATS[key] = 0


def _diagonalize_batch(m2: np.ndarray) -> np.ndarray:
    """Batched :func:`weyl._simultaneously_diagonalize` over ``(N, 4, 4)``.

    The deterministic first attempt (fixed mixing angle) is evaluated for
    the whole stack in one ``eigh`` call; the measure-zero items it fails to
    separate fall back to the scalar retry loop with the same seeded rng the
    scalar path would use.
    """
    real = np.real(m2)
    imag = np.imag(m2)
    mix = math.cos(_FIRST_ANGLE) * real + math.sin(_FIRST_ANGLE) * imag
    _, p = np.linalg.eigh(mix)
    diag = p.transpose(0, 2, 1) @ m2 @ p
    off = np.abs(diag)
    index = np.arange(4)
    off[:, index, index] = 0.0
    ok = off.reshape(len(m2), -1).max(axis=1) < 1e-9
    dets = np.linalg.det(p)
    flip = ok & (dets < 0)
    p[flip, :, 0] = -p[flip, :, 0]
    for i in np.nonzero(~ok)[0]:
        rng = np.random.default_rng(20260614)
        p[i] = _simultaneously_diagonalize(m2[i], rng)
    return p


def _decompose_tensor_product_batch(matrices: np.ndarray, atol: float = 1e-6):
    """Batched :func:`weyl.decompose_tensor_product` over ``(N, 4, 4)``."""
    n = matrices.shape[0]
    m = np.asarray(matrices, dtype=complex)
    rearranged = m.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(n, 4, 4)
    u, s, vh = np.linalg.svd(rearranged)
    limit = max(atol, 1e-7) * np.maximum(s[:, 0], 1.0)
    if np.any(s[:, 1] > limit):
        index = int(np.argmax(s[:, 1] - limit))
        raise ValueError(
            "matrix is not a tensor product of single-qubit operators "
            f"(batch item {index}, second singular value {s[index, 1]:.3e})"
        )
    root = np.sqrt(s[:, 0])
    a = (u[:, :, 0] * root[:, None]).reshape(n, 2, 2)
    b = (vh[:, 0, :] * root[:, None]).reshape(n, 2, 2)
    det_a = np.linalg.det(a)
    det_b = np.linalg.det(b)
    if np.any(np.abs(det_a) < 1e-12) or np.any(np.abs(det_b) < 1e-12):
        raise ValueError("degenerate tensor-product factor")
    a = a / np.sqrt(det_a)[:, None, None]
    b = b / np.sqrt(det_b)[:, None, None]
    kron = np.einsum("nij,nkl->nikjl", a, b).reshape(n, 4, 4)
    phase = np.trace(kron.conj().transpose(0, 2, 1) @ m, axis1=1, axis2=2) / 4.0
    norm = np.abs(phase)
    if np.any(norm < 1e-12):
        raise ValueError("tensor-product phase could not be determined")
    phase = phase / norm
    return phase, a, b


def _reconstruct_batch(records: Sequence[KAKDecomposition]) -> np.ndarray:
    """Stack of reconstructed unitaries of ``records`` (validation only)."""
    n = len(records)
    l1 = np.stack([rec.l1 for rec in records])
    l2 = np.stack([rec.l2 for rec in records])
    r1 = np.stack([rec.r1 for rec in records])
    r2 = np.stack([rec.r2 for rec in records])
    left = np.einsum("nij,nkl->nikjl", l1, l2).reshape(n, 4, 4)
    right = np.einsum("nij,nkl->nikjl", r1, r2).reshape(n, 4, 4)
    coords = np.array([[rec.x, rec.y, rec.z] for rec in records], dtype=float)
    phases = coords @ COORD_TO_PHASE.T  # (N, 4)
    can = MAGIC_BASIS @ (np.exp(-1j * phases)[:, :, None] * MAGIC_BASIS_DAG)
    gp = np.array([rec.global_phase for rec in records], dtype=complex)
    return gp[:, None, None] * (left @ can @ right)


def _kak_decompose_stack(stack: np.ndarray, validate: bool) -> List[KAKDecomposition]:
    """Decompose a deduplicated ``(N, 4, 4)`` stack (the batched numerics)."""
    n = stack.shape[0]
    dets = np.linalg.det(stack)
    if np.any(np.abs(np.abs(dets) - 1.0) > 1e-6):
        raise ValueError("matrix is not unitary (|det| != 1)")
    det_root = dets ** (-0.25)
    u_su = stack * det_root[:, None, None]
    global_phase = 1.0 / det_root

    um = MAGIC_BASIS_DAG @ u_su @ MAGIC_BASIS
    m2 = um.transpose(0, 2, 1) @ um
    p = _diagonalize_batch(m2)
    d = np.einsum("nii->ni", p.transpose(0, 2, 1) @ m2 @ p)
    thetas = np.angle(d) / 2.0
    # Enforce sum(thetas) == 0 (mod 2 pi) per item — scalar Python floats so
    # the residue branch is the exact computation of the scalar path.
    for i in range(n):
        total = float(np.sum(thetas[i]))
        residue = (total + math.pi) % (2.0 * math.pi) - math.pi
        if abs(residue) > 1e-6:
            thetas[i, 3] += math.pi if residue < 0 else -math.pi

    a_diag = np.exp(1j * thetas)
    conj = a_diag.conj()
    diag_mats = np.zeros((n, 4, 4), dtype=complex)
    index = np.arange(4)
    diag_mats[:, index, index] = conj
    k1 = um @ p @ diag_mats
    if np.max(np.abs(np.imag(k1))) > 1e-6:
        raise np.linalg.LinAlgError("KAK factor K1 is not real orthogonal")
    k1 = np.real(k1)

    left_local = MAGIC_BASIS @ k1 @ MAGIC_BASIS_DAG
    right_local = MAGIC_BASIS @ p.transpose(0, 2, 1) @ MAGIC_BASIS_DAG
    phase_left, l1s, l2s = _decompose_tensor_product_batch(left_local)
    phase_right, r1s, r2s = _decompose_tensor_product_batch(right_local)

    results: List[KAKDecomposition] = []
    for i in range(n):
        coords = _phases_to_coordinates(thetas[i])
        gp = global_phase[i] * phase_left[i] * phase_right[i]
        record = _DecompositionRecord(gp, l1s[i], l2s[i], coords, r1s[i], r2s[i])
        _canonicalize_record(record)
        cx, cy, cz = record.coords
        results.append(
            KAKDecomposition(
                global_phase=complex(record.phase),
                l1=record.l1,
                l2=record.l2,
                r1=record.r1,
                r2=record.r2,
                x=float(cx),
                y=float(cy),
                z=float(cz),
            )
        )
    if validate:
        errors = np.linalg.norm(
            (_reconstruct_batch(results) - stack).reshape(n, -1), axis=1
        )
        if np.any(errors > 1e-6):
            worst = float(errors.max())
            raise ValueError(f"KAK reconstruction error too large: {worst:.3e}")
    return results


def kak_decompose_batch(
    unitaries: Sequence[np.ndarray], validate: bool = True
) -> List[KAKDecomposition]:
    """Decompose N two-qubit unitaries in vectorized linear-algebra calls.

    Semantically equivalent to ``[kak_decompose(u) for u in unitaries]`` —
    each returned :class:`KAKDecomposition` satisfies the same reconstruction
    bound and lands on the same Weyl-chamber representative — but the batch
    runs the dense numerics once over the deduplicated ``(N, 4, 4)`` stack.
    Exact-bytes duplicates share one decomposition object; an installed KAK
    cache (:func:`repro.linalg.weyl.install_kak_cache`) is consulted under
    the batch-specific key context ``("kak", "batch")``.
    """
    matrices = [np.ascontiguousarray(u, dtype=complex) for u in unitaries]
    for matrix in matrices:
        if matrix.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {matrix.shape}")
    _STATS["batches"] += 1
    _STATS["inputs"] += len(matrices)
    if not matrices:
        return []

    unique: Dict[bytes, List[int]] = {}
    for position, matrix in enumerate(matrices):
        unique.setdefault(matrix.tobytes(), []).append(position)
    _STATS["unique"] += len(unique)
    _STATS["interned"] += len(matrices) - len(unique)

    results: List[KAKDecomposition] = [None] * len(matrices)  # type: ignore[list-item]
    cache = _weyl.installed_kak_cache()
    pending: List[tuple] = []  # (cache_key, member positions)
    if cache is not None:
        from repro.service.cache import unitary_fingerprint

        for positions in unique.values():
            matrix = matrices[positions[0]]
            cache_key = unitary_fingerprint(matrix, "kak", "batch")
            cached = cache.get(cache_key)
            if cached is not None:
                if validate and cached.reconstruction_error(matrix) > 1e-6:
                    raise ValueError("cached KAK reconstruction error too large")
                _STATS["cache_hits"] += 1
                for position in positions:
                    results[position] = cached
            else:
                pending.append((cache_key, positions))
    else:
        pending = [(None, positions) for positions in unique.values()]

    if pending:
        stack = np.stack([matrices[positions[0]] for _, positions in pending])
        decompositions = _kak_decompose_stack(stack, validate)
        for (cache_key, positions), decomposition in zip(pending, decompositions):
            if cache is not None and cache_key is not None:
                cache.put(cache_key, decomposition)
            for position in positions:
                results[position] = decomposition
    return results
