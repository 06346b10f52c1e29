"""Canonical (KAK) decomposition, Weyl-chamber geometry and local invariants.

Every two-qubit unitary ``U`` can be written (Eq. (1) of the paper) as::

    U = g * (V1 (x) V2) @ Can(x, y, z) @ (V3 (x) V4)

with ``Can(x, y, z) = exp(-i (x XX + y YY + z ZZ))`` and the canonical
coordinate ``(x, y, z)`` confined to the Weyl chamber::

    W = { pi/4 >= x >= y >= |z|,  z >= 0 if x == pi/4 }

This module provides:

* :func:`canonical_gate` — build ``Can(x, y, z)`` analytically (magic basis).
* :func:`kak_decompose` — full numerical KAK decomposition with local gates.
* :func:`weyl_coordinates` — canonical coordinates of any 4x4 unitary.
* :func:`canonicalize_coordinates` — fold an arbitrary coordinate triple into
  the Weyl chamber.
* :func:`mirror_coordinates` — the gate-mirroring rule of Section 4.3.
* :func:`makhlin_invariants` / :func:`local_equivalence_distance` — smooth
  local invariants used for verification of the microarchitecture solvers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.linalg.constants import AXIS_SWAP, COORD_TO_PHASE, MAGIC_BASIS, MAGIC_BASIS_DAG, PAULIS

__all__ = [
    "KAKDecomposition",
    "canonical_gate",
    "canonicalize_coordinates",
    "install_kak_cache",
    "installed_kak_cache",
    "kak_decompose",
    "kak_decompose_batch",
    "local_equivalence_distance",
    "makhlin_invariants",
    "mirror_coordinates",
    "weyl_coordinates",
    "weyl_distance",
]

PI_2 = math.pi / 2.0
PI_4 = math.pi / 4.0

# Tolerance for chamber-boundary decisions.  Chosen larger than raw machine
# noise so that gates lying exactly on a boundary (CNOT, SWAP, ...) are not
# bounced between equivalent representatives by round-off.
_BOUNDARY_TOL = 1e-9

# ---------------------------------------------------------------------------
# Optional synthesis-cache hook.
#
# The KAK decomposition is the hottest synthesis kernel in the compiler: the
# finalization pass runs it once per fused SU(4) block, and identical blocks
# recur across (and within) benchmark programs.  The service layer
# (:mod:`repro.service`) can install a content-addressed cache here; keys are
# the exact matrix bytes, so a cached decomposition is bit-identical to a
# fresh one.  ``None`` (the default) keeps this module dependency-free.
# ---------------------------------------------------------------------------

_KAK_CACHE = None


def install_kak_cache(cache):
    """Install a process-global cache consulted by :func:`kak_decompose`.

    ``cache`` must provide ``get(key)``/``put(key, value)`` keyed by strings
    (a :class:`repro.service.cache.SynthesisCache` does); ``None`` uninstalls.
    Returns the previously installed cache so callers can restore it.
    """
    global _KAK_CACHE
    previous = _KAK_CACHE
    _KAK_CACHE = cache
    return previous


def installed_kak_cache():
    """The currently installed KAK cache (``None`` when caching is off)."""
    return _KAK_CACHE


def canonical_gate(x: float, y: float, z: float) -> np.ndarray:
    """Return ``Can(x, y, z) = exp(-i (x XX + y YY + z ZZ))``.

    Computed analytically in the magic basis, where the generator is
    diagonal, so no matrix exponential is required.
    """
    phases = COORD_TO_PHASE @ np.array([x, y, z], dtype=float)
    diag = np.exp(-1j * phases)
    return MAGIC_BASIS @ (diag[:, None] * MAGIC_BASIS_DAG)


def makhlin_invariants(unitary: np.ndarray) -> Tuple[complex, float]:
    """Makhlin local invariants ``(G1, G2)`` of a two-qubit unitary.

    Two unitaries are locally equivalent iff their invariants coincide.
    The invariants are smooth in the matrix entries, which makes them the
    preferred objective for numerical solvers (unlike Weyl coordinates,
    which fold at chamber boundaries).
    """
    unitary = np.asarray(unitary, dtype=complex)
    det = np.linalg.det(unitary)
    u_su = unitary * det ** (-0.25)
    um = MAGIC_BASIS_DAG @ u_su @ MAGIC_BASIS
    m = um.T @ um
    tr = np.trace(m)
    g1 = tr**2 / 16.0
    g2 = float(np.real((tr**2 - np.trace(m @ m)) / 4.0))
    return complex(g1), g2


def local_equivalence_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance between the local-equivalence classes of ``u`` and ``v``.

    Zero iff the two gates are locally equivalent; computed from the Makhlin
    invariants so it is insensitive to 1Q rotations and global phases.  The
    determinant fourth-root branch can differ between the two gates, so the
    best match over the four branch phases is used.
    """
    g1_u, g2_u = makhlin_invariants(u)
    g1_v, g2_v = makhlin_invariants(v)
    best = math.inf
    # G1 picks up a factor i**(2k) = (+/-1) and G2 a (+/-1) under the det
    # branch ambiguity; account for it by comparing against both signs.
    for sign in (1.0, -1.0):
        dist = abs(g1_u - sign * g1_v) + abs(g2_u - sign * g2_v)
        best = min(best, dist)
    return best


def weyl_distance(coords_a: Sequence[float], coords_b: Sequence[float]) -> float:
    """Euclidean distance between two (canonicalized) Weyl coordinates."""
    a = np.asarray(canonicalize_coordinates(*coords_a))
    b = np.asarray(canonicalize_coordinates(*coords_b))
    return float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# Tensor-product factorization of local (SU(2) x SU(2)) unitaries.
# ---------------------------------------------------------------------------


def decompose_tensor_product(
    matrix: np.ndarray, atol: float = 1e-6
) -> Tuple[complex, np.ndarray, np.ndarray]:
    """Factor a 4x4 matrix into ``phase * (a (x) b)`` with ``a, b`` in SU(2).

    Raises ``ValueError`` when the matrix is not a tensor product within
    ``atol`` (measured by the residual of the rank-1 approximation of the
    rearranged matrix).
    """
    matrix = np.asarray(matrix, dtype=complex)
    rearranged = matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(rearranged)
    if s[1] > max(atol, 1e-7) * max(s[0], 1.0):
        raise ValueError(
            "matrix is not a tensor product of single-qubit operators "
            f"(second singular value {s[1]:.3e})"
        )
    a = (u[:, 0] * math.sqrt(s[0])).reshape(2, 2)
    b = (vh[0, :] * math.sqrt(s[0])).reshape(2, 2)
    # Normalize each factor into SU(2).
    det_a = np.linalg.det(a)
    det_b = np.linalg.det(b)
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        raise ValueError("degenerate tensor-product factor")
    a = a / np.sqrt(det_a)
    b = b / np.sqrt(det_b)
    kron = np.kron(a, b)
    phase = np.trace(kron.conj().T @ matrix) / 4.0
    norm = abs(phase)
    if norm < 1e-12:
        raise ValueError("tensor-product phase could not be determined")
    phase = phase / norm
    return complex(phase), a, b


# ---------------------------------------------------------------------------
# KAK decomposition.
# ---------------------------------------------------------------------------


@dataclass
class KAKDecomposition:
    """Result of a canonical decomposition.

    ``unitary = global_phase * (l1 (x) l2) @ Can(x, y, z) @ (r1 (x) r2)``
    with ``(x, y, z)`` inside the Weyl chamber.
    """

    global_phase: complex
    l1: np.ndarray
    l2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    x: float
    y: float
    z: float

    @property
    def coordinates(self) -> Tuple[float, float, float]:
        """Canonical Weyl coordinates as a tuple."""
        return (self.x, self.y, self.z)

    def canonical_matrix(self) -> np.ndarray:
        """The canonical gate ``Can(x, y, z)`` of this decomposition."""
        return canonical_gate(self.x, self.y, self.z)

    def unitary(self) -> np.ndarray:
        """Reconstruct the original unitary from the decomposition."""
        left = np.kron(self.l1, self.l2)
        right = np.kron(self.r1, self.r2)
        return self.global_phase * (left @ self.canonical_matrix() @ right)

    def reconstruction_error(self, original: np.ndarray) -> float:
        """Frobenius-norm error between ``original`` and the reconstruction."""
        return float(np.linalg.norm(self.unitary() - np.asarray(original)))


class _DecompositionRecord:
    """Mutable record used while canonicalizing a raw KAK decomposition."""

    def __init__(
        self,
        phase: complex,
        l1: np.ndarray,
        l2: np.ndarray,
        coords: np.ndarray,
        r1: np.ndarray,
        r2: np.ndarray,
    ) -> None:
        self.phase = phase
        self.l1 = l1
        self.l2 = l2
        self.coords = np.array(coords, dtype=float)
        self.r1 = r1
        self.r2 = r2

    def shift(self, axis: int, direction: int) -> None:
        """Shift coordinate ``axis`` by ``direction * pi/2``."""
        pauli = PAULIS[axis]
        self.coords[axis] += direction * PI_2
        self.phase *= 1j if direction > 0 else -1j
        self.r1 = pauli @ self.r1
        self.r2 = pauli @ self.r2

    def flip_pair(self, axis_a: int, axis_b: int) -> None:
        """Flip the signs of two coordinates simultaneously."""
        remaining = ({0, 1, 2} - {axis_a, axis_b}).pop()
        pauli = PAULIS[remaining]
        self.coords[axis_a] *= -1.0
        self.coords[axis_b] *= -1.0
        self.l1 = self.l1 @ pauli
        self.r1 = pauli @ self.r1

    def swap_axes(self, axis_a: int, axis_b: int) -> None:
        """Exchange two coordinates."""
        key = (min(axis_a, axis_b), max(axis_a, axis_b))
        clifford = AXIS_SWAP[key]
        self.coords[[axis_a, axis_b]] = self.coords[[axis_b, axis_a]]
        self.l1 = self.l1 @ clifford
        self.l2 = self.l2 @ clifford
        self.r1 = clifford @ self.r1
        self.r2 = clifford @ self.r2


def _canonicalize_record(record: _DecompositionRecord) -> None:
    """Bring the coordinates of ``record`` into the Weyl chamber in place."""
    coords = record.coords
    # Step 1: fold each coordinate into (-pi/4, pi/4].
    for axis in range(3):
        while coords[axis] > PI_4 + _BOUNDARY_TOL:
            record.shift(axis, -1)
        while coords[axis] <= -PI_4 + _BOUNDARY_TOL:
            record.shift(axis, +1)
    # Step 2: sort by decreasing absolute value (bubble sort over 3 entries).
    for _ in range(3):
        for axis in range(2):
            if abs(coords[axis]) < abs(coords[axis + 1]) - 1e-15:
                record.swap_axes(axis, axis + 1)
    # Step 3: make the two largest coordinates non-negative (signs can only be
    # flipped in pairs).
    if coords[0] < -_BOUNDARY_TOL and coords[1] < -_BOUNDARY_TOL:
        record.flip_pair(0, 1)
    elif coords[0] < -_BOUNDARY_TOL:
        record.flip_pair(0, 2)
    elif coords[1] < -_BOUNDARY_TOL:
        record.flip_pair(1, 2)
    # Step 4: boundary rule - when x == pi/4 the representative with z >= 0 is
    # chosen (the two are related by the mirror symmetry of the chamber).
    if abs(coords[0] - PI_4) < _BOUNDARY_TOL and coords[2] < -_BOUNDARY_TOL:
        record.flip_pair(0, 2)
        record.shift(0, +1)
        # Re-sort in case |z| == y ordering was disturbed (it is not, since
        # absolute values are untouched, but keep the invariant explicit).
        if abs(coords[1]) < abs(coords[2]) - 1e-15:
            record.swap_axes(1, 2)


def canonicalize_coordinates(
    x: float, y: float, z: float
) -> Tuple[float, float, float]:
    """Fold an arbitrary coordinate triple into the Weyl chamber.

    Only the coordinates are returned; use :func:`kak_decompose` when the
    accompanying local gates are needed.
    """
    identity = np.eye(2, dtype=complex)
    record = _DecompositionRecord(1.0 + 0.0j, identity, identity, [x, y, z], identity, identity)
    _canonicalize_record(record)
    # Snap values that are within tolerance of chamber landmarks to avoid
    # noise like -1e-17 for the z coordinate of CNOT-class gates.
    def _snap(value: float) -> float:
        for landmark in (0.0, PI_4, -PI_4, PI_4 / 2.0):
            if abs(value - landmark) < 1e-12:
                return landmark
        return float(value)

    coords = [_snap(value) for value in record.coords]
    # The record folds with a tolerance band, so a coordinate within it of a
    # chamber face can keep a sign, an order or an excess of up to
    # ``_BOUNDARY_TOL`` (e.g. ``(0, 0, -4e-11)`` leaves ``x = -4e-11 < y``).
    # Settle those with the same symmetries, applied exactly: a pi/2 shift of
    # one coordinate, permutations, paired sign flips and, at x = pi/4, the
    # mirror ``(x, y, z) -> (pi/2 - x, y, -z)``.
    coords = [value - 2.0 * PI_4 if value > PI_4 else value for value in coords]
    cx, cy, cz = sorted(coords, key=abs, reverse=True)
    if cx < 0.0 and cy < 0.0:
        cx, cy = -cx, -cy
    elif cx < 0.0:
        cx, cz = -cx, -cz
    elif cy < 0.0:
        cy, cz = -cy, -cz
    if cx == PI_4 and cz < 0.0:
        cz = -cz
    return cx + 0.0, cy + 0.0, cz + 0.0  # + 0.0 turns a flipped -0.0 into 0.0


def _simultaneously_diagonalize(m2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Find a real orthogonal ``P`` diagonalizing the unitary symmetric ``m2``.

    ``Re(m2)`` and ``Im(m2)`` are commuting real symmetric matrices; a random
    real linear combination generically separates every eigenspace.  A small
    number of retries handles the measure-zero unlucky draws.
    """
    real = np.real(m2)
    imag = np.imag(m2)
    for attempt in range(24):
        angle = rng.uniform(0.0, math.pi) if attempt else 0.61803398875
        mix = math.cos(angle) * real + math.sin(angle) * imag
        _, p = np.linalg.eigh(mix)
        diag = p.T @ m2 @ p
        off = diag - np.diag(np.diag(diag))
        if np.max(np.abs(off)) < 1e-9:
            if np.linalg.det(p) < 0:
                p = p.copy()
                p[:, 0] = -p[:, 0]
            return p
    raise np.linalg.LinAlgError("failed to simultaneously diagonalize magic-basis matrix")


def _phases_to_coordinates(thetas: np.ndarray) -> np.ndarray:
    """Solve ``COORD_TO_PHASE @ v = -thetas (mod 2 pi)`` for ``v``.

    The system is consistent whenever ``sum(thetas) = 0 (mod 2 pi)`` (the
    determinant-1 condition), which the caller guarantees.
    """
    for offsets in itertools.product((0, 1, -1, 2, -2), repeat=3):
        target = -thetas.copy()
        target[:3] += 2.0 * math.pi * np.array(offsets)
        solution, residual, _, _ = np.linalg.lstsq(COORD_TO_PHASE, target, rcond=None)
        reconstructed = COORD_TO_PHASE @ solution
        mismatch = np.exp(-1j * reconstructed) - np.exp(1j * thetas)
        if np.max(np.abs(mismatch)) < 1e-9:
            return solution
    raise np.linalg.LinAlgError("could not map magic-basis phases to canonical coordinates")


def kak_decompose(unitary: np.ndarray, validate: bool = True) -> KAKDecomposition:
    """Full canonical (KAK) decomposition of a two-qubit unitary.

    Parameters
    ----------
    unitary:
        A 4x4 unitary matrix.
    validate:
        When True (default) the reconstruction is checked against the input
        and a ``ValueError`` is raised if the error exceeds ``1e-6``.

    Returns
    -------
    KAKDecomposition
        With coordinates inside the Weyl chamber and local gates in SU(2).
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {unitary.shape}")
    det = np.linalg.det(unitary)
    if abs(abs(det) - 1.0) > 1e-6:
        raise ValueError("matrix is not unitary (|det| != 1)")

    cache = _KAK_CACHE
    cache_key = None
    if cache is not None:
        from repro.service.cache import unitary_fingerprint

        cache_key = unitary_fingerprint(unitary, "kak")
        cached = cache.get(cache_key)
        if cached is not None:
            if validate:
                error = cached.reconstruction_error(unitary)
                if error > 1e-6:
                    raise ValueError(f"KAK reconstruction error too large: {error:.3e}")
            return cached

    det_root = det ** (-0.25)
    u_su = unitary * det_root
    global_phase = 1.0 / det_root

    um = MAGIC_BASIS_DAG @ u_su @ MAGIC_BASIS
    m2 = um.T @ um

    rng = np.random.default_rng(20260614)
    p = _simultaneously_diagonalize(m2, rng)
    d = np.diag(p.T @ m2 @ p)
    thetas = np.angle(d) / 2.0
    # Enforce sum(thetas) == 0 (mod 2 pi) so that K1 lands in SO(4).
    total = float(np.sum(thetas))
    residue = (total + math.pi) % (2.0 * math.pi) - math.pi
    if abs(residue) > 1e-6:
        # The residue is +/- pi: add pi to the phase with the smallest cosine
        # penalty (any index works, the branch is re-absorbed downstream).
        thetas[3] += math.pi if residue < 0 else -math.pi

    a_diag = np.exp(1j * thetas)
    k2 = p.T
    k1 = um @ p @ np.diag(a_diag.conj())
    if np.max(np.abs(np.imag(k1))) > 1e-6:
        raise np.linalg.LinAlgError("KAK factor K1 is not real orthogonal")
    k1 = np.real(k1)

    left_local = MAGIC_BASIS @ k1 @ MAGIC_BASIS_DAG
    right_local = MAGIC_BASIS @ k2 @ MAGIC_BASIS_DAG
    phase_left, l1, l2 = decompose_tensor_product(left_local)
    phase_right, r1, r2 = decompose_tensor_product(right_local)

    coords = _phases_to_coordinates(thetas)
    global_phase = global_phase * phase_left * phase_right

    record = _DecompositionRecord(global_phase, l1, l2, coords, r1, r2)
    _canonicalize_record(record)

    cx, cy, cz = record.coords
    result = KAKDecomposition(
        global_phase=complex(record.phase),
        l1=record.l1,
        l2=record.l2,
        r1=record.r1,
        r2=record.r2,
        x=float(cx),
        y=float(cy),
        z=float(cz),
    )
    if validate:
        error = result.reconstruction_error(unitary)
        if error > 1e-6:
            raise ValueError(f"KAK reconstruction error too large: {error:.3e}")
    if cache is not None and cache_key is not None:
        cache.put(cache_key, result)
    return result


def kak_decompose_batch(unitaries, validate: bool = True):
    """Batched :func:`kak_decompose` over a sequence of 4x4 unitaries.

    Delegates to :mod:`repro.kernels.kak_batch`, which runs the dense
    numerics as vectorized calls over the deduplicated stack (lazy import:
    the kernels layer depends on this module).  Returns a list of
    :class:`KAKDecomposition` aligned with ``unitaries``.
    """
    from repro.kernels.kak_batch import kak_decompose_batch as _batch

    return _batch(unitaries, validate=validate)


def weyl_coordinates(unitary: np.ndarray) -> Tuple[float, float, float]:
    """Canonical Weyl coordinates of a two-qubit unitary."""
    decomposition = kak_decompose(unitary, validate=False)
    return canonicalize_coordinates(*decomposition.coordinates)


def boundary_mirror_decomposition(decomposition: KAKDecomposition) -> KAKDecomposition:
    """Re-express a decomposition through the mirror representative.

    Returns an exactly equivalent decomposition with coordinates
    ``(pi/2 - x, y, -z)``.  The two representatives describe the same local
    equivalence class only on the ``x = pi/4`` boundary of the chamber; this
    helper exists so that callers can reconcile decompositions that landed on
    opposite sides of that boundary due to numerical round-off.
    """
    record = _DecompositionRecord(
        decomposition.global_phase,
        decomposition.l1,
        decomposition.l2,
        list(decomposition.coordinates),
        decomposition.r1,
        decomposition.r2,
    )
    record.flip_pair(0, 2)
    record.shift(0, +1)
    cx, cy, cz = record.coords
    return KAKDecomposition(
        global_phase=complex(record.phase),
        l1=record.l1,
        l2=record.l2,
        r1=record.r1,
        r2=record.r2,
        x=float(cx),
        y=float(cy),
        z=float(cz),
    )


# ---------------------------------------------------------------------------
# Gate mirroring (Section 4.3).
# ---------------------------------------------------------------------------


def mirror_coordinates(x: float, y: float, z: float) -> Tuple[float, float, float]:
    """Weyl coordinates of ``SWAP @ Can(x, y, z)`` (the "mirror" gate).

    Follows the rule of Section 4.3::

        SWAP * Can(x, y, z) ~ Can(pi/4 - z, pi/4 - y, x - pi/4)   if z >= 0
                              Can(pi/4 + z, pi/4 - y, pi/4 - x)   if z <  0

    The result is returned canonicalized (in particular the ``x = pi/4``
    boundary rule is applied), so it can be compared directly with
    :func:`weyl_coordinates`.
    """
    if z >= 0:
        raw = (PI_4 - z, PI_4 - y, x - PI_4)
    else:
        raw = (PI_4 + z, PI_4 - y, PI_4 - x)
    return canonicalize_coordinates(*raw)


def coordinate_norm(x: float, y: float, z: float, order: int = 1) -> float:
    """L1 (default) or L2 norm of a Weyl coordinate triple.

    Used to detect "near-identity" gates whose time-optimal implementation
    would require unbounded drive amplitudes (Section 4.3).
    """
    vec = np.array([x, y, z], dtype=float)
    if order == 1:
        return float(np.sum(np.abs(vec)))
    return float(np.linalg.norm(vec))


def is_near_identity(
    coords: Iterable[float], threshold: float = 0.15
) -> bool:
    """True when the coordinate triple lies in the near-identity region."""
    x, y, z = tuple(coords)
    return coordinate_norm(x, y, z, order=1) <= threshold
