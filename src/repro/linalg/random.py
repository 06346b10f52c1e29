"""Haar-random sampling utilities.

Used by the microarchitecture benchmarks (average pulse duration over
Haar-random SU(4) targets, Table 3) and by the property-based tests.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def haar_random_unitary(dim: int, rng: RngLike = None) -> np.ndarray:
    """Sample a Haar-random ``dim x dim`` unitary via QR of a Ginibre matrix."""
    generator = _as_rng(rng)
    ginibre = generator.normal(size=(dim, dim)) + 1j * generator.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    # Normalize phases so the distribution is exactly Haar.
    diag = np.diag(r)
    phases = diag / np.abs(diag)
    return q * phases


def haar_random_su2(rng: RngLike = None) -> np.ndarray:
    """Sample a Haar-random SU(2) matrix."""
    unitary = haar_random_unitary(2, rng)
    det = np.linalg.det(unitary)
    return unitary / np.sqrt(det)


def haar_random_su4(rng: RngLike = None) -> np.ndarray:
    """Sample a Haar-random SU(4) matrix."""
    unitary = haar_random_unitary(4, rng)
    det = np.linalg.det(unitary)
    return unitary * det ** (-0.25)


def haar_random_state(num_qubits: int, rng: RngLike = None) -> np.ndarray:
    """Sample a Haar-random pure state on ``num_qubits`` qubits."""
    generator = _as_rng(rng)
    dim = 2**num_qubits
    vec = generator.normal(size=dim) + 1j * generator.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_hermitian(dim: int, rng: RngLike = None, scale: float = 1.0) -> np.ndarray:
    """Sample a random Hermitian matrix with Gaussian entries."""
    generator = _as_rng(rng)
    mat = generator.normal(size=(dim, dim)) + 1j * generator.normal(size=(dim, dim))
    return scale * (mat + mat.conj().T) / 2.0


def random_coupling_coefficients(
    rng: RngLike = None, strength: float = 1.0
) -> Tuple[float, float, float]:
    """Sample random canonical coupling coefficients ``a >= b >= |c| > 0``.

    The coefficients are normalized so that the coupling strength
    ``g = a + b + |c|`` equals ``strength`` (Eq. (3) of the paper), which
    makes durations comparable across sampled Hamiltonians.
    """
    generator = _as_rng(rng)
    while True:
        raw = generator.uniform(0.05, 1.0, size=3)
        sign = generator.choice([-1.0, 1.0])
        a, b, c = sorted(raw, reverse=True)
        c *= sign
        if a >= b >= abs(c) and a > 0:
            g = a + b + abs(c)
            factor = strength / g
            return float(a * factor), float(b * factor), float(c * factor)


def random_weyl_coordinates(rng: RngLike = None) -> Tuple[float, float, float]:
    """Sample coordinates uniformly from the Weyl chamber
    ``pi/4 >= x >= y >= |z|`` (with ``z >= 0`` when ``x == pi/4``)."""
    generator = _as_rng(rng)
    while True:
        x = generator.uniform(0.0, np.pi / 4.0)
        y = generator.uniform(0.0, np.pi / 4.0)
        z = generator.uniform(-np.pi / 4.0, np.pi / 4.0)
        if x >= y >= abs(z):
            return float(x), float(y), float(z)
