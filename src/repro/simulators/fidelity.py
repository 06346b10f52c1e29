"""Fidelity measures between states and between probability distributions."""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

__all__ = ["state_fidelity", "hellinger_fidelity", "normalize_distribution"]

Distribution = Union[np.ndarray, Mapping[int, float]]


def state_fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Fidelity ``|<a|b>|^2`` between two pure states."""
    a = np.asarray(state_a, dtype=complex)
    b = np.asarray(state_b, dtype=complex)
    return float(np.abs(np.vdot(a, b)) ** 2)


def normalize_distribution(dist: Distribution, dim: int) -> np.ndarray:
    """Convert a counts dict / probability array into a normalized vector."""
    if isinstance(dist, Mapping):
        vec = np.zeros(dim, dtype=float)
        for key, value in dist.items():
            vec[int(key)] = float(value)
    else:
        vec = np.asarray(dist, dtype=float).copy()
        if vec.shape != (dim,):
            raise ValueError(f"distribution must have length {dim}")
    total = vec.sum()
    if total <= 0:
        raise ValueError("distribution has no weight")
    return vec / total


def hellinger_fidelity(dist_a: Distribution, dist_b: Distribution, dim: int = None) -> float:
    """Hellinger fidelity between two distributions.

    ``F_H = (sum_i sqrt(p_i q_i))^2`` — the program-fidelity metric used in the
    paper's noisy-simulation experiment (Section 6.7).
    """
    if dim is None:
        if isinstance(dist_a, Mapping) or isinstance(dist_b, Mapping):
            raise ValueError("dim is required when passing counts dictionaries")
        dim = len(dist_a)
    p = normalize_distribution(dist_a, dim)
    q = normalize_distribution(dist_b, dim)
    return float(np.sum(np.sqrt(p * q)) ** 2)
