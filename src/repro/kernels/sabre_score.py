"""SABRE stall scoring for the Python routing loop.

At every routing stall the ``REPRO_KERNELS=py`` loop of
:class:`~repro.compiler.routing.sabre.SabreRouter` evaluates the SWAP
heuristic for all candidate coupling edges at once.  That evaluation —
gather the physical front/lookahead pairs through the layout, collect the
incident candidate edges, compute the trial distance sums and the
decay-weighted costs — is a pure function of small integer arrays, packaged
here behind a narrow scorer interface:

``scorer(layout, pair_qubits, num_front, num_ext, lookahead_weight, decay)``
returns ``(ids, costs, base_cost)`` where ``ids`` is the ascending list of
candidate edge ids, ``costs`` the per-candidate heuristic costs (aligned
with ``ids``) and ``base_cost`` the pre-SWAP cost.  Candidate *selection*
(argmin / stable argsort + absorption) stays in the router's loop.

The native backend does not call this module: the whole step loop,
scoring included, runs in :mod:`repro.kernels._native`.  Only the
arithmetic is shared, and it is bit-identical: every sum is over small
integer distances (exact in both int64 numpy reductions and C ``int64_t``),
and the float arithmetic (``sum/F``, ``+ w*(sum/E)``, ``* max(decay)``) is
performed in the same order with the same IEEE-754 double operations.

Noise-aware scoring (see :mod:`repro.compiler.routing.noise`) reuses the
same arithmetic over a *weighted* int64 distance matrix and adds a per-edge
integer SWAP surcharge (``+ penalty[edge]``, applied after the lookahead
term and before the decay multiply, never to the base cost).  The penalty is
exact in both backends — an int64 cast to double below 2**53.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = ["make_sabre_scorer", "score_stall_py"]

#: Scorer signature: (layout, pair_qubits, num_front, num_ext,
#: lookahead_weight, decay) -> (ids, costs, base_cost)
Scorer = Callable[
    [np.ndarray, np.ndarray, int, int, float, np.ndarray],
    Tuple[List[int], Optional[np.ndarray], float],
]


def score_stall_py(
    layout: np.ndarray,
    pair_qubits: np.ndarray,
    num_front: int,
    num_ext: int,
    lookahead_weight: float,
    decay: np.ndarray,
    incident_edge_ids: List[List[int]],
    edge_array: np.ndarray,
    distance: np.ndarray,
    penalty: Optional[np.ndarray] = None,
) -> Tuple[List[int], Optional[np.ndarray], float]:
    """Pure-numpy stall scoring (the reference arithmetic, verbatim).

    This is the historical in-router implementation: candidate SWAPs are the
    coupling edges incident to a front physical qubit, as sorted edge ids
    (edge ids are assigned in lexicographic edge order, so sorted ids == the
    reference's lexicographically sorted edge list); every sum is over small
    integer distances, so the vectorized reductions are exact.
    """
    num_pairs = num_front + num_ext
    physical_pairs = layout[pair_qubits]  # (2P,): q0 block then q1 block
    candidate_ids = set()
    for physical in physical_pairs[:num_front].tolist():
        candidate_ids.update(incident_edge_ids[physical])
    for physical in physical_pairs[num_pairs : num_pairs + num_front].tolist():
        candidate_ids.update(incident_edge_ids[physical])
    ids = sorted(candidate_ids)
    if not ids:
        return ids, None, 0.0
    cand = edge_array[ids]
    cand_a = cand[:, :1]
    cand_b = cand[:, 1:]

    trial = np.where(
        physical_pairs == cand_a,
        cand_b,
        np.where(physical_pairs == cand_b, cand_a, physical_pairs),
    )  # (C, 2P) physical positions after each candidate SWAP
    trial_distance = distance[trial[:, :num_pairs], trial[:, num_pairs:]]
    base_distance = distance[physical_pairs[:num_pairs], physical_pairs[num_pairs:]]
    base_cost = base_distance[:num_front].sum() / num_front
    costs = trial_distance[:, :num_front].sum(axis=1) / num_front
    if num_ext:
        base_cost = base_cost + lookahead_weight * (
            base_distance[num_front:].sum() / num_ext
        )
        costs = costs + lookahead_weight * (
            trial_distance[:, num_front:].sum(axis=1) / num_ext
        )
    if penalty is not None:
        costs = costs + penalty[ids]
    costs = costs * decay[cand].max(axis=1)
    return ids, costs, float(base_cost)


def make_sabre_scorer(coupling_map, noise=None) -> Scorer:
    """Build the Python stall scorer bound to ``coupling_map``.

    ``noise`` (a :class:`~repro.compiler.routing.noise.NoiseRoutingModel`)
    swaps the hop-count matrix for the calibration-weighted one and adds the
    per-edge SWAP surcharge; ``None`` keeps the historical distance-only
    arithmetic byte-for-byte.
    """
    if noise is not None:
        distance = noise.distance
        penalty = noise.swap_penalty
    else:
        distance = coupling_map.distance_matrix()
        penalty = None
    edge_array = coupling_map.edge_array()
    incident_edge_ids = coupling_map.incident_edge_ids()

    def scorer(layout, pair_qubits, num_front, num_ext, lookahead_weight, decay):
        return score_stall_py(
            layout,
            pair_qubits,
            num_front,
            num_ext,
            lookahead_weight,
            decay,
            incident_edge_ids,
            edge_array,
            distance,
            penalty,
        )

    return scorer
