"""Calibration-weighted SABRE scoring: the noise-aware routing model.

Distance-only SABRE treats every coupling edge as equally good.  On a real
device they are not: two-qubit error rates routinely spread over an order of
magnitude across edges, and gate durations vary with the pair.  This module
turns a :class:`~repro.microarch.calibration.CalibrationData` into the two
integer tables the stall scorer consumes:

* ``distance`` — an all-pairs shortest-path matrix over *weighted* edges,
  where edge ``e`` costs ``w_e = -log1p(-error_e) + duration_weight *
  (duration_e / mean_duration)``.  The weights are normalized by their mean
  and quantized to int64 as ``round(norm_e * SCALE)``, then closed under
  min-plus (Floyd-Warshall), so the scorer's integer sums stay exact in both
  the numpy and C backends.
* ``swap_penalty`` — a per-edge surcharge ``round(swap_bias * (norm_e -
  norm_min) * SCALE)`` added to a candidate's cost (never to the pre-SWAP
  base cost), steering SWAP insertion itself away from the worst edges.

**Exact uniform reduction.**  ``SCALE`` is a power of two (``1 << 20``).
Under a *uniform* calibration every normalized weight is ``1.0`` and every
quantized weight is exactly ``SCALE``, so the weighted distance matrix is
exactly ``SCALE`` times the hop-count matrix and every penalty is exactly
zero.  Every float cost the scorer computes is then exactly ``SCALE`` times
the distance-only cost — scaling by a power of two commutes with IEEE-754
rounding — so every ``argmin`` / stable ``argsort`` / ``cost < base_cost``
decision is identical and the routed output is **bit-identical** to
distance-only routing (property-tested on both kernel backends).

The portfolio entry point :func:`compare_routing_strategies` routes a
circuit both ways, scores each result with the calibration's estimated log
fidelity, and keeps the better one — so noise-aware compilation can never
produce a lower estimated fidelity than the distance-only baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SCALE",
    "NoiseRoutingModel",
    "StrategyComparison",
    "build_noise_model",
    "compare_routing_strategies",
    "estimated_log_fidelity",
]

#: Quantization scale for normalized edge weights.  A power of two, so the
#: uniform-calibration cost surface is an exact power-of-two multiple of the
#: distance-only one (see the module docstring).
SCALE = 1 << 20

#: Unreachable sentinel for the min-plus closure: far above any real path
#: weight (<= ~2**36) yet safe to add to itself in int64.
_INF = 1 << 40


@dataclass(frozen=True)
class NoiseRoutingModel:
    """Integer tables driving calibration-weighted stall scoring."""

    #: (n, n) int64 weighted shortest-path matrix (quantized, min-plus closed).
    distance: np.ndarray
    #: (num_edges,) int64 per-candidate SWAP surcharge, aligned with the
    #: coupling map's lexicographic edge ids.
    swap_penalty: np.ndarray

    @property
    def num_qubits(self) -> int:
        return int(self.distance.shape[0])


def build_noise_model(
    coupling_map,
    calibration,
    duration_weight: float = 0.0,
    swap_bias: float = 0.4,
) -> NoiseRoutingModel:
    """Quantized weighted-distance tables for ``calibration`` on ``coupling_map``.

    ``duration_weight`` sets how much a slow edge costs relative to a lossy
    one; ``swap_bias`` scales the extra surcharge a candidate SWAP pays for
    sitting on a worse-than-best edge.  The surcharge competes with the
    *front-averaged* distance term, so a large bias can make every
    distance-reducing SWAP look worse than oscillating on the cheapest edge
    — keep it well below 1 (the portfolio caller also falls back to the
    distance-only result if the weighted router fails to converge).
    """
    calibration.validate_against(coupling_map)
    edge_array = coupling_map.edge_array()
    num_edges = edge_array.shape[0]
    n = coupling_map.num_qubits

    errors = np.empty(num_edges, dtype=np.float64)
    durations = np.empty(num_edges, dtype=np.float64)
    for index in range(num_edges):
        entry = calibration.edge(int(edge_array[index, 0]), int(edge_array[index, 1]))
        errors[index] = entry.error
        durations[index] = entry.duration
    duration_ref = float(durations.mean()) if durations.size else 1.0
    if duration_ref <= 0.0:
        duration_ref = 1.0
    weights = -np.log1p(-errors) + duration_weight * (durations / duration_ref)
    mean_weight = float(weights.mean()) if weights.size else 1.0
    if mean_weight <= 0.0:
        # A degenerate all-zero calibration still needs positive edge costs
        # for the shortest-path closure to mean anything.
        normalized = np.ones_like(weights)
    else:
        normalized = weights / mean_weight
    quantized = np.rint(normalized * SCALE).astype(np.int64)
    # Zero-weight edges would make distinct layouts tie at distance 0; keep
    # every hop strictly positive.
    np.maximum(quantized, 1, out=quantized)
    min_norm = float(normalized.min()) if normalized.size else 0.0
    penalty = np.rint(swap_bias * (normalized - min_norm) * SCALE)
    swap_penalty = penalty.astype(np.int64)

    distance = np.full((n, n), _INF, dtype=np.int64)
    np.fill_diagonal(distance, 0)
    for index in range(num_edges):
        a = int(edge_array[index, 0])
        b = int(edge_array[index, 1])
        weight = int(quantized[index])
        if weight < distance[a, b]:
            distance[a, b] = weight
            distance[b, a] = weight
    for k in range(n):
        np.minimum(
            distance, distance[:, k, None] + distance[None, k, :], out=distance
        )
    distance = np.ascontiguousarray(distance)
    distance.setflags(write=False)
    swap_penalty.setflags(write=False)
    return NoiseRoutingModel(distance=distance, swap_penalty=swap_penalty)


def estimated_log_fidelity(circuit, calibration) -> float:
    """Log estimated fidelity of a *routed* (physical-wire) circuit."""
    return calibration.estimated_log_fidelity(circuit)


@dataclass(frozen=True)
class StrategyComparison:
    """Outcome of routing one circuit with and without the noise model."""

    #: The kept routing result (the higher estimated-fidelity one).
    chosen: "RoutingResult"
    #: ``"noise"`` or ``"distance"`` — which strategy produced ``chosen``.
    strategy: str
    noise_log_fidelity: float
    distance_log_fidelity: float
    noise_result: "RoutingResult"
    distance_result: "RoutingResult"

    @property
    def improvement(self) -> float:
        """Fidelity ratio chosen/distance-only (>= 1 by construction)."""
        chosen_log = max(self.noise_log_fidelity, self.distance_log_fidelity)
        return float(np.exp(chosen_log - self.distance_log_fidelity))


def compare_routing_strategies(
    graph,
    target,
    mirroring: bool = True,
    seed: int = 0,
    lookahead_size: int = 20,
    lookahead_weight: float = 0.5,
    initial_layout=None,
    name: str = "circuit",
    duration_weight: float = 0.0,
    swap_bias: float = 0.4,
) -> StrategyComparison:
    """Route ``graph`` with both strategies and keep the better one.

    ``graph`` is a :class:`~repro.circuits.depgraph.DependencyGraph` (the IR
    pipeline's native currency).  The noise result wins ties, so a uniform
    calibration — where both routings are bit-identical — reports the
    ``"noise"`` strategy with improvement exactly 1.0.
    """
    from repro.compiler.routing.sabre import SabreRouter

    if target.calibration is None or target.coupling_map is None:
        raise ValueError("compare_routing_strategies needs a calibrated target")
    noise_model = target.calibration.routing_model(
        target.coupling_map, duration_weight=duration_weight, swap_bias=swap_bias
    )
    common = dict(
        mirroring=mirroring,
        lookahead_size=lookahead_size,
        lookahead_weight=lookahead_weight,
        seed=seed,
    )
    distance_router = SabreRouter(target.coupling_map, **common)
    noise_router = SabreRouter(target.coupling_map, noise_model=noise_model, **common)
    distance_result = distance_router.run_graph(
        graph, initial_layout=initial_layout, name=name
    )
    try:
        noise_result = noise_router.run_graph(
            graph, initial_layout=initial_layout, name=name
        )
    except RuntimeError:
        # The surcharge landscape failed to converge on this program; the
        # distance-only result is always available as the floor.
        noise_result = distance_result
    distance_log = target.calibration.estimated_log_fidelity(distance_result.circuit)
    noise_log = target.calibration.estimated_log_fidelity(noise_result.circuit)
    if noise_log >= distance_log:
        chosen, strategy = noise_result, "noise"
    else:
        chosen, strategy = distance_result, "distance"
    return StrategyComparison(
        chosen=chosen,
        strategy=strategy,
        noise_log_fidelity=noise_log,
        distance_log_fidelity=distance_log,
        noise_result=noise_result,
        distance_result=distance_result,
    )
