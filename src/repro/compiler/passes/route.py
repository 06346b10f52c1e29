"""Routing as a first-class pipeline pass.

Historically routing was special-cased outside the :class:`PassManager`
(each compiler called :class:`~repro.compiler.routing.sabre.SabreRouter` by
hand between two pass-manager runs).  Wrapping it as a
:class:`~repro.compiler.passes.base.CompilerPass` lets declarative
:class:`~repro.target.pipeline.PipelineSpec` stages express the whole
pipeline — including hardware-aware stages — as one ordered list.

The pass hands the shared :class:`~repro.ir.CircuitIR`'s cached CSR
:class:`~repro.circuits.depgraph.DependencyGraph` straight to
:meth:`SabreRouter.run_graph` (no re-derivation from a flat gate list), and
adopts the routed program back into the same IR object.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.compiler.passes.base import CompilerPass
from repro.compiler.routing.coupling_map import CouplingMap
from repro.compiler.routing.noise import compare_routing_strategies
from repro.compiler.routing.sabre import SabreRouter
from repro.ir import CircuitIR

__all__ = ["SabreRoutingPass"]


class SabreRoutingPass(CompilerPass):
    """Map the circuit onto a device topology with (mirroring-)SABRE.

    Writes ``initial_layout``, ``final_layout``, ``inserted_swaps`` and
    ``absorbed_swaps`` into the property set.  With no coupling map the pass
    is a no-op, so topology-free targets can share the same pipeline spec.
    """

    name = "sabre_route"

    def __init__(
        self,
        coupling_map: Optional[CouplingMap],
        mirroring: bool = True,
        seed: int = 0,
        lookahead_size: int = 20,
        lookahead_weight: float = 0.5,
        noise_aware: bool = False,
        calibration=None,
    ) -> None:
        self.coupling_map = coupling_map
        self.mirroring = mirroring
        self.seed = seed
        self.lookahead_size = lookahead_size
        self.lookahead_weight = lookahead_weight
        # Noise-aware routing is a strict opt-in: with the default False the
        # pass is byte-identical to the pre-calibration
        # behaviour.  When enabled it routes with BOTH the calibration-
        # weighted scorer and the distance-only one and keeps whichever
        # estimated fidelity is higher (see docs/noise.md), so it can never
        # score worse than the baseline.
        self.noise_aware = noise_aware
        self.calibration = calibration
        if noise_aware and calibration is None:
            raise ValueError("noise_aware routing needs a calibrated target")

    def run(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        if self.coupling_map is None:
            return
        if self.noise_aware:
            self._run_noise_aware(ir, properties)
            return
        router = SabreRouter(
            self.coupling_map,
            mirroring=self.mirroring,
            lookahead_size=self.lookahead_size,
            lookahead_weight=self.lookahead_weight,
            seed=self.seed,
        )
        routing = router.run_graph(ir.dependency_graph(), name=ir.name)
        properties["initial_layout"] = routing.initial_layout
        properties["final_layout"] = routing.final_layout
        properties["inserted_swaps"] = routing.inserted_swaps
        properties["absorbed_swaps"] = routing.absorbed_swaps
        ir.adopt(routing.circuit)

    def _run_noise_aware(self, ir: CircuitIR, properties: Dict[str, Any]) -> None:
        # The pass carries the target's coupling map and calibration, which
        # is all the portfolio reads of a target.
        comparison = compare_routing_strategies(
            ir.dependency_graph(),
            self,
            mirroring=self.mirroring,
            seed=self.seed,
            lookahead_size=self.lookahead_size,
            lookahead_weight=self.lookahead_weight,
            name=ir.name,
        )
        routing = comparison.chosen
        properties["initial_layout"] = routing.initial_layout
        properties["final_layout"] = routing.final_layout
        properties["inserted_swaps"] = routing.inserted_swaps
        properties["absorbed_swaps"] = routing.absorbed_swaps
        properties["routing_strategy"] = comparison.strategy
        properties["estimated_log_fidelity"] = max(
            comparison.noise_log_fidelity, comparison.distance_log_fidelity
        )
        properties["noise_log_fidelity"] = comparison.noise_log_fidelity
        properties["distance_log_fidelity"] = comparison.distance_log_fidelity
        ir.adopt(routing.circuit)
