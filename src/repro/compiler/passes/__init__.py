"""Compilation passes of the Regulus compiler."""

from repro.compiler.passes.base import CompilerPass, PassManager
from repro.compiler.passes.decompose import (
    DecomposeToCnotPass,
    decompose_to_cnot,
    lower_high_level_gates,
)
from repro.compiler.passes.peephole import PeepholeOptimizationPass
from repro.compiler.passes.fuse import Fuse2QBlocksPass
from repro.compiler.passes.template_synthesis import TemplateSynthesisPass
from repro.compiler.passes.hierarchical import (
    HierarchicalSynthesisPass,
    compactness,
    dag_compacting,
    partition_into_blocks,
)
from repro.compiler.passes.mirror import MirrorNearIdentityPass
from repro.compiler.passes.finalize import FinalizeToCanPass
from repro.compiler.passes.route import SabreRoutingPass
from repro.compiler.passes.schedule import GateSlot, Schedule, SchedulingPass, asap_schedule

__all__ = [
    "CompilerPass",
    "PassManager",
    "DecomposeToCnotPass",
    "decompose_to_cnot",
    "lower_high_level_gates",
    "PeepholeOptimizationPass",
    "Fuse2QBlocksPass",
    "TemplateSynthesisPass",
    "HierarchicalSynthesisPass",
    "compactness",
    "dag_compacting",
    "partition_into_blocks",
    "MirrorNearIdentityPass",
    "FinalizeToCanPass",
    "SabreRoutingPass",
    "GateSlot",
    "Schedule",
    "SchedulingPass",
    "asap_schedule",
]
