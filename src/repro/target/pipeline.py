"""Declarative pipeline API: pass registry and pipeline specs.

A :class:`PipelineSpec` is a named, ordered list of ``(pass_id, config)``
stages — pure data, buildable from dicts/JSON — and :data:`PASS_REGISTRY`
maps each pass id to a factory that instantiates the concrete
:class:`~repro.compiler.passes.base.CompilerPass` for a given
:class:`PassContext` (target + seed + synthesis cache).  The ReQISC
compilers and the baselines are named specs; see :func:`named_pipeline`.

Stage configs may hold arbitrary Python objects (e.g. a pre-built
``ApproximateSynthesizer``) for programmatic use; specs built from the named
presets are JSON-serializable.

Every factory returns a :class:`~repro.compiler.passes.base.CompilerPass`,
whose ``run(ir, properties)`` mutates the shared :class:`repro.ir.CircuitIR`;
the :class:`~repro.compiler.passes.base.PassManager` converts the program
once on entry and once on exit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.compiler.passes.base import CompilerPass

__all__ = [
    "PassContext",
    "PassRegistry",
    "PASS_REGISTRY",
    "PipelineStage",
    "PipelineSpec",
    "reqisc_pipeline",
    "cnot_baseline_pipeline",
    "su4_fusion_pipeline",
    "named_pipeline",
    "register_pipeline",
    "pipeline_names",
    "has_pipeline",
]


@dataclass
class PassContext:
    """Everything a pass factory may need besides its stage config."""

    target: Any  # repro.target.target.Target (typed loosely to avoid cycles)
    seed: int = 0
    synthesis_cache: Optional[Any] = None


class PassRegistry:
    """Registry mapping string pass ids to pass factories.

    A factory has signature ``factory(config, context) -> CompilerPass`` and
    is looked up by :func:`repro.target.api.compile` for every stage of a
    :class:`PipelineSpec`.  Third-party passes register themselves with::

        @PASS_REGISTRY.register("my_pass", description="...")
        def _build(config, context):
            return MyPass(**config)
    """

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[[Mapping[str, Any], PassContext], CompilerPass]] = {}
        self._descriptions: Dict[str, str] = {}

    def register(
        self,
        pass_id: str,
        factory: Optional[Callable[..., CompilerPass]] = None,
        description: str = "",
    ):
        """Register ``factory`` under ``pass_id`` (usable as a decorator)."""

        def _bind(fn: Callable[..., CompilerPass]) -> Callable[..., CompilerPass]:
            if pass_id in self._factories:
                raise KeyError(f"pass id {pass_id!r} is already registered")
            self._factories[pass_id] = fn
            self._descriptions[pass_id] = description or (fn.__doc__ or "").strip()
            return fn

        return _bind(factory) if factory is not None else _bind

    def create(
        self,
        stage: Union[str, "PipelineStage"],
        context: PassContext,
        config: Optional[Mapping[str, Any]] = None,
    ) -> CompilerPass:
        """Instantiate the pass for ``stage`` under ``context``."""
        if isinstance(stage, PipelineStage):
            pass_id, config = stage.pass_id, stage.config
        else:
            pass_id, config = stage, dict(config or {})
        try:
            factory = self._factories[pass_id]
        except KeyError:
            raise KeyError(
                f"unknown pass id {pass_id!r}; registered: {', '.join(sorted(self._factories))}"
            ) from None
        return factory(config, context)

    def available(self) -> Dict[str, str]:
        """Mapping of registered pass id to its description."""
        return dict(sorted(self._descriptions.items()))

    def __contains__(self, pass_id: str) -> bool:
        return pass_id in self._factories


#: The process-global registry holding the built-in Regulus passes.
PASS_REGISTRY = PassRegistry()


# ---------------------------------------------------------------------------
# Pipeline specs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineStage:
    """One ``(pass_id, config)`` step of a pipeline.

    ``requires_topology`` marks hardware-aware stages (routing and the
    physical re-optimization that follows it): they are skipped when the
    target has no coupling map, so one spec serves both logical and routed
    compilation.
    """

    pass_id: str
    config: Mapping[str, Any] = field(default_factory=dict)
    requires_topology: bool = False

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"pass": self.pass_id}
        if self.config:
            payload["config"] = dict(self.config)
        if self.requires_topology:
            payload["requires_topology"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PipelineStage":
        return cls(
            pass_id=str(payload["pass"]),
            config=dict(payload.get("config", {})),
            requires_topology=bool(payload.get("requires_topology", False)),
        )


@dataclass(frozen=True, eq=False)
class PipelineSpec:
    """A named, declarative compiler pipeline.

    ``isa`` is stamped into the property set before the first stage runs, so
    downstream metric code knows which duration model applies to the output.
    """

    name: str
    stages: Tuple[PipelineStage, ...] = ()
    isa: str = "su4"
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "isa": self.isa,
            "description": self.description,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PipelineSpec":
        return cls(
            name=str(payload["name"]),
            stages=tuple(PipelineStage.from_dict(s) for s in payload.get("stages", [])),
            isa=str(payload.get("isa", "su4")),
            description=str(payload.get("description", "")),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON form; only works when every stage config is JSON-able."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        stages = " -> ".join(stage.pass_id for stage in self.stages)
        return f"PipelineSpec({self.name} [{self.isa}]: {stages})"


# ---------------------------------------------------------------------------
# Built-in pass factories.  Imports are deferred into the factory bodies so
# importing ``repro.target`` stays cheap and cycle-free.
# ---------------------------------------------------------------------------


@PASS_REGISTRY.register(
    "template_synthesis",
    description="program-aware template-based synthesis (Section 5.2)",
)
def _make_template_synthesis(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.template_synthesis import TemplateSynthesisPass

    return TemplateSynthesisPass(library=config.get("library"), cache=context.synthesis_cache)


@PASS_REGISTRY.register(
    "hierarchical_synthesis",
    description="program-agnostic hierarchical synthesis with DAG compacting",
)
def _make_hierarchical_synthesis(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.hierarchical import HierarchicalSynthesisPass

    synthesizer = config.get("synthesizer")
    if synthesizer is None and "synthesizer_config" in config:
        from repro.synthesis.approximate import ApproximateSynthesizer

        options = dict(config["synthesizer_config"])
        options.setdefault("seed", context.seed)
        synthesizer = ApproximateSynthesizer(**options)
    return HierarchicalSynthesisPass(
        block_size=config.get("block_size", 3),
        threshold=config.get("threshold", 4),
        tolerance=config.get("tolerance", 1e-6),
        enable_dag_compacting=config.get("enable_dag_compacting", True),
        synthesizer=synthesizer,
        cache=context.synthesis_cache,
    )


@PASS_REGISTRY.register("fuse_2q", description="consolidate 2Q runs into SU(4) blocks")
def _make_fuse(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.fuse import Fuse2QBlocksPass

    return Fuse2QBlocksPass(form=config.get("form", "unitary"))


@PASS_REGISTRY.register(
    "mirror", description="compile-time gate mirroring for near-identity gates (Section 4.3)"
)
def _make_mirror(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.mirror import MirrorNearIdentityPass

    return MirrorNearIdentityPass(threshold=config.get("threshold", 0.15))


@PASS_REGISTRY.register(
    "route", description="(mirroring-)SABRE routing onto the target topology (Section 5.3)"
)
def _make_route(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.route import SabreRoutingPass

    noise_aware = bool(config.get("noise_aware", False))
    return SabreRoutingPass(
        coupling_map=context.target.coupling_map,
        mirroring=config.get("mirroring", True),
        seed=config.get("seed", context.seed),
        lookahead_size=config.get("lookahead_size", 20),
        lookahead_weight=config.get("lookahead_weight", 0.5),
        noise_aware=noise_aware,
        calibration=(
            getattr(context.target, "calibration", None) if noise_aware else None
        ),
    )


@PASS_REGISTRY.register(
    "schedule",
    description="ASAP scheduling against the target's duration model (docs/noise.md)",
)
def _make_schedule(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.schedule import SchedulingPass

    return SchedulingPass(
        target=context.target,
        isa=config.get("isa"),
    )


@PASS_REGISTRY.register(
    "finalize", description="express every SU(4) block in the {Can, U3} ISA"
)
def _make_finalize(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.finalize import FinalizeToCanPass

    return FinalizeToCanPass(merge_single_qubit=config.get("merge_single_qubit", True))


@PASS_REGISTRY.register("decompose_cnot", description="lower everything to {CX, 1Q}")
def _make_decompose(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.decompose import DecomposeToCnotPass

    return DecomposeToCnotPass()


@PASS_REGISTRY.register(
    "peephole", description="cancel/merge adjacent gates, optionally consolidating 2Q runs"
)
def _make_peephole(config: Mapping[str, Any], context: PassContext) -> CompilerPass:
    from repro.compiler.passes.peephole import PeepholeOptimizationPass

    return PeepholeOptimizationPass(
        consolidate=config.get("consolidate", True),
        max_rounds=config.get("max_rounds", 4),
    )


# ---------------------------------------------------------------------------
# Named pipelines (the former compiler classes as declarative specs).
# ---------------------------------------------------------------------------


def reqisc_pipeline(
    mode: str = "full",
    mirror_threshold: float = 0.15,
    block_size: int = 3,
    synthesis_threshold: int = 4,
    synthesis_tolerance: float = 1e-6,
    enable_dag_compacting: bool = True,
    use_mirroring_sabre: bool = True,
    template_library: Optional[Any] = None,
    synthesizer: Optional[Any] = None,
    noise_aware: bool = False,
    name: Optional[str] = None,
) -> PipelineSpec:
    """The end-to-end ReQISC (Regulus) pipeline of Section 5.4.1.

    ``mode="full"`` runs hierarchical synthesis; ``mode="eff"`` skips it to
    keep the distinct-gate count minimal (template synthesis already fuses
    its output into SU(4) blocks, so no separate fusion stage runs).
    ``noise_aware=True`` switches routing to the calibration-weighted
    portfolio (needs a calibrated target; see docs/noise.md) — the default
    keeps the stage config unchanged.
    """
    if mode not in ("full", "eff"):
        raise ValueError("mode must be 'full' or 'eff'")
    stages: List[PipelineStage] = [
        PipelineStage("template_synthesis", {"library": template_library}),
    ]
    if mode == "full":
        stages.append(
            PipelineStage(
                "hierarchical_synthesis",
                {
                    "block_size": block_size,
                    "threshold": synthesis_threshold,
                    "tolerance": synthesis_tolerance,
                    "enable_dag_compacting": enable_dag_compacting,
                    "synthesizer": synthesizer,
                },
            )
        )
    stages.append(PipelineStage("mirror", {"threshold": mirror_threshold}))
    route_config: Dict[str, Any] = {"mirroring": use_mirroring_sabre}
    if noise_aware:
        route_config["noise_aware"] = True
    stages.append(PipelineStage("route", route_config, requires_topology=True))
    stages.append(PipelineStage("finalize"))
    return PipelineSpec(
        name=name or f"reqisc-{mode}",
        stages=tuple(stages),
        isa="su4",
        description="SU(4)-native co-designed compilation (ReQISC)",
    )


def cnot_baseline_pipeline(
    name: str = "qiskit-like",
    pauli_simp: bool = False,
    consolidate: bool = True,
    physical_optimization: bool = True,
) -> PipelineSpec:
    """CNOT-ISA baseline (Qiskit-O3 / TKet stand-in) as a declarative spec."""
    stages: List[PipelineStage] = []
    if pauli_simp:
        stages.append(PipelineStage("peephole", {"consolidate": False}))
    stages.append(PipelineStage("decompose_cnot"))
    stages.append(PipelineStage("peephole", {"consolidate": consolidate}))
    stages.append(PipelineStage("route", {"mirroring": False}, requires_topology=True))
    stages.append(PipelineStage("decompose_cnot", requires_topology=True))
    if physical_optimization:
        stages.append(
            PipelineStage("peephole", {"consolidate": consolidate}, requires_topology=True)
        )
    return PipelineSpec(
        name=name,
        stages=tuple(stages),
        isa="cnot",
        description="CNOT-ISA baseline compilation",
    )


def su4_fusion_pipeline(
    variant: str = "qiskit-su4",
    synthesis_tolerance: float = 1e-6,
    synthesizer: Optional[Any] = None,
) -> PipelineSpec:
    """The "-SU(4)" baseline variants (Section 6.6.1 ablation)."""
    if variant not in ("qiskit-su4", "tket-su4", "bqskit-su4"):
        raise ValueError("variant must be qiskit-su4, tket-su4 or bqskit-su4")
    cnot = cnot_baseline_pipeline(name=variant, pauli_simp=variant == "tket-su4")
    stages: List[PipelineStage] = list(cnot.stages)
    stages.append(PipelineStage("fuse_2q", {"form": "unitary"}))
    if variant == "bqskit-su4":
        # Aggressive per-block numerical re-synthesis with no template reuse:
        # good #2Q, but every block yields fresh SU(4) parameters (the
        # "distinct-gate explosion" discussed in the ablation study).
        stages.append(
            PipelineStage(
                "hierarchical_synthesis",
                {
                    "threshold": 2,
                    "tolerance": synthesis_tolerance,
                    "enable_dag_compacting": False,
                    "synthesizer": synthesizer,
                    "synthesizer_config": {
                        "tolerance": synthesis_tolerance,
                        "restarts": 2,
                    },
                },
            )
        )
    stages.append(PipelineStage("finalize"))
    return PipelineSpec(
        name=variant,
        stages=tuple(stages),
        isa="su4",
        description="CNOT baseline followed by naive SU(4) fusion",
    )


_NAMED_PIPELINES: Dict[str, Callable[[], PipelineSpec]] = {
    "reqisc-full": lambda: reqisc_pipeline(mode="full"),
    "reqisc-eff": lambda: reqisc_pipeline(mode="eff"),
    "reqisc-nc": lambda: reqisc_pipeline(mode="full", enable_dag_compacting=False, name="reqisc-nc"),
    "reqisc-sabre": lambda: reqisc_pipeline(mode="eff", use_mirroring_sabre=False, name="reqisc-sabre"),
    "reqisc-noise": lambda: reqisc_pipeline(mode="eff", noise_aware=True, name="reqisc-noise"),
    "qiskit-like": lambda: cnot_baseline_pipeline(name="qiskit-like"),
    "tket-like": lambda: cnot_baseline_pipeline(name="tket-like", pauli_simp=True),
    "qiskit-su4": lambda: su4_fusion_pipeline(variant="qiskit-su4"),
    "tket-su4": lambda: su4_fusion_pipeline(variant="tket-su4"),
    "bqskit-su4": lambda: su4_fusion_pipeline(variant="bqskit-su4"),
}


def register_pipeline(
    name: str,
    builder: Callable[[], PipelineSpec],
    overwrite: bool = False,
) -> None:
    """Register a pipeline builder under ``name``.

    The name becomes available to :func:`named_pipeline` and therefore to
    ``compile(spec=name)``, the batch service, the daemon and the CLI
    ``--compiler`` flag, which all build the same spec from it.
    ``builder()`` must return a :class:`PipelineSpec`.
    """
    if name in _NAMED_PIPELINES and not overwrite:
        raise KeyError(f"pipeline {name!r} is already registered")
    _NAMED_PIPELINES[name] = builder


def named_pipeline(name: str) -> PipelineSpec:
    """Build one of the named pipelines (``reqisc-full``, ``qiskit-like``, ...).

    A name has exactly one spec.  A variant is a spec of its own: build it
    with :func:`reqisc_pipeline` (or a sibling) under a new ``name``, and
    :func:`register_pipeline` it to make it a name.
    """
    try:
        builder = _NAMED_PIPELINES[name]
    except KeyError:
        raise KeyError(
            f"unknown pipeline {name!r}; available: {', '.join(sorted(_NAMED_PIPELINES))}"
        ) from None
    return builder()


def pipeline_names() -> List[str]:
    """Names accepted by :func:`named_pipeline` (and the CLI ``--compiler``)."""
    return sorted(_NAMED_PIPELINES)


def has_pipeline(name: str) -> bool:
    """Whether ``name`` is registered: an O(1) check for request intake."""
    return name in _NAMED_PIPELINES
