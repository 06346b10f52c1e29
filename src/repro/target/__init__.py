"""First-class device targets and the declarative pipeline API.

This package is the public face of the compiler stack:

* :class:`~repro.target.target.Target` — a frozen, serializable device
  description (coupling Hamiltonian, topology, ISA, duration model) with
  named presets (``Target.xy_line(n)``, ``Target.heavy_hex(...)``,
  ``Target.all_to_all(n)``) and ``to_dict``/``from_dict`` round-tripping.
* :class:`~repro.target.pipeline.PipelineSpec` /
  :data:`~repro.target.pipeline.PASS_REGISTRY` — declarative pipelines as
  named lists of ``(pass_id, config)`` stages.
* :class:`~repro.target.properties.PropertySet` — the typed property set
  threaded through the pass manager.
* :func:`~repro.target.api.compile` — the one entry point everything else
  (CLI, batch service, experiment harness) funnels through.

Exports resolve lazily so that ``import repro.target`` stays cheap and the
lower compiler layers can import the submodules without cycles.
"""

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "Target": "repro.target.target:Target",
    "resolve_target": "repro.target.target:resolve_target",
    "target_presets": "repro.target.target:target_presets",
    "target_preset_info": "repro.target.target:target_preset_info",
    "CalibrationData": "repro.microarch.calibration:CalibrationData",
    "CalibrationError": "repro.microarch.calibration:CalibrationError",
    "PropertySet": "repro.target.properties:PropertySet",
    "PassContext": "repro.target.pipeline:PassContext",
    "PassRegistry": "repro.target.pipeline:PassRegistry",
    "PASS_REGISTRY": "repro.target.pipeline:PASS_REGISTRY",
    "PipelineStage": "repro.target.pipeline:PipelineStage",
    "PipelineSpec": "repro.target.pipeline:PipelineSpec",
    "reqisc_pipeline": "repro.target.pipeline:reqisc_pipeline",
    "cnot_baseline_pipeline": "repro.target.pipeline:cnot_baseline_pipeline",
    "su4_fusion_pipeline": "repro.target.pipeline:su4_fusion_pipeline",
    "named_pipeline": "repro.target.pipeline:named_pipeline",
    "register_pipeline": "repro.target.pipeline:register_pipeline",
    "pipeline_names": "repro.target.pipeline:pipeline_names",
    "compile": "repro.target.api:compile",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_exports("repro.target", _LAZY_EXPORTS, globals())
