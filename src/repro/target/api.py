"""The shared ``compile()`` entry point of the whole compiler stack.

Every way of compiling a circuit — the experiment harness, the batch
service, the daemon and the CLI — calls :func:`compile`, parameterized by a
:class:`~repro.target.target.Target` and a
:class:`~repro.target.pipeline.PipelineSpec` (usually a registered name, so
each name means the same pipeline whichever front end runs it)::

    from repro.target import Target, compile

    result = compile(circuit, target=Target.xy_line(8), spec="reqisc-full")
    print(result.summary())
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional, Union

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.passes.base import PassManager
from repro.compiler.result import CompilationResult
from repro.ir import CircuitIR, conversion_stats
from repro.target.pipeline import PASS_REGISTRY, PassContext, PipelineSpec, named_pipeline
from repro.target.properties import PropertySet
from repro.target.target import Target, resolve_target

__all__ = ["compile"]


def compile(
    circuit: Union[QuantumCircuit, CircuitIR],
    target: Union[None, str, Dict[str, Any], Target] = None,
    spec: Union[None, str, PipelineSpec] = None,
    *,
    seed: int = 0,
    synthesis_cache: Optional[Any] = None,
    properties: Optional[Mapping[str, Any]] = None,
) -> CompilationResult:
    """Compile ``circuit`` for ``target`` with the pipeline ``spec``.

    Parameters
    ----------
    circuit:
        The program to compile: a flat :class:`QuantumCircuit`, or a
        pre-built :class:`~repro.ir.CircuitIR` (handed to the passes without
        an entry conversion; the passes mutate it in place).
    target:
        A :class:`Target`, a preset name (``"xy-line"``, ``"heavy-hex"``,
        ...), a ``Target.to_dict()`` payload, a path to a JSON target file,
        or ``None`` for the cached default XY logical device.  Size-less
        presets are sized to the circuit.
    spec:
        A :class:`PipelineSpec` or a named pipeline (``"reqisc-full"``,
        ``"reqisc-eff"``, ``"qiskit-like"``, ...); ``None`` means
        ``"reqisc-full"``.  Hardware-aware stages are skipped when the
        target has no coupling map.
    seed:
        Base random seed forwarded to seed-sensitive passes (routing,
        approximate synthesis) unless their stage config pins its own.
    synthesis_cache:
        Optional :class:`~repro.service.cache.SynthesisCache` shared by the
        synthesis passes and installed as the process-global KAK cache for
        the duration of the call.
    properties:
        Initial property values merged into the run's
        :class:`~repro.target.properties.PropertySet`.
    """
    from repro.kernels.kak_batch import decomposition_table
    from repro.linalg.weyl import install_kak_cache

    start = time.perf_counter()
    if spec is None:
        spec = "reqisc-full"
    resolved = resolve_target(target, num_qubits=circuit.num_qubits)
    if isinstance(spec, str):
        spec = named_pipeline(spec)

    props = PropertySet.ensure(properties)
    props["isa"] = spec.isa
    props["target"] = resolved.name

    context = PassContext(target=resolved, seed=seed, synthesis_cache=synthesis_cache)
    manager = PassManager()
    for stage in spec.stages:
        if stage.requires_topology and resolved.coupling_map is None:
            continue
        manager.append(PASS_REGISTRY.create(stage, context))

    conversions_before = conversion_stats()
    previous_kak_cache = None
    if synthesis_cache is not None:
        previous_kak_cache = install_kak_cache(synthesis_cache)
    try:
        with decomposition_table():
            compiled, records = manager.run_with_records(circuit, props)
    finally:
        if synthesis_cache is not None:
            install_kak_cache(previous_kak_cache)
    conversions_after = conversion_stats()

    return CompilationResult(
        circuit=compiled,
        compiler_name=spec.name,
        compile_seconds=time.perf_counter() - start,
        properties=props,
        pass_records=records,
        target=resolved,
        conversions={
            key: conversions_after[key] - conversions_before[key]
            for key in conversions_after
        },
    )

