"""ReQISC reproduction package.

This package reproduces the system described in *Reconfigurable Quantum
Instruction Set Computers for High Performance Attainable on Hardware*
(ASPLOS 2026): the genAshN time-optimal SU(4) microarchitecture and the
Regulus SU(4)-native compilation framework, together with every substrate
they depend on (circuit IR, simulators, synthesis engines, routing,
workload generators and the experiment harness).

The public API is re-exported lazily so that importing ``repro`` stays cheap
and sub-packages can be used independently::

    from repro import QuantumCircuit, Target, compile, CouplingHamiltonian
    from repro import GenAshNScheme, weyl_coordinates

The compilation entry point is ``compile(circuit, target=..., spec=...)``
(see :mod:`repro.target`).
"""

from repro._lazy import lazy_exports

__version__ = "1.6.0"

#: Mapping from public attribute name to "module:attribute" location.
_LAZY_EXPORTS = {
    "QuantumCircuit": "repro.circuits.circuit:QuantumCircuit",
    "Target": "repro.target.target:Target",
    "resolve_target": "repro.target.target:resolve_target",
    "target_presets": "repro.target.target:target_presets",
    "compile": "repro.target.api:compile",
    "PipelineSpec": "repro.target.pipeline:PipelineSpec",
    "PipelineStage": "repro.target.pipeline:PipelineStage",
    "PassRegistry": "repro.target.pipeline:PassRegistry",
    "PASS_REGISTRY": "repro.target.pipeline:PASS_REGISTRY",
    "named_pipeline": "repro.target.pipeline:named_pipeline",
    "register_pipeline": "repro.target.pipeline:register_pipeline",
    "pipeline_names": "repro.target.pipeline:pipeline_names",
    "PropertySet": "repro.target.properties:PropertySet",
    "CouplingMap": "repro.compiler.routing.coupling_map:CouplingMap",
    "gates": "repro.gates.standard:",
    "KAKDecomposition": "repro.linalg.weyl:KAKDecomposition",
    "canonical_gate": "repro.linalg.weyl:canonical_gate",
    "kak_decompose": "repro.linalg.weyl:kak_decompose",
    "kak_decompose_batch": "repro.linalg.weyl:kak_decompose_batch",
    "weyl_coordinates": "repro.linalg.weyl:weyl_coordinates",
    "kernels_backend_info": "repro.kernels:backend_info",
    "CouplingHamiltonian": "repro.microarch.hamiltonian:CouplingHamiltonian",
    "GenAshNScheme": "repro.microarch.scheme:GenAshNScheme",
    "PulseProgram": "repro.microarch.scheme:PulseProgram",
    "CompilationResult": "repro.compiler.result:CompilationResult",
    "BatchCompiler": "repro.service.batch:BatchCompiler",
    "BatchResult": "repro.service.batch:BatchResult",
    "SynthesisCache": "repro.service.cache:SynthesisCache",
    "unitary_fingerprint": "repro.service.cache:unitary_fingerprint",
    "benchmark_suite": "repro.workloads.suite:benchmark_suite",
    "qasm_cases": "repro.workloads.suite:qasm_cases",
    "QasmError": "repro.qasm:QasmError",
    "dumps_qasm": "repro.qasm:dumps",
    "loads_qasm": "repro.qasm:loads",
    "load_qasm": "repro.qasm:load",
    "dump_qasm": "repro.qasm:dump",
    "DependencyGraph": "repro.circuits.depgraph:DependencyGraph",
    "CircuitIR": "repro.ir:CircuitIR",
    "ir_conversion_stats": "repro.ir:conversion_stats",
}

__all__ = sorted(_LAZY_EXPORTS) + ["__version__"]

__getattr__, __dir__ = lazy_exports(
    "repro", _LAZY_EXPORTS, globals(), extra=("__version__",)
)
