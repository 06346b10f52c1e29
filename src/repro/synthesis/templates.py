"""Pre-synthesized template library for program-aware synthesis (Section 5.2).

Real-world "digital logic" programs are dominated by a small set of 3-qubit
intermediate-representation patterns: Toffoli (CCX), CCZ, Peres, the MAJ/UMA
blocks of ripple-carry adders, and Fredkin (CSWAP).  For each pattern the
library stores an optimized SU(4)-ISA realization (built from the classic
controlled-V constructions and consolidated into canonical gates), together
with equivalent-circuit-class (ECC) variants derived from self-invertibility
and control-permutability that the assembly stage can choose from to maximize
fusion with neighbouring templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.ir import CircuitIR
from repro.synthesis.blocks import consolidate_blocks

__all__ = ["Template", "TemplateLibrary", "default_template_library", "template_ir_key"]


def _fused_can(circuit: QuantumCircuit) -> QuantumCircuit:
    """``circuit`` with every maximal 2Q run fused into one ``{Can, U3}`` block."""
    ir = CircuitIR.from_instructions(circuit.num_qubits, circuit, circuit.name)
    consolidate_blocks(ir, form="can")
    fused = QuantumCircuit(circuit.num_qubits, circuit.name)
    fused.extend(ir.instructions())
    return fused


def _ccx_reference() -> QuantumCircuit:
    """Reference (definition) circuit of the Toffoli gate."""
    circuit = QuantumCircuit(3, "ccx_ref")
    circuit.ccx(0, 1, 2)
    return circuit


def _ccx_cv_circuit() -> QuantumCircuit:
    """Five-2Q-gate Toffoli construction via controlled-sqrt(X) gates."""
    circuit = QuantumCircuit(3, "ccx")
    circuit.cv(1, 2)
    circuit.cx(0, 1)
    circuit.cvdg(1, 2)
    circuit.cx(0, 1)
    circuit.cv(0, 2)
    return circuit


def _ccz_cv_circuit() -> QuantumCircuit:
    """CCZ as a Hadamard-conjugated Toffoli (the H gates join the 2Q blocks)."""
    circuit = QuantumCircuit(3, "ccz")
    circuit.h(2)
    circuit.compose(_ccx_cv_circuit())
    circuit.h(2)
    return circuit


def _peres_reference() -> QuantumCircuit:
    """Peres gate: Toffoli followed by a CNOT on the control pair."""
    circuit = QuantumCircuit(3, "peres_ref")
    circuit.ccx(0, 1, 2)
    circuit.cx(0, 1)
    return circuit


def _peres_circuit() -> QuantumCircuit:
    """Four-2Q-gate Peres construction (the trailing CNOT cancels one CX)."""
    circuit = QuantumCircuit(3, "peres")
    circuit.cv(1, 2)
    circuit.cx(0, 1)
    circuit.cvdg(1, 2)
    circuit.cv(0, 2)
    return circuit


def _cswap_reference() -> QuantumCircuit:
    circuit = QuantumCircuit(3, "cswap_ref")
    circuit.cswap(0, 1, 2)
    return circuit


def _cswap_circuit() -> QuantumCircuit:
    """Fredkin gate: CX-conjugated Toffoli; the outer CX gates fuse."""
    circuit = QuantumCircuit(3, "cswap")
    circuit.cx(2, 1)
    circuit.compose(_ccx_cv_circuit())
    circuit.cx(2, 1)
    return circuit


def _maj_reference() -> QuantumCircuit:
    """Cuccaro MAJ block on (carry-in, b, a) = qubits (0, 1, 2)."""
    circuit = QuantumCircuit(3, "maj_ref")
    circuit.cx(2, 1)
    circuit.cx(2, 0)
    circuit.ccx(0, 1, 2)
    return circuit


def _maj_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, "maj")
    circuit.cx(2, 1)
    circuit.cx(2, 0)
    circuit.compose(_ccx_cv_circuit())
    return circuit


def _uma_reference() -> QuantumCircuit:
    """Cuccaro UMA (2-CNOT version) block on qubits (0, 1, 2)."""
    circuit = QuantumCircuit(3, "uma_ref")
    circuit.ccx(0, 1, 2)
    circuit.cx(2, 0)
    circuit.cx(0, 1)
    return circuit


def _uma_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, "uma")
    circuit.compose(_ccx_cv_circuit())
    circuit.cx(2, 0)
    circuit.cx(0, 1)
    return circuit


@dataclass
class Template:
    """A named 3-qubit IR pattern and its optimized SU(4)-ISA realizations."""

    name: str
    reference: QuantumCircuit
    realization: QuantumCircuit
    variants: List[QuantumCircuit]

    @property
    def num_su4(self) -> int:
        """Two-qubit gate count of the primary realization."""
        return self.realization.count_two_qubit_gates()


def template_ir_key(gate_name: str, local_qubits: Tuple[int, ...]) -> str:
    """Library key of a high-level IR instruction.

    ``local_qubits`` is the permutation of (0, 1, 2) giving the roles of the
    instruction qubits; patterns that are symmetric under control exchange
    (CCX, CCZ) are normalized so permuted controls share one template.
    """
    if gate_name in ("ccx", "ccz"):
        controls = tuple(sorted(local_qubits[:2]))
        return f"{gate_name}:{controls[0]}{controls[1]}->{local_qubits[2]}"
    roles = "".join(str(q) for q in local_qubits)
    return f"{gate_name}:{roles}"


class TemplateLibrary:
    """Lookup table from 3-qubit IR patterns to SU(4)-ISA circuits."""

    def __init__(self) -> None:
        self._templates: Dict[str, Template] = {}
        self._fingerprint: Optional[str] = None
        self._register_defaults()

    # ------------------------------------------------------------------
    def _register_defaults(self) -> None:
        self.register("ccx", _ccx_reference(), _ccx_cv_circuit())
        self.register("ccz", QuantumCircuit(3).ccz(0, 1, 2), _ccz_cv_circuit())
        self.register("peres", _peres_reference(), _peres_circuit())
        self.register("cswap", _cswap_reference(), _cswap_circuit())
        self.register("maj", _maj_reference(), _maj_circuit())
        self.register("uma", _uma_reference(), _uma_circuit())

    def register(
        self,
        name: str,
        reference: QuantumCircuit,
        realization: QuantumCircuit,
    ) -> Template:
        """Register (or replace) a template after validating its correctness."""
        ref_unitary = reference.to_unitary()
        realized = realization.to_unitary()
        dim = ref_unitary.shape[0]
        overlap = abs(np.trace(ref_unitary.conj().T @ realized)) / dim
        if overlap < 1.0 - 1e-9:
            raise ValueError(
                f"template {name!r} does not implement its reference (overlap {overlap:.6f})"
            )
        fused = _fused_can(realization)
        variants = []
        self_inverse = np.allclose(ref_unitary @ ref_unitary, np.eye(dim), atol=1e-9)
        if self_inverse:
            # ECC variant from self-invertibility: the reversed adjoint circuit
            # realizes the same gate but starts/ends on different qubit pairs.
            variants.append(self._reversed_variant(realization))
        template = Template(name=name, reference=reference, realization=fused, variants=variants)
        self._templates[name] = template
        self._fingerprint = None
        return template

    def _reversed_variant(self, realization: QuantumCircuit) -> QuantumCircuit:
        """ECC variant: the adjoint circuit read backwards.

        For self-inverse IR patterns (CCX, CCZ, CSWAP) this realizes the same
        unitary while starting/ending on different qubit pairs, which gives
        the assembly stage fusion opportunities with neighbouring templates.
        """
        return _fused_can(realization.inverse())

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        """Registered template names."""
        return sorted(self._templates)

    def has(self, name: str) -> bool:
        """True when a template with ``name`` is registered."""
        return name in self._templates

    def get(self, name: str) -> Template:
        """Look up a template by name."""
        return self._templates[name]

    def realization(self, name: str) -> QuantumCircuit:
        """Primary SU(4)-ISA realization of a template."""
        return self._templates[name].realization.copy()

    def variants(self, name: str) -> List[QuantumCircuit]:
        """All registered ECC variants (primary first)."""
        template = self._templates[name]
        return [template.realization.copy()] + [v.copy() for v in template.variants]

    def su4_count(self, name: str) -> int:
        """SU(4) count of the primary realization."""
        return self._templates[name].num_su4

    def fingerprint(self) -> str:
        """Content key of every variant (memoized until the next :meth:`register`)."""
        if self._fingerprint is None:
            from repro.service.cache import circuit_fingerprint

            parts = [circuit_fingerprint(variant) for name in self.names() for variant in self.variants(name)]
            self._fingerprint = "library:" + ",".join(parts)
        return self._fingerprint


_DEFAULT_LIBRARY: Optional[TemplateLibrary] = None


def default_template_library() -> TemplateLibrary:
    """Singleton default template library (built on first use)."""
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = TemplateLibrary()
    return _DEFAULT_LIBRARY
