"""Arithmetic / digital-logic workloads (the paper's "type-1" programs).

These generators produce the reversible-logic circuit families of the RevLib
style benchmark categories (alu, adders, comparator, modulo, mult, square,
encoding) from ``{X, CX, CCX, MCX}`` subroutines.  Sizes are parameterized so
the evaluation harness can scale them to the available compute budget.
"""

from __future__ import annotations


import numpy as np

from repro.circuits.circuit import QuantumCircuit

__all__ = [
    "ripple_carry_adder",
    "bit_adder",
    "comparator",
    "alu_circuit",
    "modulo_adder",
    "multiplier",
    "square_circuit",
    "encoding_circuit",
]


def ripple_carry_adder(num_bits: int = 3) -> QuantumCircuit:
    """Cuccaro ripple-carry adder on two ``num_bits`` registers.

    Register layout: ``[carry_in, b0, a0, b1, a1, ..., carry_out]``.
    """
    num_qubits = 2 * num_bits + 2
    circuit = QuantumCircuit(num_qubits, f"rip_add_{num_qubits}")

    def a(i):
        return 2 + 2 * i

    def b(i):
        return 1 + 2 * i

    carry_in = 0
    carry_out = num_qubits - 1

    def maj(x, y, z):
        circuit.cx(z, y)
        circuit.cx(z, x)
        circuit.ccx(x, y, z)

    def uma(x, y, z):
        circuit.ccx(x, y, z)
        circuit.cx(z, x)
        circuit.cx(x, y)

    maj(carry_in, b(0), a(0))
    for i in range(1, num_bits):
        maj(a(i - 1), b(i), a(i))
    circuit.cx(a(num_bits - 1), carry_out)
    for i in reversed(range(1, num_bits)):
        uma(a(i - 1), b(i), a(i))
    uma(carry_in, b(0), a(0))
    return circuit


def bit_adder(num_bits: int = 2) -> QuantumCircuit:
    """VBE-style carry-propagate adder built from CARRY/SUM blocks."""
    # Layout: a[0..n-1], b[0..n-1], carry[0..n]
    n = num_bits
    num_qubits = 3 * n + 1
    circuit = QuantumCircuit(num_qubits, f"bit_adder_{num_qubits}")

    def a(i):
        return i

    def b(i):
        return n + i

    def c(i):
        return 2 * n + i

    def carry(c0, ai, bi, c1):
        circuit.ccx(ai, bi, c1)
        circuit.cx(ai, bi)
        circuit.ccx(c0, bi, c1)

    def carry_dg(c0, ai, bi, c1):
        circuit.ccx(c0, bi, c1)
        circuit.cx(ai, bi)
        circuit.ccx(ai, bi, c1)

    for i in range(n):
        carry(c(i), a(i), b(i), c(i + 1))
    circuit.cx(a(n - 1), b(n - 1))
    for i in reversed(range(n)):
        if i < n - 1:
            carry_dg(c(i), a(i), b(i), c(i + 1))
            circuit.cx(a(i), b(i))
        circuit.cx(c(i), b(i))
    return circuit


def comparator(num_bits: int = 2) -> QuantumCircuit:
    """Bitwise comparator setting a flag qubit when ``a > b``."""
    n = num_bits
    num_qubits = 2 * n + 2  # a, b, flag, scratch
    circuit = QuantumCircuit(num_qubits, f"comparator_{num_qubits}")
    flag = 2 * n
    scratch = 2 * n + 1
    for i in reversed(range(n)):
        a, b = i, n + i
        circuit.x(b)
        circuit.ccx(a, b, scratch)
        circuit.x(b)
        circuit.cx(scratch, flag)
        circuit.ccx(a, b, scratch)
    return circuit


def alu_circuit(num_qubits: int = 5, depth: int = 6, seed: int = 11) -> QuantumCircuit:
    """ALU-style reversible logic: interleaved CCX/CX/X slices.

    Mirrors the alu-v* RevLib family: a cascade of controlled additions and
    conditional inversions over a handful of qubits.
    """
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"alu_{num_qubits}")
    for _ in range(depth):
        a, b, c = rng.choice(num_qubits, size=3, replace=False)
        circuit.ccx(int(a), int(b), int(c))
        d, e = rng.choice(num_qubits, size=2, replace=False)
        circuit.cx(int(d), int(e))
        circuit.x(int(rng.integers(num_qubits)))
    return circuit


def modulo_adder(num_bits: int = 2, modulus: int = 3) -> QuantumCircuit:
    """Constant-increment modulo adder (controlled increments + corrections)."""
    n = num_bits
    num_qubits = n + 2
    circuit = QuantumCircuit(num_qubits, f"modulo_{num_qubits}")
    control = n
    ancilla = n + 1
    # Controlled increment chains (MCX cascades), repeated modulus times.
    for _ in range(modulus % 4 + 1):
        for i in reversed(range(1, n)):
            circuit.mcx(list(range(i)), i)
        circuit.x(0)
        circuit.cx(control, ancilla)
    return circuit


def multiplier(num_bits: int = 2) -> QuantumCircuit:
    """Shift-and-add multiplier on two ``num_bits`` inputs."""
    n = num_bits
    num_qubits = 4 * n
    circuit = QuantumCircuit(num_qubits, f"mult_{num_qubits}")

    def a(i):
        return i

    def b(i):
        return n + i

    def p(i):
        return 2 * n + i

    for i in range(n):
        for j in range(n):
            if i + j < 2 * n:
                circuit.ccx(a(i), b(j), p(min(i + j, 2 * n - 1)))
        # Carry propagation for this partial product row.
        for k in range(n - 1):
            circuit.ccx(p(k), b((k + i) % n), p(k + 1))
    return circuit


def square_circuit(num_bits: int = 2) -> QuantumCircuit:
    """Squaring circuit (multiplier with both inputs tied)."""
    base = multiplier(num_bits)
    circuit = QuantumCircuit(base.num_qubits, f"square_{base.num_qubits}")
    for i in range(num_bits):
        circuit.cx(i, num_bits + i)
    circuit.compose(base)
    return circuit


def encoding_circuit(num_qubits: int = 5, seed: int = 3) -> QuantumCircuit:
    """Binary encoder/decoder pattern: CX fan-outs plus CCX parity checks."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, f"encoding_{num_qubits}")
    for target in range(1, num_qubits):
        circuit.cx(0, target)
    for _ in range(num_qubits):
        a, b, c = rng.choice(num_qubits, size=3, replace=False)
        circuit.ccx(int(a), int(b), int(c))
        circuit.cx(int(b), int(a))
    return circuit
