"""Gate mirroring for near-identity gates on a QFT-like kernel (Figure 5c).

The small controlled-phase angles deep in a QFT produce SU(4) gates close to
the identity, which the genAshN scheme cannot drive in optimal time with
bounded amplitudes.  The compiler composes each of them with a logical SWAP
(moving them to the far corner of the Weyl chamber) and only has to track a
final qubit permutation — no extra two-qubit gates.

Run with ``python examples/gate_mirroring.py``.
"""


from repro import compile
from repro.target import reqisc_pipeline
from repro.linalg.predicates import allclose_up_to_global_phase
from repro.linalg.weyl import coordinate_norm
from repro.simulators.unitary import permutation_unitary
from repro.workloads.algorithms import qft_circuit


def main() -> None:
    program = qft_circuit(4)
    spec = reqisc_pipeline(mode="eff", mirror_threshold=0.3)
    result = compile(program, spec=spec)

    print("qft_4 compiled with ReQISC-Eff (mirror threshold r = 0.3)\n")
    print(f"#SU(4) gates          : {result.num_two_qubit_gates}")
    print(f"mirrored gates        : {result.properties['mirrored_gate_count']}")
    print(f"final qubit mapping   : {result.final_permutation}")

    print("\nWeyl coordinates of the compiled 2Q gates (L1 norm in parentheses):")
    for instruction in result.circuit:
        if instruction.gate.name == "can":
            coords = tuple(round(c, 4) for c in instruction.gate.params)
            norm = coordinate_norm(*instruction.gate.params)
            print(f"  qubits {instruction.qubits}: Can{coords}   (|.|_1 = {norm:.3f})")

    # The compiled circuit equals the original up to the tracked permutation.
    expected = permutation_unitary(result.final_permutation) @ program.to_unitary()
    equivalent = allclose_up_to_global_phase(result.circuit.to_unitary(), expected, atol=1e-6)
    print(f"\nequivalent to original up to final mapping: {equivalent}")
    assert equivalent


if __name__ == "__main__":
    main()
