"""Topology-aware compilation: SABRE vs mirroring-SABRE on a 1D chain.

Reproduces the qualitative behaviour of Figure 12 on one benchmark: mapping a
QFT circuit onto a linear chain, comparing the CNOT flow (SABRE) against the
SU(4) flow with and without SWAP absorption.

Run with ``python examples/topology_aware_routing.py``.
"""

from repro import Target, compile
from repro.workloads.algorithms import qft_circuit


def main() -> None:
    program = qft_circuit(6)
    chain = Target.xy_line(program.num_qubits)

    cnot_logical = compile(program, spec="qiskit-like")
    cnot_routed = compile(program, target=chain, spec="qiskit-like")

    su4_logical = compile(program, spec="reqisc-eff")
    su4_sabre = compile(program, target=chain, spec="reqisc-sabre")
    su4_mirroring = compile(program, target=chain, spec="reqisc-eff")

    print(f"Workload: {program.name} on a {program.num_qubits}-qubit 1D chain\n")
    print("CNOT ISA (baseline + SABRE):")
    print(f"  logical #CNOT = {cnot_logical.num_two_qubit_gates}")
    print(f"  routed  #CNOT = {cnot_routed.num_two_qubit_gates} "
          f"(overhead {cnot_routed.num_two_qubit_gates / max(cnot_logical.num_two_qubit_gates, 1):.2f}x)")
    print("SU(4) ISA (ReQISC):")
    print(f"  logical #SU(4)             = {su4_logical.num_two_qubit_gates}")
    print(f"  routed, plain SABRE        = {su4_sabre.num_two_qubit_gates}")
    print(f"  routed, mirroring-SABRE    = {su4_mirroring.num_two_qubit_gates} "
          f"(absorbed SWAPs: {su4_mirroring.properties.get('absorbed_swaps', 0)})")
    print(f"  overhead vs logical        = "
          f"{su4_mirroring.num_two_qubit_gates / max(su4_logical.num_two_qubit_gates, 1):.2f}x")


if __name__ == "__main__":
    main()
