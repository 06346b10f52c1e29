"""Seeded input programs for every workload.

The generator has the shape of the ``incr`` perf family (30% ``u3``, 70%
``cx``) with one change: a 2Q gate is redrawn when it would repeat the last
2Q pair on both of its wires.  Such same-pair runs fuse into arbitrary SU(4)
blocks, and how many of them a seed happens to draw (6-14 on 24q/4000g)
made the distinct-2Q-gate count spread by 40% across seeds.  Without them
that count depends on the compiler alone.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit

#: (qubits, gates) of the larger random programs in the ``serve-hot`` pool;
#: fixed sizes so that only their contents vary with the seed.  They are of
#: similar length, so their parse times form one population that both the
#: median and the tail of the open loop fall inside; at most 14 qubits keeps
#: the statevector oracle cheap.
HOT_RANDOM_SIZES = ((12, 2000), (12, 1800), (13, 1600), (14, 1400))
#: Sizes cycled through by ``serve-cold``'s distinct programs.
COLD_SIZES = tuple((q, g) for g in (60, 75, 90, 105, 120) for q in (6, 7, 8))


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream): one seed gives one input set."""
    return np.random.default_rng([int(seed), *stream])


def random_program(num_qubits: int, num_gates: int, rng: np.random.Generator, name: str):
    """Random 1Q/2Q program: 30% ``u3`` with uniform angles, 70% ``cx``."""
    circuit = QuantumCircuit(num_qubits, name)
    last_pair = [None] * num_qubits
    for _ in range(num_gates):
        if rng.random() < 0.3:
            theta, phi, lam = rng.uniform(0.0, 2.0 * np.pi, 3)
            circuit.u3(float(theta), float(phi), float(lam), int(rng.integers(num_qubits)))
            continue
        while True:
            a, b = (int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            pair = (min(a, b), max(a, b))
            if not (last_pair[a] == pair and last_pair[b] == pair):
                break
        last_pair[a] = last_pair[b] = pair
        circuit.cx(a, b)
    return circuit


def line24_program(seed: int):
    return random_program(24, 4000, rng_for(seed, 0), f"line24-s{seed}")


def line24_twin(seed: int):
    """10q/400g program from the same generator: small enough to simulate."""
    return random_program(10, 400, rng_for(seed, 1), f"twin10-s{seed}")


def suite_programs() -> List[Tuple[str, QuantumCircuit]]:
    """The 17 Table-1 programs at ``medium`` scale (seed-independent)."""
    from repro.workloads.suite import benchmark_suite

    return [(case.name, case.circuit) for case in benchmark_suite(scale="medium")]


def hot_pool(seed: int) -> List[Tuple[str, QuantumCircuit]]:
    """``medium`` suite plus seeded 12-16q/200-2000g random programs."""
    pool = suite_programs()
    for index, (qubits, gates) in enumerate(HOT_RANDOM_SIZES):
        name = f"hot{qubits}q{gates}g-s{seed}"
        pool.append((name, random_program(qubits, gates, rng_for(seed, 2, index), name)))
    return pool


def cold_programs(seed: int, count: int, stream: int) -> List[Tuple[str, QuantumCircuit]]:
    """``count`` distinct 6-8q/60-120g programs; ``stream`` separates phases."""
    programs = []
    for index in range(count):
        qubits, gates = COLD_SIZES[index % len(COLD_SIZES)]
        name = f"cold{stream}-{index}-s{seed}"
        programs.append((name, random_program(qubits, gates, rng_for(seed, 3, stream, index), name)))
    return programs
