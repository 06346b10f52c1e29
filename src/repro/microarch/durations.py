"""Time-optimal gate durations under a given coupling Hamiltonian.

Implements the duration model of Algorithm 1 (lines 3-11), which matches the
theoretical lower bound of Hammerer-Vidal-Cirac: for a target with Weyl
coordinates ``(x, y, z)`` and canonical coupling ``(a, b, c)``::

    tau_1 = max( x/a, (x+y+z)/(a+b+c), (x+y-z)/(a+b-c) )
    tau_2 = max( (pi/2-x)/a, (pi/2-x+y-z)/(a+b+c), (pi/2-x+y+z)/(a+b-c) )
    tau   = min(tau_1, tau_2)

When ``tau_2 < tau_1`` the gate is realized through its mirrored coordinates
``(pi/2 - x, y, -z)`` (which are locally equivalent to the target).

The module also provides the per-gate duration models used by the evaluation
(Table 3, Figure 6, and the pulse-duration circuit metric).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.instruction import Instruction
from repro.gates.gate import UnitaryGate
from repro.linalg.weyl import canonicalize_coordinates, weyl_coordinates
from repro.microarch.hamiltonian import CouplingHamiltonian

__all__ = [
    "SubScheme",
    "DurationBreakdown",
    "optimal_duration",
    "haar_average_duration",
    "su4_duration_model",
    "fixed_basis_duration",
]

_EPS = 1e-12


class SubScheme(enum.Enum):
    """The three micro-op execution modes of the genAshN scheme."""

    ND = "no-detuning"
    EA_PLUS = "equal-amplitude+"
    EA_MINUS = "equal-amplitude-"


def _safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` treating 0/0 as 0 and x/0 as +inf."""
    if denominator > _EPS:
        return numerator / denominator
    if numerator <= _EPS:
        return 0.0
    return math.inf


@dataclass(frozen=True)
class DurationBreakdown:
    """Result of the duration computation for one target gate."""

    duration: float
    mirrored: bool
    effective_coordinates: Tuple[float, float, float]
    subscheme: SubScheme
    tau_components: Tuple[float, float, float]

    @property
    def tau_nd(self) -> float:
        """Duration constraint from the ND sector."""
        return self.tau_components[0]

    @property
    def tau_ea_plus(self) -> float:
        """Duration constraint from the EA+ sector."""
        return self.tau_components[1]

    @property
    def tau_ea_minus(self) -> float:
        """Duration constraint from the EA- sector."""
        return self.tau_components[2]


def optimal_duration(
    coordinates: Sequence[float],
    coupling: CouplingHamiltonian,
) -> DurationBreakdown:
    """Time-optimal duration for a gate with the given Weyl coordinates.

    Returns the duration, whether the mirrored representative
    ``(pi/2 - x, y, -z)`` is used, the effective coordinates actually
    synthesized and the selected subscheme.
    """
    x, y, z = canonicalize_coordinates(*coordinates)
    a, b, c = coupling.coefficients

    tau0 = _safe_ratio(x, a)
    tau_plus = _safe_ratio(x + y - z, a + b - c)
    tau_minus = _safe_ratio(x + y + z, a + b + c)
    tau1 = max(tau0, tau_plus, tau_minus)

    xp = math.pi / 2.0 - x
    tau0_p = _safe_ratio(xp, a)
    tau_plus_p = _safe_ratio(xp + y + z, a + b - c)
    tau_minus_p = _safe_ratio(xp + y - z, a + b + c)
    tau2 = max(tau0_p, tau_plus_p, tau_minus_p)

    if tau2 < tau1:
        mirrored = True
        duration = tau2
        effective = (xp, y, -z)
        components = (tau0_p, tau_plus_p, tau_minus_p)
    else:
        mirrored = False
        duration = tau1
        effective = (x, y, z)
        components = (tau0, tau_plus, tau_minus)

    # The binding constraint selects the subscheme (ties resolved in the
    # order ND, EA+, EA- which matches the partition in Figure 6).
    binding = max(components)
    if abs(components[0] - binding) < 1e-12:
        subscheme = SubScheme.ND
    elif abs(components[1] - binding) < 1e-12:
        subscheme = SubScheme.EA_PLUS
    else:
        subscheme = SubScheme.EA_MINUS
    return DurationBreakdown(
        duration=float(duration),
        mirrored=mirrored,
        effective_coordinates=tuple(float(v) for v in effective),
        subscheme=subscheme,
        tau_components=tuple(float(v) for v in components),
    )


def gate_duration(
    coordinates: Sequence[float], coupling: CouplingHamiltonian
) -> float:
    """Shorthand for ``optimal_duration(...).duration``."""
    return optimal_duration(coordinates, coupling).duration


def haar_average_duration(
    coupling: CouplingHamiltonian,
    num_samples: int = 2000,
    seed: Optional[int] = 0,
) -> float:
    """Average time-optimal duration over Haar-random SU(4) targets.

    This is the quantity reported in Table 3 for the "SU(4)" rows.  Haar
    sampling of the full unitary is equivalent to sampling the Weyl-chamber
    distribution induced by the Haar measure, which is what matters here.
    """
    from repro.linalg.random import haar_random_su4

    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(num_samples):
        target = haar_random_su4(rng)
        coords = weyl_coordinates(target)
        total += optimal_duration(coords, coupling).duration
    return total / num_samples


def fixed_basis_duration(
    basis_coordinates: Sequence[float],
    coupling: CouplingHamiltonian,
    haar_average_count: float,
) -> Tuple[float, float]:
    """Single-gate and Haar-average synthesis durations for a fixed 2Q basis.

    ``haar_average_count`` is the average number of basis-gate applications
    needed to synthesize an arbitrary SU(4) (3 for CNOT/iSWAP, 2.21 for
    SQiSW, 2 for B — Section 1 / Table 3).
    """
    single = optimal_duration(basis_coordinates, coupling).duration
    return single, single * haar_average_count


def su4_duration_model(
    coupling: CouplingHamiltonian,
    one_qubit_duration: float = 0.0,
) -> Callable[[Instruction], float]:
    """Per-instruction duration model for circuits run on the genAshN scheme.

    Every two-qubit gate (``can`` gates, fused unitary blocks and named 2Q
    gates alike) is costed by its time-optimal genAshN duration under
    ``coupling``.  Named gates are cached by name and parameters.
    """
    cache = {}

    def model(instruction: Instruction) -> float:
        gate = instruction.gate
        if gate.num_qubits == 1:
            return one_qubit_duration
        if gate.num_qubits != 2:
            raise ValueError(
                f"duration model expects <=2-qubit gates, got {gate.num_qubits}"
            )
        if gate.name == "can":
            key = ("can", tuple([round(p, 10) for p in gate.params]))
        elif isinstance(gate, UnitaryGate):
            key = None
        else:
            key = (gate.name, tuple([round(p, 10) for p in gate.params]))
        if key is not None and key in cache:
            return cache[key]
        if gate.name == "can":
            coords = gate.params
        else:
            coords = weyl_coordinates(gate.matrix)
        value = optimal_duration(coords, coupling).duration
        if key is not None:
            cache[key] = value
        return value

    return model
