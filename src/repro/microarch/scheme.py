"""The genAshN gate scheme — Algorithm 1 end to end.

:class:`GenAshNScheme` turns a target two-qubit gate (or Weyl coordinate) and
a :class:`~repro.microarch.hamiltonian.CouplingHamiltonian` into a
:class:`PulseProgram`: the time-optimal interaction duration, the simple pulse
parameters ``(Omega1, Omega2, delta)``, the selected micro-op mode (ND / EA+ /
EA-), and the single-qubit corrections ``(A1, A2, B1, B2)`` such that::

    (A1 (x) A2) @ exp(-i tau (H + H1 (x) I + I (x) H2)) @ (B1 (x) B2) == U

up to global phase, where ``H`` is the *physical* coupling Hamiltonian
(lines 33-37 of Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np
from scipy.linalg import expm

from repro.linalg.constants import IDENTITY2, PAULI_X, PAULI_Z
from repro.linalg.predicates import unitary_infidelity
from repro.linalg.weyl import (
    boundary_mirror_decomposition,
    canonical_gate,
    canonicalize_coordinates,
    is_near_identity,
    kak_decompose,
    mirror_coordinates,
    weyl_coordinates,
)
from repro.microarch.durations import DurationBreakdown, SubScheme, optimal_duration
from repro.microarch.ea import solve_ea, trial_unitary
from repro.microarch.hamiltonian import CouplingHamiltonian
from repro.microarch.nd import solve_nd

__all__ = ["PulseProgram", "GenAshNScheme"]


@dataclass
class PulseProgram:
    """Pulse-level realization of one SU(4) instruction.

    Attributes mirror the outputs of Algorithm 1: the interaction duration
    ``tau``, drive amplitudes and detuning, the selected subscheme, whether
    the mirrored Weyl representative was synthesized, and the single-qubit
    corrections applied before (``b1, b2``) and after (``a1, a2``) the
    two-qubit interaction.
    """

    target_coordinates: Tuple[float, float, float]
    effective_coordinates: Tuple[float, float, float]
    tau: float
    omega1: float
    omega2: float
    delta: float
    subscheme: SubScheme
    mirrored: bool
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    coupling: CouplingHamiltonian

    @property
    def drive_amplitudes(self) -> Tuple[float, float]:
        """Physical drive amplitudes ``(A_1, A_2)`` with ``Omega = -(A1 +- A2)/4``.

        Inverting the definition ``Omega_{1,2} = -(A_1 +- A_2)/4`` of
        Section 4.1 gives ``A_1 = -2 (Omega1 + Omega2)`` and
        ``A_2 = -2 (Omega1 - Omega2)``.
        """
        return (-2.0 * (self.omega1 + self.omega2), -2.0 * (self.omega1 - self.omega2))

    def drive_hamiltonians(self) -> Tuple[np.ndarray, np.ndarray]:
        """Canonical-frame drive Hamiltonians ``H''_1``, ``H''_2`` (2x2)."""
        h1 = (self.omega1 + self.omega2) * PAULI_X + self.delta * PAULI_Z
        h2 = (self.omega1 - self.omega2) * PAULI_X + self.delta * PAULI_Z
        return h1, h2

    def physical_drive_hamiltonians(self) -> Tuple[np.ndarray, np.ndarray]:
        """Physical-frame drive Hamiltonians ``H_1``, ``H_2`` (line 35)."""
        h1, h2 = self.drive_hamiltonians()
        coupling = self.coupling
        h1_phys = coupling.u1 @ h1 @ coupling.u1.conj().T - coupling.local_field_1
        h2_phys = coupling.u2 @ h2 @ coupling.u2.conj().T - coupling.local_field_2
        return h1_phys, h2_phys

    def evolution(self) -> np.ndarray:
        """The bare two-qubit evolution under coupling + drives (no corrections)."""
        h1, h2 = self.physical_drive_hamiltonians()
        total = (
            self.coupling.matrix()
            + np.kron(h1, IDENTITY2)
            + np.kron(IDENTITY2, h2)
        )
        return expm(-1j * self.tau * total)

    def realized_unitary(self) -> np.ndarray:
        """Full realized gate including the single-qubit corrections (Eq. (5))."""
        return (
            np.kron(self.a1, self.a2) @ self.evolution() @ np.kron(self.b1, self.b2)
        )

    def infidelity(self, target: np.ndarray) -> float:
        """Infidelity of the realized gate against ``target`` (phase-insensitive)."""
        return unitary_infidelity(self.realized_unitary(), np.asarray(target, dtype=complex))

    @property
    def max_drive_amplitude(self) -> float:
        """``max(|A_1|, |A_2|)`` — the quantity minimized by root selection."""
        a1, a2 = self.drive_amplitudes
        return max(abs(a1), abs(a2))


class GenAshNScheme:
    """Compile SU(4) instructions into pulse programs for a given coupling.

    Parameters
    ----------
    coupling:
        The device coupling Hamiltonian.
    mirror_threshold:
        L1 norm below which a gate counts as "near identity" and is expected
        to be mirrored by the compiler before reaching the scheme.  The
        scheme itself still solves such gates (using the mirrored
        representative internally when that is time optimal).
    """

    def __init__(
        self,
        coupling: CouplingHamiltonian,
        mirror_threshold: float = 0.15,
    ) -> None:
        self.coupling = coupling
        self.mirror_threshold = mirror_threshold

    # ------------------------------------------------------------------
    def duration(self, target: Union[np.ndarray, Sequence[float]]) -> DurationBreakdown:
        """Time-optimal duration breakdown for a gate or coordinate triple."""
        coords = self._coordinates_of(target)
        return optimal_duration(coords, self.coupling)

    def is_near_identity(self, target: Union[np.ndarray, Sequence[float]]) -> bool:
        """True when the target falls in the near-identity region (Section 4.3)."""
        coords = self._coordinates_of(target)
        return is_near_identity(coords, self.mirror_threshold)

    def mirror(self, target: Union[np.ndarray, Sequence[float]]) -> Tuple[float, float, float]:
        """Weyl coordinates of the mirrored (SWAP-composed) gate."""
        coords = self._coordinates_of(target)
        return mirror_coordinates(*coords)

    # ------------------------------------------------------------------
    def compile_gate(self, target: Union[np.ndarray, Sequence[float]]) -> PulseProgram:
        """Run Algorithm 1 for ``target`` (a 4x4 unitary or Weyl coordinates).

        When a coordinate triple is given, the canonical gate ``Can(x, y, z)``
        is used as the concrete target so that single-qubit corrections are
        well defined.
        """
        if isinstance(target, np.ndarray) and target.shape == (4, 4):
            target_matrix = np.asarray(target, dtype=complex)
        else:
            coords = canonicalize_coordinates(*tuple(target))
            target_matrix = canonical_gate(*coords)

        target_kak = kak_decompose(target_matrix)
        coords = target_kak.coordinates

        breakdown = optimal_duration(coords, self.coupling)
        tau = breakdown.duration
        effective = breakdown.effective_coordinates

        omega1, omega2, delta = self._solve_subscheme(
            effective, breakdown.subscheme, tau
        )

        # Canonical-frame evolution and its decomposition (line 34).
        evolution = trial_unitary(
            self.coupling.coefficients, tau, omega1, omega2, delta
        )
        evolution_kak = kak_decompose(evolution)
        wanted = np.array(coords)

        def _mismatch(decomposition) -> float:
            return float(np.max(np.abs(np.array(decomposition.coordinates) - wanted)))

        if _mismatch(evolution_kak) > 1e-5:
            # Near the x = pi/4 boundary the solver may have landed on the
            # mirror representative (pi/2 - x, y, -z); the two describe the
            # same gate class there, so re-express the decomposition.
            mirrored_kak = boundary_mirror_decomposition(evolution_kak)
            if _mismatch(mirrored_kak) < _mismatch(evolution_kak):
                evolution_kak = mirrored_kak
        if _mismatch(evolution_kak) > 1e-5:
            raise RuntimeError(
                "pulse solution does not realize the requested Weyl coordinates: "
                f"wanted {tuple(wanted)}, got {evolution_kak.coordinates}"
            )

        # Single-qubit corrections (lines 36-37), including the frame change
        # of a non-canonical coupling Hamiltonian.
        u1, u2 = self.coupling.u1, self.coupling.u2
        phase = target_kak.global_phase / evolution_kak.global_phase
        a1 = phase * target_kak.l1 @ evolution_kak.l1.conj().T @ u1.conj().T
        a2 = target_kak.l2 @ evolution_kak.l2.conj().T @ u2.conj().T
        b1 = u1 @ evolution_kak.r1.conj().T @ target_kak.r1
        b2 = u2 @ evolution_kak.r2.conj().T @ target_kak.r2

        return PulseProgram(
            target_coordinates=coords,
            effective_coordinates=tuple(float(v) for v in effective),
            tau=tau,
            omega1=float(omega1),
            omega2=float(omega2),
            delta=float(delta),
            subscheme=breakdown.subscheme,
            mirrored=breakdown.mirrored,
            a1=a1,
            a2=a2,
            b1=b1,
            b2=b2,
            coupling=self.coupling,
        )

    # ------------------------------------------------------------------
    def _solve_subscheme(
        self,
        effective_coordinates: Sequence[float],
        subscheme: SubScheme,
        tau: float,
    ) -> Tuple[float, float, float]:
        """Dispatch to the ND or EA solver and verify the result."""
        coords = tuple(effective_coordinates)
        coefficients = self.coupling.coefficients
        if subscheme is SubScheme.ND:
            omega1, omega2, delta = solve_nd(coords, coefficients, tau)
            if self._verifies(coords, tau, omega1, omega2, delta):
                return omega1, omega2, delta
            # The analytic branch of the ND solution can land on the
            # z-reflected representative; swapping the two drive amplitudes
            # selects the other branch.
            if self._verifies(coords, tau, omega2, omega1, delta):
                return omega2, omega1, delta
            # Fall back to the numerical solver on whichever EA sector is
            # closest (guaranteed to exist by Theorem 1 for boundary cases).
            for fallback in (SubScheme.EA_PLUS, SubScheme.EA_MINUS):
                try:
                    return solve_ea(coords, coefficients, tau, fallback)
                except RuntimeError:
                    continue
            raise RuntimeError(
                f"ND solver failed for coordinates {coords} at tau={tau:.4f}"
            )
        return solve_ea(coords, coefficients, tau, subscheme)

    def _verifies(
        self,
        coords: Sequence[float],
        tau: float,
        omega1: float,
        omega2: float,
        delta: float,
        tolerance: float = 1e-6,
    ) -> bool:
        trial = trial_unitary(self.coupling.coefficients, tau, omega1, omega2, delta)
        achieved = weyl_coordinates(trial)
        wanted = canonicalize_coordinates(*coords)
        return bool(np.max(np.abs(np.array(achieved) - np.array(wanted))) < tolerance)

    def _coordinates_of(
        self, target: Union[np.ndarray, Sequence[float]]
    ) -> Tuple[float, float, float]:
        if isinstance(target, np.ndarray) and target.shape == (4, 4):
            return weyl_coordinates(target)
        return canonicalize_coordinates(*tuple(target))
