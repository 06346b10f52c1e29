"""The no-detuning (ND) subscheme solver (Algorithm 1, lines 12-15).

In the ND sector the binding duration constraint is ``tau = x / a`` and the
pulse parameters admit a quasi-analytic solution: the drive amplitudes are
obtained from the two sinc-type equations::

    sin(y - z) = (b - c) * sin(S1 tau) / S1,   S1 = sqrt(4 Omega1^2 + (b-c)^2)
    sin(y + z) = (b + c) * sin(S2 tau) / S2,   S2 = sqrt(4 Omega2^2 + (b+c)^2)

with the detuning ``delta = 0``.  The smallest admissible roots ``S1, S2`` are
selected so that the drive amplitudes (and thus calibration burden and
leakage) are minimized, as described in Section 4.2.
"""

from __future__ import annotations

import math
from typing import Tuple

from scipy.optimize import brentq

__all__ = ["solve_nd", "smallest_sinc_root"]

_EPS = 1e-12


def _sinc_like(s: float, tau: float) -> float:
    """``sin(s * tau) / s`` with the ``s -> 0`` limit handled."""
    if abs(s) < _EPS:
        return tau
    return math.sin(s * tau) / s


def smallest_sinc_root(target: float, s_min: float, tau: float) -> float:
    """Smallest ``S >= s_min`` with ``sin(S tau) / S == target``.

    ``target`` must satisfy ``0 <= target <= sin(s_min tau)/s_min`` (guaranteed
    by the frontier conditions of the ND sector); the root is bracketed
    between ``s_min`` and the first zero of ``sin(S tau)``.
    """
    if tau <= _EPS:
        return s_min
    start_value = _sinc_like(s_min, tau)
    if target > start_value + 1e-9:
        raise ValueError(
            f"ND equation infeasible: target {target:.6g} exceeds value at "
            f"S_min ({start_value:.6g})"
        )
    if abs(target - start_value) < 1e-14:
        return s_min

    def objective(s: float) -> float:
        return _sinc_like(s, tau) - target

    # Bracket: the function starts >= 0 at s_min and reaches -target <= 0 at
    # the first zero of sin(S tau) past s_min.
    upper = max(s_min + _EPS, math.pi / tau)
    if objective(upper) > 0:
        # Walk outwards until a sign change is found (rare; happens only for
        # extreme tau values near the chamber boundary).
        step = math.pi / tau
        for _ in range(64):
            upper += step
            if objective(upper) <= 0:
                break
        else:
            raise ValueError("could not bracket the ND sinc equation root")
    return float(brentq(objective, s_min, upper, xtol=1e-15, rtol=1e-15))


def solve_nd(
    coordinates: Tuple[float, float, float],
    coefficients: Tuple[float, float, float],
    tau: float,
) -> Tuple[float, float, float]:
    """Solve the ND subscheme for ``(Omega1, Omega2, delta=0)``.

    Parameters
    ----------
    coordinates:
        Effective Weyl coordinates ``(x, y, z)`` to synthesize (already
        mirrored if the mirrored branch was selected).
    coefficients:
        Canonical coupling coefficients ``(a, b, c)``.
    tau:
        The optimal interaction duration (``x / a`` in this sector).
    """
    _, y, z = coordinates
    _, b, c = coefficients

    omegas = []
    for difference, s_min in ((y - z, b - c), (y + z, b + c)):
        target = math.sin(difference)
        if s_min < _EPS:
            # Degenerate coupling direction: the equation collapses to
            # sin(difference) == 0, which the frontier conditions guarantee.
            if abs(target) > 1e-7:
                raise ValueError(
                    "ND subscheme infeasible: vanishing coupling direction with "
                    f"non-zero interaction angle {difference:.3g}"
                )
            omegas.append(0.0)
            continue
        # Solve sin(S tau)/S = sin(difference)/s_min  for the smallest S >= s_min.
        root = smallest_sinc_root(target / s_min, s_min, tau)
        omega = 0.5 * math.sqrt(max(root**2 - s_min**2, 0.0))
        omegas.append(omega)
    omega1, omega2 = omegas
    return float(omega1), float(omega2), 0.0
