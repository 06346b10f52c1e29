"""Calibration models (Section 4.5 / 6.5).

Two complementary notions of "calibration" live here:

* **Calibration cost accounting** (:class:`CalibrationModel`): each
  *distinct* SU(4) instruction appearing in a compiled program must be
  calibrated on hardware, and the total calibration cost scales linearly
  with the number of distinct gates — the accounting behind the
  calibration-efficiency experiment (Figure 13) and the ReQISC-Eff /
  ReQISC-Full trade-off discussion.
* **Measured device parameters** (:class:`CalibrationData`): per-edge
  two-qubit error rates and gate durations plus per-qubit 1Q/readout error
  rates, attached to a :class:`~repro.target.target.Target` and consumed by
  the noise-aware routing and scheduling passes (see ``docs/noise.md``).
  ``CalibrationData`` round-trips through JSON, validates itself against a
  coupling map (every device edge must be calibrated, every rate must be a
  probability) and can estimate the end-to-end success probability of a
  routed circuit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.metrics import count_distinct_two_qubit_gates, count_two_qubit_gates

__all__ = [
    "CalibrationData",
    "CalibrationError",
    "CalibrationModel",
    "CalibrationReport",
    "EdgeCalibration",
    "distinct_su4_report",
]


@dataclass
class CalibrationReport:
    """Calibration accounting for one compiled program."""

    total_two_qubit_gates: int
    distinct_two_qubit_gates: int
    calibration_cost: float

    @property
    def reuse_factor(self) -> float:
        """Average number of uses per calibrated gate."""
        if self.distinct_two_qubit_gates == 0:
            return 0.0
        return self.total_two_qubit_gates / self.distinct_two_qubit_gates


@dataclass
class CalibrationModel:
    """Linear calibration cost model.

    ``per_gate_cost`` is the experimental cost (arbitrary units, e.g. minutes)
    of calibrating one distinct SU(4) instruction; ``baseline_gates`` is the
    number of gates that are always maintained regardless of the program
    (the CNOT-ISA baseline calibrates exactly one 2Q gate per pair).
    """

    per_gate_cost: float = 1.0
    baseline_gates: int = 1

    def report(self, circuit: QuantumCircuit) -> CalibrationReport:
        """Calibration report for a compiled circuit."""
        distinct = count_distinct_two_qubit_gates(circuit)
        total = count_two_qubit_gates(circuit)
        cost = self.per_gate_cost * max(distinct, self.baseline_gates)
        return CalibrationReport(
            total_two_qubit_gates=total,
            distinct_two_qubit_gates=distinct,
            calibration_cost=cost,
        )

    def compare(
        self, circuits: Dict[str, QuantumCircuit]
    ) -> Dict[str, CalibrationReport]:
        """Reports for a set of labelled compiled circuits."""
        return {label: self.report(circuit) for label, circuit in circuits.items()}


# ---------------------------------------------------------------------------
# Measured device parameters (the noise-aware compilation axis).
# ---------------------------------------------------------------------------


class CalibrationError(ValueError):
    """Structured validation error for calibration payloads.

    ``code`` is a stable machine-readable identifier (``"negative-rate"``,
    ``"missing-edge"``, ``"unknown-edge"``, ``"bad-shape"``) and ``detail``
    carries the offending field/edge, so CLI and service layers can report
    *which* entry of a ``--target`` JSON calibration block is broken instead
    of a bare message.
    """

    def __init__(self, code: str, message: str, detail: Optional[Dict[str, Any]] = None):
        super().__init__(f"calibration {code}: {message}")
        self.code = code
        self.detail = dict(detail or {})


@dataclass(frozen=True)
class EdgeCalibration:
    """Measured parameters of one coupling edge ``(a, b)`` with ``a < b``."""

    a: int
    b: int
    #: Two-qubit depolarizing error probability of a gate on this edge.
    error: float
    #: Two-qubit gate duration on this edge (same arbitrary units as the
    #: target's duration model; the seeded presets use the baseline CNOT
    #: pulse length as the unit).
    duration: float


def _normalized_pair(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True, eq=False)
class CalibrationData:
    """Per-device measured error rates and durations.

    Frozen and hashable by identity (like :class:`~repro.target.target.Target`);
    derived lookup tables and noise-routing models are memoized per instance.
    """

    #: Per-edge 2Q calibration, sorted by (a, b).
    two_qubit: Tuple[EdgeCalibration, ...]
    #: Per-qubit 1Q gate error probability, indexed by physical qubit.
    one_qubit_error: Tuple[float, ...]
    #: Per-qubit readout error probability, indexed by physical qubit.
    readout_error: Tuple[float, ...]
    #: Free-form provenance (preset name, seed, vendor id, ...).
    metadata: Tuple[Tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if isinstance(self.metadata, dict):
            object.__setattr__(self, "metadata", tuple(sorted(self.metadata.items())))
        edges = tuple(
            sorted(self.two_qubit, key=lambda entry: (entry.a, entry.b))
        )
        object.__setattr__(self, "two_qubit", edges)
        if len(self.one_qubit_error) != len(self.readout_error):
            raise CalibrationError(
                "bad-shape",
                f"one_qubit_error has {len(self.one_qubit_error)} entries but "
                f"readout_error has {len(self.readout_error)}",
            )
        seen = set()
        for entry in edges:
            if entry.a == entry.b:
                raise CalibrationError(
                    "bad-shape", f"edge ({entry.a}, {entry.b}) joins a qubit to itself",
                    {"edge": [entry.a, entry.b]},
                )
            if entry.a > entry.b or entry.a < 0:
                raise CalibrationError(
                    "bad-shape", f"edge ({entry.a}, {entry.b}) must satisfy 0 <= a < b",
                    {"edge": [entry.a, entry.b]},
                )
            pair = (entry.a, entry.b)
            if pair in seen:
                raise CalibrationError(
                    "bad-shape", f"edge {pair} is calibrated twice", {"edge": list(pair)}
                )
            seen.add(pair)
            if not 0.0 <= entry.error < 1.0:
                raise CalibrationError(
                    "negative-rate" if entry.error < 0.0 else "bad-shape",
                    f"edge {pair} error rate {entry.error!r} is not a probability in [0, 1)",
                    {"edge": list(pair), "value": entry.error},
                )
            if not entry.duration >= 0.0:
                raise CalibrationError(
                    "negative-rate",
                    f"edge {pair} duration {entry.duration!r} is negative",
                    {"edge": list(pair), "value": entry.duration},
                )
        for name, rates in (
            ("one_qubit_error", self.one_qubit_error),
            ("readout_error", self.readout_error),
        ):
            for qubit, rate in enumerate(rates):
                if not 0.0 <= rate < 1.0:
                    raise CalibrationError(
                        "negative-rate" if rate < 0.0 else "bad-shape",
                        f"{name}[{qubit}] = {rate!r} is not a probability in [0, 1)",
                        {"field": name, "qubit": qubit, "value": rate},
                    )
        object.__setattr__(
            self,
            "_edge_table",
            {(entry.a, entry.b): entry for entry in edges},
        )
        object.__setattr__(self, "_routing_models", {})

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_routing_models", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__dict__["_routing_models"] = {}

    # -- views ---------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.one_qubit_error)

    def edge(self, a: int, b: int) -> EdgeCalibration:
        """Calibration of edge ``(a, b)`` (order-insensitive); raises if absent."""
        entry = self._edge_table.get(_normalized_pair(a, b))
        if entry is None:
            raise CalibrationError(
                "missing-edge", f"edge ({a}, {b}) has no calibration entry",
                {"edge": sorted((a, b))},
            )
        return entry

    def has_edge(self, a: int, b: int) -> bool:
        return _normalized_pair(a, b) in self._edge_table

    def validate_against(self, coupling_map) -> None:
        """Check this data covers ``coupling_map`` exactly.

        Every device edge must carry a calibration entry (``missing-edge``),
        every calibrated edge must exist on the device (``unknown-edge``) and
        the per-qubit arrays must match the device size (``bad-shape``).
        """
        if self.num_qubits != coupling_map.num_qubits:
            raise CalibrationError(
                "bad-shape",
                f"calibration covers {self.num_qubits} qubits but the coupling "
                f"map has {coupling_map.num_qubits}",
            )
        device_edges = {tuple(sorted(edge)) for edge in coupling_map.edges}
        calibrated = set(self._edge_table)
        missing = sorted(device_edges - calibrated)
        if missing:
            raise CalibrationError(
                "missing-edge",
                f"device edges with no calibration entry: {missing[:8]}"
                + (" ..." if len(missing) > 8 else ""),
                {"edges": [list(edge) for edge in missing]},
            )
        unknown = sorted(calibrated - device_edges)
        if unknown:
            raise CalibrationError(
                "unknown-edge",
                f"calibrated edges not on the device: {unknown[:8]}"
                + (" ..." if len(unknown) > 8 else ""),
                {"edges": [list(edge) for edge in unknown]},
            )

    def is_uniform(self) -> bool:
        """True when every edge/qubit carries identical parameters."""
        return (
            len({(e.error, e.duration) for e in self.two_qubit}) <= 1
            and len(set(self.one_qubit_error)) <= 1
            and len(set(self.readout_error)) <= 1
        )

    # -- fidelity estimation --------------------------------------------------
    def estimated_log_fidelity(self, circuit: QuantumCircuit) -> float:
        """Log of the product of per-gate/readout success probabilities.

        The circuit must act on *physical* wires (i.e. be routed): every 2Q
        gate contributes ``log(1 - error(edge))``, every 1Q gate
        ``log(1 - one_qubit_error[q])``, and each device qubit one readout
        term.  Log-space keeps deep programs from underflowing to 0.0.
        """
        total = 0.0
        for instruction in circuit:
            qubits = instruction.qubits
            if len(qubits) == 2:
                total += math.log1p(-self.edge(qubits[0], qubits[1]).error)
            else:
                total += math.log1p(-self.one_qubit_error[qubits[0]])
        for rate in self.readout_error:
            total += math.log1p(-rate)
        return total

    def estimated_fidelity(self, circuit: QuantumCircuit) -> float:
        """``exp`` of :meth:`estimated_log_fidelity` (may underflow to 0.0)."""
        return math.exp(self.estimated_log_fidelity(circuit))

    def routing_model(self, coupling_map, duration_weight: float = 0.0, swap_bias: float = 0.4):
        """Memoized :class:`~repro.compiler.routing.noise.NoiseRoutingModel`."""
        key = (id(coupling_map), float(duration_weight), float(swap_bias))
        model = self._routing_models.get(key)
        if model is None:
            from repro.compiler.routing.noise import build_noise_model

            model = build_noise_model(
                coupling_map, self, duration_weight=duration_weight, swap_bias=swap_bias
            )
            # Keep the map alive alongside its model so the id() key can
            # never be recycled while the cache entry exists.
            self._routing_models[key] = (coupling_map, model)
            return model
        return model[1]

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload; the inverse of :meth:`from_dict`."""
        return {
            "two_qubit": [
                {"edge": [entry.a, entry.b], "error": entry.error, "duration": entry.duration}
                for entry in self.two_qubit
            ],
            "one_qubit_error": list(self.one_qubit_error),
            "readout_error": list(self.readout_error),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CalibrationData":
        """Rebuild from a :meth:`to_dict` payload, validating every entry."""
        if not isinstance(payload, dict):
            raise CalibrationError(
                "bad-shape", f"calibration block must be an object, got {type(payload).__name__}"
            )
        entries: List[EdgeCalibration] = []
        for raw in payload.get("two_qubit", []):
            try:
                a, b = (int(q) for q in raw["edge"])
                entries.append(
                    EdgeCalibration(
                        *_normalized_pair(a, b),
                        error=float(raw["error"]),
                        duration=float(raw.get("duration", 1.0)),
                    )
                )
            except CalibrationError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise CalibrationError(
                    "bad-shape", f"malformed two_qubit entry {raw!r}: {exc}"
                ) from None
        try:
            one_qubit = tuple(float(rate) for rate in payload.get("one_qubit_error", ()))
            readout = tuple(float(rate) for rate in payload.get("readout_error", ()))
        except (TypeError, ValueError) as exc:
            raise CalibrationError("bad-shape", f"malformed per-qubit rates: {exc}") from None
        return cls(
            two_qubit=tuple(entries),
            one_qubit_error=one_qubit,
            readout_error=readout,
            metadata=tuple(sorted(dict(payload.get("metadata", {})).items())),
        )

    def fingerprint(self) -> str:
        """Stable content hash of :meth:`to_dict` (equal calibrations hash equal)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- constructors ----------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        coupling_map,
        two_qubit_error: float = 7e-3,
        two_qubit_duration: float = 1.0,
        one_qubit_error: float = 1e-4,
        readout_error: float = 2e-2,
    ) -> "CalibrationData":
        """Identical parameters on every edge/qubit.

        Noise-aware routing under a uniform calibration is bit-identical to
        distance-only routing (the property test of ``docs/noise.md``).
        """
        n = coupling_map.num_qubits
        return cls(
            two_qubit=tuple(
                EdgeCalibration(*_normalized_pair(a, b), error=two_qubit_error,
                                duration=two_qubit_duration)
                for a, b in coupling_map.edges
            ),
            one_qubit_error=(one_qubit_error,) * n,
            readout_error=(readout_error,) * n,
            metadata=(("kind", "uniform"),),
        )

    @classmethod
    def seeded(
        cls,
        coupling_map,
        seed: int,
        median_two_qubit_error: float = 7e-3,
        median_two_qubit_duration: float = 1.0,
        spread: float = 0.6,
    ) -> "CalibrationData":
        """Deterministic heterogeneous calibration (log-normal spread).

        Models a realistic non-uniform device: edge error rates and durations
        are log-normally distributed around the given medians (``spread`` is
        the sigma of the underlying normal), 1Q error sits two orders of
        magnitude below the 2Q median and readout error one order above it —
        the usual hierarchy on superconducting hardware.
        """
        rng = np.random.default_rng(seed)
        edges = [tuple(sorted(edge)) for edge in coupling_map.edges]
        edge_errors = median_two_qubit_error * np.exp(
            rng.normal(0.0, spread, len(edges))
        )
        edge_durations = median_two_qubit_duration * np.exp(
            rng.normal(0.0, spread / 2.0, len(edges))
        )
        n = coupling_map.num_qubits
        one_qubit = (median_two_qubit_error / 50.0) * np.exp(rng.normal(0.0, spread, n))
        readout = np.clip(
            (median_two_qubit_error * 3.0) * np.exp(rng.normal(0.0, spread, n)),
            0.0, 0.5,
        )
        return cls(
            two_qubit=tuple(
                EdgeCalibration(a, b, error=float(min(error, 0.5)), duration=float(duration))
                for (a, b), error, duration in zip(edges, edge_errors, edge_durations)
            ),
            one_qubit_error=tuple(float(min(rate, 0.1)) for rate in one_qubit),
            readout_error=tuple(float(rate) for rate in readout),
            metadata=(("kind", "seeded"), ("seed", seed)),
        )


def distinct_su4_report(
    labelled_circuits: Iterable[Tuple[str, QuantumCircuit]],
) -> List[Dict[str, float]]:
    """Rows of (label, #2Q, distinct SU(4)) for the Figure 13 style summary."""
    rows: List[Dict[str, float]] = []
    for label, circuit in labelled_circuits:
        rows.append(
            {
                "benchmark": label,
                "num_2q": count_two_qubit_gates(circuit),
                "distinct_su4": count_distinct_two_qubit_gates(circuit),
            }
        )
    return rows
