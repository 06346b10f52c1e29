"""First-class device description: the :class:`Target`.

The paper's central claim is hardware/software co-design: every compiler
decision (synthesis, mirroring, routing, finalization) is only meaningful
relative to a concrete device model.  ``Target`` bundles that model into one
frozen, serializable object:

* the two-qubit :class:`~repro.microarch.hamiltonian.CouplingHamiltonian`
  (which determines the genAshN pulse durations),
* an optional :class:`~repro.compiler.routing.coupling_map.CouplingMap`
  (device topology — ``None`` means logical/all-to-all compilation),
* the native ISA (``"su4"`` for the ReQISC ``{Can, U3}`` machine, ``"cnot"``
  for a conventional fixed-basis device), and
* the duration-model constants (CNOT pulse length, 1Q gate cost).

Targets are hashed by identity and memoize their per-gate duration models, so
costing a whole benchmark suite builds each model exactly once.  ``to_dict``
and ``from_dict`` give a stable JSON form used by the CLI (``--target
device.json``) and by disk-cache keys.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.circuits.instruction import Instruction
from repro.circuits.metrics import BASELINE_CNOT_DURATION, cnot_isa_duration_model
from repro.compiler.routing.coupling_map import CouplingMap
from repro.microarch.calibration import CalibrationData
from repro.microarch.durations import su4_duration_model
from repro.microarch.hamiltonian import CouplingHamiltonian

__all__ = ["Target", "resolve_target", "target_preset_info", "target_presets"]

_ISAS = ("su4", "cnot")


@dataclass(frozen=True, eq=False)
class Target:
    """Frozen, serializable description of the device being compiled for."""

    coupling: CouplingHamiltonian = field(default_factory=lambda: CouplingHamiltonian.xy(1.0))
    coupling_map: Optional[CouplingMap] = None
    isa: str = "su4"
    one_qubit_duration: float = 0.0
    cnot_duration: float = BASELINE_CNOT_DURATION
    name: str = ""
    #: Free-form extras (calibration ids, vendor metadata, ...), kept as a
    #: sorted tuple of pairs so the dataclass stays frozen.
    metadata: Tuple[Tuple[str, Any], ...] = ()
    #: Measured device parameters (per-edge 2Q error/duration, per-qubit
    #: 1Q/readout error), consumed by noise-aware routing and scheduling.
    #: ``None`` means an idealized device.  See docs/noise.md.
    calibration: Optional[CalibrationData] = None

    def __post_init__(self) -> None:
        if self.isa not in _ISAS:
            raise ValueError(f"isa must be one of {_ISAS}, got {self.isa!r}")
        if self.calibration is not None:
            if self.coupling_map is None:
                raise ValueError("a calibrated target needs a coupling_map")
            self.calibration.validate_against(self.coupling_map)
        if not self.name:
            object.__setattr__(self, "name", self._derived_name())
        if isinstance(self.metadata, dict):
            object.__setattr__(self, "metadata", tuple(sorted(self.metadata.items())))
        object.__setattr__(self, "_models", {})

    def __getstate__(self) -> Dict[str, Any]:
        # Memoized duration models are closures and must not cross process
        # boundaries (BatchCompiler pickles jobs and results).
        state = dict(self.__dict__)
        state.pop("_models", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__dict__["_models"] = {}

    def _derived_name(self) -> str:
        if self.coupling_map is None:
            return self.coupling.label
        suffix = "-cal" if self.calibration is not None else ""
        return (
            f"{self.coupling.label}-{self.coupling_map.name}-"
            f"{self.coupling_map.num_qubits}{suffix}"
        )

    # -- views ---------------------------------------------------------------
    @property
    def num_qubits(self) -> Optional[int]:
        """Physical qubit count, or ``None`` for an unconstrained target."""
        return self.coupling_map.num_qubits if self.coupling_map is not None else None

    def duration_model(self, isa: Optional[str] = None) -> Callable[[Instruction], float]:
        """Per-instruction duration model, memoized per target.

        ``isa`` overrides the target's native ISA — the evaluation costs
        CNOT-ISA baseline output with the conventional CNOT pulse even on an
        SU(4)-native device (the paper's Table 2 convention).
        """
        isa = isa or self.isa
        if isa not in _ISAS:
            raise ValueError(f"isa must be one of {_ISAS}, got {isa!r}")
        models: Dict[str, Callable[[Instruction], float]] = self._models
        if isa not in models:
            if isa == "cnot":
                models[isa] = cnot_isa_duration_model(
                    self.cnot_duration, self.one_qubit_duration
                )
            else:
                models[isa] = su4_duration_model(self.coupling, self.one_qubit_duration)
        return models[isa]

    def distance_matrix(self) -> Optional[Any]:
        """The coupling map's cached hop-count matrix (``None`` if logical).

        Delegates to :meth:`CouplingMap.distance_matrix`, which caches the
        compact integer array per map — every duration model, routing run
        and perf probe built on this target shares one matrix instead of
        re-deriving it.
        """
        if self.coupling_map is None:
            return None
        return self.coupling_map.distance_matrix()

    def duration_of(self, circuit: Any, isa: Optional[str] = None) -> float:
        """Critical-path pulse duration of ``circuit`` on this target."""
        from repro.circuits.metrics import circuit_duration

        return circuit_duration(circuit, self.duration_model(isa))

    def with_coupling_map(self, coupling_map: Optional[CouplingMap]) -> "Target":
        """Copy of this target on a different topology (name re-derived)."""
        return replace(self, coupling_map=coupling_map, name="")

    # -- constructors ----------------------------------------------------------
    @classmethod
    def default(cls) -> "Target":
        """The cached default device: XY coupling, no topology constraint."""
        global _DEFAULT_TARGET
        if _DEFAULT_TARGET is None:
            _DEFAULT_TARGET = cls()
        return _DEFAULT_TARGET

    @classmethod
    def xy_line(cls, num_qubits: int, strength: float = 1.0) -> "Target":
        """XY-coupled 1D chain of ``num_qubits`` qubits."""
        return cls(
            coupling=CouplingHamiltonian.xy(strength),
            coupling_map=CouplingMap.line(num_qubits),
        )

    @classmethod
    def xy_grid(cls, rows: int, columns: int, strength: float = 1.0) -> "Target":
        """XY-coupled 2D grid of ``rows x columns`` qubits."""
        return cls(
            coupling=CouplingHamiltonian.xy(strength),
            coupling_map=CouplingMap.grid(rows, columns),
        )

    @classmethod
    def heavy_hex(cls, rows: int = 1, columns: int = 1, strength: float = 1.0) -> "Target":
        """XY-coupled heavy-hex lattice of ``rows x columns`` hexagonal cells."""
        return cls(
            coupling=CouplingHamiltonian.xy(strength),
            coupling_map=CouplingMap.heavy_hex(rows, columns),
        )

    @classmethod
    def all_to_all(
        cls, num_qubits: int, coupling: Optional[CouplingHamiltonian] = None
    ) -> "Target":
        """Fully connected device of ``num_qubits`` qubits."""
        return cls(
            coupling=coupling or CouplingHamiltonian.xy(1.0),
            coupling_map=CouplingMap.all_to_all(num_qubits),
        )

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload; the inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "isa": self.isa,
            "coupling": self.coupling.to_dict(),
            "coupling_map": (
                self.coupling_map.to_dict() if self.coupling_map is not None else None
            ),
            "one_qubit_duration": self.one_qubit_duration,
            "cnot_duration": self.cnot_duration,
            "metadata": dict(self.metadata),
            "calibration": (
                self.calibration.to_dict() if self.calibration is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Target":
        """Rebuild a target from its :meth:`to_dict` payload."""
        coupling_map = payload.get("coupling_map")
        calibration = payload.get("calibration")
        return cls(
            coupling=CouplingHamiltonian.from_dict(payload["coupling"]),
            coupling_map=(
                CouplingMap.from_dict(coupling_map) if coupling_map is not None else None
            ),
            isa=str(payload.get("isa", "su4")),
            one_qubit_duration=float(payload.get("one_qubit_duration", 0.0)),
            cnot_duration=float(payload.get("cnot_duration", BASELINE_CNOT_DURATION)),
            name=str(payload.get("name", "")),
            metadata=tuple(sorted(dict(payload.get("metadata", {})).items())),
            calibration=(
                CalibrationData.from_dict(calibration) if calibration is not None else None
            ),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON document form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Target":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "Target":
        """Load a target from a JSON file (the CLI's ``--target dev.json``)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def __repr__(self) -> str:
        topo = repr(self.coupling_map) if self.coupling_map is not None else "logical"
        return f"Target({self.name}: isa={self.isa}, coupling={self.coupling.label}, {topo})"


_DEFAULT_TARGET: Optional[Target] = None


# ---------------------------------------------------------------------------
# Preset registry (used by ``--target <preset>`` and ``repro targets``).
# ---------------------------------------------------------------------------

_PRESET_DESCRIPTIONS = {
    "logical": "XY coupling, no topology constraint (logical-level compilation)",
    "xy-line": "XY-coupled 1D chain (append -N for a fixed size, e.g. xy-line-16)",
    "xy-grid": "XY-coupled near-square 2D grid (append -N for >= N qubits)",
    "heavy-hex": "XY-coupled heavy-hex lattice (append -N for >= N qubits)",
    "all-to-all": "XY-coupled fully connected device (append -N for a fixed size)",
    "xy-line-cal": "xy-line with a seeded heterogeneous calibration (see docs/noise.md)",
    "xy-grid-cal": "xy-grid with a seeded heterogeneous calibration",
    "heavy-hex-cal": "heavy-hex with a seeded heterogeneous calibration",
}

# Seed salt per calibrated base: the same base at the same size always gets
# the same device, but line/grid/heavy-hex devices of equal size differ.
_CALIBRATED_PRESETS = {"xy-line-cal": 101, "xy-grid-cal": 202, "heavy-hex-cal": 303}


def target_presets() -> Dict[str, str]:
    """Mapping of preset name to a one-line description."""
    return dict(_PRESET_DESCRIPTIONS)


def target_preset_info() -> Dict[str, Dict[str, Any]]:
    """Preset name -> {"description", "calibrated"} (drives ``repro targets``)."""
    return {
        name: {"description": text, "calibrated": name in _CALIBRATED_PRESETS}
        for name, text in _PRESET_DESCRIPTIONS.items()
    }


def _split_preset(spec: str) -> Tuple[str, Optional[int]]:
    """Split ``"xy-line-16"`` into ``("xy-line", 16)``."""
    head, _, tail = spec.rpartition("-")
    if head in _PRESET_DESCRIPTIONS and tail.isdigit():
        return head, int(tail)
    return spec, None


_PRESET_CACHE: Dict[Tuple[str, int], Target] = {}
_FILE_CACHE: Dict[Tuple[str, int], Target] = {}


def _build_preset(base: str, size: Optional[int]) -> Target:
    if base not in _PRESET_DESCRIPTIONS:
        raise ValueError(
            f"unknown target preset {base!r}; available: {', '.join(_PRESET_DESCRIPTIONS)}"
        )
    if size is None:
        raise ValueError(
            f"target preset {base!r} needs a qubit count: pass one explicitly "
            f"(e.g. {base}-16) or compile a circuit so the size can be inferred"
        )
    # Preset resolution is pure, and every compile of a suite resolves its
    # own copy — cache by (base, size) so targets (and their memoized
    # duration models) are shared across circuits of the same size.
    key = (base, size)
    target = _PRESET_CACHE.get(key)
    if target is None:
        cal_seed = _CALIBRATED_PRESETS.get(base)
        topo_base = base[: -len("-cal")] if cal_seed is not None else base
        if topo_base == "xy-line":
            coupling_map = CouplingMap.line(size)
        elif topo_base == "xy-grid":
            coupling_map = CouplingMap.grid_for(size)
        elif topo_base == "heavy-hex":
            coupling_map = CouplingMap.heavy_hex_for(size)
        else:
            coupling_map = CouplingMap.all_to_all(size)
        calibration = None
        if cal_seed is not None:
            # Deterministic per (base, device size): the committed fidelity
            # benchmarks depend on these exact parameters.
            calibration = CalibrationData.seeded(
                coupling_map, seed=cal_seed + coupling_map.num_qubits
            )
        target = Target(
            coupling=CouplingHamiltonian.xy(1.0),
            coupling_map=coupling_map,
            calibration=calibration,
        )
        _PRESET_CACHE[key] = target
    return target


def _load_target_file(path: str) -> Target:
    """``Target.from_file`` cached by (realpath, mtime) for per-suite reuse."""
    real = os.path.realpath(path)
    key = (real, os.stat(real).st_mtime_ns)
    target = _FILE_CACHE.get(key)
    if target is None:
        target = Target.from_file(real)
        # Drop stale entries for the same file so edits don't leak memory.
        for stale in [k for k in _FILE_CACHE if k[0] == real and k != key]:
            del _FILE_CACHE[stale]
        _FILE_CACHE[key] = target
    return target


def resolve_target(
    spec: Union[None, str, Dict[str, Any], Target],
    num_qubits: Optional[int] = None,
) -> Target:
    """Resolve a target specification into a concrete :class:`Target`.

    Accepts a ``Target`` (returned as-is), ``None`` (the cached default), a
    ``to_dict`` payload, a path to a JSON file, or a preset name such as
    ``"xy-line"`` / ``"xy-line-16"`` / ``"heavy-hex"``.  Size-less presets are
    sized by ``num_qubits`` (usually the circuit being compiled).
    """
    if spec is None:
        return Target.default()
    if isinstance(spec, Target):
        return spec
    if isinstance(spec, dict):
        return Target.from_dict(spec)
    if isinstance(spec, str):
        base, size = _split_preset(spec)
        if base == "logical":
            # Preset names always win over same-named files; 'logical' takes
            # no size (a suffix is almost certainly a typo for a sized preset).
            if size is not None:
                raise ValueError(
                    f"the 'logical' preset has no topology and takes no qubit "
                    f"count; did you mean e.g. 'xy-line-{size}'?"
                )
            return Target.default()
        if base in _PRESET_DESCRIPTIONS:
            return _build_preset(base, size if size is not None else num_qubits)
        if spec.endswith(".json") or os.sep in spec or os.path.isfile(spec):
            return _load_target_file(spec)
        return _build_preset(base, num_qubits)  # raises with the preset list
    raise TypeError(f"cannot resolve a Target from {type(spec).__name__}")
