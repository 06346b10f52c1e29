"""Seeded, deterministic fault plans for chaos testing the serve stack.

A :class:`FaultPlan` is the only way a fault enters the serve stack: a
*composable, seeded schedule* of faults across every layer of it.  A test
that needs one worker fault at a known moment schedules it at the first
dispatches (``FaultPlan(seed=0, window=1, counts={"worker.hang": 1})``
hangs the first job).  The layers:

``worker``
    ``raise`` (the job fails with a retriable ``internal`` error),
    ``hang`` (the worker stalls past its deadline and is killed), ``exit``
    (the worker process dies mid-job).
``clock``
    ``skew`` — the dispatched job's deadline is clamped to (almost) *now*,
    modelling a clock-skewed deadline: the pump kills the worker and the
    client sees a retriable ``timeout``.
``socket``
    ``reset`` (the server drops the connection instead of answering),
    ``partial`` (the server sends a torn half-frame, then hangs up),
    ``delay`` (the response is withheld for a moment — tail latency, the
    hedging trigger).
``cache``
    ``bitflip`` (one byte of the just-written cache record is corrupted on
    disk), ``truncate`` (the writer's segment is torn mid-record, as a
    SIGKILL during ``write(2)`` would leave it).

Determinism contract: the *schedule* — which fault fires at which per-layer
operation index — is a pure function of ``(seed, window, counts)``; two
plans built from the same spec inject identically.  What wall-clock moment
an operation index corresponds to still depends on runtime interleaving,
which is exactly the point of a chaos soak.

A plan is a plain picklable value object.  Each component that injects
faults asks the plan for a per-layer :class:`FaultInjector` (a thread-safe
operation counter over the layer's schedule); worker processes rebuild
their injectors after the fork, so every worker applies the cache schedule
to its own operation stream.

Usage::

    plan = FaultPlan.balanced(seed=42, faults=50)
    pool = WorkerPool(..., fault_plan=plan)          # worker + clock layers
    server = CompileServer(ServeConfig(fault_plan=plan))  # socket layer too
    cache.fault_injector = plan.injector("cache")    # cache layer

    # Or an explicit spec (the `repro chaos --plan plan.json` surface):
    plan = FaultPlan.from_spec({
        "seed": 7, "window": 200,
        "counts": {"worker.exit": 3, "socket.reset": 5, "cache.bitflip": 2},
    })
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = ["FAULT_LAYERS", "FaultInjector", "FaultPlan"]

#: Every injectable layer and the fault modes it understands.
FAULT_LAYERS: Dict[str, Tuple[str, ...]] = {
    "worker": ("raise", "hang", "exit"),
    "clock": ("skew",),
    "socket": ("reset", "partial", "delay"),
    "cache": ("bitflip", "truncate"),
}

#: Default number of per-layer operations the schedule is spread across.
DEFAULT_WINDOW = 200


class FaultInjector:
    """Thread-safe cursor over one layer's fault schedule.

    Every call to :meth:`draw` advances the layer's operation counter by
    one and returns the fault mode scheduled at that index (or ``None``).
    ``fired`` records what actually triggered, for the soak report.
    """

    def __init__(self, layer: str, schedule: Mapping[int, str]) -> None:
        self.layer = layer
        self._schedule = dict(schedule)
        self._counter = 0
        self._lock = threading.Lock()
        self.fired: List[Tuple[int, str]] = []

    def draw(self) -> Optional[str]:
        """The fault mode for the next operation of this layer, if any."""
        with self._lock:
            index = self._counter
            self._counter += 1
            mode = self._schedule.get(index)
            if mode is not None:
                self.fired.append((index, mode))
            return mode

    @property
    def operations(self) -> int:
        with self._lock:
            return self._counter

    def fired_counts(self) -> Dict[str, int]:
        """``{"<layer>.<mode>": times_fired}`` so far."""
        with self._lock:
            counts: Dict[str, int] = {}
            for _, mode in self.fired:
                name = f"{self.layer}.{mode}"
                counts[name] = counts.get(name, 0) + 1
            return counts

    def __repr__(self) -> str:
        return (
            f"FaultInjector(layer={self.layer!r}, scheduled={len(self._schedule)}, "
            f"operations={self.operations}, fired={len(self.fired)})"
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, multi-layer fault schedule (see the module docstring).

    ``counts`` maps ``"<layer>.<mode>"`` (e.g. ``"worker.exit"``) to how
    many times that fault fires within the first ``window`` operations of
    its layer.  The schedule derivation is pure: same ``(seed, window,
    counts)`` — same schedule, on any host, in any process.
    """

    seed: int = 0
    window: int = DEFAULT_WINDOW
    counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        total = 0
        for name, count in self.counts.items():
            layer, _, mode = name.partition(".")
            if layer not in FAULT_LAYERS or mode not in FAULT_LAYERS[layer]:
                valid = ", ".join(
                    f"{lay}.{m}" for lay, modes in FAULT_LAYERS.items() for m in modes
                )
                raise ValueError(f"unknown fault {name!r}; expected one of: {valid}")
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ValueError(f"fault count for {name!r} must be a non-negative int")
            total += count
        per_layer: Dict[str, int] = {}
        for name, count in self.counts.items():
            layer = name.partition(".")[0]
            per_layer[layer] = per_layer.get(layer, 0) + count
        for layer, count in per_layer.items():
            if count > self.window:
                raise ValueError(
                    f"{count} faults scheduled for layer {layer!r} exceed window={self.window}"
                )
        # Normalize to a plain dict so the plan pickles/compares cleanly.
        object.__setattr__(self, "counts", dict(self.counts))

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def balanced(
        cls,
        seed: int = 0,
        faults: int = 50,
        window: Optional[int] = None,
        layers: Optional[Tuple[str, ...]] = None,
    ) -> "FaultPlan":
        """Spread ``faults`` round-robin across every mode of ``layers``.

        The default layer tuple covers all four layers, so a
        ``balanced(seed, 50)`` plan injects worker crashes and hangs,
        clock-skewed deadlines, socket resets/torn frames/delays, and cache
        corruption in one soak.
        """
        chosen = layers if layers is not None else tuple(FAULT_LAYERS)
        modes = [f"{layer}.{mode}" for layer in chosen for mode in FAULT_LAYERS[layer]]
        if not modes:
            raise ValueError("no fault layers selected")
        if window is None:
            window = max(DEFAULT_WINDOW, 2 * faults)
        counts: Dict[str, int] = {}
        for index in range(faults):
            name = modes[index % len(modes)]
            counts[name] = counts.get(name, 0) + 1
        return cls(seed=seed, window=window, counts=counts)

    @classmethod
    def from_spec(cls, spec: Union[str, Mapping[str, Any]]) -> "FaultPlan":
        """Build a plan from a JSON string or an already-parsed mapping."""
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except ValueError as exc:
                raise ValueError(f"fault plan spec is not valid JSON: {exc}") from exc
        if not isinstance(spec, Mapping):
            raise ValueError("fault plan spec must be a JSON object")
        unknown = set(spec) - {"seed", "window", "counts", "faults"}
        if unknown:
            raise ValueError(f"unknown fault plan field(s): {', '.join(sorted(unknown))}")
        if "faults" in spec and "counts" in spec:
            raise ValueError("give either 'faults' (balanced plan) or 'counts', not both")
        seed = int(spec.get("seed", 0))
        if "faults" in spec:
            return cls.balanced(
                seed=seed,
                faults=int(spec["faults"]),
                window=int(spec["window"]) if "window" in spec else None,
            )
        counts = spec.get("counts", {})
        if not isinstance(counts, Mapping):
            raise ValueError("'counts' must map '<layer>.<mode>' to integers")
        window = int(spec.get("window", DEFAULT_WINDOW))
        return cls(seed=seed, window=window, counts={str(k): int(v) for k, v in counts.items()})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable spec; ``from_spec(plan.to_dict())`` round-trips."""
        return {"seed": self.seed, "window": self.window, "counts": dict(self.counts)}

    # ------------------------------------------------------------------
    # Schedule derivation.
    # ------------------------------------------------------------------
    def total_faults(self) -> int:
        return sum(self.counts.values())

    def schedule(self, layer: str) -> Dict[int, str]:
        """The layer's ``{operation_index: mode}`` map (pure, deterministic).

        Indices are sampled without replacement from ``range(window)`` with
        a layer-scoped seeded RNG, then assigned to modes in a deterministic
        shuffled order — so adding a fault to one layer never perturbs
        another layer's schedule.
        """
        if layer not in FAULT_LAYERS:
            raise ValueError(f"unknown fault layer {layer!r}")
        modes: List[str] = []
        for name, count in sorted(self.counts.items()):
            mode_layer, _, mode = name.partition(".")
            if mode_layer == layer:
                modes.extend([mode] * count)
        if not modes:
            return {}
        rng = random.Random(f"{self.seed}:{self.window}:{layer}")
        indices = rng.sample(range(self.window), len(modes))
        rng.shuffle(modes)
        return dict(zip(indices, modes))

    def injector(self, layer: str) -> FaultInjector:
        """A fresh thread-safe cursor over ``layer``'s schedule."""
        return FaultInjector(layer, self.schedule(layer))

    def describe(self) -> str:
        """One-line human-readable summary (CLI banner)."""
        parts = [f"{name}x{count}" for name, count in sorted(self.counts.items()) if count]
        listing = ", ".join(parts) if parts else "no faults"
        return f"FaultPlan(seed={self.seed}, window={self.window}: {listing})"
