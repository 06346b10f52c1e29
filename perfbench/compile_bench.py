"""In-process compile workloads: ``line24-eff`` and ``suite-full``.

Each run times ``SETUP_REPEATS`` fresh set-ups, then compiles the workload's
program set from scratch through the public ``repro.target.compile`` until
``--seconds`` is used up (at least once), checks every output and reports
the median pass.  Times are speed-normalised (``perfbench/speed.py``).
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from perfbench import metrics, oracle, programs, speed

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: workload -> (pipeline, target preset; size-less presets fit each program)
WORKLOADS = {
    "line24-eff": ("reqisc-eff", "xy-line-24"),
    "suite-full": ("reqisc-full", "xy-grid"),
}


def workload_programs(workload: str, seed: int) -> List[Tuple[str, object]]:
    if workload == "line24-eff":
        program = programs.line24_program(seed)
        return [(program.name, program)]
    return programs.suite_programs()


class Session:
    """Imported compiler, built targets and a warmed pipeline (what ``setup_s`` times)."""

    def __init__(self, workload: str, widths: List[int]) -> None:
        from repro.target.api import compile as target_compile
        from repro.target.target import resolve_target

        self.spec, preset = WORKLOADS[workload]
        self.compile = target_compile
        self.targets = {width: resolve_target(preset, num_qubits=width) for width in set(widths)}
        warmup = programs.random_program(6, 60, programs.rng_for(0, 9), "warmup")
        self.compile(warmup, target=resolve_target(preset, num_qubits=6), spec=self.spec)

    def run(self, circuit, seed: int):
        return self.compile(
            circuit, target=self.targets[circuit.num_qubits], spec=self.spec, seed=seed
        )


def quality(result) -> Dict[str, float]:
    return {
        "output_gates": len(result.circuit),
        "num_2q": result.num_two_qubit_gates,
        "depth_2q": result.two_qubit_depth,
        "distinct_2q": result.distinct_two_qubit_gates,
        "pulse_duration": result.duration(),
    }


def setup_probe(workload: str) -> None:
    """Set-up in a fresh interpreter; :func:`time_setup` times it from spawn to ``ready``."""
    widths = [circuit.num_qubits for _, circuit in workload_programs(workload, 0)]
    Session(workload, widths)


def time_setup(workload: str) -> Tuple[float, float]:
    """Wall-time interval from spawning ``run.py --setup-probe`` until it is ready."""
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, run_py, "--setup-probe", workload,
         "--kernels", os.environ.get("REPRO_KERNELS", "native")],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    end = time.perf_counter()
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return start, end


class Checker:
    """Output checks; records the first failure message per program."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.errors: List[str] = []

    def check(self, name: str, source, result, simulate: bool = False) -> bool:
        try:
            if self.workload == "line24-eff" and not simulate:
                coupling = result.target.coupling_map
                oracle.check_structure(result.circuit, coupling.num_qubits, coupling.edges)
            else:
                oracle.check_equivalent(source, result.circuit, result.properties, seed=self.seed)
        except oracle.OracleError as exc:
            self.errors.append(f"{name}: {exc}")
            return False
        return True


def run(
    workload: str, seed: int, seconds: float,
    sampler: Optional[speed.Sampler] = None, setup_repeats: int = SETUP_REPEATS,
) -> Tuple[Dict, Dict]:
    """Untraced run: returns (end-to-end values, counts).

    Times are normalised by ``sampler``'s timeline (plain wall time without
    one); ``setup_s`` is reported when ``setup_repeats`` is positive.
    """
    setups = [time_setup(workload) for _ in range(setup_repeats)]
    program_set = workload_programs(workload, seed)
    session = Session(workload, [c.num_qubits for _, c in program_set])
    checker = Checker(workload, seed)
    attempted = failed = wrong = compiled = 0
    #: per pass, the wall-time interval of each successful compile
    passes: List[List[Tuple[float, float]]] = []
    first: Dict[str, object] = {}
    rows: List[Dict[str, float]] = []
    planned = 1
    while len(passes) < planned:
        outputs = {}
        intervals = []
        for name, circuit in program_set:
            attempted += 1
            gc.collect()
            start = time.perf_counter()
            try:
                result = session.run(circuit, seed)
            except Exception as exc:  # noqa: BLE001 - a failed compile is counted, not fatal
                checker.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                failed += 1
                continue
            intervals.append((start, time.perf_counter()))
            compiled += 1
            outputs[name] = result
        passes.append(intervals)
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = sum(end - start for start, end in intervals)
            planned = max(1, round(seconds / max(elapsed, 1e-9)))
        for name, circuit in program_set:
            result = outputs.get(name)
            if result is None:
                continue
            if name not in first:
                first[name] = result.circuit
                ok = checker.check(name, circuit, result)
                rows.append(quality(result))
            else:
                ok = result.circuit.instructions == first[name].instructions
                if not ok:
                    checker.errors.append(f"{name}: output differs between repeats")
            failed += not ok
            wrong += not ok

    if workload == "line24-eff":
        twin = programs.line24_twin(seed)
        attempted += 1
        try:
            result = session.compile(
                twin, target=f"xy-line-{twin.num_qubits}", spec=session.spec, seed=seed
            )
        except Exception as exc:  # noqa: BLE001 - a failed compile is counted, not fatal
            checker.errors.append(f"{twin.name}: {type(exc).__name__}: {exc}")
            failed += 1
        else:
            ok = checker.check(twin.name, twin, result, simulate=True)
            failed += not ok
            wrong += not ok

    timeline = sampler.stop() if sampler is not None else speed.WALL
    pass_seconds = [sum(timeline.seconds(*iv) for iv in intervals) for intervals in passes]
    # The caller submits the program set as one batch, so a request's latency
    # is a pass's time; capacity is programs compiled per second.
    pass_ms = [1000.0 * seconds for seconds in pass_seconds]
    values = {
        "compile_s": metrics.median(pass_seconds),
        "peak_rss_mb": peak_rss_mb,
        **metrics.quality_sums(rows),
        "latency_p50_ms": metrics.median(pass_ms),
        "latency_tail_ms": metrics.tail_value(pass_ms),
        "capacity_jobs_per_s": compiled / sum(pass_seconds),
    }
    if setups:
        values["setup_s"] = metrics.median([timeline.seconds(*iv) for iv in setups])
    info = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": checker.errors,
        "passes": len(passes),
        "wall_compile_s": metrics.median(
            [sum(end - start for start, end in intervals) for intervals in passes]
        ),
        "speed_median_probe_us": 1e6 * timeline.median_probe,
    }
    return values, info


def run_traced(workload: str, seed: int, recorder) -> Tuple[Dict, Dict]:
    """One untraced pass, then one traced pass; per-layer values from the traced one."""
    from repro.gates.gate import matrix_cache_stats
    from repro.ir.circuit_ir import conversion_stats
    from repro.kernels.kak_batch import batch_stats
    from repro.target.pipeline import named_pipeline
    from perfbench import tracing

    program_set = workload_programs(workload, seed)
    session = Session(workload, [c.num_qubits for _, c in program_set])
    start = time.perf_counter()
    for _, circuit in program_set:
        session.run(circuit, seed)
    untraced = time.perf_counter() - start

    tracing.install_compile_wrappers(recorder)
    traced_compile = recorder.wrap("compile", session.run)
    kak_before, matrix_before = batch_stats(), matrix_cache_stats()
    conversions_before = sum(conversion_stats().values())
    per_pass = {p: {"gates_out": 0, "2q_out": 0} for p in metrics.PASS_IDS}
    swaps = {"inserted_swaps": 0, "absorbed_swaps": 0}
    attempted = failed = wrong = 0
    checker = Checker(workload, seed)
    for name, circuit in program_set:
        attempted += 1
        result = traced_compile(circuit, seed)
        stages = [
            stage.pass_id for stage in named_pipeline(session.spec).stages
            if not (stage.requires_topology and result.target.coupling_map is None)
        ]
        for pass_id, record in zip(stages, result.pass_records):
            if pass_id in per_pass:
                per_pass[pass_id]["gates_out"] += record.gates_after
                per_pass[pass_id]["2q_out"] += record.two_qubit_after
        for key in swaps:
            swaps[key] += result.properties.get(key) or 0
        ok = checker.check(name, circuit, result)
        failed += not ok
        wrong += not ok

    totals = tracing.layer_totals(recorder.spans)
    traced = totals["compile"]["total"]

    def span(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    kak_after, matrix_after = batch_stats(), matrix_cache_stats()
    items = kak_after["inputs"] - kak_before["inputs"]
    hits = matrix_after["hits"] - matrix_before["hits"]
    lookups = hits + matrix_after["misses"] - matrix_before["misses"]
    values = {name: 0.0 for name in metrics.PER_LAYER}
    for pass_id in metrics.PASS_IDS:
        values[f"pass.{pass_id}.s"] = span(f"pass.{pass_id}", "self")
        values[f"pass.{pass_id}.gates_out"] = per_pass[pass_id]["gates_out"]
        values[f"pass.{pass_id}.2q_out"] = per_pass[pass_id]["2q_out"]
    for layer in ("kernels.kak_batch", "kernels.sabre_score", "linalg.kak_decompose",
                  "linalg.allclose_up_to_global_phase", "synthesis.approximate"):
        values[f"{layer}.calls"] = span(layer, "calls")
        values[f"{layer}.s"] = span(layer, "self")
    values.update({
        "route.swaps_inserted": swaps["inserted_swaps"],
        "route.swaps_absorbed": swaps["absorbed_swaps"],
        "kernels.kak_batch.items": items,
        "kernels.kak_batch.unique_frac": (
            (kak_after["unique"] - kak_before["unique"]) / items if items else 0.0
        ),
        "gates.matrix_cache.hit_rate": hits / lookups if lookups else 0.0,
        "ir.conversions": sum(conversion_stats().values()) - conversions_before,
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.coverage_frac": sum(span(f"pass.{p}", "total") for p in metrics.PASS_IDS) / traced,
    })
    info = {"attempted": attempted, "failed": failed, "wrong": wrong, "errors": checker.errors,
            "untraced_s": untraced, "traced_s": traced}
    return values, info

