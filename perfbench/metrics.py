"""Metric names, units and the summary statistics every workload shares."""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Sequence

#: End-to-end metrics, reported by every untraced run (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "peak_rss_mb": "MB",
    "output_gates": "count",
    "num_2q": "count",
    "depth_2q": "count",
    "distinct_2q": "count",
    "pulse_duration": "1/g",
    "ok_frac": "frac",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "capacity_jobs_per_s": "1/s",
}

PASS_IDS = (
    "template_synthesis", "hierarchical_synthesis", "fuse_2q", "mirror", "route", "finalize"
)

#: Per-layer metrics, reported by every traced run (``--trace 1``).  A layer
#: that a workload does not run in the traced process reads 0.
PER_LAYER = {
    **{f"pass.{p}.{field}": unit for p in PASS_IDS
       for field, unit in (("s", "s"), ("gates_out", "count"), ("2q_out", "count"))},
    "route.swaps_inserted": "count",
    "route.swaps_absorbed": "count",
    "kernels.kak_batch.calls": "count",
    "kernels.kak_batch.items": "count",
    "kernels.kak_batch.unique_frac": "frac",
    "kernels.kak_batch.s": "s",
    "kernels.sabre_score.calls": "count",
    "kernels.sabre_score.s": "s",
    "linalg.kak_decompose.calls": "count",
    "linalg.kak_decompose.s": "s",
    "linalg.allclose_up_to_global_phase.calls": "count",
    "linalg.allclose_up_to_global_phase.s": "s",
    "synthesis.approximate.calls": "count",
    "synthesis.approximate.s": "s",
    "gates.matrix_cache.hit_rate": "frac",
    "ir.conversions": "count",
    "qasm.loads.s": "s",
    "qasm.loads.gates_per_s": "gates/s",
    "service.fingerprint.s": "s",
    "service.result_lru.hit_ratio": "frac",
    "service.compiles_started": "count",
    "service.dedup_inflight": "count",
    "service.worker_compile_ms.p50": "ms",
    "service.non_compile_ms.p50": "ms",
    "loadgen.late_ms.max": "ms",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}

QUALITY = ("output_gates", "num_2q", "depth_2q", "distinct_2q", "pulse_duration")

#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ``TAIL_SAMPLES`` samples beyond it.

    With ``2 * TAIL_SAMPLES`` samples or fewer that percentile would not lie
    above the median, and the tail is the maximum (percentile 100).
    """
    if count <= 2 * TAIL_SAMPLES:
        return 100.0
    return 100.0 * (count - TAIL_SAMPLES) / count


def tail_value(samples: Iterable[float]) -> float:
    """The sample at :func:`tail_percentile`."""
    ordered = sorted(samples)
    if len(ordered) <= 2 * TAIL_SAMPLES:
        return ordered[-1]
    return ordered[len(ordered) - TAIL_SAMPLES - 1]


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def quality_sums(rows: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Sum each output-quality metric over the compiled programs."""
    totals = {name: 0.0 for name in QUALITY}
    for row in rows:
        for name in QUALITY:
            totals[name] += row[name]
    return totals


def result(correct: bool, attempted: int, failed: int, values: Dict[str, float], units) -> Dict:
    """The benchmark's final JSON line; ``values`` must cover ``units`` exactly."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def quantile_spread(values: List[float]) -> float:
    """Inter-quartile distance over the median (the steadiness test)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
