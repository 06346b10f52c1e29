#!/usr/bin/env python
"""Diff two ``BENCH_*.json`` perf reports (or self-check a single one).

Used by CI two ways:

* ``compare_bench.py --self-check FRESH.json`` — validate one report:
  every bit-identity section present must be ``true`` (a routing /
  equivalence / IR / QASM-round-trip / serve-vs-sequential / batched-kernel
  / uniform-calibration mismatch is a correctness bug), every stored
  ``speedup`` must equal the ratio of the two wall-time fields it was
  computed from (the drift guard: the harness computes each ratio exactly
  once, this check re-derives it), every fidelity row's ``improvement``
  must equal ``exp(max(logs) - distance_log)`` re-derived from its log-
  fidelity operands and must be >= 1 (the portfolio guarantee: noise-aware
  routing never scores worse than distance-only), and the schema must
  match the harness this checkout ships.
* ``compare_bench.py COMMITTED.json FRESH.json`` — the nightly gate:
  self-check the fresh report, **hard-fail** on schema drift between the
  two reports or on any bit-identity regression, and print an
  **advisory** wall-clock comparison per benchmark (shared runners are
  too noisy for a hard timing gate; the artifacts record the
  trajectory).  ``--max-slowdown`` only marks advisories, it never fails
  the run unless ``--strict-timing`` is also given.

Exit code 0 when all hard checks pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Dict, List, Tuple

#: Report sections whose ``bit_identical`` flag gates the build.
BIT_IDENTITY_SECTIONS = (
    "routing", "equivalence", "ir", "qasm", "serve", "chaos", "synth_batch", "fidelity",
)

#: section -> (speedup field, numerator field, denominator field).  Each
#: stored ratio must equal numerator/denominator from the same report — the
#: harness computes it once (``repro.perf.harness.speedup_ratio``) and this
#: check re-derives it, so the number can never drift from its operands.
SPEEDUP_FIELDS = {
    "routing": ("speedup", "baseline_seconds", "fast_seconds"),
    "ir": ("speedup", "legacy_seconds", "ir_seconds"),
    "synth_batch": ("speedup", "scalar_seconds", "batch_seconds"),
}


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def self_check(report: Dict[str, Any], label: str) -> List[str]:
    """Hard failures within a single report (bit identity, schema shape)."""
    failures: List[str] = []
    schema = report.get("schema", "")
    if not str(schema).startswith("repro-perf/"):
        failures.append(f"{label}: unrecognized schema {schema!r}")
    for section in BIT_IDENTITY_SECTIONS:
        payload = report.get(section)
        if payload is not None and payload.get("bit_identical") is not True:
            failures.append(f"{label}: {section} is not bit-identical: {payload}")
    for section, (ratio_field, numerator_field, denominator_field) in SPEEDUP_FIELDS.items():
        payload = report.get(section)
        if payload is None:
            continue
        stored = payload.get(ratio_field)
        numerator = payload.get(numerator_field)
        denominator = payload.get(denominator_field)
        if stored is None or numerator is None or denominator is None:
            failures.append(
                f"{label}: {section} is missing one of "
                f"{ratio_field}/{numerator_field}/{denominator_field}"
            )
            continue
        derived = numerator / denominator if denominator > 0 else math.inf
        if not math.isclose(stored, derived, rel_tol=1e-9):
            failures.append(
                f"{label}: {section}.{ratio_field} drifted: stored {stored!r} but "
                f"{numerator_field}/{denominator_field} = {derived!r}"
            )
    # The chaos soak's verdict is stricter than bit identity alone: it also
    # fails on unrecovered jobs, hung clients and unscrubbed corruption.
    chaos = report.get("chaos")
    if chaos is not None and chaos.get("ok") is not True:
        failures.append(
            f"{label}: chaos soak failed (unrecovered={len(chaos.get('unrecovered', []))}, "
            f"hung_clients={chaos.get('hung_clients')})"
        )
    failures.extend(_check_fidelity(report.get("fidelity"), label))
    return failures


def _check_fidelity(fidelity: Any, label: str) -> List[str]:
    """The fidelity-family gate: re-derived ratios, and no regressions.

    Every row's ``improvement`` is re-derived from its two log-fidelity
    operands (same drift guard as the speedup fields), and the portfolio
    guarantee is enforced as a hard failure: noise-aware routing scoring
    *worse* than distance-only on any suite program means the
    keep-the-better-result selection in ``compare_routing_strategies``
    broke.
    """
    if fidelity is None:
        return []
    failures: List[str] = []
    for row in fidelity.get("rows", []):
        key = f"{row.get('benchmark')}@{row.get('preset')}"
        stored = row.get("improvement")
        noise_log = row.get("noise_log_fidelity")
        distance_log = row.get("distance_log_fidelity")
        if stored is None or noise_log is None or distance_log is None:
            failures.append(
                f"{label}: fidelity row {key} is missing one of "
                "improvement/noise_log_fidelity/distance_log_fidelity"
            )
            continue
        derived = math.exp(max(noise_log, distance_log) - distance_log)
        if not math.isclose(stored, derived, rel_tol=1e-9):
            failures.append(
                f"{label}: fidelity row {key} improvement drifted: stored "
                f"{stored!r} but exp(max(logs) - distance_log) = {derived!r}"
            )
        if stored < 1.0:
            failures.append(
                f"{label}: fidelity row {key} regressed: noise-aware routing "
                f"scored worse than distance-only (improvement {stored!r})"
            )
    regressions = fidelity.get("regressions")
    if regressions is None:
        failures.append(f"{label}: fidelity section is missing 'regressions'")
    elif regressions:
        failures.append(
            f"{label}: fidelity regressions recorded by the harness: {regressions}"
        )
    return failures


def compare(
    committed: Dict[str, Any],
    fresh: Dict[str, Any],
    max_slowdown: float = 1.5,
) -> Tuple[List[str], List[str]]:
    """Return ``(failures, advisories)`` for the nightly committed-vs-fresh diff."""
    failures = self_check(fresh, "fresh")

    old_schema = committed.get("schema")
    new_schema = fresh.get("schema")
    if old_schema != new_schema:
        failures.append(
            f"schema drift: committed report is {old_schema!r}, fresh report is "
            f"{new_schema!r} — regenerate the committed BENCH_perf.json"
        )
    if committed.get("quick") is False and fresh.get("quick") is True:
        failures.append("fresh report was produced in --quick mode; the nightly run must be full")

    # Bit-identity sections that regressed relative to the committed report.
    for section in BIT_IDENTITY_SECTIONS:
        old = committed.get(section)
        new = fresh.get(section)
        if old is not None and old.get("bit_identical") is True and new is None:
            failures.append(f"{section}: section disappeared from the fresh report")

    advisories: List[str] = []
    old_by_name = {record["name"]: record for record in committed.get("benchmarks", [])}
    new_by_name = {record["name"]: record for record in fresh.get("benchmarks", [])}
    for name in sorted(old_by_name.keys() | new_by_name.keys()):
        old = old_by_name.get(name)
        new = new_by_name.get(name)
        if old is None:
            advisories.append(f"{name}: new benchmark (no committed baseline)")
            continue
        if new is None:
            advisories.append(f"{name}: missing from the fresh report")
            continue
        old_wall = float(old.get("wall_seconds") or 0.0)
        new_wall = float(new.get("wall_seconds") or 0.0)
        if old_wall <= 0.0:
            continue
        ratio = new_wall / old_wall
        marker = "  <-- slower" if ratio > max_slowdown else ""
        advisories.append(
            f"{name}: {old_wall:.4f}s -> {new_wall:.4f}s ({ratio:.2f}x){marker}"
        )

    # Fidelity-improvement drift per (benchmark, preset) is advisory: the
    # >= 1 floor is the hard gate (in self_check); magnitude shifts track
    # routing-heuristic changes worth eyeballing, not build breakage.
    def fidelity_rows(report: Dict[str, Any]) -> Dict[Tuple[str, str], Dict[str, Any]]:
        section = report.get("fidelity") or {}
        return {
            (row.get("benchmark"), row.get("preset")): row
            for row in section.get("rows", [])
        }

    old_rows = fidelity_rows(committed)
    new_rows = fidelity_rows(fresh)
    for key in sorted(old_rows.keys() | new_rows.keys()):
        name = f"fidelity {key[0]}@{key[1]}"
        old = old_rows.get(key)
        new = new_rows.get(key)
        if old is None:
            advisories.append(f"{name}: new row (no committed baseline)")
            continue
        if new is None:
            advisories.append(f"{name}: missing from the fresh report")
            continue
        old_gain = float(old.get("improvement") or 0.0)
        new_gain = float(new.get("improvement") or 0.0)
        if not math.isclose(old_gain, new_gain, rel_tol=1e-9):
            advisories.append(
                f"{name}: improvement {old_gain:.6f} -> {new_gain:.6f}"
            )
    return failures, advisories


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("committed", help="committed baseline report (or the only report with --self-check)")
    parser.add_argument("fresh", nargs="?", help="freshly produced report")
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="validate a single report's bit-identity sections and schema",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=1.5,
        metavar="X",
        help="flag benchmarks slower than X times the baseline (default: 1.5)",
    )
    parser.add_argument(
        "--strict-timing",
        action="store_true",
        help="turn flagged slowdowns into hard failures (off by default: "
        "shared-runner wall clocks are advisory)",
    )
    args = parser.parse_args(argv)

    if args.self_check:
        if args.fresh is not None:
            parser.error("--self-check takes exactly one report")
        failures = self_check(load_report(args.committed), args.committed)
        if failures:
            print("perf report self-check FAILED:")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"perf report self-check passed for {args.committed}")
        return 0

    if args.fresh is None:
        parser.error("need COMMITTED and FRESH reports (or --self-check with one)")
    committed = load_report(args.committed)
    fresh = load_report(args.fresh)
    failures, advisories = compare(committed, fresh, max_slowdown=args.max_slowdown)

    print(f"perf trajectory: {args.committed} (committed) vs {args.fresh} (fresh)")
    slower = [line for line in advisories if line.endswith("<-- slower")]
    if advisories:
        print("wall-clock comparison (advisory):")
        for line in advisories:
            print(f"  {line}")
    if args.strict_timing and slower:
        failures.extend(f"slowdown beyond --max-slowdown: {line}" for line in slower)
    if failures:
        print("hard checks FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("hard checks passed (schema + bit identity).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
