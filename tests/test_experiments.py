"""Tests for the experiment harness (scaled-down versions of every table/figure)."""

import math

import pytest

from repro.experiments.common import format_rows, reduction_percent
from repro.experiments.figures import (
    fig4_alpha_beta_profile,
    fig6_pulse_parameters,
    fig12_routing_overhead,
    fig13_calibration,
    fig14_ablation,
    fig15_fidelity,
    fig16_reliability,
)
from repro.experiments.tables import (
    table1_suite_characteristics,
    table2_logical_compilation,
    table3_synthesis_cost,
)
from repro.target.api import compile as target_compile
from repro.workloads.suite import benchmark_suite

FAST_CATEGORIES = ["qft", "tof"]


def test_reduction_percent():
    assert reduction_percent(100, 50) == pytest.approx(50.0)
    assert reduction_percent(0, 10) == 0.0


def test_compile_rejects_unknown_spec():
    circuit = benchmark_suite(scale="tiny", categories=["qft"])[0].circuit
    with pytest.raises(KeyError, match="unknown pipeline 'nope'"):
        target_compile(circuit, spec="nope")


def test_format_rows():
    text = format_rows([{"a": 1, "b": 2.5}], title="demo")
    assert "demo" in text and "2.500" in text
    assert "(no rows)" in format_rows([], title="x")


def test_table1_rows():
    rows = table1_suite_characteristics(scale="tiny", categories=FAST_CATEGORIES)
    assert len(rows) == 2
    for row in rows:
        assert row["num_2q"] > 0
        assert row["duration"] > 0


def test_table2_reqisc_beats_cnot_baselines():
    rows = table2_logical_compilation(
        scale="tiny",
        categories=FAST_CATEGORIES,
        compilers=["qiskit-like", "reqisc-eff"],
    )
    assert len(rows) == 2
    for row in rows:
        assert row["reqisc-eff_2q_red"] >= row["qiskit-like_2q_red"]
        assert row["reqisc-eff_dur_red"] > 30.0


def test_table3_matches_paper_values():
    rows = table3_synthesis_cost(num_samples=300, seed=1)
    by_key = {(row["coupling"], row["basis"]): row for row in rows}
    assert by_key[("xy", "cnot-conventional")]["tau_single"] == pytest.approx(math.pi / math.sqrt(2))
    assert by_key[("xy", "cnot")]["tau_single"] == pytest.approx(1.571, abs=1e-3)
    assert by_key[("xx", "cnot")]["tau_single"] == pytest.approx(0.785, abs=1e-3)
    assert by_key[("xy", "sqisw")]["tau_average"] == pytest.approx(1.736, abs=2e-3)
    assert 1.25 < by_key[("xy", "su4")]["tau_average"] < 1.45
    assert 1.10 < by_key[("xx", "su4")]["tau_average"] < 1.26
    # The SU(4) ISA beats every fixed-basis ISA on Haar-average duration.
    for basis in ("cnot", "iswap", "sqisw", "b"):
        assert by_key[("xy", "su4")]["tau_average"] < by_key[("xy", basis)]["tau_average"]


def test_fig4_profile_has_multiple_solutions():
    profile = fig4_alpha_beta_profile(resolution=15)
    assert profile["landscape"].shape == (15, 15)
    assert profile["num_near_solutions"] >= 1
    assert profile["tau"] == pytest.approx(math.pi / 4 * 3, rel=1e-6)


def test_fig6_pulse_parameters():
    rows = fig6_pulse_parameters(couplings=["xy"])
    by_gate = {row["gate"]: row for row in rows}
    assert by_gate["cnot"]["duration"] == pytest.approx(math.pi / 2)
    assert by_gate["swap"]["duration"] == pytest.approx(0.75 * math.pi)
    # iSWAP needs no local drives under XY coupling.
    assert by_gate["iswap"]["A1"] == pytest.approx(0.0, abs=1e-6)
    assert by_gate["iswap"]["A2"] == pytest.approx(0.0, abs=1e-6)


def test_fig12_routing_rows():
    rows = fig12_routing_overhead(scale="tiny", categories=["qft"], topologies=("chain",))
    row = rows[0]
    assert row["chain_su4_mirroring_2q"] <= row["chain_su4_sabre_2q"]
    assert row["chain_cnot_overhead"] >= 1.0
    assert row["chain_su4_overhead"] <= row["chain_cnot_overhead"] + 1e-9


def test_fig13_calibration_rows():
    rows = fig13_calibration(scale="tiny", categories=FAST_CATEGORIES)
    for row in rows:
        assert row["eff_distinct"] <= 12
        assert row["full_2q"] <= row["eff_2q"]


def test_fig14_ablation_rows():
    rows = fig14_ablation(scale="tiny", categories=["tof"], compilers=["qiskit-su4", "reqisc-full"])
    row = rows[0]
    assert row["reqisc-full_2q_red"] >= row["qiskit-su4_2q_red"] - 15.0
    assert row["reqisc-full_distinct"] <= row["base_2q"]


def test_fig15_fidelity_rows():
    rows = fig15_fidelity(
        scale="tiny",
        categories=["tof"],
        topologies=("logical",),
        num_trajectories=60,
        base_error_rate=5e-3,
    )
    row = rows[0]
    assert 0.0 < row["logical_baseline_fidelity"] <= 1.0
    assert row["logical_reqisc_fidelity"] >= row["logical_baseline_fidelity"] - 0.05
    assert row["logical_reqisc_duration"] < row["logical_baseline_duration"]


def test_fig16_reliability_rows():
    rows = fig16_reliability(scale="tiny", categories=["qft"], compilers=["qiskit-like", "reqisc-eff"])
    row = rows[0]
    assert row["qiskit-like_error"] < 1e-6
    assert row["reqisc-eff_error"] < 1e-6
    assert row["reqisc-eff_seconds"] > 0
