"""End-to-end tests for the ``python -m repro`` CLI (repro.service.cli)."""

import csv
import io
import json

import pytest

from repro.service.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_suite_json_end_to_end_and_second_run_hits_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = [
        "suite", "--compiler", "reqisc-eff", "--workload", "qft",
        "--scale", "tiny", "--json", "--cache-dir", cache_dir,
    ]
    code, out = _run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "suite"
    assert report["errors"] == []
    assert len(report["rows"]) == 1
    row = report["rows"][0]
    assert row["category"] == "qft"
    assert row["compiler"] == "reqisc-eff"
    for key in ("num_2q", "depth_2q", "distinct_2q", "duration",
                "routing_overhead", "compile_seconds"):
        assert key in row

    # Second run on the same suite must show nonzero synthesis-cache hits,
    # served from the on-disk store of the first run.
    code, out = _run(capsys, *argv)
    assert code == 0
    second = json.loads(out)
    assert second["cache"]["hits"] > 0
    assert second["cache"]["disk_hits"] > 0
    assert second["cache"]["misses"] == 0
    assert second["rows"] == report["rows"] or _rows_equal(second["rows"], report["rows"])


def _rows_equal(a, b):
    """Row equality ignoring wall-clock compile time."""
    def strip(rows):
        return [{k: v for k, v in row.items() if k != "compile_seconds"} for row in rows]
    return strip(a) == strip(b)


def test_suite_parallel_workers_match_sequential(tmp_path, capsys):
    base = [
        "suite", "--compiler", "reqisc-eff", "--workload", "qft", "--workload", "grover",
        "--scale", "tiny", "--json", "--cache-dir", str(tmp_path / "cache"),
    ]
    code, out = _run(capsys, *base)
    assert code == 0
    sequential = json.loads(out)
    code, out = _run(capsys, *base, "--workers", "2")
    assert code == 0
    parallel = json.loads(out)
    assert _rows_equal(sequential["rows"], parallel["rows"])


def test_suite_csv_output(tmp_path, capsys):
    code, out = _run(
        capsys,
        "suite", "--compiler", "reqisc-eff", "--workload", "mult",
        "--scale", "tiny", "--csv", "--no-cache",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["category"] == "mult"
    assert "duration" in rows[0] and "num_2q" in rows[0]


def test_compile_workload_json_includes_passes(tmp_path, capsys):
    code, out = _run(
        capsys,
        "compile", "--workload", "qft", "--compiler", "reqisc-eff",
        "--scale", "tiny", "--json", "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "compile"
    assert report["rows"][0]["benchmark"] == "qft_4"
    pass_names = [record["name"] for record in report["passes"]]
    assert "template_synthesis" in pass_names
    assert "finalize_to_can" in pass_names


def test_compile_qasm_file(tmp_path, capsys):
    qasm = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
"""
    path = tmp_path / "bell.qasm"
    path.write_text(qasm)
    code, out = _run(
        capsys,
        "compile", "--qasm", str(path), "--compiler", "reqisc-eff",
        "--json", "--no-cache",
    )
    assert code == 0
    report = json.loads(out)
    assert report["rows"][0]["num_qubits"] == 2
    assert report["rows"][0]["num_2q"] >= 1


def test_bench_reports_reductions(tmp_path, capsys):
    code, out = _run(
        capsys,
        "bench", "--workload", "grover", "--scale", "tiny",
        "--compilers", "qiskit-like,reqisc-eff", "--json",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    report = json.loads(out)
    assert [row["compiler"] for row in report["rows"]] == ["qiskit-like", "reqisc-eff"]
    for row in report["rows"]:
        assert "2q_reduction_pct" in row
        assert "duration_reduction_pct" in row
    # The CNOT reference reduces by definition to 0% for itself at best.
    assert report["reference"]["num_2q"] > 0


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = _run(
        capsys,
        "suite", "--compiler", "reqisc-eff", "--workload", "square",
        "--scale", "tiny", "--json", "--no-cache", "--output", str(target),
    )
    assert code == 0
    report = json.loads(target.read_text())
    assert report["rows"][0]["category"] == "square"


def test_list_subcommand(capsys):
    code, out = _run(capsys, "list", "--json")
    assert code == 0
    payload = json.loads(out)
    assert "qft" in payload["workloads"]
    assert "reqisc-full" in payload["compilers"]


def test_unknown_workload_exits_with_message(capsys):
    with pytest.raises(SystemExit):
        main(["compile", "--workload", "not-a-workload", "--no-cache"])


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--workload", "qft", "--scale", "tiny", "--compiler", "nope"],
        ["bench", "--workload", "qft", "--scale", "tiny", "--compilers", "reqisc-eff,nope"],
        ["suite", "--workload", "qft", "--scale", "tiny", "--compiler", "nope"],
        ["chaos", "--compiler", "nope"],
    ],
)
def test_unknown_compiler_exits_before_any_compile(argv, monkeypatch):
    import repro.target.api

    def refuse(*args, **kwargs):
        raise AssertionError("compiled before --compiler was validated")

    monkeypatch.setattr(repro.target.api, "compile", refuse)
    with pytest.raises(SystemExit, match=r"invalid --compiler 'nope'; available: .*reqisc-eff"):
        main(argv + (["--no-cache"] if argv[0] != "chaos" else []))


def test_chaos_window_fits_the_soak_when_not_given(monkeypatch):
    import repro.resilience

    plans = []

    def fake_run_chaos(plan, **kwargs):
        plans.append(plan)
        return {"ok": True}

    monkeypatch.setattr(repro.resilience, "run_chaos", fake_run_chaos)
    argv = ["chaos", "--scale", "tiny", "--requests-per-circuit", "1", "--faults", "10", "--json"]
    assert main(argv) == 0
    assert main(argv + ["--window", "40"]) == 0
    derived, given = plans
    # The 17 distinct tiny programs are dispatched at least once each, so the
    # worker and clock layers draw at least 17 times and the socket layer
    # (one draw per response) as often: every such fault must land below 17.
    assert derived.window == 17
    for layer in ("worker", "clock", "socket"):
        assert derived.schedule(layer) and max(derived.schedule(layer)) < 17
    assert given.window == 40


def test_chaos_spec_without_window_fits_the_soak(monkeypatch):
    import repro.resilience

    plans = []

    def fake_run_chaos(plan, **kwargs):
        plans.append(plan)
        return {"ok": True}

    monkeypatch.setattr(repro.resilience, "run_chaos", fake_run_chaos)
    argv = ["chaos", "--scale", "tiny", "--requests-per-circuit", "1", "--json", "--spec"]
    assert main(argv + ['{"seed": 42, "faults": 10}']) == 0
    assert main(argv + ['{"seed": 42, "faults": 10, "window": 40}']) == 0
    derived, given = plans
    # Same window as the --faults path: the 17 distinct tiny programs.
    assert derived.window == 17
    assert derived.seed == 42 and derived.total_faults() == 10
    for layer in ("worker", "clock", "socket"):
        assert derived.schedule(layer) and max(derived.schedule(layer)) < 17
    assert given.window == 40
    with pytest.raises(SystemExit, match="not valid JSON"):
        main(argv + ["{faults"])


def test_parser_rejects_json_and_csv_together():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["suite", "--json", "--csv"])


@pytest.mark.parametrize(
    "argv",
    [
        ["compile", "--workload", "qft", "--memo"],
        ["submit", "prog.qasm", "--session", "edits"],
    ],
)
def test_removed_memo_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_fault_injection_flag_is_a_usage_error(tmp_path, capsys):
    sock = tmp_path / "serve.sock"
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--address", str(sock), "--enable-fault-injection"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --enable-fault-injection" in capsys.readouterr().err
    assert not sock.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--workers", "0"),
        ("--max-pending", "0"),
        ("--job-timeout", "0"),
        ("--max-qubits", "0"),
        ("--cache-capacity", "0"),
    ],
)
def test_serve_refuses_settings_that_can_never_answer(tmp_path, flag, value):
    sock = tmp_path / "serve.sock"
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--address", str(sock), "--no-cache", flag, value])
    assert excinfo.value.code not in (0, None)
    assert "invalid" in str(excinfo.value.code)
    assert flag.lstrip("-").replace("-", "_") in str(excinfo.value.code)
    assert not sock.exists()  # refused before the socket was bound


def _run_removed_perf_subcommand():
    main(["perf", "--quick"])


def _read_removed_perf_export():
    import repro

    return repro.run_perf


def _build_removed_boundary_option():
    from repro.compiler.passes.base import PassManager

    return PassManager(force_circuit_boundaries=True)


@pytest.mark.parametrize(
    "use, error",
    [
        (_run_removed_perf_subcommand, SystemExit),
        (_read_removed_perf_export, AttributeError),
        (_build_removed_boundary_option, TypeError),
    ],
    ids=["cli-perf", "repro.run_perf", "force_circuit_boundaries"],
)
def test_removed_perf_harness_surfaces_fail_loudly(use, error, capsys):
    # The old timing harness is gone; its entry points must not linger.
    with pytest.raises(error) as excinfo:
        use()
    if error is SystemExit:
        assert excinfo.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err


_BELL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


def test_compile_positional_qasm_source_emit_qasm(tmp_path, capsys):
    path = tmp_path / "bell.qasm"
    path.write_text(_BELL_QASM)
    code, out = _run(capsys, "compile", str(path), "--compiler", "reqisc-eff",
                     "--no-cache", "--emit", "qasm")
    assert code == 0
    assert out.startswith("OPENQASM 2.0;")
    # The emitted text is itself ingestible (closed loop).
    from repro.qasm import loads

    compiled = loads(out)
    assert compiled.num_qubits == 2
    assert len(compiled) > 0


def test_compile_positional_workload_source(tmp_path, capsys):
    code, out = _run(capsys, "compile", "qft", "--compiler", "reqisc-eff",
                     "--scale", "tiny", "--json", "--no-cache")
    assert code == 0
    assert json.loads(out)["rows"][0]["benchmark"] == "qft_4"


def test_compile_source_conflicts_with_flags(tmp_path):
    with pytest.raises(SystemExit):
        main(["compile", "qft", "--workload", "qft", "--no-cache"])
    with pytest.raises(SystemExit):
        main(["compile", "--no-cache"])


def test_compile_invalid_qasm_fails_cleanly(tmp_path):
    path = tmp_path / "broken.qasm"
    path.write_text("qreg q[1];\nfrobnicate q[0];\n")
    with pytest.raises(SystemExit, match="invalid QASM"):
        main(["compile", str(path), "--no-cache"])


def test_suite_with_external_qasm_programs(tmp_path, capsys):
    path = tmp_path / "bell.qasm"
    path.write_text(_BELL_QASM)
    code, out = _run(capsys, "suite", "--compiler", "reqisc-eff",
                     "--qasm", str(path), "--json", "--no-cache")
    assert code == 0
    report = json.loads(out)
    assert report["errors"] == []
    assert len(report["rows"]) == 1
    assert report["rows"][0]["category"] == "qasm"
    assert report["rows"][0]["benchmark"] == "bell"


def test_suite_emit_qasm_to_directory(tmp_path, capsys):
    outdir = tmp_path / "corpus"
    outdir.mkdir()
    code, _ = _run(capsys, "suite", "--compiler", "reqisc-eff",
                   "--workload", "qft", "--scale", "tiny", "--no-cache",
                   "--emit", "qasm", "--output", str(outdir))
    assert code == 0
    files = sorted(outdir.glob("*.qasm"))
    assert [f.name for f in files] == ["qft_4.qasm"]
    from repro.qasm import load

    assert len(load(files[0])) > 0


def test_bench_emit_qasm_sections(tmp_path, capsys):
    code, out = _run(capsys, "bench", "--workload", "qft", "--scale", "tiny",
                     "--compilers", "qiskit-like,reqisc-eff", "--no-cache",
                     "--emit", "qasm")
    assert code == 0
    assert out.count("OPENQASM 2.0;") == 2
    assert "// == qft_4 [qiskit-like] ==" in out
    assert "// == qft_4 [reqisc-eff] ==" in out


def test_compile_workload_name_beats_stray_file(tmp_path, capsys, monkeypatch):
    # A file or directory in cwd named like a workload must not hijack the
    # positional SOURCE resolution.
    (tmp_path / "qft").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out = _run(capsys, "compile", "qft", "--compiler", "reqisc-eff",
                     "--scale", "tiny", "--json", "--no-cache")
    assert code == 0
    assert json.loads(out)["rows"][0]["benchmark"] == "qft_4"


def test_emit_qasm_directory_never_overwrites_on_name_collision(tmp_path, capsys):
    path_a = tmp_path / "bell.qasm"
    path_a.write_text(_BELL_QASM)
    sub = tmp_path / "sub"
    sub.mkdir()
    path_b = sub / "bell.qasm"  # same stem -> same sanitized name
    path_b.write_text(_BELL_QASM)
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, _ = _run(capsys, "suite", "--compiler", "reqisc-eff",
                   "--qasm", str(path_a), "--qasm", str(path_b), "--no-cache",
                   "--emit", "qasm", "--output", str(outdir))
    assert code == 0
    assert sorted(f.name for f in outdir.glob("*.qasm")) == ["bell-1.qasm", "bell.qasm"]


def test_emit_qasm_rejects_conflicting_format_flags(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text(_BELL_QASM)
    for flag in (["--json"], ["--csv"], ["--format", "json"]):
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["compile", str(path), "--no-cache", "--emit", "qasm", *flag])


def test_suite_broken_qasm_file_is_an_error_entry_not_an_abort(tmp_path, capsys):
    good = tmp_path / "good.qasm"
    good.write_text(_BELL_QASM)
    broken = tmp_path / "broken.qasm"
    broken.write_text("qreg q[1];\nfrobnicate q[0];\n")
    code, out = _run(capsys, "suite", "--compiler", "reqisc-eff",
                     "--qasm", str(good), "--qasm", str(broken),
                     "--json", "--no-cache")
    assert code == 1
    report = json.loads(out)
    assert [row["benchmark"] for row in report["rows"]] == ["good"]
    assert len(report["errors"]) == 1
    assert report["errors"][0][0] == "broken"
    assert "frobnicate" in report["errors"][0][1]


# ---------------------------------------------------------------------------
# Structured exit codes (docs/cli.md "Exit codes"): one distinct code per
# protocol error code, plus EXIT_UNAVAILABLE for "could not reach the daemon".
# ---------------------------------------------------------------------------


def test_exit_codes_cover_every_protocol_error_code_distinctly():
    from repro.service.cli import EXIT_CODES, EXIT_UNAVAILABLE
    from repro.service.protocol import ERROR_CODES

    assert set(EXIT_CODES) == set(ERROR_CODES)
    values = list(EXIT_CODES.values()) + [EXIT_UNAVAILABLE]
    assert len(values) == len(set(values)), "exit codes must be distinct"
    # 0 = success and 1 = generic failure are taken; 2 is argparse's usage
    # error.  The structured range starts at 10 so scripts can tell them apart.
    assert all(value >= 10 for value in values)


def test_submit_unreachable_daemon_exits_with_unavailable(tmp_path, capsys):
    from repro.service.cli import EXIT_UNAVAILABLE

    missing = str(tmp_path / "nowhere.sock")
    code, _ = _run(capsys, "submit", "--address", missing, "--ping")
    assert code == EXIT_UNAVAILABLE


def test_submit_maps_daemon_error_to_structured_exit_code(tmp_path, capsys):
    from repro.service.cli import EXIT_CODES
    from repro.service.server import CompileServer, ServeConfig

    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n")
    config = ServeConfig(address=str(tmp_path / "cli.sock"), workers=1, cache_dir=None)
    with CompileServer(config):
        code, out = _run(capsys, "submit", "--address", config.address,
                         str(bad), "--json", "--retries", "0")
    assert code == EXIT_CODES["bad-request"]
    report = json.loads(out)
    assert report["errors"][0][2] == "bad-request"
