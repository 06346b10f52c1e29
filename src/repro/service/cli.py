"""The ``python -m repro`` command line (the repro CLI).

Three subcommands run workloads from :mod:`repro.workloads` through the
registered pipelines (``reqisc-full`` / ``reqisc-eff`` / baselines, see
:func:`repro.target.pipeline.pipeline_names`) and emit the
``CompilationResult.summary()`` rows as an aligned table, JSON or CSV.
``--compiler NAME`` compiles with :func:`repro.target.api.compile` and
``spec=NAME``, so a name means the same pipeline here as in the library,
the batch engine and the daemon:

``compile``
    Compile one workload (or an OpenQASM 2.0 file) with one compiler and
    print its summary row plus per-pass statistics.  ``repro compile
    prog.qasm`` ingests an external program; ``--emit qasm`` prints the
    compiled circuit as OpenQASM 2.0 instead of the summary.

``bench``
    Compile one workload with several compilers and report each compiler's
    metrics together with its reduction rates against the CNOT-ISA reference
    (the paper's Table 2 convention).

``suite``
    Run a whole benchmark-suite selection through one compiler using the
    :class:`~repro.service.batch.BatchCompiler` (``--workers N`` fans out
    across processes) and report one row per program plus synthesis-cache
    statistics.

``targets``
    List the named :class:`~repro.target.target.Target` presets accepted by
    ``--target``.

``serve``
    Run the long-lived compile daemon (:mod:`repro.service.server`): job
    intake over a Unix-domain or local TCP socket, a persistent sharded
    worker pool, content-hash request dedup and bounded-queue backpressure
    (see ``docs/serving.md``).  Settings under which the daemon could never
    answer (``--max-pending 0``, say) are refused before the socket is bound.

``submit``
    Client for a running daemon: compile OpenQASM 2.0 files over the
    socket (``repro submit prog.qasm``), or probe it with ``--ping`` /
    ``--stats`` / ``--shutdown``.

``cache``
    Maintain the on-disk segment store of the synthesis cache: ``repro
    cache stats`` reports live entries / segment files / bytes plus
    corruption counters, ``repro cache compact`` folds every live record
    into one fresh segment, and ``repro cache scrub`` CRC-verifies every
    record, salvages the valid ones out of damaged segments and
    quarantines the damage under ``segments/quarantine/`` (see
    ``docs/resilience.md``).

``chaos``
    Soak a live daemon under a seeded, reproducible
    :class:`~repro.resilience.FaultPlan` — worker crashes and hangs,
    clock-skewed deadlines, socket resets / torn frames / delays, cache
    bit-flips and truncations — then verify every completed job was
    bit-identical to its fault-free compile and that the scrubber caught
    every injected corruption.  Exits non-zero on any violation (see
    ``docs/resilience.md``).

Every compiling subcommand takes ``--target <preset-or-json-file>`` — a
preset name (``xy-line``, ``heavy-hex``, ``all-to-all``, optionally suffixed
with a qubit count like ``xy-line-16``; size-less presets are sized per
circuit) or a path to a ``Target.to_dict()`` JSON file.  The target name is
reported in every summary row.

Synthesis results are cached in ``.repro-cache/`` by default (override with
``--cache-dir``, disable with ``--no-cache``), so a second run of the same
suite reuses every KAK decomposition and approximate-synthesis result from
disk.

Examples::

    python -m repro compile --workload qft --compiler reqisc-full
    python -m repro compile prog.qasm --emit qasm --output compiled.qasm
    python -m repro bench --workload tof --compilers qiskit-like,reqisc-eff
    python -m repro suite --compiler reqisc-eff --workload qft --json
    python -m repro suite --compiler reqisc-full --scale tiny --workers 4 --csv
    python -m repro suite --compiler reqisc-eff --target xy-line --format json
    python -m repro suite --compiler reqisc-eff --qasm a.qasm --qasm b.qasm
    python -m repro cache stats
    python -m repro targets
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["EXIT_CODES", "EXIT_UNAVAILABLE", "build_parser", "main"]

_DEFAULT_CACHE_DIR = ".repro-cache"

#: Structured-error exit codes for the daemon-facing subcommands (``submit``,
#: ``chaos``): 0 is success, 1 a generic CLI failure (bad arguments, soak
#: verdict), 2 argparse misuse, and 10+ map one-to-one onto the protocol's
#: structured error codes so scripts can branch on *why* a submission failed
#: without parsing stderr.  When several files fail in one invocation the
#: exit code reflects the first failure.  Kept literal (rather than derived
#: from ``protocol.ERROR_CODES``) so the numbers are stable documentation;
#: a test asserts the two stay in sync.
EXIT_CODES = {
    "bad-request": 10,
    "too-large": 11,
    "overloaded": 12,
    "timeout": 13,
    "worker-crash": 14,
    "compile-error": 15,
    "shutting-down": 16,
    "internal": 17,
}

#: Exit code when the daemon cannot be reached at all (connect/read failure
#: that survived every retry) — distinct from every structured error.
EXIT_UNAVAILABLE = 18


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit a JSON document on stdout")
    group.add_argument("--csv", action="store_true", help="emit CSV rows on stdout")
    group.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        dest="format",
        help="output format (equivalent to --json / --csv; default: table)",
    )
    parser.add_argument("--output", metavar="PATH", help="write the report to PATH instead of stdout")


def _normalize_output_format(args: argparse.Namespace) -> None:
    """Fold ``--format`` into the legacy ``--json`` / ``--csv`` flags."""
    fmt = getattr(args, "format", None)
    if fmt == "json":
        args.json = True
    elif fmt == "csv":
        args.csv = True
    if getattr(args, "emit", "summary") == "qasm" and (
        getattr(args, "json", False) or getattr(args, "csv", False)
    ):
        raise SystemExit("--emit qasm produces OpenQASM text; it cannot be combined with --json/--csv/--format")


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"on-disk synthesis cache directory (default: {_DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=4096,
        metavar="N",
        help="in-memory cache entries before LRU eviction (default: 4096)",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the synthesis cache")


def _add_emit_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--emit",
        choices=("summary", "qasm"),
        default="summary",
        help=(
            "output payload: 'summary' (default) for metric rows, 'qasm' to "
            "print the compiled circuit(s) as OpenQASM 2.0 (with --output "
            "pointing at an existing directory, one .qasm file per program)"
        ),
    )


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=("tiny", "small", "medium"),
        default="small",
        help="benchmark-suite scale (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed (default: 0)")
    parser.add_argument(
        "--target",
        metavar="PRESET|PATH",
        default=None,
        help=(
            "device target: a preset name (see `repro targets`; size-less "
            "presets are sized per circuit) or a Target JSON file "
            "(default: logical, no topology constraint)"
        ),
    )
    _add_cache_arguments(parser)
    _add_output_arguments(parser)
    _add_emit_argument(parser)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Compile quantum workloads with the ReQISC/Regulus reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile one workload (or QASM file) with one compiler"
    )
    compile_parser.add_argument(
        "source",
        nargs="?",
        metavar="SOURCE",
        help="benchmark category, or a path to an OpenQASM 2.0 file (*.qasm)",
    )
    source = compile_parser.add_mutually_exclusive_group(required=False)
    source.add_argument("--workload", metavar="NAME", help="benchmark category to compile")
    source.add_argument("--qasm", metavar="PATH", help="OpenQASM 2.0 file to compile")
    compile_parser.add_argument(
        "--compiler", default="reqisc-full", metavar="NAME", help="compiler name (default: reqisc-full)"
    )
    _add_common_arguments(compile_parser)

    bench_parser = subparsers.add_parser(
        "bench", help="compare several compilers on one workload"
    )
    bench_parser.add_argument("--workload", required=True, metavar="NAME", help="benchmark category")
    bench_parser.add_argument(
        "--compilers",
        default="qiskit-like,reqisc-eff,reqisc-full",
        metavar="A,B,...",
        help="comma-separated compiler names (default: qiskit-like,reqisc-eff,reqisc-full)",
    )
    _add_common_arguments(bench_parser)

    suite_parser = subparsers.add_parser(
        "suite", help="run a benchmark-suite selection through one compiler"
    )
    suite_parser.add_argument(
        "--compiler", default="reqisc-full", metavar="NAME", help="compiler name (default: reqisc-full)"
    )
    suite_parser.add_argument(
        "--workload",
        action="append",
        metavar="NAME",
        help="restrict to this benchmark category (repeatable; default: whole suite)",
    )
    suite_parser.add_argument(
        "--workers", type=int, default=1, metavar="N", help="worker processes (default: 1)"
    )
    suite_parser.add_argument(
        "--max-qubits", type=int, default=None, metavar="N", help="skip programs larger than N qubits"
    )
    suite_parser.add_argument(
        "--qasm",
        action="append",
        metavar="PATH",
        help="add an external OpenQASM 2.0 program to the selection (repeatable)",
    )
    _add_common_arguments(suite_parser)

    list_parser = subparsers.add_parser(
        "list", help="list available workloads and compiler names"
    )
    list_parser.add_argument("--json", action="store_true", help="emit JSON instead of text")

    targets_parser = subparsers.add_parser(
        "targets", help="list the named device-target presets accepted by --target"
    )
    targets_parser.add_argument("--json", action="store_true", help="emit JSON instead of text")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the long-lived compile daemon (see docs/serving.md)",
        description=(
            "Run a resident compile service: NDJSON job intake over a socket, "
            "a persistent sharded worker pool with per-job timeouts and crash "
            "isolation, content-hash request dedup, and bounded-queue "
            "backpressure.  Clients connect with `repro submit`."
        ),
    )
    serve_parser.add_argument(
        "--address",
        default=".repro-serve.sock",
        metavar="ADDR",
        help=(
            "socket to listen on: a filesystem path or unix:PATH for a "
            "Unix-domain socket, tcp:HOST:PORT for TCP "
            "(default: .repro-serve.sock)"
        ),
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N", help="persistent worker processes (default: 2)"
    )
    serve_parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="queued+running jobs before new work is refused as overloaded (default: 64)",
    )
    serve_parser.add_argument(
        "--job-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="default per-job deadline; a job past it is killed and fails alone (default: 60)",
    )
    serve_parser.add_argument(
        "--max-qubits",
        type=int,
        default=64,
        metavar="N",
        help="reject circuits larger than N qubits (default: 64)",
    )
    _add_cache_arguments(serve_parser)
    serve_parser.add_argument(
        "--compact-on-shutdown",
        action="store_true",
        help="fold the on-disk cache's segment files into one on clean shutdown",
    )

    submit_parser = subparsers.add_parser(
        "submit",
        help="compile programs via a running `repro serve` daemon",
        description=(
            "Connect to a running `repro serve` daemon and compile OpenQASM "
            "2.0 files over the socket, or probe the daemon with --ping / "
            "--stats / --shutdown."
        ),
    )
    submit_parser.add_argument(
        "qasm", nargs="*", metavar="QASM", help="OpenQASM 2.0 file(s) to compile"
    )
    submit_parser.add_argument(
        "--address",
        default=".repro-serve.sock",
        metavar="ADDR",
        help="daemon socket (path, unix:PATH or tcp:HOST:PORT; default: .repro-serve.sock)",
    )
    submit_parser.add_argument(
        "--compiler", default="reqisc-eff", metavar="NAME", help="compiler name (default: reqisc-eff)"
    )
    submit_parser.add_argument("--seed", type=int, default=0, help="compile seed (default: 0)")
    submit_parser.add_argument(
        "--target", metavar="PRESET", default=None, help="device-target preset name (see `repro targets`)"
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS", help="per-job deadline override"
    )
    submit_parser.add_argument(
        "--priority",
        type=int,
        default=None,
        metavar="0-9",
        help=(
            "scheduling priority (0 lowest .. 9 highest, default 5); under "
            "degraded load the daemon sheds low-priority work first"
        ),
    )
    submit_parser.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help=(
            "retries after the first attempt for transient failures "
            "(overloaded / timeout / worker-crash / lost connections), with "
            "bounded exponential backoff honoring the daemon's retry-after "
            "hint; 0 disables (default: 3)"
        ),
    )
    submit_parser.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "race a duplicate request on a fresh connection if the primary "
            "has not answered within SECONDS (idempotent-safe: the daemon "
            "dedups in-flight work; default: disabled)"
        ),
    )
    submit_parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="socket connect timeout (default: 10)",
    )
    submit_parser.add_argument(
        "--read-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="socket read timeout per response (default: 120)",
    )
    submit_parser.add_argument("--ping", action="store_true", help="liveness probe, then exit")
    submit_parser.add_argument("--stats", action="store_true", help="print the daemon's counter snapshot")
    submit_parser.add_argument(
        "--health", action="store_true", help="print the daemon's watchdog health report"
    )
    submit_parser.add_argument(
        "--shutdown", action="store_true", help="ask the daemon to shut down (after any compiles)"
    )
    _add_output_arguments(submit_parser)
    _add_emit_argument(submit_parser)

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect or compact the on-disk synthesis cache",
        description=(
            "Maintain the append-only segment store of the synthesis cache: "
            "`stats` reports live entries, segment files and bytes on disk; "
            "`compact` folds every "
            "live record into one fresh segment and deletes the superseded "
            "files (run it without concurrent writers); `scrub` CRC-verifies "
            "every record, salvages valid records out of damaged segments and "
            "quarantines the damaged files under segments/quarantine/ "
            "(see docs/resilience.md)."
        ),
    )
    cache_parser.add_argument(
        "action", choices=("stats", "compact", "scrub"), help="what to do with the cache directory"
    )
    cache_parser.add_argument(
        "--cache-dir",
        default=_DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"cache directory to operate on (default: {_DEFAULT_CACHE_DIR})",
    )
    cache_parser.add_argument("--json", action="store_true", help="emit JSON instead of text")

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="soak a live daemon under seeded fault injection (see docs/resilience.md)",
        description=(
            "Boot a real compile daemon with a seeded FaultPlan armed across "
            "all four layers (worker crashes/hangs, clock-skewed deadlines, "
            "socket resets/torn frames/delays, cache bit-flips/truncations), "
            "drive it with resilient clients, then cold-reopen the cache and "
            "scrub it.  The soak passes only if every completed job is "
            "bit-identical to its fault-free compile, no job was "
            "unrecoverable, no client hung, and every injected corruption "
            "was quarantined.  Exits 1 on any violation."
        ),
    )
    chaos_parser.add_argument(
        "--faults", type=int, default=50, metavar="N",
        help="total faults to schedule, spread round-robin across layers (default: 50)",
    )
    chaos_parser.add_argument("--seed", type=int, default=42, help="fault-plan seed (default: 42)")
    chaos_parser.add_argument(
        "--window", type=int, default=None, metavar="N",
        help=(
            "schedule window: faults land on draws [0, N) per layer (default: the "
            "number of distinct programs the soak dispatches, or --faults if larger)"
        ),
    )
    chaos_parser.add_argument(
        "--spec", metavar="JSON|PATH", default=None,
        help=(
            "explicit plan instead of --faults: a JSON object (or a path to "
            "one) like '{\"seed\": 7, \"counts\": {\"worker.raise\": 5}}' "
            "accepted by FaultPlan.from_spec"
        ),
    )
    chaos_parser.add_argument(
        "--scale", choices=("tiny", "small", "medium"), default="tiny",
        help="benchmark-suite scale to drive through the daemon (default: tiny)",
    )
    chaos_parser.add_argument(
        "--compiler", default="reqisc-eff", metavar="NAME",
        help="compiler under test (default: reqisc-eff)",
    )
    chaos_parser.add_argument(
        "--clients", type=int, default=4, metavar="N", help="concurrent client threads (default: 4)"
    )
    chaos_parser.add_argument(
        "--workers", type=int, default=2, metavar="N", help="daemon worker processes (default: 2)"
    )
    chaos_parser.add_argument(
        "--requests-per-circuit", type=int, default=3, metavar="N",
        help="times each suite program is submitted (default: 3)",
    )
    chaos_parser.add_argument(
        "--job-timeout", type=float, default=30.0, metavar="SECONDS",
        help="daemon per-job deadline (default: 30)",
    )
    chaos_parser.add_argument(
        "--wall-deadline", type=float, default=600.0, metavar="SECONDS",
        help="whole-soak deadline; a client alive past it counts as hung (default: 600)",
    )
    chaos_parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="also write the full JSON report to PATH",
    )
    chaos_parser.add_argument("--json", action="store_true", help="print the full report as JSON")

    return parser


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _make_cache(args: argparse.Namespace):
    from repro.service.cache import SynthesisCache

    if getattr(args, "no_cache", False):
        return None
    directory = args.cache_dir or None
    return SynthesisCache(capacity=args.cache_capacity, directory=directory)


def _load_workload(name: str, scale: str):
    from repro.workloads.suite import benchmark_suite, suite_categories

    categories = suite_categories()
    if name not in categories:
        raise SystemExit(
            f"unknown workload {name!r}; available: {', '.join(categories)}"
        )
    return benchmark_suite(scale=scale, categories=[name])[0]


def _compiler_argument(names: Sequence[str]) -> List[str]:
    """Validate compiler names early so typos fail with a clean message."""
    from repro.target.pipeline import pipeline_names

    known = pipeline_names()
    for name in names:
        if name not in known:
            raise SystemExit(f"invalid --compiler {name!r}; available: {', '.join(known)}")
    return list(names)


def _target_argument(args: argparse.Namespace) -> Optional[str]:
    """Validate ``--target`` early so typos fail with a clean message."""
    spec = getattr(args, "target", None)
    if spec is None:
        return None
    from repro.target.target import resolve_target

    try:
        # A dummy qubit count sizes size-less presets just for validation;
        # the real resolution happens per circuit at compile time.
        resolve_target(spec, num_qubits=2)
    except (ValueError, TypeError, OSError, KeyError) as exc:
        raise SystemExit(f"invalid --target {spec!r}: {exc}")
    return spec


def _render(report: Dict[str, Any], rows: List[Dict[str, Any]], args: argparse.Namespace) -> str:
    """Serialize a report as JSON, CSV (rows only) or an aligned text table."""
    if getattr(args, "json", False):
        return json.dumps(report, indent=2, default=_json_default)
    if getattr(args, "csv", False):
        buffer = io.StringIO()
        columns: List[str] = []
        for row in rows:
            for column in row:
                if column not in columns:
                    columns.append(column)
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    from repro.experiments.common import format_rows

    lines = [format_rows(rows, title=report.get("title", ""))]
    cache = report.get("cache")
    if cache:
        lines.append(
            "cache: hits={hits} (disk {disk_hits})  misses={misses}  evictions={evictions}".format(**cache)
        )
    if "elapsed_seconds" in report:
        lines.append(f"elapsed: {report['elapsed_seconds']:.2f}s")
    # suite errors are (name, message); submit errors carry a third element,
    # the structured protocol error code.
    for entry in report.get("errors", []):
        lines.append(f"ERROR {entry[0]}: {entry[1]}")
    return "\n".join(lines)


def _json_default(value: Any) -> Any:
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    return str(value)


def _emit(text: str, args: argparse.Namespace) -> None:
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {output}", file=sys.stderr)
    else:
        print(text)


def _load_qasm_circuit(path: str):
    """Load a QASM file for the CLI, converting errors to clean exits."""
    from repro.qasm import QasmError, load

    try:
        return load(path)
    except OSError as exc:
        raise SystemExit(f"cannot read QASM file {path!r}: {exc}")
    except QasmError as exc:
        raise SystemExit(f"invalid QASM in {path!r}: {exc}")


def _emit_qasm_sections(sections: List[Tuple[str, str]], args: argparse.Namespace) -> None:
    """Emit ``(name, qasm_text)`` sections; a directory --output gets one
    ``<name>.qasm`` file per section, anything else a concatenated stream."""
    import os
    import re

    output = getattr(args, "output", None)
    if output and os.path.isdir(output):
        taken: set = set()
        for name, text in sections:
            safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "circuit"
            # Sanitizing can collide distinct section names; never overwrite.
            candidate = safe
            serial = 1
            while candidate in taken:
                candidate = f"{safe}-{serial}"
                serial += 1
            taken.add(candidate)
            path = os.path.join(output, f"{candidate}.qasm")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {path}", file=sys.stderr)
        return
    blocks = []
    for name, text in sections:
        prefix = f"// == {name} ==\n" if len(sections) > 1 else ""
        blocks.append(prefix + text.rstrip("\n"))
    _emit("\n".join(blocks), args)


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------


def _resolve_compile_source(args: argparse.Namespace) -> Tuple[Any, str]:
    """Resolve the compile subcommand's circuit from SOURCE/--workload/--qasm."""
    import os

    source = getattr(args, "source", None)
    if source and (args.workload or args.qasm):
        raise SystemExit("give either a positional SOURCE or --workload/--qasm, not both")
    if source:
        # Resolution order: an explicit .qasm suffix always means a file;
        # a known workload name always means the workload (so a stray file
        # or directory in cwd named `qft` cannot hijack the command); any
        # other existing regular file is read as QASM.
        from repro.workloads.suite import suite_categories

        if source.endswith(".qasm"):
            args.qasm = source
        elif source in suite_categories():
            args.workload = source
        elif os.path.isfile(source):
            args.qasm = source
        else:
            args.workload = source
    if args.qasm:
        circuit = _load_qasm_circuit(args.qasm)
        return circuit, circuit.name
    if not args.workload:
        raise SystemExit("nothing to compile: give a SOURCE, --workload or --qasm")
    case = _load_workload(args.workload, args.scale)
    return case.circuit, case.name


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.target.api import compile as target_compile

    _compiler_argument([args.compiler])
    cache = _make_cache(args)
    circuit, name = _resolve_compile_source(args)

    target = _target_argument(args)
    start = time.perf_counter()
    result = target_compile(circuit, target=target, spec=args.compiler, seed=args.seed, synthesis_cache=cache)
    elapsed = time.perf_counter() - start

    if args.emit == "qasm":
        from repro.qasm import dumps

        _emit_qasm_sections([(name, dumps(result.circuit))], args)
        return 0

    row: Dict[str, Any] = {"benchmark": name, "num_qubits": circuit.num_qubits}
    row.update(result.summary())
    report = {
        "command": "compile",
        "title": f"compile {name} [{args.compiler}]",
        "target": target,
        "rows": [row],
        "passes": [vars(record) for record in result.pass_records],
        "cache": cache.stats.as_dict() if cache else None,
        "elapsed_seconds": elapsed,
    }
    text = _render(report, [row], args)
    if not (getattr(args, "json", False) or getattr(args, "csv", False)):
        from repro.experiments.common import format_rows

        pass_rows = [
            {
                "pass": record.name,
                "seconds": record.seconds,
                "gates": f"{record.gates_before}->{record.gates_after}",
                "2q": f"{record.two_qubit_before}->{record.two_qubit_after}",
                "depth": f"{record.depth_before}->{record.depth_after}",
                "writes": ",".join(record.properties_written) or "-",
            }
            for record in result.pass_records
        ]
        if pass_rows:
            text += "\n" + format_rows(pass_rows, title="passes")
    _emit(text, args)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.common import (
        reduction_percent,
        reference_cnot_circuit,
        reference_metrics,
    )
    from repro.target.api import compile as target_compile

    names = _compiler_argument([name.strip() for name in args.compilers.split(",") if name.strip()])
    cache = _make_cache(args)
    case = _load_workload(args.workload, args.scale)

    target = _target_argument(args)
    reference = reference_cnot_circuit(case.circuit)
    base = reference_metrics(reference)

    def run(name: str):
        return target_compile(case.circuit, target=target, spec=name, seed=args.seed, synthesis_cache=cache)

    start = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    if args.emit == "qasm":
        from repro.qasm import dumps

        sections = [(f"{case.name} [{name}]", dumps(run(name).circuit)) for name in names]
        _emit_qasm_sections(sections, args)
        return 0
    for name in names:
        result = run(name)
        # ``summary()`` is ISA-aware (CNOT pulse for CNOT-ISA baselines,
        # genAshN for SU(4) results), so the reductions below follow the
        # paper's Table 2 convention directly.
        row: Dict[str, Any] = {"benchmark": case.name}
        row.update(result.summary())
        row["2q_reduction_pct"] = reduction_percent(base["num_2q"], row["num_2q"])
        row["depth_reduction_pct"] = reduction_percent(base["depth_2q"], row["depth_2q"])
        row["duration_reduction_pct"] = reduction_percent(base["duration"], row["duration"])
        rows.append(row)
    elapsed = time.perf_counter() - start

    report = {
        "command": "bench",
        "title": f"bench {case.name} (reference #2Q = {base['num_2q']})",
        "target": target,
        "reference": base,
        "rows": rows,
        "cache": cache.stats.as_dict() if cache else None,
        "elapsed_seconds": elapsed,
    }
    _emit(_render(report, rows, args), args)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.service.batch import BatchCompiler
    from repro.workloads.suite import benchmark_suite, suite_categories

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    _compiler_argument([args.compiler])
    cache = _make_cache(args)
    categories: Optional[List[str]] = args.workload or None
    if categories:
        known = suite_categories()
        for category in categories:
            if category not in known:
                raise SystemExit(
                    f"unknown workload {category!r}; available: {', '.join(known)}"
                )
    cases: List[Any] = []
    if categories or not args.qasm:
        cases.extend(
            benchmark_suite(scale=args.scale, categories=categories, max_qubits=args.max_qubits)
        )
    # A broken corpus file fails like a broken compile: its own error entry,
    # never the whole batch (the suite contract).
    qasm_errors: List[Tuple[str, str]] = []
    if args.qasm:
        import os

        from repro.qasm import QasmError
        from repro.workloads.suite import qasm_cases

        for path in args.qasm:
            try:
                cases.extend(qasm_cases([path], max_qubits=args.max_qubits))
            except (OSError, QasmError) as exc:
                stem = os.path.splitext(os.path.basename(path))[0] or path
                qasm_errors.append((stem, str(exc)))
    if not cases:
        if qasm_errors:
            for name, message in qasm_errors:
                print(f"ERROR {name}: {message}", file=sys.stderr)
            return 1
        raise SystemExit("the requested suite selection is empty")

    target = _target_argument(args)
    engine = BatchCompiler(
        compiler=args.compiler,
        workers=args.workers,
        seed=args.seed,
        cache=cache,
        target=target,
    )
    batch = engine.compile_all(cases)

    if args.emit == "qasm":
        from repro.qasm import dumps

        sections = [
            (item.name, dumps(item.result.circuit))
            for item in batch.items
            if item.result is not None
        ]
        _emit_qasm_sections(sections, args)
        for name, message in qasm_errors + list(batch.errors):
            print(f"ERROR {name}: {message}", file=sys.stderr)
        return 1 if (batch.errors or qasm_errors) else 0

    rows: List[Dict[str, Any]] = []
    for case, item in zip(cases, batch.items):
        if item.result is None:
            continue
        row: Dict[str, Any] = {
            "category": case.category,
            "benchmark": case.name,
            "num_qubits": case.num_qubits,
        }
        row.update(item.result.summary())
        rows.append(row)

    report = {
        "command": "suite",
        "title": f"suite [{args.compiler}] scale={args.scale} workers={args.workers}",
        "compiler": args.compiler,
        "target": target,
        "scale": args.scale,
        "workers": args.workers,
        "seed": args.seed,
        "rows": rows,
        "errors": qasm_errors + list(batch.errors),
        "cache": batch.cache_stats.as_dict() if cache else None,
        "elapsed_seconds": batch.elapsed_seconds,
    }
    _emit(_render(report, rows, args), args)
    return 1 if (batch.errors or qasm_errors) else 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.target.pipeline import pipeline_names
    from repro.target.target import target_presets
    from repro.workloads.suite import suite_categories

    payload = {
        "workloads": suite_categories(),
        "compilers": pipeline_names(),
        "targets": sorted(target_presets()),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("workloads: " + ", ".join(payload["workloads"]))
        print("compilers: " + ", ".join(payload["compilers"]))
        print("targets:   " + ", ".join(payload["targets"]))
    return 0


def _cmd_targets(args: argparse.Namespace) -> int:
    from repro.target.target import target_preset_info, target_presets

    presets = target_presets()
    info = target_preset_info()
    if args.json:
        # "targets" keeps its historical name->description shape; the
        # calibration flags ride alongside so existing consumers don't break.
        payload = {
            "targets": presets,
            "calibrated": {name: entry["calibrated"] for name, entry in info.items()},
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(name) for name in presets)
        print("target presets (use with --target; or pass a Target JSON file):")
        for name, description in presets.items():
            marker = "calibrated" if info[name]["calibrated"] else "          "
            print(f"  {name.ljust(width)}  {marker}  {description}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service.protocol import format_address
    from repro.service.server import CompileServer, ServeConfig

    cache_dir = None if args.no_cache else (args.cache_dir or None)
    try:
        config = ServeConfig(
            address=args.address,
            workers=args.workers,
            max_pending=args.max_pending,
            job_timeout=args.job_timeout,
            max_qubits=args.max_qubits,
            cache_dir=cache_dir,
            cache_capacity=args.cache_capacity,
            compact_cache_on_shutdown=args.compact_on_shutdown,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid serve setting: {exc}") from exc
    server = CompileServer(config).start()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: server.close())
    print(
        f"repro serve: listening on {format_address(server.address)} "
        f"({args.workers} workers, max_pending={args.max_pending})",
        file=sys.stderr,
    )
    try:
        server.wait()
    finally:
        server.close()
    print("repro serve: shut down", file=sys.stderr)
    return 0


def _submit_exit_code(errors: List[Tuple[str, str, Optional[str]]]) -> int:
    """0 on success; the first failure's structured exit code otherwise."""
    if not errors:
        return 0
    first_code = errors[0][2]
    return EXIT_CODES.get(first_code, 1) if first_code else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.resilience import RetryPolicy, RetryStats
    from repro.service.server import ServeClient, ServeError

    if not (args.qasm or args.ping or args.stats or args.health or args.shutdown):
        raise SystemExit("nothing to do: give QASM file(s), --ping, --stats, --health or --shutdown")
    if args.retries < 0:
        raise SystemExit("--retries must be >= 0")

    retry = RetryPolicy(
        max_attempts=args.retries + 1,
        seed=args.seed,
        hedge_after=args.hedge_after,
    )
    stats = RetryStats()
    client = ServeClient(
        args.address,
        timeout=args.read_timeout,
        connect_timeout=args.connect_timeout,
        retry=retry,
        retry_stats=stats,
    )
    try:
        try:
            if args.ping:
                client.ping()
                print(f"pong ({args.address})")
            if args.health:
                print(json.dumps(client.health(), indent=2, default=_json_default))
        except (ConnectionError, OSError) as exc:
            print(f"cannot reach daemon at {args.address!r}: {exc}", file=sys.stderr)
            return EXIT_UNAVAILABLE

        rows: List[Dict[str, Any]] = []
        sections: List[Tuple[str, str]] = []
        errors: List[Tuple[str, str, Optional[str]]] = []
        start = time.perf_counter()
        for path in args.qasm:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                raise SystemExit(f"cannot read QASM file {path!r}: {exc}")
            name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0] or path
            try:
                response = client.compile(
                    source,
                    compiler=args.compiler,
                    seed=args.seed,
                    target=args.target,
                    timeout=args.timeout,
                    priority=args.priority,
                )
            except ServeError as exc:
                errors.append((name, f"[{exc.code}] {exc.message}", exc.code))
                continue
            except (ConnectionError, OSError) as exc:
                print(f"lost connection to daemon at {args.address!r}: {exc}", file=sys.stderr)
                return EXIT_UNAVAILABLE
            if args.emit == "qasm":
                sections.append((name, response["qasm"]))
            row: Dict[str, Any] = {"benchmark": name, "cached": response["cached"]}
            row.update(response["summary"])
            rows.append(row)
        elapsed = time.perf_counter() - start

        if args.stats:
            print(json.dumps(client.stats(), indent=2, default=_json_default))
        if args.shutdown:
            client.shutdown_server()
            print("daemon shutting down", file=sys.stderr)

        resilience = stats.as_dict()
        if args.emit == "qasm" and sections:
            _emit_qasm_sections(sections, args)
        elif rows or errors:
            report = {
                "command": "submit",
                "title": f"submit [{args.compiler}] via {args.address}",
                "rows": rows,
                "errors": errors,
                "resilience": resilience,
                "elapsed_seconds": elapsed,
            }
            text = _render(report, rows, args)
            if not (getattr(args, "json", False) or getattr(args, "csv", False)):
                text += (
                    "\nresilience: attempts={attempts} retries={retries} "
                    "reconnects={reconnects} retry_after_honored={retry_after_honored} "
                    "hedges={hedges} hedge_wins={hedge_wins} giveups={giveups}".format(**resilience)
                )
            _emit(text, args)
        for name, message, _ in errors:
            print(f"ERROR {name}: {message}", file=sys.stderr)
        return _submit_exit_code(errors)
    finally:
        client.close()


def _cmd_cache(args: argparse.Namespace) -> int:
    import os

    from repro.service.cache import SynthesisCache

    if not os.path.isdir(args.cache_dir):
        raise SystemExit(f"no cache directory at {args.cache_dir!r}")
    cache = SynthesisCache(capacity=1, directory=args.cache_dir)
    try:
        if args.action == "stats":
            payload = cache.disk_stats()
        elif args.action == "scrub":
            payload = cache.scrub()
        else:
            payload = cache.compact()
    finally:
        cache.close()
    payload = {"cache_dir": args.cache_dir, "action": args.action, **payload}
    if args.json:
        print(json.dumps(payload, indent=2))
    elif args.action == "stats":
        print(
            "cache {cache_dir}: {entries} entries in {segments} segment file(s), "
            "{mib:.1f} MiB on disk; {partial_tails} partial tail(s), "
            "{corrupt_records} corrupt record(s), "
            "{quarantined_segments} quarantined segment(s)".format(
                mib=payload["bytes"] / (1024 * 1024), **payload
            )
        )
    elif args.action == "scrub":
        print(
            "scrubbed {cache_dir}: {segments_scanned} segment(s) scanned, "
            "{records_valid} valid record(s) ({records_salvaged} salvaged), "
            "{segments_quarantined} segment(s) quarantined, "
            "{torn_tails} torn tail(s), {corrupt_sites} corrupt site(s), "
            "{tmp_files_removed} stale tmp file(s) removed".format(**payload)
        )
    else:
        print(
            "compacted {cache_dir}: {entries} live entries kept, "
            "{segments_removed} segment file(s) removed".format(**payload)
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import os

    from repro.resilience import FaultPlan, run_chaos
    from repro.resilience.chaos import soak_window
    from repro.workloads.suite import benchmark_suite

    _compiler_argument([args.compiler])
    if args.spec is not None:
        spec = args.spec
        if os.path.isfile(spec):
            with open(spec, "r", encoding="utf-8") as handle:
                spec = handle.read()
        try:
            parsed = json.loads(spec)
        except ValueError:
            parsed = None  # from_spec reports the JSON error
        try:
            if isinstance(parsed, dict) and "faults" in parsed and "window" not in parsed:
                # A balanced plan without a window fits it to the soak, as --faults does.
                programs = len(benchmark_suite(scale=args.scale))
                spec = dict(parsed, window=soak_window(programs, int(parsed["faults"])))
            plan = FaultPlan.from_spec(spec)
        except (ValueError, TypeError, KeyError) as exc:
            raise SystemExit(f"invalid --spec: {exc}")
    else:
        if args.faults < 1:
            raise SystemExit("--faults must be >= 1")
        window = args.window
        if window is None:
            window = soak_window(len(benchmark_suite(scale=args.scale)), args.faults)
        plan = FaultPlan.balanced(seed=args.seed, faults=args.faults, window=window)

    print(f"repro chaos: {plan.describe()}", file=sys.stderr)
    report = run_chaos(
        plan,
        scale=args.scale,
        compiler=args.compiler,
        seed=args.seed,
        clients=args.clients,
        workers=args.workers,
        requests_per_circuit=args.requests_per_circuit,
        job_timeout=args.job_timeout,
        wall_deadline=args.wall_deadline,
    )

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=_json_default)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, default=_json_default))
    else:
        resilience = report["resilience"]
        scrub = report["scrub"]
        print(
            "chaos: {completed}/{jobs} jobs completed in {wall_seconds:.1f}s "
            "({clients} clients, {workers} workers), "
            "{faults_fired_total}/{faults_scheduled} scheduled faults fired".format(**report)
        )
        print(
            "  bit_identical={bit_identical} mismatches={n_mismatch} "
            "unrecovered={n_unrecovered} hung_clients={hung_clients}".format(
                n_mismatch=len(report["mismatches"]),
                n_unrecovered=len(report["unrecovered"]),
                **report,
            )
        )
        print(
            "  client: attempts={attempts} retries={retries} reconnects={reconnects} "
            "retry_after_honored={retry_after_honored} hedges={hedges} "
            "hedge_wins={hedge_wins} giveups={giveups}".format(**resilience)
        )
        if scrub:
            print(
                "  scrub: {records_valid} valid ({records_salvaged} salvaged), "
                "{segments_quarantined} quarantined, {corrupt_sites} corrupt "
                "site(s), {torn_tails} torn tail(s)".format(**scrub)
            )
        for item in report["unrecovered"]:
            print("ERROR job {job} ({name}): {error}".format(**item), file=sys.stderr)
        if not report["faults_exercised"]:
            print(
                "ERROR no worker, clock or socket fault fired: the jobs ended before "
                "the schedule window reached one (lower --window or raise the load)",
                file=sys.stderr,
            )
    if report["ok"]:
        print("chaos: PASS", file=sys.stderr)
        return 0
    print("chaos: FAIL", file=sys.stderr)
    return 1


_COMMANDS = {
    "compile": _cmd_compile,
    "bench": _cmd_bench,
    "suite": _cmd_suite,
    "list": _cmd_list,
    "targets": _cmd_targets,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "cache": _cmd_cache,
    "chaos": _cmd_chaos,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _normalize_output_format(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
