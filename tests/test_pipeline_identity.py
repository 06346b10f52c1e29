"""One meaning per pipeline name: every front end compiles a name the same way.

``repro compile``, :class:`~repro.service.batch.BatchCompiler`, the daemon
and the library's ``compile(spec=name)`` all build a name from its
registered ``named_pipeline`` spec, so each suite program compiles to the
same QASM on every path, and the two in-process paths report the same
``final_permutation``.  ``reqisc-full`` and ``reqisc-nc`` also run the
``small`` suite, whose ``rip_add`` programs are where a per-front-end
synthesis budget would show.

The front ends share one on-disk synthesis cache, as the CLI and the daemon
do by default; a cache hit never changes output (``test_service_cache``).
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.qasm import dumps
from repro.service.batch import BatchCompiler
from repro.service.cache import SynthesisCache
from repro.service.cli import main
from repro.service.server import CompileServer, ServeClient, ServeConfig
from repro.target.api import compile as target_compile
from repro.target.pipeline import pipeline_names
from repro.workloads.suite import benchmark_suite

#: (pipeline name, suite scale) pairs under test.
_RUNS = [(name, "tiny") for name in pipeline_names()] + [("reqisc-full", "small"), ("reqisc-nc", "small")]


def _target(name):
    # The noise-aware router needs a calibrated device.
    return "xy-line-cal" if name == "reqisc-noise" else None


@pytest.fixture(scope="module")
def front_ends(tmp_path_factory):
    """``{path: {(name, scale, program): (qasm, final_permutation)}}``.

    Program ``i`` of a suite compiles with seed ``i`` on every path, which
    is the seed :class:`BatchCompiler` gives its job ``i``.
    """
    root = tmp_path_factory.mktemp("identity")
    cache_dir = str(root / "cache")
    suites = {scale: benchmark_suite(scale=scale) for scale in ("tiny", "small")}
    outputs = {"compile": {}, "batch": {}, "cli": {}, "daemon": {}}

    # The library and batch paths share one cache object; the CLI and the
    # daemon read what it wrote.
    cache = SynthesisCache(directory=cache_dir)
    for name, scale in _RUNS:
        for seed, case in enumerate(suites[scale]):
            result = target_compile(
                case.circuit,
                target=_target(name),
                spec=name,
                seed=seed,
                synthesis_cache=cache,
            )
            outputs["compile"][name, scale, case.name] = (dumps(result.circuit), result.final_permutation)

    for name, scale in _RUNS:
        engine = BatchCompiler(compiler=name, cache=cache, target=_target(name))
        batch = engine.compile_all(suites[scale])
        assert not batch.errors, batch.errors
        for item in batch.items:
            outputs["batch"][name, scale, item.name] = (
                dumps(item.result.circuit),
                item.result.final_permutation,
            )
    cache.close()

    for name, scale in _RUNS:
        for seed, case in enumerate(suites[scale]):
            path = root / "cli.qasm"
            argv = ["compile", "--workload", case.category, "--scale", scale]
            argv += ["--compiler", name, "--seed", str(seed), "--cache-dir", cache_dir]
            argv += ["--emit", "qasm", "--output", str(path)]
            if _target(name):
                argv += ["--target", _target(name)]
            assert main(argv) == 0
            outputs["cli"][name, scale, case.name] = (path.read_text(), None)

    requests = [(name, scale, seed, case) for name, scale in _RUNS for seed, case in enumerate(suites[scale])]

    def submit(share):
        with ServeClient(address) as client:
            for name, scale, seed, case in share:
                response = client.compile(dumps(case.circuit), compiler=name, seed=seed, target=_target(name))
                outputs["daemon"][name, scale, case.name] = (response["qasm"], None)

    address = str(root / "serve.sock")
    with CompileServer(ServeConfig(address=address, workers=2, cache_dir=cache_dir)):
        # One client per worker keeps both busy.
        with ThreadPoolExecutor(max_workers=2) as clients:
            list(clients.map(submit, (requests[0::2], requests[1::2])))
    return outputs


@pytest.mark.parametrize("name, scale", _RUNS)
def test_every_front_end_compiles_a_name_to_the_same_program(front_ends, name, scale):
    reference = {key: value for key, value in front_ends["compile"].items() if key[:2] == (name, scale)}
    assert reference
    for path in ("batch", "cli", "daemon"):
        for key, (qasm, permutation) in reference.items():
            got_qasm, got_permutation = front_ends[path][key]
            # The CLI writes the program with a trailing newline.
            assert got_qasm.rstrip("\n") == qasm.rstrip("\n"), f"{path}: {key} QASM differs"
            if got_permutation is not None:
                assert got_permutation == permutation, f"{path}: {key} final_permutation differs"
