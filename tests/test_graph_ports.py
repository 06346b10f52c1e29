"""The stdlib graph code against networkx, which tests keep as an oracle.

``CouplingMap``, its heavy-hex lattice and the QAOA workload's random
regular graph used to be built with networkx.  Their replacements must give
the same graphs in the same order: the edge order feeds the seeded
calibrations of every ``*-cal`` target, and the regular graph fixes the
QAOA programs of the suite.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

import repro
from repro.compiler.routing.coupling_map import CouplingMap
from repro.microarch.calibration import CalibrationData
from repro.target.target import resolve_target
from repro.workloads.algorithms import random_regular_edges

#: (n, d, seed) cases; (13, 4, 4) is the first one where a port that swaps
#: into fresh names in the suitability check diverges from networkx.
_REGULAR_CASES = [
    (n, d, seed)
    for n in range(1, 22)
    for d in range(0, 7)
    for seed in range(5)
    if d < n and (n * d) % 2 == 0
] + [(13, 4, 4), (30, 3, 7), (64, 5, 11)]


@pytest.mark.parametrize("num_nodes,degree,seed", _REGULAR_CASES)
def test_random_regular_edges_match_networkx(num_nodes, degree, seed):
    oracle = nx.random_regular_graph(degree, num_nodes, seed=seed)
    expected = {tuple(sorted(edge)) for edge in oracle.edges}
    assert random_regular_edges(degree, num_nodes, seed=seed) == expected


@pytest.mark.parametrize("num_nodes,degree", [(5, 3), (4, 4), (3, -1)])
def test_random_regular_edges_reject_impossible_degrees(num_nodes, degree):
    with pytest.raises(ValueError):
        random_regular_edges(degree, num_nodes, seed=0)


def _networkx_heavy_hex(rows, columns):
    """The former networkx construction of ``CouplingMap.heavy_hex``."""
    lattice = nx.hexagonal_lattice_graph(rows, columns)
    index = {node: i for i, node in enumerate(sorted(lattice.nodes()))}
    edges = []
    next_qubit = len(index)
    for u, v in sorted(tuple(sorted(edge)) for edge in lattice.edges()):
        edges += [(index[u], next_qubit), (next_qubit, index[v])]
        next_qubit += 1
    return edges, next_qubit


def _networkx_graph(edges, num_qubits):
    """How ``CouplingMap`` built its ``nx.Graph``: nodes first, then edges."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(edges)
    return graph


def _networkx_edge_order(edges, num_qubits):
    return [tuple(sorted(edge)) for edge in _networkx_graph(edges, num_qubits).edges]


@pytest.mark.parametrize("rows,columns", itertools.product(range(1, 7), repeat=2))
def test_heavy_hex_matches_networkx_hexagonal_lattice(rows, columns):
    edges, num_qubits = _networkx_heavy_hex(rows, columns)
    lattice = CouplingMap.heavy_hex(rows, columns)
    assert lattice.num_qubits == num_qubits
    assert lattice.edges == _networkx_edge_order(edges, num_qubits)
    assert max(len(entries) for entries in lattice.neighbor_lists()) <= 3


class _RecordingMap(CouplingMap):
    """Keeps the raw edge list a constructor passed in, for the oracle."""

    def __init__(self, edges, num_qubits=None, name="custom"):
        self.raw_edges = list(edges)
        super().__init__(self.raw_edges, num_qubits=num_qubits, name=name)


def _preset_maps():
    """Every topology the target presets build, at several sizes."""
    for builder in ("line", "grid_for", "heavy_hex_for", "all_to_all"):
        for size in (2, 5, 8, 13, 20, 27, 40):
            yield f"{builder}-{size}", getattr(_RecordingMap, builder)(size)


def _random_maps(count=60):
    rng = random.Random(2024)
    for index in range(count):
        num_qubits = rng.randint(2, 14)
        edges = []
        for _ in range(rng.randint(0, 3 * num_qubits)):
            a, b = rng.sample(range(num_qubits), 2)
            edges.append((a, b))
            if rng.random() < 0.3:
                edges.append((b, a) if rng.random() < 0.5 else (a, b))
        yield f"random-{index}", edges, num_qubits


def _assert_views_match_networkx(coupling_map, edges):
    n = coupling_map.num_qubits
    oracle = _networkx_graph(edges, n)
    assert coupling_map.edges == _networkx_edge_order(edges, n)
    assert coupling_map.edge_tuples() == sorted(coupling_map.edges)
    assert coupling_map.neighbor_lists() == [sorted(oracle.adj[q]) for q in range(n)]
    assert np.array_equal(coupling_map.adjacency_matrix(), nx.to_numpy_array(oracle, dtype=bool))
    for a, b in itertools.product(range(-1, n + 1), repeat=2):
        assert coupling_map.is_connected(a, b) == oracle.has_edge(a, b)


def test_edge_order_matches_networkx_on_every_preset():
    for name, coupling_map in _preset_maps():
        _assert_views_match_networkx(coupling_map, coupling_map.raw_edges)
        rebuilt = CouplingMap.from_dict(coupling_map.to_dict())
        assert rebuilt.edges == coupling_map.edges, name
    maps = dict(_preset_maps())
    for preset, builder in [
        ("xy-line", "line"),
        ("xy-grid-cal", "grid_for"),
        ("heavy-hex", "heavy_hex_for"),
        ("all-to-all", "all_to_all"),
    ]:
        assert resolve_target(preset, num_qubits=13).coupling_map.edges == maps[f"{builder}-13"].edges


def test_edge_order_matches_networkx_with_duplicate_and_reversed_pairs():
    for name, edges, num_qubits in _random_maps():
        _assert_views_match_networkx(CouplingMap(edges, num_qubits=num_qubits), edges)


def test_seeded_calibrations_draw_in_networkx_edge_order():
    for name, coupling_map in _preset_maps():
        oracle_map = SimpleNamespace(
            edges=_networkx_edge_order(coupling_map.raw_edges, coupling_map.num_qubits),
            num_qubits=coupling_map.num_qubits,
        )
        for make in (lambda m: CalibrationData.seeded(m, seed=17), CalibrationData.uniform):
            got = json.dumps(make(coupling_map).to_dict(), sort_keys=True)
            assert got == json.dumps(make(oracle_map).to_dict(), sort_keys=True), name


@pytest.mark.parametrize("edges", [[(0, 5)], [(0, -1)], [(1, 1)]])
def test_coupling_map_rejects_edges_it_cannot_route(edges):
    with pytest.raises(ValueError, match="distinct qubits"):
        CouplingMap(edges, num_qubits=3)


@pytest.mark.parametrize("qubit", [-1, 3])
def test_coupling_map_queries_reject_qubits_outside_the_map(qubit):
    # A negative index must not answer for the wrapped qubit (-1 -> 2).
    coupling_map = CouplingMap.line(3)
    with pytest.raises(ValueError, match="outside"):
        coupling_map.distance(qubit, 0)
    with pytest.raises(ValueError, match="outside"):
        coupling_map.distance(0, qubit)
    with pytest.raises(ValueError, match="outside"):
        coupling_map.neighbors(qubit)
    assert coupling_map.distance(2, 0) == 2.0
    assert coupling_map.neighbors(2) == [1]


def test_coupling_map_has_no_networkx_graph():
    with pytest.raises(AttributeError):
        CouplingMap.line(3).graph


_IMPORT_PROBE = """
import contextlib, io, sys
import repro, repro.target.api, repro.workloads.suite, repro.service.server
from repro.service.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["compile", "--workload", "qaoa", "--scale", "tiny",
                 "--target", "heavy-hex", "--no-cache", "--json"])
print(code, "networkx" in sys.modules)
"""


def test_compile_suite_and_daemon_paths_never_import_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["0", "False"]
