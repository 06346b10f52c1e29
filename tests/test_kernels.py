"""The kernel layer: backend selection, native-vs-python bit identity,
batched KAK agreement and the sequence-application contract.

The native SABRE loop extension is optional — tests that need it skip
cleanly when this checkout was installed without a C compiler (the
``REPRO_KERNELS=py`` CI job runs exactly that configuration, which is the
point: the fallback must carry the full contract on its own).
"""

import sys
import types

import numpy as np
import pytest

import repro.kernels as kernels
from repro.circuits.circuit import QuantumCircuit
from repro.compiler.passes.route import SabreRoutingPass
from repro.compiler.routing.coupling_map import CouplingMap
from repro.compiler.routing.noise import NoiseRoutingModel
from repro.compiler.routing.sabre import SabreRouter
from repro.kernels import (
    backend_info,
    kak_decompose_batch,
    make_sabre_scorer,
    select_backend,
)
from repro.linalg.random import haar_random_su4
from repro.linalg.weyl import kak_decompose
from repro.simulators.statevector import apply_gate, apply_gate_sequence
from repro.target.target import resolve_target

from circuit_helpers import circuits_bit_identical, random_two_qubit_circuit, run_pass
from sabre_reference import ReferenceSabreRouter

NATIVE_AVAILABLE = backend_info()["native_available"]

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason="native extension not built in this checkout"
)

BACKENDS = ["py"] + (["native"] if NATIVE_AVAILABLE else [])


# ---------------------------------------------------------------------------
# Backend selection.
# ---------------------------------------------------------------------------


def test_backend_info_shape():
    info = backend_info()
    assert set(info) == {
        "requested", "backend", "native_available", "native_module", "native_error",
    }
    assert info["requested"] in ("auto", "py", "native")
    assert info["backend"] in ("py", "native")
    if info["backend"] == "native":
        assert info["native_available"] is True


def test_env_override_forces_py(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "py")
    assert select_backend() == "py"
    assert backend_info()["backend"] == "py"
    assert backend_info()["requested"] == "py"


def test_auto_degrades_to_py_when_extension_missing(monkeypatch):
    monkeypatch.setattr(kernels, "_NATIVE", (None, "forced-missing"))
    monkeypatch.setenv("REPRO_KERNELS", "auto")
    assert select_backend() == "py"
    info = backend_info()
    assert info["backend"] == "py"
    assert info["native_available"] is False


def test_native_request_raises_when_extension_missing(monkeypatch):
    monkeypatch.setattr(kernels, "_NATIVE", (None, "forced-missing"))
    monkeypatch.setenv("REPRO_KERNELS", "native")
    with pytest.raises(RuntimeError, match="native extension is not available"):
        select_backend()


def test_invalid_env_value_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "turbo")
    with pytest.raises(ValueError, match="invalid REPRO_KERNELS"):
        select_backend()


def test_explicit_override_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "native" if not NATIVE_AVAILABLE else "py")
    assert select_backend("py") == "py"


def test_extension_without_route_counts_as_missing(monkeypatch):
    """A stale build of the extension (no ``route``) never runs."""
    stale = types.ModuleType(kernels._NATIVE_NAME)
    monkeypatch.setitem(sys.modules, kernels._NATIVE_NAME, stale)
    monkeypatch.setattr(kernels, "_NATIVE", None)
    monkeypatch.setenv("REPRO_KERNELS", "auto")
    assert select_backend() == "py"
    assert backend_info()["native_available"] is False
    monkeypatch.setenv("REPRO_KERNELS", "native")
    with pytest.raises(RuntimeError, match="build_ext --inplace"):
        select_backend()


# ---------------------------------------------------------------------------
# SABRE routing loop: native vs pure-Python vs the frozen reference.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("explicit_layout", [False, True])
@pytest.mark.parametrize("mirroring", [False, True])
def test_whole_router_matches_reference_at_24q(monkeypatch, mirroring, explicit_layout):
    """24q/1000-gate line routing: every backend == ReferenceSabreRouter."""
    circuit = random_two_qubit_circuit(24, 1000, seed=3)
    coupling_map = CouplingMap.line(24)
    layout = None
    if explicit_layout:
        layout = np.random.default_rng(7).permutation(24).tolist()
    reference = ReferenceSabreRouter(coupling_map, mirroring=mirroring).run(
        circuit, initial_layout=layout
    )
    assert reference.absorbed_swaps > 0 or not mirroring
    for backend in BACKENDS:
        monkeypatch.setenv("REPRO_KERNELS", backend)
        routed = SabreRouter(coupling_map, mirroring=mirroring).run(circuit, initial_layout=layout)
        assert circuits_bit_identical(routed.circuit, reference.circuit), backend
        assert routed.final_layout == reference.final_layout
        assert routed.initial_layout == reference.initial_layout
        assert routed.inserted_swaps == reference.inserted_swaps
        assert routed.absorbed_swaps == reference.absorbed_swaps


@needs_native
def test_noise_aware_routing_pass_native_vs_py(monkeypatch):
    """The calibrated portfolio pass picks and reports the same on both loops."""
    target = resolve_target("xy-grid-cal-9")
    circuit = random_two_qubit_circuit(9, 300, seed=4)
    outcomes = {}
    for backend in ("native", "py"):
        monkeypatch.setenv("REPRO_KERNELS", backend)
        routing_pass = SabreRoutingPass(
            target.coupling_map, noise_aware=True, calibration=target.calibration
        )
        properties = {}
        outcomes[backend] = (run_pass(routing_pass, circuit, properties), properties)
    (native_circuit, native_props), (py_circuit, py_props) = outcomes["native"], outcomes["py"]
    assert circuits_bit_identical(native_circuit, py_circuit)
    assert native_props == py_props
    assert native_props["inserted_swaps"] > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_routing_errors_raise_on_both_backends(monkeypatch, backend):
    monkeypatch.setenv("REPRO_KERNELS", backend)
    # Physical qubits 2 and 3 have no coupling edges: no SWAP candidates.
    isolated = CouplingMap([(0, 1)], num_qubits=4)
    with pytest.raises(RuntimeError, match="no SWAP candidates"):
        SabreRouter(isolated).run(QuantumCircuit(4).cx(2, 3))
    # A surcharge on every distance-reducing edge makes the router shuttle
    # the (1, 4) gate's qubit over edge (0, 1) forever: the step limit.
    line = CouplingMap.line(5)
    model = NoiseRoutingModel(
        distance=line.distance_matrix64(),
        swap_penalty=np.array([0, 100, 100, 100], dtype=np.int64),
    )
    with pytest.raises(RuntimeError, match="step limit"):
        SabreRouter(line, noise_model=model).run(QuantumCircuit(5).cx(1, 4))


@needs_native
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mirroring", [False, True])
def test_router_native_vs_py_bit_identical(monkeypatch, seed, mirroring):
    circuit = random_two_qubit_circuit(9, 120, seed=seed)
    for coupling_map in (
        CouplingMap.grid_for(9),
        CouplingMap.line(9),
        CouplingMap.heavy_hex_for(9),
    ):
        monkeypatch.setenv("REPRO_KERNELS", "native")
        native = SabreRouter(coupling_map, mirroring=mirroring).run(circuit)
        monkeypatch.setenv("REPRO_KERNELS", "py")
        fallback = SabreRouter(coupling_map, mirroring=mirroring).run(circuit)
        assert circuits_bit_identical(native.circuit, fallback.circuit)
        assert native.final_layout == fallback.final_layout
        assert native.inserted_swaps == fallback.inserted_swaps
        assert native.absorbed_swaps == fallback.absorbed_swaps


def test_forced_fallback_matches_reference_router(monkeypatch):
    """REPRO_KERNELS=py (the CI-pinned configuration) vs the frozen oracle."""
    monkeypatch.setenv("REPRO_KERNELS", "py")
    circuit = random_two_qubit_circuit(9, 100, seed=11)
    coupling_map = CouplingMap.grid_for(9)
    fast = SabreRouter(coupling_map, mirroring=True).run(circuit)
    reference = ReferenceSabreRouter(coupling_map, mirroring=True).run(circuit)
    assert circuits_bit_identical(fast.circuit, reference.circuit)
    assert fast.final_layout == reference.final_layout


@needs_native
def test_native_loop_rejects_inconsistent_inputs():
    """Bad arrays raise ValueError instead of reading or writing out of bounds."""
    coupling_map = CouplingMap.line(3)
    incident_ptr, incident = coupling_map.incident_edge_csr()

    def route(q0=(0,), indegree=(0,), front=(0,)):
        arrays = [q0, (1,), (0, 0), (), indegree, front, (0, 1, 2)]
        return kernels.sabre_route_native(
            *[np.asarray(a, dtype=np.int64) for a in arrays],
            coupling_map.edge_array(), incident_ptr, incident,
            coupling_map.distance_matrix64(), None, 20, 0.5, 0.001, 5, False, 1000,
        )

    assert route() == ([0], [(0, 1)], [], [0, 1, 2], 0, 0)
    for bad in (dict(q0=(3,)), dict(indegree=(1,)), dict(front=(0, 0))):
        with pytest.raises(ValueError, match="inconsistent"):
            route(**bad)


def test_make_sabre_scorer_returns_python_scorer():
    coupling_map = CouplingMap.line(4)
    scorer = make_sabre_scorer(coupling_map)
    layout = np.arange(4, dtype=np.int64)
    pair_qubits = np.array([0, 1], dtype=np.int64)  # one front pair (0, 1)
    ids, costs, base_cost = scorer(layout, pair_qubits, 1, 0, 0.5, np.ones(4))
    assert ids == sorted(ids) and len(ids) > 0
    assert len(costs) == len(ids)
    assert base_cost > 0.0


# ---------------------------------------------------------------------------
# Batched KAK.
# ---------------------------------------------------------------------------


def _kak_delta(a, b):
    return max(
        abs(a.global_phase - b.global_phase),
        abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z),
        float(np.max(np.abs(a.l1 - b.l1))),
        float(np.max(np.abs(a.l2 - b.l2))),
        float(np.max(np.abs(a.r1 - b.r1))),
        float(np.max(np.abs(a.r2 - b.r2))),
    )


def _kak_bit_identical(a, b):
    return (
        a.global_phase == b.global_phase
        and (a.x, a.y, a.z) == (b.x, b.y, b.z)
        and np.array_equal(a.l1, b.l1)
        and np.array_equal(a.l2, b.l2)
        and np.array_equal(a.r1, b.r1)
        and np.array_equal(a.r2, b.r2)
    )


def _su4_samples(count, seed=5):
    rng = np.random.default_rng(seed)
    samples = [haar_random_su4(rng) for _ in range(count)]
    # Include the structured corner cases batching must not disturb.
    from repro.gates import standard

    samples.append(np.asarray(standard.cx_gate().matrix, dtype=complex))
    samples.append(np.asarray(standard.swap_gate().matrix, dtype=complex))
    samples.append(np.eye(4, dtype=complex))
    return samples


def test_batch_kak_agrees_with_scalar_within_1e12():
    unitaries = _su4_samples(40)
    scalar = [kak_decompose(u) for u in unitaries]
    batch = kak_decompose_batch(unitaries)
    worst = max(_kak_delta(a, b) for a, b in zip(scalar, batch))
    assert worst <= 1e-12
    for u, record in zip(unitaries, batch):
        assert record.reconstruction_error(u) <= 1e-6


def test_batch_kak_is_composition_independent():
    """An item's result must not depend on which matrices share its batch."""
    unitaries = _su4_samples(24)
    full = kak_decompose_batch(unitaries)
    onesies = [kak_decompose_batch([u])[0] for u in unitaries]
    thirds = (
        kak_decompose_batch(unitaries[:8])
        + kak_decompose_batch(unitaries[8:16])
        + kak_decompose_batch(unitaries[16:])
    )
    for a, b, c in zip(full, onesies, thirds):
        assert _kak_bit_identical(a, b)
        assert _kak_bit_identical(a, c)


def _weyl_tail_coordinates(count, seed):
    """Coordinate triples for the stacked Weyl tail: random, named and boundary rows.

    Random triples span several chamber shifts; the named gates (identity,
    CX, iSWAP, SWAP, B) come in permuted and sign-flipped representatives;
    boundary rows sit on x = pi/4 with z < 0 and within ``_BOUNDARY_TOL``
    of a chamber face (x = pi/4, x = y, y = |z|, z = 0).
    """
    from repro.linalg.weyl import _BOUNDARY_TOL, PI_4

    rng = np.random.default_rng(seed)
    named = [(0, 0, 0), (PI_4, 0, 0), (PI_4, PI_4, 0), (PI_4, PI_4, PI_4), (PI_4, PI_4 / 2, 0)]
    rows = [list(rng.uniform(-2.0, 2.0, 3)) for _ in range(count)]
    for x, y, z in named:
        for perm in ((x, y, z), (y, x, z), (z, y, x), (-x, -y, z), (x, -y, -z), (-x, y, -z)):
            rows.append(list(perm))
    tol = _BOUNDARY_TOL
    for _ in range(count // 10):
        x, y, z = sorted(rng.uniform(0.0, PI_4, 3), reverse=True)
        eps = rng.uniform(-tol, tol)
        rows += [
            [PI_4, y, -z],
            [PI_4 + eps, y, -z],
            [PI_4 - 0.5 * tol, y, z - 2 * tol],
            [x, x + eps, z],
            [x, y, y + eps],
            [x, y, eps],
            [eps, 0.0, -eps],
            [-PI_4 + eps, y, z],
            [x + 2 * PI_4, -y - 2 * PI_4, z],
        ]
    return np.array(rows)


def test_stacked_weyl_tail_matches_the_scalar_helpers_bit_for_bit():
    from repro.kernels.kak_batch import _canonicalize_batch, _phases_to_coordinates_batch
    from repro.linalg.constants import COORD_TO_PHASE
    from repro.linalg.random import haar_random_unitary
    from repro.linalg.weyl import _canonicalize_record, _DecompositionRecord, _phases_to_coordinates

    rng = np.random.default_rng(11)
    coords = _weyl_tail_coordinates(700, seed=4)
    # Phases as the magic-basis eigenvalues give them: angle / 2, sum 0 mod 2 pi.
    thetas = np.angle(np.exp(-2j * (coords @ COORD_TO_PHASE.T))) / 2.0
    residue = (thetas.sum(axis=1) + np.pi) % (2.0 * np.pi) - np.pi
    thetas[:, 3] -= residue
    count = len(coords)
    assert count > 900
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, count))
    factors = [np.stack([haar_random_unitary(2, rng) for _ in range(count)]) for _ in range(4)]

    for size in (1, 7, count):
        solved = _phases_to_coordinates_batch(thetas[:size])
        expected = np.stack([_phases_to_coordinates(row) for row in thetas[:size]])
        assert solved.tobytes() == expected.tobytes()

        for start in (coords[:size], solved):
            stacked = [start.copy(), phase[:size].copy()] + [f[:size].copy() for f in factors]
            _canonicalize_batch(*stacked)
            for i in range(size):
                l1, l2, r1, r2 = (f[i] for f in factors)
                record = _DecompositionRecord(phase[i], l1, l2, start[i], r1, r2)
                _canonicalize_record(record)
                assert stacked[0][i].tobytes() == record.coords.tobytes()
                assert stacked[1][i].tobytes() == np.complex128(record.phase).tobytes()
                for got, want in zip(stacked[2:], (record.l1, record.l2, record.r1, record.r2)):
                    assert got[i].tobytes() == np.ascontiguousarray(want).tobytes()


def test_batch_kak_interns_exact_duplicates():
    from repro.kernels import batch_stats, reset_batch_stats

    rng = np.random.default_rng(9)
    base = [haar_random_su4(rng) for _ in range(4)]
    unitaries = base + [base[0], base[2], base[0]]
    reset_batch_stats()
    results = kak_decompose_batch(unitaries)
    stats = batch_stats()
    assert stats["batches"] == 1
    assert stats["inputs"] == 7
    assert stats["unique"] == 4
    assert stats["interned"] == 3
    # Duplicates share the same decomposition object, not just equal values.
    assert results[4] is results[0]
    assert results[5] is results[2]
    assert results[6] is results[0]


def test_batch_kak_rejects_bad_shapes_and_nonunitary():
    with pytest.raises(ValueError, match="4x4"):
        kak_decompose_batch([np.eye(2, dtype=complex)])
    with pytest.raises(ValueError, match="not unitary"):
        kak_decompose_batch([np.ones((4, 4), dtype=complex)])
    assert kak_decompose_batch([]) == []


def test_weyl_reexports_batch_entry_point():
    from repro.linalg.weyl import kak_decompose_batch as via_weyl

    u = haar_random_su4(np.random.default_rng(2))
    assert _kak_bit_identical(via_weyl([u])[0], kak_decompose_batch([u])[0])


def test_two_qubit_batch_synthesis_is_composition_independent():
    from repro.synthesis.two_qubit import two_qubit_to_can_circuits_batch

    rng = np.random.default_rng(21)
    unitaries = [haar_random_su4(rng) for _ in range(6)]
    full = two_qubit_to_can_circuits_batch(unitaries)
    split = (
        two_qubit_to_can_circuits_batch(unitaries[:2])
        + two_qubit_to_can_circuits_batch(unitaries[2:])
    )
    for a, b in zip(full, split):
        assert circuits_bit_identical(a, b)
    # Every synthesized circuit implements its unitary (up to global phase).
    from repro.simulators.unitary import circuit_unitary

    for u, circuit in zip(unitaries, full):
        got = circuit_unitary(circuit)
        phase = np.trace(got.conj().T @ u) / 4.0
        phase = phase / abs(phase)
        assert np.max(np.abs(phase * got - u)) < 1e-6


# ---------------------------------------------------------------------------
# apply_gate_sequence: bitwise-exact vs the per-gate fold.
# ---------------------------------------------------------------------------


def _random_operations(rng, num_qubits, count):
    from repro.linalg.su2 import u3_matrix

    operations = []
    for _ in range(count):
        if rng.random() < 0.4 or num_qubits == 1:
            theta, phi, lam = rng.uniform(0.0, 2.0 * np.pi, 3)
            operations.append(
                (u3_matrix(float(theta), float(phi), float(lam)),
                 (int(rng.integers(num_qubits)),))
            )
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            operations.append((haar_random_su4(rng), (int(a), int(b))))
    return operations


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_apply_gate_sequence_exact_on_vectors_and_matrices(num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    operations = _random_operations(rng, num_qubits, 24)
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    mat = np.eye(dim, dtype=complex)
    for state in (vec, mat):
        loop = state
        for matrix, qubits in operations:
            loop = apply_gate(loop, matrix, qubits, num_qubits)
        seq = apply_gate_sequence(state, operations, num_qubits)
        assert np.array_equal(loop, seq)  # bitwise, not approx


def test_apply_gate_sequence_empty_and_shape_errors():
    state = np.eye(4, dtype=complex)
    assert apply_gate_sequence(state, [], 2) is state
    with pytest.raises(ValueError, match="does not match"):
        apply_gate_sequence(state, [(np.eye(4, dtype=complex), (0,))], 2)
