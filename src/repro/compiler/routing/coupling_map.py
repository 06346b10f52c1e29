"""Device connectivity graphs (coupling maps) and distance matrices."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

__all__ = ["CouplingMap"]


class CouplingMap:
    """Undirected device connectivity graph.

    Provides the topologies used in the evaluation: 1D chains and 2D grids
    (Figure 12), plus all-to-all connectivity for logical-level comparisons.
    """

    def __init__(self, edges: Iterable[Tuple[int, int]], num_qubits: int = None, name: str = "custom") -> None:
        edges = [(int(a), int(b)) for a, b in edges]
        if num_qubits is None:
            num_qubits = max((max(edge) for edge in edges), default=-1) + 1
        self.num_qubits = int(num_qubits)
        self.name = name
        # The one store: each qubit's neighbours in first-insertion order (a
        # dict collapses duplicate and reversed edges).  Every view derives
        # from it.
        self._neighbors: List[Dict[int, None]] = [{} for _ in range(self.num_qubits)]
        for a, b in edges:
            if a == b or not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(
                    f"coupling edge {(a, b)} is not a pair of distinct qubits "
                    f"in [0, {self.num_qubits})"
                )
            self._neighbors[a][b] = None
            self._neighbors[b][a] = None
        # Lazily built, shared per map instance: every consumer (routing,
        # Target duration models, benchmark) sees the same arrays instead
        # of re-deriving them per call.
        self._distance: np.ndarray = None
        self._distance64: np.ndarray = None
        self._adjacency: np.ndarray = None
        self._neighbor_lists: List[List[int]] = None
        self._neighbor_sets: List[frozenset] = None
        self._edge_tuples: List[Tuple[int, int]] = None
        self._edge_array: np.ndarray = None
        self._incident_edge_ids: List[List[int]] = None
        self._incident_edge_csr: Tuple[np.ndarray, np.ndarray] = None

    # -- constructors --------------------------------------------------------
    @classmethod
    def line(cls, num_qubits: int) -> "CouplingMap":
        """1D chain ``q0 - q1 - ... - q_{n-1}``."""
        edges = [(i, i + 1) for i in range(num_qubits - 1)]
        return cls(edges, num_qubits=num_qubits, name="line")

    @classmethod
    def grid(cls, rows: int, columns: int) -> "CouplingMap":
        """2D grid of ``rows x columns`` qubits."""
        edges = []
        for r in range(rows):
            for c in range(columns):
                idx = r * columns + c
                if c + 1 < columns:
                    edges.append((idx, idx + 1))
                if r + 1 < rows:
                    edges.append((idx, idx + columns))
        return cls(edges, num_qubits=rows * columns, name="grid")

    @classmethod
    def grid_for(cls, num_qubits: int) -> "CouplingMap":
        """Smallest near-square grid with at least ``num_qubits`` qubits."""
        rows = max(1, int(math.floor(math.sqrt(num_qubits))))
        columns = int(math.ceil(num_qubits / rows))
        return cls.grid(rows, columns)

    @classmethod
    def all_to_all(cls, num_qubits: int) -> "CouplingMap":
        """Fully connected topology (logical-level compilation)."""
        edges = [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
        return cls(edges, num_qubits=num_qubits, name="all-to-all")

    @classmethod
    def heavy_hex(cls, rows: int = 1, columns: int = 1) -> "CouplingMap":
        """IBM-style heavy-hex lattice of ``rows x columns`` hexagonal cells.

        The heavy-hex graph is the hexagonal lattice with every edge
        subdivided once, so qubits sit on both the vertices and the edges of
        the hexagons and the maximum degree is 3.  The hexagonal lattice is
        a brick wall of ``columns + 1`` vertex columns and ``2 * rows + 2``
        vertex rows, less the two corner vertices left with one edge.
        """
        height = 2 * rows + 2
        corners = {(0, height - 1), (columns, (height - 1) * (columns % 2))}
        vertices = sorted({(i, j) for i in range(columns + 1) for j in range(height)} - corners)
        lattice_edges = [((i, j), (i, j + 1)) for i in range(columns + 1) for j in range(height - 1)]
        lattice_edges += [
            ((i, j), (i + 1, j)) for i in range(columns) for j in range(height) if i % 2 == j % 2
        ]
        index = {node: i for i, node in enumerate(vertices)}
        edges: List[Tuple[int, int]] = []
        next_qubit = len(vertices)
        for u, v in sorted(edge for edge in lattice_edges if not corners.intersection(edge)):
            midpoint = next_qubit
            next_qubit += 1
            edges.append((index[u], midpoint))
            edges.append((midpoint, index[v]))
        return cls(edges, num_qubits=next_qubit, name="heavy-hex")

    @classmethod
    def heavy_hex_for(cls, num_qubits: int) -> "CouplingMap":
        """Smallest square heavy-hex lattice with at least ``num_qubits`` qubits."""
        cells = 1
        while True:
            lattice = cls.heavy_hex(cells, cells)
            if lattice.num_qubits >= num_qubits:
                return lattice
            cells += 1

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready payload (used by :class:`repro.target.target.Target`)."""
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "edges": [list(edge) for edge in self.edges],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CouplingMap":
        """Inverse of :meth:`to_dict`."""
        return cls(
            [tuple(edge) for edge in payload["edges"]],
            num_qubits=payload.get("num_qubits"),
            name=str(payload.get("name", "custom")),
        )

    # -- queries ---------------------------------------------------------------
    @property
    def edges(self) -> List[Tuple[int, int]]:
        """Undirected ``(low, high)`` edges, node-major in neighbour insertion order."""
        return [(a, b) for a, entries in enumerate(self._neighbors) for b in entries if b > a]

    def is_connected(self, qubit_a: int, qubit_b: int) -> bool:
        """True when the two physical qubits are adjacent."""
        return 0 <= qubit_a < self.num_qubits and qubit_b in self._neighbors[qubit_a]

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix (cached, read-only)."""
        if self._adjacency is None:
            matrix = np.zeros((self.num_qubits, self.num_qubits), dtype=bool)
            for a, b in self.edges:
                matrix[a, b] = True
                matrix[b, a] = True
            matrix.setflags(write=False)
            self._adjacency = matrix
        return self._adjacency

    def neighbor_lists(self) -> List[List[int]]:
        """Sorted neighbour list per physical qubit (cached).

        ``neighbor_lists()[q]`` equals ``neighbors(q)``; the precomputed form
        avoids a sort per hot-path query.  It is a plain list, so it does not
        check its index: only valid qubits ``0 <= q < num_qubits`` may index
        it (a negative ``q`` would silently answer for ``q + num_qubits``).
        """
        if self._neighbor_lists is None:
            self._neighbor_lists = [sorted(entries) for entries in self._neighbors]
        return self._neighbor_lists

    def edge_tuples(self) -> List[Tuple[int, int]]:
        """Sorted list of undirected edges as ``(low, high)`` tuples (cached).

        The position of an edge in this list is its *edge id*; ids are
        assigned in lexicographic edge order, so a sorted list of ids maps
        back to a lexicographically sorted list of edges.
        """
        if self._edge_tuples is None:
            self._edge_tuples = sorted(self.edges)
        return self._edge_tuples

    def edge_array(self) -> np.ndarray:
        """``(num_edges, 2)`` integer array of :meth:`edge_tuples` (cached)."""
        if self._edge_array is None:
            edges = self.edge_tuples()
            array = np.asarray(edges, dtype=np.int64) if edges else np.empty((0, 2), dtype=np.int64)
            array.setflags(write=False)
            self._edge_array = array
        return self._edge_array

    def incident_edge_ids(self) -> List[List[int]]:
        """Edge ids incident to each physical qubit (cached, ids ascending)."""
        if self._incident_edge_ids is None:
            incident: List[List[int]] = [[] for _ in range(self.num_qubits)]
            for edge_id, (a, b) in enumerate(self.edge_tuples()):
                incident[a].append(edge_id)
                incident[b].append(edge_id)
            self._incident_edge_ids = incident
        return self._incident_edge_ids

    def incident_edge_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`incident_edge_ids` in CSR form (cached, read-only int64).

        Returns ``(indptr, indices)`` with the edge ids incident to physical
        qubit ``p`` stored (ascending) at ``indices[indptr[p]:indptr[p+1]]``
        — the flat layout consumed by the native routing loop.
        """
        if self._incident_edge_csr is None:
            incident = self.incident_edge_ids()
            indptr = np.zeros(self.num_qubits + 1, dtype=np.int64)
            for qubit, entries in enumerate(incident):
                indptr[qubit + 1] = indptr[qubit] + len(entries)
            indices = np.asarray(
                [edge_id for entries in incident for edge_id in entries],
                dtype=np.int64,
            )
            if indices.size == 0:
                indices = np.empty(0, dtype=np.int64)
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._incident_edge_csr = (indptr, indices)
        return self._incident_edge_csr

    def neighbor_sets(self) -> List[frozenset]:
        """Neighbour set per physical qubit (cached; O(1) adjacency tests)."""
        if self._neighbor_sets is None:
            self._neighbor_sets = [frozenset(entries) for entries in self.neighbor_lists()]
        return self._neighbor_sets

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} is outside [0, {self.num_qubits})")

    def neighbors(self, qubit: int) -> List[int]:
        """Neighbouring physical qubits (sorted; fresh list per call)."""
        self._check_qubit(qubit)
        return list(self.neighbor_lists()[qubit])

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path hop-count matrix (cached, read-only).

        Computed by a vectorized breadth-first search over the adjacency
        matrix (one frontier expansion per distance level, all sources at
        once) and stored as a compact ``int32`` array — hop counts are small
        integers, so downstream heuristic sums stay exact.  Unreachable
        pairs are stored as ``-1``; :meth:`distance` reports them as ``inf``.
        """
        if self._distance is None:
            n = self.num_qubits
            # int64 accumulation: a uint8 matmul would overflow (and report
            # false unreachability) as soon as a frontier row has a multiple
            # of 256 neighbours at the same level.
            adjacency = self.adjacency_matrix().astype(np.int64)
            matrix = np.full((n, n), -1, dtype=np.int32)
            np.fill_diagonal(matrix, 0)
            visited = np.eye(n, dtype=bool)
            frontier = np.eye(n, dtype=bool)
            level = 0
            while frontier.any():
                level += 1
                frontier = ((frontier.astype(np.int64) @ adjacency) > 0) & ~visited
                matrix[frontier] = level
                visited |= frontier
            matrix.setflags(write=False)
            self._distance = matrix
        return self._distance

    def distance_matrix64(self) -> np.ndarray:
        """:meth:`distance_matrix` widened to ``int64`` (cached, read-only).

        The native routing loop reads one distance type for both the
        hop-count and the calibration-weighted router.
        """
        if self._distance64 is None:
            matrix = self.distance_matrix().astype(np.int64)
            matrix.setflags(write=False)
            self._distance64 = matrix
        return self._distance64

    def distance(self, qubit_a: int, qubit_b: int) -> float:
        """Shortest-path distance between two physical qubits (inf if unreachable)."""
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        hops = int(self.distance_matrix()[qubit_a, qubit_b])
        return float(hops) if hops >= 0 else math.inf

    def __repr__(self) -> str:
        return f"CouplingMap({self.name}, qubits={self.num_qubits}, edges={len(self.edges)})"
