"""Compressed-sparse-row directed graph.

The RR-set generators need fast access to the *in*-neighbourhood of a node
(reverse BFS), while forward Monte-Carlo simulation needs the
*out*-neighbourhood.  :class:`CSRDiGraph` therefore stores both adjacency
directions as CSR arrays built once at construction time.

Edges are identified by their position in the canonical edge arrays
(``sources``, ``targets``), so per-topic and per-advertiser probabilities can
be stored as plain ``float`` arrays of length ``num_edges`` aligned with those
positions.  The in-CSR keeps, for every in-edge, the index of the canonical
edge it mirrors (``in_edge_ids``) so probability lookups during reverse
traversal stay O(1) and vectorisable.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.exceptions import GraphError


class CSRDiGraph:
    """Immutable directed graph in CSR form.

    Parameters
    ----------
    num_nodes:
        Number of nodes; nodes are the integers ``0 .. num_nodes - 1``.
    sources, targets:
        Parallel integer arrays defining the directed edges
        ``sources[k] -> targets[k]``.  Self-loops and exact duplicate edges
        are rejected because the diffusion models assume simple graphs.
    """

    def __init__(self, num_nodes: int, sources: np.ndarray, targets: np.ndarray):
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        if sources.shape != targets.shape or sources.ndim != 1:
            raise GraphError("sources and targets must be 1-D arrays of equal length")
        if sources.size:
            if sources.min(initial=0) < 0 or targets.min(initial=0) < 0:
                raise GraphError("edge endpoints must be non-negative node ids")
            if sources.max(initial=-1) >= num_nodes or targets.max(initial=-1) >= num_nodes:
                raise GraphError("edge endpoint exceeds num_nodes - 1")
            if np.any(sources == targets):
                raise GraphError("self-loops are not supported")
        self._num_nodes = int(num_nodes)
        self._sources, self._targets = self._deduplicate(sources, targets)
        self._build_out_csr()
        self._build_in_csr()
        self._freeze()

    # ------------------------------------------------------------------ #
    # alternate constructors (trusted inputs, no copies)
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sorted_edges(
        cls, num_nodes: int, sources: np.ndarray, targets: np.ndarray
    ) -> "CSRDiGraph":
        """Build a graph from edges already in canonical order — no dedup pass.

        The caller guarantees the edge list is lexicographically sorted by
        ``(source, target)``, duplicate-free, self-loop-free and in range;
        only the cheap O(m) sortedness check runs.  Because canonical order
        equals out-CSR order, the out adjacency is adopted **without a sort
        or a copy** — this is the streamed-builder fast path that keeps
        million-edge construction inside a bounded memory envelope.
        """
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        if sources.shape != targets.shape or sources.ndim != 1:
            raise GraphError("sources and targets must be 1-D arrays of equal length")
        if sources.size:
            order = (sources[:-1] < sources[1:]) | (
                (sources[:-1] == sources[1:]) & (targets[:-1] < targets[1:])
            )
            if not bool(order.all()):
                raise GraphError(
                    "from_sorted_edges requires strictly increasing "
                    "(source, target) pairs; use CSRDiGraph(...) for unsorted edges"
                )
        graph = cls.__new__(cls)
        graph._num_nodes = int(num_nodes)
        graph._sources = sources
        graph._targets = targets
        # Canonical order == out-CSR order: adopt, don't sort.
        graph._out_targets = targets
        graph._out_edge_ids = np.arange(sources.size, dtype=np.int64)
        counts = np.bincount(sources, minlength=num_nodes) if sources.size else np.zeros(
            num_nodes, dtype=np.int64
        )
        graph._out_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        graph._build_in_csr()
        graph._freeze()
        return graph

    @classmethod
    def from_parts(
        cls,
        num_nodes: int,
        sources: np.ndarray,
        targets: np.ndarray,
        out_offsets: np.ndarray,
        out_targets: np.ndarray,
        out_edge_ids: np.ndarray,
        in_offsets: np.ndarray,
        in_sources: np.ndarray,
        in_edge_ids: np.ndarray,
    ) -> "CSRDiGraph":
        """Adopt pre-built CSR arrays verbatim — zero validation, zero copy.

        The reconstruction path of :mod:`repro.graph.storage`: the arrays are
        typically read-only views over one packed shared-memory segment or
        memory-mapped file, so attaching a million-node graph in a worker
        costs microseconds and no RSS.  :class:`~repro.graph.deltas.MutableGraphView`
        adopts its patched snapshots the same way.  All arrays are marked
        read-only.
        """
        graph = cls.__new__(cls)
        graph._num_nodes = int(num_nodes)
        graph._sources = np.asarray(sources, dtype=np.int64)
        graph._targets = np.asarray(targets, dtype=np.int64)
        graph._out_offsets = np.asarray(out_offsets, dtype=np.int64)
        graph._out_targets = np.asarray(out_targets, dtype=np.int64)
        graph._out_edge_ids = np.asarray(out_edge_ids, dtype=np.int64)
        graph._in_offsets = np.asarray(in_offsets, dtype=np.int64)
        graph._in_sources = np.asarray(in_sources, dtype=np.int64)
        graph._in_edge_ids = np.asarray(in_edge_ids, dtype=np.int64)
        graph._freeze()
        return graph

    def _freeze(self) -> None:
        # Every CSR array is read-only for the graph's whole life: workers
        # rebuild views over one shared physical copy, and a writable view
        # anywhere would let one process silently corrupt every other's
        # graph.  Mutation goes through MutableGraphView snapshots instead.
        for array in (
            self._sources,
            self._targets,
            self._out_offsets,
            self._out_targets,
            self._out_edge_ids,
            self._in_offsets,
            self._in_sources,
            self._in_edge_ids,
        ):
            array.setflags(write=False)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _deduplicate(sources: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if sources.size == 0:
            return sources.copy(), targets.copy()
        stacked = np.stack([sources, targets], axis=1)
        unique = np.unique(stacked, axis=0)
        return unique[:, 0].copy(), unique[:, 1].copy()

    def _build_out_csr(self) -> None:
        order = np.argsort(self._sources, kind="stable")
        self._out_targets = self._targets[order]
        self._out_edge_ids = order.astype(np.int64)
        counts = np.bincount(self._sources, minlength=self._num_nodes)
        self._out_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    def _build_in_csr(self) -> None:
        order = np.argsort(self._targets, kind="stable")
        self._in_sources = self._sources[order]
        self._in_edge_ids = order.astype(np.int64)
        counts = np.bincount(self._targets, minlength=self._num_nodes)
        self._in_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the graph."""
        return int(self._sources.size)

    @property
    def sources(self) -> np.ndarray:
        """Canonical edge source array (read-only view)."""
        view = self._sources.view()
        view.setflags(write=False)
        return view

    @property
    def targets(self) -> np.ndarray:
        """Canonical edge target array (read-only view)."""
        view = self._targets.view()
        view.setflags(write=False)
        return view

    def nodes(self) -> range:
        """Iterate node identifiers ``0 .. num_nodes - 1``."""
        return range(self._num_nodes)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield directed edges as ``(source, target)`` pairs."""
        for u, v in zip(self._sources.tolist(), self._targets.tolist()):
            yield u, v

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #
    def out_neighbors(self, node: int) -> np.ndarray:
        """Targets of the out-edges of ``node`` (read-only slice)."""
        self._check_node(node)
        return self._out_targets[self._out_offsets[node]: self._out_offsets[node + 1]]

    def out_edge_ids(self, node: int) -> np.ndarray:
        """Canonical edge ids of the out-edges of ``node``."""
        self._check_node(node)
        return self._out_edge_ids[self._out_offsets[node]: self._out_offsets[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """Sources of the in-edges of ``node`` (read-only slice)."""
        self._check_node(node)
        return self._in_sources[self._in_offsets[node]: self._in_offsets[node + 1]]

    def in_edge_ids(self, node: int) -> np.ndarray:
        """Canonical edge ids of the in-edges of ``node``."""
        self._check_node(node)
        return self._in_edge_ids[self._in_offsets[node]: self._in_offsets[node + 1]]

    def out_degree(self, node: int) -> int:
        """Number of out-edges of ``node``."""
        self._check_node(node)
        return int(self._out_offsets[node + 1] - self._out_offsets[node])

    def in_degree(self, node: int) -> int:
        """Number of in-edges of ``node``."""
        self._check_node(node)
        return int(self._in_offsets[node + 1] - self._in_offsets[node])

    def out_degrees(self) -> np.ndarray:
        """Array of out-degrees for every node."""
        return np.diff(self._out_offsets)

    def in_degrees(self) -> np.ndarray:
        """Array of in-degrees for every node."""
        return np.diff(self._in_offsets)

    @property
    def in_offsets(self) -> np.ndarray:
        """CSR offsets of the in-adjacency (length ``num_nodes + 1``)."""
        view = self._in_offsets.view()
        view.setflags(write=False)
        return view

    @property
    def in_sources(self) -> np.ndarray:
        """Concatenated in-neighbour array aligned with :attr:`in_offsets`."""
        view = self._in_sources.view()
        view.setflags(write=False)
        return view

    @property
    def in_edge_id_array(self) -> np.ndarray:
        """Canonical edge ids aligned with :attr:`in_sources`."""
        view = self._in_edge_ids.view()
        view.setflags(write=False)
        return view

    @property
    def out_offsets(self) -> np.ndarray:
        """CSR offsets of the out-adjacency (length ``num_nodes + 1``)."""
        view = self._out_offsets.view()
        view.setflags(write=False)
        return view

    @property
    def out_target_array(self) -> np.ndarray:
        """Concatenated out-neighbour array aligned with :attr:`out_offsets`."""
        view = self._out_targets.view()
        view.setflags(write=False)
        return view

    @property
    def out_edge_id_array(self) -> np.ndarray:
        """Canonical edge ids aligned with :attr:`out_target_array`."""
        view = self._out_edge_ids.view()
        view.setflags(write=False)
        return view

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The in-adjacency as one ``(offsets, sources, edge_ids)`` triple.

        Hot-path accessor for the RR-set engine: one call hands out all three
        aligned arrays (read-only views) instead of three property lookups.
        """
        return self.in_offsets, self.in_sources, self.in_edge_id_array

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The out-adjacency as one ``(offsets, targets, edge_ids)`` triple."""
        return self.out_offsets, self.out_target_array, self.out_edge_id_array

    def has_edge(self, source: int, target: int) -> bool:
        """Return True if the directed edge ``source -> target`` exists."""
        self._check_node(source)
        self._check_node(target)
        return bool(np.any(self.out_neighbors(source) == target))

    def reverse(self) -> "CSRDiGraph":
        """Return a new graph with every edge direction flipped."""
        return CSRDiGraph(self._num_nodes, self._targets.copy(), self._sources.copy())

    def subgraph(self, nodes: Iterable[int]) -> "CSRDiGraph":
        """Induced subgraph on ``nodes`` with node ids relabelled ``0..k-1``.

        The relabelling follows the sorted order of the provided nodes.
        """
        node_list = np.unique(np.asarray(list(nodes), dtype=np.int64))
        if node_list.size and (node_list.min() < 0 or node_list.max() >= self._num_nodes):
            raise GraphError("subgraph nodes must be existing node ids")
        relabel = -np.ones(self._num_nodes, dtype=np.int64)
        relabel[node_list] = np.arange(node_list.size)
        keep = (relabel[self._sources] >= 0) & (relabel[self._targets] >= 0)
        return CSRDiGraph(
            int(node_list.size),
            relabel[self._sources[keep]],
            relabel[self._targets[keep]],
        )

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise GraphError(f"node {node} is out of range [0, {self._num_nodes})")

    def __repr__(self) -> str:
        return f"CSRDiGraph(num_nodes={self._num_nodes}, num_edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRDiGraph):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and np.array_equal(self._sources, other._sources)
            and np.array_equal(self._targets, other._targets)
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs used as dict keys rarely
        return hash((self._num_nodes, self.num_edges))
