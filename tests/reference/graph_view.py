"""The dict-backed graph view — the reference semantics for the library view.

This :class:`MutableGraphView` keeps the current edge set as a
``{(u, v): probability vector}`` dict plus out/in adjacency sets, applies a
batch to a full copy of all three, and rebuilds the snapshot from scratch
with the :class:`CSRDiGraph` constructor.  The library view
(:class:`repro.graph.deltas.MutableGraphView`) keeps sorted arrays and a
per-batch overlay instead, and must reproduce this view's snapshots,
probability arrays, :class:`DeltaEffect` and errors batch for batch;
``tests/test_rr_store_incremental.py`` compares the two.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.deltas import (
    AddEdge,
    AddNode,
    DeltaEffect,
    GraphDelta,
    RemoveEdge,
    RemoveNode,
    UpdateProbability,
)
from repro.graph.digraph import CSRDiGraph

_EMPTY_NODES = np.empty(0, dtype=np.int64)
_EMPTY_NODES.setflags(write=False)


class MutableGraphView:
    """A mutable (graph, per-advertiser probabilities) pair with a delta log.

    Parameters
    ----------
    graph:
        The initial frozen snapshot.
    advertiser_edge_probabilities:
        One probability array per advertiser, aligned with the graph's
        canonical edge order (exactly what
        :meth:`~repro.advertising.instance.RMInstance.all_edge_probabilities`
        returns).  Copied — the view never aliases caller arrays.
    """

    def __init__(
        self,
        graph: CSRDiGraph,
        advertiser_edge_probabilities: Sequence[np.ndarray],
    ):
        if len(advertiser_edge_probabilities) == 0:
            raise GraphError("at least one advertiser probability array is required")
        self._num_advertisers = len(advertiser_edge_probabilities)
        self._num_nodes = graph.num_nodes
        sources = graph.sources
        targets = graph.targets
        matrix = np.empty((self._num_advertisers, graph.num_edges), dtype=np.float64)
        for row, probabilities in enumerate(advertiser_edge_probabilities):
            probabilities = np.asarray(probabilities, dtype=np.float64)
            if probabilities.shape != (graph.num_edges,):
                raise GraphError(
                    "every probability array must have one entry per edge"
                )
            if probabilities.size and (
                probabilities.min() < 0 or probabilities.max() > 1
            ):
                raise GraphError("edge probabilities must lie in [0, 1]")
            matrix[row] = probabilities
        # Edge registry: (u, v) -> per-advertiser probability vector.  The
        # canonical (lexicographic) order is recovered by sorting the keys at
        # snapshot time, which matches CSRDiGraph's own edge order.
        self._edges: Dict[Tuple[int, int], np.ndarray] = {
            (int(sources[k]), int(targets[k])): matrix[:, k].copy()
            for k in range(graph.num_edges)
        }
        self._out_map: Dict[int, Set[int]] = {}
        self._in_map: Dict[int, Set[int]] = {}
        for u, v in self._edges:
            self._out_map.setdefault(u, set()).add(v)
            self._in_map.setdefault(v, set()).add(u)
        self._epoch = 0
        self._log: List[Tuple[int, GraphDelta]] = []
        self._graph = graph
        self._probabilities = [
            np.asarray(p, dtype=np.float64).copy()
            for p in advertiser_edge_probabilities
        ]
        for array in self._probabilities:
            array.setflags(write=False)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> CSRDiGraph:
        """The current frozen CSR snapshot."""
        return self._graph

    @property
    def advertiser_edge_probabilities(self) -> List[np.ndarray]:
        """Per-advertiser probability arrays aligned with the current snapshot."""
        return list(self._probabilities)

    @property
    def num_advertisers(self) -> int:
        """Number of advertisers ``h`` (fixed at construction)."""
        return self._num_advertisers

    @property
    def num_nodes(self) -> int:
        """Current node count (grows under :class:`AddNode`)."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Current edge count."""
        return len(self._edges)

    @property
    def epoch(self) -> int:
        """Number of delta batches applied so far."""
        return self._epoch

    @property
    def log(self) -> Tuple[Tuple[int, GraphDelta], ...]:
        """Every applied delta as ``(epoch, delta)``, in application order."""
        return tuple(self._log)

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge currently exists."""
        return (int(source), int(target)) in self._edges

    def edge_probability(self, source: int, target: int, advertiser: int) -> float:
        """Current activation probability of an edge for one advertiser."""
        key = (int(source), int(target))
        if key not in self._edges:
            raise GraphError(f"edge {key} does not exist")
        if not 0 <= advertiser < self._num_advertisers:
            raise GraphError(f"advertiser {advertiser} out of range")
        return float(self._edges[key][advertiser])

    def edges(self) -> List[Tuple[int, int]]:
        """Current edges in canonical (lexicographic) order."""
        return sorted(self._edges)

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #
    def apply(self, deltas: Iterable[GraphDelta]) -> DeltaEffect:
        """Apply one batch of deltas, rebuild the snapshot, return the effect.

        Deltas are validated and applied **in order** against the evolving
        state, so a batch may add an edge and remove it again (an inverse
        pair — still dirties the target conservatively).  Validation failures
        raise :class:`~repro.exceptions.GraphError` *before* any state is
        mutated for that batch: the batch is applied onto a scratch copy and
        committed atomically.
        """
        deltas = list(deltas)
        edges = dict(self._edges)
        out_map = {node: set(peers) for node, peers in self._out_map.items()}
        in_map = {node: set(peers) for node, peers in self._in_map.items()}
        num_nodes = self._num_nodes
        dirty: Set[int] = set()
        dirty_by_advertiser: Dict[int, Set[int]] = {}
        nodes_changed = False
        h = self._num_advertisers

        def check_node(node: int) -> int:
            node = int(node)
            if not 0 <= node < num_nodes:
                raise GraphError(f"node {node} is out of range [0, {num_nodes})")
            return node

        for delta in deltas:
            if isinstance(delta, AddEdge):
                u, v = check_node(delta.source), check_node(delta.target)
                if u == v:
                    raise GraphError("self-loops are not supported")
                if (u, v) in edges:
                    raise GraphError(f"edge ({u}, {v}) already exists")
                probabilities = np.asarray(delta.probabilities, dtype=np.float64)
                if probabilities.shape != (h,):
                    raise GraphError(
                        f"AddEdge needs one probability per advertiser ({h})"
                    )
                if probabilities.min() < 0 or probabilities.max() > 1:
                    raise GraphError("edge probabilities must lie in [0, 1]")
                edges[(u, v)] = probabilities
                out_map.setdefault(u, set()).add(v)
                in_map.setdefault(v, set()).add(u)
                dirty.add(v)
            elif isinstance(delta, RemoveEdge):
                u, v = check_node(delta.source), check_node(delta.target)
                if (u, v) not in edges:
                    raise GraphError(f"edge ({u}, {v}) does not exist")
                del edges[(u, v)]
                out_map[u].discard(v)
                in_map[v].discard(u)
                dirty.add(v)
            elif isinstance(delta, UpdateProbability):
                u, v = check_node(delta.source), check_node(delta.target)
                if (u, v) not in edges:
                    raise GraphError(f"edge ({u}, {v}) does not exist")
                p = float(delta.probability)
                if not 0.0 <= p <= 1.0:
                    raise GraphError("edge probabilities must lie in [0, 1]")
                vector = edges[(u, v)].copy()
                if delta.advertiser is None:
                    vector[:] = p
                    dirty.add(v)
                else:
                    if not 0 <= delta.advertiser < h:
                        raise GraphError(
                            f"advertiser {delta.advertiser} out of range [0, {h})"
                        )
                    vector[delta.advertiser] = p
                    dirty_by_advertiser.setdefault(int(delta.advertiser), set()).add(v)
                edges[(u, v)] = vector
            elif isinstance(delta, AddNode):
                if int(delta.count) <= 0:
                    raise GraphError("AddNode.count must be positive")
                num_nodes += int(delta.count)
                nodes_changed = True
            elif isinstance(delta, RemoveNode):
                x = check_node(delta.node)
                for v in sorted(out_map.get(x, ())):
                    del edges[(x, v)]
                    in_map[v].discard(x)
                    dirty.add(v)
                in_edges = sorted(in_map.get(x, ()))
                for u in in_edges:
                    del edges[(u, x)]
                    out_map[u].discard(x)
                if in_edges:
                    dirty.add(x)
                out_map[x] = set()
                in_map[x] = set()
            else:
                raise GraphError(f"unknown delta type: {type(delta).__name__}")

        # Commit: rebuild the frozen snapshot in canonical order.
        keys = sorted(edges)
        if keys:
            sources = np.fromiter((u for u, _ in keys), dtype=np.int64, count=len(keys))
            targets = np.fromiter((v for _, v in keys), dtype=np.int64, count=len(keys))
            matrix = np.stack([edges[key] for key in keys], axis=1)
        else:
            sources = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
            matrix = np.empty((h, 0), dtype=np.float64)
        graph = CSRDiGraph(num_nodes, sources, targets)
        assert graph.num_edges == len(keys)  # canonical order already unique
        self._edges = edges
        self._out_map = out_map
        self._in_map = in_map
        self._num_nodes = num_nodes
        self._graph = graph
        self._probabilities = [matrix[row].copy() for row in range(h)]
        for array in self._probabilities:
            array.setflags(write=False)
        self._epoch += 1
        self._log.extend((self._epoch, delta) for delta in deltas)

        def frozen(nodes: Set[int]) -> np.ndarray:
            if not nodes:
                return _EMPTY_NODES
            array = np.fromiter(sorted(nodes), dtype=np.int64, count=len(nodes))
            array.setflags(write=False)
            return array

        return DeltaEffect(
            epoch=self._epoch,
            num_deltas=len(deltas),
            dirty_nodes=frozen(dirty),
            dirty_nodes_by_advertiser={
                advertiser: frozen(nodes)
                for advertiser, nodes in sorted(dirty_by_advertiser.items())
            },
            num_nodes_changed=nodes_changed,
        )

    def __repr__(self) -> str:
        return (
            f"MutableGraphView(num_nodes={self._num_nodes}, "
            f"num_edges={len(self._edges)}, h={self._num_advertisers}, "
            f"epoch={self._epoch})"
        )
