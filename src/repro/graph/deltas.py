"""Streaming graph deltas over an immutable :class:`CSRDiGraph`.

:class:`CSRDiGraph` is frozen by design — the traversal engines depend on its
CSR arrays never moving underneath them.  :class:`MutableGraphView` is the
mutability layer on top: it owns the *current* graph together with the
per-advertiser edge-probability arrays, accepts **typed delta batches**
(:class:`AddEdge`, :class:`RemoveEdge`, :class:`UpdateProbability`,
:class:`AddNode`, :class:`RemoveNode`), and publishes a fresh frozen snapshot
per batch.  Every applied batch advances an epoch counter, so downstream
consumers (the incremental RR-set store in :mod:`repro.rrsets.store`) can
reason about *what changed* instead of diffing graphs.

The snapshot is kept as arrays — sorted packed edge keys, an ``(h, m)``
probability matrix and the CSR graph itself — and a batch is validated
against a per-batch overlay of the edges it touches, then committed with
vectorized array edits.  The in-CSR is patched at the positions the batch
touches (:class:`InEdgeEdit`) instead of being re-sorted, so the cost of a
batch is a few O(m) array copies, not a sort or a Python walk over the edge
set.

The dirty-region contract
-------------------------
Reverse-reachability traversals only ever examine the **in-neighbourhood of
nodes they visit**: an RR-set's replay is a pure function of the root draw,
the advertiser draw, and the in-CSR blocks of its member nodes.  A delta
batch therefore dirties exactly the nodes whose in-blocks it touches:

* ``AddEdge(u, v)`` / ``RemoveEdge(u, v)`` dirty ``v`` (for every
  advertiser — the block's degree and content change);
* ``UpdateProbability(u, v, advertiser=i)`` dirties ``v`` *for advertiser
  i only* (other advertisers' probability arrays are untouched);
* ``RemoveNode(x)`` removes all incident edges, dirtying every out-neighbour
  of ``x`` (their in-blocks lose the edge from ``x``) and ``x`` itself when
  it had in-edges.  The node *id* survives as an isolated node — removal is
  **isolation**, which keeps the id space (and the root-draw domain) stable;
* ``AddNode`` grows the id space, which changes the root-draw domain for
  every RR-set — reported as ``num_nodes_changed`` so consumers know the
  delta is global, not localized.

:meth:`MutableGraphView.apply` returns a :class:`DeltaEffect` carrying this
dirty region; the RR store intersects it with each RR-set's member signature
to decide what to invalidate.  The edge keys sort in the same lexicographic
``(source, target)`` order :class:`CSRDiGraph` derives itself, so the
probability arrays stay aligned with ``graph.sources`` / ``graph.targets`` by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.exceptions import GraphError
from repro.graph.digraph import CSRDiGraph

_EMPTY_NODES = np.empty(0, dtype=np.int64)
_EMPTY_NODES.setflags(write=False)

#: An edge ``(u, v)`` is keyed ``(u << _SHIFT) | v``; with ids below
#: ``2**31`` every key is a non-negative int64 and key order is the
#: canonical ``(source, target)`` order.
_SHIFT = 32
_TARGET_MASK = (1 << _SHIFT) - 1
_MAX_NODES = 1 << 31


def _check_key_space(num_nodes: int) -> None:
    if num_nodes > _MAX_NODES:
        raise GraphError(
            f"num_nodes {num_nodes} exceeds the {_MAX_NODES} node ids an edge key can hold"
        )


# ---------------------------------------------------------------------- #
# typed deltas
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AddEdge:
    """Insert the directed edge ``source -> target``.

    ``probabilities`` carries one activation probability per advertiser for
    the new edge (length ``h``); the edge must not already exist.
    """

    source: int
    target: int
    probabilities: Tuple[float, ...]


@dataclass(frozen=True)
class RemoveEdge:
    """Delete the directed edge ``source -> target`` (must exist)."""

    source: int
    target: int


@dataclass(frozen=True)
class UpdateProbability:
    """Set the activation probability of an existing edge.

    ``advertiser=None`` updates every advertiser's probability for the edge
    (dirtying the target globally); an explicit index updates — and dirties —
    only that advertiser's view of the edge.
    """

    source: int
    target: int
    probability: float
    advertiser: Optional[int] = None


@dataclass(frozen=True)
class AddNode:
    """Append ``count`` fresh isolated nodes (ids ``n .. n + count - 1``)."""

    count: int = 1


@dataclass(frozen=True)
class RemoveNode:
    """Isolate ``node``: delete all incident edges, keep the id.

    True id compaction would renumber every surviving node and invalidate
    all recorded RR-sets; isolation keeps the id space stable so the delta
    stays localized.  The isolated id remains a valid (degree-0) node.
    """

    node: int


GraphDelta = Union[AddEdge, RemoveEdge, UpdateProbability, AddNode, RemoveNode]


class InEdgeEdit(NamedTuple):
    """How one batch changed the snapshot's in-CSR, by position.

    An array aligned with the old in-CSR (one entry per in-edge position) is
    aligned with the new one by :meth:`splice` — ``deleted`` entries
    dropped, a zero opened at every ``inserted`` position — after which the
    caller fills the inserted positions; the entries at ``updated`` are
    edges whose probabilities were rewritten.
    """

    deleted: np.ndarray  #: old in-positions of the removed edges, ascending
    inserted: np.ndarray  #: new in-positions of the added edges, ascending
    updated: np.ndarray  #: new in-positions of the rewritten edges, ascending

    def splice(self, array: np.ndarray) -> np.ndarray:
        """A copy of ``array`` (last axis aligned with the old in-CSR)
        aligned with the new one; the inserted positions hold zeros."""
        return _splice(
            array, self.deleted, self.inserted - np.arange(self.inserted.size)
        )


@dataclass(frozen=True)
class DeltaEffect:
    """What one applied batch dirtied — the invalidation input of consumers.

    Attributes
    ----------
    epoch:
        The view's epoch *after* the batch was applied.
    num_deltas:
        Number of deltas in the batch.
    dirty_nodes:
        Sorted node ids whose in-neighbourhood changed for **every**
        advertiser (structural edge changes and all-advertiser probability
        updates).
    dirty_nodes_by_advertiser:
        Per-advertiser sorted node ids dirtied only for that advertiser
        (single-advertiser probability updates); advertisers with no
        private dirt are absent.
    num_nodes_changed:
        ``True`` when the batch grew the node id space (``AddNode``) —
        a global delta for consumers whose draws depend on ``num_nodes``.
    in_edit:
        The batch's :class:`InEdgeEdit`, so that a consumer holding arrays
        aligned with the in-CSR can patch them instead of rebuilding.
    """

    epoch: int
    num_deltas: int
    dirty_nodes: np.ndarray
    dirty_nodes_by_advertiser: Mapping[int, np.ndarray] = field(default_factory=dict)
    num_nodes_changed: bool = False
    in_edit: Optional[InEdgeEdit] = None

    @property
    def is_global(self) -> bool:
        """Whether the batch invalidates consumers regardless of locality."""
        return self.num_nodes_changed


class MutableGraphView:
    """A mutable (graph, per-advertiser probabilities) pair.

    The current snapshot is held as arrays: the sorted packed edge keys
    ``(source << 32) | target``, the ``(h, m)`` probability matrix whose
    column ``k`` belongs to key ``k``, and the frozen :class:`CSRDiGraph`
    built from those keys.  :meth:`apply` never copies the edge set into
    Python objects; it validates a batch against a small overlay of the
    touched edges and commits it with a handful of vectorized array edits.

    Parameters
    ----------
    graph:
        The initial frozen snapshot (in canonical edge order, as every
        :class:`CSRDiGraph` constructor produces it).
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
        _check_key_space(graph.num_nodes)
        self._num_advertisers = len(advertiser_edge_probabilities)
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
        self._epoch = 0
        self._commit(graph, (graph.sources << _SHIFT) | graph.targets, matrix)

    def _commit(self, graph: CSRDiGraph, keys: np.ndarray, matrix: np.ndarray) -> None:
        """Publish a snapshot; every array it exposes is read-only."""
        keys.setflags(write=False)
        matrix.setflags(write=False)
        self._graph = graph
        self._num_nodes = graph.num_nodes
        self._keys = keys
        self._matrix = matrix
        self._probabilities = list(matrix)

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
        return int(self._keys.size)

    @property
    def epoch(self) -> int:
        """Number of delta batches applied so far."""
        return self._epoch

    def _column(self, source: int, target: int) -> Optional[int]:
        """The snapshot column of an edge, or ``None`` when it is absent."""
        if not (0 <= source < self._num_nodes and 0 <= target < self._num_nodes):
            return None
        key = (source << _SHIFT) | target
        column = int(np.searchsorted(self._keys, key))
        if column < self._keys.size and int(self._keys[column]) == key:
            return column
        return None

    def has_edge(self, source: int, target: int) -> bool:
        """Whether the directed edge currently exists."""
        return self._column(int(source), int(target)) is not None

    def edge_probability(self, source: int, target: int, advertiser: int) -> float:
        """Current activation probability of an edge for one advertiser."""
        key = (int(source), int(target))
        column = self._column(*key)
        if column is None:
            raise GraphError(f"edge {key} does not exist")
        if not 0 <= advertiser < self._num_advertisers:
            raise GraphError(f"advertiser {advertiser} out of range")
        return float(self._matrix[advertiser, column])

    def edges(self) -> List[Tuple[int, int]]:
        """Current edges in canonical (lexicographic) order."""
        return list(zip(self._graph.sources.tolist(), self._graph.targets.tolist()))

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #
    def apply(self, deltas: Iterable[GraphDelta]) -> DeltaEffect:
        """Apply one batch of deltas, publish a new snapshot, return the effect.

        Deltas are validated and applied **in order** against the evolving
        state, so a batch may add an edge and remove it again (an inverse
        pair — still dirties the target conservatively).  The evolving state
        is the snapshot seen through a per-batch overlay: a dict holding only
        the edges this batch touched, mapped to their current probability
        vector, or ``None`` once deleted.  Validation failures raise
        :class:`~repro.exceptions.GraphError` before anything is committed,
        so a rejected batch leaves the view exactly as it was.
        """
        deltas = list(deltas)
        overlay: Dict[Tuple[int, int], Optional[np.ndarray]] = {}
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

        def current(u: int, v: int) -> Optional[np.ndarray]:
            if (u, v) in overlay:
                return overlay[(u, v)]
            column = self._column(u, v)
            return None if column is None else self._matrix[:, column]

        def neighbours(x: int, outgoing: bool) -> List[int]:
            peers: Set[int] = set()
            if x < self._num_nodes:
                snapshot = (
                    self._graph.out_neighbors(x)
                    if outgoing
                    else self._graph.in_neighbors(x)
                )
                peers.update(snapshot.tolist())
            for (u, v), vector in overlay.items():
                if (u if outgoing else v) == x:
                    peer = v if outgoing else u
                    if vector is None:
                        peers.discard(peer)
                    else:
                        peers.add(peer)
            return sorted(peers)

        for delta in deltas:
            if isinstance(delta, AddEdge):
                u, v = check_node(delta.source), check_node(delta.target)
                if u == v:
                    raise GraphError("self-loops are not supported")
                if current(u, v) is not None:
                    raise GraphError(f"edge ({u}, {v}) already exists")
                probabilities = np.array(delta.probabilities, dtype=np.float64)
                if probabilities.shape != (h,):
                    raise GraphError(
                        f"AddEdge needs one probability per advertiser ({h})"
                    )
                if probabilities.min() < 0 or probabilities.max() > 1:
                    raise GraphError("edge probabilities must lie in [0, 1]")
                overlay[(u, v)] = probabilities
                dirty.add(v)
            elif isinstance(delta, RemoveEdge):
                u, v = check_node(delta.source), check_node(delta.target)
                if current(u, v) is None:
                    raise GraphError(f"edge ({u}, {v}) does not exist")
                overlay[(u, v)] = None
                dirty.add(v)
            elif isinstance(delta, UpdateProbability):
                u, v = check_node(delta.source), check_node(delta.target)
                vector = current(u, v)
                if vector is None:
                    raise GraphError(f"edge ({u}, {v}) does not exist")
                p = float(delta.probability)
                if not 0.0 <= p <= 1.0:
                    raise GraphError("edge probabilities must lie in [0, 1]")
                vector = vector.copy()
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
                overlay[(u, v)] = vector
            elif isinstance(delta, AddNode):
                if int(delta.count) <= 0:
                    raise GraphError("AddNode.count must be positive")
                num_nodes += int(delta.count)
                _check_key_space(num_nodes)
                nodes_changed = True
            elif isinstance(delta, RemoveNode):
                x = check_node(delta.node)
                for v in neighbours(x, outgoing=True):
                    overlay[(x, v)] = None
                    dirty.add(v)
                in_edges = neighbours(x, outgoing=False)
                for u in in_edges:
                    overlay[(u, x)] = None
                if in_edges:
                    dirty.add(x)
            else:
                raise GraphError(f"unknown delta type: {type(delta).__name__}")

        graph, keys, matrix, edit = self._patched(num_nodes, overlay)
        self._commit(graph, keys, matrix)
        self._epoch += 1

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
            in_edit=edit,
        )

    def _patched(
        self, num_nodes: int, overlay: Mapping[Tuple[int, int], Optional[np.ndarray]]
    ) -> Tuple[CSRDiGraph, np.ndarray, np.ndarray, InEdgeEdit]:
        """The snapshot with a batch's overlay folded in, as new arrays.

        Deleted snapshot edges are spliced out of the keys and the matrix,
        new edges are spliced in at their ``searchsorted`` positions (so the
        keys stay in canonical order) and rewritten edges are overwritten,
        in one copy of each array.  The graph is patched the same way
        (:func:`_patched_graph`).
        """
        keys, matrix = self._keys, self._matrix
        deleted = added = at = updated = _EMPTY_NODES
        if overlay:
            touched = np.array([(u << _SHIFT) | v for u, v in overlay], dtype=np.int64)
            vectors = list(overlay.values())
            live = np.array([vector is not None for vector in vectors])
            columns = np.searchsorted(keys, touched)
            known = columns < keys.size
            known[known] = keys[columns[known]] == touched[known]
            is_updated, is_deleted, is_added = known & live, known & ~live, ~known & live

            def stacked(mask: np.ndarray) -> np.ndarray:
                return np.stack([vectors[i] for i in np.flatnonzero(mask)], axis=1)

            deleted = np.sort(columns[is_deleted])
            order = np.argsort(touched[is_added])
            added = touched[is_added][order]
            # Insert positions into the keys left after the deletion.
            at = columns[is_added][order]
            at -= np.searchsorted(deleted, at)
            updated = touched[is_updated]
            keys = _splice(keys, deleted, at)
            matrix = _splice(matrix, deleted, at)
            if added.size:
                inserted = at + np.arange(added.size)
                keys[inserted] = added
                matrix[:, inserted] = stacked(is_added)[:, order]
            if updated.size:
                matrix[:, _renumbered(columns[is_updated], deleted, at)] = stacked(is_updated)
        graph, edit = _patched_graph(
            self._graph, num_nodes, keys, deleted, added, at, updated
        )
        return graph, keys, matrix, edit

    def __repr__(self) -> str:
        return (
            f"MutableGraphView(num_nodes={self._num_nodes}, "
            f"num_edges={self.num_edges}, h={self._num_advertisers}, "
            f"epoch={self._epoch})"
        )


# ---------------------------------------------------------------------- #
# CSR patching
# ---------------------------------------------------------------------- #
def _splice(array: np.ndarray, deleted: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``np.insert(np.delete(array, deleted, -1), at, 0, -1)`` in one copy.

    Along the last axis, the entries at the ascending positions ``deleted``
    are dropped and a zero is opened before each position ``at``
    (non-decreasing, counted after the drop).  The runs in between are
    copied as slices, one per run.
    """
    size = array.shape[-1] - deleted.size
    out = np.empty(array.shape[:-1] + (size + at.size,), dtype=array.dtype)
    gaps = deleted - np.arange(deleted.size)
    cuts = np.unique(np.concatenate(([0, size], gaps, at)))
    # Per run start: entries dropped before it, and zeros opened before it.
    dropped = np.searchsorted(gaps, cuts, side="right").tolist()
    opened = np.searchsorted(at, cuts, side="right").tolist()
    cuts = cuts.tolist()
    for lo, hi, skip, shift in zip(cuts, cuts[1:], dropped, opened):
        out[..., lo + shift:hi + shift] = array[..., lo + skip:hi + skip]
    out[..., at + np.arange(at.size)] = 0
    return out


def _renumbered(columns: np.ndarray, deleted: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Where surviving canonical ``columns`` land after :func:`_splice`."""
    columns = columns - np.searchsorted(deleted, columns)
    return columns + np.searchsorted(at, columns, side="right")


def _block_lower_bounds(
    offsets: np.ndarray, values: np.ndarray, blocks: np.ndarray, queries: np.ndarray
) -> np.ndarray:
    """First position in CSR block ``blocks[i]`` whose value is ``>= queries[i]``.

    Every block ``values[offsets[b]:offsets[b + 1]]`` is ascending; all
    queries are bisected together, one vectorized step per halving.
    """
    lo = offsets[blocks]
    hi = offsets[blocks + 1]
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) >> 1
        below = open_ & (values[np.where(open_, mid, 0)] < queries)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(open_ & ~below, mid, hi)


def _patched_offsets(
    offsets: np.ndarray, num_nodes: int, added: np.ndarray, removed: np.ndarray
) -> np.ndarray:
    """CSR offsets over ``num_nodes`` blocks after adding and removing entries
    whose block ids are ``added`` and ``removed``."""
    grow = num_nodes + 1 - offsets.size
    if grow == 0 and added.size == 0 and removed.size == 0:
        return offsets
    patched = np.concatenate((offsets, np.full(grow, offsets[-1], dtype=np.int64)))
    counts = np.bincount(added, minlength=num_nodes) - np.bincount(removed, minlength=num_nodes)
    patched[1:] += np.cumsum(counts)
    return patched


def _patched_graph(
    graph: CSRDiGraph,
    num_nodes: int,
    keys: np.ndarray,
    deleted: np.ndarray,
    added: np.ndarray,
    at: np.ndarray,
    updated: np.ndarray,
) -> Tuple[CSRDiGraph, InEdgeEdit]:
    """``graph`` after one batch, without re-sorting its in-CSR.

    ``keys`` are the new canonical edge keys; ``deleted`` the old canonical
    columns removed, ``added`` the inserted keys (ascending) and ``at``
    their insert positions into the keys left after deletion; ``updated``
    the keys of rewritten edges.  The in-CSR (ordered by target, then
    source) loses the deleted edges and gains the added ones at bisected
    block positions, and its canonical edge ids are renumbered — the same
    three arrays an argsort of all targets would give.
    """
    offsets, in_sources, in_ids = graph.in_csr()
    offsets = _patched_offsets(offsets, num_nodes, _EMPTY_NODES, _EMPTY_NODES)
    removed_sources, removed_targets = graph.sources[deleted], graph.targets[deleted]
    added_sources, added_targets = added >> _SHIFT, added & _TARGET_MASK
    dropped = np.sort(
        _block_lower_bounds(offsets, in_sources, removed_targets, removed_sources)
    )
    # In-CSR order of the added edges, and their positions after the drop.
    order = np.lexsort((added_sources, added_targets))
    places = _block_lower_bounds(
        offsets, in_sources, added_targets[order], added_sources[order]
    )
    places -= np.searchsorted(dropped, places)
    edit = InEdgeEdit(dropped, places + np.arange(added.size), _EMPTY_NODES)
    if dropped.size or added.size:
        in_sources = edit.splice(in_sources)
        in_sources[edit.inserted] = added_sources[order]
        in_ids = _renumbered(edit.splice(in_ids), deleted, at)
        in_ids[edit.inserted] = (at + np.arange(added.size))[order]
    offsets = _patched_offsets(offsets, num_nodes, added_targets, removed_targets)
    sources, targets = keys >> _SHIFT, keys & _TARGET_MASK
    patched = CSRDiGraph.from_parts(
        num_nodes,
        sources,
        targets,
        _patched_offsets(graph.out_offsets, num_nodes, added_sources, removed_sources),
        targets,
        np.arange(keys.size, dtype=np.int64),
        offsets,
        in_sources,
        in_ids,
    )
    rewritten = _block_lower_bounds(
        offsets, in_sources, updated & _TARGET_MASK, updated >> _SHIFT
    )
    return patched, edit._replace(updated=np.sort(rewritten))
