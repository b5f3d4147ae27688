"""Incrementally maintained RR-set store over a streaming graph.

:class:`RRStore` is the enabler for allocation-as-a-service: a long-lived,
advertiser-tagged RR-set collection that absorbs streaming graph deltas
(:mod:`repro.graph.deltas`) by invalidating and redrawing **only** the
RR-sets whose traversal touched the dirty region, instead of regenerating
the whole collection.

Determinism contract (the bit-identity invariant)
-------------------------------------------------
Every RR-set slot ``i`` is a pure function of ``(seed, i, graph,
probabilities, weights, rr_engine)`` — independent of every other slot, of
``n_jobs``, and of whether the slot was drawn at generation time or redrawn
during maintenance (:mod:`repro.rrsets.slots`):

* under ``fast()`` its tag, root and edge coins are hashes of ``(seed, i,
  edge key)`` — the hashed live-edge engine;
* under ``seed()`` it draws from its own substream
  ``SeedSequence(seed, spawn_key=(i,))``: one cpe-weighted advertiser draw,
  one root draw (``integers(0, num_nodes)``), then the traversal's
  Bernoulli blocks.

That purity is what makes the equivalence exact: a store that has absorbed
delta batches ``D`` is **bit-identical** (members, tags, roots, coverage
state) to a store generated fresh on ``graph + D`` under the same
``(seed, policy)``, because

* a slot whose member signature does not intersect the dirty region replays
  identically on the new graph — reverse traversal only examines the
  in-neighbourhoods of its members, and those blocks are unchanged (the
  hashed engine keys coins by edge, so even their order is irrelevant);
* a stale slot is redrawn with the *same* slot function the fresh store
  would use for that slot.

The invalidation rule — stale iff ``members ∩ dirty ≠ ∅`` (globally, or for
the slot's advertiser under per-advertiser probability dirt), or the node id
space changed — is conservative but sound; the delta-fuzzing suite
(``tests/test_rr_store_incremental.py``) pins the equivalence over random
delta scripts and the redraw counter proves locality.

A round costs what its batch touches.  The view patches its snapshot's
in-CSR at the batch's positions; the store advances its own hashed slot
engine by the same edit (:meth:`~repro.rrsets.slots.HashedRRSampler.advance`)
instead of rebuilding it; and a small redraw runs in-process on that
engine, while a large one (slots × mean in-degree of at least
:data:`~repro.parallel.rr._INLINE_WORK`: a whole-store redraw after
``AddNode`` or a large ``generate``) is sharded across the worker pool of
the passed or ambient :class:`~repro.runtime.Runtime`
(:func:`~repro.parallel.rr.run_slot_shards` makes that call).  Where a slot
is drawn never changes it, exactly because slots are pure functions of their
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.exceptions import SamplingError
from repro.graph.deltas import DeltaEffect, GraphDelta, MutableGraphView
from repro.rrsets.collection import RRCollection, splice_sets, validate_flat_sets
from repro.rrsets.estimators import estimate_total_revenue
from repro.rrsets.generator import RRSetGenerator
from repro.rrsets.slots import HashedRRSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import ExecutionPolicy, Runtime

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


class SlotProvenance(NamedTuple):
    """Per-slot generation provenance recorded by the store.

    The traversal signature itself is the slot's member array (every member's
    in-neighbourhood was examined — that *is* the touched-edge region), so it
    lives in the collection; this tuple carries the remaining replay inputs.
    """

    slot: int  #: slot index the draw is keyed by
    root: int  #: root node of the recorded traversal
    tag: int  #: advertiser the slot was drawn for


@dataclass(frozen=True)
class MaintenanceReport:
    """Outcome of one :meth:`RRStore.apply_deltas` call."""

    epoch: int  #: view epoch after the batch
    total: int  #: RR-set slots in the store
    invalidated: int  #: slots whose signature intersected the dirty region
    redrawn: int  #: slots redrawn (== invalidated; the store keeps |R| fixed)
    reason: str  #: "clean" | "localized" | "node-space-changed"

    @property
    def kept(self) -> int:
        """Slots that survived the batch untouched."""
        return self.total - self.redrawn


class RRStore:
    """A delta-maintained, advertiser-tagged RR-set collection.

    The slots live in four flat, read-only arrays, with no per-slot
    objects: every member concatenated, and the size, tag and root of each
    slot.  A generation appends to them and a redraw splices the stale
    slots in with one gather; both build new arrays, so an array handed
    out by :meth:`export_slots` or :meth:`roots` never changes.

    Parameters
    ----------
    view:
        The :class:`~repro.graph.deltas.MutableGraphView` this store follows.
        All deltas must flow through :meth:`apply_deltas` — the store detects
        out-of-band ``view.apply`` calls and refuses to serve a stale
        collection.
    cpes:
        Cost-per-engagement per advertiser; advertiser draws are
        cpe-weighted exactly like :class:`~repro.rrsets.uniform.UniformRRSampler`.
    seed:
        Base entropy of the slot draws.  ``None`` draws fresh
        entropy once; read it back via :attr:`seed` to reproduce the store.
    policy:
        :class:`~repro.runtime.ExecutionPolicy` supplying the RR engine
        (``rr_engine``: hashed slots under ``"subsim"``, per-slot substreams
        of the legacy generator otherwise) and the ``n_jobs`` shard count.
        ``None`` resolves to ``ExecutionPolicy.fast()``.
    runtime:
        Optional :class:`~repro.runtime.Runtime` whose persistent pool the
        sharded generation/maintenance paths run on (falls back to the
        ambient runtime, then per-call pools; results identical either way).
    """

    def __init__(
        self,
        view: MutableGraphView,
        cpes: Sequence[float],
        seed: Optional[int] = None,
        policy: Optional["ExecutionPolicy"] = None,
        runtime: Optional["Runtime"] = None,
    ):
        from repro.runtime import resolve_policy

        if len(cpes) != view.num_advertisers:
            raise SamplingError("one cpe per advertiser is required")
        cpe_array = np.asarray(cpes, dtype=np.float64)
        if cpe_array.size == 0 or np.any(cpe_array <= 0):
            raise SamplingError("cpe values must be positive")
        self._view = view
        self._policy = resolve_policy(policy)
        self._runtime = runtime
        self._cpes = cpe_array
        self._gamma = float(cpe_array.sum())
        self._weights = cpe_array / self._gamma
        if seed is None:
            seed = int(np.random.SeedSequence().entropy)
        self._entropy = int(seed)
        #: ``None`` selects the hashed slot engine.
        self._generator_cls = (
            None if self._policy.rr_engine == "subsim" else RRSetGenerator
        )
        self._members = _EMPTY  # the slot arrays (see the class docstring)
        self._sizes = _EMPTY
        self._tags = _EMPTY
        self._roots = _EMPTY
        self._collection: Optional[RRCollection] = None
        self._payload_probabilities: Optional[List[np.ndarray]] = None
        #: The parent-side hashed engine for ``_engine_graph``, built on the
        #: first in-process draw and advanced with every batch after that.
        self._engine: Optional[HashedRRSampler] = None
        self._engine_graph = None
        self._synced_epoch = view.epoch
        self._redraws_total = 0
        #: Interrupted maintenance state: ``(target_epoch, effect, stale,
        #: reason)`` when a redraw failed mid-batch — see :meth:`retry_maintenance`.
        self._pending_maintenance: Optional[Tuple[int, DeltaEffect, np.ndarray, str]] = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._sizes.size

    @property
    def view(self) -> MutableGraphView:
        """The graph view this store follows."""
        return self._view

    @property
    def seed(self) -> int:
        """Base entropy of the slot draws (reproduces the store)."""
        return self._entropy

    @property
    def cpes(self) -> np.ndarray:
        """Per-advertiser cpe values (a copy; the store's weights are fixed)."""
        return self._cpes.copy()

    @property
    def gamma(self) -> float:
        """``Γ = Σ_i cpe(i)`` — the estimator scale factor numerator."""
        return self._gamma

    @property
    def policy(self) -> "ExecutionPolicy":
        """The resolved execution policy."""
        return self._policy

    @property
    def epoch(self) -> int:
        """The view epoch the store is synchronized with."""
        return self._synced_epoch

    @property
    def redraws_total(self) -> int:
        """RR-sets redrawn by maintenance over the store's lifetime."""
        return self._redraws_total

    @property
    def collection(self) -> RRCollection:
        """The current tagged collection, built from the slot arrays on first
        use and rebuilt by every maintenance round after that."""
        self._check_sync()
        if self._collection is None:
            self._collection = RRCollection.from_shards(
                self._view.num_nodes,
                self._view.num_advertisers,
                [(self._members, self._sizes, self._tags)],
            )
        return self._collection

    def provenance(self, index: int) -> SlotProvenance:
        """Replay provenance of RR-set slot ``index``."""
        return SlotProvenance(
            slot=index, root=int(self._roots[index]), tag=int(self._tags[index])
        )

    def roots(self) -> np.ndarray:
        """Recorded root node per slot (read-only)."""
        return self._roots

    def estimate_total_revenue(self, allocation) -> float:
        """Estimate ``π(S⃗)`` on the current collection (Lemma 4.1 estimator)."""
        return estimate_total_revenue(self.collection, allocation, self._gamma)

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def generate(self, count: int) -> None:
        """Draw ``count`` additional RR-set slots, keyed by absolute index.

        A store filled by several ``generate`` calls is therefore
        bit-identical to one filled by a single call for the total count.
        """
        if count < 0:
            raise SamplingError("count must be non-negative")
        self._check_sync()
        if count == 0:
            return
        if self._view.num_nodes == 0:
            raise SamplingError("cannot generate RR-sets on an empty graph")
        start = len(self)
        drawn = self._draw_slots((start, start + count))
        self._adopt(*map(np.concatenate, zip(self.export_slots(), drawn)))
        self._collection = None

    def _adopt(self, members, sizes, tags, roots) -> None:
        """Make the given flat arrays, which nothing else holds, the slots."""
        for array in (members, sizes, tags, roots):
            array.setflags(write=False)
        self._members, self._sizes, self._tags, self._roots = members, sizes, tags, roots

    def _draw_slots(self, slots) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw the given slots (a ``(lo, hi)`` range or an index array),
        in-process or sharded across the pool (see the module docstring),
        as flat ``(members, sizes, tags, roots)`` arrays in slot order."""
        if self._payload_probabilities is None:
            self._payload_probabilities = self._view.advertiser_edge_probabilities
        from repro.parallel.rr import run_slot_shards
        from repro.runtime import acquire_executor

        shards = run_slot_shards(
            self._generator_cls,
            self._view.graph,
            self._payload_probabilities,
            self._weights,
            self._entropy,
            slots,
            acquire_executor(self._policy.n_jobs, self._runtime),
            engine=self._hashed_engine if self._generator_cls is None else None,
        )
        columns = zip(*((s.members, s.sizes, s.tags, s.roots) for s in shards))
        return tuple(np.concatenate(column) for column in columns)

    def _hashed_engine(self) -> HashedRRSampler:
        """The hashed engine for the current snapshot, built from scratch
        only when the store holds none for it."""
        graph = self._view.graph
        if self._engine_graph is not graph:
            self._engine = HashedRRSampler(
                graph, self._view.advertiser_edge_probabilities, self._weights
            )
            self._engine_graph = graph
        return self._engine

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def apply_deltas(self, deltas: Iterable[GraphDelta]) -> MaintenanceReport:
        """Absorb one delta batch: invalidate intersecting slots, redraw them.

        Applies the batch to the underlying view, computes the stale slot
        set — slots whose member signature intersects the batch's dirty
        region (globally, or for the slot's advertiser under per-advertiser
        probability updates) — and redraws exactly those slots from their
        slot function against the post-delta snapshot.  The resulting store
        is bit-identical to full regeneration on the new graph.

        Redraw failures are recoverable: nothing store-side is mutated until
        every stale slot has been drawn, so an exception out of the sharded
        redraw (a raise-mode :class:`~repro.exceptions.WorkerCrashError` /
        :class:`~repro.exceptions.ShardTimeoutError`) leaves the store in a
        *pending* state — serving is refused, but :meth:`retry_maintenance`
        re-draws the same slots with the same slot function and commits,
        bit-identically to an uninterrupted call.
        """
        self._check_sync()
        effect = self._view.apply(deltas)
        self._payload_probabilities = None  # graph snapshot changed
        if self._engine is not None:
            self._engine.advance(
                self._view.graph, self._view.advertiser_edge_probabilities, effect.in_edit
            )
            self._engine_graph = self._view.graph
        total = len(self)
        stale, reason = (
            self._stale_slots(effect) if total else (_EMPTY, "clean")
        )
        if stale.size == 0:
            self._synced_epoch = self._view.epoch
            return MaintenanceReport(
                epoch=effect.epoch,
                total=total,
                invalidated=0,
                redrawn=0,
                reason="clean",
            )
        self._pending_maintenance = (self._view.epoch, effect, stale, reason)
        return self._complete_maintenance()

    @property
    def maintenance_pending(self) -> bool:
        """Whether an interrupted :meth:`apply_deltas` awaits :meth:`retry_maintenance`."""
        return self._pending_maintenance is not None

    def retry_maintenance(self) -> MaintenanceReport:
        """Re-run the redraw of an interrupted :meth:`apply_deltas` and commit.

        Slot draws are pure functions of ``(seed, slot, graph)``, so however
        many times the redraw is retried — and wherever it runs — the
        committed store is bit-identical to one whose maintenance never
        failed.
        """
        if self._pending_maintenance is None:
            raise SamplingError("no interrupted maintenance to retry")
        return self._complete_maintenance()

    def _complete_maintenance(self) -> MaintenanceReport:
        """Draw the pending stale slots and commit; store untouched on failure."""
        target_epoch, effect, stale, reason = self._pending_maintenance
        if self._view.epoch != target_epoch:
            raise SamplingError(
                "the graph view advanced out-of-band while maintenance was "
                f"pending (view.epoch={self._view.epoch}, expected "
                f"{target_epoch}); the store cannot recover"
            )
        members, sizes, tags, roots = self._draw_slots(stale)
        total = len(self)
        members, sizes = splice_sets(self._members, self._sizes, stale, members, sizes)
        spliced_tags, spliced_roots = self._tags.copy(), self._roots.copy()
        spliced_tags[stale], spliced_roots[stale] = tags, roots
        self._adopt(members, sizes, spliced_tags, spliced_roots)
        # A cached collection is rebuilt from the spliced arrays here, so the
        # refresh and not the next query pays for it; an unused one stays
        # unbuilt.  Node-space changes alter its (h, n) shape: drop it then.
        rebuild = self._collection is not None and not effect.num_nodes_changed
        self._collection = None
        self._redraws_total += int(stale.size)
        self._synced_epoch = target_epoch
        self._pending_maintenance = None
        if rebuild:
            self.collection
        return MaintenanceReport(
            epoch=effect.epoch,
            total=total,
            invalidated=int(stale.size),
            redrawn=int(stale.size),
            reason=reason,
        )

    def _stale_slots(self, effect: DeltaEffect) -> Tuple[np.ndarray, str]:
        """Slot indices invalidated by ``effect`` and the reason label."""
        total = len(self)
        if effect.num_nodes_changed:
            # The root draw domain (integers(0, n)) changed: every slot's
            # replay differs, so the whole store is invalidated.
            return np.arange(total, dtype=np.int64), "node-space-changed"
        if (
            effect.dirty_nodes.size == 0
            and not effect.dirty_nodes_by_advertiser
        ):
            return _EMPTY, "clean"
        # Signature intersection, vectorized over the flat member layout.
        flat = self._members
        starts = np.cumsum(self._sizes) - self._sizes
        n = self._view.num_nodes
        tags = self._tags
        stale_mask = np.zeros(total, dtype=bool)
        if effect.dirty_nodes.size:
            mask = np.zeros(n, dtype=bool)
            mask[effect.dirty_nodes] = True
            stale_mask |= np.bitwise_or.reduceat(mask[flat], starts)
        for advertiser, nodes in effect.dirty_nodes_by_advertiser.items():
            if nodes.size == 0:
                continue
            mask = np.zeros(n, dtype=bool)
            mask[nodes] = True
            stale_mask |= np.bitwise_or.reduceat(mask[flat], starts) & (
                tags == advertiser
            )
        return np.flatnonzero(stale_mask).astype(np.int64), "localized"

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def export_slots(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(members, sizes, tags, roots)`` arrays of the current slots.

        The checkpoint payload of the allocation server
        (:mod:`repro.serve.checkpoint`): together with :attr:`seed` and the
        view's graph snapshot these arrays reconstruct the store
        bit-identically via :meth:`from_slots`.  They are the store's own
        read-only arrays, not copies.
        """
        self._check_sync()
        return self._members, self._sizes, self._tags, self._roots

    @classmethod
    def from_slots(
        cls,
        view: MutableGraphView,
        cpes: Sequence[float],
        seed: int,
        members: np.ndarray,
        sizes: np.ndarray,
        tags: np.ndarray,
        roots: np.ndarray,
        policy: Optional["ExecutionPolicy"] = None,
        runtime: Optional["Runtime"] = None,
    ) -> "RRStore":
        """Rebuild a store from :meth:`export_slots` output (checkpoint restore).

        The slot arrays are adopted verbatim — no redraw happens — so the
        restored store is bit-identical to the one that exported them,
        provided ``view`` holds the same graph snapshot.  Each array is
        copied once, so no restored payload buffer stays alive.  Slots no
        draw could produce raise :class:`~repro.exceptions.SamplingError`
        up front (:func:`~repro.rrsets.collection.validate_flat_sets`, or a
        root outside its slot).
        """
        arrays = (members, sizes, tags, roots)
        members, sizes, tags, roots = (np.array(a, dtype=np.int64) for a in arrays)
        if sizes.shape != roots.shape:
            raise SamplingError("sizes, tags and roots must have equal length")
        validate_flat_sets(members, sizes, tags, view.num_nodes, view.num_advertisers)
        if sizes.size and not np.logical_or.reduceat(
            members == np.repeat(roots, sizes), np.cumsum(sizes) - sizes
        ).all():
            raise SamplingError("every slot root must be a member of its slot")
        store = cls(view, cpes, seed=seed, policy=policy, runtime=runtime)
        store._adopt(members, sizes, tags, roots)
        return store

    # ------------------------------------------------------------------ #
    def _check_sync(self) -> None:
        if self._pending_maintenance is not None:
            raise SamplingError(
                "RR-store maintenance was interrupted mid-redraw (epoch "
                f"{self._pending_maintenance[0]}); call retry_maintenance() "
                "to re-draw the invalidated slots before serving"
            )
        if self._synced_epoch != self._view.epoch:
            raise SamplingError(
                "the graph view advanced out-of-band (view.epoch="
                f"{self._view.epoch}, store epoch={self._synced_epoch}); "
                "apply deltas through RRStore.apply_deltas so the store can "
                "invalidate affected RR-sets"
            )

    def __repr__(self) -> str:
        return (
            f"RRStore(slots={len(self)}, epoch={self._synced_epoch}, "
            f"redraws_total={self._redraws_total}, seed={self._entropy})"
        )
