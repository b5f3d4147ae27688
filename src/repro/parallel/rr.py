"""Sharded RR-set generation.

Two shard workers back the RR consumers:

* :func:`run_slot_shards` draws RR-set *slots* — pure functions of
  ``(entropy, slot)`` (:mod:`repro.rrsets.slots`) — for
  :meth:`repro.rrsets.uniform.UniformRRSampler.generate_collection`, the
  ``fast()`` TI pilots and pool fills behind
  :meth:`repro.rrsets.generator.RRSetGenerator.generate_batch_parallel`
  and :class:`repro.rrsets.store.RRStore`.  The call's work decides where
  it runs: below :data:`_INLINE_WORK` slots × mean in-degree it is drawn
  in-process as one piece (RMA's doubling rounds on small graphs, TI
  pilots, store redraws); above, it is cut into contiguous pieces, one per
  shard (TI-CARM's pool fills, whole stores, evaluators).  Since no slot depends
  on another, the merged result is the same either way and for every shard
  layout.
* :func:`run_generation_shards` is the per-set stream path of
  ``generate_batch_parallel`` under ``seed(n_jobs>1)``: each shard draws
  from its own :func:`spawn_rngs` substream, so a fixed ``(seed, n_jobs)``
  pair is bit-reproducible.

Each shard builds its engine against the fork-inherited (or pickled-once)
CSR graph — memoised per payload in the persistent pool's
:func:`~repro.parallel.executor.current_worker_cache`, so repeated calls on
one payload reuse one engine per worker — and returns its RR-sets as **flat
arrays** (one concatenated member array plus size, tag and root arrays), so
the pickle back to the parent is a few large buffers instead of thousands of
tiny ones.  The parent merges shards by shard position (the supervised
executor returns results indexed by shard, regardless of completion order or
crash-recovery retries).

Each shard result also carries the worker's CPU seconds
(:func:`time.process_time`), which the perf harness uses to report
critical-path scaling on hosts with fewer physical cores than workers.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, NamedTuple, Optional, Type

import numpy as np

from repro.graph.digraph import CSRDiGraph
from repro.parallel.executor import (
    ShardedExecutor,
    current_worker_cache,
    shard_counts,
)
from repro.rrsets.generator import RRSetBatch
from repro.rrsets.slots import slot_engine
from repro.utils.rng import RandomSource, spawn_rngs


class GenerationShard(NamedTuple):
    """Flat result of one RR-generation shard."""

    members: np.ndarray  #: all RR-set members concatenated, shard-local order
    sizes: np.ndarray  #: per-RR-set cardinalities aligned with ``members``
    edges_examined: int  #: generator cost counter for this shard
    cpu_seconds: float  #: worker CPU time spent on the shard


def merge_shards(shards) -> RRSetBatch:
    """The shards' RR-sets in shard order, as one flat :class:`RRSetBatch`."""
    if len(shards) == 1:
        return RRSetBatch(shards[0].members, shards[0].sizes)
    return RRSetBatch(
        np.concatenate([shard.members for shard in shards]),
        np.concatenate([shard.sizes for shard in shards]),
    )


def _generate_shard(payload, shard) -> GenerationShard:
    generator_cls, graph, probabilities = payload
    count, rng = shard
    started = time.process_time()
    cache = current_worker_cache()
    if cache is None:
        generator = generator_cls(graph, probabilities)
    else:
        generator = cache.get("generator")
        if generator is None:
            generator = cache["generator"] = generator_cls(graph, probabilities)
    # A cached generator accumulates edges_examined across calls, so report
    # this shard's cost as a delta rather than the counter's absolute value.
    edges_before = generator.edges_examined
    batch = RRSetBatch.from_sets(generator.generate_batch(count, rng))
    return GenerationShard(
        batch.members,
        batch.sizes,
        generator.edges_examined - edges_before,
        time.process_time() - started,
    )


def run_generation_shards(
    generator_cls: Type,
    graph: CSRDiGraph,
    probabilities: np.ndarray,
    count: int,
    rng: RandomSource,
    executor: ShardedExecutor,
) -> List[GenerationShard]:
    """Generate ``count`` RR-sets across the executor's shards.

    One RNG substream is spawned per shard from ``rng``; shard sizes follow
    :func:`repro.parallel.executor.shard_counts`.  Returns the raw per-shard
    results in shard order (the perf harness consumes the timings;
    :meth:`~repro.rrsets.generator.RRSetGenerator.generate_batch_parallel`
    merges them with :func:`merge_shards`).
    """
    counts = shard_counts(count, executor.n_jobs)
    rngs = spawn_rngs(rng, len(counts))
    payload = (generator_cls, graph, probabilities)
    return executor.run(_generate_shard, payload, list(zip(counts.tolist(), rngs)))


#: A slot call whose work — its slots times its graph's mean in-degree — is
#: below this is drawn in-process: a pool round trip (dispatch, result
#: pickling, merge) costs a few milliseconds, more than such a draw.  The
#: work orders the calls as the in-edges they examine do: a TI-CARM pilot
#: of 128 slots on a 10k-node graph (1.4k), a redraw of 255 slots there
#: (2.7k), RMA's largest doubling round on the 300-node perfbench graph
#: (2,048 slots, 15k), then a 4,000-slot store on 450 nodes (37k),
#: TI-CARM's pool fills on 10k nodes (3,968 slots, 42k) and a 10,000-slot
#: evaluator on 300 nodes (74k).  On a 2-core host with a warm
#: 2-worker pool, RMA's round takes 5.6 ms in-process against 8.6 ms pooled.
_INLINE_WORK = 24_000


class SlotShard(NamedTuple):
    """Flat result of one slot-drawing shard (see :mod:`repro.rrsets.slots`)."""

    members: np.ndarray  #: all drawn members concatenated, slot order
    sizes: np.ndarray  #: per-slot cardinalities aligned with ``members``
    tags: np.ndarray  #: advertiser tag per slot
    roots: np.ndarray  #: root node per slot
    edges_examined: np.ndarray  #: per-advertiser cost counters
    cpu_seconds: float


def _draw_slots_shard(payload, shard) -> SlotShard:
    generator_cls, graph, probabilities, weights = payload
    entropy, slots = shard
    started = time.process_time()
    cache = current_worker_cache()
    if cache is None:
        engine = slot_engine(generator_cls, graph, probabilities, weights)
    else:
        engine = cache.get("slot_engine")
        if engine is None:
            engine = cache["slot_engine"] = slot_engine(
                generator_cls, graph, probabilities, weights
            )
    drawn = engine.draw(entropy, slots)
    return SlotShard(*drawn, time.process_time() - started)


def run_slot_shards(
    generator_cls: Optional[Type],
    graph: CSRDiGraph,
    probabilities,
    weights: Optional[np.ndarray],
    entropy: int,
    slots,
    executor: ShardedExecutor,
    engine: Optional[Callable[[], Any]] = None,
) -> List[SlotShard]:
    """Draw RR-set slots across the executor's shards, in slot order.

    ``slots`` is a ``(lo, hi)`` range or an explicit slot array.  A call
    whose slot count times ``graph``'s mean in-degree is below
    :data:`_INLINE_WORK` is drawn in-process as one piece, on the engine
    ``engine()`` returns when the caller keeps one for these arguments,
    else on a fresh one; it never reaches the pool.  A larger
    call is cut into contiguous pieces by
    :func:`~repro.parallel.executor.shard_counts` and run on the executor.  Every slot is a pure function of ``(entropy, slot)``
    (:mod:`repro.rrsets.slots`), so neither that choice nor the shard
    layout — and with it ``n_jobs``, ``REPRO_MAX_JOBS``, pool reuse and
    crash recovery — ever changes the merged result.
    ``generator_cls=None`` selects the hashed engine; ``probabilities`` is
    one array (a single advertiser, every tag 0) or a list with one array
    per advertiser.  Keep the caller's array and list objects across calls:
    persistent pools cache broadcast payloads by element identity.
    """
    count = slots[1] - slots[0] if isinstance(slots, tuple) else int(slots.size)
    work = count * graph.num_edges / max(graph.num_nodes, 1)
    if 0 < count and work < _INLINE_WORK:
        started = time.process_time()
        local = (
            engine()
            if engine is not None
            else slot_engine(generator_cls, graph, probabilities, weights)
        )
        drawn = local.draw(entropy, slots)
        return [SlotShard(*drawn, time.process_time() - started)]
    if isinstance(slots, tuple):
        lo, hi = slots
        counts = shard_counts(hi - lo, executor.n_jobs)
        bounds = (lo + np.concatenate(([0], np.cumsum(counts)))).tolist()
        pieces = list(zip(bounds[:-1], bounds[1:]))
    else:
        counts = shard_counts(int(slots.size), executor.n_jobs)
        pieces = np.split(slots, np.cumsum(counts)[:-1])
    payload = (generator_cls, graph, probabilities, weights)
    return executor.run(
        _draw_slots_shard, payload, [(entropy, piece) for piece in pieces]
    )
