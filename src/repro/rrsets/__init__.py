"""Reverse-reachable set machinery (Borgs et al. [12]) adapted to the RM problem.

RR engine architecture
----------------------
The engine is a four-layer pipeline, vectorized end to end over the graph's
CSR arrays:

1. **Generation** (:mod:`~repro.rrsets.generator`) — reverse traversal with
   an int64 visit-stamp array instead of a Python set, edge probabilities
   pre-gathered into in-CSR order, and per-frontier-node Bernoulli blocks
   (or SUBSIM geometric skips for nodes with uniform in-probabilities,
   detected in one ``np.ufunc.reduceat`` pass).  ``generate_batch`` reuses
   the traversal buffers across RR-sets.
2. **Storage** (:class:`~repro.rrsets.collection.RRCollection`) — frozen
   flat arrays (concatenated member array + offsets + tag array) and an
   ``(advertiser, node) → RR-sets`` inverted index sliced by per-key
   offsets; an appended block's index is merged into the old one, never
   rebuilt.
3. **Coverage** (:class:`~repro.rrsets.collection.CoverageState`) — greedy
   max-coverage bookkeeping on an ``(h, n)`` int64 marginal matrix and a
   boolean covered mask: construction is a single ``np.bincount``,
   ``add_seed`` a handful of fancy-indexing scatter ops.
4. **Estimation** (:mod:`~repro.rrsets.estimators`,
   :class:`~repro.advertising.oracle.RRSetOracle`) — one coverage count
   per query: the seed nodes' inverted-index slices marked in a bool mask
   (:meth:`~repro.rrsets.collection.RRCollection.coverage_count`).

The engine consumes randomness in exactly the same order as the seed
implementation (preserved in :mod:`~repro.rrsets.legacy`), so a fixed seed
yields bit-identical RR-sets — ``tests/test_rr_engine_equivalence.py`` pins
this and ``benchmarks/bench_rr_engine.py`` tracks the speedup.

The ``fast()`` policy replaces layer 1 by slot-keyed draws
(:mod:`~repro.rrsets.slots`): every RR-set is a pure function of
``(entropy, slot)``, with hashed live-edge coins, and whole batches of sets
are traversed level-synchronously.  Results are then independent of
``n_jobs`` and statistically equivalent to the seed engine
(``tests/test_rr_hashed_equivalence.py``).
"""

from repro.rrsets.generator import RRProvenance, RRSetGenerator, SubsimRRGenerator
from repro.rrsets.collection import RRCollection, CoverageState
from repro.rrsets.store import MaintenanceReport, RRStore, SlotProvenance
from repro.rrsets.uniform import UniformRRSampler, PerAdvertiserRRSampler
from repro.rrsets.estimators import (
    estimate_total_revenue,
    estimate_advertiser_revenue,
    estimate_spread,
)

__all__ = [
    "RRProvenance",
    "RRSetGenerator",
    "SubsimRRGenerator",
    "RRCollection",
    "CoverageState",
    "MaintenanceReport",
    "RRStore",
    "SlotProvenance",
    "UniformRRSampler",
    "PerAdvertiserRRSampler",
    "estimate_total_revenue",
    "estimate_advertiser_revenue",
    "estimate_spread",
]
