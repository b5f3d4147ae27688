"""Coverage-engine-vs-oracle-engine equivalence proofs for the greedy loops.

Every greedy consumer runs one loop on
:class:`repro.utils.lazy_heap.BatchedLazyGreedy`; only the evaluator differs
(:func:`repro.core.batched_greedy.engine_for`).  An RR-set oracle gets the
vectorized :class:`CoverageGreedyEngine`, every other oracle the per-key
:class:`OracleGreedyEngine`.  On the same RR-set collection the two must
select *identical allocations*: the coverage gathers return the oracle's own
floats and the heap's schedule does not depend on the batch size.  These
tests pin that claim at the heap level (the batched heap against the scalar
reference heap in ``tests/reference``) and end to end through every greedy
consumer — Algorithm 1, ThresholdGreedy + Fill, ``γ_max``, RM_with_Oracle,
CA/CS-Greedy and the RMA sampling solvers.  The oracle engine is forced
with :class:`_Delegating`, a plain :class:`RevenueOracle` that forwards to
the RR-set oracle.

The coverage engine is ``pure``, so ThresholdGreedy and Fill drop dead
elements in bulk there and its heap never re-evaluates a zero; the oracle
engine does neither.  The property-based cases below check that this
pruning is invisible in the results, and the invariants check that it
happens.
"""

import heapq
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference.lazy_heap import LazyMarginalHeap
from repro.advertising.advertiser import Advertiser
from repro.advertising.allocation import Allocation
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import MonteCarloOracle, RevenueOracle, RRSetOracle
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.core import batched_greedy
from repro.core.batched_greedy import CoverageGreedyEngine, OracleGreedyEngine, engine_for
from repro.core.greedy import greedy_single_advertiser
from repro.core.oracle_solver import rm_with_oracle
from repro.core.sampling_solver import SamplingParameters, one_batch_rm, rm_without_oracle
from repro.core.search import gamma_max
from repro.core.threshold_greedy import fill, threshold_greedy
from repro.diffusion.models import (
    IndependentCascadeModel,
    TrivalencyModel,
    WeightedCascadeModel,
)
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import RRSetGenerator
from repro.runtime import ExecutionPolicy
from repro.utils import lazy_heap
from repro.utils.lazy_heap import BatchedLazyGreedy

MODELS = [IndependentCascadeModel, WeightedCascadeModel, TrivalencyModel]


class _Delegating(RevenueOracle):
    """Forwards every query to ``inner``; not an RR-set oracle, so the
    consumers run on the per-key oracle engine."""

    def __init__(self, inner: RevenueOracle):
        self._inner = inner

    @property
    def num_advertisers(self) -> int:
        return self._inner.num_advertisers

    def revenue(self, advertiser, seeds):
        return self._inner.revenue(advertiser, seeds)

    def marginal_revenue(self, advertiser, node, seeds):
        return self._inner.marginal_revenue(advertiser, node, seeds)


@pytest.fixture(scope="module")
def graph():
    return preferential_attachment_digraph(250, out_degree=4, seed=1)


def _instance_and_oracle(graph, model_cls=WeightedCascadeModel, h=3, count=500, seed=5):
    model = model_cls(graph)
    n = graph.num_nodes
    advertisers = [
        Advertiser(budget=170.0 + 40.0 * i, cpe=1.0 + 0.5 * (i % 2)) for i in range(h)
    ]
    costs = np.random.default_rng(seed).uniform(0.5, 3.0, size=(h, n))
    instance = RMInstance(graph, model, advertisers, costs)
    probabilities = np.asarray(model.edge_probabilities(), dtype=np.float64)
    rr_sets = RRSetGenerator(graph, probabilities).generate_batch(count, rng=seed)
    tags = np.random.default_rng(seed + 1).integers(0, h, size=count)
    collection = RRCollection(n, h)
    for rr_set, tag in zip(rr_sets, tags):
        collection.add(rr_set, int(tag))
    return instance, RRSetOracle(collection, instance.gamma)


def _allocations_equal(one: Allocation, other: Allocation, h: int) -> bool:
    return all(one.seeds(i) == other.seeds(i) for i in range(h))


# --------------------------------------------------------------------- #
# heap-level identity
# --------------------------------------------------------------------- #
class _DecayingValues:
    """Scripted submodular-style values: non-increasing between rounds."""

    def __init__(self, keys, seed):
        rng = np.random.default_rng(seed)
        # Plenty of exact ties: values are small integers (like coverage counts).
        self.values = {key: float(v) for key, v in zip(keys, rng.integers(0, 8, len(keys)))}
        self._rng = rng

    def decay(self):
        for key in list(self.values):
            if self._rng.random() < 0.4:
                self.values[key] = max(0.0, self.values[key] - float(self._rng.integers(1, 3)))

    def scalar(self, key):
        return self.values[key]

    def batch(self, keys):
        return np.array([self.values[int(k)] for k in np.asarray(keys)], dtype=np.float64)


@pytest.mark.parametrize("seed", [0, 3, 9])
@pytest.mark.parametrize(
    "batch_size, pure",
    [(1, False), (4, False), (64, False), (1, True), (4, True), (64, True)],
    ids=["1", "4", "64", "1-pure", "4-pure", "64-pure"],
)
def test_batched_heap_pop_sequence_matches_scalar(seed, batch_size, pure):
    """Same pushes + same value decay ⇒ identical pop sequence, tie for tie
    (on a pure heap, zeros come out of the zero tail)."""
    keys = list(range(60))
    table = _DecayingValues(keys, seed)
    scalar = LazyMarginalHeap(table.scalar)
    batched = BatchedLazyGreedy(table.batch, batch_size=batch_size, pure=pure)
    scalar.push_many(keys)
    batched.push_array(np.asarray(keys, dtype=np.int64))

    popped = []
    while len(scalar):
        a = scalar.pop_best()
        b = batched.pop_best()
        assert a == b
        popped.append(a)
        # A "selection" happened: values decay and both heaps are staled.
        table.decay()
        scalar.advance_round()
        batched.advance_round()
    assert batched.pop_best() is None
    assert len(popped) == len(keys)


@pytest.mark.parametrize("seed", [0, 3, 9])
@pytest.mark.parametrize("batch_size", [1, 4, 64])
def test_discarding_dead_keys_keeps_the_pop_sequence(seed, batch_size):
    """A consumer that skips dead keys sees the same live pop sequence from
    the reference heap as from a heap the dead keys were discarded from."""
    keys = list(range(80))
    table = _DecayingValues(keys, seed)
    rng = np.random.default_rng(seed + 100)
    reference = LazyMarginalHeap(table.scalar)
    pruned = BatchedLazyGreedy(table.batch, batch_size=batch_size, pure=True)
    reference.push_many(keys)
    pruned.push_array(np.asarray(keys, dtype=np.int64))
    dead: set = set()
    accepted = 0
    while len(reference):
        key, value = reference.pop_best()
        if key in dead:
            continue  # the consumer's rejection: no side effect
        assert pruned.pop_best() == (key, value)
        accepted += 1
        table.decay()
        reference.advance_round()
        pruned.advance_round()
        dying = [k for k in keys if k not in dead and rng.random() < 0.1]
        dead.update(dying)
        pruned.discard(np.asarray(dying, dtype=np.int64))
    assert len(pruned) == 0 and pruned.pop_best() is None
    assert 0 < accepted < len(keys)


@st.composite
def _zero_heavy_scripts(draw):
    """Initial values and a script of consumer steps, mostly over zeros,
    with the batch size, the bulk-push prefix and the heap's purity."""
    values = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
    steps = st.one_of(
        st.tuples(st.just("accept"), st.lists(st.booleans(), min_size=1, max_size=8)),
        st.tuples(st.just("reject"), st.none()),
        st.tuples(st.just("push"), st.lists(values, min_size=1, max_size=12)),
        st.tuples(st.just("discard"), st.lists(st.booleans(), min_size=1, max_size=8)),
    )
    initial = draw(st.lists(values, max_size=40))
    return (
        initial,
        draw(st.lists(steps, max_size=80)),
        draw(st.sampled_from([1, 2, 4, 64])),
        draw(st.sampled_from([1, 2, 5, lazy_heap._PREFIX])),
        draw(st.sampled_from([True, True, False])),
    )


# Compacts a zero tail holding a stale prefix (keys 1-7, mostly discarded)
# and a current zero (key 8, pushed this round), then serves it.
_STALE_AND_CURRENT_ZEROS = (
    [0.0] * 8,
    [("accept", [False]), ("push", [0.0]), ("discard", [True] * 6 + [False] * 2),
     ("reject", None)],
    1,
    lazy_heap._PREFIX,
    True,
)

# Pushes onto a live heap whose bulk tail already holds entries, then
# compacts both with a discard and drains them.
_PUSH_ONTO_A_BULK_TAIL = (
    [3.0, 1.0, 2.0, 1.0, 3.0, 0.0, 2.0],
    [("reject", None), ("push", [2.0, 3.0, 1.0, 0.0]), ("accept", [True, False]),
     ("discard", [True, True, True, False]), ("reject", None)],
    2,
    2,
    True,
)


@settings(max_examples=300, deadline=None)
@given(script=_zero_heavy_scripts(), seed=st.integers(0, 2**16))
@example(script=_STALE_AND_CURRENT_ZEROS, seed=0)
@example(script=_PUSH_ONTO_A_BULK_TAIL, seed=1)
def test_zero_tail_matches_the_scalar_heap(script, seed):
    """A heap pops in the reference heap's order under every consumer move:
    accepted pops (values fall, round advances), rejected pops (no round
    change), bulk pushes onto a live heap, zeros included, and discards
    large enough to compact a queued zero tail or bulk tail.  Pure heaps
    serve their zeros from the zero tail; a small ``_PREFIX`` sends every
    push of more than that many live keys through the bulk tail."""
    initial, steps, batch_size, prefix, pure = script
    with mock.patch.object(lazy_heap, "_PREFIX", prefix):
        _replay_against_the_scalar_heap(initial, steps, batch_size, pure, seed)


def _replay_against_the_scalar_heap(initial, steps, batch_size, pure, seed):
    values = dict(enumerate(initial))
    rng = np.random.default_rng(seed)

    def batch(keys):
        return np.array([values[int(k)] for k in keys], dtype=np.float64)

    reference = LazyMarginalHeap(values.__getitem__)
    heap = BatchedLazyGreedy(batch, batch_size=batch_size, pure=pure)
    reference.push_many(list(values))
    heap.push_array(np.arange(len(values), dtype=np.int64))
    for step, argument in steps:
        if step in ("accept", "reject"):
            assert heap.pop_best() == reference.pop_best()
        if step == "accept":
            for key, falls in zip(list(values), argument * len(values)):
                if falls:
                    values[key] = max(0.0, values[key] - float(rng.integers(1, 3)))
            heap.advance_round()
            reference.advance_round()
        elif step == "push":
            fresh = list(range(len(values), len(values) + len(argument)))
            values.update(zip(fresh, argument))
            reference.push_many(fresh)
            heap.push_array(np.asarray(fresh, dtype=np.int64))
        elif step == "discard":
            live = [key for key in values if key in reference]
            dying = [key for key, dies in zip(live, argument * len(live)) if dies]
            # Keys already popped are ignored, wherever they were queued.
            dying += [key for key in values if key not in reference][:2]
            for key in dying:
                reference.remove(key)
            heap.discard(np.asarray(dying, dtype=np.int64))
        assert len(heap) == len(reference)
        assert [key in heap for key in values] == [key in reference for key in values]
        _assert_tail_keys_are_not_members(heap)
    while len(reference):
        assert heap.pop_best() == reference.pop_best()
    assert heap.pop_best() is None


def _assert_tail_keys_are_not_members(heap):
    """A bulk-tail key gets a ``_members`` entry only when it enters the heap."""
    if heap._tail:
        waiting = heap._tail[2][heap._tail[4]].tolist()
        assert heap._tail_count == len(waiting)
        assert not any(key in heap._members for key in waiting)


@pytest.mark.parametrize("pure", [True, False])
def test_bulk_tail_drains_in_the_scalar_order(pure):
    """A push of several ``_PREFIX`` keys, drained by accepted pops while
    values fall and keys die in bulk, pops in the reference heap's order."""
    rng = np.random.default_rng(8)
    count = 3 * lazy_heap._PREFIX + 7
    # Two decimals: exact ties across every partition of the tail.
    table = dict(enumerate(np.round(rng.uniform(0.0, 9.0, count), 2).tolist()))
    table.update((key, 0.0) for key in rng.choice(count, count // 5).tolist())

    def batch(keys):
        return np.array([table[int(k)] for k in keys], dtype=np.float64)

    reference = LazyMarginalHeap(table.__getitem__)
    heap = BatchedLazyGreedy(batch, pure=pure)
    reference.push_many(range(count))
    heap.push_array(np.arange(count, dtype=np.int64))
    assert heap._tail and len(heap._heap) <= lazy_heap._PREFIX + 1
    # Only the keys in the heap proper and the zeros have member entries.
    assert len(heap._members) == len(heap._heap) - 1 + len(heap._zeros)
    _assert_tail_keys_are_not_members(heap)
    steps = 0
    while len(reference):
        assert heap.pop_best() == reference.pop_best()
        for key in rng.choice(count, 3).tolist():
            table[key] = round(table[key] / 2.0, 2)
        heap.advance_round()
        reference.advance_round()
        steps += 1
        if steps % 500 == 0:
            dying = [key for key in rng.choice(count, count // 2).tolist() if key in reference]
            for key in set(dying):
                reference.remove(key)
            heap.discard(np.asarray(dying, dtype=np.int64))
            assert [key in heap for key in range(count)] == [
                key in reference for key in range(count)
            ]
            _assert_tail_keys_are_not_members(heap)
        assert len(heap) == len(reference)
    assert heap.pop_best() is None and not heap._tail


def _count_heap_operations(monkeypatch):
    """Count the ``heappop``/``heappush`` calls the lazy heap makes."""
    counts = {"heappop": 0, "heappush": 0}

    def counted(name):
        def call(*args):
            counts[name] += 1
            return getattr(heapq, name)(*args)

        return call

    monkeypatch.setattr(
        lazy_heap,
        "heapq",
        SimpleNamespace(
            heapify=heapq.heapify,
            heappop=counted("heappop"),
            heappush=counted("heappush"),
        ),
    )
    return counts


def test_draining_zeros_is_linear(monkeypatch):
    """A pure heap drains k zero keys, staled between pops, with O(k) heap
    operations, not by re-stamping every remaining zero on each pop."""
    k = 2000
    counts = _count_heap_operations(monkeypatch)
    heap = BatchedLazyGreedy(np.zeros_like, batch_size=64, pure=True)
    heap.push_array(np.arange(k, dtype=np.int64))
    order = []
    while len(heap):
        order.append(heap.pop_best())
        heap.advance_round()
    assert order == [(key, 0.0) for key in range(k)]
    assert counts["heappop"] + counts["heappush"] <= 2 * k


@pytest.mark.parametrize("pure", [True, False])
def test_pure_heap_never_evaluates_a_zero(pure):
    """On a pure heap a zero is final: it waits in the zero tail and is
    never evaluated or speculated again.  An impure heap re-evaluates it."""
    keys = list(range(60))
    table = _DecayingValues(keys, seed=4)
    zero_evaluations = []

    def evaluate(keys):
        zero_evaluations.extend(
            key for key in keys.tolist() if heap._members.get(key) == 0.0
        )
        return table.batch(keys)

    heap = BatchedLazyGreedy(evaluate, batch_size=8, pure=pure)
    reference = LazyMarginalHeap(table.scalar)
    heap.push_array(np.asarray(keys, dtype=np.int64))
    reference.push_many(keys)
    while len(reference):
        assert heap.pop_best() == reference.pop_best()
        table.decay()
        heap.advance_round()
        reference.advance_round()
    assert (not zero_evaluations) == pure


def test_batched_heap_remove_and_membership():
    values = {k: float(k % 5) for k in range(20)}
    heap = BatchedLazyGreedy(
        lambda keys: np.array([values[int(k)] for k in keys]), batch_size=4
    )
    heap.push_array(np.arange(20, dtype=np.int64))
    assert len(heap) == 20 and 7 in heap
    heap.remove(7)
    assert len(heap) == 19 and 7 not in heap
    seen = set()
    while True:
        popped = heap.pop_best()
        if popped is None:
            break
        seen.add(popped[0])
    assert 7 not in seen and len(seen) == 19


def test_batched_heap_batches_evaluations():
    """Stale refreshes are amortised: far fewer calls than elements."""
    values = {k: 100.0 - k for k in range(256)}
    heap = BatchedLazyGreedy(
        lambda keys: np.array([values[int(k)] for k in keys]), batch_size=64
    )
    heap.push_array(np.arange(256, dtype=np.int64))
    for _ in range(32):
        heap.advance_round()  # stale everything, forcing refresh traffic
        heap.pop_best()
    assert heap.evaluation_calls < heap.elements_evaluated
    assert heap.elements_evaluated >= 256  # the initial bulk insert alone


def test_batched_heap_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        BatchedLazyGreedy(lambda keys: keys, batch_size=0)


# --------------------------------------------------------------------- #
# consumer-level identity (same RR-set oracle, both engines)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("model_cls", MODELS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("seed", [5, 11])
def test_cs_and_ca_greedy_bit_identical(graph, model_cls, seed):
    instance, oracle = _instance_and_oracle(graph, model_cls, seed=seed)
    h = instance.num_advertisers
    for solver in (cs_greedy, ca_greedy):
        coverage = solver(instance, oracle)
        per_key = solver(instance, _Delegating(oracle))
        assert _allocations_equal(coverage.allocation, per_key.allocation, h)
        assert coverage.revenue == per_key.revenue
        assert coverage.depleted_budgets == per_key.depleted_budgets


@pytest.mark.parametrize("seed", [5, 11, 42])
def test_greedy_single_advertiser_bit_identical(graph, seed):
    instance, oracle = _instance_and_oracle(graph, seed=seed)
    for advertiser in range(instance.num_advertisers):
        assert greedy_single_advertiser(
            instance, oracle, advertiser
        ) == greedy_single_advertiser(instance, _Delegating(oracle), advertiser)


def test_greedy_single_advertiser_candidate_subset(graph):
    instance, oracle = _instance_and_oracle(graph)
    candidates = list(range(0, graph.num_nodes, 3))
    assert greedy_single_advertiser(
        instance, oracle, 1, candidates=candidates
    ) == greedy_single_advertiser(instance, _Delegating(oracle), 1, candidates=candidates)


def test_greedy_values_the_stopple_node_on_its_own(graph):
    """Algorithm 1 compares ``π(S)`` with ``π({d})``, not with ``d``'s
    marginal given ``S``.  Here 20 cheap nodes each share a set with the
    expensive node 0, which is also alone in 10 more: ``π(S) = 20``,
    ``π({0}) = 30`` but ``π(0 | S) = 10``, so only the singleton revenue
    makes the stopple node win."""
    n = 21
    tiny = preferential_attachment_digraph(n, out_degree=2, seed=3)
    costs = np.full((1, n), 0.1)
    costs[0, 0] = 10.0
    collection = RRCollection(n, 1)
    for node in range(1, n):
        collection.add([0, node], 0)
    for _ in range(10):
        collection.add([0], 0)
    instance = RMInstance(
        tiny, WeightedCascadeModel(tiny), [Advertiser(budget=1.0, cpe=1.0)], costs
    )
    oracle = RRSetOracle(collection, instance.gamma)
    # Node 0 fits alone, but not after the 20 cheap nodes.
    budget = 10.0 + oracle.revenue(0, {0}) + 1.0
    best, selected, stopple = greedy_single_advertiser(instance, oracle, 0, budget=budget)
    assert best == stopple == {0} and len(selected) == 20
    assert (best, selected, stopple) == greedy_single_advertiser(
        instance, _Delegating(oracle), 0, budget=budget
    )


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 10.0])
def test_threshold_greedy_bit_identical(graph, gamma):
    instance, oracle = _instance_and_oracle(graph)
    h = instance.num_advertisers
    coverage, b_coverage = threshold_greedy(instance, oracle, gamma)
    per_key, b_per_key = threshold_greedy(instance, _Delegating(oracle), gamma)
    assert b_coverage == b_per_key
    assert _allocations_equal(coverage, per_key, h)


def test_fill_bit_identical_from_partial_allocation(graph):
    instance, oracle = _instance_and_oracle(graph)
    h = instance.num_advertisers
    start = Allocation(h)
    for advertiser, node in [(0, 3), (0, 17), (1, 25), (2, 4)]:
        start.assign(node, advertiser)
    coverage = fill(instance, oracle, start)
    per_key = fill(instance, _Delegating(oracle), start)
    assert _allocations_equal(coverage, per_key, h)


# --------------------------------------------------------------------- #
# pruning is invisible: ThresholdGreedy + Fill over randomized edge cases
# --------------------------------------------------------------------- #
_SMALL_GRAPH = preferential_attachment_digraph(60, out_degree=3, seed=4)


@st.composite
def _pruning_cases(draw):
    """An instance, an RR-set oracle and the ThresholdGreedy/Fill arguments,
    drawn to stress the permanence of every pruned rejection."""
    graph = _SMALL_GRAPH
    n = graph.num_nodes
    h = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Tied integer costs put many budget sums exactly on a budget.
    if draw(st.booleans()):
        costs = rng.integers(1, 4, size=(h, n)).astype(np.float64)
    else:
        costs = rng.uniform(0.5, 3.0, size=(h, n))
    # From a handful of nodes' worth (tight) to most of the graph (loose).
    budget = draw(st.sampled_from([1.5, 6.0, 25.0, 120.0]))
    advertisers = [
        Advertiser(budget=budget * (1.0 + 0.3 * i), cpe=1.0 + 0.5 * (i % 2))
        for i in range(h)
    ]
    model = WeightedCascadeModel(graph)
    instance = RMInstance(graph, model, advertisers, costs)
    # Few RR-sets leave most nodes with zero gain.
    count = draw(st.sampled_from([6, 40, 300]))
    probabilities = np.asarray(model.edge_probabilities(), dtype=np.float64)
    collection = RRCollection(n, h)
    for rr_set in RRSetGenerator(graph, probabilities).generate_batch(count, rng=rng):
        collection.add(rr_set, int(rng.integers(0, h)))
    oracle = RRSetOracle(collection, instance.gamma)

    budgets = (
        instance.budgets() * rng.uniform(0.5, 1.5, size=h) if draw(st.booleans()) else None
    )
    candidates = (
        rng.permutation(n)[: n // 2].tolist() if draw(st.booleans()) else None
    )
    gamma_top = gamma_max(instance, oracle, budgets, candidates)
    gamma = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])) * gamma_top
    start = Allocation(h)
    pool = candidates if candidates is not None else list(range(n))
    for node in rng.permutation(pool)[: draw(st.integers(0, 6))].tolist():
        start.assign(int(node), int(rng.integers(0, h)))
    return instance, oracle, gamma, budgets, candidates, start


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=_pruning_cases())
def test_pruning_is_invisible(case):
    instance, oracle, gamma, budgets, candidates, start = case
    h = instance.num_advertisers
    coverage, b_coverage = threshold_greedy(
        instance, oracle, gamma, budgets=budgets, candidates=candidates
    )
    per_key, b_per_key = threshold_greedy(
        instance, _Delegating(oracle), gamma, budgets=budgets, candidates=candidates
    )
    assert b_coverage == b_per_key
    assert _allocations_equal(coverage, per_key, h)
    filled = fill(instance, oracle, start, budgets=budgets, candidates=candidates)
    filled_per_key = fill(
        instance, _Delegating(oracle), start, budgets=budgets, candidates=candidates
    )
    assert _allocations_equal(filled, filled_per_key, h)


def _heap_traffic(monkeypatch):
    """Count ``pop_best`` calls and evaluations of entries cached at zero."""
    traffic = {"pops": 0, "zero_evaluations": 0}
    init, pop_best = BatchedLazyGreedy.__init__, BatchedLazyGreedy.pop_best

    def counted_init(self, batch_evaluate, *args, **kwargs):
        def evaluate(keys):
            traffic["zero_evaluations"] += sum(
                self._members.get(key) == 0.0 for key in keys.tolist()
            )
            return batch_evaluate(keys)

        init(self, evaluate, *args, **kwargs)

    def counted_pop(self):
        traffic["pops"] += 1
        return pop_best(self)

    monkeypatch.setattr(BatchedLazyGreedy, "__init__", counted_init)
    monkeypatch.setattr(BatchedLazyGreedy, "pop_best", counted_pop)
    return traffic


@pytest.mark.parametrize("count", [60, 500])
@pytest.mark.parametrize("from_threshold", [False, True])
def test_fill_pops_only_what_it_accepts(graph, monkeypatch, count, from_threshold):
    """On the coverage engine every element Fill pops is accepted, and no
    zero-valued entry reaches the evaluator; the oracle engine pops and
    re-evaluates dead elements (the check is not vacuous)."""
    instance, oracle = _instance_and_oracle(graph, count=count)
    h = instance.num_advertisers
    start = (
        threshold_greedy(instance, oracle, 0.5, run_fill=False)[0]
        if from_threshold
        else Allocation(h)
    )
    traffic = _heap_traffic(monkeypatch)
    heap_operations = _count_heap_operations(monkeypatch)
    for engine_oracle, pruned in ((oracle, True), (_Delegating(oracle), False)):
        traffic.update(pops=0, zero_evaluations=0)
        heap_operations.update(heappop=0)
        result = fill(instance, engine_oracle, start)
        accepted = len(result.assigned_nodes()) - len(start.assigned_nodes())
        assert accepted > 0
        if pruned:
            assert traffic["pops"] == accepted
            assert traffic["zero_evaluations"] == 0
            # Zeros wait in the zero tail instead of being re-stamped.
            assert heap_operations["heappop"] <= 10 * traffic["pops"]
        else:
            assert traffic["pops"] > accepted
            assert traffic["zero_evaluations"] > 0


@pytest.mark.parametrize("h", [1, 3, 4])
def test_rm_with_oracle_bit_identical(graph, h):
    """Covers all three dispatch arms of Algorithm 5 (h=1, h≤3, h≥4)."""
    instance, oracle = _instance_and_oracle(graph, h=h)
    coverage = rm_with_oracle(instance, oracle)
    per_key = rm_with_oracle(instance, _Delegating(oracle))
    assert _allocations_equal(coverage.allocation, per_key.allocation, h)
    assert coverage.revenue == per_key.revenue
    assert coverage.metadata == per_key.metadata


def test_gamma_max_bit_identical(graph):
    instance, oracle = _instance_and_oracle(graph)
    assert gamma_max(instance, oracle) == gamma_max(instance, _Delegating(oracle))
    subset = list(range(0, graph.num_nodes, 7))
    assert gamma_max(instance, oracle, candidates=subset) == gamma_max(
        instance, _Delegating(oracle), candidates=subset
    )


def test_coverage_engine_matches_oracle_marginals(graph):
    """Both engines return the oracle's floats while seeds accumulate."""
    instance, oracle = _instance_and_oracle(graph)
    engines = [engine_for(instance, oracle), engine_for(instance, _Delegating(oracle))]
    assert isinstance(engines[0], CoverageGreedyEngine)
    assert isinstance(engines[1], OracleGreedyEngine)
    rng = np.random.default_rng(2)
    seeds: dict[int, set[int]] = {i: set() for i in range(instance.num_advertisers)}
    for step, node in enumerate(rng.permutation(graph.num_nodes)[:40].tolist()):
        advertiser = step % instance.num_advertisers
        expected = oracle.marginal_revenue(advertiser, node, seeds[advertiser])
        for engine in engines:
            assert engine.gain(advertiser, node) == expected
            key = np.array([advertiser * graph.num_nodes + node], dtype=np.int64)
            assert engine.gains(key)[0] == expected
            engine.add_seed(advertiser, node)
        seeds[advertiser].add(node)


def test_engines_set_their_own_batch_size(graph):
    instance, oracle = _instance_and_oracle(graph)
    coverage = engine_for(instance, oracle)
    per_key = engine_for(instance, _Delegating(oracle))
    assert coverage.batch_size == batched_greedy.DEFAULT_BATCH_SIZE
    assert per_key.batch_size == 1
    # Only coverage evaluations are pure, so only they are ever pruned.
    assert coverage.pure and not per_key.pure


# --------------------------------------------------------------------- #
# solver-level identity (sampling setting)
# --------------------------------------------------------------------- #
def _dataset_instance():
    from repro.datasets.registry import build_dataset

    data = build_dataset(
        "lastfm_like",
        num_advertisers=4,
        incentive="linear",
        alpha=0.1,
        scale=0.3,
        seed=3,
        singleton_rr_sets=200,
    )
    return data.instance


def _force_oracle_engine(monkeypatch):
    """Route every greedy loop onto the oracle engine, RR-set oracles too."""
    monkeypatch.setattr(batched_greedy, "_covers", lambda oracle, instance: False)


def test_rma_solver_bit_identical(monkeypatch):
    instance = _dataset_instance()
    h = instance.num_advertisers
    params = SamplingParameters(
        epsilon=0.3,
        initial_rr_sets=512,
        max_rr_sets=2048,
        seed=9,
        policy=ExecutionPolicy.seed(),
    )
    coverage = rm_without_oracle(instance, params)
    _force_oracle_engine(monkeypatch)
    per_key = rm_without_oracle(instance, params)
    assert _allocations_equal(coverage.allocation, per_key.allocation, h)
    assert coverage.revenue == per_key.revenue
    assert coverage.metadata == per_key.metadata


def test_one_batch_rm_bit_identical(monkeypatch):
    instance = _dataset_instance()
    h = instance.num_advertisers
    params = SamplingParameters(epsilon=0.3, seed=9, policy=ExecutionPolicy.seed())
    coverage = one_batch_rm(instance, 800, params)
    _force_oracle_engine(monkeypatch)
    per_key = one_batch_rm(instance, 800, params)
    assert _allocations_equal(coverage.allocation, per_key.allocation, h)
    assert coverage.revenue == per_key.revenue


# --------------------------------------------------------------------- #
# Monte-Carlo oracles run on the per-key engine
# --------------------------------------------------------------------- #
def test_monte_carlo_oracle_runs_on_the_oracle_engine():
    tiny = preferential_attachment_digraph(30, out_degree=2, seed=2)
    model = WeightedCascadeModel(tiny)
    advertisers = [Advertiser(budget=25.0, cpe=1.0) for _ in range(2)]
    costs = np.full((2, tiny.num_nodes), 1.5)
    instance = RMInstance(tiny, model, advertisers, costs)
    results = []
    for _ in range(2):
        oracle = MonteCarloOracle(
            instance, num_simulations=40, seed=11, policy=ExecutionPolicy.seed()
        )
        assert isinstance(engine_for(instance, oracle), OracleGreedyEngine)
        results.append(cs_greedy(instance, oracle))
    assert _allocations_equal(results[0].allocation, results[1].allocation, 2)
    assert results[0].revenue == results[1].revenue
