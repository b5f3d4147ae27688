"""Delta-fuzzing equivalence harness for the incremental RR-set store.

The contract under test (``docs/architecture.md``, "Incremental
maintenance"): an :class:`RRStore` that absorbs a stream of graph delta
batches through :meth:`~repro.rrsets.store.RRStore.apply_deltas` must be
**bit-identical** — members, tags, roots, inverted index, coverage state —
to a store generated from scratch on the post-delta graph under the same
``(seed, policy)``, while redrawing strictly fewer RR-sets than full
regeneration on localized deltas.

The fuzz seeds are parametrized and extendable without a code change:
``REPRO_DELTA_FUZZ_SEEDS="0-7"`` (ranges and comma lists) widens the sweep,
as the CI delta-fuzz job does.
"""

import os

import numpy as np
import pytest

from reference.graph_view import MutableGraphView as ReferenceGraphView
from repro.diffusion.models import WeightedCascadeModel
from repro.exceptions import GraphError, SamplingError
from repro.graph import CSRDiGraph, preferential_attachment_digraph
from repro.graph.deltas import (
    AddEdge,
    AddNode,
    MutableGraphView,
    RemoveEdge,
    RemoveNode,
    UpdateProbability,
)
from repro.parallel.executor import PersistentPool
from repro.rrsets.collection import CoverageState
from repro.rrsets.estimators import empirical_coverage_fraction
from repro.rrsets.slots import HashedRRSampler
from repro.rrsets.store import RRStore
from repro.runtime import ExecutionPolicy, Runtime


def _fuzz_seeds():
    """Fuzz-seed matrix: ``REPRO_DELTA_FUZZ_SEEDS="0-3,7"`` style override."""
    spec = os.environ.get("REPRO_DELTA_FUZZ_SEEDS", "0-2")
    seeds = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            low, high = part.rsplit("-", 1)
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


FUZZ_SEEDS = _fuzz_seeds()
ENGINES = ("legacy", "subsim")

#: Serial in-process policy — the fuzz loops regenerate constantly, and the
#: pool/inline equivalence has its own dedicated test below.
SERIAL = ExecutionPolicy()


@pytest.fixture(scope="module")
def micro_graph():
    """A 30-node preferential-attachment micro-graph."""
    return preferential_attachment_digraph(30, out_degree=3, seed=2)


def _ic_probabilities(graph):
    return [
        np.full(graph.num_edges, 0.2, dtype=np.float64),
        np.full(graph.num_edges, 0.35, dtype=np.float64),
    ]


def _make_store(graph, seed=17, policy=SERIAL, count=300, runtime=None):
    view = MutableGraphView(graph, _ic_probabilities(graph))
    store = RRStore(view, [1.0, 1.5], seed=seed, policy=policy, runtime=runtime)
    store.generate(count)
    return store


def _fresh_clone(store, runtime=None):
    """A store generated from scratch on ``store``'s *current* graph state."""
    view = MutableGraphView(
        store.view.graph, store.view.advertiser_edge_probabilities
    )
    clone = RRStore(
        view, store.cpes, seed=store.seed, policy=store.policy, runtime=runtime
    )
    clone.generate(len(store))
    return clone


def _assert_bit_identical(maintained, fresh):
    """Full structural equality: collection, roots, index, coverage state."""
    a, b = maintained.collection, fresh.collection
    assert np.array_equal(a.member_array, b.member_array)
    assert np.array_equal(a.set_offsets, b.set_offsets)
    assert np.array_equal(a.tag_array, b.tag_array)
    assert np.array_equal(maintained.roots(), fresh.roots())
    assert np.array_equal(a.membership_counts(), b.membership_counts())
    # Inverted-index consistency on a deterministic sample of keys.
    h = a.membership_counts().shape[0]
    probe = np.random.default_rng(0)
    for _ in range(20):
        advertiser = int(probe.integers(0, h))
        node = int(probe.integers(0, a.num_nodes))
        assert np.array_equal(
            a.sets_containing_array(advertiser, node),
            b.sets_containing_array(advertiser, node),
        )
    # Coverage bookkeeping built on both collections agrees step for step.
    state_a, state_b = CoverageState(a), CoverageState(b)
    for advertiser, node in ((0, 0), (1, 1), (0, 2)):
        assert state_a.add_seed(advertiser, node) == state_b.add_seed(advertiser, node)
    assert state_a.covered_count == state_b.covered_count


def _pick_edge(rng, edges):
    ordered = sorted(edges)
    return ordered[int(rng.integers(0, len(ordered)))]


def _random_batch(rng, view, allow_node_ops=False):
    """One valid delta batch against ``view``'s current state.

    Tracks the evolving edge set while synthesizing (batches apply in
    order), mixing localized probability updates with structural edits and
    — when ``allow_node_ops`` — node-space changes.
    """
    edges = set(view.edges())
    h = view.num_advertisers
    n = view.num_nodes
    batch = []
    size = int(rng.integers(2, 7))
    while len(batch) < size:
        roll = float(rng.random())
        if roll < 0.55 and edges:
            u, v = _pick_edge(rng, edges)
            advertiser = int(rng.integers(0, h))
            batch.append(
                UpdateProbability(
                    u, v, float(rng.uniform(0.05, 0.6)), advertiser=advertiser
                )
            )
        elif roll < 0.7:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v or (u, v) in edges:
                continue
            probabilities = tuple(float(p) for p in rng.uniform(0.05, 0.6, h))
            batch.append(AddEdge(u, v, probabilities))
            edges.add((u, v))
        elif roll < 0.85 and len(edges) > 5:
            u, v = _pick_edge(rng, edges)
            batch.append(RemoveEdge(u, v))
            edges.discard((u, v))
        elif allow_node_ops and roll < 0.92:
            batch.append(AddNode())
            n += 1
        elif allow_node_ops:
            x = int(rng.integers(0, n))
            batch.append(RemoveNode(x))
            edges = {(u, v) for (u, v) in edges if u != x and v != x}
        else:
            continue
    return batch


# --------------------------------------------------------------------------- #
# 1. the delta-fuzzing equivalence harness
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
def test_fuzzed_delta_scripts_match_full_regeneration(
    micro_graph, engine, fuzz_seed
):
    """Random localized scripts: incremental ≡ fresh after every batch."""
    policy = SERIAL.evolve(rr_engine=engine)
    store = _make_store(micro_graph, seed=100 + fuzz_seed, policy=policy)
    rng = np.random.default_rng(fuzz_seed)
    redrawn = 0
    for _ in range(4):
        report = store.apply_deltas(_random_batch(rng, store.view))
        assert report.reason in ("localized", "clean")
        assert report.redrawn < report.total
        assert report.kept == report.total - report.redrawn
        redrawn += report.redrawn
        _assert_bit_identical(store, _fresh_clone(store))
    assert store.redraws_total == redrawn


@pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
def test_fuzzed_scripts_with_node_ops_match_full_regeneration(
    micro_graph, fuzz_seed
):
    """Scripts that also grow/isolate nodes stay equivalent (globally)."""
    store = _make_store(micro_graph, seed=300 + fuzz_seed, count=200)
    rng = np.random.default_rng(1000 + fuzz_seed)
    for _ in range(3):
        report = store.apply_deltas(
            _random_batch(rng, store.view, allow_node_ops=True)
        )
        assert report.redrawn <= report.total
        _assert_bit_identical(store, _fresh_clone(store))


def test_noop_and_inverse_delta_pairs_keep_identity(micro_graph):
    """No-op updates and remove/re-add inverse pairs leave the graph — and
    the regenerated store — exactly where they started."""
    store = _make_store(micro_graph, seed=42)
    view = store.view
    u, v = view.edges()[0]
    before_edges = view.edges()
    before_probability = view.edge_probability(u, v, 0)
    batch = [
        # No-op: rewrite an existing probability to its current value.
        UpdateProbability(u, v, before_probability, advertiser=0),
        # Inverse pair inside one batch: remove then re-add identically.
        RemoveEdge(u, v),
        AddEdge(u, v, tuple(view.edge_probability(u, v, i) for i in range(2))),
    ]
    report = store.apply_deltas(batch)
    # The graph is unchanged; invalidation is conservative but localized.
    assert view.edges() == before_edges
    assert view.edge_probability(u, v, 0) == before_probability
    assert report.reason == "localized"
    assert report.redrawn < report.total
    _assert_bit_identical(store, _fresh_clone(store))


def test_generate_in_chunks_matches_single_call(micro_graph):
    """Slot substreams are keyed by absolute index, not by generate() call."""
    chunked = _make_store(micro_graph, seed=7, count=0)
    chunked.generate(20)
    chunked.generate(40)
    single = _make_store(micro_graph, seed=7, count=60)
    _assert_bit_identical(chunked, single)


# --------------------------------------------------------------------------- #
# 2. invalidation semantics
# --------------------------------------------------------------------------- #
def test_localized_probability_update_redraws_strict_subset(micro_graph):
    store = _make_store(micro_graph, seed=5)
    u, v = store.view.edges()[0]
    report = store.apply_deltas([UpdateProbability(u, v, 0.9, advertiser=1)])
    assert report.reason == "localized"
    assert 0 < report.redrawn < report.total
    _assert_bit_identical(store, _fresh_clone(store))


def test_add_node_invalidates_the_whole_store(micro_graph):
    """Growing the id space changes the root-draw domain for every slot."""
    store = _make_store(micro_graph, seed=5)
    report = store.apply_deltas([AddNode(count=2)])
    assert report.reason == "node-space-changed"
    assert report.redrawn == report.total
    assert store.view.num_nodes == micro_graph.num_nodes + 2
    assert store.collection.num_nodes == micro_graph.num_nodes + 2
    _assert_bit_identical(store, _fresh_clone(store))


def test_remove_node_isolates_and_stays_localized(micro_graph):
    store = _make_store(micro_graph, seed=5)
    report = store.apply_deltas([RemoveNode(0)])
    assert report.reason == "localized"
    assert report.redrawn < report.total
    # Isolation semantics: the id space is stable, node 0 has no edges left.
    assert store.view.num_nodes == micro_graph.num_nodes
    assert not any(0 in (u, v) for u, v in store.view.edges())
    _assert_bit_identical(store, _fresh_clone(store))


def test_clean_batch_on_empty_store_reports_clean(micro_graph):
    store = _make_store(micro_graph, seed=5, count=0)
    u, v = store.view.edges()[0]
    report = store.apply_deltas([UpdateProbability(u, v, 0.4)])
    assert (report.total, report.redrawn, report.reason) == (0, 0, "clean")


def test_out_of_band_view_mutation_raises(micro_graph):
    """Mutating the view behind the store's back must fail loudly."""
    store = _make_store(micro_graph, seed=5)
    u, v = store.view.edges()[0]
    store.view.apply([UpdateProbability(u, v, 0.4)])
    with pytest.raises(SamplingError, match="out-of-band"):
        store.collection
    with pytest.raises(SamplingError, match="out-of-band"):
        store.generate(1)
    with pytest.raises(SamplingError, match="out-of-band"):
        store.apply_deltas([UpdateProbability(u, v, 0.5)])


def test_provenance_records_roots_and_tags(micro_graph):
    store = _make_store(micro_graph, seed=5, count=50)
    roots = store.roots()
    for index in (0, 13, 49):
        record = store.provenance(index)
        assert record.slot == index
        assert record.root == roots[index]
        assert record.tag == store.collection.tag(index)
        assert record.root in store.collection.rr_set(index)


# --------------------------------------------------------------------------- #
# 3. execution-policy equivalence (pool vs inline)
# --------------------------------------------------------------------------- #
def _count_pool_runs(monkeypatch):
    """A list that gains one entry per ``PersistentPool.run`` call."""
    runs = []
    original = PersistentPool.run

    def counted(self, *args, **kwargs):
        runs.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PersistentPool, "run", counted)
    return runs


@pytest.mark.parametrize("engine", ENGINES)
def test_pool_and_inline_maintenance_are_bit_identical(
    micro_graph, engine, monkeypatch, pool_from_slots
):
    pool_from_slots(micro_graph)
    inline_policy = ExecutionPolicy(rr_engine=engine)
    pool_policy = ExecutionPolicy(rr_engine=engine, n_jobs=2)
    inline_store = _make_store(micro_graph, seed=9, policy=inline_policy)
    rng = np.random.default_rng(3)
    script = [_random_batch(rng, inline_store.view) for _ in range(2)]
    # A whole-store redraw (300 slots) is large enough to run on the pool.
    script.append([AddNode()])
    for batch in script:
        inline_store.apply_deltas(batch)
    with Runtime(pool_policy) as runtime:
        pool_store = _make_store(
            micro_graph, seed=9, policy=pool_policy, runtime=runtime
        )
        runs = _count_pool_runs(monkeypatch)
        for batch in script:
            pool_store.apply_deltas(batch)
        assert runs  # the pool really drew the whole-store redraw
        _assert_bit_identical(inline_store, pool_store)


# --------------------------------------------------------------------------- #
# 4. statistical guardrail: maintained ≡ fresh in distribution
# --------------------------------------------------------------------------- #
def _ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (no scipy dependency)."""
    grid = np.union1d(sample_a, sample_b)
    cdf_a = np.searchsorted(np.sort(sample_a), grid, side="right") / sample_a.size
    cdf_b = np.searchsorted(np.sort(sample_b), grid, side="right") / sample_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _ks_threshold(n: int, m: int, alpha: float = 1e-3) -> float:
    """Critical KS distance at significance ``alpha`` (asymptotic form)."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


@pytest.mark.parametrize("model", ["ic", "wc"])
def test_maintained_store_is_statistically_equivalent_to_fresh(model):
    """A delta-maintained store and an *independently seeded* fresh store on
    the same final graph must agree in distribution: KS on RR-set sizes and
    coverage fractions within 3σ of the pooled binomial."""
    graph = preferential_attachment_digraph(30, out_degree=3, seed=2)
    if model == "ic":
        probabilities = _ic_probabilities(graph)
    else:
        wc = np.asarray(
            WeightedCascadeModel(graph).edge_probabilities(), dtype=np.float64
        )
        probabilities = [wc, np.clip(wc * 0.8, 0.0, 1.0)]
    count = 3000
    view = MutableGraphView(graph, probabilities)
    maintained = RRStore(view, [1.0, 1.5], seed=11, policy=SERIAL)
    maintained.generate(count)
    rng = np.random.default_rng(5)
    for _ in range(3):
        maintained.apply_deltas(_random_batch(rng, view))
    fresh = RRStore(
        MutableGraphView(view.graph, view.advertiser_edge_probabilities),
        [1.0, 1.5],
        seed=9999,  # deliberately different substreams
        policy=SERIAL,
    )
    fresh.generate(count)
    sizes_a = np.diff(maintained.collection.set_offsets).astype(np.float64)
    sizes_b = np.diff(fresh.collection.set_offsets).astype(np.float64)
    assert _ks_statistic(sizes_a, sizes_b) <= _ks_threshold(count, count)
    allocation = {0: [0, 1], 1: [1, 2]}
    fraction_a = empirical_coverage_fraction(maintained.collection, allocation)
    fraction_b = empirical_coverage_fraction(fresh.collection, allocation)
    pooled = 0.5 * (fraction_a + fraction_b)
    sigma = np.sqrt(max(pooled * (1.0 - pooled), 1e-12) * (2.0 / count))
    assert abs(fraction_a - fraction_b) <= 3.0 * sigma
    # The revenue estimator is a fixed scaling of the coverage fraction, so
    # the same bound transfers directly.
    scale = view.num_nodes * maintained.gamma
    assert abs(
        maintained.estimate_total_revenue(allocation)
        - fresh.estimate_total_revenue(allocation)
    ) <= 3.0 * sigma * scale + 1e-9


# --------------------------------------------------------------------------- #
# 5. MutableGraphView semantics
# --------------------------------------------------------------------------- #
class TestMutableGraphView:
    @pytest.fixture
    def view(self, micro_graph):
        return MutableGraphView(micro_graph, _ic_probabilities(micro_graph))

    def test_snapshot_stays_canonically_ordered(self, view):
        n = view.num_nodes
        u, v = view.edges()[0]
        view.apply(
            [
                RemoveEdge(u, v),
                AddEdge(u, v, (0.5, 0.6)),
                AddEdge(n - 1, 0, (0.1, 0.2)) if not view.has_edge(n - 1, 0)
                else UpdateProbability(u, v, 0.5, advertiser=0),
            ]
        )
        graph = view.graph
        keys = list(zip(graph.sources.tolist(), graph.targets.tolist()))
        assert keys == sorted(keys)
        # Probability arrays stay aligned with the canonical edge order.
        index = keys.index((u, v))
        assert view.advertiser_edge_probabilities[0][index] == 0.5
        assert view.advertiser_edge_probabilities[1][index] == 0.6

    def test_epoch_advances_per_batch(self, view):
        u, v = view.edges()[0]
        assert view.epoch == 0
        first = view.apply([UpdateProbability(u, v, 0.4)])
        second = view.apply([UpdateProbability(u, v, 0.3, advertiser=1)])
        assert (first.epoch, second.epoch) == (1, 2)
        assert view.epoch == 2

    def test_dirty_region_per_delta_kind(self, view):
        u, v = view.edges()[0]
        effect = view.apply([UpdateProbability(u, v, 0.4, advertiser=1)])
        assert effect.dirty_nodes.size == 0
        assert effect.dirty_nodes_by_advertiser[1].tolist() == [v]
        effect = view.apply([UpdateProbability(u, v, 0.4)])
        assert effect.dirty_nodes.tolist() == [v]
        effect = view.apply([AddNode()])
        assert effect.num_nodes_changed and effect.is_global

    def test_invalid_batches_are_rejected_atomically(self, view):
        u, v = view.edges()[0]
        epoch = view.epoch
        edges = view.edges()
        probability = view.edge_probability(u, v, 0)
        with pytest.raises(GraphError):
            # First delta is valid; second fails — nothing may commit.
            view.apply([UpdateProbability(u, v, 0.9), AddEdge(u, v, (0.1, 0.1))])
        assert view.epoch == epoch
        assert view.edges() == edges
        assert view.edge_probability(u, v, 0) == probability

    def test_validation_errors(self, view):
        u, v = view.edges()[0]
        with pytest.raises(GraphError):
            view.apply([AddEdge(0, 0, (0.1, 0.1))])  # self-loop
        with pytest.raises(GraphError):
            view.apply([AddEdge(u, v, (0.1,))])  # wrong arity
        with pytest.raises(GraphError):
            view.apply([UpdateProbability(u, v, 1.5)])  # out of [0, 1]
        with pytest.raises(GraphError):
            view.apply([UpdateProbability(u, v, 0.5, advertiser=9)])
        missing = next(
            (a, b)
            for a in range(view.num_nodes)
            for b in range(view.num_nodes)
            if a != b and not view.has_edge(a, b)
        )
        with pytest.raises(GraphError):
            view.apply([RemoveEdge(*missing)])
        with pytest.raises(GraphError):
            view.apply([AddNode(count=0)])
        with pytest.raises(GraphError):
            view.apply([RemoveNode(view.num_nodes)])

    def test_remove_node_keeps_id_space(self, view):
        n = view.num_nodes
        view.apply([RemoveNode(1)])
        assert view.num_nodes == n
        assert not any(1 in (u, v) for u, v in view.edges())

    def test_node_ids_beyond_the_edge_key_space_are_rejected(self, view):
        # Edges are keyed (source << 32) | target, so ids must stay below
        # 2**31.  Neither check allocates a graph of that size.
        n = view.num_nodes
        with pytest.raises(GraphError, match="edge key"):
            view.apply([AddNode(), AddNode(count=2**31 - n)])
        assert (view.num_nodes, view.epoch) == (n, 0)
        empty = np.empty(0, dtype=np.int64)
        huge = CSRDiGraph.from_parts(2**31 + 1, *[empty] * 8)
        with pytest.raises(GraphError, match="edge key"):
            MutableGraphView(huge, [np.empty(0)])


# --------------------------------------------------------------------------- #
# 6. the array-backed view against the dict-backed reference view
# --------------------------------------------------------------------------- #
def _csr_arrays(graph):
    return (graph.sources, graph.targets, *graph.out_csr(), *graph.in_csr())


def _assert_same_views(view, reference):
    """Snapshot, probabilities and epoch agree array for array."""
    assert (view.num_nodes, view.num_edges, view.epoch) == (
        reference.num_nodes,
        reference.num_edges,
        reference.epoch,
    )
    assert view.graph.num_nodes == reference.graph.num_nodes
    for ours, theirs in zip(_csr_arrays(view.graph), _csr_arrays(reference.graph)):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    ours, theirs = view.advertiser_edge_probabilities, reference.advertiser_edge_probabilities
    assert len(ours) == len(theirs)
    for array, expected in zip(ours, theirs):
        assert not array.flags.writeable
        assert array.dtype == expected.dtype
        assert np.array_equal(array, expected)
    assert view.edges() == reference.edges()


def _assert_same_effects(effect, expected):
    assert (effect.epoch, effect.num_deltas, effect.num_nodes_changed) == (
        expected.epoch,
        expected.num_deltas,
        expected.num_nodes_changed,
    )
    assert effect.dirty_nodes.tolist() == expected.dirty_nodes.tolist()
    assert list(effect.dirty_nodes_by_advertiser) == list(
        expected.dirty_nodes_by_advertiser
    )
    for advertiser, nodes in effect.dirty_nodes_by_advertiser.items():
        assert nodes.tolist() == expected.dirty_nodes_by_advertiser[advertiser].tolist()
        assert not nodes.flags.writeable
    assert not effect.dirty_nodes.flags.writeable


def _invalid_delta(rng, edges, n, h):
    """One delta that the evolving state ``(edges, n)`` must reject."""
    u, v = sorted(edges)[int(rng.integers(0, len(edges)))] if edges else (0, 1)
    missing = next(
        (a, b) for a in range(n) for b in range(n) if a != b and (a, b) not in edges
    )
    invalid = [
        AddEdge(u, v, (0.1,) * h) if edges else AddEdge(0, 0, (0.1,) * h),
        AddEdge(0, 0, (0.1,) * h),
        AddEdge(*missing, (0.1,) * (h + 1)),
        AddEdge(*missing, (0.1,) * (h - 1) + (1.5,)),
        RemoveEdge(*missing),
        UpdateProbability(*missing, 0.3),
        UpdateProbability(u, v, -0.1),
        UpdateProbability(u, v, 0.3, advertiser=h),
        AddNode(count=0),
        RemoveNode(n),
        RemoveEdge(n, 0),
    ]
    return invalid[int(rng.integers(0, len(invalid)))]


def _mixed_batch(rng, edges, n, h, poison):
    """A batch of all five delta kinds, valid in order unless ``poison``.

    Besides plain edits it stages the in-batch interactions the overlay has
    to get right: add-then-remove of one edge, ``RemoveNode`` of a node that
    gained an edge earlier in the batch, and ``AddNode`` followed by edges
    to the new ids.  With ``poison`` one invalid delta lands mid-batch.
    """
    edges = set(edges)
    batch = []
    size = int(rng.integers(3, 10))
    poison_at = int(rng.integers(1, size)) if poison else None

    def probabilities():
        return tuple(float(p) for p in rng.uniform(0.05, 0.6, h))

    def fresh_pair():
        while True:
            a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
            if a != b and (a, b) not in edges:
                return a, b

    while len(batch) < size or poison_at is not None:
        if poison_at is not None and len(batch) >= poison_at:
            batch.append(_invalid_delta(rng, edges, n, h))
            poison_at = None
        roll = float(rng.random())
        if roll < 0.25 and edges:
            u, v = sorted(edges)[int(rng.integers(0, len(edges)))]
            advertiser = int(rng.integers(0, h)) if rng.random() < 0.6 else None
            batch.append(
                UpdateProbability(u, v, float(rng.uniform(0.05, 0.6)), advertiser)
            )
        elif roll < 0.4:
            u, v = fresh_pair()
            batch.append(AddEdge(u, v, probabilities()))
            edges.add((u, v))
        elif roll < 0.5 and edges:
            u, v = sorted(edges)[int(rng.integers(0, len(edges)))]
            batch.append(RemoveEdge(u, v))
            edges.discard((u, v))
        elif roll < 0.6:
            u, v = fresh_pair()
            batch += [AddEdge(u, v, probabilities()), RemoveEdge(u, v)]
        elif roll < 0.7:
            count = int(rng.integers(1, 3))
            batch.append(AddNode(count))
            new, old = n + count - 1, int(rng.integers(0, n))
            n += count
            batch += [AddEdge(new, old, probabilities()), AddEdge(old, new, probabilities())]
            edges |= {(new, old), (old, new)}
        elif roll < 0.85:
            u, x = fresh_pair()
            batch += [AddEdge(u, x, probabilities()), RemoveNode(x)]
            edges = {(a, b) for (a, b) in edges if x not in (a, b)}
        else:
            x = int(rng.integers(0, n))
            batch.append(RemoveNode(x))
            edges = {(a, b) for (a, b) in edges if x not in (a, b)}
    return batch


@pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
def test_array_view_matches_the_reference_view(micro_graph, fuzz_seed):
    """After every batch the array view equals the dict-backed reference:
    CSR arrays, probabilities, epoch and the whole DeltaEffect; a batch that
    raises leaves both views untouched and raises the same error."""
    rng = np.random.default_rng(5000 + fuzz_seed)
    h = 3
    probabilities = [rng.uniform(0.0, 1.0, micro_graph.num_edges) for _ in range(h)]
    view = MutableGraphView(micro_graph, probabilities)
    reference = ReferenceGraphView(micro_graph, probabilities)
    _assert_same_views(view, reference)
    rejected = 0
    for _ in range(16):
        poison = bool(rng.random() < 0.3)
        batch = _mixed_batch(rng, view.edges(), view.num_nodes, h, poison)
        if not poison:
            _assert_same_effects(view.apply(batch), reference.apply(batch))
            _assert_same_views(view, reference)
            continue
        rejected += 1
        before = (view.graph, view.advertiser_edge_probabilities, view.epoch)
        before_reference = (
            reference.graph,
            reference.advertiser_edge_probabilities,
            reference.epoch,
        )
        with pytest.raises(GraphError) as ours:
            view.apply(batch)
        with pytest.raises(GraphError) as theirs:
            reference.apply(batch)
        assert str(ours.value) == str(theirs.value)
        for side, (graph, arrays, epoch) in (
            (view, before),
            (reference, before_reference),
        ):
            assert side.graph is graph and side.epoch == epoch
            assert all(
                now is then
                for now, then in zip(side.advertiser_edge_probabilities, arrays)
            )
        _assert_same_views(view, reference)
    assert view.epoch == 16 - rejected


# --------------------------------------------------------------------------- #
# memory: every stored slot owns its members
# --------------------------------------------------------------------------- #
def _assert_slots_own_their_members(store):
    """The store's flat slot arrays own their buffers: a view would keep its
    source buffer (a whole pool shard, or a whole restored payload) alive."""
    arrays = store.export_slots()
    assert all(array.base is None and not array.flags.writeable for array in arrays)
    assert [array.size for array in arrays[1:]] == [len(store)] * 3


def test_stored_slots_are_not_views(micro_graph, monkeypatch, pool_from_slots):
    pool_from_slots(micro_graph)
    _assert_slots_own_their_members(_make_store(micro_graph, count=100))
    pool_policy = ExecutionPolicy(n_jobs=2)
    with Runtime(pool_policy) as runtime:
        store = _make_store(micro_graph, seed=9, policy=pool_policy, runtime=runtime)
        runs = _count_pool_runs(monkeypatch)
        rng = np.random.default_rng(3)
        redrawn = sum(
            store.apply_deltas(_random_batch(rng, store.view)).redrawn for _ in range(2)
        )
        assert redrawn > 2 and not runs  # small redraws run in-process
        # A whole-store redraw is sharded across the pool.
        assert store.apply_deltas([AddNode()]).redrawn == len(store)
        assert runs
        _assert_slots_own_their_members(store)
        restored = RRStore.from_slots(
            store.view, store.cpes, store.seed, *store.export_slots()
        )
    _assert_slots_own_their_members(restored)


#: Two valid slots as ``(members, sizes, tags, roots)``, then edits that no
#: slot draw could produce.
_VALID_SLOTS = ([0, 3, 5, 2], [3, 1], [0, 1], [3, 2])
_CORRUPT_SLOTS = {
    "empty slot": ([0, 3, 5, 2], [3, 0, 1], [0, 0, 1], [3, 0, 2]),
    "unsorted members": ([3, 0, 5, 2], [3, 1], [0, 1], [3, 2]),
    "duplicate members": ([0, 3, 3, 2], [3, 1], [0, 1], [3, 2]),
    "root outside its slot": ([0, 3, 5, 2], [3, 1], [0, 1], [4, 2]),
}


@pytest.mark.parametrize("corruption", sorted(_CORRUPT_SLOTS))
def test_from_slots_rejects_slots_no_draw_produces(micro_graph, corruption):
    """A restore validates up front: a corrupt checkpoint fails at
    ``from_slots``, not at the restored server's first query."""
    view = MutableGraphView(micro_graph, _ic_probabilities(micro_graph))
    valid = RRStore.from_slots(view, [1.0, 1.5], 3, *map(np.array, _VALID_SLOTS))
    assert valid.collection.rr_set(0).tolist() == [0, 3, 5]
    with pytest.raises(SamplingError):
        RRStore.from_slots(view, [1.0, 1.5], 3, *map(np.array, _CORRUPT_SLOTS[corruption]))


# --------------------------------------------------------------------------- #
# a round costs what its batch touches: patched CSR, advanced engine, inline
# --------------------------------------------------------------------------- #
def _touch_script(rng, view, h):
    """Batches of every shape: fuzzed edits with node ops, the mixed
    in-batch interactions, a no-op rewrite and a remove/re-add inverse pair."""
    u, v = view.edges()[0]
    yield [UpdateProbability(u, v, view.edge_probability(u, v, 0), advertiser=0)]
    yield [RemoveEdge(u, v), AddEdge(u, v, tuple(view.edge_probability(u, v, i) for i in range(h)))]
    for _ in range(6):
        yield _random_batch(rng, view, allow_node_ops=True)
        yield _mixed_batch(rng, view.edges(), view.num_nodes, h, poison=False)


@pytest.mark.parametrize("fuzz_seed", FUZZ_SEEDS)
def test_patched_snapshot_and_advanced_engine_equal_fresh_builds(micro_graph, fuzz_seed):
    """After every batch the view's patched CSR equals ``from_sorted_edges``
    on the same keys, and an engine advanced by the batch's in-CSR edit
    equals — array for array and draw for draw — one built from scratch."""
    rng = np.random.default_rng(7000 + fuzz_seed)
    h = 3
    weights = np.array([0.2, 0.3, 0.5])
    view = MutableGraphView(
        micro_graph, [rng.uniform(0.0, 1.0, micro_graph.num_edges) for _ in range(h)]
    )
    engine = HashedRRSampler(view.graph, view.advertiser_edge_probabilities, weights)
    for batch in _touch_script(rng, view, h):
        effect = view.apply(batch)
        keys = (view.graph.sources << 32) | view.graph.targets
        rebuilt = CSRDiGraph.from_sorted_edges(view.num_nodes, keys >> 32, keys & 0xFFFFFFFF)
        for ours, theirs in zip(_csr_arrays(view.graph), _csr_arrays(rebuilt)):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        engine.advance(view.graph, view.advertiser_edge_probabilities, effect.in_edit)
        fresh = HashedRRSampler(view.graph, view.advertiser_edge_probabilities, weights)
        for name in ("_offsets", "_sources", "_degrees", "_key_hashes", "_thresholds"):
            assert np.array_equal(getattr(engine, name), getattr(fresh, name)), name
        slots = rng.integers(0, 1 << 40, size=64)
        for ours, theirs in zip(engine.draw(fuzz_seed, slots), fresh.draw(fuzz_seed, slots)):
            assert np.array_equal(ours, theirs)


def test_small_redraws_stay_in_process_and_whole_store_redraws_use_the_pool(
    micro_graph, monkeypatch, pool_from_slots
):
    """With the pool pinned from 256 slots, a redraw of fewer makes no pool
    call, a whole-store redraw of 300 slots makes exactly one — and the
    store still equals a fresh regeneration."""
    pool_from_slots(micro_graph)
    policy = ExecutionPolicy.fast(n_jobs=2)
    with Runtime(policy) as runtime:
        store = _make_store(micro_graph, seed=4, policy=policy, runtime=runtime)
        runs = _count_pool_runs(monkeypatch)
        u, v = store.view.edges()[0]
        report = store.apply_deltas([UpdateProbability(u, v, 0.9)])
        assert 0 < report.redrawn < 256 and len(runs) == 0
        report = store.apply_deltas([AddNode()])
        assert report.redrawn == 300 and len(runs) == 1
        report = store.apply_deltas([RemoveEdge(u, v)])
        assert 0 < report.redrawn < 256 and len(runs) == 1
    _assert_bit_identical(store, _fresh_clone(store))
