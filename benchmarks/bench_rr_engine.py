"""Perf-regression harness for the vectorized CSR RR-set engine.

Times the three stages the RMA solver's wall-clock is made of — RR-set
generation, tagged-collection build, and greedy maximum coverage — for the
vectorized engine against the reference (seed) implementation preserved in
:mod:`repro.rrsets.legacy`, on a Weighted-Cascade synthetic graph.

Run directly::

    PYTHONPATH=src python benchmarks/bench_rr_engine.py              # full (~100k edges)
    PYTHONPATH=src python benchmarks/bench_rr_engine.py --fast       # CI-sized

The full run writes ``BENCH_rr_engine.json`` next to the repo root (override
with ``--output``); the JSON records the machine-independent configuration
and the before/after timings so successive PRs can track the perf
trajectory.  Both engines are driven from the same seed, so the timed work
is identical by construction (the equivalence tests in
``tests/test_rr_engine_equivalence.py`` pin this bit-for-bit).

The ``generation/batched`` section times the ``fast()`` engine — hashed
slots sampled level-synchronously (:mod:`repro.rrsets.slots`) — against the
per-set :class:`~repro.rrsets.generator.SubsimRRGenerator` it replaced, on
the full-size 20k-node graph in both modes, best of
:data:`BEST_OF` runs each.  Its sets are statistically, not bit-, equivalent
(``tests/test_rr_hashed_equivalence.py``), and both modes exit non-zero
below :data:`BATCHED_GATE`.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.diffusion.models import WeightedCascadeModel
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.collection import CoverageState, RRCollection
from repro.rrsets.generator import RRSetGenerator, SubsimRRGenerator
from repro.rrsets.slots import HashedRRSampler
from repro.rrsets.legacy import (
    LegacyCoverageState,
    LegacyRRCollection,
    LegacyRRSetGenerator,
    LegacySubsimRRGenerator,
)
from repro.utils.resources import peak_rss_mib

FULL = {"num_nodes": 20_000, "out_degree": 5, "rr_sets": 3000, "greedy_seeds": 50}
FAST = {"num_nodes": 2_000, "out_degree": 5, "rr_sets": 600, "greedy_seeds": 20}
NUM_ADVERTISERS = 5
GRAPH_SEED = 3
RR_SEED = 5
TAG_SEED = 1
#: Required speed-up of the batched hashed sampler over per-set SUBSIM.
BATCHED_GATE = 3.0
BEST_OF = 5


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _best_of(fn, repeats=BEST_OF):
    timings, result = [], None
    for _ in range(repeats):
        elapsed, result = _timed(fn)
        timings.append(elapsed)
    return min(timings), result


def _wc_graph(config: dict):
    graph = preferential_attachment_digraph(
        config["num_nodes"], out_degree=config["out_degree"], seed=GRAPH_SEED
    )
    probabilities = np.asarray(
        WeightedCascadeModel(graph).edge_probabilities(), dtype=np.float64
    )
    return graph, probabilities


def batched_generation() -> dict:
    """Per-set SUBSIM against the batched hashed sampler on the full graph.

    Each side's time includes building its engine from the graph.
    """
    graph, probabilities = _wc_graph(FULL)
    count = FULL["rr_sets"]
    per_set_s, rr_sets = _best_of(
        lambda: SubsimRRGenerator(graph, probabilities).generate_batch(count, rng=RR_SEED)
    )
    batched_s, drawn = _best_of(
        lambda: HashedRRSampler(graph, probabilities).draw(RR_SEED, (0, count))
    )
    per_set_mean = float(np.mean([rr_set.size for rr_set in rr_sets]))
    batched_mean = float(drawn.sizes.mean())
    # Different coins, same distribution: the mean set sizes of 3,000 sets
    # agree to well within 25% (the KS suite pins the distributions).
    assert abs(per_set_mean - batched_mean) <= 0.25 * per_set_mean, (
        f"engines disagree on mean RR-set size: {per_set_mean} vs {batched_mean}"
    )
    speedup = per_set_s / batched_s
    print(
        f"{'generation/batched':<28} subsim {per_set_s:8.3f}s   batched {batched_s:8.3f}s   "
        f"{speedup:6.2f}x  (best of {BEST_OF}, {graph.num_nodes} nodes)"
    )
    return {
        "per_set_subsim_s": round(per_set_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(speedup, 2),
        "best_of": BEST_OF,
        "num_nodes": graph.num_nodes,
        "rr_sets": count,
        "mean_size": {"per_set_subsim": round(per_set_mean, 3), "batched": round(batched_mean, 3)},
    }


def _build_collection(cls, rr_sets, tags, num_nodes):
    collection = cls(num_nodes, NUM_ADVERTISERS)
    for rr_set, tag in zip(rr_sets, tags):
        collection.add(rr_set, int(tag))
    return collection


def _greedy_legacy(collection, steps):
    state = LegacyCoverageState(collection)
    for _ in range(steps):
        (advertiser, node), best = max(state._marginal.items(), key=lambda kv: kv[1])
        if best <= 0:
            break
        state.add_seed(advertiser, node)
    return state.covered_count


def _greedy_vectorized(collection, steps, num_nodes):
    state = CoverageState(collection)
    for _ in range(steps):
        matrix = state.marginal_matrix()
        flat = int(np.argmax(matrix))
        if matrix.ravel()[flat] <= 0:
            break
        state.add_seed(flat // num_nodes, flat % num_nodes)
    return state.covered_count


def run(config: dict) -> dict:
    count, steps = config["rr_sets"], config["greedy_seeds"]
    graph, probabilities = _wc_graph(config)
    tags = np.random.default_rng(TAG_SEED).integers(0, NUM_ADVERTISERS, size=count)
    results: dict = {
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "sections": {},
    }

    def section(name, legacy_fn, vectorized_fn):
        legacy_s, legacy_out = _timed(legacy_fn)
        vectorized_s, vectorized_out = _timed(vectorized_fn)
        results["sections"][name] = {
            "legacy_s": round(legacy_s, 6),
            "vectorized_s": round(vectorized_s, 6),
            "speedup": round(legacy_s / vectorized_s, 2) if vectorized_s else None,
        }
        print(
            f"{name:<28} legacy {legacy_s:8.3f}s   vectorized {vectorized_s:8.3f}s   "
            f"{legacy_s / vectorized_s:6.2f}x"
        )
        return legacy_out, vectorized_out

    section(
        "generation/standard",
        lambda: LegacyRRSetGenerator(graph, probabilities).generate_many(count, rng=RR_SEED),
        lambda: RRSetGenerator(graph, probabilities).generate_batch(count, rng=RR_SEED),
    )
    legacy_rr, vectorized_rr = section(
        "generation/subsim",
        lambda: LegacySubsimRRGenerator(graph, probabilities).generate_many(count, rng=RR_SEED),
        lambda: SubsimRRGenerator(graph, probabilities).generate_batch(count, rng=RR_SEED),
    )
    legacy_coll, vectorized_coll = section(
        "collection_build",
        lambda: _build_collection(LegacyRRCollection, legacy_rr, tags, graph.num_nodes),
        lambda: _build_collection(RRCollection, vectorized_rr, tags, graph.num_nodes),
    )
    results["sections"]["generation/batched"] = batched_generation()
    covered = section(
        "greedy_coverage",
        lambda: _greedy_legacy(legacy_coll, steps),
        lambda: _greedy_vectorized(vectorized_coll, steps, graph.num_nodes),
    )
    # The two argmax drivers break marginal ties differently (dict insertion
    # order vs lowest flat index), so greedy paths may diverge slightly; a
    # material coverage gap still means an engine bug.
    assert abs(covered[0] - covered[1]) <= 0.02 * max(covered), (
        f"engines disagree on greedy coverage: {covered}"
    )

    sections = results["sections"]
    pipeline = ("generation/subsim", "collection_build", "greedy_coverage")
    legacy_total = sum(sections[key]["legacy_s"] for key in pipeline)
    vectorized_total = sum(sections[key]["vectorized_s"] for key in pipeline)
    results["pipeline_generation_plus_greedy"] = {
        "sections": list(pipeline),
        "legacy_s": round(legacy_total, 6),
        "vectorized_s": round(vectorized_total, 6),
        "speedup": round(legacy_total / vectorized_total, 2),
    }
    print(
        f"{'pipeline (gen+build+greedy)':<28} legacy {legacy_total:8.3f}s   "
        f"vectorized {vectorized_total:8.3f}s   {legacy_total / vectorized_total:6.2f}x"
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="CI-sized run, no JSON output by default")
    parser.add_argument("--output", type=Path, default=None, help="where to write the JSON report")
    args = parser.parse_args()
    config = dict(FAST if args.fast else FULL)
    print(
        f"RR engine benchmark — {'fast' if args.fast else 'full'} mode: "
        f"{config['num_nodes']} nodes × out-degree {config['out_degree']}, "
        f"{config['rr_sets']} RR-sets, {config['greedy_seeds']} greedy seeds"
    )
    results = run(config)
    payload = {"config": config, "num_advertisers": NUM_ADVERTISERS, **results, "peak_rss_mib": peak_rss_mib()}
    output = args.output
    if output is None and not args.fast:
        output = Path(__file__).resolve().parent.parent / "BENCH_rr_engine.json"
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}")
    speedup = payload["pipeline_generation_plus_greedy"]["speedup"]
    if not args.fast and speedup < 5.0:
        raise SystemExit(f"perf regression: pipeline speedup {speedup}x < 5x")
    batched = payload["sections"]["generation/batched"]["speedup"]
    if batched < BATCHED_GATE:
        raise SystemExit(
            f"perf regression: batched generation {batched}x < {BATCHED_GATE}x over SUBSIM"
        )


if __name__ == "__main__":
    main()
