"""Perf-regression harness for the lazy-greedy coverage engine.

Times the greedy-allocation consumers — CS-Greedy, CA-Greedy,
ThresholdGreedy + Fill and the threshold search — on the coverage engine (what an RR-set oracle
gets: vectorized CELF refreshes through the ``(h, n)`` coverage marginal
matrix, see :mod:`repro.core.batched_greedy`) against the per-key oracle
engine (one ``oracle.marginal_revenue`` call per element, what every other
oracle gets), on a Weighted-Cascade synthetic graph.  Both sides query the
same RR-set oracle; the oracle engine is forced by wrapping it in
:class:`PerKeyOracle`, a plain :class:`RevenueOracle` that forwards every
query.  The report keeps its historical keys: ``scalar_s`` is the oracle
engine, ``batched_s`` the coverage engine.

Run directly::

    PYTHONPATH=src python benchmarks/bench_greedy_engine.py          # full (20k nodes)
    PYTHONPATH=src python benchmarks/bench_greedy_engine.py --fast   # CI-sized

The full run writes ``BENCH_greedy_engine.json`` next to the repo root
(override with ``--output``) and fails if the aggregate ``greedy_coverage``
speedup drops below 3x; ``--fast`` applies a smaller aggregate gate plus a
40x gate on the ``threshold_fill`` section alone.  The ``search``
section is recorded but gated by neither and left out of the aggregate: it
runs on a candidate subset (see :func:`run`).  The batched
engines see the same floats and the heap's schedule does not depend on its
batch size, so every section also asserts the two engines returned
*identical allocations* (``tests/test_greedy_engine_equivalence.py`` pins
this per consumer).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.advertising.advertiser import Advertiser
from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RevenueOracle, RRSetOracle
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.core.search import search_threshold
from repro.core.threshold_greedy import threshold_greedy
from repro.diffusion.models import WeightedCascadeModel
from repro.graph.generators import preferential_attachment_digraph
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import SubsimRRGenerator
from repro.utils.resources import peak_rss_mib

FULL = {
    "num_nodes": 20_000,
    "out_degree": 5,
    "rr_sets": 3000,
    "min_speedup": 3.0,
    "search_stride": 50,
}
FAST = {
    "num_nodes": 2_000,
    "out_degree": 5,
    "rr_sets": 600,
    "min_speedup": 1.5,
    "search_stride": 8,
    # ThresholdGreedy + Fill drop dead elements in bulk on the coverage
    # engine and queue zeros in its heap's zero tail; the per-key side pops,
    # rejects and re-stamps every one of them.
    "min_section_speedup": {"threshold_fill": 40.0},
}
NUM_ADVERTISERS = 5
GRAPH_SEED = 3
RR_SEED = 5
TAG_SEED = 1
COST_SEED = 7
#: per-advertiser demand fraction B_i = demand · n · cpe_i (Table 2 regime)
DEMAND = 0.15


class PerKeyOracle(RevenueOracle):
    """Forwards every query to ``inner``; not an RR-set oracle, so the
    greedy consumers run on the per-key oracle engine."""

    def __init__(self, inner: RevenueOracle):
        self._inner = inner

    @property
    def num_advertisers(self) -> int:
        return self._inner.num_advertisers

    def revenue(self, advertiser, seeds):
        return self._inner.revenue(advertiser, seeds)

    def marginal_revenue(self, advertiser, node, seeds):
        return self._inner.marginal_revenue(advertiser, node, seeds)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def build_workload(config: dict):
    """One RM instance + tagged RR collection shared by both engines."""
    n, out_degree = config["num_nodes"], config["out_degree"]
    graph = preferential_attachment_digraph(n, out_degree=out_degree, seed=GRAPH_SEED)
    model = WeightedCascadeModel(graph)
    advertisers = [
        Advertiser(budget=DEMAND * n * (1.0 + 0.25 * i), cpe=1.0 + 0.25 * i)
        for i in range(NUM_ADVERTISERS)
    ]
    costs = np.random.default_rng(COST_SEED).uniform(1.0, 8.0, size=(NUM_ADVERTISERS, n))
    instance = RMInstance(graph, model, advertisers, costs)
    probabilities = np.asarray(model.edge_probabilities(), dtype=np.float64)
    rr_sets = SubsimRRGenerator(graph, probabilities).generate_batch(
        config["rr_sets"], rng=RR_SEED
    )
    tags = np.random.default_rng(TAG_SEED).integers(
        0, NUM_ADVERTISERS, size=config["rr_sets"]
    )
    collection = RRCollection(n, NUM_ADVERTISERS)
    for rr_set, tag in zip(rr_sets, tags):
        collection.add(rr_set, int(tag))
    # Force the lazy CSR/index build so neither timed path pays for it.
    collection.membership_counts()
    return instance, collection


def run(config: dict) -> dict:
    instance, collection = build_workload(config)
    graph = instance.graph
    results: dict = {
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "sections": {},
    }

    def fresh_oracle(coverage):
        # A fresh oracle per timed run: the per-key engine warms per-query
        # caches that must not leak into the next measurement.
        oracle = RRSetOracle(collection, instance.gamma)
        return oracle if coverage else PerKeyOracle(oracle)

    def section(name, solve):
        scalar_s, scalar_out = _timed(lambda: solve(fresh_oracle(False)))
        batched_s, batched_out = _timed(lambda: solve(fresh_oracle(True)))
        for advertiser in range(NUM_ADVERTISERS):
            assert scalar_out.seeds(advertiser) == batched_out.seeds(advertiser), (
                f"{name}: engines disagree for advertiser {advertiser}"
            )
        results["sections"][name] = {
            "scalar_s": round(scalar_s, 6),
            "batched_s": round(batched_s, 6),
            "speedup": round(scalar_s / batched_s, 2) if batched_s else None,
            "seeds_selected": sum(
                len(scalar_out.seeds(i)) for i in range(NUM_ADVERTISERS)
            ),
        }
        print(
            f"{name:<28} scalar {scalar_s:8.3f}s   batched {batched_s:8.3f}s   "
            f"{scalar_s / batched_s:6.2f}x"
        )

    section("cs_greedy", lambda oracle: cs_greedy(instance, oracle).allocation)
    section("ca_greedy", lambda oracle: ca_greedy(instance, oracle).allocation)
    # One mid-range threshold: exercises the gain-ranked main loop, the
    # single-depletion rescue path and the rate-ranked Fill pass.
    gamma = 0.5 * float(min(instance.cpe(i) for i in range(NUM_ADVERTISERS)))
    section("threshold_fill", lambda oracle: threshold_greedy(instance, oracle, gamma)[0])
    greedy_sections = list(results["sections"])

    # The whole threshold search (Algorithm 4), which shares its ground
    # set, rescues and fills across probes on the coverage engine only.  A
    # per-key search on every node would take minutes, so it runs on every
    # ``search_stride``-th node with budgets shrunk by the same factor,
    # which still depletes budgets over several probes.
    stride = config["search_stride"]
    search_candidates = list(range(0, graph.num_nodes, stride))
    search_budgets = instance.budgets() / stride
    searched = []

    def search(oracle):
        result = search_threshold(
            instance,
            oracle,
            tau=0.1,
            b_min=2,
            budgets=search_budgets,
            candidates=search_candidates,
        )
        searched.append(result)
        return result[0]

    section("search", search)
    scalar, batched = searched
    assert list(scalar[0].pairs()) == list(batched[0].pairs()), (
        "search: engines disagree on the assignment order"
    )
    assert scalar[1] == batched[1], "search: engines disagree on the revenue"
    results["sections"]["search"].update(
        candidates=len(search_candidates), probes=scalar[3]["search_iterations"]
    )

    sections = {name: results["sections"][name] for name in greedy_sections}
    scalar_total = sum(entry["scalar_s"] for entry in sections.values())
    batched_total = sum(entry["batched_s"] for entry in sections.values())
    results["greedy_coverage"] = {
        "sections": list(sections),
        "scalar_s": round(scalar_total, 6),
        "batched_s": round(batched_total, 6),
        "speedup": round(scalar_total / batched_total, 2),
    }
    print(
        f"{'greedy_coverage (total)':<28} scalar {scalar_total:8.3f}s   "
        f"batched {batched_total:8.3f}s   {scalar_total / batched_total:6.2f}x"
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI-sized run, no JSON output by default"
    )
    parser.add_argument("--output", type=Path, default=None, help="where to write the JSON report")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail if the greedy_coverage speedup is below this (default: per-mode)",
    )
    args = parser.parse_args()
    config = dict(FAST if args.fast else FULL)
    print(
        f"Greedy engine benchmark — {'fast' if args.fast else 'full'} mode: "
        f"{config['num_nodes']} nodes × out-degree {config['out_degree']}, "
        f"{config['rr_sets']} RR-sets, {NUM_ADVERTISERS} advertisers"
    )
    results = run(config)
    payload = {"config": config, "num_advertisers": NUM_ADVERTISERS, **results, "peak_rss_mib": peak_rss_mib()}
    output = args.output
    if output is None and not args.fast:
        output = Path(__file__).resolve().parent.parent / "BENCH_greedy_engine.json"
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}")
    gate = args.min_speedup if args.min_speedup is not None else config["min_speedup"]
    speedup = payload["greedy_coverage"]["speedup"]
    if speedup < gate:
        raise SystemExit(
            f"perf regression: greedy_coverage speedup {speedup}x < {gate}x"
        )
    for name, section_gate in config.get("min_section_speedup", {}).items():
        section_speedup = payload["sections"][name]["speedup"]
        if section_speedup < section_gate:
            raise SystemExit(
                f"perf regression: {name} speedup {section_speedup}x < {section_gate}x"
            )


if __name__ == "__main__":
    main()
