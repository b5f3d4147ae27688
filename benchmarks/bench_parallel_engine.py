"""Perf harness for the sharded parallel execution engine.

Times the two embarrassingly parallel stages — RR-set generation and batched
Monte-Carlo spread estimation — sharded across a multiprocess worker pool
(:mod:`repro.parallel`) against the **best serial fast paths** (the SUBSIM
generator and the batched level-synchronous cascade engine, i.e. the engines
PRs 1–2 shipped), on the same 20k-node / 130k-edge Weighted-Cascade graph as
the other harnesses.

Run directly::

    PYTHONPATH=src python benchmarks/bench_parallel_engine.py          # full, 4 workers
    PYTHONPATH=src python benchmarks/bench_parallel_engine.py --fast   # CI-sized, 2 workers

Scaling measurement
-------------------
Parallel wall-clock only beats serial when the host actually has as many
usable cores as workers, so every section reports two numbers:

* ``parallel_wall_s`` — measured wall-clock of the sharded run;
* ``parallel_critical_path_s`` — ``max(worker CPU seconds) + overhead``,
  where the per-shard CPU seconds are measured *inside* the workers with
  ``time.process_time`` (robust to time-slicing) and
  ``overhead = parallel_wall − Σ worker CPU`` captures the real pool spawn +
  pickle + merge cost.  This is what the wall-clock converges to when one
  core per worker is available.

The reported ``speedup`` uses wall-clock when the host has at least
``workers`` usable cores and the critical-path estimate otherwise; the
``speedup_basis`` field in the JSON says which was used and ``host_cpus``
records the machine.  The gate applies to the combined generation +
estimation sections.  ``REPRO_MAX_JOBS`` caps pool size without changing
shard layout, so the numbers are comparable across runners.

A merge-side section (``collection_merge``) additionally times
``RRCollection.from_shards`` against the per-set ``add`` loop — parent-side
work that the sharded pipeline vectorises regardless of core count.

A pool-lifecycle section (``runtime_pool_reuse``) times an RMA-style
doubling-round scenario — two RR collections grown over several rounds —
with per-call pools (one ``multiprocessing.Pool`` spawn per
``generate_collection``) against a persistent
:class:`repro.runtime.Runtime` pool (one spawn for the whole scenario),
asserting the two paths produce bit-identical collections.  This measures
how much of the sharded pipeline's overhead is pure pool spawn + payload
shipping, i.e. what the ``Runtime`` layer amortises.  Calls this small
would be drawn in-process (``repro.parallel.rr._INLINE_WORK``), so
the section sends every one to the pool.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.diffusion.engine import (
    monte_carlo_spread as engine_monte_carlo_spread,
    simulate_cascades_batch,
    singleton_spreads_monte_carlo as engine_singleton_spreads,
)
from repro.diffusion.models import WeightedCascadeModel
from repro.graph.generators import preferential_attachment_digraph
from repro.parallel import ShardedExecutor, rr
from repro.parallel.mc import run_singleton_shards, run_spread_shards
from repro.parallel.rr import merge_shards, run_generation_shards
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import SubsimRRGenerator
from repro.rrsets.uniform import UniformRRSampler
from repro.runtime import ExecutionPolicy, Runtime
from repro.utils.resources import peak_rss_mib

FULL = {
    "num_nodes": 20_000,
    "out_degree": 5,
    "workers": 4,
    "rr_sets": 30_000,
    "spread_simulations": 6000,
    "seed_set_size": 50,
    "singleton_nodes": 1000,
    "singleton_simulations": 40,
    "doubling_rounds": 4,
    "doubling_theta0": 400,
    "repeats": 3,
    "min_speedup": 2.5,
}
FAST = {
    "num_nodes": 2_000,
    "out_degree": 5,
    "workers": 2,
    "rr_sets": 12_000,
    "spread_simulations": 6000,
    "seed_set_size": 20,
    "singleton_nodes": 2_000,
    "singleton_simulations": 50,
    "doubling_rounds": 3,
    "doubling_theta0": 200,
    "repeats": 2,
    "min_speedup": 1.3,
}
NUM_ADVERTISERS = 5
GRAPH_SEED = 3
RR_SEED = 5
TAG_SEED = 1
SEED_SET_SEED = 0
MC_SEED = 5
SANITY_SEED = 17
SANITY_CASCADES = 400
GATE_SECTIONS = ("rr_generation", "mc_spread", "singleton_spreads")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _timed_best(fn, repeats):
    """Best-of-``repeats`` wall-clock (the sharded runs are deterministic, so
    repeats only de-noise the timing, not the result)."""
    best_s, result = _timed(fn)
    for _ in range(repeats - 1):
        elapsed, result = _timed(fn)
        best_s = min(best_s, elapsed)
    return best_s, result


def _best_parallel(fn, repeats):
    """Run the sharded section ``repeats`` times; keep the least-noisy run
    (smallest critical path).  Returns ``(wall_s, shard_results)``."""
    best = None
    for _ in range(repeats):
        wall_s, shards = _timed(fn)
        cpu = [s.cpu_seconds for s in shards]
        critical = max(cpu) + max(0.0, wall_s - sum(cpu))
        if best is None or critical < best[0]:
            best = (critical, wall_s, shards)
    return best[1], best[2]


def _effective(serial_s, parallel_wall_s, worker_cpu_s, host_cpus, workers):
    """Section scaling record: wall, critical-path model, chosen speedup."""
    total_cpu = float(sum(worker_cpu_s))
    overhead = max(0.0, parallel_wall_s - total_cpu)
    critical_path = max(worker_cpu_s) + overhead if worker_cpu_s else parallel_wall_s
    if host_cpus >= workers:
        basis, effective_s = "wall-clock", parallel_wall_s
    else:
        basis, effective_s = "critical-path model", critical_path
    return {
        "serial_s": round(serial_s, 6),
        "parallel_wall_s": round(parallel_wall_s, 6),
        "parallel_critical_path_s": round(critical_path, 6),
        "worker_cpu_s": [round(s, 6) for s in worker_cpu_s],
        "overhead_s": round(overhead, 6),
        "speedup_basis": basis,
        "effective_parallel_s": round(effective_s, 6),
        "speedup": round(serial_s / effective_s, 2) if effective_s else None,
        "wall_speedup": round(serial_s / parallel_wall_s, 2) if parallel_wall_s else None,
    }


def run(config: dict) -> dict:
    n, out_degree = config["num_nodes"], config["out_degree"]
    workers = config["workers"]
    host_cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    graph = preferential_attachment_digraph(n, out_degree=out_degree, seed=GRAPH_SEED)
    probabilities = np.asarray(
        WeightedCascadeModel(graph).edge_probabilities(), dtype=np.float64
    )
    executor = ShardedExecutor(workers)
    results: dict = {
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "host_cpus": host_cpus,
        "workers": workers,
        "sections": {},
    }

    def report(name, record):
        results["sections"][name] = record
        print(
            f"{name:<20} serial {record['serial_s']:8.3f}s   "
            f"parallel(wall) {record['parallel_wall_s']:8.3f}s   "
            f"critical-path {record['parallel_critical_path_s']:8.3f}s   "
            f"{record['speedup']:6.2f}x ({record['speedup_basis']})"
        )

    # ------------------------------------------------------------------ #
    # RR-set generation: SUBSIM serial vs sharded
    # ------------------------------------------------------------------ #
    count = config["rr_sets"]
    repeats = config["repeats"]
    serial_s, serial_sets = _timed_best(
        lambda: SubsimRRGenerator(graph, probabilities).generate_batch(count, RR_SEED),
        repeats,
    )
    wall_s, shards = _best_parallel(
        lambda: run_generation_shards(
            SubsimRRGenerator, graph, probabilities, count, RR_SEED, executor
        ),
        repeats,
    )
    assert sum(shard.sizes.size for shard in shards) == count == len(serial_sets)
    report(
        "rr_generation",
        _effective(serial_s, wall_s, [s.cpu_seconds for s in shards], host_cpus, workers),
    )

    # ------------------------------------------------------------------ #
    # parent-side merge: from_shards vs per-set add loop
    # ------------------------------------------------------------------ #
    tags = np.random.default_rng(TAG_SEED).integers(0, NUM_ADVERTISERS, size=count)
    triples = []
    position = 0
    for shard in shards:
        size = shard.sizes.size
        triples.append((shard.members, shard.sizes, tags[position: position + size]))
        position += size
    parallel_sets = list(merge_shards(shards))

    def build_by_add():
        collection = RRCollection(n, NUM_ADVERTISERS)
        for rr_set, tag in zip(parallel_sets, tags.tolist()):
            collection.add(rr_set, tag)
        collection.membership_counts()  # force the CSR + index build
        return collection

    def build_from_shards():
        collection = RRCollection.from_shards(n, NUM_ADVERTISERS, triples)
        collection.membership_counts()
        return collection

    add_s, by_add = _timed_best(build_by_add, repeats)
    merge_s, by_shards = _timed_best(build_from_shards, repeats)
    assert np.array_equal(by_add.member_array, by_shards.member_array)
    assert np.array_equal(by_add.tag_array, by_shards.tag_array)
    results["sections"]["collection_merge"] = {
        "serial_s": round(add_s, 6),
        "parallel_wall_s": round(merge_s, 6),
        "parallel_critical_path_s": round(merge_s, 6),
        "worker_cpu_s": [],
        "overhead_s": 0.0,
        "speedup_basis": "wall-clock (parent-side merge)",
        "effective_parallel_s": round(merge_s, 6),
        "speedup": round(add_s / merge_s, 2) if merge_s else None,
        "wall_speedup": round(add_s / merge_s, 2) if merge_s else None,
    }
    print(
        f"{'collection_merge':<20} add-loop {add_s:6.3f}s   from_shards {merge_s:8.3f}s   "
        f"{add_s / merge_s:6.2f}x (parent-side merge)"
    )

    # ------------------------------------------------------------------ #
    # Monte-Carlo spread: batched engine serial vs sharded
    # ------------------------------------------------------------------ #
    # Drop the generation artifacts before forking the MC pools: a fat dirty
    # parent heap makes every child pay copy-on-write faults inside its
    # timed section, polluting the worker CPU numbers.
    import gc

    del serial_sets, shards, triples, parallel_sets, by_add, by_shards
    gc.collect()
    sims = config["spread_simulations"]
    seeds = (
        np.random.default_rng(SEED_SET_SEED)
        .choice(n, size=config["seed_set_size"], replace=False)
        .astype(np.int64)
    )
    serial_s, serial_spread = _timed_best(
        lambda: engine_monte_carlo_spread(graph, probabilities, seeds, sims, rng=MC_SEED),
        repeats,
    )
    wall_s, spread_shards = _best_parallel(
        lambda: run_spread_shards(graph, probabilities, seeds, sims, MC_SEED, executor),
        repeats,
    )
    parallel_spread = sum(s.activation_total for s in spread_shards) / sims
    sizes = (
        simulate_cascades_batch(graph, probabilities, seeds, SANITY_CASCADES, rng=SANITY_SEED)
        .sum(axis=1)
        .astype(np.float64)
    )
    tolerance = 6.0 * float(sizes.std()) * math.sqrt(2.0 / sims)
    assert abs(serial_spread - parallel_spread) <= tolerance + 1e-9, (
        f"engines disagree on spread: serial {serial_spread:.2f} vs "
        f"parallel {parallel_spread:.2f} (tolerance {tolerance:.2f})"
    )
    results["spread_estimates"] = {
        "serial": round(serial_spread, 4),
        "parallel": round(parallel_spread, 4),
        "tolerance_6_sigma": round(tolerance, 4),
    }
    report(
        "mc_spread",
        _effective(
            serial_s, wall_s, [s.cpu_seconds for s in spread_shards], host_cpus, workers
        ),
    )

    # ------------------------------------------------------------------ #
    # singleton spreads: batched engine serial vs sharded node chunks
    # ------------------------------------------------------------------ #
    nodes = np.arange(config["singleton_nodes"], dtype=np.int64)
    single_sims = config["singleton_simulations"]
    serial_s, serial_singletons = _timed_best(
        lambda: engine_singleton_spreads(
            graph, probabilities, num_simulations=single_sims, rng=MC_SEED, nodes=nodes
        ),
        repeats,
    )
    wall_s, singleton_shards = _best_parallel(
        lambda: run_singleton_shards(
            graph, probabilities, nodes, single_sims, MC_SEED, executor
        ),
        repeats,
    )
    singleton_totals = np.zeros(nodes.size, dtype=np.int64)
    for stripe_index, shard in enumerate(singleton_shards):
        singleton_totals[stripe_index:: len(singleton_shards)] = shard.totals
    parallel_singletons = singleton_totals.astype(np.float64) / single_sims
    assert parallel_singletons.size == serial_singletons.size
    assert abs(parallel_singletons.mean() - serial_singletons.mean()) <= max(
        1.0, 0.25 * serial_singletons.mean()
    ), "engines disagree on mean singleton spread"
    report(
        "singleton_spreads",
        _effective(
            serial_s, wall_s, [s.cpu_seconds for s in singleton_shards], host_cpus, workers
        ),
    )

    # ------------------------------------------------------------------ #
    # pool lifecycle: per-call pools vs one persistent Runtime pool
    # ------------------------------------------------------------------ #
    rounds = config["doubling_rounds"]
    theta0 = config["doubling_theta0"]
    calls = 2 * rounds  # two collections (R1, R2) grown every round, RMA-style

    def doubling_scenario(runtime, n_jobs=workers):
        sampler = UniformRRSampler(
            graph,
            [probabilities] * NUM_ADVERTISERS,
            [1.0] * NUM_ADVERTISERS,
            seed=RR_SEED,
            policy=ExecutionPolicy.fast(n_jobs=n_jobs),
            runtime=runtime,
        )
        one = sampler.generate_collection(theta0)
        two = sampler.generate_collection(theta0)
        for _ in range(rounds - 1):
            sampler.generate_collection(len(one), into=one)
            sampler.generate_collection(len(two), into=two)
        return one, two

    def run_with_runtime():
        # Pool spawn + payload broadcast included in the timed section: the
        # amortization claim has to pay its own setup.
        with Runtime(ExecutionPolicy.fast(n_jobs=workers)) as rt:
            one, two = doubling_scenario(rt)
            return one, two, rt.pool_spawn_count, rt.recovery_stats.events

    # This section times pool mechanics, so every round goes to the pool:
    # left to itself, run_slot_shards draws calls this small in-process.
    with mock.patch.object(rr, "_INLINE_WORK", 0):
        per_call_s, (e_one, e_two) = _timed_best(lambda: doubling_scenario(None), repeats)
        runtime_s, (p_one, p_two, spawns, recovery_events) = _timed_best(
            run_with_runtime, repeats
        )
    assert spawns == 1, f"the Runtime path spawned {spawns} pools"
    assert np.array_equal(e_one.member_array, p_one.member_array)
    assert np.array_equal(e_two.member_array, p_two.member_array)
    assert np.array_equal(e_one.tag_array, p_one.tag_array)
    # Hashed slots make n_jobs a pure speed knob: a serial run draws the same.
    s_one, s_two = doubling_scenario(None, n_jobs=1)
    assert np.array_equal(s_one.member_array, p_one.member_array)
    assert np.array_equal(s_two.member_array, p_two.member_array)
    assert np.array_equal(s_one.tag_array, p_one.tag_array)
    # The supervision loop must be invisible on a healthy host: no crashes,
    # no timeouts, no retries — and therefore no recovery-driven respawns.
    assert recovery_events == 0, f"unexpected recovery events: {recovery_events}"
    results["sections"]["runtime_pool_reuse"] = {
        "scenario": (
            f"RMA doubling rounds: 2 collections x {rounds} rounds, "
            f"theta0={theta0} ({(2 ** rounds - 1) * 2 * theta0} RR-sets total), "
            f"hashed slots, {workers} workers"
        ),
        "per_call_pools_s": round(per_call_s, 6),
        "runtime_pool_s": round(runtime_s, 6),
        "pool_spawns_per_call_path": calls,
        "pool_spawns_runtime_path": spawns,
        "spawn_overhead_saved_s": round(per_call_s - runtime_s, 6),
        "spawn_overhead_saved_ms_per_call": round(
            1000.0 * (per_call_s - runtime_s) / calls, 3
        ),
        "speedup": round(per_call_s / runtime_s, 2) if runtime_s else None,
        "bit_identical": True,
        "identical_to_serial": True,
        "recovery_events": recovery_events,
    }
    print(
        f"{'runtime_pool_reuse':<20} per-call pools {per_call_s:6.3f}s "
        f"({calls} spawns)   Runtime {runtime_s:8.3f}s ({spawns} spawn)   "
        f"{per_call_s / runtime_s:6.2f}x, "
        f"{1000.0 * (per_call_s - runtime_s) / calls:.0f} ms/call amortised"
    )

    # ------------------------------------------------------------------ #
    # combined generation + estimation gate
    # ------------------------------------------------------------------ #
    serial_total = sum(results["sections"][s]["serial_s"] for s in GATE_SECTIONS)
    effective_total = sum(
        results["sections"][s]["effective_parallel_s"] for s in GATE_SECTIONS
    )
    wall_total = sum(results["sections"][s]["parallel_wall_s"] for s in GATE_SECTIONS)
    results["pipeline_generation_plus_estimation"] = {
        "sections": list(GATE_SECTIONS),
        "serial_s": round(serial_total, 6),
        "parallel_wall_s": round(wall_total, 6),
        "effective_parallel_s": round(effective_total, 6),
        "speedup": round(serial_total / effective_total, 2),
        "wall_speedup": round(serial_total / wall_total, 2),
    }
    print(
        f"{'pipeline (gen+est)':<20} serial {serial_total:8.3f}s   "
        f"effective {effective_total:8.3f}s   {serial_total / effective_total:6.2f}x "
        f"at {workers} workers"
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true", help="CI-sized run (2 workers), no JSON by default"
    )
    parser.add_argument("--output", type=Path, default=None, help="where to write the JSON report")
    parser.add_argument(
        "--workers", type=int, default=None, help="override the worker count"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per section (best-of)"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail if the combined generation+estimation speedup is below this",
    )
    args = parser.parse_args()
    config = dict(FAST if args.fast else FULL)
    if args.workers is not None:
        config["workers"] = args.workers
    if args.repeats is not None:
        config["repeats"] = max(1, args.repeats)
    print(
        f"Parallel engine benchmark — {'fast' if args.fast else 'full'} mode: "
        f"{config['num_nodes']} nodes × out-degree {config['out_degree']}, "
        f"{config['workers']} workers, {config['rr_sets']} RR-sets, "
        f"{config['spread_simulations']} cascades × {config['seed_set_size']} seeds, "
        f"{config['singleton_nodes']} singleton nodes × "
        f"{config['singleton_simulations']} sims"
    )
    results = run(config)
    payload = {"config": config, "num_advertisers": NUM_ADVERTISERS, **results, "peak_rss_mib": peak_rss_mib()}
    output = args.output
    if output is None and not args.fast:
        output = Path(__file__).resolve().parent.parent / "BENCH_parallel_engine.json"
    if output is not None:
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}")
    gate = args.min_speedup if args.min_speedup is not None else config["min_speedup"]
    speedup = payload["pipeline_generation_plus_estimation"]["speedup"]
    if speedup < gate:
        raise SystemExit(
            f"perf regression: generation+estimation speedup {speedup}x < {gate}x "
            f"at {config['workers']} workers"
        )


if __name__ == "__main__":
    main()
