"""Quickstart: solve one revenue-maximization instance end to end.

Builds a small synthetic Lastfm-like network, prepares advertisers with
heterogeneous budgets and cpe values under the linear seed-incentive model,
runs the paper's RMA solver, and evaluates the resulting allocation with an
independent RR-set estimator.

No execution knobs are needed: every entry point defaults to
``ExecutionPolicy.fast()`` — hashed batched RR sampling (``rr_engine="subsim"``),
the batched Monte-Carlo cascade engine (``mc_engine="batched"``) and sharding
across all cores (``n_jobs=-1``).  Seed selection needs no knob at all: with
an RR-set oracle the CELF refreshes are vectorized coverage gathers.  The
later sections show the two knobs that remain:

* ``ExecutionPolicy.seed()`` — the serial escape hatch that replays the
  original seed tree's RNG streams bit for bit;
* ``Runtime`` — a context whose persistent worker pool is reused across all
  of RMA's doubling rounds instead of respawning per call.

Run with:  PYTHONPATH=src python examples/quickstart.py
"""

from __future__ import annotations

from repro import ExecutionPolicy, Runtime, SamplingParameters, build_dataset, rm_without_oracle
from repro.advertising.oracle import MonteCarloOracle
from repro.experiments.metrics import evaluate_allocation
from repro.experiments.runner import run_algorithm
from repro.runtime import resolve_policy


def main() -> None:
    print("Building a Lastfm-like dataset (synthetic stand-in) ...")
    data = build_dataset(
        "lastfm_like",
        num_advertisers=5,
        incentive="linear",
        alpha=0.1,
        scale=0.4,
        seed=42,
        singleton_rr_sets=500,
    )
    instance = data.instance
    print(f"  graph: {instance.num_nodes} nodes, {instance.graph.num_edges} edges")
    print(f"  advertisers: {instance.num_advertisers}, Γ = {instance.gamma:.1f}")
    for index, advertiser in enumerate(instance.advertisers):
        print(f"    ad-{index}: budget={advertiser.budget:8.1f}  cpe={advertiser.cpe:.1f}")

    print("\nRunning RMA (RM_without_Oracle) on the default fast policy ...")
    print(f"  effective policy: {resolve_policy(None).describe()}")
    params = SamplingParameters(
        epsilon=0.1,
        delta=0.01,
        tau=0.1,
        rho=0.1,
        initial_rr_sets=1024,
        max_rr_sets=8192,
        seed=42,
    )
    result = rm_without_oracle(instance, params)
    print(f"  RR-sets used:        {result.metadata['rr_sets']}")
    print(f"  empirical ratio β:   {result.metadata['beta']:.3f}")
    print(f"  theoretical λ:       {result.metadata['lambda']:.3f}")
    print(f"  seeds selected:      {result.allocation.total_seed_count()}")

    print("\nEvaluating with an independent estimator ...")
    evaluation = evaluate_allocation(instance, result.allocation, num_rr_sets=20000, seed=7)
    print(f"  total revenue:       {evaluation.revenue:10.1f}")
    print(f"  total seeding cost:  {evaluation.seeding_cost:10.1f}")
    print(f"  budget usage:        {evaluation.budget_usage:10.1%}")
    print(f"  host rate of return: {evaluation.rate_of_return:10.1%}")

    print("\nPer-advertiser breakdown:")
    for advertiser, seeds in result.allocation.items():
        revenue = evaluation.per_advertiser_revenue[advertiser]
        cost = evaluation.per_advertiser_cost[advertiser]
        budget = instance.budget(advertiser)
        print(
            f"  ad-{advertiser}: |S|={len(seeds):3d}  revenue={revenue:8.1f}  "
            f"seed cost={cost:7.1f}  budget={budget:8.1f}  "
            f"spend={(revenue + cost) / budget:6.1%}"
        )

    print("\nCross-checking ad-0 with a Monte-Carlo oracle (batched engine by default) ...")
    mc_oracle = MonteCarloOracle(instance, num_simulations=200, seed=13)
    seeds_zero = result.allocation.seeds(0)
    mc_revenue = mc_oracle.revenue(0, seeds_zero) if seeds_zero else 0.0
    rr_revenue = evaluation.per_advertiser_revenue[0]
    print(f"  RR-set estimate:      {rr_revenue:10.1f}")
    print(f"  Monte-Carlo estimate: {mc_revenue:10.1f}")

    print("\nEscape hatch: policy=ExecutionPolicy.seed() replays the seed RNG streams ...")
    from dataclasses import replace

    seeded = rm_without_oracle(instance, replace(params, policy=ExecutionPolicy.seed()))
    print(f"  seed-policy revenue estimate: {seeded.revenue:10.1f}")
    print("  (bit-identical across runs and machines; serial, so slower)")

    print("\nPool reuse: run_algorithm inside a Runtime ...")
    print("  the persistent worker pool is reused across all doubling rounds")
    with Runtime(ExecutionPolicy.fast(n_jobs=2)) as rt:
        fast_run = run_algorithm(
            "RMA",
            instance,
            sampling_params=replace(params, policy=rt.policy),
            runtime=rt,
            evaluation_rr_sets=5000,
            seed=7,
        )
        print(f"  revenue:             {fast_run.evaluation.revenue:10.1f}")
        print(f"  wall-clock:          {fast_run.running_time_seconds:10.2f}s")
        print(f"  pool spawns:         {rt.pool_spawn_count} (per-call pools would pay one per round)")
    print("  (equivalent CLI: python -m repro.cli solve --policy fast --jobs 2)")
    print("  (serial reproducible CLI: python -m repro.cli solve --policy seed)")


if __name__ == "__main__":
    main()
