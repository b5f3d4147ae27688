"""Compare RMA against the TI-CARM / TI-CSRM baselines (the Figure 1 workload).

Reproduces a single cell of the paper's main comparison: the Flixster-like
network under the linear seed-incentive model at one value of α, reporting
revenue, seeding cost, seed count and running time per algorithm.

No execution knobs are set: every solver runs on the default
``ExecutionPolicy.fast()`` — hashed batched RR sampling, batched Monte-Carlo
cascades, vectorized batched seed selection, all cores.  Pass
``policy=ExecutionPolicy.seed()`` to the parameter objects for the serial
bit-reproducible escape hatch.

Run with:  PYTHONPATH=src python examples/compare_algorithms.py
"""

from __future__ import annotations

from repro import SamplingParameters, TIParameters, build_dataset
from repro.experiments.metrics import independent_evaluator
from repro.experiments.report import format_table
from repro.experiments.runner import compare_algorithms


def main() -> None:
    print("Preparing a Flixster-like instance (h = 8, linear incentives, alpha = 0.1) ...")
    data = build_dataset(
        "flixster_like",
        num_advertisers=8,
        incentive="linear",
        alpha=0.1,
        scale=0.4,
        seed=11,
        singleton_rr_sets=600,
    )
    instance = data.instance
    # The paper gives the baselines (1 + rho) x budget because RMA is bicriteria.
    rho = 0.1
    baseline_instance = instance.with_scaled_budgets(1.0 + rho)

    evaluator = independent_evaluator(instance, num_rr_sets=15000, seed=23)

    sampling_params = SamplingParameters(
        epsilon=0.1,
        rho=rho,
        tau=0.1,
        initial_rr_sets=1024,
        max_rr_sets=8192,
        seed=11,
    )
    ti_params = TIParameters(
        epsilon=0.1,
        pilot_size=256,
        max_rr_sets_per_advertiser=2048,
        seed=11,
    )

    rows = []
    print("Running RMA ...")
    rma_runs = compare_algorithms(
        ["RMA"], instance, evaluator=evaluator, sampling_params=sampling_params
    )
    print("Running TI-CSRM and TI-CARM ...")
    ti_runs = compare_algorithms(
        ["TI-CSRM", "TI-CARM"], baseline_instance, evaluator=evaluator, ti_params=ti_params
    )
    for run in rma_runs + ti_runs:
        rows.append(
            {
                "algorithm": run.algorithm,
                "revenue": run.evaluation.revenue,
                "seeding_cost": run.evaluation.seeding_cost,
                "seeds": run.evaluation.total_seeds,
                "rate_of_return": run.evaluation.rate_of_return,
                "time_s": run.running_time_seconds,
            }
        )

    print()
    print(format_table(rows, title="Flixster-like, linear incentive model, alpha = 0.1"))
    best = max(rows, key=lambda row: row["revenue"])
    print(f"Best revenue: {best['algorithm']} ({best['revenue']:.1f})")


if __name__ == "__main__":
    main()
