"""Per-figure and per-table experiment definitions.

Each ``figure*`` / ``table*`` function runs the sweep behind one artefact of
the paper's evaluation section and returns plain result rows; the benchmark
scripts under ``benchmarks/`` print them with the formatting helpers and
time the underlying solver calls with pytest-benchmark.

All functions take explicit size/accuracy knobs so the same code serves both
the quick benchmark configuration and larger offline runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.advertising.advertiser import Advertiser
from repro.advertising.instance import RMInstance
from repro.baselines.ti_common import TIParameters
from repro.core.sampling_solver import SamplingParameters
from repro.datasets.registry import DATASET_BUILDERS, sample_advertisers
from repro.datasets.synthetic import SyntheticNetwork
from repro.exceptions import ExperimentError
from repro.experiments.metrics import independent_evaluator
from repro.experiments.runner import AlgorithmRun, run_algorithm
from repro.graph.stats import compute_stats
from repro.runtime import ExecutionPolicy
from repro.incentives.models import incentive_model_by_name
from repro.incentives.singleton import estimate_singleton_spreads
from repro.utils.rng import RandomSource, as_rng

DEFAULT_ALGORITHMS = ("RMA", "TI-CSRM", "TI-CARM")


@dataclass
class ExperimentBase:
    """A network prepared once and reused across a parameter sweep."""

    network: SyntheticNetwork
    advertisers: List[Advertiser]
    singleton_spreads: np.ndarray
    seed: int

    def instance_for(self, incentive: str, alpha: float) -> RMInstance:
        """Build an instance with costs from ``incentive`` at scale ``alpha``."""
        model = incentive_model_by_name(incentive, alpha=alpha)
        costs = model.costs(self.singleton_spreads)
        return RMInstance(
            graph=self.network.graph,
            propagation_model=self.network.propagation_model,
            advertisers=self.advertisers,
            costs=costs,
        )

    def instance_with_advertisers(
        self, advertisers: Sequence[Advertiser], incentive: str, alpha: float
    ) -> RMInstance:
        """Build an instance with a different advertiser list (h / budget sweeps)."""
        model = incentive_model_by_name(incentive, alpha=alpha)
        costs = model.costs(self.singleton_spreads)
        return RMInstance(
            graph=self.network.graph,
            propagation_model=self.network.propagation_model,
            advertisers=list(advertisers),
            costs=costs,
        )


def prepare_base(
    dataset: str,
    num_advertisers: int = 10,
    scale: float = 1.0,
    singleton_rr_sets: int = 800,
    uniform_budget_fraction: Optional[float] = None,
    seed: int = 7,
) -> ExperimentBase:
    """Generate the network, advertisers and singleton spreads for a sweep."""
    if dataset not in DATASET_BUILDERS:
        raise ExperimentError(f"unknown dataset {dataset!r}")
    rng = as_rng(seed)
    network = DATASET_BUILDERS[dataset](scale=scale, seed=rng)
    advertisers = sample_advertisers(
        num_advertisers,
        network.num_nodes,
        network.num_topics,
        uniform_budget_fraction=uniform_budget_fraction,
        seed=rng,
    )
    spreads = estimate_singleton_spreads(
        network.graph,
        network.propagation_model.edge_probabilities(None),
        num_rr_sets=singleton_rr_sets,
        rng=rng,
    )
    return ExperimentBase(
        network=network, advertisers=advertisers, singleton_spreads=spreads, seed=seed
    )


def _default_sampling_params(seed: int, **overrides) -> SamplingParameters:
    params = SamplingParameters(
        epsilon=0.1,
        delta=0.01,
        tau=0.1,
        rho=0.1,
        initial_rr_sets=overrides.pop("initial_rr_sets", 512),
        max_rr_sets=overrides.pop("max_rr_sets", 4096),
        seed=seed,
    )
    for key, value in overrides.items():
        setattr(params, key, value)
    return params


def _default_ti_params(seed: int, **overrides) -> TIParameters:
    params = TIParameters(
        epsilon=overrides.pop("epsilon", 0.1),
        delta=0.01,
        pilot_size=overrides.pop("pilot_size", 128),
        max_rr_sets_per_advertiser=overrides.pop("max_rr_sets_per_advertiser", 1024),
        seed=seed,
    )
    for key, value in overrides.items():
        setattr(params, key, value)
    return params


def _run_all(
    algorithms: Sequence[str],
    instance: RMInstance,
    evaluator,
    sampling_params: SamplingParameters,
    ti_params: TIParameters,
    extra_row: Dict[str, object],
) -> List[Dict[str, object]]:
    """Run each algorithm and flatten the results into report rows.

    The paper gives the baselines a ``(1 + ϱ)×`` larger budget than RMA
    (Section 5.1), because RMA is a bicriteria algorithm allowed to overshoot
    by that factor; the same convention is applied here.
    """
    rows = []
    baseline_instance = instance.with_scaled_budgets(1.0 + sampling_params.rho)
    for algorithm in algorithms:
        target_instance = instance if algorithm in ("RMA", "OneBatchRM") else baseline_instance
        run = run_algorithm(
            algorithm,
            target_instance,
            evaluator=evaluator,
            sampling_params=sampling_params,
            ti_params=ti_params,
        )
        row: Dict[str, object] = dict(extra_row)
        row["algorithm"] = algorithm
        row["revenue"] = run.evaluation.revenue
        row["seeding_cost"] = run.evaluation.seeding_cost
        row["total_seeds"] = run.evaluation.total_seeds
        row["budget_usage"] = run.evaluation.budget_usage
        row["rate_of_return"] = run.evaluation.rate_of_return
        row["running_time_seconds"] = run.running_time_seconds
        row["memory_proxy_bytes"] = run.metadata.get(
            "required_memory_proxy_bytes", run.metadata.get("memory_proxy_bytes", 0)
        )
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Tables 1 & 2
# --------------------------------------------------------------------------- #
def table1_datasets(
    scale: float = 0.5, seed: int = 7, datasets: Optional[Sequence[str]] = None
) -> List[Dict[str, object]]:
    """Table 1 — structural statistics of the four synthetic stand-ins."""
    rows = []
    for name in datasets or sorted(DATASET_BUILDERS):
        network = DATASET_BUILDERS[name](scale=scale, seed=seed)
        stats = compute_stats(network.graph)
        row = {"dataset": name, "stands_in_for": network.stands_in_for, "directed": network.directed}
        row.update(stats.as_row())
        rows.append(row)
    return rows


def table2_budgets(
    datasets: Sequence[str] = ("lastfm_like", "flixster_like"),
    num_advertisers: int = 10,
    scale: float = 0.5,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Table 2 — advertiser budget and cpe summary per dataset."""
    rows = []
    for name in datasets:
        network = DATASET_BUILDERS[name](scale=scale, seed=seed)
        advertisers = sample_advertisers(
            num_advertisers, network.num_nodes, network.num_topics, seed=seed
        )
        budgets = np.array([advertiser.budget for advertiser in advertisers])
        cpes = np.array([advertiser.cpe for advertiser in advertisers])
        rows.append(
            {
                "dataset": name,
                "budget_mean": float(budgets.mean()),
                "budget_max": float(budgets.max()),
                "budget_min": float(budgets.min()),
                "cpe_mean": float(cpes.mean()),
                "cpe_max": float(cpes.max()),
                "cpe_min": float(cpes.min()),
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figures 1-3 and Table 3: the α sweep under the three incentive models
# --------------------------------------------------------------------------- #
def alpha_sweep(
    dataset: str,
    alphas: Sequence[float] = (0.1, 0.3, 0.5),
    incentives: Sequence[str] = ("linear",),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    num_advertisers: int = 10,
    scale: float = 0.5,
    evaluation_rr_sets: int = 8000,
    seed: int = 7,
    sampling_overrides: Optional[dict] = None,
    ti_overrides: Optional[dict] = None,
    base: Optional[ExperimentBase] = None,
) -> List[Dict[str, object]]:
    """The sweep behind Figures 1-3 and Table 3.

    Returns one row per (incentive, α, algorithm) carrying revenue, seeding
    cost, seed-set size and running time.
    """
    base = base or prepare_base(dataset, num_advertisers=num_advertisers, scale=scale, seed=seed)
    sampling_params = _default_sampling_params(seed, **(sampling_overrides or {}))
    ti_params = _default_ti_params(seed, **(ti_overrides or {}))
    rows: List[Dict[str, object]] = []
    for incentive in incentives:
        for alpha in alphas:
            instance = base.instance_for(incentive, alpha)
            evaluator = independent_evaluator(instance, num_rr_sets=evaluation_rr_sets, seed=seed)
            rows.extend(
                _run_all(
                    algorithms,
                    instance,
                    evaluator,
                    sampling_params,
                    ti_params,
                    {"dataset": dataset, "incentive": incentive, "alpha": alpha},
                )
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 4: impact of ε on revenue and memory
# --------------------------------------------------------------------------- #
def epsilon_sweep(
    dataset: str,
    epsilons: Sequence[float] = (0.02, 0.1, 0.2),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    num_advertisers: int = 10,
    scale: float = 0.5,
    alpha: float = 0.1,
    incentive: str = "linear",
    evaluation_rr_sets: int = 8000,
    seed: int = 7,
    base: Optional[ExperimentBase] = None,
) -> List[Dict[str, object]]:
    """Figure 4 — revenue and memory (RR-set footprint) as ε varies."""
    base = base or prepare_base(dataset, num_advertisers=num_advertisers, scale=scale, seed=seed)
    instance = base.instance_for(incentive, alpha)
    evaluator = independent_evaluator(instance, num_rr_sets=evaluation_rr_sets, seed=seed)
    rows: List[Dict[str, object]] = []
    for epsilon in epsilons:
        sampling_params = _default_sampling_params(seed, epsilon=epsilon)
        ti_params = _default_ti_params(seed, epsilon=epsilon)
        rows.extend(
            _run_all(
                algorithms,
                instance,
                evaluator,
                sampling_params,
                ti_params,
                {"dataset": dataset, "epsilon": epsilon},
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 5: scalability in the number of advertisers and in the budgets
# --------------------------------------------------------------------------- #
def advertiser_count_sweep(
    dataset: str,
    advertiser_counts: Sequence[int] = (1, 5, 10),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    scale: float = 0.35,
    alpha: float = 0.2,
    budget_fraction: float = 0.2,
    evaluation_rr_sets: int = 6000,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Figure 5(a)-(d) — running time and revenue as ``h`` grows."""
    rng = as_rng(seed)
    base = prepare_base(
        dataset, num_advertisers=max(advertiser_counts), scale=scale,
        uniform_budget_fraction=budget_fraction, seed=seed,
    )
    sampling_params = _default_sampling_params(seed)
    ti_params = _default_ti_params(seed)
    rows: List[Dict[str, object]] = []
    for count in advertiser_counts:
        advertisers = sample_advertisers(
            count,
            base.network.num_nodes,
            base.network.num_topics,
            uniform_budget_fraction=budget_fraction,
            seed=rng,
        )
        instance = base.instance_with_advertisers(advertisers, "linear", alpha)
        evaluator = independent_evaluator(instance, num_rr_sets=evaluation_rr_sets, seed=seed)
        rows.extend(
            _run_all(
                algorithms,
                instance,
                evaluator,
                sampling_params,
                ti_params,
                {"dataset": dataset, "num_advertisers": count},
            )
        )
    return rows


def budget_sweep(
    dataset: str,
    budget_fractions: Sequence[float] = (0.1, 0.2, 0.3),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    num_advertisers: int = 5,
    scale: float = 0.35,
    alpha: float = 0.2,
    evaluation_rr_sets: int = 6000,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Figure 5(e)-(h) and Figure 6 — sweeps over identical advertiser budgets."""
    base = prepare_base(
        dataset,
        num_advertisers=num_advertisers,
        scale=scale,
        uniform_budget_fraction=budget_fractions[0],
        seed=seed,
    )
    sampling_params = _default_sampling_params(seed)
    ti_params = _default_ti_params(seed)
    rows: List[Dict[str, object]] = []
    for fraction in budget_fractions:
        advertisers = [
            adv.with_budget(fraction * base.network.num_nodes * adv.cpe)
            for adv in base.advertisers
        ]
        instance = base.instance_with_advertisers(advertisers, "linear", alpha)
        evaluator = independent_evaluator(instance, num_rr_sets=evaluation_rr_sets, seed=seed)
        rows.extend(
            _run_all(
                algorithms,
                instance,
                evaluator,
                sampling_params,
                ti_params,
                {"dataset": dataset, "budget_fraction": fraction},
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 7: holistic demand
# --------------------------------------------------------------------------- #
def holistic_demand_sweep(
    dataset: str,
    total_demands: Sequence[float] = (2.0, 2.25, 2.5),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    num_advertisers: int = 10,
    scale: float = 0.5,
    alpha: float = 0.1,
    evaluation_rr_sets: int = 8000,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Figure 7(a)-(b) — revenue and seeding cost as the total demand M varies.

    Every advertiser gets ``cpe = 1`` and a random share of the total demand
    ``M = Σ_i B_i / n``, exactly as in Section 5.2.4.
    """
    rng = as_rng(seed)
    base = prepare_base(dataset, num_advertisers=num_advertisers, scale=scale, seed=seed)
    sampling_params = _default_sampling_params(seed)
    ti_params = _default_ti_params(seed)
    rows: List[Dict[str, object]] = []
    n = base.network.num_nodes
    for total_demand in total_demands:
        shares = rng.dirichlet(np.ones(num_advertisers)) * total_demand
        advertisers = [
            Advertiser(
                budget=max(1.0, float(share) * n),
                cpe=1.0,
                topic_mix=base.advertisers[index % len(base.advertisers)].topic_mix,
                name=f"ad-{index}",
            )
            for index, share in enumerate(shares)
        ]
        instance = base.instance_with_advertisers(advertisers, "linear", alpha)
        evaluator = independent_evaluator(instance, num_rr_sets=evaluation_rr_sets, seed=seed)
        rows.extend(
            _run_all(
                algorithms,
                instance,
                evaluator,
                sampling_params,
                ti_params,
                {"dataset": dataset, "total_demand": total_demand},
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Figures 8-9 / Table 5: impact of τ and ϱ on RMA
# --------------------------------------------------------------------------- #
def tau_sweep(
    dataset: str,
    taus: Sequence[float] = (0.05, 0.15, 0.45),
    num_advertisers: int = 10,
    scale: float = 0.5,
    alpha: float = 0.1,
    evaluation_rr_sets: int = 8000,
    seed: int = 7,
    base: Optional[ExperimentBase] = None,
) -> List[Dict[str, object]]:
    """Figure 8 / Table 5 — RMA revenue and running time as τ varies."""
    base = base or prepare_base(dataset, num_advertisers=num_advertisers, scale=scale, seed=seed)
    instance = base.instance_for("linear", alpha)
    evaluator = independent_evaluator(instance, num_rr_sets=evaluation_rr_sets, seed=seed)
    rows: List[Dict[str, object]] = []
    for tau in taus:
        sampling_params = _default_sampling_params(seed, tau=tau)
        run = run_algorithm("RMA", instance, evaluator=evaluator, sampling_params=sampling_params)
        rows.append(
            {
                "dataset": dataset,
                "tau": tau,
                "algorithm": "RMA",
                "revenue": run.evaluation.revenue,
                "running_time_seconds": run.running_time_seconds,
                "total_seeds": run.evaluation.total_seeds,
            }
        )
    return rows


def rho_sweep(
    dataset: str,
    rhos: Sequence[float] = (0.1, 0.8, 1.5),
    num_advertisers: int = 10,
    scale: float = 0.5,
    alpha: float = 0.1,
    evaluation_rr_sets: int = 8000,
    seed: int = 7,
    base: Optional[ExperimentBase] = None,
) -> List[Dict[str, object]]:
    """Figure 9 — RMA revenue as the budget-overshoot control ϱ varies.

    Following the paper's comparison rule, the budgets fed to RMA are scaled
    by ``1 / (1 + ϱ)`` so the *actual* spend stays comparable across ϱ.
    """
    base = base or prepare_base(dataset, num_advertisers=num_advertisers, scale=scale, seed=seed)
    instance = base.instance_for("linear", alpha)
    evaluator = independent_evaluator(instance, num_rr_sets=evaluation_rr_sets, seed=seed)
    rows: List[Dict[str, object]] = []
    for rho in rhos:
        sampling_params = _default_sampling_params(seed, rho=rho)
        scaled_instance = instance.with_scaled_budgets(1.0 / (1.0 + rho))
        run = run_algorithm(
            "RMA", scaled_instance, evaluator=evaluator, sampling_params=sampling_params
        )
        rows.append(
            {
                "dataset": dataset,
                "rho": rho,
                "algorithm": "RMA",
                "revenue": run.evaluation.revenue,
                "seeding_cost": run.evaluation.seeding_cost,
                "total_seeds": run.evaluation.total_seeds,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 10 / Table 6: SUBSIM acceleration
# --------------------------------------------------------------------------- #
def subsim_sweep(
    dataset: str,
    alphas: Sequence[float] = (0.1, 0.3, 0.5),
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    num_advertisers: int = 10,
    scale: float = 0.5,
    incentive: str = "linear",
    evaluation_rr_sets: int = 8000,
    seed: int = 7,
    base: Optional[ExperimentBase] = None,
) -> List[Dict[str, object]]:
    """Figure 10 / Table 6 — the α sweep with the fast RR engine
    (``rr_engine="subsim"``, since replaced by hashed batched sampling)."""
    base = base or prepare_base(dataset, num_advertisers=num_advertisers, scale=scale, seed=seed)
    subsim = ExecutionPolicy(rr_engine="subsim")
    sampling_params = _default_sampling_params(seed, policy=subsim)
    ti_params = _default_ti_params(seed, policy=subsim)
    rows: List[Dict[str, object]] = []
    for alpha in alphas:
        instance = base.instance_for(incentive, alpha)
        evaluator = independent_evaluator(instance, num_rr_sets=evaluation_rr_sets, seed=seed)
        rows.extend(
            _run_all(
                algorithms,
                instance,
                evaluator,
                sampling_params,
                ti_params,
                {"dataset": dataset, "alpha": alpha, "generator": "SUBSIM"},
            )
        )
    return rows
