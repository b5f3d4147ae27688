"""The paper's algorithms: oracle-setting solvers, sampling solvers and bounds."""

from repro.core.result import SolverResult, SearchByproducts
from repro.core.batched_greedy import CoverageGreedyEngine, OracleGreedyEngine, engine_for
from repro.core.greedy import greedy_single_advertiser
from repro.core.threshold_greedy import threshold_greedy, fill
from repro.core.search import search_threshold, gamma_max
from repro.core.oracle_solver import rm_with_oracle, approximation_ratio
from repro.core.seek_ub import seek_upper_bound
from repro.core.bounds import (
    theta_max,
    theta_hat_max,
    theta_bar_max,
    theta_zero,
    max_seeds_per_advertiser,
)
from repro.core.sampling_solver import rm_without_oracle, one_batch_rm, SamplingParameters
from repro.core.influence_maximization import (
    influence_maximization,
    greedy_max_coverage,
    spread_of_seeds,
)

__all__ = [
    "SolverResult",
    "SearchByproducts",
    "CoverageGreedyEngine",
    "OracleGreedyEngine",
    "engine_for",
    "greedy_single_advertiser",
    "threshold_greedy",
    "fill",
    "search_threshold",
    "gamma_max",
    "rm_with_oracle",
    "approximation_ratio",
    "seek_upper_bound",
    "theta_max",
    "theta_hat_max",
    "theta_bar_max",
    "theta_zero",
    "max_seeds_per_advertiser",
    "rm_without_oracle",
    "one_batch_rm",
    "SamplingParameters",
    "influence_maximization",
    "greedy_max_coverage",
    "spread_of_seeds",
]
