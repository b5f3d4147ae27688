"""Running and comparing algorithms on prepared instances.

:func:`run_algorithm` dispatches on the algorithm name used throughout the
paper's figures ("RMA", "TI-CARM", "TI-CSRM", plus the oracle-setting
algorithms), measures wall-clock time, and re-evaluates the returned
allocation with an independent estimator so the reported revenue is
comparable across algorithms.

Every stage resolves :meth:`repro.runtime.ExecutionPolicy.fast` when no
policy is given — hashed batched RR sampling, batched Monte-Carlo, all
cores.  Pass ``policy=ExecutionPolicy.seed()`` to pin the serial
seed-stream reference path instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional

from repro.advertising.instance import RMInstance
from repro.advertising.oracle import MonteCarloOracle, RevenueOracle, RRSetOracle
from repro.baselines.ti_carm import ti_carm
from repro.baselines.ti_common import TIParameters
from repro.baselines.ti_csrm import ti_csrm
from repro.baselines.ca_greedy import ca_greedy
from repro.baselines.cs_greedy import cs_greedy
from repro.core.oracle_solver import rm_with_oracle
from repro.core.result import SolverResult
from repro.core.sampling_solver import SamplingParameters, one_batch_rm, rm_without_oracle
from repro.exceptions import ExperimentError, PolicyError
from repro.runtime import ExecutionPolicy, Runtime, current_runtime, resolve_policy
from repro.utils.rng import RandomSource
from repro.experiments.metrics import EvaluationResult, evaluate_allocation


@dataclass
class AlgorithmRun:
    """Outcome of running one algorithm on one instance."""

    algorithm: str
    solver_result: SolverResult
    evaluation: EvaluationResult
    running_time_seconds: float
    metadata: Dict[str, object] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary used by the tabular reporters."""
        row = {
            "algorithm": self.algorithm,
            "running_time_seconds": round(self.running_time_seconds, 4),
            **self.evaluation.as_row(),
        }
        row.update({f"meta_{key}": value for key, value in self.metadata.items()})
        return row


#: algorithm names accepted by :func:`run_algorithm`
SAMPLING_ALGORITHMS = ("RMA", "OneBatchRM", "TI-CARM", "TI-CSRM")
ORACLE_ALGORITHMS = ("RM_with_Oracle", "CA-Greedy", "CS-Greedy")


def _reject_params_policy_conflict(name: str, params, policy: ExecutionPolicy) -> None:
    """Refuse a run-level ``policy=`` that disagrees with a parameter object's.

    Silently discarding the parameter object's configuration would hand the
    caller a different engine (and RNG stream) than they asked for.  An equal
    ``params.policy`` is allowed — passing the same policy on both levels
    is redundant, not contradictory.
    """
    if params is None:
        return
    if params.policy is not None and params.policy != policy:
        raise PolicyError(
            f"run_algorithm: policy= disagrees with {name}.policy; pass one "
            "policy (or make them equal)"
        )


def run_algorithm(
    algorithm: str,
    instance: RMInstance,
    evaluator: Optional[RRSetOracle] = None,
    sampling_params: Optional[SamplingParameters] = None,
    ti_params: Optional[TIParameters] = None,
    oracle: Optional[RevenueOracle] = None,
    one_batch_rr_sets: int = 2048,
    evaluation_rr_sets: int = 20000,
    mc_oracle_simulations: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
    runtime: Optional[Runtime] = None,
    seed: RandomSource = None,
) -> AlgorithmRun:
    """Run one algorithm by name and evaluate its allocation independently.

    Parameters
    ----------
    algorithm:
        One of ``RMA``, ``OneBatchRM``, ``TI-CARM``, ``TI-CSRM`` (sampling
        setting) or ``RM_with_Oracle``, ``CA-Greedy``, ``CS-Greedy`` (oracle
        setting; requires ``oracle`` or ``mc_oracle_simulations``).
    evaluator:
        Shared independent evaluator; building one per call is expensive, so
        sweeps construct it once and pass it in.
    mc_oracle_simulations:
        When an oracle-setting algorithm is requested without an explicit
        ``oracle``, build a :class:`MonteCarloOracle` with this many cascade
        simulations per query instead of raising.
    policy:
        :class:`repro.runtime.ExecutionPolicy` applied to every stage —
        sampler engines and sharding (copied into the parameter objects,
        which are never mutated), the auto-built Monte-Carlo oracle, the
        independent evaluator, and the oracle-setting solvers.
        ``None`` resolves to :meth:`ExecutionPolicy.fast` — hashed batched
        RR sampling, batched MC, all cores; pass
        :meth:`ExecutionPolicy.seed` for the serial seed-stream escape
        hatch.  A ``policy=`` that disagrees with a parameter object's own
        ``params.policy`` raises :class:`~repro.exceptions.PolicyError` (a
        :class:`ValueError`).
    runtime:
        :class:`repro.runtime.Runtime` whose persistent worker pool every
        sharded stage reuses.  Defaults to the ambient runtime; when there
        is none, the call opens its own for its duration, so RMA's doubling
        rounds and the MC oracle's queries always share one pool.
    """
    effective = resolve_policy(policy)
    if policy is not None:
        _reject_params_policy_conflict("sampling_params", sampling_params, policy)
        _reject_params_policy_conflict("ti_params", ti_params, policy)
        sampling_params = replace(
            sampling_params or SamplingParameters(), policy=policy
        )
        ti_params = replace(ti_params or TIParameters(), policy=policy)

    owned_runtime: Optional[Runtime] = None
    if runtime is None:
        runtime = current_runtime()
        if runtime is None:
            runtime = owned_runtime = Runtime(effective)
    try:
        if (
            algorithm in ORACLE_ALGORITHMS
            and oracle is None
            and mc_oracle_simulations is not None
        ):
            oracle = MonteCarloOracle(
                instance,
                num_simulations=mc_oracle_simulations,
                seed=seed,
                policy=effective,
                runtime=runtime,
            )
        started = time.perf_counter()
        if algorithm == "RMA":
            result = rm_without_oracle(instance, sampling_params, runtime=runtime)
        elif algorithm == "OneBatchRM":
            result = one_batch_rm(
                instance, one_batch_rr_sets, sampling_params, runtime=runtime
            )
        elif algorithm == "TI-CARM":
            result = ti_carm(instance, ti_params, runtime=runtime)
        elif algorithm == "TI-CSRM":
            result = ti_csrm(instance, ti_params, runtime=runtime)
        elif algorithm in ORACLE_ALGORITHMS:
            if oracle is None:
                raise ExperimentError(f"{algorithm} requires a revenue oracle")
            if algorithm == "RM_with_Oracle":
                result = rm_with_oracle(instance, oracle)
            elif algorithm == "CA-Greedy":
                result = ca_greedy(instance, oracle)
            else:
                result = cs_greedy(instance, oracle)
        else:
            raise ExperimentError(
                f"unknown algorithm {algorithm!r}; expected one of "
                f"{SAMPLING_ALGORITHMS + ORACLE_ALGORITHMS}"
            )
        elapsed = time.perf_counter() - started

        evaluation = evaluate_allocation(
            instance,
            result.allocation,
            evaluator=evaluator,
            num_rr_sets=evaluation_rr_sets,
            seed=seed,
            policy=effective,
            runtime=runtime,
        )
    finally:
        if owned_runtime is not None:
            owned_runtime.close()
    return AlgorithmRun(
        algorithm=algorithm,
        solver_result=result,
        evaluation=evaluation,
        running_time_seconds=elapsed,
        metadata=dict(result.metadata),
    )


def compare_algorithms(
    algorithms: Iterable[str],
    instance: RMInstance,
    evaluator: Optional[RRSetOracle] = None,
    **kwargs,
) -> List[AlgorithmRun]:
    """Run several algorithms on the same instance with a shared evaluator."""
    runs = []
    for algorithm in algorithms:
        runs.append(run_algorithm(algorithm, instance, evaluator=evaluator, **kwargs))
    return runs
