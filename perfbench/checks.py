"""Correctness checks applied to the benchmark's outputs.

Each check returns a list of human-readable problems; an empty list means
the output passed.  The workloads count an operation with any problem as
failed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Sequence

import numpy as np

#: Relative slack for float comparisons against a budget.
BUDGET_RTOL = 1e-9


def partition_errors(allocation: Mapping[int, Iterable[int]], num_nodes: int) -> List[str]:
    """An allocation must assign each in-range node to at most one advertiser."""
    problems: List[str] = []
    owner: Dict[int, int] = {}
    for advertiser, seeds in allocation.items():
        for node in seeds:
            node = int(node)
            if not 0 <= node < num_nodes:
                problems.append(f"node {node} of advertiser {advertiser} is out of range")
            elif node in owner:
                problems.append(
                    f"node {node} is assigned to advertisers {owner[node]} and {advertiser}"
                )
            else:
                owner[node] = int(advertiser)
    return problems


def budget_errors(
    revenue: Mapping[int, float],
    cost: Mapping[int, float],
    budgets: Sequence[float],
) -> List[str]:
    """Each advertiser's revenue plus seeding cost must stay within its budget."""
    problems: List[str] = []
    for advertiser, budget in enumerate(budgets):
        spent = float(revenue.get(advertiser, 0.0)) + float(cost.get(advertiser, 0.0))
        if not math.isfinite(spent) or spent > budget * (1.0 + BUDGET_RTOL):
            problems.append(
                f"advertiser {advertiser} spends {spent:.3f} over its budget {budget:.3f}"
            )
    return problems


def solve_errors(run: Any, num_nodes: int, budgets: Sequence[float]) -> List[str]:
    """Check one :class:`~repro.experiments.runner.AlgorithmRun`.

    ``budgets`` are the caps the evaluated revenue plus cost must respect:
    ``(1 + ϱ)·B_i`` for RMA, the scaled budgets for the TI baselines.
    """
    allocation = {a: sorted(s) for a, s in run.solver_result.allocation.items()}
    problems = partition_errors(allocation, num_nodes)
    evaluation = run.evaluation
    problems += budget_errors(
        evaluation.per_advertiser_revenue, evaluation.per_advertiser_cost, budgets
    )
    if not evaluation.revenue > 0:
        problems.append(f"revenue {evaluation.revenue} is not positive")
    return problems


def stores_equal(maintained: Any, fresh: Any) -> bool:
    """Is a delta-maintained RR store bit-identical to a fresh regeneration?"""
    a, b = maintained.collection, fresh.collection
    return (
        np.array_equal(a.member_array, b.member_array)
        and np.array_equal(a.set_offsets, b.set_offsets)
        and np.array_equal(a.tag_array, b.tag_array)
        and np.array_equal(maintained.roots(), fresh.roots())
    )


def refresh_report_errors(report: Any, slots: int, epoch: int) -> List[str]:
    """One maintenance round must keep |R| fixed and redraw what it invalidated."""
    problems: List[str] = []
    if report.total != slots:
        problems.append(f"store holds {report.total} slots, expected {slots}")
    if report.redrawn != report.invalidated:
        problems.append(
            f"redrew {report.redrawn} slots but invalidated {report.invalidated}"
        )
    if report.epoch != epoch:
        problems.append(f"epoch {report.epoch}, expected {epoch}")
    return problems


def reply_errors(
    request: Mapping[str, Any],
    reply: Mapping[str, Any],
    num_nodes: int,
    budgets: Sequence[float],
    costs: np.ndarray,
) -> List[str]:
    """Check one serve reply against the request that produced it."""
    if reply.get("id") != request.get("id"):
        return [f"reply id {reply.get('id')!r} for request {request.get('id')!r}"]
    if not reply.get("ok"):
        return [f"{request['op']} failed: {reply.get('error')}"]
    result = reply["result"]
    op = request["op"]
    if op == "spread":
        problems = []
        if result["advertiser"] != request["advertiser"]:
            problems.append("spread answered for another advertiser")
        if not 0 <= result["covered_rr_sets"] <= result["rr_sets"]:
            problems.append("covered RR-sets outside [0, |R|]")
        if not (math.isfinite(result["revenue"]) and result["revenue"] >= 0):
            problems.append(f"spread revenue {result['revenue']} is invalid")
        return problems
    if op == "allocate":
        allocation = {int(a): seeds for a, seeds in result["allocation"].items()}
        problems = partition_errors(allocation, num_nodes)
        revenue = {int(a): r for a, r in result["per_advertiser_revenue"].items()}
        cost = {
            a: float(sum(costs[a, node] for node in seeds))
            for a, seeds in allocation.items()
            if not problems
        }
        return problems + budget_errors(revenue, cost, budgets)
    return []
