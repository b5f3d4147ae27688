"""Execution policy & runtime — one configuration object, one worker pool.

This package is the single source of truth for *how* the library executes:

* :class:`ExecutionPolicy` — a frozen dataclass selecting the RR / MC
  engines, the ``n_jobs`` sharding knob and the MC batch size, with
  named presets: :meth:`ExecutionPolicy.fast` (the default every entry point
  resolves when no policy is given) and :meth:`ExecutionPolicy.seed` (the
  bit-reproducible escape hatch);
* :class:`FailurePolicy` — the fault-tolerance leg of the policy: shard
  timeouts, deterministic retry budgets and the degrade-vs-raise switch for
  the sharded stages (re-exported from :mod:`repro.parallel.failure`);
* :class:`Runtime` — a context manager owning a persistent worker pool
  (:class:`~repro.parallel.executor.PersistentPool`) reused across RMA's
  doubling rounds, OneBatch, TI pool fills, MC oracle queries and the
  independent evaluator;
* :func:`current_runtime` / :func:`acquire_executor` — how the lower layers
  find the ambient pool without every call site threading it by hand.

Every solver, baseline, sampler and oracle accepts ``policy=`` /
``runtime=`` — the only configuration channel; a missing ``policy=``
resolves to :meth:`ExecutionPolicy.fast` via :func:`resolve_policy`.
"""

from repro.parallel.failure import FailurePolicy, RecoveryStats
from repro.runtime.policy import (
    ExecutionPolicy,
    PAYLOAD_MODES,
    POLICY_PRESETS,
    resolve_policy,
)
from repro.runtime.runtime import Runtime, acquire_executor, current_runtime

__all__ = [
    "ExecutionPolicy",
    "FailurePolicy",
    "PAYLOAD_MODES",
    "POLICY_PRESETS",
    "RecoveryStats",
    "Runtime",
    "acquire_executor",
    "current_runtime",
    "resolve_policy",
]
