"""The :class:`ExecutionPolicy` — one object for every engine knob.

The engine generations (vectorized RR, batched MC, sharded parallel) each
started life behind an opt-in flag; the policy object is the single source
of truth that replaced that sprawl:

* **engine selection** — ``rr_engine`` (``"legacy"`` | ``"subsim"``) and
  ``mc_engine`` (``"legacy"`` | ``"batched"``);
* **parallelism** — ``n_jobs`` (scikit-learn convention: ``None`` → serial,
  ``-1`` → all cores) and ``mc_batch_size`` (cascades per batch of the
  batched MC engine; ``None`` → bitmap-budget sizing);
* **RNG contract** — ``rng_compat`` declares whether the policy reproduces
  the seed tree's RNG streams bit for bit.  It is derived automatically
  (legacy RR + legacy MC + serial execution ⇒ compatible) and validated when
  set explicitly, so a policy can never silently claim a guarantee it does
  not have.

The greedy loops have no knob: the evaluator follows the oracle
(:func:`repro.core.batched_greedy.engine_for`).

Named presets cover the two interesting points of the space:
:meth:`ExecutionPolicy.fast` (every fast engine + all cores — **the
default** every entry point resolves when no policy is given) and
:meth:`ExecutionPolicy.seed` (the bit-reproducible escape hatch that
replays the original seed tree's RNG streams exactly).  ``policy=`` /
``runtime=`` are the only configuration channel; the historical per-call
boolean flags are gone, and passing them raises ``TypeError`` like any
other unknown keyword.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Optional

from repro.exceptions import PolicyError
from repro.parallel.executor import PAYLOAD_MODES, validate_n_jobs
from repro.parallel.failure import DEFAULT_FAILURE_POLICY, FailurePolicy

#: Valid engine names per stage.
RR_ENGINES = ("legacy", "subsim")
MC_ENGINES = ("legacy", "batched")

#: Sentinel distinguishing "not passed" from an explicit value in
#: :meth:`ExecutionPolicy.evolve`.
_UNSET = object()


@dataclass(frozen=True)
class ExecutionPolicy:
    """Immutable description of which engines run and how they are sharded.

    Attributes
    ----------
    rr_engine:
        RR-set engine: ``"legacy"`` (seed-stream compatible reverse BFS) or
        ``"subsim"`` (the fast engine: hashed live-edge RR-sets sampled
        level-synchronously in batches, :mod:`repro.rrsets.slots` —
        statistically equivalent, and independent of ``n_jobs``).
    mc_engine:
        Monte-Carlo cascade engine: ``"legacy"`` (sequential per-cascade
        BFS, seed-stream compatible) or ``"batched"`` (level-synchronous
        batched engine, ~an order of magnitude faster, statistically
        equivalent).
    n_jobs:
        Worker-process count for the sharded stages (``None`` → serial,
        ``-1`` → all cores, positive int → that many shards).  Under
        ``rr_engine="subsim"`` RR sampling is slot-keyed, so ``n_jobs``
        only changes its speed.  The sharded Monte-Carlo stages, the
        ``seed()`` TI pool fill and the ``seed()`` uniform sampler draw
        per-shard or per-slot RNG substreams instead: fixed
        ``(seed, n_jobs)`` runs are bit-reproducible, but ``n_jobs>1``
        differs from the serial run.
    mc_batch_size:
        Cascades per batch of the batched MC engine; ``None`` sizes batches
        by the activation-bitmap budget
        (:func:`repro.diffusion.engine.default_batch_size`).
    rng_compat:
        Whether the policy reproduces the seed tree's RNG streams bit for
        bit.  ``None`` (the default) derives the value; an explicit ``True``
        on a policy that cannot honour it raises :class:`PolicyError`.
    failure:
        The :class:`~repro.parallel.failure.FailurePolicy` governing how the
        sharded stages react to worker loss and hung shards (the default
        degrades gracefully: deterministic shard retry on a respawned pool,
        then in-process serial execution).  Never influences results — the
        determinism contract makes recovered runs bit-identical — so it does
        not participate in ``rng_compat``.
    payload:
        How worker broadcasts transport the payload (graph + probability
        arrays): ``"auto"`` (default — one ``multiprocessing.shared_memory``
        segment once the payload's array bytes reach
        :data:`~repro.parallel.executor.AUTO_SHM_MIN_BYTES`, pickling below
        that), ``"pickle"`` (always through the pool's pipes), ``"shm"``
        (always shared memory).  Bit-identical by construction — only the
        transport changes, workers rebuild read-only views over the same
        bytes — so it never participates in ``rng_compat``.
    """

    rr_engine: str = "legacy"
    mc_engine: str = "legacy"
    n_jobs: Optional[int] = None
    mc_batch_size: Optional[int] = None
    rng_compat: Optional[bool] = None
    failure: FailurePolicy = DEFAULT_FAILURE_POLICY
    payload: str = "auto"

    def __post_init__(self) -> None:
        if self.rr_engine not in RR_ENGINES:
            raise PolicyError(
                f"rr_engine must be one of {RR_ENGINES}, got {self.rr_engine!r}"
            )
        if self.mc_engine not in MC_ENGINES:
            raise PolicyError(
                f"mc_engine must be one of {MC_ENGINES}, got {self.mc_engine!r}"
            )
        validate_n_jobs(self.n_jobs, PolicyError)
        if self.mc_batch_size is not None and int(self.mc_batch_size) <= 0:
            raise PolicyError(
                f"mc_batch_size must be positive, got {self.mc_batch_size}"
            )
        if not isinstance(self.failure, FailurePolicy):
            raise PolicyError(
                f"failure must be a FailurePolicy, got {type(self.failure).__name__}"
            )
        if self.payload not in PAYLOAD_MODES:
            raise PolicyError(
                f"payload must be one of {PAYLOAD_MODES}, got {self.payload!r}"
            )
        derived = self._derive_rng_compat()
        if self.rng_compat is None:
            object.__setattr__(self, "rng_compat", derived)
        elif self.rng_compat and not derived:
            raise PolicyError(
                "rng_compat=True is impossible for this policy: the seed RNG "
                "streams require rr_engine='legacy', mc_engine='legacy' and "
                f"serial execution (got rr_engine={self.rr_engine!r}, "
                f"mc_engine={self.mc_engine!r}, n_jobs={self.n_jobs!r})"
            )

    def _derive_rng_compat(self) -> bool:
        serial = self.n_jobs is None or int(self.n_jobs) == 1
        return self.rr_engine == "legacy" and self.mc_engine == "legacy" and serial

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #
    @classmethod
    def seed(
        cls,
        n_jobs: Optional[int] = None,
        failure: Optional[FailurePolicy] = None,
    ) -> "ExecutionPolicy":
        """The reproducibility escape hatch: every seed-compatible engine.

        With ``n_jobs`` in ``(None, 1)`` the run is bit-identical to the
        seed tree; a larger ``n_jobs`` keeps the legacy engines but shards
        them on per-shard or per-slot substreams (bit-reproducible for fixed
        ``(seed, n_jobs)``).  ``failure``
        overrides the fault-tolerance behaviour of the sharded stages.
        """
        return cls(
            n_jobs=n_jobs,
            failure=failure if failure is not None else DEFAULT_FAILURE_POLICY,
        )

    @classmethod
    def fast(
        cls,
        n_jobs: Optional[int] = -1,
        failure: Optional[FailurePolicy] = None,
    ) -> "ExecutionPolicy":
        """The default policy: every fast engine — hashed batched RR,
        batched MC — plus all cores (override with ``n_jobs``).
        Statistically equivalent to :meth:`seed`, not bit-identical (see the
        RNG policy in ``docs/architecture.md``).  ``failure`` overrides the
        fault-tolerance behaviour of the sharded stages."""
        return cls(
            rr_engine="subsim",
            mc_engine="batched",
            n_jobs=n_jobs,
            failure=failure if failure is not None else DEFAULT_FAILURE_POLICY,
        )

    @classmethod
    def preset(cls, name: str, n_jobs: Optional[int] = _UNSET) -> "ExecutionPolicy":
        """Look up a named preset (``"fast"``, the default, or ``"seed"``)."""
        try:
            factory = {"seed": cls.seed, "fast": cls.fast}[name]
        except KeyError:
            raise PolicyError(
                f"unknown policy preset {name!r}; expected 'seed' or 'fast'"
            ) from None
        return factory() if n_jobs is _UNSET else factory(n_jobs=n_jobs)

    # ------------------------------------------------------------------ #
    # derivation helpers
    # ------------------------------------------------------------------ #
    def evolve(self, **changes: Any) -> "ExecutionPolicy":
        """``dataclasses.replace`` that re-derives ``rng_compat``.

        A plain ``replace(policy, rr_engine="subsim")`` would carry a stale
        ``rng_compat=True`` into the new policy and fail validation; this
        helper resets the field unless the caller pins it explicitly.
        """
        changes.setdefault("rng_compat", None)
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary (the CLI's effective-policy line)."""
        jobs = "serial" if self.n_jobs in (None, 1) else str(self.n_jobs)
        name = ""
        if self == ExecutionPolicy.seed(n_jobs=self.n_jobs, failure=self.failure):
            name = "seed: "
        elif self == ExecutionPolicy.fast(n_jobs=self.n_jobs, failure=self.failure):
            name = "fast: "
        batch = "" if self.mc_batch_size is None else f" mc_batch_size={self.mc_batch_size}"
        fail = (
            ""
            if self.failure == DEFAULT_FAILURE_POLICY
            else f" failure={self.failure.describe()}"
        )
        transport = "" if self.payload == "auto" else f" payload={self.payload}"
        return (
            f"{name}rr={self.rr_engine} mc={self.mc_engine} n_jobs={jobs}{batch} "
            f"rng_compat={'yes' if self.rng_compat else 'no'}{fail}{transport}"
        )


#: Preset registry (CLI ``--policy`` choices).
POLICY_PRESETS = ("seed", "fast")


def resolve_policy(policy: Optional[ExecutionPolicy]) -> ExecutionPolicy:
    """``policy``, or the library default :meth:`ExecutionPolicy.fast`.

    The one place the default is defined: every entry point — solvers,
    baselines, samplers, oracles, diffusion dispatch, CLI — resolves a
    missing ``policy=`` through this helper, so they all agree that "no
    policy" means the fast engines on all cores.  Pass
    :meth:`ExecutionPolicy.seed` explicitly to reproduce the original
    seed-tree RNG streams bit for bit.
    """
    return policy if policy is not None else ExecutionPolicy.fast()


def policy_fields() -> tuple:
    """Field names of :class:`ExecutionPolicy` (used by docs tests)."""
    return tuple(f.name for f in fields(ExecutionPolicy))
