"""Sharded multiprocess execution with supervised fault tolerance.

:class:`ShardedExecutor` is the one place the library touches
:mod:`multiprocessing`.  It runs a picklable task function over a list of
*shards* — small per-worker argument tuples, typically ``(count, rng)`` —
against a *payload* shipped to every worker exactly once (the CSR graph and
edge probabilities).  On platforms with ``fork`` the payload is inherited
through the fork at no pickling cost; under ``spawn`` it is pickled once per
worker via the pool initializer.

Two pool lifetimes are supported.  The default is **ephemeral**: every
:meth:`ShardedExecutor.run` call spawns a pool and tears it down.  Passing a
:class:`PersistentPool` makes the workers **persistent** across calls —
payloads are broadcast once per distinct payload and addressed by token
afterwards — which is what :class:`repro.runtime.Runtime` uses to amortise
pool spawn (~30–60 ms/call) across RMA's doubling rounds.

Fault tolerance
---------------
Shards are submitted individually (``apply_async``) and watched by a
supervision loop instead of a blocking ``Pool.map``, so a worker death — OOM
kill, segfault in a C extension, operator ``kill -9`` — can no longer hang
the parent.  The loop detects dead workers through process sentinels
(exit-code checks against the spawn-time worker snapshot), stale payload
caches on auto-respawned workers, broken broadcast barriers, and per-shard
timeouts; what happens next is governed by the
:class:`~repro.parallel.failure.FailurePolicy` in force:

* ``on_pool_failure="degrade"`` (default): the pool is respawned, the
  payloads the pending call needs are re-broadcast, and exactly the
  unfinished shards are re-executed — up to ``max_retries`` times, after
  which the remaining shards run in-process serially.  Because shard layout
  and RNG substreams are pure functions of ``(seed, n_jobs)``, the recovered
  run is **bit-identical** to a failure-free one.
* ``on_pool_failure="raise"``: fail fast with
  :class:`~repro.exceptions.WorkerCrashError` /
  :class:`~repro.exceptions.ShardTimeoutError`.

Every recovery emits a :class:`RuntimeWarning` and increments the owning
pool/executor's :class:`~repro.parallel.failure.RecoveryStats`.  The
fault-injection hooks consulted by the worker-side wrappers live in
:mod:`repro.parallel.faults` and are armed only by tests.

Determinism contract
--------------------
The executor never influences results, only wall-clock:

* shard layout is a pure function of ``(total_work, n_jobs)``
  (:func:`shard_counts`), and each shard carries its own RNG substream
  derived with :func:`repro.utils.rng.spawn_rngs`, so which OS process runs
  which shard — or how often a shard had to be re-executed — is irrelevant;
* results are merged into a parent-side list indexed by shard position, so
  the merge is deterministic regardless of completion order;
* the ``REPRO_MAX_JOBS`` environment variable caps the number of *worker
  processes* (useful on small CI runners) without changing the shard layout,
  so a run with ``n_jobs=4`` produces bit-identical results whether the pool
  has 4 processes or 1.

``n_jobs`` semantics match the scikit-learn convention: ``None`` → 1
(serial, in-process, no pool), ``-1`` → ``os.cpu_count()``, any positive
integer → that many shards.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import time
import warnings
from threading import BrokenBarrierError, Event
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ExecutionError, ShardTimeoutError, WorkerCrashError
from repro.parallel import faults
from repro.parallel.failure import DEFAULT_FAILURE_POLICY, FailurePolicy, RecoveryStats

#: Environment variable capping the number of concurrent worker processes
#: (shard layout — and therefore results — are unaffected).
MAX_JOBS_ENV = "REPRO_MAX_JOBS"

#: Environment variable overriding the multiprocessing start method
#: ("fork", "spawn" or "forkserver").
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: Valid payload-transport modes.  ``"pickle"`` ships payloads through the
#: pool's pipes (the historical path); ``"shm"`` packs every ndarray /
#: :class:`~repro.graph.digraph.CSRDiGraph` in the payload into one
#: ``multiprocessing.shared_memory`` segment and ships only the segment name
#: + header; ``"auto"`` picks ``"shm"`` once the payload's array bytes reach
#: :data:`AUTO_SHM_MIN_BYTES`.  Transport never influences results — workers
#: rebuild bit-identical read-only views — so this knob lives outside
#: ``rng_compat``.
PAYLOAD_MODES = ("auto", "pickle", "shm")

#: ``payload="auto"`` switches to shared memory at this many payload array
#: bytes (4 MiB).  Below it, pickling through the pipe is already cheap and
#: not worth a ``/dev/shm`` segment's lifecycle.
AUTO_SHM_MIN_BYTES = 4 << 20


def validate_n_jobs(n_jobs: Optional[int], error_cls: type = ValueError) -> None:
    """Raise ``error_cls`` unless ``n_jobs`` is ``None``, ``-1`` or positive.

    The one place the ``n_jobs`` domain rule lives; parameter objects call
    this with their own error type so every knob rejects the same inputs.
    """
    if n_jobs is not None and n_jobs != -1 and int(n_jobs) <= 0:
        raise error_cls(f"n_jobs must be a positive int, -1 or None, got {n_jobs}")


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` knob to a positive shard count.

    ``None`` → 1, ``-1`` → ``os.cpu_count()``, positive ints pass through.
    ``0`` and other negatives are rejected.
    """
    validate_n_jobs(n_jobs)
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return os.cpu_count() or 1
    return n_jobs


def worker_process_cap() -> Optional[int]:
    """The ``REPRO_MAX_JOBS`` pool-size cap, or ``None`` when unset/invalid.

    Invalid or non-positive values are rejected with a :class:`RuntimeWarning`
    naming the offending value, so a misconfigured CI runner is visible
    instead of silently uncapped.
    """
    raw = os.environ.get(MAX_JOBS_ENV)
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring {MAX_JOBS_ENV}={raw!r}: not an integer; the worker "
            "pool is uncapped",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if cap <= 0:
        warnings.warn(
            f"ignoring {MAX_JOBS_ENV}={raw!r}: the cap must be a positive "
            "integer; the worker pool is uncapped",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return cap


def shard_counts(total: int, n_jobs: int) -> np.ndarray:
    """Split ``total`` work items into at most ``n_jobs`` contiguous shards.

    The first ``total % n_jobs`` shards receive one extra item; empty shards
    are dropped (when ``total < n_jobs``).  The layout depends only on
    ``(total, n_jobs)`` — this is what makes fixed-``(seed, n_jobs)`` runs
    reproducible regardless of scheduling.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if n_jobs <= 0:
        raise ValueError(f"n_jobs must be positive, got {n_jobs}")
    base, extra = divmod(total, n_jobs)
    counts = np.full(n_jobs, base, dtype=np.int64)
    counts[:extra] += 1
    return counts[counts > 0]


def _default_start_method() -> str:
    override = os.environ.get(START_METHOD_ENV)
    if override:
        valid = multiprocessing.get_all_start_methods()
        if override not in valid:
            raise ExecutionError(
                f"invalid {START_METHOD_ENV}={override!r}: choose one of "
                f"{', '.join(valid)}"
            )
        return override
    # fork inherits the payload for free and is available on POSIX; macOS /
    # Windows default to spawn, where the payload is pickled once per worker.
    if sys.platform.startswith("linux"):
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


_WORKER_PAYLOAD: Any = None
_WORKER_PAYLOADS: dict = {}
#: Worker-side ``SharedMemory`` objects attached for decoded shm payloads,
#: keyed by segment name.  The attachment must stay referenced for as long
#: as any rebuilt array view is alive (closing it would invalidate the
#: views); entries are dropped in lockstep with ``_WORKER_PAYLOADS``.
_ATTACHED_SEGMENTS: dict = {}
#: Worker-side scratch caches, one dict per broadcast payload token.  Task
#: functions reach theirs through :func:`current_worker_cache` to keep
#: expensive payload-derived state (e.g. RR generators with their CSR scratch
#: buffers) alive across the many calls a persistent pool serves for the same
#: payload.  Evicted in lockstep with ``_WORKER_PAYLOADS``.
_WORKER_CACHES: dict = {}
_CURRENT_PAYLOAD_TOKEN: Any = None
_WORKER_BARRIER: Any = None

#: Seconds a worker waits for its siblings during a payload broadcast before
#: declaring the pool broken.  A worker-side backstop only: the parent's
#: supervision loop detects a dead sibling within ``_POLL_INTERVAL_S`` and
#: aborts the barrier long before this expires.
_BROADCAST_TIMEOUT_S = 600.0

#: Supervision-loop poll granularity: the latency bound on detecting a dead
#: worker, and the upper bound on per-call overhead of a failure-free run.
_POLL_INTERVAL_S = 0.05

#: Grace period for end-of-call shutdown of an ephemeral pool before falling
#: back to ``terminate()`` (lets worker-side atexit/coverage hooks run).
_EPHEMERAL_CLOSE_GRACE_S = 1.0


class _StalePayloadError(RuntimeError):
    """Worker-side: a token addressed a payload this worker never received.

    Happens when ``multiprocessing.Pool`` silently auto-respawns a crashed
    worker — the replacement runs the initializer but missed every earlier
    broadcast.  The supervision loop treats it as a pool failure (respawn +
    re-broadcast + re-execute), never as a task error.
    """


class _PoolBrokenError(RuntimeError):
    """Parent-side internal: the pool must be torn down and respawned."""


def _ensure_resource_tracker() -> None:
    """Start the parent's ``resource_tracker`` before any worker exists.

    ``spawn`` children always receive the parent tracker's fd, but ``fork``
    children inherit whatever state the parent had at fork time — if the
    tracker is not running yet, a worker that later attaches a shared
    segment lazily starts its *own* tracker, which unlinks the parent's
    live segment the moment that worker is terminated.  Starting the
    tracker parent-side first makes every child share it, where attach-side
    registrations are idempotent set inserts and the creator's ``unlink``
    is the single cleanup.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - platforms without a tracker
        pass


def _freeze_inherited_heap() -> None:
    # Under fork the worker inherits the parent's whole object heap; without
    # this, the first collector cycles inside the worker walk every inherited
    # object and copy-on-write-fault the shared pages — measured at >3x CPU
    # on the sharded MC estimator when the parent holds a large RR-set
    # collection.  Freezing moves the inherited heap into the permanent
    # generation so the worker's collector never touches it.
    import gc

    gc.freeze()


# ---------------------------------------------------------------------- #
# zero-copy payload transport (payload="shm")
# ---------------------------------------------------------------------- #
class _ArrayRef:
    """Skeleton placeholder for an ndarray packed into the shared segment."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def __getstate__(self):
        return self.key

    def __setstate__(self, state):
        self.key = state


class _GraphRef:
    """Skeleton placeholder for a :class:`CSRDiGraph` packed into the segment."""

    __slots__ = ("num_nodes", "prefix")

    def __init__(self, num_nodes: int, prefix: str):
        self.num_nodes = num_nodes
        self.prefix = prefix

    def __getstate__(self):
        return (self.num_nodes, self.prefix)

    def __setstate__(self, state):
        self.num_nodes, self.prefix = state


class _ShmPayload:
    """Wire form of a shared-memory payload: segment name + header + skeleton.

    The *skeleton* is the payload with every ndarray / ``CSRDiGraph``
    replaced by a tiny ref object; everything else (classes, scalars, small
    leaves) still pickles through the pipe.  Workers attach the named
    segment and substitute read-only views back in — the arrays themselves
    never cross a pipe and exist physically once per host.
    """

    __slots__ = ("name", "header_bytes", "skeleton")

    def __init__(self, name: str, header_bytes: bytes, skeleton: Any):
        self.name = name
        self.header_bytes = header_bytes
        self.skeleton = skeleton

    def __getstate__(self):
        return (self.name, self.header_bytes, self.skeleton)

    def __setstate__(self, state):
        self.name, self.header_bytes, self.skeleton = state


def validate_payload_mode(mode: str, error_cls: type = ExecutionError) -> str:
    """Raise ``error_cls`` unless ``mode`` is one of :data:`PAYLOAD_MODES`."""
    if mode not in PAYLOAD_MODES:
        raise error_cls(
            f"payload mode must be one of {', '.join(PAYLOAD_MODES)}, "
            f"got {mode!r}"
        )
    return mode


def _payload_array_bytes(payload: Any) -> int:
    """Total ndarray/graph bytes in ``payload`` (the ``auto`` mode signal)."""
    from repro.graph.digraph import CSRDiGraph
    from repro.graph.storage import graph_arrays

    total = 0
    stack = [payload]
    while stack:
        obj = stack.pop()
        if isinstance(obj, CSRDiGraph):
            total += sum(arr.nbytes for arr in graph_arrays(obj).values())
        elif isinstance(obj, np.ndarray):
            if obj.dtype != object:
                total += obj.nbytes
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return total


def _resolve_payload_transport(payload_mode: str, payload: Any) -> str:
    """Collapse ``auto`` to a concrete transport for this payload."""
    validate_payload_mode(payload_mode)
    if payload_mode != "auto":
        return payload_mode
    return "shm" if _payload_array_bytes(payload) >= AUTO_SHM_MIN_BYTES else "pickle"


def _map_payload(obj: Any, leaf: Callable[[Any], Any]) -> Any:
    """Rebuild ``obj``'s tuple/list/dict nesting with ``leaf`` applied to
    every other object.

    Module-level on purpose: a recursive closure is a reference cycle, and
    one that captures a payload's arrays keeps them alive until the next
    cyclic collection, long after the payload itself is dropped.
    """
    if isinstance(obj, tuple):
        return tuple(_map_payload(item, leaf) for item in obj)
    if isinstance(obj, list):
        return [_map_payload(item, leaf) for item in obj]
    if isinstance(obj, dict):
        return {key: _map_payload(value, leaf) for key, value in obj.items()}
    return leaf(obj)


def _encode_shm_payload(payload: Any):
    """Pack ``payload``'s arrays into one shared segment.

    Returns ``(SharedGraphSegment, _ShmPayload)`` — the caller owns the
    segment's lifecycle — or ``None`` when the payload holds no packable
    arrays (ship it pickled; a segment would carry nothing).
    """
    from repro.graph.digraph import CSRDiGraph
    from repro.graph import storage

    arrays: Dict[str, np.ndarray] = {}
    counter = [0]

    def pack(obj: Any) -> Any:
        if isinstance(obj, CSRDiGraph):
            prefix = f"g{counter[0]}"
            counter[0] += 1
            for name, arr in storage.graph_arrays(obj).items():
                arrays[f"{prefix}.{name}"] = arr
            return _GraphRef(obj.num_nodes, prefix)
        if isinstance(obj, np.ndarray) and obj.dtype != object:
            key = f"a{counter[0]}"
            counter[0] += 1
            arrays[key] = obj
            return _ArrayRef(key)
        return obj

    skeleton = _map_payload(payload, pack)
    if not arrays:
        return None
    segment = storage.pack_to_shm(arrays)
    return segment, _ShmPayload(segment.name, segment.header_bytes, skeleton)


def _decode_shm_payload(wire: "_ShmPayload") -> Any:
    """Worker side: attach the segment and rebuild the payload, zero-copy."""
    from repro.graph import storage

    segment = _ATTACHED_SEGMENTS.get(wire.name)
    if segment is None:
        segment = storage.attach_segment(wire.name)
        _ATTACHED_SEGMENTS[wire.name] = segment
    views = storage.unpack_arrays(
        segment.buf, storage.header_from_bytes(wire.header_bytes)
    )

    def unpack(obj: Any) -> Any:
        if isinstance(obj, _ArrayRef):
            return views[obj.key]
        if isinstance(obj, _GraphRef):
            parts = {
                name: views[f"{obj.prefix}.{name}"]
                for name in storage.GRAPH_ARRAY_NAMES
            }
            return storage.graph_from_arrays(obj.num_nodes, parts)
        return obj

    return _map_payload(wire.skeleton, unpack)


#: Segments whose close() failed because some view still exports the buffer.
#: Kept referenced so their ``__del__`` never retries the close and sprays
#: "Exception ignored" noise at interpreter exit.
_ZOMBIE_SEGMENTS: list = []


def _close_attached_segments() -> None:
    """Drop worker-side segment attachments (with their payload views gone)."""
    if not _ATTACHED_SEGMENTS:
        return
    # The payload views over these segments were dropped just before this
    # call; collect them now — numpy views hold buffer exports, and a
    # mapping with live exports cannot close.
    import gc

    gc.collect()
    for segment in _ATTACHED_SEGMENTS.values():
        try:
            segment.close()
        except (BufferError, OSError):  # pragma: no cover - views still live
            _ZOMBIE_SEGMENTS.append(segment)
    _ATTACHED_SEGMENTS.clear()


def _release_worker_state() -> None:  # pragma: no cover - runs at worker exit
    """atexit hook: drop payload views, then close segment mappings.

    Without this, interpreter shutdown tears module globals down in
    arbitrary order and ``SharedMemory.__del__`` can run while numpy views
    in ``_WORKER_PAYLOADS`` still export the buffer, raising ignored
    ``BufferError`` tracebacks on the worker's stderr.
    """
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = None
    _WORKER_PAYLOADS.clear()
    _WORKER_CACHES.clear()
    _close_attached_segments()


def _init_worker(payload: Any, fault_specs: Any = None) -> None:
    global _WORKER_PAYLOAD
    atexit.register(_release_worker_state)
    if isinstance(payload, _ShmPayload):
        payload = _decode_shm_payload(payload)
    _WORKER_PAYLOAD = payload
    faults.arm(fault_specs)
    _freeze_inherited_heap()


def _call_task(task_shard_index) -> Any:
    task, shard, index = task_shard_index
    faults.on_shard_start(index)
    result = task(_WORKER_PAYLOAD, shard)
    faults.on_shard_end(index)
    return result


def _init_persistent_worker(barrier: Any, fault_specs: Any = None) -> None:
    global _WORKER_BARRIER
    atexit.register(_release_worker_state)
    _WORKER_BARRIER = barrier
    _WORKER_PAYLOADS.clear()
    _WORKER_CACHES.clear()
    _close_attached_segments()
    faults.arm(fault_specs)
    _freeze_inherited_heap()


def _drop_payloads(_arg) -> None:
    """Forget every broadcast payload (cache-eviction broadcast).

    Runs under the same barrier discipline as :func:`_store_payload`, so
    every worker in the pool drops its cache exactly once.
    """
    _WORKER_PAYLOADS.clear()
    _WORKER_CACHES.clear()
    _close_attached_segments()
    _WORKER_BARRIER.wait(timeout=_BROADCAST_TIMEOUT_S)


def _store_payload(token_and_payload) -> None:
    """Receive one broadcast payload and park on the barrier.

    The barrier guarantees exactly-once delivery per worker: a worker can
    only execute one task at a time, and the barrier releases only when
    every worker in the pool is simultaneously inside a store task — so no
    worker can grab a second copy while another has none.  Shared-memory
    wires are decoded here — attach + rebuild views, no array bytes on the
    pipe — so task code sees the same payload shape either way.
    """
    token, wire = token_and_payload
    faults.on_broadcast()
    if isinstance(wire, _ShmPayload):
        wire = _decode_shm_payload(wire)
    _WORKER_PAYLOADS[token] = wire
    _WORKER_BARRIER.wait(timeout=_BROADCAST_TIMEOUT_S)


_MISSING = object()


def current_worker_cache() -> Optional[dict]:
    """The scratch cache for the payload of the task currently executing.

    Inside a persistent-pool task this returns a per-``(worker, payload)``
    dict that survives across calls until the payload is evicted — task
    functions use it to memoise state that is expensive to rebuild from the
    payload every call (RR generators, scratch buffers).  Outside a pool
    task — the serial/inline path, or the ephemeral one-shot pool — it
    returns ``None`` and callers must rebuild, which keeps the serial path's
    behaviour (and memory profile) unchanged.

    Determinism contract: anything cached here must be a pure function of
    the payload, so a cache hit can never change what a shard computes.
    """
    if _CURRENT_PAYLOAD_TOKEN is None:
        return None
    return _WORKER_CACHES.setdefault(_CURRENT_PAYLOAD_TOKEN, {})


def _call_task_by_token(task_token_shard_index) -> Any:
    global _CURRENT_PAYLOAD_TOKEN
    task, token, shard, index = task_token_shard_index
    payload = _WORKER_PAYLOADS.get(token, _MISSING)
    if payload is _MISSING:
        raise _StalePayloadError(
            f"worker {os.getpid()} holds no payload for token {token} "
            "(auto-respawned after a sibling crash?)"
        )
    faults.on_shard_start(index)
    _CURRENT_PAYLOAD_TOKEN = token
    try:
        result = task(payload, shard)
    finally:
        _CURRENT_PAYLOAD_TOKEN = None
    faults.on_shard_end(index)
    return result


def _shutdown_pool(pool, procs: Sequence[Any], grace_s: float) -> None:
    """Close a pool, preferring graceful worker exit within ``grace_s``.

    ``grace_s > 0`` sends the close sentinel and waits for every worker in
    the spawn-time snapshot to exit on its own (running worker-side
    ``atexit``/coverage hooks); stragglers — and the ``grace_s <= 0`` fast
    path used for recovery respawns — are terminated.
    """
    if grace_s > 0:
        pool.close()
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            if all(proc.exitcode is not None for proc in procs):
                break
            time.sleep(0.005)
        if not all(proc.exitcode is not None for proc in procs):
            pool.terminate()
    else:
        pool.terminate()
    pool.join()


def _supervise(
    adapter,
    shards: List[Any],
    failure: FailurePolicy,
    stats: RecoveryStats,
    label: str,
) -> List[Any]:
    """Watch submitted shards to completion, recovering per ``failure``.

    ``adapter`` abstracts the pool flavour (ephemeral vs persistent) behind
    five methods: ``submit(index, shard, wakeup)`` → ``AsyncResult``,
    ``dead_workers()``, ``respawn()``, ``discard()`` and ``serial(shard)``.
    Results land in a list indexed by shard position, so the merge order —
    and therefore every downstream result — is independent of completion
    order, retries and degradation.
    """
    results: List[Any] = [None] * len(shards)
    attempts = [0] * len(shards)
    pending: Dict[int, Any] = {}
    deadlines: Dict[int, float] = {}
    # Completion callbacks set this so the loop wakes the moment any shard
    # finishes instead of at the next poll tick; dead workers produce no
    # callback, so the poll interval stays the detection latency for those.
    wakeup = Event()

    def submit(indices) -> None:
        now = time.monotonic()
        for index in indices:
            pending[index] = adapter.submit(index, shards[index], wakeup)
            if failure.shard_timeout_s is not None:
                deadlines[index] = now + failure.shard_timeout_s

    def run_serial(indices, reason: str) -> None:
        stats.serial_fallbacks += len(indices)
        warnings.warn(
            f"{label}: degrading shard(s) {list(indices)} to in-process serial "
            f"execution after {reason}; results stay bit-identical",
            RuntimeWarning,
            stacklevel=4,
        )
        for index in indices:
            results[index] = adapter.serial(shards[index])

    def recover(reason: str) -> None:
        # Pool state is suspect: every outstanding shard is treated as lost,
        # the pool is torn down, and the lost shards are re-executed — on a
        # fresh pool while they have retry budget, in-process serially after.
        lost = sorted(pending)
        pending.clear()
        deadlines.clear()
        retry: List[int] = []
        fallback: List[int] = []
        for index in lost:
            attempts[index] += 1
            (fallback if attempts[index] > failure.max_retries else retry).append(index)
        if fallback or not retry:
            adapter.discard()
        if fallback:
            run_serial(fallback, f"{reason} (retry budget exhausted)")
        if not retry:
            return
        stats.shards_rerun += len(retry)
        round_attempt = max(attempts[index] for index in retry)
        warnings.warn(
            f"{label}: {reason}; respawning workers and re-executing shard(s) "
            f"{retry} (attempt {round_attempt}/{failure.max_retries})",
            RuntimeWarning,
            stacklevel=4,
        )
        if failure.retry_backoff_s > 0:
            time.sleep(failure.retry_backoff_s * round_attempt)
        try:
            stats.pool_respawns += 1
            adapter.respawn()
            submit(retry)
        except Exception:
            # The pool cannot be rebuilt (respawn or re-broadcast keeps
            # failing) — last rung of the degradation ladder.
            run_serial(retry, "the worker pool could not be respawned")

    submit(range(len(shards)))
    while pending:
        wakeup.clear()
        broken_reason: Optional[str] = None
        for index in sorted(pending):
            result = pending[index]
            if not result.ready():
                continue
            try:
                value = result.get()
            except _StalePayloadError:
                broken_reason = "a respawned worker lost its payload cache"
                break
            # Any other exception is a genuine task error: deterministic,
            # so retrying cannot help — propagate to the caller.
            results[index] = value
            del pending[index]
            deadlines.pop(index, None)
        if not pending:
            break
        if broken_reason is None:
            dead = adapter.dead_workers()
            if dead:
                codes = sorted({proc.exitcode for proc in dead})
                broken_reason = (
                    f"{len(dead)} worker process(es) died (exit codes {codes})"
                )
        if broken_reason is not None:
            stats.worker_crashes += 1
            if failure.on_pool_failure == "raise":
                adapter.discard()
                raise WorkerCrashError(
                    f"{label}: {broken_reason} with shard(s) {sorted(pending)} "
                    f"outstanding [recovery: {stats.describe()}]"
                )
            recover(broken_reason)
            continue
        now = time.monotonic()
        expired = sorted(
            index for index, deadline in deadlines.items() if now > deadline
        )
        if expired:
            stats.shard_timeouts += len(expired)
            timeout_reason = (
                f"shard(s) {expired} exceeded "
                f"shard_timeout_s={failure.shard_timeout_s:g}"
            )
            if failure.on_pool_failure == "raise":
                adapter.discard()
                raise ShardTimeoutError(
                    f"{label}: {timeout_reason} [recovery: {stats.describe()}]"
                )
            recover(timeout_reason)
            continue
        wakeup.wait(_POLL_INTERVAL_S)
    return results


class _EphemeralAdapter:
    """Pool mechanics of one supervised ephemeral :meth:`ShardedExecutor.run`."""

    def __init__(
        self,
        start_method: Optional[str],
        task,
        payload,
        processes: int,
        payload_mode: str = "pickle",
    ):
        self._context = multiprocessing.get_context(
            start_method or _default_start_method()
        )
        self._task = task
        self._payload = payload
        self._processes = processes
        self._segment = None
        self._wire = payload
        if _resolve_payload_transport(payload_mode, payload) == "shm":
            encoded = _encode_shm_payload(payload)
            if encoded is not None:
                self._segment, self._wire = encoded
        self._pool = None
        self._procs: List[Any] = []
        self._spawn()

    def _spawn(self) -> None:
        _ensure_resource_tracker()
        self._pool = self._context.Pool(
            self._processes,
            initializer=_init_worker,
            initargs=(self._wire, faults.active_faults()),
        )
        self._procs = list(self._pool._pool)

    def submit(self, index: int, shard: Any, wakeup: Event):
        notify = lambda _result: wakeup.set()  # noqa: E731
        return self._pool.apply_async(
            _call_task,
            ((self._task, shard, index),),
            callback=notify,
            error_callback=notify,
        )

    def dead_workers(self) -> List[Any]:
        return [proc for proc in self._procs if proc.exitcode is not None]

    def respawn(self) -> None:
        self.discard()
        self._spawn()

    def discard(self) -> None:
        pool, self._pool = self._pool, None
        self._procs = []
        if pool is not None:
            pool.terminate()
            pool.join()

    def serial(self, shard: Any) -> Any:
        return self._task(self._payload, shard)

    def finish(self) -> None:
        """End-of-call shutdown: graceful close, bounded, then terminate.

        Also the single unlink site for the call's shared segment — respawns
        during recovery reuse the live segment, so only end-of-call releases
        it.
        """
        pool, self._pool = self._pool, None
        procs, self._procs = self._procs, []
        if pool is not None:
            _shutdown_pool(pool, procs, _EPHEMERAL_CLOSE_GRACE_S)
        segment, self._segment = self._segment, None
        if segment is not None:
            segment.unlink()


class _PersistentAdapter:
    """Pool mechanics of one supervised :meth:`PersistentPool.run` call."""

    def __init__(self, owner: "PersistentPool", task, payload, processes: int,
                 failure: FailurePolicy):
        self._owner = owner
        self._task = task
        self._payload = payload
        self._processes = processes
        self._failure = failure
        self._token: Optional[int] = None

    def attach(self) -> None:
        """Bind the payload token, broadcasting to the live pool as needed."""
        self._token = self._owner._attach_payload(
            self._payload, self._processes, self._failure
        )

    def submit(self, index: int, shard: Any, wakeup: Event):
        notify = lambda _result: wakeup.set()  # noqa: E731
        return self._owner._pool.apply_async(
            _call_task_by_token,
            ((self._task, self._token, shard, index),),
            callback=notify,
            error_callback=notify,
        )

    def dead_workers(self) -> List[Any]:
        return self._owner._dead_workers()

    def respawn(self) -> None:
        # Keep the parent-side packed segments: the re-broadcast right after
        # the respawn reuses the live segment instead of re-packing.
        self._owner.close(timeout_s=0, release_payloads=False)
        self.attach()

    def discard(self) -> None:
        self._owner.close(timeout_s=0, release_payloads=False)

    def serial(self, shard: Any) -> Any:
        return self._task(self._payload, shard)


class PersistentPool:
    """A worker pool that outlives individual sharded calls.

    Ephemeral execution (:meth:`ShardedExecutor.run` without a pool) spawns
    a fresh ``multiprocessing.Pool`` per call — ~30–60 ms each, which RMA's
    doubling rounds pay over and over.  A ``PersistentPool`` spawns its
    workers once (lazily, on the first call that actually shards) and reuses
    them; :class:`repro.runtime.Runtime` owns one per context.

    Payloads are shipped to every worker **once per distinct payload** via a
    barrier-synchronised broadcast and addressed by token afterwards, so
    repeated calls against the same graph/probabilities (the RMA pattern)
    pickle the payload once per worker for the lifetime of the pool instead
    of once per call.  Payload identity is object identity of the payload's
    elements — the pool keeps a strong reference, so ``id`` reuse cannot
    alias two different payloads.

    Worker loss is survivable: calls run under the supervision loop
    (:func:`_supervise`), broadcasts are watched for dead workers and broken
    barriers, and recovery — respawn, re-broadcast of the payloads the
    pending call needs, deterministic re-execution of exactly the unfinished
    shards — is governed by the call's
    :class:`~repro.parallel.failure.FailurePolicy`.  :attr:`recovery_stats`
    counts those events, mirroring :attr:`spawn_count`.

    The pool never influences results: shard layout and RNG substreams are
    fixed by the caller, results merge by shard position, and pool size
    (capped by ``REPRO_MAX_JOBS``) only limits concurrency.
    """

    #: Distinct payloads kept broadcast in the workers before the cache is
    #: reset (bounds parent + worker memory when callers stream many
    #: one-off payloads through one long-lived pool).
    MAX_CACHED_PAYLOADS = 8

    #: Default grace period for :meth:`close` before falling back to
    #: ``terminate()`` (lets worker-side atexit/coverage hooks run).
    CLOSE_GRACE_S = 5.0

    def __init__(
        self,
        start_method: Optional[str] = None,
        payload_mode: str = "pickle",
    ):
        self._start_method = start_method
        self._payload_mode = validate_payload_mode(payload_mode)
        self._pool = None
        self._procs: List[Any] = []
        self._barrier = None
        self._processes = 0
        self._spawn_count = 0
        self._recovery = RecoveryStats()
        #: Broadcast state of the *live* pool: identity key → token the
        #: current workers hold.  Cleared on every close/respawn.
        self._tokens: dict = {}
        #: Parent-side packed payloads: identity key → ``(payload, wire,
        #: segment-or-None)``.  Outlives worker respawns — a re-broadcast
        #: after a crash ships the same live segment — and holds the strong
        #: payload references that make identity keys safe against ``id``
        #: reuse.  Released on user-facing :meth:`close` / eviction.
        self._packed: dict = {}
        self._next_token = 0

    @property
    def payload_mode(self) -> str:
        """The payload transport this pool broadcasts with."""
        return self._payload_mode

    @property
    def processes(self) -> int:
        """Worker count of the live pool (0 when no pool is up)."""
        return self._processes if self._pool is not None else 0

    @property
    def spawn_count(self) -> int:
        """How many times a worker pool has been spawned over this pool's life."""
        return self._spawn_count

    @property
    def recovery_stats(self) -> RecoveryStats:
        """Recovery counters accumulated over this pool's life (0s when clean)."""
        return self._recovery

    def _ensure(self, requested: int):
        """Return a pool with at least ``requested`` workers (or ``None`` serial).

        Growing an existing pool respawns it (and re-broadcasts payloads on
        demand); the common fixed-``n_jobs`` case spawns exactly once.
        """
        if requested <= 1:
            return None
        if self._pool is not None and self._processes >= requested:
            return self._pool
        self.close(release_payloads=False)
        context = multiprocessing.get_context(
            self._start_method or _default_start_method()
        )
        _ensure_resource_tracker()
        barrier = context.Barrier(requested)
        self._pool = context.Pool(
            requested,
            initializer=_init_persistent_worker,
            initargs=(barrier, faults.active_faults()),
        )
        self._procs = list(self._pool._pool)
        self._barrier = barrier
        self._processes = requested
        self._spawn_count += 1
        return self._pool

    def _dead_workers(self) -> List[Any]:
        return [proc for proc in self._procs if proc.exitcode is not None]

    def _broadcast(self, function, items) -> None:
        """Supervised barrier broadcast: raises :class:`_PoolBrokenError`.

        Watches the broadcast for dead workers (aborting the barrier so the
        survivors unblock instead of hanging until the worker-side timeout)
        and converts every failure shape — death, broken barrier, stall —
        into :class:`_PoolBrokenError` for the caller to recover from.
        """
        result = self._pool.map_async(function, items, chunksize=1)
        deadline = time.monotonic() + _BROADCAST_TIMEOUT_S
        while not result.ready():
            if self._dead_workers():
                self._barrier.abort()
                raise _PoolBrokenError("a worker died during a payload broadcast")
            if time.monotonic() > deadline:
                self._barrier.abort()
                raise _PoolBrokenError("a payload broadcast stalled")
            result.wait(_POLL_INTERVAL_S)
        try:
            result.get()
        except BrokenBarrierError as exc:
            raise _PoolBrokenError(
                "the payload-broadcast barrier broke"
            ) from exc

    @staticmethod
    def _payload_key(payload: Any) -> tuple:
        return (
            tuple(id(element) for element in payload)
            if isinstance(payload, tuple)
            else (id(payload),)
        )

    def _release_packed(self) -> None:
        """Unlink every parent-side shared segment and drop the pack cache."""
        packed, self._packed = self._packed, {}
        for _payload, _wire, segment in packed.values():
            if segment is not None:
                segment.unlink()

    def _wire_for(self, key: tuple, payload: Any) -> Any:
        """The broadcastable wire form of ``payload`` (packing on first use).

        Under ``"shm"``/large-``"auto"`` the arrays are packed into one
        shared segment the first time; re-broadcasts (respawn recovery, a
        re-grown pool) reuse the live segment.  The cache is pruned of
        entries no live token addresses once it reaches
        :attr:`MAX_CACHED_PAYLOADS`.
        """
        entry = self._packed.get(key)
        if entry is not None:
            return entry[1]
        if len(self._packed) >= self.MAX_CACHED_PAYLOADS:
            for stale in [k for k in self._packed if k not in self._tokens]:
                _payload, _wire, segment = self._packed.pop(stale)
                if segment is not None:
                    segment.unlink()
        segment = None
        wire = payload
        if _resolve_payload_transport(self._payload_mode, payload) == "shm":
            encoded = _encode_shm_payload(payload)
            if encoded is not None:
                segment, wire = encoded
        self._packed[key] = (payload, wire, segment)
        return wire

    def _payload_token(self, payload: Any) -> int:
        key = self._payload_key(payload)
        token = self._tokens.get(key)
        if token is None:
            if len(self._tokens) >= self.MAX_CACHED_PAYLOADS:
                self._broadcast(_drop_payloads, [None] * self._processes)
                self._tokens.clear()
                self._release_packed()
            wire = self._wire_for(key, payload)
            token = self._next_token
            self._next_token += 1
            self._broadcast(_store_payload, [(token, wire)] * self._processes)
            self._tokens[key] = token
        return token

    def _attach_payload(
        self, payload: Any, processes: int, failure: FailurePolicy
    ) -> int:
        """Token for ``payload`` on a live pool, recovering broken broadcasts.

        A failed broadcast (dead worker, broken barrier) tears the pool down
        and retries on a fresh one — re-broadcasting **only this payload**,
        the one the pending call needs — up to ``failure.max_retries`` times
        (no retries under ``"raise"``).  Raises :class:`_PoolBrokenError`
        when the budget is exhausted.
        """
        tries = 1 if failure.on_pool_failure == "raise" else failure.max_retries + 1
        last: Optional[Exception] = None
        for attempt in range(tries):
            self._ensure(processes)
            try:
                return self._payload_token(payload)
            except _PoolBrokenError as exc:
                last = exc
                self._recovery.worker_crashes += 1
                self.close(timeout_s=0, release_payloads=False)
                if attempt + 1 >= tries:
                    break
                self._recovery.pool_respawns += 1
                warnings.warn(
                    f"persistent pool: {exc}; respawning workers and "
                    "re-broadcasting the pending call's payload",
                    RuntimeWarning,
                    stacklevel=5,
                )
                if failure.retry_backoff_s > 0:
                    time.sleep(failure.retry_backoff_s * (attempt + 1))
        raise last

    def run(
        self,
        task: Callable[[Any, Any], Any],
        payload: Any,
        shards: Sequence[Any],
        processes: int,
        failure: Optional[FailurePolicy] = None,
    ) -> List[Any]:
        """Evaluate ``task(payload, shard)`` per shard on the persistent workers.

        ``processes`` is the concurrency the caller wants (already capped by
        ``REPRO_MAX_JOBS``); ``failure`` governs recovery (defaults to
        :data:`~repro.parallel.failure.DEFAULT_FAILURE_POLICY`).  Results are
        bit-identical to the ephemeral path — same tasks, same shard args,
        same merge order — whether or not recovery was needed.
        """
        failure = failure if failure is not None else DEFAULT_FAILURE_POLICY
        shards = list(shards)
        if self._ensure(processes) is None:
            return [task(payload, shard) for shard in shards]
        adapter = _PersistentAdapter(self, task, payload, processes, failure)
        try:
            adapter.attach()
        except _PoolBrokenError as exc:
            if failure.on_pool_failure == "raise":
                raise WorkerCrashError(
                    f"persistent pool: {exc} "
                    f"[recovery: {self._recovery.describe()}]"
                ) from exc
            self._recovery.serial_fallbacks += len(shards)
            warnings.warn(
                f"persistent pool: {exc} and the retry budget is exhausted; "
                f"degrading all {len(shards)} shard(s) to in-process serial "
                "execution (results stay bit-identical)",
                RuntimeWarning,
                stacklevel=3,
            )
            return [task(payload, shard) for shard in shards]
        return _supervise(adapter, shards, failure, self._recovery, "persistent pool")

    def broadcast(self, payload: Any, processes: int) -> bool:
        """Ship ``payload`` to ``processes`` workers now, under a fresh token.

        A diagnostics/benchmark entry point: unlike the token cache used by
        :meth:`run`, every call performs a real broadcast (the packed
        segment, if any, is reused — re-broadcasting under ``"shm"`` only
        ships the segment name + header).  Returns ``False`` when
        ``processes <= 1`` keeps the pool serial.  Call
        :meth:`forget_payloads` between repeated broadcasts of large
        payloads to keep worker memory bounded.
        """
        if self._ensure(processes) is None:
            return False
        key = self._payload_key(payload)
        try:
            wire = self._wire_for(key, payload)
            token = self._next_token
            self._next_token += 1
            self._broadcast(_store_payload, [(token, wire)] * self._processes)
        except _PoolBrokenError as exc:
            self.close(timeout_s=0, release_payloads=False)
            raise WorkerCrashError(f"persistent pool: {exc}") from exc
        self._tokens[key] = token
        return True

    def forget_payloads(self, release_segments: bool = True) -> None:
        """Make the live workers drop every broadcast payload.

        ``release_segments=False`` keeps the parent-side packed segments so
        the next broadcast of the same payload reuses them (what the
        broadcast benchmark wants); the default also unlinks them.
        """
        if self._pool is not None and self._tokens:
            try:
                self._broadcast(_drop_payloads, [None] * self._processes)
            except _PoolBrokenError:
                self.close(timeout_s=0, release_payloads=False)
        self._tokens.clear()
        if release_segments:
            self._release_packed()

    def close(
        self,
        timeout_s: Optional[float] = None,
        release_payloads: bool = True,
    ) -> None:
        """Shut the workers down and forget broadcast payloads.

        Workers are first asked to exit gracefully — so worker-side
        ``atexit``/coverage hooks run — and terminated only if still alive
        after ``timeout_s`` seconds (default :attr:`CLOSE_GRACE_S`; pass
        ``0`` to terminate immediately, e.g. when the pool is known broken).
        The pool object stays usable — the next sharded call respawns
        workers (incrementing :attr:`spawn_count`).

        ``release_payloads=False`` is the internal respawn flavour: the
        parent-side packed payloads (and their live shared-memory segments)
        survive so the post-respawn re-broadcast reuses them.  The default
        unlinks every segment this pool created — the single user-facing
        cleanup point the leak tests probe.
        """
        pool, self._pool = self._pool, None
        procs, self._procs = self._procs, []
        self._barrier = None
        if pool is not None:
            grace = self.CLOSE_GRACE_S if timeout_s is None else timeout_s
            _shutdown_pool(pool, procs, grace)
        self._processes = 0
        self._tokens.clear()
        if release_payloads:
            self._release_packed()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close(timeout_s=0)
        except Exception:
            pass


class ShardedExecutor:
    """Run a task over shards on a multiprocessing pool (or inline).

    Parameters
    ----------
    n_jobs:
        Target shard/worker count (``None`` → 1, ``-1`` → all cores).
    start_method:
        Multiprocessing start method; defaults to ``fork`` on Linux,
        overridable via ``REPRO_MP_START_METHOD``.
    pool:
        Optional :class:`PersistentPool` to run on.  Without one (the
        default) every :meth:`run` call spawns and tears down its own
        ``multiprocessing.Pool``; with one, workers are reused across calls
        — :class:`repro.runtime.Runtime` hands these out.  Results are
        bit-identical either way.
    failure:
        The :class:`~repro.parallel.failure.FailurePolicy` governing worker
        loss and shard timeouts (default: degrade-and-recover).  Never
        influences results, only whether/where lost shards are re-executed.
    payload_mode:
        Payload transport for the *ephemeral* path (one of
        :data:`PAYLOAD_MODES`; default ``"pickle"``).  A bound ``pool``
        broadcasts with its own mode instead.  Transport never influences
        results.
    """

    def __init__(
        self,
        n_jobs: Optional[int] = None,
        start_method: Optional[str] = None,
        pool: Optional[PersistentPool] = None,
        failure: Optional[FailurePolicy] = None,
        payload_mode: str = "pickle",
    ):
        self._n_jobs = resolve_n_jobs(n_jobs)
        self._start_method = start_method
        self._pool = pool
        self._failure = failure if failure is not None else DEFAULT_FAILURE_POLICY
        self._payload_mode = validate_payload_mode(payload_mode)
        self._recovery = RecoveryStats()

    @property
    def n_jobs(self) -> int:
        """The resolved shard count (``-1`` already expanded)."""
        return self._n_jobs

    @property
    def failure(self) -> FailurePolicy:
        """The failure policy supervised runs execute under."""
        return self._failure

    @property
    def recovery_stats(self) -> RecoveryStats:
        """Recovery counters: the bound pool's, or this executor's own."""
        return self._pool.recovery_stats if self._pool is not None else self._recovery

    def run(
        self,
        task: Callable[[Any, Any], Any],
        payload: Any,
        shards: Sequence[Any],
    ) -> List[Any]:
        """Evaluate ``task(payload, shard)`` for every shard, in shard order.

        ``task`` must be a module-level (picklable) function.  With one shard
        or ``n_jobs=1`` the task runs inline in the parent — no pool, no
        pickling — which is the serial fall-back path.
        """
        shards = list(shards)
        if not shards:
            return []
        processes = min(self._n_jobs, len(shards))
        cap = worker_process_cap()
        if cap is not None:
            processes = min(processes, cap)
        if processes <= 1:
            return [task(payload, shard) for shard in shards]
        if self._pool is not None:
            return self._pool.run(
                task, payload, shards, processes, failure=self._failure
            )
        adapter = _EphemeralAdapter(
            self._start_method, task, payload, processes, self._payload_mode
        )
        try:
            return _supervise(
                adapter, shards, self._failure, self._recovery, "ephemeral pool"
            )
        finally:
            adapter.finish()
