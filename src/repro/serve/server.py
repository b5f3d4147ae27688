"""The long-lived allocation server.

:class:`AllocationServer` holds a warm :class:`~repro.runtime.Runtime` (one
persistent worker pool) and a delta-maintained
:class:`~repro.rrsets.store.RRStore`, and answers line-delimited JSON
requests — ``allocate`` / ``spread`` / ``refresh`` / ``stats`` / ... — over
whatever transport feeds it (:mod:`repro.serve.transport`).

Architecture
------------
* **Admission** (any thread): :meth:`submit` validates the envelope and
  offers the ticket to a bounded queue.  A full queue sheds the request
  immediately with a structured ``overloaded`` error — memory stays bounded
  no matter how fast clients push.
* **Dispatch** (one thread): pops up to ``max_inflight`` tickets, coalesces
  identical read-only requests into one engine pass, and executes each
  group against the store.  Single-threaded dispatch is what makes the
  store's epoch bookkeeping and the per-request failure-policy override
  race-free by construction.
* **Deadlines** ride the PR-6 supervision machinery: a deadline-bearing
  request runs under ``Runtime.overriding_failure(FailurePolicy.fail_fast(
  shard_timeout_s=remaining))``, so any sharded stage reached inside raises
  :class:`~repro.exceptions.ShardTimeoutError` promptly → structured
  ``deadline-exceeded`` reply; worker crashes under that override are
  re-executed server-side (bit-identical by the determinism contract) up to
  ``request_retries`` times.  Requests without deadlines keep the default
  degrade-mode recovery, which already guarantees bit-identical results.
* **Durability**: with a checkpoint directory configured, every accepted
  ``refresh`` batch is journaled (fsync) *before* it is applied, and
  checkpoints rotate the journal.  ``kill -9`` at any point restarts
  bit-identical to replaying the acknowledged batches on a fresh store
  (:mod:`repro.serve.checkpoint`).
* **Thread hand-offs**: handlers are CPU-bound Python on the dispatch
  thread, while a transport thread admits each request and the client
  waits for the reply.  Under CPython's default 5 ms switch interval each
  of those hand-offs can wait out a whole interval behind a running
  handler, so a ``spread`` arriving during an ``allocate`` spent ~10 ms
  before admission alone.  While any server dispatches, the process runs
  with a :data:`_SWITCH_INTERVAL_S` interval (the previous one is restored
  when the last server stops), and the dispatch thread yields after each
  resolved ticket group, so its replies leave before the next handler
  starts.
* **Drain**: ``shutdown`` requests, transport EOF and SIGTERM/SIGINT all
  funnel into :meth:`initiate_drain` — new admissions are rejected with
  ``draining``, in-flight tickets finish (bounded by ``drain_grace_s``), a
  final checkpoint lands, and the pool is released.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.advertising.instance import RMInstance
from repro.advertising.oracle import RRSetOracle
from repro.core.oracle_solver import rm_with_oracle
from repro.exceptions import (
    ProtocolError,
    ReproError,
    ServiceError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.graph.deltas import MutableGraphView
from repro.parallel.failure import FailurePolicy
from repro.rrsets.estimators import revenue_scale
from repro.rrsets.store import RRStore
from repro.runtime import ExecutionPolicy, Runtime, resolve_policy
from repro.serve import protocol
from repro.serve.checkpoint import CheckpointManager
from repro.serve.lifecycle import (
    DRAINING,
    DeadlineExceeded,
    STARTING,
    SERVING,
    STOPPED,
    ServerStats,
    ServicePolicy,
    Ticket,
)

#: Ops whose identical concurrent requests may share one engine pass.
_COALESCABLE = frozenset({"ping", "stats", "spread", "allocate"})

#: GIL switch interval (seconds) while any server dispatches.
_SWITCH_INTERVAL_S = 0.0002

_switch_lock = threading.Lock()
_switch_holders = 0
_switch_saved = 0.0


@contextmanager
def _short_switch_interval() -> Iterator[None]:
    """Lower the process's GIL switch interval for the duration of the block.

    Reference-counted across concurrent servers; the last one out restores
    the interval that was in force before the first one came in.
    """
    global _switch_holders, _switch_saved
    with _switch_lock:
        if _switch_holders == 0:
            _switch_saved = sys.getswitchinterval()
            sys.setswitchinterval(min(_switch_saved, _SWITCH_INTERVAL_S))
        _switch_holders += 1
    try:
        yield
    finally:
        with _switch_lock:
            _switch_holders -= 1
            if _switch_holders == 0:
                sys.setswitchinterval(_switch_saved)


class AllocationServer:
    """A warm runtime + RR-store behind a bounded request queue.

    Parameters
    ----------
    instance:
        The RM problem instance served (budgets/costs/cpes for ``allocate``;
        its graph seeds the store when no checkpoint exists).
    policy:
        :class:`~repro.runtime.ExecutionPolicy` for every engine pass;
        ``None`` resolves to the ``fast`` preset.
    service:
        :class:`~repro.serve.lifecycle.ServicePolicy`; defaults apply.
    rr_sets:
        Slots to generate when bootstrapping a fresh store (ignored on
        checkpoint restore — the snapshot fixes the slot count).
    seed:
        Store entropy for a fresh bootstrap (ignored on restore).
    checkpoint_dir:
        Directory for the checkpoint + delta journal; ``None`` disables
        durability (a restart regenerates from ``instance``).
    runtime:
        Optional externally-owned :class:`~repro.runtime.Runtime`; when
        ``None`` the server creates and owns one (closed on
        :meth:`close`).
    """

    def __init__(
        self,
        instance: RMInstance,
        policy: Optional[ExecutionPolicy] = None,
        service: Optional[ServicePolicy] = None,
        rr_sets: int = 2000,
        seed: int = 7,
        checkpoint_dir: Optional[Path] = None,
        runtime: Optional[Runtime] = None,
        start_method: Optional[str] = None,
    ):
        if rr_sets <= 0:
            raise ServiceError(f"rr_sets must be positive, got {rr_sets}")
        self._instance = instance
        self._policy = resolve_policy(policy)
        self._service = service if service is not None else ServicePolicy()
        self._rr_sets = int(rr_sets)
        self._seed = int(seed)
        self._owns_runtime = runtime is None
        self._runtime = (
            runtime
            if runtime is not None
            else Runtime(self._policy, start_method=start_method)
        )
        self._checkpoints = (
            CheckpointManager(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._view: Optional[MutableGraphView] = None
        self._store: Optional[RRStore] = None
        self._epoch_offset = 0
        self._restored = False
        self._replayed_batches = 0
        self._batches_since_checkpoint = 0
        self._queue: "queue.Queue[Ticket]" = queue.Queue(
            maxsize=self._service.queue_depth
        )
        self._stats = ServerStats()
        self._state = STARTING
        self._state_lock = threading.Lock()
        self._drain_event = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_requested = False
        #: Dispatch-thread-only flag: the in-progress request was interrupted
        #: by a worker crash after its batch was applied (resume, don't redo).
        self._resume_pending = False
        self._thread: Optional[threading.Thread] = None
        self._handlers: Dict[str, Callable[[Dict[str, Any], Optional[float]], Dict[str, Any]]] = {
            "ping": self._op_ping,
            "stats": self._op_stats,
            "spread": self._op_spread,
            "allocate": self._op_allocate,
            "refresh": self._op_refresh,
            "checkpoint": self._op_checkpoint,
            "burn": self._op_burn,
            "shutdown": self._op_shutdown,
        }

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        """Current lifecycle state (``starting``/``serving``/``draining``/``stopped``)."""
        return self._state

    @property
    def epoch(self) -> int:
        """Absolute delta epoch: checkpoint base + batches absorbed since."""
        view_epoch = self._view.epoch if self._view is not None else 0
        return self._epoch_offset + view_epoch

    @property
    def store(self) -> Optional[RRStore]:
        """The served RR-store (``None`` before :meth:`start`)."""
        return self._store

    @property
    def runtime(self) -> Runtime:
        """The warm runtime whose pool every engine pass reuses."""
        return self._runtime

    @property
    def stats(self) -> ServerStats:
        """Mutable request counters."""
        return self._stats

    @property
    def service(self) -> ServicePolicy:
        """The frozen service policy."""
        return self._service

    @property
    def restored(self) -> bool:
        """Whether the store came from a checkpoint (vs fresh generation)."""
        return self._restored

    @property
    def replayed_batches(self) -> int:
        """Journal entries replayed during checkpoint restore."""
        return self._replayed_batches

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "AllocationServer":
        """Bootstrap (or recover) the store and start the dispatch thread."""
        if self._state == STOPPED:
            raise ServiceError("server already stopped; build a new one")
        if self._thread is not None:
            raise ServiceError("server already started")
        self._bootstrap()
        with self._state_lock:
            self._state = SERVING
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def _bootstrap(self) -> None:
        if self._checkpoints is not None and self._checkpoints.has_checkpoint():
            restored = self._checkpoints.restore(
                policy=self._policy, runtime=self._runtime
            )
            self._view = restored.view
            self._store = restored.store
            # Replayed batches advanced view.epoch past 0; the offset keeps
            # absolute epochs continuous across the restart.
            self._epoch_offset = restored.base_epoch
            self._restored = True
            self._replayed_batches = restored.replayed_batches
        else:
            self._view = MutableGraphView(
                self._instance.graph, self._instance.all_edge_probabilities()
            )
            self._store = RRStore(
                self._view,
                self._instance.cpes(),
                seed=self._seed,
                policy=self._policy,
                runtime=self._runtime,
            )
            self._store.generate(self._rr_sets)
            if self._checkpoints is not None:
                # An initial checkpoint means recovery never has to redo the
                # (expensive) initial generation.
                self._save_checkpoint()

    def initiate_drain(self) -> None:
        """Begin draining: reject new admissions, finish in-flight tickets.

        Idempotent and callable from any thread (signal handlers, transport
        EOF, the ``shutdown`` op).  The dispatch thread completes the drain
        and flips the server to ``stopped``.
        """
        with self._state_lock:
            if self._state in (DRAINING, STOPPED):
                self._drain_event.set()
                return
            self._state = DRAINING
        self._drain_event.set()

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until the dispatch loop has fully stopped."""
        return self._stopped.wait(timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain, stop the dispatch thread and release owned resources."""
        if self._thread is None:
            with self._state_lock:
                self._state = STOPPED
            self._stopped.set()
        else:
            self.initiate_drain()
            join_timeout = (
                timeout
                if timeout is not None
                else self._service.drain_grace_s + 30.0
            )
            self._thread.join(join_timeout)
        if self._checkpoints is not None:
            self._checkpoints.journal.close()
        if self._owns_runtime:
            self._runtime.close()

    def __enter__(self) -> "AllocationServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: Any,
        on_done: Optional[Callable[[Ticket], None]] = None,
    ) -> Ticket:
        """Admit one parsed request; always returns a ticket that will resolve.

        Rejections (malformed envelope, draining, queue full) resolve the
        ticket immediately on the calling thread with a structured error;
        accepted tickets resolve from the dispatch thread.
        """
        ticket = Ticket(
            request if isinstance(request, dict) else {}, on_done=on_done
        )
        try:
            ticket.request = protocol.validate_request(request)
        except ProtocolError as exc:
            self._stats.bump("rejected")
            self._reject(ticket, exc.code, str(exc), raw_id=protocol.request_id(request))
            return ticket
        if self._state != SERVING:
            self._stats.bump("rejected")
            self._reject(
                ticket,
                protocol.DRAINING_REJECTED,
                f"server is {self._state}; not accepting new requests",
            )
            return ticket
        try:
            self._queue.put_nowait(ticket)
            self._stats.bump("accepted")
        except queue.Full:
            self._stats.bump("shed")
            self._reject(
                ticket,
                protocol.OVERLOADED,
                f"admission queue is full (queue_depth="
                f"{self._service.queue_depth}); retry later",
            )
        return ticket

    def submit_text(
        self,
        line: str,
        on_done: Optional[Callable[[Ticket], None]] = None,
    ) -> Ticket:
        """Admit one raw protocol line (transport entry point)."""
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            ticket = Ticket({}, on_done=on_done)
            self._stats.bump("rejected")
            self._reject(ticket, exc.code, str(exc), raw_id=protocol.request_id(line))
            return ticket
        return self.submit(request, on_done=on_done)

    def request(self, request: Dict[str, Any], timeout: float = 120.0) -> Dict[str, Any]:
        """Submit and block for the reply (in-process convenience)."""
        return self.submit(request).wait(timeout)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        with _short_switch_interval():
            self._dispatch_until_drained()

    def _dispatch_until_drained(self) -> None:
        drain_deadline: Optional[float] = None
        while True:
            if self._drain_event.is_set() and drain_deadline is None:
                drain_deadline = time.monotonic() + self._service.drain_grace_s
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._drain_event.is_set():
                    break
                continue
            batch = [first]
            while len(batch) < self._service.max_inflight:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._process_batch(batch, drain_deadline)
            if self._shutdown_requested and not self._drain_event.is_set():
                self.initiate_drain()
        self._finalize(drain_deadline)

    def _finalize(self, drain_deadline: Optional[float]) -> None:
        # Reject stragglers that raced admission against the drain flip.
        while True:
            try:
                ticket = self._queue.get_nowait()
            except queue.Empty:
                break
            self._stats.bump("rejected")
            self._reject(
                ticket, protocol.DRAINING_REJECTED, "server drained before dispatch"
            )
        if self._checkpoints is not None and self._store is not None:
            try:
                self._repair_store()
                self._save_checkpoint()
            except ReproError:  # pragma: no cover - best-effort final snapshot
                pass
        with self._state_lock:
            self._state = STOPPED
        self._stopped.set()

    def _process_batch(
        self, batch: List[Ticket], drain_deadline: Optional[float]
    ) -> None:
        # Coalesce identical read-only requests into one engine pass; every
        # mutating/diagnostic op keeps a private group (object-id key).
        groups: Dict[Any, List[Ticket]] = {}
        order: List[Any] = []
        for ticket in batch:
            op = ticket.request.get("op")
            if op in _COALESCABLE:
                key: Any = (
                    op,
                    json.dumps(
                        {k: v for k, v in ticket.request.items() if k != "id"},
                        sort_keys=True,
                        default=str,
                    ),
                )
            else:
                key = id(ticket)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(ticket)
        for key in order:
            tickets = groups[key]
            if drain_deadline is not None and time.monotonic() > drain_deadline:
                for ticket in tickets:
                    self._stats.bump("rejected")
                    self._reject(
                        ticket,
                        protocol.DRAINING_REJECTED,
                        f"drain grace of {self._service.drain_grace_s:g}s "
                        "expired before dispatch",
                    )
                continue
            ok, body = self._execute(tickets[0])
            self._stats.bump("coalesced", len(tickets) - 1)
            for ticket in tickets:
                self._resolve(ticket, ok, body)
            # Yield the GIL, so that the reply writers send these replies
            # now rather than a switch interval into the next handler.
            time.sleep(0)

    def _execute(self, ticket: Ticket) -> Tuple[bool, Dict[str, Any]]:
        """Run one request to a (ok, body) verdict, enforcing its deadline."""
        request = ticket.request
        op = request["op"]
        deadline_s = request.get("deadline_s", self._service.deadline_s)
        deadline = (
            None if deadline_s is None else ticket.arrival + float(deadline_s)
        )
        attempts = 0
        self._resume_pending = False
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._stats.bump("deadline_timeouts")
                    return False, {
                        "code": protocol.DEADLINE_EXCEEDED,
                        "message": f"deadline of {deadline_s:g}s exceeded "
                        f"before {op!r} could run",
                    }
            try:
                handler = self._handlers[op]
                if remaining is not None:
                    guard = FailurePolicy.fail_fast(shard_timeout_s=remaining)
                    with self._runtime.overriding_failure(guard):
                        return True, handler(request, deadline)
                return True, handler(request, deadline)
            except DeadlineExceeded as exc:
                # Repair of any interrupted maintenance is deferred to the
                # next store-touching request — the timeout reply must not
                # wait on it (the 2x-deadline reply bound).
                self._stats.bump("deadline_timeouts")
                return False, {
                    "code": protocol.DEADLINE_EXCEEDED,
                    "message": str(exc),
                }
            except ShardTimeoutError as exc:
                self._stats.bump("deadline_timeouts")
                return False, {
                    "code": protocol.DEADLINE_EXCEEDED,
                    "message": f"deadline of {deadline_s:g}s exceeded "
                    f"in sharded execution: {exc}",
                }
            except WorkerCrashError as exc:
                # Only reachable under the fail-fast deadline override (the
                # default degrade policy absorbs crashes internally).
                # Determinism makes the re-execution bit-identical, so the
                # retry is invisible to the client.
                attempts += 1
                self._stats.bump("request_retries")
                if attempts > self._service.request_retries:
                    self._stats.bump("failed")
                    return False, {
                        "code": protocol.INTERNAL,
                        "message": f"workers kept crashing across "
                        f"{attempts} attempts: {exc}",
                    }
                self._resume_pending = self._store.maintenance_pending
                continue
            except ProtocolError as exc:
                return False, {"code": exc.code, "message": str(exc)}
            except ReproError as exc:
                self._stats.bump("failed")
                return False, {
                    "code": protocol.INTERNAL,
                    "message": f"{type(exc).__name__}: {exc}",
                }

    def _repair_store(self) -> None:
        """Finish any interrupted maintenance so the next request can serve.

        Runs outside every deadline override, so the retry recovers under
        the policy's own (default: degrade-mode) failure handling.
        """
        if self._store is not None and self._store.maintenance_pending:
            self._store.retry_maintenance()

    # ------------------------------------------------------------------ #
    # reply plumbing
    # ------------------------------------------------------------------ #
    def _envelope(self, ticket: Ticket) -> Dict[str, Any]:
        return {
            "id": ticket.request.get("id"),
            "epoch": self.epoch,
            "state": self._state,
            "recovery": self._runtime.recovery_stats.as_dict(),
        }

    def _resolve(self, ticket: Ticket, ok: bool, body: Dict[str, Any]) -> None:
        reply = self._envelope(ticket)
        reply["ok"] = ok
        if ok:
            self._stats.bump("completed")
            reply["result"] = body
        else:
            reply["error"] = body
        ticket.resolve(reply)

    def _reject(
        self,
        ticket: Ticket,
        code: str,
        message: str,
        raw_id: Optional[Any] = None,
    ) -> None:
        reply = self._envelope(ticket)
        if reply["id"] is None and raw_id is not None:
            reply["id"] = raw_id
        reply["ok"] = False
        reply["error"] = {"code": code, "message": message}
        ticket.resolve(reply)

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def _op_ping(self, request: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
        return {"pong": True, "slots": len(self._store)}

    def _op_stats(self, request: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
        checkpoint_info: Dict[str, Any] = {"enabled": self._checkpoints is not None}
        if self._checkpoints is not None:
            checkpoint_info.update(
                restored=self._restored,
                replayed_batches=self._replayed_batches,
                batches_since_checkpoint=self._batches_since_checkpoint,
                path=str(self._checkpoints.checkpoint_path),
            )
        return {
            "state": self._state,
            "epoch": self.epoch,
            "slots": len(self._store),
            "redraws_total": self._store.redraws_total,
            "pool_spawns": self._runtime.pool_spawn_count,
            "payload_mode": self._runtime.pool.payload_mode,
            "requests": self._stats.as_dict(),
            "service": self._service.as_dict(),
            "checkpoint": checkpoint_info,
        }

    def _op_spread(self, request: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
        self._repair_store()
        advertiser = request.get("advertiser")
        if not isinstance(advertiser, int) or isinstance(advertiser, bool):
            raise ProtocolError("'advertiser' must be an integer")
        if not 0 <= advertiser < self._view.num_advertisers:
            raise ProtocolError(
                f"advertiser {advertiser} out of range "
                f"[0, {self._view.num_advertisers})"
            )
        raw_seeds = request.get("seeds", [])
        if not isinstance(raw_seeds, list):
            raise ProtocolError("'seeds' must be a list of node ids")
        seeds: List[int] = []
        for node in raw_seeds:
            if not isinstance(node, int) or isinstance(node, bool):
                raise ProtocolError("'seeds' must be a list of integers")
            if not 0 <= node < self._view.num_nodes:
                raise ProtocolError(
                    f"seed node {node} out of range [0, {self._view.num_nodes})"
                )
            seeds.append(node)
        collection = self._store.collection
        # One count feeds both fields; revenue is estimate_advertiser_revenue's
        # expression on it.
        covered = collection.coverage_count(advertiser, seeds)
        return {
            "advertiser": advertiser,
            "seeds": sorted(set(seeds)),
            "revenue": revenue_scale(collection, self._store.gamma) * covered,
            "covered_rr_sets": covered,
            "rr_sets": len(collection),
        }

    def _op_allocate(self, request: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
        self._repair_store()
        tau = request.get("tau", 0.1)
        if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not 0 < tau < 1:
            raise ProtocolError(f"'tau' must be a number in (0, 1), got {tau!r}")
        budget_scale = request.get("budget_scale", 1.0)
        if (
            not isinstance(budget_scale, (int, float))
            or isinstance(budget_scale, bool)
            or budget_scale <= 0
        ):
            raise ProtocolError(
                f"'budget_scale' must be a positive number, got {budget_scale!r}"
            )
        instance = (
            self._instance
            if budget_scale == 1.0
            else self._instance.with_scaled_budgets(float(budget_scale))
        )
        oracle = RRSetOracle(self._store.collection, self._store.gamma)
        result = rm_with_oracle(instance, oracle, tau=float(tau))
        return {
            "allocation": {
                str(advertiser): sorted(int(node) for node in seeds)
                for advertiser, seeds in result.allocation.items()
            },
            "revenue": result.revenue,
            "seeding_cost": result.seeding_cost,
            "per_advertiser_revenue": {
                str(advertiser): revenue
                for advertiser, revenue in sorted(
                    result.per_advertiser_revenue.items()
                )
            },
            "depleted_budgets": result.depleted_budgets,
            "rr_sets": len(self._store.collection),
        }

    def _op_refresh(self, request: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
        if self._store.maintenance_pending and self._resume_pending:
            # Re-entry after a worker crash interrupted *this* batch: it is
            # already journaled and applied to the view, so finishing the
            # redraw is the only remaining work.
            report = self._store.retry_maintenance()
        else:
            # Interrupted maintenance left by an *earlier* request (e.g. a
            # deadline-exceeded refresh) must finish before a new batch.
            self._repair_store()
            raw = request.get("deltas", [])
            if not isinstance(raw, list):
                raise ProtocolError("'deltas' must be a list of delta objects")
            deltas = [protocol.delta_from_json(obj) for obj in raw]
            if self._checkpoints is not None:
                # Write-ahead: the batch becomes durable *before* the store
                # sees it; the reply is the acknowledgement.
                self._checkpoints.journal.append(self.epoch + 1, deltas)
            report = self._store.apply_deltas(deltas)
        self._batches_since_checkpoint += 1
        if (
            self._checkpoints is not None
            and self._service.checkpoint_every > 0
            and self._batches_since_checkpoint >= self._service.checkpoint_every
        ):
            self._save_checkpoint()
        return {
            "epoch": self.epoch,
            "total": report.total,
            "invalidated": report.invalidated,
            "redrawn": report.redrawn,
            "kept": report.kept,
            "reason": report.reason,
        }

    def _op_checkpoint(self, request: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
        if self._checkpoints is None:
            raise ProtocolError(
                "server has no checkpoint directory configured"
            )
        self._repair_store()
        path = self._save_checkpoint()
        return {"path": str(path), "epoch": self.epoch}

    def _op_burn(self, request: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
        """Diagnostic busy-wait — the deadline/drain test surface.

        Deterministically slow without touching the store, and cooperative:
        it polls the request deadline so timeout tests need no worker pool.
        """
        seconds = request.get("seconds", 0.05)
        if (
            not isinstance(seconds, (int, float))
            or isinstance(seconds, bool)
            or seconds < 0
        ):
            raise ProtocolError(
                f"'seconds' must be a non-negative number, got {seconds!r}"
            )
        end = time.monotonic() + float(seconds)
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise DeadlineExceeded(
                    f"burn of {seconds:g}s aborted at the request deadline"
                )
            if now >= end:
                break
            time.sleep(min(0.01, end - now))
        return {"burned_s": float(seconds)}

    def _op_shutdown(self, request: Dict[str, Any], deadline: Optional[float]) -> Dict[str, Any]:
        # The reply goes out first; the dispatch loop flips to draining
        # right after this batch completes.
        self._shutdown_requested = True
        return {"draining": True}

    # ------------------------------------------------------------------ #
    def _save_checkpoint(self) -> Path:
        path = self._checkpoints.save_state(self._view, self._store, self.epoch)
        self._batches_since_checkpoint = 0
        return path
