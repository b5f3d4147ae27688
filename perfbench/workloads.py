"""The four benchmark workloads: RMA solve, TI-CARM solve, refresh, serve.

Every workload follows one shape:

1. ``prepare(seed, seconds)`` builds every input from the workload seed —
   solver seeds, delta batches, ``spread`` queries — before anything is
   timed, as many as ``seconds`` can use at a generous cap on speed.
2. ``setup()`` builds what a user builds once (dataset, worker pool,
   evaluator or RR store, or a listening server); it is timed as ``setup_s``.
3. ``measure()`` runs the user-facing calls for the given number of seconds
   (back to back, or on a schedule for the serve reader) and checks each
   output.
4. ``verify()`` runs the end-of-run checks outside the timed loop.

The network of each workload is fixed (dataset seed :data:`DATASET_SEED`,
the CLI default), so run-to-run differences come from the seeded solver and
request streams, not from graphs whose edge count swings by a quarter
between dataset seeds at these sizes.
"""

from __future__ import annotations

import functools
import json
import os
import queue
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks
from perfbench.tracing import OP, REQUEST, UNATTRIBUTED_TOLERANCE, Tracer

#: Seed of the synthetic network every workload runs on.
DATASET_SEED = 7
#: Worker processes; pinned because the worker count changes results.
N_JOBS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Advertisers (h) of every network.
ADVERTISERS = 5
#: ϱ, the budget slack of RMA and the budget scaling of TI-CARM.
RHO = 0.1
#: Deltas per refresh batch.
BATCH_SIZE = 8
#: Poisson rate of the ``spread`` reader, per second.  A read's latency is
#: the rest of the writer operation it arrives behind, so it is spread flat
#: over 0-170 ms and its median needs many samples: at 20/s the median of a
#: run moved 16% between seeds, at 60/s 7%.  A read costs ~0.2 ms of the
#: dispatch thread, so the reads barely slow the writer.
READ_RATE = 60.0
#: Generous caps on operations per second, from which the number of
#: pre-generated inputs is worked out: a refresh round (~0.3 s today) and a
#: serve write (allocate ~0.15 s, refresh a few ms).  A window whose inputs
#: run out anyway ends early and says so (:attr:`Window.exhausted`).
MAX_REFRESH_PER_S = 50
MAX_WRITES_PER_S = 200
#: Where sockets and trace files go, relative to the checkout root.
OUT_DIR = Path(".bench_out")
#: Iterations of the calibration loop, and its time at nominal host speed
#: (about its time on an unloaded 2-vCPU VM).
CALIBRATION_LOOP = 40_000
CALIBRATION_NOMINAL_S = 0.0025


def host_slowdown() -> float:
    """How many times slower than nominal a fixed pure-Python loop runs now.

    On the 2-vCPU VM this benchmark was built on, the same loop alternates
    between two speeds ~1.75x apart for seconds to minutes at a time, with
    no CPU steal visible inside the VM.  Dividing a measured interval by the
    slowdown around it reports the interval at nominal host speed.
    """
    times = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_LOOP):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.median(times) / CALIBRATION_NOMINAL_S


@dataclass
class Window:
    """What one measurement window observed.

    ``latencies`` are wall times and ``started`` when each began; ``scaled``
    holds the same at nominal host speed (see :func:`host_slowdown`) and
    ``slowdowns`` the factor each one used.
    """

    latencies: Dict[str, List[float]] = field(default_factory=dict)
    started: Dict[str, List[float]] = field(default_factory=dict)
    scaled: Dict[str, List[float]] = field(default_factory=dict)
    slowdowns: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    revenue: List[float] = field(default_factory=list)
    #: How late an open-loop generator sent its latest request, at worst.
    lag_s: float = 0.0
    #: Whether the pre-generated inputs ran out before the window's end.
    exhausted: bool = False

    def add(self, kind: str, seconds: float, problems: List[str],
            slowdown: float = 1.0, at: float = 0.0) -> None:
        self.latencies.setdefault(kind, []).append(seconds)
        self.started.setdefault(kind, []).append(at)
        self.scaled.setdefault(kind, []).append(seconds / slowdown)
        self.slowdowns.append(slowdown)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def rescale(self, times: List[float], slowdowns: List[float]) -> None:
        """Scale each latency by the slowdown interpolated at its start."""
        self.scaled, self.slowdowns = {}, []
        for kind, values in self.latencies.items():
            factors = np.interp(self.started[kind], times, slowdowns)
            self.scaled[kind] = (np.asarray(values) / factors).tolist()
            self.slowdowns.extend(factors.tolist())

    def merge(self, other: "Window") -> None:
        for kind, values in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(values)
            self.started.setdefault(kind, []).extend(other.started[kind])
            self.scaled.setdefault(kind, []).extend(other.scaled[kind])
        self.slowdowns.extend(other.slowdowns)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.wall_s += other.wall_s
        self.revenue.extend(other.revenue)
        self.lag_s = max(self.lag_s, other.lag_s)
        self.exhausted = self.exhausted or other.exhausted


def input_count(seconds: float, max_per_s: float) -> int:
    """Inputs enough for ``seconds`` at ``max_per_s``, with a margin."""
    return int(seconds * max_per_s) + 100


def percentile_ms(values: List[float], q: float) -> float:
    """The ``q``-th percentile of latencies in seconds, in milliseconds."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values), q)) * 1000.0


def _policy():
    from repro.runtime import ExecutionPolicy

    return ExecutionPolicy.fast(n_jobs=N_JOBS)


# ---------------------------------------------------------------------- #
# input generation
# ---------------------------------------------------------------------- #
def delta_batches(graph, num_advertisers: int, batches: int, size: int, rng) -> List[list]:
    """Valid-in-order delta batches: mostly probability updates, some edge
    insertions and removals, like ``repro refresh`` synthesizes."""
    from repro.graph.deltas import AddEdge, RemoveEdge, UpdateProbability

    edges = list(zip(graph.sources.tolist(), graph.targets.tolist()))
    index = {edge: i for i, edge in enumerate(edges)}
    n = graph.num_nodes

    def drop(edge):
        i = index.pop(edge)
        last = edges.pop()
        if i < len(edges):
            edges[i] = last
            index[last] = i

    out = []
    for _ in range(batches):
        batch = []
        while len(batch) < size:
            roll = rng.random()
            if roll < 0.7:
                u, v = edges[int(rng.integers(len(edges)))]
                batch.append(
                    UpdateProbability(
                        u, v, float(rng.uniform(0.01, 0.5)),
                        advertiser=int(rng.integers(num_advertisers)),
                    )
                )
            elif roll < 0.85:
                u, v = int(rng.integers(n)), int(rng.integers(n))
                if u == v or (u, v) in index:
                    continue
                probabilities = tuple(float(p) for p in rng.uniform(0.01, 0.5, num_advertisers))
                batch.append(AddEdge(u, v, probabilities))
                index[(u, v)] = len(edges)
                edges.append((u, v))
            else:
                u, v = edges[int(rng.integers(len(edges)))]
                batch.append(RemoveEdge(u, v))
                drop((u, v))
        out.append(batch)
    return out


def spread_queries(num_nodes: int, num_advertisers: int, count: int, rng) -> List[dict]:
    """``spread`` requests for random advertisers and 1–10 random seeds."""
    queries = []
    for _ in range(count):
        k = int(rng.integers(1, 11))
        seeds = rng.choice(num_nodes, size=k, replace=False)
        queries.append(
            {
                "op": "spread",
                "advertiser": int(rng.integers(num_advertisers)),
                "seeds": sorted(int(s) for s in seeds),
            }
        )
    return queries


# ---------------------------------------------------------------------- #
# the in-process loop workloads
# ---------------------------------------------------------------------- #
class LoopWorkload:
    """A workload whose operation runs back to back on the main thread."""

    name = ""
    kind = "op"
    #: Pre-generated inputs ``op`` consumes in order; ``None`` for unlimited.
    inputs: Optional[list] = None
    #: Largest share of a traced operation no layer span may cover.
    unattributed_tolerance = UNATTRIBUTED_TOLERANCE

    def measure(self, state, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        window = Window()
        started = time.perf_counter()
        # Inputs are consumed in order across windows (delta batches must be).
        index = state.get("next", 0)
        before = host_slowdown()
        while time.perf_counter() - started < seconds:
            if self.inputs is not None and index >= len(self.inputs):
                window.exhausted = True
                break
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.span(OP, request=index):
                    output = self.op(state, index)
            else:
                output = self.op(state, index)
            elapsed = time.perf_counter() - t0
            after = host_slowdown()
            window.add(self.kind, elapsed, self.check(state, index, output), (before + after) / 2)
            before = after
            index += 1
        window.wall_s = time.perf_counter() - started
        state["next"] = index
        return window

    def close(self, state) -> None:
        state["runtime"].close()

    def runtime_of(self, state):
        return state["runtime"]


class SolveWorkload(LoopWorkload):
    """Repeated ``run_algorithm`` on one warm runtime and evaluator."""

    kind = "solve"
    algorithm = ""

    def __init__(self, dataset: str, scale: float, evaluation_rr_sets: int = 10000):
        self.dataset = dataset
        self.scale = scale
        self.evaluation_rr_sets = evaluation_rr_sets

    def prepare(self, seed: int, seconds: float) -> None:
        self.seed = seed

    def setup(self):
        from repro.datasets.registry import build_dataset
        from repro.experiments.metrics import independent_evaluator
        from repro.runtime import Runtime

        policy = _policy()
        data = build_dataset(
            self.dataset,
            num_advertisers=ADVERTISERS,
            scale=self.scale,
            seed=DATASET_SEED,
            singleton_rr_sets=500,
        )
        runtime = Runtime(policy)
        evaluator = independent_evaluator(
            data.instance,
            num_rr_sets=self.evaluation_rr_sets,
            seed=self.seed + 1,
            policy=policy,
            runtime=runtime,
        )
        return {"data": data, "runtime": runtime, "evaluator": evaluator, "first": None}

    def op(self, state, index: int):
        from repro.experiments.runner import run_algorithm

        return run_algorithm(
            self.algorithm,
            self.instance(state),
            evaluator=state["evaluator"],
            runtime=state["runtime"],
            **self.params(),
        )

    def check(self, state, index: int, run) -> List[str]:
        instance = self.instance(state)
        problems = checks.solve_errors(run, instance.num_nodes, self.budget_caps(state))
        allocation = {a: sorted(s) for a, s in run.solver_result.allocation.items()}
        if state["first"] is None:
            state["first"] = allocation
            state["revenue"] = run.evaluation.revenue
        elif allocation != state["first"]:
            problems.append("a repeated solve with the same seed changed its allocation")
        return problems

    def verify(self, state) -> List[str]:
        return []

    def revenue(self, state) -> float:
        return float(state.get("revenue", 0.0))


class SolveRMA(SolveWorkload):
    name = "solve_rma"
    algorithm = "RMA"

    def __init__(self, scale: float = 0.2, initial_rr_sets: int = 512,
                 max_rr_sets: int = 4096, **kwargs):
        super().__init__("flixster_like", scale, **kwargs)
        self.initial_rr_sets = initial_rr_sets
        self.max_rr_sets = max_rr_sets

    def instance(self, state):
        return state["data"].instance

    def params(self) -> dict:
        from repro.core.sampling_solver import SamplingParameters

        return {
            "sampling_params": SamplingParameters(
                epsilon=0.1,
                rho=RHO,
                tau=0.1,
                initial_rr_sets=self.initial_rr_sets,
                max_rr_sets=self.max_rr_sets,
                policy=_policy(),
                seed=self.seed,
            )
        }

    def budget_caps(self, state):
        return state["data"].instance.budgets() * (1.0 + RHO)


class SolveTICARM(SolveWorkload):
    name = "solve_ti_carm"
    algorithm = "TI-CARM"

    def __init__(self, scale: float = 0.01, rr_sets_per_advertiser: int = 4096, **kwargs):
        super().__init__("snap_scale", scale, **kwargs)
        self.rr_sets_per_advertiser = rr_sets_per_advertiser

    def setup(self):
        state = super().setup()
        # The baselines receive the (1 + rho)-scaled budgets, as in the paper.
        state["scaled"] = state["data"].instance.with_scaled_budgets(1.0 + RHO)
        return state

    def instance(self, state):
        return state["scaled"]

    def params(self) -> dict:
        from repro.baselines.ti_common import TIParameters

        return {
            "ti_params": TIParameters(
                epsilon=0.1,
                pilot_size=128,
                max_rr_sets_per_advertiser=self.rr_sets_per_advertiser,
                policy=_policy(),
                seed=self.seed,
            )
        }

    def budget_caps(self, state):
        return state["scaled"].budgets()


class RefreshStream(LoopWorkload):
    """``RRStore.apply_deltas`` over pre-generated delta batches."""

    name = "refresh_stream"
    kind = "refresh"

    def __init__(self, scale: float = 0.01, slots: int = 4000):
        self.scale = scale
        self.slots = slots

    def _dataset(self):
        from repro.datasets.registry import build_dataset

        return build_dataset(
            "snap_scale",
            num_advertisers=ADVERTISERS,
            scale=self.scale,
            seed=DATASET_SEED,
            singleton_rr_sets=128,
        )

    def prepare(self, seed: int, seconds: float) -> None:
        self.seed = seed
        graph = self._dataset().instance.graph
        rng = np.random.default_rng([seed, 1])
        batches = input_count(seconds, MAX_REFRESH_PER_S)
        self.inputs = delta_batches(graph, ADVERTISERS, batches, BATCH_SIZE, rng)

    def setup(self):
        from repro.graph.deltas import MutableGraphView
        from repro.rrsets.store import RRStore
        from repro.runtime import Runtime

        policy = _policy()
        instance = self._dataset().instance
        runtime = Runtime(policy)
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(view, instance.cpes(), seed=self.seed, policy=policy, runtime=runtime)
        store.generate(self.slots)
        return {"runtime": runtime, "store": store, "rounds": 0, "redrawn": 0}

    def op(self, state, index: int):
        return state["store"].apply_deltas(self.inputs[index])

    def check(self, state, index: int, report) -> List[str]:
        state["rounds"] += 1
        state["redrawn"] += report.redrawn
        return checks.refresh_report_errors(report, self.slots, state["rounds"])

    def verify(self, state) -> List[str]:
        """The maintained store must equal a fresh regeneration (``refresh --verify``)."""
        from repro.graph.deltas import MutableGraphView
        from repro.rrsets.store import RRStore

        store = state["store"]
        view = MutableGraphView(store.view.graph, store.view.advertiser_edge_probabilities)
        fresh = RRStore(view, store.cpes, seed=store.seed, policy=store.policy,
                        runtime=state["runtime"])
        fresh.generate(len(store))
        if checks.stores_equal(store, fresh):
            return []
        return ["maintained store differs from a fresh regeneration"]

    def revenue(self, state) -> float:
        return 0.0


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
class Connection:
    """A line-protocol client on a Unix socket."""

    def __init__(self, path: str, timeout: float = 60.0):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(path)
        self._timeout = timeout
        self._buffer = b""

    def send(self, line: str) -> None:
        self._sock.sendall(line.encode("utf-8"))

    def receive(self, wait: float) -> List[dict]:
        """Every complete reply available within ``wait`` seconds."""
        if b"\n" not in self._buffer:
            ready, _, _ = select.select([self._sock], [], [], max(0.0, wait))
            if ready:
                data = self._sock.recv(1 << 16)
                if not data:
                    raise ConnectionError("server closed the connection")
                self._buffer += data
        *lines, self._buffer = self._buffer.split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]

    def call(self, line: str) -> dict:
        """Send one request and wait for its reply (nothing else in flight)."""
        self.send(line)
        deadline = time.monotonic() + self._timeout
        while time.monotonic() < deadline:
            replies = self.receive(deadline - time.monotonic())
            if replies:
                return replies[0]
        raise TimeoutError(f"no reply within {self._timeout:g}s")

    def close(self) -> None:
        self._sock.close()


class ServeMixed:
    """Connection A reads ``spread`` in an open loop (Poisson arrivals at
    :data:`READ_RATE` per second, each timed from when it was due);
    connection B is a closed loop alternating ``allocate`` and ``refresh``.
    The server is a ``repro serve`` subprocess, or with :attr:`in_process`
    (for the traced half of a traced run) an in-process server behind the
    same socket listener.
    """

    name = "serve_mixed"
    kind = "spread"
    #: The client side of each request (encoding, the socket, decoding), the
    #: GIL hand-offs between client and dispatch threads and the reader's
    #: send lag are in no layer of ``repro``: 7-8% of a request's wall time.
    unattributed_tolerance = 0.15

    def __init__(self, scale: float = 0.3, rr_sets: int = 4000, queries: int = 2048):
        self.scale = scale
        self.rr_sets = rr_sets
        self.queries = queries
        self.in_process = False

    def _dataset(self):
        from repro.datasets.registry import build_dataset

        # The same call ``repro serve`` makes for these flags.
        return build_dataset(
            "flixster_like",
            num_advertisers=ADVERTISERS,
            scale=self.scale,
            seed=DATASET_SEED,
            singleton_rr_sets=128,
        )

    def prepare(self, seed: int, seconds: float) -> None:
        from repro.serve.protocol import delta_to_json

        self.seed = seed
        instance = self._dataset().instance
        self.num_nodes = instance.num_nodes
        self.budgets = instance.budgets()
        self.costs = instance.cost_matrix()
        rng = np.random.default_rng([seed, 2])
        # Reads are read-only, so the reader cycles through these queries.
        self.reads = spread_queries(instance.num_nodes, ADVERTISERS, self.queries, rng)
        # Arrivals for twice the window; a window restarts the schedule at its start.
        gaps = rng.exponential(1.0 / READ_RATE, size=input_count(2 * seconds, READ_RATE))
        self.arrivals = np.cumsum(gaps).tolist()
        # Writes are never reused: each refresh batch is sent once per server.
        self.writes = []
        batches = input_count(seconds, MAX_WRITES_PER_S) // 2
        for batch in delta_batches(instance.graph, ADVERTISERS, batches, BATCH_SIZE, rng):
            self.writes.append({"op": "allocate", "tau": 0.1})
            self.writes.append({"op": "refresh", "deltas": [delta_to_json(d) for d in batch]})
        OUT_DIR.mkdir(exist_ok=True)
        self.socket_path = str(OUT_DIR / f"serve-{os.getpid()}.sock")

    # -- set-up --------------------------------------------------------- #
    def setup(self):
        if self.in_process:
            return self._setup_in_process()
        return self._setup_subprocess()

    def _setup_subprocess(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # ``repro serve`` through perfbench/processes.py, which also reaps
        # the server's own children when it exits.
        command = [
            sys.executable, str(Path(__file__).resolve().parent / "processes.py"),
            "--dataset", "flixster_like", "--scale", str(self.scale),
            "--advertisers", str(ADVERTISERS), "--seed", str(DATASET_SEED),
            "--rr-sets", str(self.rr_sets), "--jobs", str(N_JOBS),
            "--unix-socket", self.socket_path,
        ]
        process = subprocess.Popen(
            command, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        lines: "queue.Queue[Optional[str]]" = queue.Queue()

        def drain():
            for line in process.stderr:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        state = {"process": process, "reader": reader, "stderr": []}
        deadline = time.monotonic() + 120
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self._stop_subprocess(state)
                raise RuntimeError("serve did not start: " + "".join(state["stderr"][-5:]))
            state["stderr"].append(line)
            if line.startswith("listening:"):
                return state

    def _setup_in_process(self):
        from repro.serve import AllocationServer, SocketListener

        server = AllocationServer(
            self._dataset().instance, policy=_policy(), rr_sets=self.rr_sets, seed=DATASET_SEED
        )
        server.start()
        listener = SocketListener(server, unix_path=self.socket_path)
        return {"server": server, "listener": listener}

    def _stop_subprocess(self, state) -> None:
        process = state["process"]
        if process.poll() is None:
            try:
                conn = Connection(self.socket_path, timeout=10)
                conn.call(json.dumps({"op": "shutdown"}) + "\n")
                conn.close()
            except OSError:
                process.terminate()
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        state["reader"].join(timeout=10)

    def close(self, state) -> None:
        if "process" in state:
            self._stop_subprocess(state)
        else:
            state["listener"].close()
            state["server"].close()

    def runtime_of(self, state):
        return state["server"].runtime if "server" in state else None

    # -- measurement ---------------------------------------------------- #
    def _check(self, window: Window, request: dict, reply: dict, seconds: float,
               started: float) -> None:
        problems = checks.reply_errors(request, reply, self.num_nodes, self.budgets, self.costs)
        if request["op"] == "allocate" and not problems:
            window.revenue.append(float(reply["result"]["revenue"]))
        window.add(request["op"], seconds, problems, at=started)

    def _reader(self, conn, window, index, began, seconds, tracer):
        """Open loop: send each ``spread`` when due, collect replies between."""
        end = began + seconds
        pending: Dict[str, Tuple[float, dict, Any]] = {}
        arrivals = self.arrivals
        k = 0
        while True:
            now = time.perf_counter()
            due = began + arrivals[k] if k < len(arrivals) else end
            if due <= now and due < end:
                request = dict(self.reads[index % len(self.reads)], id=f"A-{index}")
                span = None
                if tracer is not None:
                    span = tracer.open(REQUEST, request=request["id"],
                                       start=time.monotonic() - (now - due))
                    tracer.requests[request["id"]] = span
                conn.send(json.dumps(request) + "\n")
                pending[request["id"]] = (due, request, span)
                window.lag_s = max(window.lag_s, now - due)
                index += 1
                k += 1
                continue
            if now >= end and not pending:
                return index
            if now > end + 60:
                raise TimeoutError(f"{len(pending)} spread replies missing")
            wait = min(due, end) - now if now < end else 1.0
            for reply in conn.receive(wait):
                received = time.perf_counter()
                sent_due, request, span = pending.pop(reply.get("id"), (None, None, None))
                if request is None:
                    window.add("spread", 0.0, [f"unexpected reply id {reply.get('id')!r}"])
                    continue
                if span is not None:
                    tracer.close(span)
                    del tracer.requests[request["id"]]
                self._check(window, request, reply, received - sent_due, sent_due)

    def _writer(self, conn, window, index, began, seconds, tracer, calibration):
        """Closed loop: the next ``allocate``/``refresh`` after each reply.

        The writer also samples the host speed between its requests; the
        reader cannot pause, and the loop must not run on a third thread.
        """
        while time.perf_counter() < began + seconds:
            if index >= len(self.writes):
                window.exhausted = True
                break
            calibration.append((time.perf_counter(), host_slowdown()))
            request = dict(self.writes[index], id=f"B-{index}")
            line = json.dumps(request) + "\n"
            t0 = time.perf_counter()
            if tracer is not None:
                with tracer.span(REQUEST, request=request["id"]) as span:
                    tracer.requests[request["id"]] = span
                    reply = conn.call(line)
                del tracer.requests[request["id"]]
            else:
                reply = conn.call(line)
            self._check(window, request, reply, time.perf_counter() - t0, t0)
            index += 1
        return index

    def measure(self, state, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        windows = {"A": Window(), "B": Window()}
        connections = {name: Connection(self.socket_path) for name in windows}
        calibration: List[Tuple[float, float]] = []
        loops = {
            "A": self._reader,
            "B": functools.partial(self._writer, calibration=calibration),
        }
        offsets = state.setdefault("next", {"A": 0, "B": 0})
        start = threading.Barrier(3)
        began = [0.0]
        errors: List[BaseException] = []

        def run(name):
            start.wait()
            try:
                offsets[name] = loops[name](
                    connections[name], windows[name], offsets[name], began[0], seconds, tracer
                )
            except BaseException as exc:  # surfaced on the main thread below
                errors.append(exc)

        calibration.append((time.perf_counter(), host_slowdown()))
        threads = [threading.Thread(target=run, args=(name,)) for name in windows]
        for thread in threads:
            thread.start()
        began[0] = time.perf_counter()
        start.wait()
        for thread in threads:
            thread.join()
        for conn in connections.values():
            conn.close()
        if errors:
            raise errors[0]
        total = Window()
        for window in windows.values():
            total.merge(window)
        total.wall_s = time.perf_counter() - began[0]
        calibration.append((time.perf_counter(), host_slowdown()))
        calibration.sort()
        total.rescale([t for t, _ in calibration], [f for _, f in calibration])
        state.setdefault("revenue", []).extend(total.revenue)
        return total

    def verify(self, state) -> List[str]:
        """B's refreshes ran in order: the server's epoch must count each one.

        Keeps the server's request counters in ``state["requests"]``.
        """
        applied = state.get("next", {}).get("B", 0) // 2
        conn = Connection(self.socket_path)
        try:
            reply = conn.call(json.dumps({"op": "stats", "id": "verify"}) + "\n")
        finally:
            conn.close()
        if not reply.get("ok"):
            return [f"stats failed: {reply.get('error')}"]
        state["requests"] = reply["result"]["requests"]
        epoch = reply["result"]["epoch"]
        if epoch != applied:
            return [f"server epoch {epoch} after {applied} acknowledged refreshes"]
        return []

    def revenue(self, state) -> float:
        values = state.get("revenue", [])
        return float(np.mean(values)) if values else 0.0


WORKLOADS = {
    "solve_rma": SolveRMA,
    "solve_ti_carm": SolveTICARM,
    "refresh_stream": RefreshStream,
    "serve_mixed": ServeMixed,
}


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
