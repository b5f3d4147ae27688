"""In-memory span recorder and the layer hooks of the traced benchmark run.

The traced run wraps the public entry points of each layer of ``repro``
from here, so the program under test is unchanged.  A hook records a span
(name, start, end, parent, request id) around the call and, where the
layer exposes one, a work counter.  Spans stay in memory and are written
to a trace file when the run ends.

Self time of a span is its duration minus the part of that interval its
child spans cover.  Two checks run on every traced run:

- :func:`check_coverage`: the layer spans cover the timed operations.  The
  self time of the root spans (time no layer span covers) may be at most a
  stated share of the operations' wall time.
- :func:`check_self_sum`: the spans nest.  Self times add up to the root
  durations by construction, so they miss the operations' wall time only
  when a child span runs outside its parent or a root outside its
  operation.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Largest relative gap allowed between the summed self times and the
#: end-to-end wall time of the traced operations.
SELF_SUM_TOLERANCE = 0.02
#: Largest share of the traced operations' wall time that no layer span may
#: cover, where a workload states no tolerance of its own.
UNATTRIBUTED_TOLERANCE = 0.02

#: Root span of one timed operation (a solve, a refresh round).
OP = "bench.op"
#: Root span of one set-up (dataset, pool, evaluator or store, server boot).
SETUP = "bench.setup"
#: Root span of one client request in the serve workload.
REQUEST = "serve.request"

#: Every layer span the hooks can emit; the per-layer metric set is fixed
#: so that every workload reports the same names.
LAYER_SPANS = (
    "core.rma",
    "core.search",
    "core.gamma_max",
    "core.threshold_greedy",
    "core.fill",
    "core.seek_ub",
    "baselines.ti",
    "experiments.evaluate",
    "rrsets.sample",
    "rrsets.merge",
    "rrsets.index",
    "rrsets.store_apply",
    "graph.apply",
    "parallel.run",
    "serve.admit",
    "serve.reply",
    "serve.spread_queue",
    "serve.spread_handler",
    "serve.allocate_queue",
    "serve.allocate_handler",
    "serve.refresh_queue",
    "serve.refresh_handler",
)

#: Work counters the hooks maintain, reported per timed operation.
COUNTERS = (
    "core.search_iterations",
    "core.rma_rounds",
    "core.heap_pops",
    "core.heap_evaluations",
    "core.seeds_accepted",
    "rrsets.rr_sets",
    "rrsets.edges_examined",
    "rrsets.store_invalidated",
    "rrsets.store_redrawn",
    "graph.deltas",
    "parallel.shards",
)


@dataclass
class Span:
    """One recorded interval; times are ``time.monotonic()`` seconds."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; the parent of a span is the innermost
    open span of the calling thread unless given explicitly."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        #: Open client request spans of the serve workload, by request id.
        self.requests: Dict[Any, Span] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        request: Any = None,
    ) -> Span:
        """Record a finished span (used where start and end are known)."""
        span = self.open(name, request, parent, start)
        span.end = end
        self.spans.append(span)
        return span

    def open(
        self,
        name: str,
        request: Any = None,
        parent: Optional[Span] = None,
        start: Optional[float] = None,
    ) -> Span:
        """Start a span that :meth:`close` finishes, on any thread."""
        if request is None and parent is not None:
            request = parent.request
        return Span(
            next(self._ids),
            name,
            time.monotonic() if start is None else start,
            0.0,
            parent.sid if parent is not None else None,
            request,
        )

    def close(self, span: Span) -> None:
        span.end = time.monotonic()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, request: Any = None, parent: Optional[Span] = None):
        """A span around a block, nested under the thread's innermost span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = self.open(name, request, parent)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            self.close(span)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # ------------------------------------------------------------------ #
    # hook installation
    # ------------------------------------------------------------------ #
    def patch_function(self, module: Any, attr: str, make: Callable) -> None:
        """Replace a module-level function everywhere ``repro`` bound it.

        Modules import functions by name (``from x import f``), so every
        loaded ``repro`` module holding the original object is rebound.
        """
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make(original))
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapper))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, make: Callable) -> None:
        """Replace a method (plain or classmethod) on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            func = raw.__func__
            replacement = classmethod(functools.wraps(func)(make(func)))
        else:
            replacement = functools.wraps(raw)(make(raw))
        self._patches.append((cls, attr, raw, replacement))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def spanned(self, name: str, after: Optional[Callable] = None) -> Callable:
        """Hook factory: wrap a callable in a span, then call ``after``."""

        def make(fn):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        return make

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def write(self, path: str, summary: Dict[str, Any]) -> None:
        """Write every span plus the run summary as one JSON document."""
        document = {
            "summary": summary,
            "spans": [
                {
                    "id": span.sid,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                }
                for span in sorted(self.spans, key=lambda s: s.start)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = span.duration - covered
    return result


def descendants_of(spans: Iterable[Span], roots: Iterable[str]) -> List[Span]:
    """Root spans named in ``roots`` and every span beneath them."""
    spans = list(spans)
    root_names = set(roots)
    by_parent: Dict[Optional[int], List[Span]] = defaultdict(list)
    for span in spans:
        by_parent[span.parent].append(span)
    selected = [s for s in spans if s.parent is None and s.name in root_names]
    frontier = list(selected)
    while frontier:
        nxt = []
        for span in frontier:
            nxt.extend(by_parent.get(span.sid, ()))
        selected.extend(nxt)
        frontier = nxt
    return selected


def aggregate(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.sid]
    return dict(table)


def check_self_sum(
    spans: Iterable[Span], wall_s: float, tolerance: float = SELF_SUM_TOLERANCE
) -> Tuple[bool, float]:
    """Do the self times add up to ``wall_s``?  Returns ``(ok, ratio)``."""
    total = sum(self_times(spans).values())
    if wall_s <= 0:
        return False, 0.0
    ratio = total / wall_s
    return abs(ratio - 1.0) <= tolerance, ratio


def check_coverage(
    table: Dict[str, Dict[str, float]],
    roots: Iterable[str],
    wall_s: float,
    tolerance: float = UNATTRIBUTED_TOLERANCE,
) -> Tuple[bool, float]:
    """Do the layer spans cover ``wall_s``?  Returns ``(ok, share)``, where
    ``share`` is the root spans' self time over ``wall_s``."""
    if wall_s <= 0:
        return False, 1.0
    uncovered = sum(table.get(root, {"self_s": 0.0})["self_s"] for root in roots)
    share = uncovered / wall_s
    return share <= tolerance, share


def top_self_span(table: Dict[str, Dict[str, float]], exclude: Iterable[str]) -> Tuple[str, float]:
    """The span name with the most self time, and its share of all self time."""
    excluded = set(exclude)
    total = sum(row["self_s"] for row in table.values())
    candidates = [(row["self_s"], name) for name, row in table.items() if name not in excluded]
    if not candidates or total <= 0:
        return "none", 0.0
    best_self, best_name = max(candidates)
    return best_name, best_self / total


# ---------------------------------------------------------------------- #
# the layer hooks
# ---------------------------------------------------------------------- #
def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap the public entry points of every ``repro`` layer."""
    # Import every module that binds a hooked name first, so that no module
    # imported later captures a wrapper and keeps it after uninstall.
    import repro.cli  # noqa: F401
    import repro.serve.transport  # noqa: F401
    from repro.graph.deltas import MutableGraphView
    from repro.parallel.executor import PersistentPool
    from repro.rrsets.collection import RRCollection
    from repro.rrsets.generator import RRSetGenerator
    from repro.rrsets.store import RRStore
    from repro.rrsets.uniform import UniformRRSampler
    from repro.serve.server import AllocationServer
    from repro.utils.lazy_heap import BatchedLazyGreedy

    # Packages re-export functions under their module's name
    # (``repro.core.threshold_greedy``), so resolve the modules themselves.
    ti_common = importlib.import_module("repro.baselines.ti_common")
    sampling_solver = importlib.import_module("repro.core.sampling_solver")
    search = importlib.import_module("repro.core.search")
    seek_ub = importlib.import_module("repro.core.seek_ub")
    threshold_greedy = importlib.import_module("repro.core.threshold_greedy")
    registry = importlib.import_module("repro.datasets.registry")
    metrics = importlib.import_module("repro.experiments.metrics")
    count = tracer.count

    def rma_rounds(result, args, kwargs):
        count("core.rma_rounds", result.metadata.get("iterations", 0))

    def search_iterations(result, args, kwargs):
        count("core.search_iterations", result[3].get("search_iterations", 0))

    tracer.patch_function(sampling_solver, "rm_without_oracle", tracer.spanned("core.rma", rma_rounds))
    tracer.patch_function(search, "search_threshold", tracer.spanned("core.search", search_iterations))
    tracer.patch_function(search, "gamma_max", tracer.spanned("core.gamma_max"))
    tracer.patch_function(threshold_greedy, "threshold_greedy", tracer.spanned("core.threshold_greedy"))
    tracer.patch_function(threshold_greedy, "fill", tracer.spanned("core.fill"))
    tracer.patch_function(seek_ub, "seek_upper_bound", tracer.spanned("core.seek_ub"))
    tracer.patch_function(ti_common, "run_ti_baseline", tracer.spanned("baselines.ti"))
    tracer.patch_function(metrics, "evaluate_allocation", tracer.spanned("experiments.evaluate"))
    tracer.patch_function(metrics, "independent_evaluator", tracer.spanned("experiments.evaluator_build"))
    tracer.patch_function(registry, "build_dataset", tracer.spanned("datasets.build"))

    # The heap pops ~10^5 times per solve: count with the cheapest wrapper
    # possible, never span.  Evaluations are counted at the heap's batch
    # evaluator, which every heap receives at construction.
    counters = tracer.counters

    def counted_init(fn):
        def wrapper(self, batch_evaluate, *args, **kwargs):
            def evaluate(keys):
                counters["core.heap_evaluations"] += 1
                return batch_evaluate(keys)

            fn(self, evaluate, *args, **kwargs)

        return wrapper

    def counted_pop(fn):
        def wrapper(self):
            counters["core.heap_pops"] += 1
            return fn(self)

        return wrapper

    def counted_advance(fn):
        def wrapper(self):
            counters["core.seeds_accepted"] += 1
            return fn(self)

        return wrapper

    tracer.patch_method(BatchedLazyGreedy, "__init__", counted_init)
    tracer.patch_method(BatchedLazyGreedy, "pop_best", counted_pop)
    tracer.patch_method(BatchedLazyGreedy, "advance_round", counted_advance)

    def sampled(edges_of):
        def make(fn):
            def wrapper(self, count_arg, *args, **kwargs):
                before = edges_of(self)
                with tracer.span("rrsets.sample"):
                    result = fn(self, count_arg, *args, **kwargs)
                count("rrsets.rr_sets", count_arg)
                count("rrsets.edges_examined", edges_of(self) - before)
                return result

            return wrapper

        return make

    tracer.patch_method(UniformRRSampler, "generate_collection", sampled(lambda s: s.edges_examined()))
    tracer.patch_method(RRSetGenerator, "generate_batch_parallel", sampled(lambda s: s.edges_examined))
    tracer.patch_method(RRCollection, "from_shards", tracer.spanned("rrsets.merge"))
    tracer.patch_method(RRCollection, "extend_from_shards", tracer.spanned("rrsets.merge"))
    tracer.patch_method(RRCollection, "membership_counts", tracer.spanned("rrsets.index"))

    def store_generated(result, args, kwargs):
        count("rrsets.rr_sets", args[1])

    def store_applied(report, args, kwargs):
        count("rrsets.store_invalidated", report.invalidated)
        count("rrsets.store_redrawn", report.redrawn)
        count("rrsets.store_slots", report.total)

    tracer.patch_method(RRStore, "generate", tracer.spanned("rrsets.store_generate", store_generated))
    tracer.patch_method(RRStore, "apply_deltas", tracer.spanned("rrsets.store_apply", store_applied))

    def graph_apply(fn):
        def wrapper(self, deltas):
            deltas = list(deltas)
            with tracer.span("graph.apply"):
                result = fn(self, deltas)
            count("graph.deltas", len(deltas))
            return result

        return wrapper

    tracer.patch_method(MutableGraphView, "apply", graph_apply)

    def pool_run(fn):
        def wrapper(self, task, payload, shards, *args, **kwargs):
            shards = list(shards)
            with tracer.span("parallel.run"):
                result = fn(self, task, payload, shards, *args, **kwargs)
            count("parallel.shards", len(shards))
            return result

        return wrapper

    tracer.patch_method(PersistentPool, "run", pool_run)

    # Serve: a connection thread parses and admits each line, the dispatch
    # thread executes one ticket (group) per call and resolves every ticket,
    # which encodes and writes the reply.  The queue wait runs from the
    # ticket's admission to the start of execution.  Every span hangs under
    # the client's request span, matched by id.
    def admit(fn):
        def wrapper(self, line, *args, **kwargs):
            span = tracer.open("serve.admit")
            ticket = fn(self, line, *args, **kwargs)
            parent = tracer.requests.get(ticket.request.get("id"))
            if parent is not None:
                span.parent, span.request = parent.sid, parent.request
            tracer.close(span)
            return ticket

        return wrapper

    def reply(fn):
        def wrapper(self, ticket, *args, **kwargs):
            parent = tracer.requests.get(ticket.request.get("id"))
            with tracer.span("serve.reply", parent=parent):
                return fn(self, ticket, *args, **kwargs)

        return wrapper

    tracer.patch_method(AllocationServer, "submit_text", admit)
    tracer.patch_method(AllocationServer, "_resolve", reply)

    def execute(fn):
        def wrapper(self, ticket):
            started = time.monotonic()
            op = ticket.request.get("op")
            parent = tracer.requests.get(ticket.request.get("id"))
            tracer.record(f"serve.{op}_queue", ticket.arrival, started, parent)
            with tracer.span(f"serve.{op}_handler", parent=parent):
                return fn(self, ticket)

        return wrapper

    tracer.patch_method(AllocationServer, "_execute", execute)
