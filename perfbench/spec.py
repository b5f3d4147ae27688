"""The benchmark's manifest: workloads and metric names, units, directions.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``); a test keeps the two equal.
"""

from __future__ import annotations

import re
from typing import Dict, List

from perfbench.tracing import COUNTERS, LAYER_SPANS, OP, REQUEST

RUN_SECONDS = 25

WORKLOADS = [
    ("solve_rma",
     "RMA solve on flixster_like (300 nodes, h=5, 512 to 4096 RR-sets): greedy core work, Fill above all"),
    ("solve_ti_carm",
     "TI-CARM on snap_scale (10k nodes, 4,096 RR-sets per ad): RR sampling on the worker pool dominates"),
    ("refresh_stream",
     "8-delta refresh rounds on a 4,000-slot RR store over a 10k-node graph: write path, no greedy"),
    ("serve_mixed",
     "repro serve with one spread reader beside an allocate+refresh writer: admission and dispatch"),
]

#: (name, unit, better, bound) — every workload reports all of them.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

#: Per-layer metrics taken outside the span table: (name, unit, better).
_EXTRA_LAYER = [
    ("core.accept_ratio", "ratio", "higher"),
    ("rrsets.redraw_ratio", "ratio", "lower"),
    ("runtime.pool_spawns", "count", "lower"),
    ("parallel.crashes", "count", "lower"),
    ("parallel.reruns", "count", "lower"),
    ("parallel.serial_fallbacks", "count", "lower"),
    ("experiments.revenue", "revenue", "higher"),
    ("serve.spread_p50_ms", "ms", "lower"),
    ("serve.spread_p90_ms", "ms", "lower"),
    ("serve.spread_samples", "count", "higher"),
    ("serve.allocate_p50_ms", "ms", "lower"),
    ("serve.allocate_p90_ms", "ms", "lower"),
    ("serve.allocate_samples", "count", "higher"),
    ("serve.refresh_p50_ms", "ms", "lower"),
    ("serve.requests_per_s", "1/s", "higher"),
    ("serve.generator_lag_ms", "ms", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_timeouts", "count", "lower"),
    ("serve.failed", "count", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.self_sum_ratio", "ratio", "higher"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.untraced_p50_ms", "ms", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ms", "ms", "lower"),
    ("host.slowdown", "ratio", "lower"),
]

#: Spans reported per set-up: (span name, metric name).
SETUP_METRICS = [
    ("datasets.build", "datasets.build_s"),
    ("experiments.evaluator_build", "experiments.evaluator_build_s"),
    ("rrsets.store_generate", "rrsets.store_generate_s"),
    ("rrsets.sample", "setup.rrsets.sample_s"),
    ("parallel.run", "setup.parallel.run_s"),
]

#: Spans whose calls / inclusive / self time are reported per operation.
OP_SPANS = (OP, REQUEST) + LAYER_SPANS


def per_layer() -> List[tuple]:
    metrics = []
    for span in OP_SPANS:
        metrics.append((f"{span}_calls", "count/op", "lower"))
        metrics.append((f"{span}_s", "s/op", "lower"))
        metrics.append((f"{span}_self_s", "s/op", "lower"))
    metrics += [(name, "s/setup", "lower") for _, name in SETUP_METRICS]
    metrics.append(("setup.traced_s", "s/setup", "lower"))
    metrics += [(name, "count/op", "lower") for name in COUNTERS]
    metrics += _EXTRA_LAYER
    return metrics


def manifest() -> Dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
