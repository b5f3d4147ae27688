"""End-to-end benchmark of solve, refresh and serve, with a per-layer breakdown.

Run one workload from the repository root::

    python3 perfbench/run.py --workload solve_rma --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that sets up with the layer hooks installed, measures half
the window untraced and half traced, and reports the per-layer metrics
(``serve_mixed`` first spends half the window on the ``repro serve``
subprocess, for its latencies, and splits the rest).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload, each in a fresh process, and prints
a table; ``--write-manifest`` regenerates ``BENCHMARK.json``.  See
``perfbench/README.md`` for the metrics and how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    return parser.parse_args(argv)


def environment(seed: int) -> Dict:
    import numpy

    from repro.parallel.executor import _default_start_method
    from perfbench.workloads import N_JOBS

    return {
        "seed": seed,
        "n_jobs": N_JOBS,
        "REPRO_MAX_JOBS": os.environ.get("REPRO_MAX_JOBS"),
        "start_method": _default_start_method(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def own_rss_kib() -> int:
    """Largest resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mib(own_kib: int) -> float:
    """Largest of ``own_kib`` and the resident set of any reaped descendant.

    Read ``own_kib`` before the end-of-run checks, which build their own
    data, and call this after the workload is closed, so that its pool
    workers or server are reaped.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children) / 1024.0


def _metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def _setups(workload, tracer=None):
    """Set up :data:`SETUPS` times, closing all but the last.

    Returns ``(state, wall durations, durations at nominal host speed)``.
    """
    from perfbench.tracing import SETUP
    from perfbench.workloads import SETUPS, host_slowdown

    durations: List[float] = []
    scaled: List[float] = []
    state = None
    before = host_slowdown()
    for index in range(SETUPS):
        if state is not None:
            workload.close(state)
            state = None  # so that two set-ups are never alive at once
        started = time.perf_counter()
        if tracer is not None:
            with tracer.span(SETUP, request=f"setup-{index}"):
                state = workload.setup()
        else:
            state = workload.setup()
        durations.append(time.perf_counter() - started)
        after = host_slowdown()
        scaled.append(durations[-1] / ((before + after) / 2))
        before = after
    return state, durations, scaled


def _outcome(window, problems: List[str]) -> Dict:
    failed = window.failed
    if problems:
        # An end-of-run check covers every operation before it.
        failed = window.attempted
    for problem in (window.problems + problems)[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    if window.exhausted:
        print("the pre-generated inputs ran out; the window ended early", file=sys.stderr)
    return {
        "correct": failed == 0 and window.attempted > 0,
        "attempted": window.attempted,
        "failed": failed,
    }


def run_untraced(workload, seconds: float) -> Dict:
    from perfbench.workloads import median

    state, setup_wall, setup_times = _setups(workload)
    try:
        window = workload.measure(state, seconds)
        own_kib = own_rss_kib()
        problems = workload.verify(state)
    finally:
        workload.close(state)
    # The wall-clock figures behind the scaled metrics, for the record.
    print(json.dumps({
        "wall": {
            "setup_s": median(setup_wall),
            "op_p50_ms": median(window.latencies.get(workload.kind, [])) * 1000.0,
        },
        "host_slowdown": median(window.slowdowns),
    }))
    result = _outcome(window, problems)
    result["metrics"] = {
        "setup_s": _metric(median(setup_times), "s"),
        "op_p50_ms": _metric(median(window.scaled.get(workload.kind, [])) * 1000.0, "ms"),
        "peak_rss_mib": _metric(peak_rss_mib(own_kib), "MiB"),
    }
    return result


def run_traced(workload, seconds: float, seed: int) -> Dict:
    from perfbench import spec, tracing
    from perfbench.workloads import OUT_DIR, median, percentile_ms

    problems: List[str] = []
    served, requests = None, {}
    if workload.name == "serve_mixed":
        # The serve latencies and counters come from the `repro serve`
        # subprocess that op_p50_ms measures.  The hooks reach only an
        # in-process server, which the rest of the window drives.
        state = workload.setup()
        try:
            served = workload.measure(state, seconds / 2)
            problems += workload.verify(state)
        finally:
            workload.close(state)
        requests = state.get("requests", {})
        state = None
        seconds /= 2
        workload.in_process = True

    tracer = tracing.Tracer()
    tracing.install_layer_hooks(tracer)
    try:
        state, setup_wall, setup_times = _setups(workload, tracer)
    finally:
        tracer.uninstall()
    tracer.counters.clear()
    try:
        untraced = workload.measure(state, seconds / 2)
        tracing.install_layer_hooks(tracer)
        try:
            traced = workload.measure(state, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        problems += workload.verify(state)
        runtime = workload.runtime_of(state)
        recovery = runtime.recovery_stats
        spawns = runtime.pool_spawn_count
        revenue = workload.revenue(state)
    finally:
        workload.close(state)
    roots = [tracing.OP, tracing.REQUEST]
    op_spans = tracing.descendants_of(tracer.spans, roots)
    setup_spans = tracing.descendants_of(tracer.spans, [tracing.SETUP])
    table = tracing.aggregate(op_spans)
    setup_table = tracing.aggregate(setup_spans)
    # The layer spans must cover the traced operations...
    op_wall = sum(sum(values) for values in traced.latencies.values())
    covered, unattributed = tracing.check_coverage(
        table, roots, op_wall, workload.unattributed_tolerance
    )
    if not covered:
        problems.append(
            f"{unattributed:.2%} of the traced wall time is in no layer span "
            f"(tolerance {workload.unattributed_tolerance:.0%})"
        )
    # ...and nest, over the operations and the set-ups.
    nested, ratio = tracing.check_self_sum(op_spans + setup_spans, op_wall + sum(setup_wall))
    if not nested:
        problems.append(
            f"span self times sum to {ratio:.4f} of the wall time "
            f"(tolerance {tracing.SELF_SUM_TOLERANCE})"
        )
    ops = max(1, traced.attempted)
    setups = max(1, len(setup_times))
    top, share = tracing.top_self_span(table, exclude=roots)

    metrics: Dict[str, Dict] = {}
    units = {name: unit for name, unit, _ in spec.per_layer()}

    def put(name, value):
        metrics[name] = _metric(value, units[name])

    for span in spec.OP_SPANS:
        row = table.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        put(f"{span}_calls", row["calls"] / ops)
        put(f"{span}_s", row["total_s"] / ops)
        put(f"{span}_self_s", row["self_s"] / ops)
    for span, name in spec.SETUP_METRICS:
        put(name, setup_table.get(span, {"total_s": 0.0})["total_s"] / setups)
    put("setup.traced_s", median(setup_times))
    counters = tracer.counters
    for name in tracing.COUNTERS:
        put(name, counters[name] / ops)
    pops = counters["core.heap_pops"]
    put("core.accept_ratio", counters["core.seeds_accepted"] / pops if pops else 0.0)
    slots = counters["rrsets.store_slots"]
    put("rrsets.redraw_ratio", counters["rrsets.store_redrawn"] / slots if slots else 0.0)
    put("runtime.pool_spawns", spawns)
    put("parallel.crashes", recovery.worker_crashes)
    put("parallel.reruns", recovery.shards_rerun)
    put("parallel.serial_fallbacks", recovery.serial_fallbacks)
    put("experiments.revenue", revenue)
    lat = served.scaled if served else {}
    put("serve.spread_p50_ms", percentile_ms(lat.get("spread", []), 50))
    put("serve.spread_p90_ms", percentile_ms(lat.get("spread", []), 90))
    put("serve.spread_samples", len(lat.get("spread", [])))
    put("serve.allocate_p50_ms", percentile_ms(lat.get("allocate", []), 50))
    put("serve.allocate_p90_ms", percentile_ms(lat.get("allocate", []), 90))
    put("serve.allocate_samples", len(lat.get("allocate", [])))
    put("serve.refresh_p50_ms", percentile_ms(lat.get("refresh", []), 50))
    put("serve.requests_per_s", served.attempted / served.wall_s if served else 0.0)
    put("serve.generator_lag_ms", served.lag_s * 1000.0 if served else 0.0)
    for name in ("coalesced", "shed", "deadline_timeouts", "failed"):
        put(f"serve.{name}", requests.get(name, 0))
    untraced_p50 = median(untraced.scaled.get(workload.kind, [])) * 1000.0
    traced_p50 = median(traced.scaled.get(workload.kind, [])) * 1000.0
    put("trace.ops", traced.attempted)
    put("trace.spans", len(op_spans))
    put("trace.self_sum_ratio", ratio)
    put("trace.unattributed_share", unattributed)
    put("trace.untraced_p50_ms", untraced_p50)
    put("trace.untraced_ops_per_s", untraced.attempted / untraced.wall_s)
    put("trace.overhead_ms", traced_p50 - untraced_p50)
    put("host.slowdown", median(untraced.slowdowns + traced.slowdowns))

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-{seed}.json"
    summary = {
        "workload": workload.name,
        "environment": environment(seed),
        "top_self_span": top,
        "top_self_share": share,
        "self_time_s": {name: row["self_s"] for name, row in sorted(table.items())},
        "setup_self_time_s": {name: row["self_s"] for name, row in sorted(setup_table.items())},
        "metrics": {name: m["value"] for name, m in metrics.items()},
    }
    tracer.write(str(path), summary)
    print(f"top self-time span: {top} ({share:.1%} of traced self time)", file=sys.stderr)
    print(f"trace written to {path}", file=sys.stderr)

    window = untraced
    window.merge(traced)
    if served is not None:
        window.merge(served)
    result = _outcome(window, problems)
    result["metrics"] = metrics
    return result


def run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    from perfbench import spec

    status = 0
    for name, _ in spec.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"{name}: exited with {completed.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:42s} {value['value']:14.4f} {value['unit']}")
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro is missing; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import spec
    from perfbench.workloads import WORKLOADS

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    from perfbench.processes import stop_children

    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    workload = WORKLOADS[args.workload]()
    try:
        workload.prepare(args.seed, seconds)
        print(json.dumps({"environment": environment(args.seed)}))
        sys.stdout.flush()
        if args.trace:
            result = run_traced(workload, seconds, args.seed)
        else:
            result = run_untraced(workload, seconds)
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
