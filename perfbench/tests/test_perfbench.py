"""Tests of the benchmark itself, at a tiny size.

They cover the output schema of both run modes, the manifest's names and
units, the correctness checks on corrupted outputs, the span self-time
arithmetic, the refusal to run without the program's sources, and that a
run leaves no process behind.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, spec, tracing  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    RefreshStream,
    ServeMixed,
    SolveRMA,
    SolveTICARM,
    delta_batches,
)

E2E = {name: unit for name, unit, _, _ in spec.END_TO_END}
LAYER = {name: unit for name, unit, _ in spec.per_layer()}


def tiny(name):
    return {
        "solve_rma": lambda: SolveRMA(
            scale=0.05, initial_rr_sets=256, max_rr_sets=1024, evaluation_rr_sets=4000
        ),
        "solve_ti_carm": lambda: SolveTICARM(
            scale=0.001, rr_sets_per_advertiser=256, evaluation_rr_sets=4000
        ),
        "refresh_stream": lambda: RefreshStream(scale=0.001, slots=64),
        "serve_mixed": lambda: ServeMixed(scale=0.05, rr_sets=64, queries=64),
    }[name]()


def assert_schema(result, expected_units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == set(expected_units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected_units[name]
        assert np.isfinite(metric["value"])
    json.dumps(result)


# ---------------------------------------------------------------------- #
# manifest
# ---------------------------------------------------------------------- #
def test_manifest_matches_spec_and_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert spec.UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert ("setup_s", "s", "lower") in {
        (m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert 1 <= len(manifest["per_layer"]) <= 128


# ---------------------------------------------------------------------- #
# output schema, at a tiny size
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["solve_rma", "solve_ti_carm", "refresh_stream"])
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = tiny(name)
    workload.prepare(3, 0.2)
    result = bench.run_untraced(workload, seconds=0.2)
    assert_schema(result, E2E)
    assert result["correct"] and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["solve_rma", "refresh_stream", "serve_mixed"])
def test_traced_run_reports_every_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = tiny(name)
    workload.prepare(3, 0.6)
    result = bench.run_traced(workload, seconds=0.6, seed=3)
    assert_schema(result, LAYER)
    assert result["correct"], result
    metrics = result["metrics"]
    assert abs(metrics["trace.self_sum_ratio"]["value"] - 1.0) <= tracing.SELF_SUM_TOLERANCE
    assert metrics["trace.unattributed_share"]["value"] <= workload.unattributed_tolerance
    if name == "serve_mixed":
        # Latencies from the subprocess window, spans from the in-process one.
        assert metrics["serve.spread_samples"]["value"] > 0
        assert metrics["serve.request_calls"]["value"] > 0
    trace = json.loads((tmp_path / ".bench_out" / f"trace-{name}-3.json").read_text())
    assert trace["summary"]["top_self_span"] != "none"
    assert {"id", "name", "start", "end", "parent", "request"} <= set(trace["spans"][0])
    # Hooks are gone after the run: the layers are the original functions.
    module = importlib.import_module("repro.core.threshold_greedy")
    assert not hasattr(module.fill, "__wrapped__")


def test_serve_subprocess_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = tiny("serve_mixed")
    workload.prepare(3, 0.5)
    result = bench.run_untraced(workload, seconds=0.5)
    assert_schema(result, E2E)
    assert result["correct"], result


def test_a_window_ends_cleanly_when_its_inputs_run_out(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    workload = tiny("refresh_stream")
    workload.prepare(3, 5.0)
    assert len(workload.inputs) >= 5 * 50
    workload.inputs = workload.inputs[:2]
    result = bench.run_untraced(workload, seconds=5.0)
    assert result["correct"] and result["attempted"] == 2
    assert "ran out" in capsys.readouterr().err


def test_serve_writes_are_never_reused():
    workload = tiny("serve_mixed")
    workload.prepare(3, 2.0)
    refreshes = [json.dumps(w["deltas"]) for w in workload.writes if w["op"] == "refresh"]
    assert len(workload.writes) >= 2 * 200
    assert len(set(refreshes)) == len(refreshes)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_rma",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def _session_members(sid):
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[3]) == sid:
            members.append((entry.name, fields[0]))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("name", ["solve_rma", "serve_mixed"])
def test_a_run_leaves_no_process_behind(name):
    """Pool workers, the resource trackers and the server are all reaped."""
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    out, _ = process.communicate(timeout=170)
    assert process.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    assert _session_members(process.pid) == []


# ---------------------------------------------------------------------- #
# correctness checks
# ---------------------------------------------------------------------- #
def test_partition_check_rejects_shared_and_out_of_range_nodes():
    assert checks.partition_errors({0: [1, 2], 1: [3]}, num_nodes=4) == []
    assert checks.partition_errors({0: [1, 2], 1: [2]}, num_nodes=4)
    assert checks.partition_errors({0: [4]}, num_nodes=4)
    assert checks.partition_errors({0: [-1]}, num_nodes=4)


def test_budget_check_rejects_overspending():
    assert checks.budget_errors({0: 6.0}, {0: 4.0}, [10.0]) == []
    assert checks.budget_errors({0: 6.5}, {0: 4.0}, [10.0])
    assert checks.budget_errors({0: float("nan")}, {0: 0.0}, [10.0])


def _fake_run(allocation, revenue, cost):
    seeds = SimpleNamespace(items=lambda: allocation.items())
    evaluation = SimpleNamespace(
        revenue=sum(revenue.values()),
        per_advertiser_revenue=revenue,
        per_advertiser_cost=cost,
    )
    return SimpleNamespace(solver_result=SimpleNamespace(allocation=seeds), evaluation=evaluation)


def test_solve_check_fails_a_corrupted_allocation():
    good = _fake_run({0: {1}, 1: {2}}, {0: 3.0, 1: 2.0}, {0: 1.0, 1: 1.0})
    assert checks.solve_errors(good, num_nodes=5, budgets=[5.0, 5.0]) == []
    shared = _fake_run({0: {1}, 1: {1}}, {0: 3.0, 1: 2.0}, {0: 1.0, 1: 1.0})
    assert checks.solve_errors(shared, num_nodes=5, budgets=[5.0, 5.0])
    over = _fake_run({0: {1}, 1: {2}}, {0: 9.0, 1: 2.0}, {0: 1.0, 1: 1.0})
    assert checks.solve_errors(over, num_nodes=5, budgets=[5.0, 5.0])


def test_a_corrupted_solve_counts_as_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = tiny("solve_rma")
    workload.prepare(3, 0.1)
    workload.budget_caps = lambda state: state["data"].instance.budgets() * 0.0 + 1e-9
    result = bench.run_untraced(workload, seconds=0.1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_reply_check_fails_a_corrupted_allocate_reply():
    costs = np.ones((2, 4))
    request = {"id": "B-0", "op": "allocate"}
    reply = {
        "id": "B-0",
        "ok": True,
        "result": {
            "allocation": {"0": [1], "1": [1]},
            "per_advertiser_revenue": {"0": 1.0, "1": 1.0},
        },
    }
    assert checks.reply_errors(request, reply, 4, [5.0, 5.0], costs)
    reply["result"]["allocation"] = {"0": [1], "1": [2]}
    assert checks.reply_errors(request, reply, 4, [5.0, 5.0], costs) == []
    assert checks.reply_errors(request, dict(reply, ok=False, error={}), 4, [5.0, 5.0], costs)


def test_store_check_detects_a_different_store():
    from repro.datasets.registry import build_dataset
    from repro.graph.deltas import MutableGraphView
    from repro.rrsets.store import RRStore
    from repro.runtime import ExecutionPolicy

    instance = build_dataset("lastfm_like", num_advertisers=2, scale=0.05, seed=1,
                             singleton_rr_sets=32).instance

    def store(seed):
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        result = RRStore(view, instance.cpes(), seed=seed, policy=ExecutionPolicy.seed())
        result.generate(32)
        return result

    assert checks.stores_equal(store(1), store(1))
    assert not checks.stores_equal(store(1), store(2))


def test_delta_batches_are_valid_in_order_and_seeded():
    from repro.datasets.registry import build_dataset
    from repro.graph.deltas import MutableGraphView

    instance = build_dataset("lastfm_like", num_advertisers=2, scale=0.05, seed=1,
                             singleton_rr_sets=32).instance
    first = delta_batches(instance.graph, 2, 30, 8, np.random.default_rng(5))
    again = delta_batches(instance.graph, 2, 30, 8, np.random.default_rng(5))
    assert first == again
    view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
    for batch in first:
        view.apply(batch)
    assert view.epoch == 30


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def _span(sid, name, start, end, parent=None):
    return tracing.Span(sid, name, start, end, parent, None)


def test_self_times_sum_to_the_root_wall_time():
    spans = [
        _span(1, "bench.op", 0.0, 10.0),
        _span(2, "core.search", 1.0, 4.0, 1),
        _span(3, "core.fill", 2.0, 3.0, 2),
        _span(4, "rrsets.sample", 5.0, 9.0, 1),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert tracing.check_self_sum(spans, 10.0) == (True, 1.0)
    ok, ratio = tracing.check_self_sum(spans, 10.5)
    assert not ok and ratio == pytest.approx(10.0 / 10.5)
    table = tracing.aggregate(spans)
    assert tracing.top_self_span(table, exclude=["bench.op"]) == ("rrsets.sample", 0.4)


def test_coverage_check_fails_on_an_uncovered_gap():
    covered = [
        _span(1, "bench.op", 0.0, 10.0),
        _span(2, "core.search", 0.0, 5.0, 1),
        _span(3, "rrsets.sample", 5.0, 9.9, 1),
    ]
    table = tracing.aggregate(covered)
    ok, share = tracing.check_coverage(table, ["bench.op"], 10.0)
    assert ok and share == pytest.approx(0.01)
    # A second of the operation runs outside every layer span: the self
    # times still sum to the wall time, but the coverage check fails.
    gap = covered[:2] + [_span(3, "rrsets.sample", 6.0, 9.9, 1)]
    assert tracing.check_self_sum(gap, 10.0)[0]
    table = tracing.aggregate(gap)
    ok, share = tracing.check_coverage(table, ["bench.op"], 10.0)
    assert not ok and share == pytest.approx(0.11)
    assert tracing.check_coverage(table, ["bench.op"], 10.0, tolerance=0.15)[0]


def test_self_sum_check_fails_on_a_child_outside_its_parent():
    spans = [_span(1, "bench.op", 0.0, 10.0), _span(2, "core.fill", 5.0, 12.0, 1)]
    ok, ratio = tracing.check_self_sum(spans, 10.0)
    assert not ok and ratio == pytest.approx(1.2)


def test_overlapping_children_are_subtracted_once():
    # Children recorded on other threads may overlap each other.
    spans = [
        _span(1, "serve.request", 0.0, 10.0),
        _span(2, "serve.spread_queue", 1.0, 6.0, 1),
        _span(3, "serve.spread_handler", 4.0, 8.0, 1),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(3.0)


def test_tracer_records_nesting_and_uninstalls_hooks():
    import repro.core

    original = repro.core.threshold_greedy
    tracer = tracing.Tracer()
    with tracer.span("bench.op", request=7) as root:
        with tracer.span("core.fill") as child:
            pass
    assert child.parent == root.sid and child.request == 7
    tracing.install_layer_hooks(tracer)
    assert tracer.installed
    tracer.uninstall()
    assert not tracer.installed
    assert repro.core.threshold_greedy is original
