"""Contract between ``repro`` and the layer hooks of the end-to-end benchmark.

``perfbench/tracing.py`` wraps ``repro`` entry points by exact name — taken
from each class ``__dict__`` — and ``perfbench/run.py`` imports
``_default_start_method``.  A rename, a move into a subclass or a removal
makes the benchmark raise, and the traced perfbench tests do not run every
path (TI-CARM's pool fill among them).  These tests install the hooks,
drive the RR consumers through them and check that uninstalling restores
every patched attribute.
"""

from __future__ import annotations

import sys

import pytest

from repro.parallel.executor import PersistentPool, _default_start_method
from repro.rrsets.collection import RRCollection
from repro.rrsets.generator import RRSetGenerator
from repro.rrsets.store import RRStore
from repro.rrsets.uniform import UniformRRSampler

tracing = pytest.importorskip("perfbench.tracing")

#: Entry points the RR-sampling layers must keep, as ``(owner, name)``.
RR_HOOK_TARGETS = [
    (UniformRRSampler, "generate_collection"),
    (UniformRRSampler, "edges_examined"),
    (RRSetGenerator, "generate_batch_parallel"),
    (RRSetGenerator, "edges_examined"),
    (RRCollection, "from_shards"),
    (RRCollection, "extend_from_shards"),
    (RRCollection, "membership_counts"),
    (RRStore, "generate"),
    (RRStore, "apply_deltas"),
    (PersistentPool, "run"),
]


def _snapshot():
    """Identity of every attribute of every loaded ``repro`` module and class."""
    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            state[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    state[(name, key, attr)] = member
    return state


def test_start_method_helper_is_importable():
    assert _default_start_method() in ("fork", "spawn", "forkserver")


@pytest.mark.parametrize("owner,name", RR_HOOK_TARGETS)
def test_hook_targets_live_on_the_class_itself(owner, name):
    assert name in vars(owner), f"{owner.__name__}.{name} must stay in the class __dict__"


def test_hooks_install_drive_and_uninstall_cleanly():
    from repro.baselines.ti_common import TIParameters
    from repro.datasets.registry import build_dataset
    from repro.experiments.runner import run_algorithm
    from repro.runtime import ExecutionPolicy

    data = build_dataset(
        "flixster_like", num_advertisers=2, scale=0.05, seed=7, singleton_rr_sets=50
    )
    tracer = tracing.Tracer()
    tracing.install_layer_hooks(tracer)  # imports every hooked module first
    try:
        patched = {(owner, attr) for owner, attr, _, _ in tracer._patches}
        for owner, name in RR_HOOK_TARGETS:
            if name != "edges_examined":
                assert (owner, name) in patched, f"{owner.__name__}.{name} was not hooked"
        run_algorithm(
            "TI-CARM",
            data.instance,
            ti_params=TIParameters(
                pilot_size=16,
                max_rr_sets_per_advertiser=64,
                seed=1,
                policy=ExecutionPolicy.fast(n_jobs=2),
            ),
            evaluation_rr_sets=200,
            seed=2,
        )
        names = {span.name for span in tracer.spans}
        assert {"baselines.ti", "rrsets.sample", "rrsets.merge"} <= names
        # Two pools of 64 hashed sets (a 16-set pilot and a 48-set fill,
        # both drawn through the hook), plus the evaluator's 200.
        assert tracer.counters["rrsets.rr_sets"] == 2 * 64 + 200
        assert tracer.counters["rrsets.edges_examined"] > 0
    finally:
        tracer.uninstall()
    assert not tracer.installed
    # Every module is loaded now: a second cycle must put back exactly what
    # it found, and must really have swapped the targets in between.
    before = _snapshot()
    tracer = tracing.Tracer()
    tracing.install_layer_hooks(tracer)
    during = _snapshot()
    tracer.uninstall()
    after = _snapshot()
    assert [key for key in before if during.get(key) is not before[key]]
    assert [key for key in before if after.get(key) is not before[key]] == []
