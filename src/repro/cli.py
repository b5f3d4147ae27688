"""Command-line interface.

Three sub-commands cover the common workflows:

``python -m repro.cli solve``
    Build a synthetic dataset, run one algorithm, print the evaluation.

``python -m repro.cli compare``
    Run several algorithms on the same instance and print a comparison table.

``python -m repro.cli dataset``
    Print the structural statistics of one of the synthetic datasets
    (the Table 1 view).

``python -m repro.cli refresh``
    Exercise the incremental RR-store maintenance loop: build a dataset,
    fill an :class:`~repro.rrsets.store.RRStore`, apply a synthetic batch
    of graph deltas and report how many RR-sets had to be redrawn
    (``--verify`` additionally checks bit-identity against a fresh store
    generated on the post-delta graph).

``python -m repro.cli serve``
    Run the long-lived allocation server: a warm runtime + RR-store
    answering line-delimited JSON requests (``allocate`` / ``spread`` /
    ``refresh`` / ``stats`` / ...) over stdio, TCP or a Unix socket, with
    bounded admission, per-request deadlines, graceful SIGTERM drain and
    checkpointed crash recovery (``--checkpoint-dir``).

The CLI is a thin wrapper over :mod:`repro.experiments`; everything it does
can also be done programmatically (see ``examples/``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.ti_common import TIParameters
from repro.core.sampling_solver import SamplingParameters
from repro.datasets.registry import DATASET_BUILDERS, build_dataset
from repro.experiments.figures import table1_datasets
from repro.experiments.metrics import independent_evaluator
from repro.experiments.report import format_table
from repro.experiments.runner import SAMPLING_ALGORITHMS, run_algorithm
from repro.exceptions import PolicyError
from repro.graph.deltas import (
    AddEdge,
    GraphDelta,
    MutableGraphView,
    RemoveEdge,
    UpdateProbability,
)
from repro.parallel.failure import ON_POOL_FAILURE_MODES
from repro.rrsets.store import RRStore
from repro.runtime import (
    ExecutionPolicy,
    FailurePolicy,
    PAYLOAD_MODES,
    POLICY_PRESETS,
    Runtime,
)


#: ``--jobs`` help of the store-backed sub-commands (``refresh``, ``serve``).
_JOBS_HELP = (
    "worker processes for drawing the store's RR-sets; a draw or redraw too "
    "small to gain from them (RR-sets x mean in-degree below 24,000) runs "
    "in-process, whatever N is"
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Revenue maximization in social advertising (SIGMOD 2021 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="run one algorithm on a synthetic dataset")
    _add_instance_arguments(solve)
    solve.add_argument(
        "--algorithm",
        default="RMA",
        choices=sorted(SAMPLING_ALGORITHMS),
        help="sampling-setting algorithm to run (default: RMA)",
    )
    _add_solver_arguments(solve)

    compare = subparsers.add_parser("compare", help="compare several algorithms on one instance")
    _add_instance_arguments(compare)
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["RMA", "TI-CSRM", "TI-CARM"],
        choices=sorted(SAMPLING_ALGORITHMS),
        help="algorithms to compare",
    )
    _add_solver_arguments(compare)

    dataset = subparsers.add_parser("dataset", help="print statistics of a synthetic dataset")
    dataset.add_argument("--name", default="lastfm_like", choices=sorted(DATASET_BUILDERS))
    dataset.add_argument("--scale", type=float, default=0.5)
    dataset.add_argument("--seed", type=int, default=7)

    refresh = subparsers.add_parser(
        "refresh", help="apply streaming graph deltas to an incremental RR-set store"
    )
    _add_instance_arguments(refresh)
    refresh.add_argument(
        "--rr-sets", type=int, default=2000, help="RR-sets to pre-generate in the store"
    )
    refresh.add_argument(
        "--deltas", type=int, default=8, help="synthetic graph deltas per refresh round"
    )
    refresh.add_argument(
        "--rounds", type=int, default=1, help="number of delta batches to apply"
    )
    refresh.add_argument(
        "--policy",
        default=None,
        choices=sorted(POLICY_PRESETS),
        help="execution-policy preset (default: fast)",
    )
    refresh.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=_JOBS_HELP,
    )
    refresh.add_argument("--maintenance", default=None, help=argparse.SUPPRESS)
    refresh.add_argument(
        "--payload",
        default=None,
        choices=sorted(PAYLOAD_MODES),
        help="worker-broadcast transport: 'auto' (default; shared memory for "
        "multi-MB payloads), 'pickle' or 'shm'; bit-identical either way",
    )
    refresh.add_argument(
        "--verify",
        action="store_true",
        help="after each round, regenerate a fresh store on the post-delta "
        "graph and assert it is bit-identical to the maintained store",
    )

    serve = subparsers.add_parser(
        "serve", help="run the long-lived allocation server (line-delimited JSON)"
    )
    _add_instance_arguments(serve)
    serve.add_argument(
        "--rr-sets", type=int, default=2000, help="RR-sets to generate in the store"
    )
    serve.add_argument(
        "--policy",
        default=None,
        choices=sorted(POLICY_PRESETS),
        help="execution-policy preset (default: fast)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=_JOBS_HELP,
    )
    serve.add_argument("--maintenance", default=None, help=argparse.SUPPRESS)
    serve.add_argument(
        "--payload",
        default=None,
        choices=sorted(PAYLOAD_MODES),
        help="worker-broadcast transport: 'auto' (default; shared memory for "
        "multi-MB payloads), 'pickle' or 'shm'; bit-identical either way",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (requests may override with their "
        "own deadline_s field; default: none)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="bounded admission queue; requests beyond it are shed with a "
        "structured 'overloaded' error (default: 64)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="requests dispatched (and coalesced) per engine pass (default: 4)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="wall-clock budget for finishing in-flight requests on "
        "SIGTERM/SIGINT/shutdown (default: 10)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory for the checksummed RR-store checkpoint and the "
        "delta write-ahead journal; enables kill -9 crash recovery",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint every N accepted delta batches (0: only at startup, "
        "on drain and on explicit checkpoint requests)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="listen on TCP 127.0.0.1:PORT instead of stdio (0: ephemeral, "
        "announced on stderr)",
    )
    serve.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="listen on a Unix-domain socket instead of stdio",
    )

    return parser


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="lastfm_like", choices=sorted(DATASET_BUILDERS))
    parser.add_argument("--advertisers", type=int, default=5, help="number of advertisers h")
    parser.add_argument(
        "--incentive",
        default="linear",
        choices=["linear", "quasilinear", "superlinear", "constant", "degree"],
        help="seed incentive (pricing) model",
    )
    parser.add_argument("--alpha", type=float, default=0.1, help="incentive scale α")
    parser.add_argument("--scale", type=float, default=0.3, help="network size multiplier")
    parser.add_argument("--seed", type=int, default=7, help="random seed")


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=0.1, help="approximation slack ε")
    parser.add_argument("--rho", type=float, default=0.1, help="budget overshoot control ϱ")
    parser.add_argument("--tau", type=float, default=0.1, help="threshold-search trade-off τ")
    parser.add_argument("--initial-rr-sets", type=int, default=512)
    parser.add_argument("--max-rr-sets", type=int, default=4096)
    parser.add_argument("--evaluation-rr-sets", type=int, default=10000)
    parser.add_argument(
        "--policy",
        default=None,
        choices=sorted(POLICY_PRESETS),
        help="execution-policy preset: 'fast' (hashed batched RR + batched MC + all "
        "cores; the default) or 'seed' (the serial "
        "bit-reproducible escape hatch that replays the original seed "
        "tree's RNG streams); combine with --jobs to pin the worker count",
    )
    parser.add_argument("--subsim", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--batched-greedy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard RR generation and MC estimation across N worker processes "
        "(-1: all cores, the default via --policy fast; 1: serial)",
    )
    parser.add_argument("--fast", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard wall-clock timeout for the worker pool; a shard that "
        "exceeds it is retried or run serially (default: no timeout)",
    )
    parser.add_argument(
        "--on-pool-failure",
        default=None,
        choices=sorted(ON_POOL_FAILURE_MODES),
        help="what to do when a worker dies or a shard times out: 'degrade' "
        "(retry deterministically, then fall back to serial; the default) or "
        "'raise' (fail fast with an ExecutionError)",
    )
    parser.add_argument(
        "--payload",
        default=None,
        choices=sorted(PAYLOAD_MODES),
        help="worker-broadcast transport: 'auto' (default; shared memory once "
        "the graph + probabilities reach a few MB), 'pickle' (always the "
        "pool's pipes) or 'shm' (always one shared-memory segment); results "
        "are bit-identical either way",
    )


def _policy_flag_conflict(args: argparse.Namespace) -> Optional[str]:
    """The retired-flag error message, or ``None``.

    ``--subsim`` / ``--batched-greedy`` / ``--fast`` are gone; ``--policy``
    is the only engine-selection channel (and ``fast`` is already the
    default).  ``--maintenance`` is gone too: where a store redraw runs
    follows from its size.  The flags are still parsed (hidden) so users
    get a pointed message instead of argparse's generic "unrecognized
    arguments".  ``main`` reports this through ``parser.error`` (usage
    text, exit code 2).
    """
    if getattr(args, "maintenance", None) is not None:
        return (
            "--maintenance has been removed; a store redraw of fewer than "
            "256 RR-sets runs in-process and a larger one on the worker "
            "pool, bit-identically — use --jobs N to size the pool"
        )
    retired = [
        flag
        for flag, set_ in (
            ("--subsim", getattr(args, "subsim", False)),
            ("--batched-greedy", getattr(args, "batched_greedy", False)),
            ("--fast", getattr(args, "fast", False)),
        )
        if set_
    ]
    if retired:
        return (
            f"{'/'.join(retired)} has been removed; the fast engines are the "
            "default — use --policy seed for the bit-reproducible serial "
            "path, or --policy fast --jobs N to pin the worker count"
        )
    return None


def _resolve_failure(args: argparse.Namespace) -> Optional[FailurePolicy]:
    """The :class:`FailurePolicy` requested on the command line, or ``None``.

    ``None`` means "keep the policy's default" — recovery knobs never touch
    results, so they layer on top of whatever preset/flags selected the
    engines.
    """
    if args.shard_timeout is None and args.on_pool_failure is None:
        return None
    return FailurePolicy(
        shard_timeout_s=args.shard_timeout,
        on_pool_failure=args.on_pool_failure or "degrade",
    )


def _resolve_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """Build the effective :class:`ExecutionPolicy` from the CLI flags.

    ``--policy fast`` is the default; ``--jobs`` and the failure knobs
    layer on top of whichever preset was selected.
    """
    conflict = _policy_flag_conflict(args)
    if conflict is not None:  # direct programmatic use, bypassing main()
        raise PolicyError(conflict)
    failure = _resolve_failure(args)
    policy = (
        ExecutionPolicy.preset(args.policy)
        if args.policy is not None
        else ExecutionPolicy.fast()
    )
    if args.jobs is not None:
        policy = policy.evolve(n_jobs=args.jobs)
    if failure is not None:
        policy = policy.evolve(failure=failure)
    if getattr(args, "payload", None) is not None:
        policy = policy.evolve(payload=args.payload)
    return policy


def _prepare(args: argparse.Namespace):
    data = build_dataset(
        args.dataset,
        num_advertisers=args.advertisers,
        incentive=args.incentive,
        alpha=args.alpha,
        scale=args.scale,
        seed=args.seed,
        singleton_rr_sets=500,
    )
    policy = _resolve_policy(args)
    sampling = SamplingParameters(
        epsilon=args.epsilon,
        rho=args.rho,
        tau=args.tau,
        initial_rr_sets=args.initial_rr_sets,
        max_rr_sets=args.max_rr_sets,
        policy=policy,
        seed=args.seed,
    )
    ti = TIParameters(
        epsilon=max(args.epsilon, 0.05),
        pilot_size=128,
        max_rr_sets_per_advertiser=max(256, args.max_rr_sets // max(args.advertisers, 1)),
        policy=policy,
        seed=args.seed,
    )
    return data, policy, sampling, ti


def _run_row(
    args, data, algorithm, sampling, ti, evaluator, runtime
) -> Tuple[dict, Optional[str]]:
    """One table row for ``algorithm``, and its cap note (or ``None``)."""
    # The baselines receive the (1 + rho)-scaled budget, as in the paper.
    instance = data.instance
    if algorithm not in ("RMA", "OneBatchRM"):
        instance = instance.with_scaled_budgets(1.0 + args.rho)
    run = run_algorithm(
        algorithm,
        instance,
        evaluator=evaluator,
        sampling_params=sampling,
        ti_params=ti,
        runtime=runtime,
    )
    row = {
        "algorithm": algorithm,
        "revenue": run.evaluation.revenue,
        "seeding_cost": run.evaluation.seeding_cost,
        "seeds": run.evaluation.total_seeds,
        "budget_usage": run.evaluation.budget_usage,
        "rate_of_return": run.evaluation.rate_of_return,
        "time_s": round(run.running_time_seconds, 3),
    }
    return row, run.solver_result.cap_note


def _report_recovery(runtime: Runtime) -> None:
    """Print the pool's recovery telemetry when any recovery happened.

    Silent on a failure-free run — the common case stays one
    ``effective policy:`` line; crashes/timeouts/retries surface next to it.
    """
    stats = runtime.recovery_stats
    if stats.events:
        print(f"recovery: {stats.describe()}")


def command_solve(args: argparse.Namespace) -> int:
    """Handle ``repro solve``."""
    data, policy, sampling, ti = _prepare(args)
    print(f"effective policy: {policy.describe()}")
    with Runtime(policy) as runtime:
        evaluator = independent_evaluator(
            data.instance,
            num_rr_sets=args.evaluation_rr_sets,
            seed=args.seed + 1,
            policy=policy,
            runtime=runtime,
        )
        row, note = _run_row(args, data, args.algorithm, sampling, ti, evaluator, runtime)
        _report_recovery(runtime)
    print(
        format_table(
            [row],
            title=(
                f"{args.algorithm} on {args.dataset} "
                f"(h={args.advertisers}, {args.incentive}, alpha={args.alpha})"
            ),
        )
    )
    if note:
        print(f"{args.algorithm}: {note}")
    return 0


def command_compare(args: argparse.Namespace) -> int:
    """Handle ``repro compare``."""
    data, policy, sampling, ti = _prepare(args)
    print(f"effective policy: {policy.describe()}")
    with Runtime(policy) as runtime:
        evaluator = independent_evaluator(
            data.instance,
            num_rr_sets=args.evaluation_rr_sets,
            seed=args.seed + 1,
            policy=policy,
            runtime=runtime,
        )
        rows, notes = zip(*(
            _run_row(args, data, algorithm, sampling, ti, evaluator, runtime)
            for algorithm in args.algorithms
        ))
        _report_recovery(runtime)
    print(
        format_table(
            rows,
            title=(
                f"Comparison on {args.dataset} "
                f"(h={args.advertisers}, {args.incentive}, alpha={args.alpha})"
            ),
        )
    )
    for algorithm, note in zip(args.algorithms, notes):
        if note:
            print(f"{algorithm}: {note}")
    best = max(rows, key=lambda row: row["revenue"])
    print(f"Best revenue: {best['algorithm']} ({best['revenue']:.1f})")
    return 0


def command_dataset(args: argparse.Namespace) -> int:
    """Handle ``repro dataset``."""
    rows = table1_datasets(scale=args.scale, seed=args.seed, datasets=[args.name])
    print(format_table(rows, title=f"Dataset statistics: {args.name}"))
    return 0


def _synthesize_deltas(
    view: MutableGraphView, count: int, seed: int
) -> List[GraphDelta]:
    """A deterministic batch of valid deltas for the ``refresh`` demo.

    Mostly per-advertiser probability updates (the localized case), with a
    sprinkle of edge insertions and removals.  Tracks the evolving edge set
    while synthesizing so the batch stays valid when applied in order.
    """
    rng = np.random.default_rng(seed)
    graph = view.graph
    edges = {
        (int(u), int(v)) for u, v in zip(graph.sources, graph.targets)
    }
    h = view.num_advertisers
    n = graph.num_nodes
    deltas: List[GraphDelta] = []
    while len(deltas) < count:
        roll = float(rng.random())
        if roll < 0.7 and edges:
            edge_id = int(rng.integers(0, graph.num_edges))
            u, v = int(graph.sources[edge_id]), int(graph.targets[edge_id])
            if (u, v) not in edges:
                continue
            advertiser = int(rng.integers(0, h))
            deltas.append(
                UpdateProbability(
                    u, v, float(rng.uniform(0.01, 0.5)), advertiser=advertiser
                )
            )
        elif roll < 0.85:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v or (u, v) in edges:
                continue
            probabilities = tuple(float(p) for p in rng.uniform(0.01, 0.5, h))
            deltas.append(AddEdge(u, v, probabilities))
            edges.add((u, v))
        else:
            edge_id = int(rng.integers(0, graph.num_edges))
            u, v = int(graph.sources[edge_id]), int(graph.targets[edge_id])
            if (u, v) not in edges:
                continue
            deltas.append(RemoveEdge(u, v))
            edges.discard((u, v))
    return deltas


def _verify_refresh(store: RRStore, runtime: Runtime) -> None:
    """Assert the maintained store matches a fresh one on the current graph."""
    fresh_view = MutableGraphView(
        store.view.graph, store.view.advertiser_edge_probabilities
    )
    fresh = RRStore(
        fresh_view,
        store.cpes,
        seed=store.seed,
        policy=store.policy,
        runtime=runtime,
    )
    fresh.generate(len(store.collection))
    maintained, regenerated = store.collection, fresh.collection
    identical = (
        np.array_equal(maintained.member_array, regenerated.member_array)
        and np.array_equal(maintained.set_offsets, regenerated.set_offsets)
        and np.array_equal(maintained.tag_array, regenerated.tag_array)
        and np.array_equal(np.asarray(store.roots()), np.asarray(fresh.roots()))
    )
    if not identical:
        raise SystemExit(
            "verification FAILED: maintained store differs from fresh regeneration"
        )
    print("verify: maintained store is bit-identical to fresh regeneration")


def command_refresh(args: argparse.Namespace) -> int:
    """Handle ``repro refresh``."""
    data = build_dataset(
        args.dataset,
        num_advertisers=args.advertisers,
        incentive=args.incentive,
        alpha=args.alpha,
        scale=args.scale,
        seed=args.seed,
        singleton_rr_sets=128,
    )
    instance = data.instance
    policy = (
        ExecutionPolicy.preset(args.policy)
        if args.policy is not None
        else ExecutionPolicy.fast()
    )
    if args.jobs is not None:
        policy = policy.evolve(n_jobs=args.jobs)
    if args.payload is not None:
        policy = policy.evolve(payload=args.payload)
    print(f"effective policy: {policy.describe()}")
    with Runtime(policy) as runtime:
        view = MutableGraphView(instance.graph, instance.all_edge_probabilities())
        store = RRStore(
            view, instance.cpes(), seed=args.seed, policy=policy, runtime=runtime
        )
        store.generate(args.rr_sets)
        print(
            f"store: {len(store.collection)} RR-sets over "
            f"{view.num_nodes} nodes / {view.num_edges} edges"
        )
        for round_id in range(args.rounds):
            deltas = _synthesize_deltas(
                view, args.deltas, seed=args.seed + 1 + round_id
            )
            report = store.apply_deltas(deltas)
            print(
                f"round {round_id + 1}: {len(deltas)} deltas -> epoch "
                f"{report.epoch}, redrawn {report.redrawn}/{report.total} "
                f"({report.reason}, kept {report.kept})"
            )
            if args.verify:
                _verify_refresh(store, runtime)
    return 0


def command_serve(args: argparse.Namespace) -> int:
    """Handle ``repro serve``.

    Protocol replies go to stdout (stdio mode) or the sockets; operational
    banners and the final drain summary go to stderr so they never corrupt
    the reply stream.
    """
    import signal
    from pathlib import Path

    from repro.serve import AllocationServer, ServicePolicy, SocketListener, serve_stdio

    if args.port is not None and args.unix_socket is not None:
        raise SystemExit("--port and --unix-socket are mutually exclusive")
    data = build_dataset(
        args.dataset,
        num_advertisers=args.advertisers,
        incentive=args.incentive,
        alpha=args.alpha,
        scale=args.scale,
        seed=args.seed,
        singleton_rr_sets=128,
    )
    policy = (
        ExecutionPolicy.preset(args.policy)
        if args.policy is not None
        else ExecutionPolicy.fast()
    )
    if args.jobs is not None:
        policy = policy.evolve(n_jobs=args.jobs)
    if args.payload is not None:
        policy = policy.evolve(payload=args.payload)
    service = ServicePolicy(
        deadline_s=args.deadline,
        queue_depth=args.queue_depth,
        max_inflight=args.max_inflight,
        drain_grace_s=args.drain_grace,
        checkpoint_every=args.checkpoint_every,
    )
    server = AllocationServer(
        data.instance,
        policy=policy,
        service=service,
        rr_sets=args.rr_sets,
        seed=args.seed,
        checkpoint_dir=Path(args.checkpoint_dir) if args.checkpoint_dir else None,
    )
    server.start()

    def _drain_signal(signum, frame):
        print(f"signal {signum}: draining", file=sys.stderr, flush=True)
        server.initiate_drain()

    # Handlers go in before the readiness banner: once "serving:" is out,
    # a supervisor may signal at any moment.
    signal.signal(signal.SIGTERM, _drain_signal)
    signal.signal(signal.SIGINT, _drain_signal)
    store = server.store
    print(f"effective policy: {policy.describe()}", file=sys.stderr)
    print(f"service policy: {service.describe()}", file=sys.stderr)
    source = (
        f"restored from checkpoint (replayed {server.replayed_batches} "
        "journaled batches)"
        if server.restored
        else "generated fresh"
    )
    print(
        f"serving: {len(store)} RR-sets over {store.view.num_nodes} nodes, "
        f"epoch {server.epoch}, {source}",
        file=sys.stderr,
        flush=True,
    )
    try:
        if args.port is not None or args.unix_socket is not None:
            listener = SocketListener(
                server, port=args.port, unix_path=args.unix_socket
            )
            print(f"listening: {listener.address}", file=sys.stderr, flush=True)
            listener.serve_until_stopped()
        else:
            serve_stdio(server, sys.stdin, sys.stdout)
    finally:
        server.close()
    counters = server.stats.as_dict()
    print(
        f"drained: {counters['completed']} completed, "
        f"{counters['failed']} failed, {counters['shed']} shed, "
        f"{counters['rejected']} rejected",
        file=sys.stderr,
    )
    _report_recovery(server.runtime)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    conflict = _policy_flag_conflict(args) if hasattr(args, "policy") else None
    if conflict is not None:
        parser.error(conflict)
    handlers = {
        "solve": command_solve,
        "compare": command_compare,
        "dataset": command_dataset,
        "refresh": command_refresh,
        "serve": command_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
