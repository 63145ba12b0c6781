"""Command-line interface: ``repro-ecc`` / ``python -m repro``.

Subcommands
-----------
``ecc``
    Compute the exact eccentricity distribution of a graph (edge-list
    file or registered dataset) with IFECC and print the summary.
``approx``
    Run kIFECC with a BFS budget ``k`` and report bound statistics.
``diameter``
    Exact radius/diameter via IFECC (optionally comparing against the
    SNAP sampling estimator).
``stats``
    Stratification statistics: |F1|, |F2|, layer sizes (Section 5 /
    Figure 12).
``table3``
    Print the paper's Table 3 dataset inventory alongside the synthetic
    stand-ins this reproduction substitutes for them.
``compare``
    Run every exact algorithm on a graph and print a comparison table
    (a one-graph Figure 8).
``generate``
    Generate a synthetic graph (with the dataset stand-ins' structure)
    and write it to an edge-list file.
``report``
    Full analysis report: ED, center/periphery, a diameter path, F1/F2,
    centrality summaries.
``trace``
    Inspect saved run records: ``repro-ecc trace summarize PATH`` prints
    the convergence table of a record written via ``--trace PATH`` on
    ``ecc``/``approx``/``diameter``.  Those three subcommands also take
    ``--progress`` for a live convergence view on stderr.
``bench``
    Benchmark regression gate: ``bench check`` re-verifies every
    committed ``BENCH_*.json`` artifact's recorded claims, ``bench
    compare FRESH BASELINE`` gates a fresh ``--smoke`` artifact against
    a recorded baseline with a configurable tolerance.
``store``
    Manage the binary graph store: ``store build NAME`` materializes a
    dataset stand-in as a mmap-openable ``.rcsr`` container,
    ``store info`` prints a container's header, ``store verify``
    recomputes its content fingerprint.  Every graph-taking subcommand
    also accepts ``store://NAME`` (a collection entry, materialized on
    first use) and ``.rcsr`` file paths directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.distribution import distribution_from_eccentricities
from repro.baselines.snap_diameter import snap_estimate_diameter
from repro.core.ifecc import compute_eccentricities
from repro.core.kifecc import approximate_eccentricities
from repro.core.stratify import stratify
from repro.datasets.loader import load_dataset
from repro.datasets.registry import DATASETS, paper_table3
from repro.errors import ReproError
from repro.graph.components import largest_connected_component
from repro.graph.csr import Graph
from repro.graph.io import read_edge_list

__all__ = ["main", "build_parser"]


#: URL-style prefix selecting a collection entry as a graph source.
_STORE_PREFIX = "store://"


def _store_meta(source: str, graph: Graph) -> Dict[str, Any]:
    """Run-record source metadata for a store-backed ``graph``."""
    from repro.store.format import source_of

    info = source_of(graph)
    meta: Dict[str, Any] = {"source": source}
    if info is not None:
        meta["store"] = {"path": info.path, "fingerprint": info.digest}
    return meta


def _load_graph(source: str, use_lcc: bool) -> Tuple[Graph, Dict[str, Any]]:
    """Resolve ``source`` to ``(graph, meta)``.

    Resolution order: ``store://NAME`` (collection entry, materialized
    on first use), a ``.rcsr`` container path, a registered dataset
    name, then an edge-list file path.  ``meta`` describes where the
    graph came from and is merged into run-record config headers — for
    store-backed graphs it carries the container path and content
    fingerprint.
    """
    if source.startswith(_STORE_PREFIX):
        from repro.datasets.collection import default_collection

        graph = default_collection().open(source[len(_STORE_PREFIX):])
        return graph, _store_meta(source, graph)
    if source.endswith(".rcsr"):
        from repro.store.format import open_store

        graph = open_store(source)
        return graph, _store_meta(source, graph)
    if source in DATASETS:
        return load_dataset(source), {"source": f"dataset:{source}"}
    graph = read_edge_list(source)
    if use_lcc:
        graph, _ids = largest_connected_component(graph)
    return graph, {"source": source}


def _run_traced(
    args: argparse.Namespace,
    graph: Graph,
    config: Dict[str, Any],
    run: "Callable[[], Any]",
) -> Any:
    """Run ``run()`` — traced and/or monitored when flags ask for it.

    With ``--trace PATH`` the solver executes inside a
    :func:`repro.obs.trace.tracing` block feeding a memory sink, and the
    finished run is packaged as a versioned
    :class:`repro.obs.record.RunRecord` written to ``PATH``.  With
    ``--progress`` a live :class:`repro.obs.progress.ProgressMonitor`
    renders the convergence view on stderr; given both, the monitor
    tees every event into the capturing sink.
    """
    trace_path = getattr(args, "trace", None)
    progress = bool(getattr(args, "progress", False))
    if not trace_path and not progress:
        return run()
    from repro.obs.trace import MemorySink, Sink, tracing

    capture = MemorySink() if trace_path else None
    monitor = None
    if progress:
        from repro.obs.progress import ProgressMonitor

        monitor = ProgressMonitor(stream=sys.stderr, forward=capture)
    sink: Sink = monitor if monitor is not None else capture  # type: ignore[assignment]
    with tracing(sink) as tracer:
        try:
            result = run()
        finally:
            if monitor is not None:
                monitor.close()
    if capture is not None and trace_path:
        from repro.obs.record import RunRecord

        record = RunRecord.from_run(
            result,
            graph,
            capture.events,
            config=config,
            metrics=tracer.metrics.snapshot(),
        )
        record.write_jsonl(trace_path)
        print(f"run record written to {trace_path}")
    return result


def _cmd_ecc(args: argparse.Namespace) -> int:
    graph, meta = _load_graph(args.graph, args.lcc)
    result = _run_traced(
        args,
        graph,
        {
            "command": "ecc",
            "references": args.references,
            "workers": args.workers,
            **meta,
        },
        lambda: compute_eccentricities(
            graph,
            num_references=args.references,
            workers=args.workers,
        ),
    )
    dist = distribution_from_eccentricities(result.eccentricities)
    print(f"graph: n={graph.num_vertices} m={graph.num_edges}")
    print(
        f"algorithm={result.algorithm} bfs={result.num_bfs} "
        f"time={result.elapsed_seconds:.3f}s"
    )
    print(f"radius={result.radius} diameter={result.diameter}")
    print("eccentricity distribution:")
    print(dist.ascii_plot())
    if args.output:
        np.savetxt(args.output, result.eccentricities, fmt="%d")
        print(f"eccentricities written to {args.output}")
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    graph, meta = _load_graph(args.graph, args.lcc)
    result = _run_traced(
        args,
        graph,
        {
            "command": "approx",
            "k": args.k,
            "estimator": args.estimator,
            "workers": args.workers,
            **meta,
        },
        lambda: approximate_eccentricities(
            graph,
            k=args.k,
            estimator=args.estimator,
            workers=args.workers,
        ),
    )
    resolved = int(np.count_nonzero(result.lower == result.upper))
    print(f"graph: n={graph.num_vertices} m={graph.num_edges}")
    print(
        f"algorithm={result.algorithm} bfs={result.num_bfs} "
        f"time={result.elapsed_seconds:.3f}s"
    )
    print(
        f"resolved={resolved}/{graph.num_vertices} "
        f"({100.0 * resolved / graph.num_vertices:.2f}%) "
        f"exact={result.exact}"
    )
    if args.output:
        np.savetxt(args.output, result.eccentricities, fmt="%d")
        print(f"estimates written to {args.output}")
    return 0


def _cmd_diameter(args: argparse.Namespace) -> int:
    graph, meta = _load_graph(args.graph, args.lcc)
    result = _run_traced(
        args,
        graph,
        {"command": "diameter", "workers": args.workers, **meta},
        lambda: compute_eccentricities(graph, workers=args.workers),
    )
    print(f"graph: n={graph.num_vertices} m={graph.num_edges}")
    print(
        f"radius={result.radius} diameter={result.diameter} "
        f"(IFECC, {result.num_bfs} BFS)"
    )
    if args.snap_sample:
        estimate = snap_estimate_diameter(
            graph, sample_size=args.snap_sample, seed=args.seed
        )
        print(
            f"SNAP sampling estimate (k={estimate.sample_size}): "
            f"{estimate.diameter} "
            f"(accuracy {estimate.accuracy_against(result.diameter):.1f}%)"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph, _meta = _load_graph(args.graph, args.lcc)
    strat = stratify(graph)
    sizes = strat.sizes()
    print(f"graph: n={graph.num_vertices} m={graph.num_edges}")
    print(
        f"reference z={strat.reference} (highest degree), "
        f"ecc(z)={strat.eccentricity}"
    )
    print(
        f"|F1|={sizes['F1']} ({sizes['F1'] / sizes['n']:.4%} of n)   "
        f"|F2|={sizes['F2']} ({sizes['F2'] / sizes['n']:.4%} of n)"
    )
    print("layers:")
    for i, size in enumerate(strat.layer_sizes()):
        print(f"  S_{i}: {size}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import compare_algorithms

    graph, _meta = _load_graph(args.graph, args.lcc)
    table = compare_algorithms(
        graph,
        pllecc_budget=args.budget,
        boundecc_max_bfs=args.max_bfs,
        include_naive=args.naive,
    )
    print(table.render())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets.loader import build_standin
    from repro.datasets.registry import get_spec
    from repro.graph.io import write_edge_list

    spec = get_spec(args.dataset)
    graph = build_standin(spec)
    header = (
        f"synthetic stand-in for {spec.full_name} ({spec.kind}), "
        f"seed={spec.seed}\n"
        f"n={graph.num_vertices} m={graph.num_edges}"
    )
    write_edge_list(graph, args.output, header=header)
    print(
        f"wrote {args.dataset} stand-in "
        f"(n={graph.num_vertices}, m={graph.num_edges}) to {args.output}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import analyze

    graph, _meta = _load_graph(args.graph, args.lcc)
    report = analyze(graph, with_closeness=args.closeness)
    print(report.render())
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.obs.benchguard import run_check

    return run_check(args.artifacts, root=args.root, fmt=args.format)


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.obs.benchguard import run_compare

    return run_compare(
        args.fresh,
        args.baseline,
        tolerance=args.tolerance,
        fmt=args.format,
    )


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs.record import RunRecord

    record = RunRecord.read_jsonl(args.record)
    print(record.summarize())
    return 0


def _resolve_store_target(target: str) -> str:
    """Resolve a ``store`` subcommand target to a container path.

    Accepts a ``store://NAME`` reference, a bare dataset name (looked up
    in the default collection), or a ``.rcsr`` file path.
    """
    from repro.datasets.collection import default_collection

    if target.startswith(_STORE_PREFIX):
        target = target[len(_STORE_PREFIX):]
    if target in DATASETS:
        return str(default_collection().path_for(target))
    return target


def _print_store_info(info: Any) -> None:
    print(f"path:         {info.path}")
    print(f"kind:         {info.kind} (v{info.version})")
    print(f"vertices:     {info.num_vertices}")
    print(f"entries:      {info.num_entries}")
    print(f"fingerprint:  {info.digest}")
    print(f"bytes:        {info.file_bytes}")
    for entry in info.arrays:
        print(
            f"  slot {entry.key:<12} {entry.dtype:<8} "
            f"offset={entry.offset:<12} length={entry.length}"
        )


def _cmd_store_build(args: argparse.Namespace) -> int:
    from repro.datasets.collection import GraphCollection, default_collection

    collection = (
        GraphCollection(args.root) if args.root else default_collection()
    )
    for name in args.names:
        info = collection.materialize(
            name, scale=args.scale, force=args.force
        )
        print(
            f"{name}: {info.path} (kind={info.kind}, "
            f"n={info.num_vertices}, entries={info.num_entries}, "
            f"fingerprint={info.digest})"
        )
    return 0


def _cmd_store_info(args: argparse.Namespace) -> int:
    from repro.store.format import read_info

    _print_store_info(read_info(_resolve_store_target(args.target)))
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store.format import verify_store

    info = verify_store(_resolve_store_target(args.target))
    print(f"{info.path}: OK (fingerprint {info.digest})")
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    print(
        f"{'Name':<6} {'Dataset':<14} {'n':>12} {'m':>14} "
        f"{'r':>4} {'d':>4}  {'Type':<9} {'Stand-in'}"
    )
    for name, full, n, m, r, d, kind in paper_table3():
        spec = DATASETS[name]
        standin = f"{spec.family}(n~{spec.standin_n}, seed={spec.seed})"
        print(
            f"{name:<6} {full:<14} {n:>12,} {m:>14,} "
            f"{r:>4} {d:>4}  {kind:<9} {standin}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ecc",
        description=(
            "Scalable exact and anytime graph-eccentricity computation "
            "(IFECC, SIGMOD 2022 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "graph",
            help="dataset name (see `table3`) or edge-list file path",
        )
        p.add_argument(
            "--no-lcc",
            dest="lcc",
            action="store_false",
            help="do not restrict file inputs to the largest component",
        )

    def add_trace_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            metavar="PATH",
            help="write a versioned run record (JSON Lines) of the "
            "computation; inspect it with `trace summarize PATH`",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="render a live convergence view (resolved count, "
            "bound-gap mass, traversal rate, ETA) on stderr while "
            "the solver runs; composes with --trace",
        )

    def add_workers_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="threads for batched traversals (default 1: run them "
            "in the calling thread); results are identical for every N",
        )

    p_ecc = sub.add_parser("ecc", help="exact eccentricity distribution")
    add_graph_arg(p_ecc)
    p_ecc.add_argument(
        "-r", "--references", type=int, default=1,
        help="number of reference nodes (paper default: 1)",
    )
    p_ecc.add_argument("-o", "--output", help="write eccentricities to file")
    add_trace_arg(p_ecc)
    add_workers_arg(p_ecc)
    p_ecc.set_defaults(func=_cmd_ecc)

    p_approx = sub.add_parser("approx", help="anytime kIFECC estimate")
    add_graph_arg(p_approx)
    p_approx.add_argument(
        "-k", type=int, default=16, help="BFS sample budget (default 16)"
    )
    p_approx.add_argument(
        "--estimator", choices=("lower", "upper", "midpoint"),
        default="lower",
        help="estimate for unresolved vertices (default: lower, as in "
        "Algorithm 3)",
    )
    p_approx.add_argument("-o", "--output", help="write estimates to file")
    add_trace_arg(p_approx)
    add_workers_arg(p_approx)
    p_approx.set_defaults(func=_cmd_approx)

    p_dia = sub.add_parser("diameter", help="exact radius and diameter")
    add_graph_arg(p_dia)
    p_dia.add_argument(
        "--snap-sample", type=int, default=0,
        help="also run SNAP's sampling estimator with this sample size",
    )
    p_dia.add_argument("--seed", type=int, default=0)
    add_trace_arg(p_dia)
    add_workers_arg(p_dia)
    p_dia.set_defaults(func=_cmd_diameter)

    p_stats = sub.add_parser("stats", help="F1/F2 stratification statistics")
    add_graph_arg(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_table = sub.add_parser("table3", help="print the dataset inventory")
    p_table.set_defaults(func=_cmd_table3)

    p_cmp = sub.add_parser(
        "compare", help="run all exact algorithms and compare"
    )
    add_graph_arg(p_cmp)
    p_cmp.add_argument(
        "--budget", type=float, default=60.0,
        help="PLLECC index-construction budget in seconds (default 60)",
    )
    p_cmp.add_argument(
        "--max-bfs", type=int, default=20000,
        help="BoundECC BFS cap standing in for the cut-off",
    )
    p_cmp.add_argument(
        "--naive", action="store_true",
        help="also run the |V|-BFS baseline (slow)",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser(
        "generate", help="write a dataset stand-in as an edge list"
    )
    p_gen.add_argument("dataset", help="dataset name (see `table3`)")
    p_gen.add_argument("output", help="output edge-list path")
    p_gen.set_defaults(func=_cmd_generate)

    p_store = sub.add_parser("store", help="manage the binary graph store")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sbuild = store_sub.add_parser(
        "build",
        help="materialize dataset stand-ins as .rcsr containers",
    )
    p_sbuild.add_argument(
        "names", nargs="+", metavar="NAME",
        help="dataset names (see `table3`)",
    )
    p_sbuild.add_argument(
        "--scale", type=float, default=1.0,
        help="stand-in size multiplier (default 1.0)",
    )
    p_sbuild.add_argument(
        "--force", action="store_true",
        help="rebuild even when the container already exists",
    )
    p_sbuild.add_argument(
        "--root", metavar="DIR",
        help="collection directory (default: $REPRO_STORE_DIR or "
        "~/.cache/repro)",
    )
    p_sbuild.set_defaults(func=_cmd_store_build)
    p_sinfo = store_sub.add_parser(
        "info", help="print a container's header"
    )
    p_sinfo.add_argument(
        "target", help="store://NAME, dataset name, or .rcsr path"
    )
    p_sinfo.set_defaults(func=_cmd_store_info)
    p_sverify = store_sub.add_parser(
        "verify",
        help="recompute and check a container's content fingerprint",
    )
    p_sverify.add_argument(
        "target", help="store://NAME, dataset name, or .rcsr path"
    )
    p_sverify.set_defaults(func=_cmd_store_verify)

    p_bench = sub.add_parser(
        "bench", help="benchmark regression gate (BENCH_*.json artifacts)"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bcheck = bench_sub.add_parser(
        "check",
        help="parse every committed BENCH_*.json and re-verify its "
        "recorded claims",
    )
    p_bcheck.add_argument(
        "artifacts", nargs="*", metavar="PATH",
        help="artifact paths (default: BENCH_*.json under --root)",
    )
    p_bcheck.add_argument(
        "--root", default=".",
        help="directory to glob artifacts from (default: .)",
    )
    p_bcheck.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="report style; `github` emits workflow annotations",
    )
    p_bcheck.set_defaults(func=_cmd_bench_check)
    p_bcmp = bench_sub.add_parser(
        "compare",
        help="gate a fresh --smoke artifact against a recorded baseline",
    )
    p_bcmp.add_argument("fresh", help="freshly produced artifact path")
    p_bcmp.add_argument("baseline", help="recorded baseline artifact path")
    p_bcmp.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed fractional shortfall before a headline metric "
        "counts as a regression (default 0.5)",
    )
    p_bcmp.add_argument(
        "--format", choices=("text", "github"), default="text",
        help="report style; `github` emits workflow annotations",
    )
    p_bcmp.set_defaults(func=_cmd_bench_compare)

    p_trace = sub.add_parser("trace", help="inspect saved run records")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_sum = trace_sub.add_parser(
        "summarize",
        help="print the convergence table encoded in a run record",
    )
    p_sum.add_argument("record", help="run-record JSONL path (from --trace)")
    p_sum.set_defaults(func=_cmd_trace_summarize)

    p_rep = sub.add_parser("report", help="full graph analysis report")
    add_graph_arg(p_rep)
    p_rep.add_argument(
        "--closeness", action="store_true",
        help="also compute closeness centrality (quadratic)",
    )
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
