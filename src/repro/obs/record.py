"""Versioned run records: one JSON document per solver run.

A run record is the durable artifact of one eccentricity computation —
graph fingerprint, algorithm tag, configuration, the full per-traversal
event stream, the aggregated counters/metrics, wall time, and the final
result summary.  The CLI's ``--trace PATH`` flag writes one; ``repro
trace summarize PATH`` reads it back and prints the convergence table;
benchmarks write the same format so every perf PR has a machine-readable
before/after artifact.

On disk a record is JSON Lines:

* line 1 — the **header**: ``{"kind": "header", "schema": ...,
  "version": .., "algorithm": .., "graph": {...}, "config": {...},
  "kernel": {...}}``, where ``kernel`` names the traversal kernel that
  ran (``native`` plus the library key, or ``numpy`` plus the reason
  the native build is not in use) — the first thing to compare when two
  records of the same run differ in speed.  It lives in the header,
  not the event stream, so deterministic views and golden traces are
  the same on hosts with and without a C compiler;
* one line per **event**, exactly as the tracer emitted it;
* last line — the **footer**: ``{"kind": "footer", "result": {...},
  "counters": {...}, "metrics": {...}, "wall_seconds": ...}``.

The stream layout means a sink can append events as they happen (a
crashed run still leaves a readable prefix) while readers get the whole
document by consuming the file once.  ``version`` is bumped on any
incompatible key change; readers reject newer majors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import InvalidParameterError
from repro.obs.trace import Event, _jsonable, deterministic_view

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.result import EccentricityResult

__all__ = [
    "RECORD_SCHEMA",
    "RECORD_VERSION",
    "RunRecord",
    "graph_fingerprint",
]

RECORD_SCHEMA = "repro.obs/run-record"
RECORD_VERSION = 1

#: The span name the solver core gives each traversal (the rows of the
#: convergence table).
PROBE_SPAN = "solver.probe"

#: The span the traversal pool emits per dispatch, and the event the
#: MS-BFS lane engine emits per sweep — the two batch-work shapes the
#: summary accounts for alongside single-source probes.
BATCH_SPAN = "parallel.batch"
MSBFS_EVENT = "msbfs.run"

#: The per-task span worker threads buffer; re-emitted events carry a
#: ``worker=`` attribute (see :mod:`repro.parallel.pool`).
TASK_SPAN = "parallel.task"


def graph_fingerprint(graph: Any) -> Dict[str, Any]:
    """Identity of a graph instance: sizes plus a CSR content digest.

    Works on any of the repo's graph flavours (undirected CSR, weighted,
    directed) by duck-typing the arrays; the digest is a SHA-256 prefix
    over the adjacency structure, so records can be matched to the exact
    input even when the file it came from is gone.
    """
    digest = hashlib.sha256()
    indptr = getattr(graph, "indptr", None)
    indices = getattr(graph, "indices", None)
    if indptr is None or indices is None:
        # Directed graphs expose the pair through forward_view().
        forward_view = getattr(graph, "forward_view", None)
        if forward_view is not None:
            indptr, indices = forward_view()
    if indptr is not None and indices is not None:
        digest.update(indptr.tobytes())
        digest.update(indices.tobytes())
    weights = getattr(graph, "weights", None)
    if weights is not None:
        digest.update(weights.tobytes())
    num_edges = getattr(graph, "num_edges", None)
    if num_edges is None:
        # Directed graphs count arcs, not undirected edges.
        num_edges = getattr(graph, "num_arcs", 0)
    return {
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(num_edges),
        "digest": digest.hexdigest()[:16],
    }


def _counter_dict(counter: Any) -> Dict[str, int]:
    """Totals of a :class:`repro.counters.TraversalCounter` (no history)."""
    if counter is None:
        return {}
    return {
        "traversal_runs": int(counter.bfs_runs),
        "edges_scanned": int(counter.edges_scanned),
        "edges_inspected": int(counter.edges_inspected),
        "vertices_visited": int(counter.vertices_visited),
        "relaxations": int(counter.relaxations),
        "speculative_lanes": int(counter.speculative_lanes),
    }


@dataclass
class RunRecord:
    """One solver run as a structured, replayable document."""

    algorithm: str
    graph: Dict[str, Any]
    config: Dict[str, Any] = field(default_factory=dict)
    events: List[Event] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    result: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    version: int = RECORD_VERSION
    kernel: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------ build
    @classmethod
    def from_run(
        cls,
        result: "EccentricityResult",
        graph: Any,
        events: List[Event],
        config: Optional[Dict[str, Any]] = None,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> "RunRecord":
        """Package a finished run (live result + captured events)."""
        from repro.graph.native import kernel_info

        info = kernel_info()
        resolved = int((result.lower == result.upper).sum())
        return cls(
            algorithm=result.algorithm,
            graph=graph_fingerprint(graph),
            config=dict(config or {}),
            events=list(events),
            counters=_counter_dict(result.counter),
            metrics=dict(metrics or {}),
            result={
                "exact": bool(result.exact),
                "num_traversals": int(result.num_bfs),
                "radius": result.radius,
                "diameter": result.diameter,
                "num_vertices": int(result.num_vertices),
                "resolved": resolved,
            },
            wall_seconds=float(result.elapsed_seconds),
            kernel={"kind": info.kind, "detail": info.detail},
        )

    # ------------------------------------------------------------- I/O
    def write_jsonl(self, path: str) -> None:
        """Write the header / events / footer stream to ``path``."""
        header = {
            "kind": "header",
            "schema": RECORD_SCHEMA,
            "version": self.version,
            "algorithm": self.algorithm,
            "graph": self.graph,
            "config": self.config,
            "kernel": self.kernel,
        }
        footer = {
            "kind": "footer",
            "result": self.result,
            "counters": self.counters,
            "metrics": self.metrics,
            "wall_seconds": self.wall_seconds,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, default=_jsonable) + "\n")
            for event in self.events:
                handle.write(json.dumps(event, default=_jsonable) + "\n")
            handle.write(json.dumps(footer, default=_jsonable) + "\n")

    @classmethod
    def read_jsonl(cls, path: str) -> "RunRecord":
        """Parse a record written by :meth:`write_jsonl`.

        Tolerates a crashed run: a missing footer leaves result/counters
        empty with the events read so far preserved, and a torn *final*
        line (the process died mid-write) is dropped rather than raised
        on — corruption anywhere earlier still raises.
        """
        header: Optional[Dict[str, Any]] = None
        footer: Dict[str, Any] = {}
        events: List[Event] = []
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        lines = [line for line in lines if line]
        for index, line in enumerate(lines):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    break
                raise
            kind = doc.get("kind")
            if kind == "header":
                header = doc
            elif kind == "footer":
                footer = doc
            else:
                events.append(doc)
        if header is None:
            raise InvalidParameterError(
                f"{path}: not a run record (no header line)"
            )
        if header.get("schema") != RECORD_SCHEMA:
            raise InvalidParameterError(
                f"{path}: unknown schema {header.get('schema')!r}"
            )
        version = int(header.get("version", 0))
        if version > RECORD_VERSION:
            raise InvalidParameterError(
                f"{path}: record version {version} is newer than this "
                f"reader (max {RECORD_VERSION})"
            )
        return cls(
            algorithm=str(header.get("algorithm", "?")),
            graph=dict(header.get("graph", {})),
            config=dict(header.get("config", {})),
            events=events,
            counters=dict(footer.get("counters", {})),
            metrics=dict(footer.get("metrics", {})),
            result=dict(footer.get("result", {})),
            wall_seconds=float(footer.get("wall_seconds", 0.0)),
            version=version,
            kernel=dict(header.get("kernel", {})),
        )

    # ------------------------------------------------------- analysis
    def probe_events(self) -> List[Event]:
        """The per-traversal spans, in completion order."""
        return [e for e in self.events if e.get("name") == PROBE_SPAN]

    def batch_events(self) -> List[Event]:
        """The ``parallel.batch`` dispatch spans, in completion order."""
        return [e for e in self.events if e.get("name") == BATCH_SPAN]

    def msbfs_events(self) -> List[Event]:
        """The ``msbfs.run`` lane-sweep events, in stream order."""
        return [e for e in self.events if e.get("name") == MSBFS_EVENT]

    def deterministic_events(self) -> List[Event]:
        """Events with volatile keys stripped (see obs.trace)."""
        return deterministic_view(self.events)

    def summarize(self) -> str:
        """The convergence table a saved record encodes.

        One row per traversal: running traversal count, probed source,
        probe kind, FFO position, vertices resolved so far, remaining
        gap — the same curve the live ``ProgressSnapshot`` stream shows,
        replayed from disk.
        """
        lines = [
            f"run record v{self.version}: algorithm={self.algorithm}",
            "graph: n={num_vertices} m={num_edges} "
            "fingerprint={digest}".format(
                num_vertices=self.graph.get("num_vertices", "?"),
                num_edges=self.graph.get("num_edges", "?"),
                digest=self.graph.get("digest", "?"),
            ),
        ]
        if self.config:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
            lines.append(f"config: {pairs}")
        if self.kernel:
            lines.append(
                "kernel: {kind} ({detail})".format(
                    kind=self.kernel.get("kind", "?"),
                    detail=self.kernel.get("detail", "?"),
                )
            )
        probes = self.probe_events()
        if probes:
            lines.append("convergence:")
            lines.append(
                f"  {'trav':>5} {'source':>8} {'kind':<10} {'ffo':>6} "
                f"{'resolved':>9} {'remaining':>10}"
            )
            for event in probes:
                ffo = event.get("ffo_rank")
                lines.append(
                    "  {trav:>5} {source:>8} {kind:<10} {ffo:>6} "
                    "{resolved:>9} {remaining:>10}".format(
                        trav=event.get("traversals", "?"),
                        source=event.get("source", "?"),
                        kind=str(event.get("probe", "?")),
                        ffo="-" if ffo is None else ffo,
                        resolved=event.get("resolved", "?"),
                        remaining=event.get("remaining", "?"),
                    )
                )
        batches = self.batch_events()
        sweeps = self.msbfs_events()
        if batches or sweeps:
            # Batch algorithms (naive ED, MS-BFS, the traversal pool) do
            # their traversal work outside solver.probe spans; account
            # for it here so a summarized record never undercounts.
            lines.append("batch work:")
            if batches:
                tasks = sum(int(e.get("tasks", 0)) for e in batches)
                traversals = sum(
                    int(e.get("traversals", 0)) for e in batches
                )
                seconds = sum(
                    float(s)
                    for e in batches
                    for s in dict(e.get("worker_seconds") or {}).values()
                )
                kinds = sorted(
                    {str(e.get("kind", "?")) for e in batches}
                )
                lines.append(
                    f"  pool dispatches={len(batches)} "
                    f"kinds={','.join(kinds)} tasks={tasks} "
                    f"traversals={traversals} "
                    f"worker_seconds={seconds:.3f}"
                )
            if sweeps:
                sources = sum(int(e.get("num_sources", 0)) for e in sweeps)
                edges = sum(int(e.get("edges_scanned", 0)) for e in sweeps)
                lines.append(
                    f"  msbfs sweeps={len(sweeps)} sources={sources} "
                    f"edges_scanned={edges}"
                )
            per_worker: Dict[int, int] = {}
            for event in self.events:
                if event.get("name") == TASK_SPAN:
                    worker = event.get("worker")
                    if isinstance(worker, int):
                        per_worker[worker] = per_worker.get(worker, 0) + 1
            if per_worker:
                shares = " ".join(
                    f"w{w}={per_worker[w]}" for w in sorted(per_worker)
                )
                lines.append(f"  worker tasks: {shares}")
        result = self.result
        if result:
            lines.append(
                "final: traversals={t} radius={r} diameter={d} "
                "resolved={res}/{n} exact={e}".format(
                    t=result.get("num_traversals", "?"),
                    r=result.get("radius", "?"),
                    d=result.get("diameter", "?"),
                    res=result.get("resolved", "?"),
                    n=result.get("num_vertices", "?"),
                    e=result.get("exact", "?"),
                )
            )
        totals = self.counters
        if totals:
            lines.append(
                "work: runs={runs} edges_scanned={scanned} "
                "edges_inspected={inspected} relaxations={relax} "
                "speculative_lanes={spec}".format(
                    runs=totals.get("traversal_runs", "?"),
                    scanned=totals.get("edges_scanned", "?"),
                    inspected=totals.get("edges_inspected", "?"),
                    relax=totals.get("relaxations", "?"),
                    spec=totals.get("speculative_lanes", 0),
                )
            )
        lines.append(f"wall: {self.wall_seconds:.3f}s")
        return "\n".join(lines)
