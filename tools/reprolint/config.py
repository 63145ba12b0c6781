"""Repository-specific policy knobs for the rule set.

Rules read these constants instead of hard-coding paths so the policy is
reviewable in one place.  Paths are repository-relative posix strings.
"""

from __future__ import annotations

__all__ = [
    "SRC_PREFIX",
    "SRC_ROOT",
    "CSR_MUTATION_ALLOWLIST",
    "BOUNDS_MODULE",
    "BOUNDS_PROTECTED_MODULES",
    "BANNED_SRC_IMPORTS",
    "ALLOWED_SRC_IMPORT_ROOTS",
    "HOT_PATH_PREFIXES",
    "PUBLIC_API_EXEMPT",
    "CANONICAL_DTYPES",
    "KNOWN_DTYPES",
    "TIMING_EXEMPT_PREFIXES",
    "POOLED_BUFFER_ATTRS",
    "WORKSPACE_PRODUCERS",
    "PROTOCOL_WORKSPACE_METHODS",
    "WORKSPACE_RULE_EXEMPT",
    "MUTATION_CONTRACT_TYPES",
    "SHARED_STATE",
    "JUSTIFICATION_REQUIRED",
]

#: Everything under here is shipped library code and held to the
#: strictest standard.
SRC_PREFIX = "src/repro/"

#: Import root of the shipped package; ``repro.x.y`` resolves to
#: ``src/repro/x/y.py`` for the cross-module dataflow analysis.
SRC_ROOT = "src"

#: The only modules allowed to create or (re)mark CSR arrays.  They are
#: the constructors: everything else must treat ``Graph.indptr`` /
#: ``Graph.indices`` as frozen (Theorem 4.5's O(m+n) immutable layout).
CSR_MUTATION_ALLOWLIST = frozenset(
    {
        "src/repro/graph/builder.py",
        "src/repro/graph/csr.py",
        "src/repro/directed/graph.py",
        "src/repro/weighted/graph.py",
        # Rebuilds frozen zero-copy graphs over mapped .rcsr store
        # pages (graph_from_arrays); a constructor in everything but
        # name.
        "src/repro/store/format.py",
    }
)

#: The one module allowed to assign to eccentricity bound arrays; all
#: other code must go through the BoundState API (Lemma 3.1 / 3.3).
BOUNDS_MODULE = "src/repro/core/bounds.py"

#: Solver-core modules where even *bare* ``lower`` / ``upper`` local
#: names count as bound arrays for R2.  These are the metric-generic
#: Algorithm-2 loop and its weighted/directed instantiations — the
#: modules where a raw bound write would bypass the tolerance-aware
#: invariant checks the unification introduced.
BOUNDS_PROTECTED_MODULES = frozenset(
    {
        "src/repro/core/solver.py",
        "src/repro/weighted/eccentricity.py",
        "src/repro/directed/eccentricity.py",
    }
)

#: Heavyweight graph libraries that must never leak into shipped code;
#: they are test/bench-only oracles.
BANNED_SRC_IMPORTS = frozenset({"networkx", "scipy", "pandas", "matplotlib"})

#: Import roots shipped code may use: the standard library is detected
#: dynamically; beyond it only these are allowed.
ALLOWED_SRC_IMPORT_ROOTS = frozenset({"numpy", "repro"})

#: Modules whose loops dominate the paper's measured runtimes.  Nested
#: Python-level loops here silently demote "scalable" to "quadratic
#: interpreter time".
#: (weighted/dijkstra.py is deliberately absent: binary-heap Dijkstra is
#: an inherently scalar loop; its cost is the metric's price, not an
#: accidental de-vectorisation.)
HOT_PATH_PREFIXES = (
    "src/repro/core/",
    "src/repro/graph/engine.py",
    "src/repro/graph/traversal.py",
    "src/repro/graph/msbfs.py",
    "src/repro/graph/msengine.py",
    "src/repro/weighted/eccentricity.py",
    "src/repro/directed/eccentricity.py",
    "src/repro/directed/traversal.py",
    "src/repro/parallel/pool.py",
)

#: Modules exempt from the ``__all__`` requirement (script entry points).
PUBLIC_API_EXEMPT = frozenset({"src/repro/__main__.py"})

#: Canonical dtypes for the CSR arrays (Theorem 4.5 memory accounting):
#: variables with these exact names must be constructed with the matching
#: dtype whenever an explicit dtype appears at the construction site.
CANONICAL_DTYPES = {"indptr": "int64", "indices": "int32"}

#: The observability subsystem is the only shipped code allowed to call
#: ``time.perf_counter()`` directly (R8 ``no-adhoc-timing``): it *is*
#: the clock abstraction.  Everything else measures wall time through
#: ``repro.obs.trace.Stopwatch`` or a tracer span, so timings stay
#: consistent, mockable, and visible to the trace/metrics layer.
TIMING_EXEMPT_PREFIXES = ("src/repro/obs/",)

# ---------------------------------------------------------------------------
# Buffer-ownership policy (R9 / R10 / R11, tools/reprolint/dataflow.py)
# ---------------------------------------------------------------------------

#: Pooled workspace buffers, keyed by owning class.  An expression whose
#: provenance reaches one of these attributes is treated as a *loan* of
#: the pool: valid until the owner's next run, never to be returned or
#: stored without an explicit ``.copy()``.
POOLED_BUFFER_ATTRS = {
    "repro.graph.engine.BFSEngine": frozenset(
        {"_dist", "_frontier_mask", "_dedupe_mask", "_owner", "_priority"}
    ),
    "repro.graph.msbfs._LaneWorkspace": frozenset(
        {"seen", "frontier", "next_mask"}
    ),
    "repro.graph.msengine._MSWorkspace": frozenset(
        {"seen", "frontier", "next_mask"}
    ),
}

#: Functions *documented* to return pooled buffers — the producer API.
#: R9 does not flag their own ``return`` statements; every caller is
#: still analysed as receiving a loan.  Keys are ``module-qualified``
#: function names.
WORKSPACE_PRODUCERS = frozenset(
    {
        "repro.graph.engine.BFSEngine.run",
        "repro.graph.engine.BFSEngine._run_impl",
        "repro.graph.engine.BFSEngine.run_multi",
        "repro.graph.engine.BFSEngine._run_multi_impl",
        "repro.sanitize.WorkspaceGuard.loan",
    }
)

#: ``DistanceOracle`` protocol methods that may return pooled-workspace
#: views regardless of the concrete receiver; the tuple lists each
#: returned slot as ``"workspace"`` or ``None``.  Keeps consumers honest
#: even when the receiver's concrete class cannot be resolved.  Empty:
#: every protocol method returns caller-owned arrays (``sweep_probes``
#: gathers its rows out of the pooled BFS buffer).
PROTOCOL_WORKSPACE_METHODS: dict[str, tuple[str | None, ...]] = {}

#: Files exempt from R9: the sanitizer *is* the guard layer and handles
#: raw pooled buffers by design.
WORKSPACE_RULE_EXEMPT = frozenset({"src/repro/sanitize.py"})

#: Annotation base names that put a parameter in scope for the R11
#: ``:mutates name:`` docstring contract: ndarrays plus the registered
#: pooled-workspace owner types.
MUTATION_CONTRACT_TYPES = frozenset(
    {"ndarray", "BFSEngine", "_LaneWorkspace", "MSBFSEngine", "_MSWorkspace"}
)

#: Registered module-level mutable state (R10): every mutable module
#: global and weak-keyed cache in shipped code must appear here, mapped
#: to the guard helpers that are allowed to touch it.  Everything else
#: must treat these names as private to their accessors.
SHARED_STATE = {
    "src/repro/graph/engine.py": {
        "_ENGINES": ("engine_for",),
    },
    "src/repro/graph/msengine.py": {
        "_ENGINES": ("msengine_for",),
    },
    "src/repro/directed/traversal.py": {
        "_VIEWS": ("_csr_views",),
    },
    "src/repro/graph/native.py": {
        "_STATE": ("_state", "kernels", "kernel_info", "_swapped"),
    },
    "src/repro/parallel/pool.py": {
        "_POOLS": ("pool_for", "shutdown_pools"),
    },
    "src/repro/datasets/loader.py": {
        "_CACHE": ("load_dataset", "clear_cache"),
    },
    "src/repro/datasets/collection.py": {
        "_DEFAULT_COLLECTION": (
            "default_collection",
            "reset_default_collection",
        ),
    },
    "src/repro/store/format.py": {
        "_SOURCES": ("register_source", "source_of"),
    },
    "src/repro/obs/trace.py": {
        "_ACTIVE": ("get_tracer", "set_tracer", "tracing"),
        "_THREAD": ("get_tracer", "thread_tracing"),
    },
    "src/repro/obs/benchguard.py": {
        "SCHEMAS": ("extractor_for", "known_schemas"),
    },
    "src/repro/sanitize.py": {
        "_ENABLED": ("enabled", "enable", "disable", "sanitized"),
    },
    "tools/reprolint/registry.py": {
        "RULE_REGISTRY": ("rule", "all_rules"),
    },
}

#: Suppressions of these rules must carry a justification comment after
#: the code list, e.g. ``disable=R9 (returns the documented loan)``.
JUSTIFICATION_REQUIRED = frozenset(
    {
        "r9",
        "workspace-escape",
        "r10",
        "guarded-shared-state",
        "r11",
        "inplace-mutation-contract",
    }
)

#: Dtype spellings understood by the ``:dtype name: <dtype>`` docstring
#: contract grammar.
KNOWN_DTYPES = frozenset(
    {
        "bool_",
        "int8",
        "int16",
        "int32",
        "int64",
        "uint8",
        "uint16",
        "uint32",
        "uint64",
        "float32",
        "float64",
    }
)
