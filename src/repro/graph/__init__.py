"""Graph substrate: CSR storage, construction, traversal, components, I/O,
and synthetic generators.

This package is self-contained (numpy only) and is the foundation every
algorithm in :mod:`repro.core` and :mod:`repro.baselines` builds on.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.engine import BFSEngine, BFSRunStats, engine_for
from repro.graph.components import (
    connected_components,
    is_connected,
    largest_connected_component,
    split_components,
)
from repro.graph.csr import Graph
from repro.graph.msbfs import msbfs_eccentricities, multi_source_distances
from repro.graph.msengine import (
    MSBFSEngine,
    MSBFSRunStats,
    batch_distance_rows,
    msengine_for,
    plan_lane_width,
)
from repro.graph.paths import bfs_parents, diameter_path, shortest_path
from repro.graph.traversal import (
    UNREACHED,
    TraversalCounter,
    bfs_distances,
    eccentricity,
    eccentricity_and_distances,
    multi_source_bfs,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "TraversalCounter",
    "BFSEngine",
    "BFSRunStats",
    "engine_for",
    "MSBFSEngine",
    "MSBFSRunStats",
    "batch_distance_rows",
    "msengine_for",
    "plan_lane_width",
    "UNREACHED",
    "bfs_distances",
    "eccentricity",
    "eccentricity_and_distances",
    "multi_source_bfs",
    "multi_source_distances",
    "msbfs_eccentricities",
    "bfs_parents",
    "shortest_path",
    "diameter_path",
    "connected_components",
    "is_connected",
    "largest_connected_component",
    "split_components",
]
