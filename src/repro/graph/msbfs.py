"""Bit-parallel multi-source BFS (MS-BFS) — the batch-traversal API.

Then et al., *The More the Merrier: Efficient Multi-Source Graph
Traversal* (VLDB 2014) — the paper's reference [35] — showed that up to
64 BFS traversals can share one sweep over the graph by packing their
"visited" sets into machine words: one ``uint64`` lane per source.

This is the substrate of choice when *many* full BFS runs are needed —
the naive ED oracle, closeness centrality, and kBFS-style sampling all
benefit.  It does not help IFECC itself (whose whole point is to need
very few traversals), which is why the paper's algorithm does not use
it; we provide it as the honest fast path for the baselines.

The sweeps themselves live in :mod:`repro.graph.msengine` since the
direction-optimizing rewrite: :class:`~repro.graph.msengine.MSBFSEngine`
runs the lane kernel top-down *or* bottom-up per level (Beamer-style
switching over the lanes' aggregate frontier arc mass) and supports
64/128/256-lane words.  This module keeps the historical entry points —
:func:`multi_source_distances` and :func:`msbfs_eccentricities` — as
thin routers over the engine, with identical results: lane packing and
direction choice never change the level-synchronous distances.

Like the single-source engine (:mod:`repro.graph.engine`), the lane
bitmaps follow the pooled-workspace discipline: the ``uint64`` ``seen``
/ ``frontier`` / ``next`` buffers are allocated once per graph (weakly
cached, safe because the CSR is immutable) and zeroed in place between
batches — :class:`_LaneWorkspace` is now an alias of the engine's
pooled :class:`~repro.graph.msengine._MSWorkspace`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import InvalidVertexError
from repro.graph.csr import Graph
from repro.graph.msengine import (
    LANE_WORD_BITS,
    _MSWorkspace,
    batch_distance_rows,
    msengine_for,
    plan_lane_width,
)
from repro.graph.traversal import TraversalCounter
from repro.parallel.pool import pool_for
from repro.sentinels import UNREACHED

__all__ = [
    "multi_source_distances",
    "msbfs_eccentricities",
]

_LANES = LANE_WORD_BITS

#: Historical name for the pooled lane bitmaps; the buffers (and their
#: loan semantics) now belong to the MS engine's workspaces.
_LaneWorkspace = _MSWorkspace


def multi_source_distances(
    graph: Graph,
    sources: Sequence[int],
    counter: Optional[TraversalCounter] = None,
    workers: Optional[int] = 1,
) -> np.ndarray:
    """Full distance vectors for many sources via MS-BFS.

    Returns an ``(len(sources), n)`` matrix; row ``i`` equals
    ``bfs_distances(graph, sources[i])``.  Sources are cut into lane
    groups as planned by :func:`repro.graph.msengine.plan_lane_width`;
    duplicate sources share one pooled lane and are expanded afterwards
    (each still credited as one traversal).  With ``workers != 1`` the lane groups
    run on the threads of the graph's :func:`repro.parallel.pool.
    pool_for` pool (bit-identical — lane packing does not depend on
    which thread sweeps).

    :dtype src: int64
    """
    n = graph.num_vertices
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size and (src.min() < 0 or src.max() >= n):
        bad = src[(src < 0) | (src >= n)][0]
        raise InvalidVertexError(int(bad), n)
    if workers != 1:
        return pool_for(graph, workers=workers).distance_rows(
            src, counter=counter
        )
    return batch_distance_rows(graph, src, counter=counter)


def msbfs_eccentricities(
    graph: Graph,
    counter: Optional[TraversalCounter] = None,
    workers: Optional[int] = 1,
) -> np.ndarray:
    """The naive exact ED computed with MS-BFS batches.

    Same quadratic work as :func:`repro.baselines.naive`, but each sweep
    serves a full lane group — the fair "fast naive" baseline of [35].
    Eccentricities are taken within components.  ``workers != 1``
    spreads the lane groups over that many threads.

    :dtype ecc: int32
    """
    n = graph.num_vertices
    if workers != 1:
        return pool_for(graph, workers=workers).eccentricities(
            counter=counter
        )
    ecc = np.zeros(n, dtype=np.int32)
    width = plan_lane_width(int(len(graph.indices)), n) or _LANES
    engine = msengine_for(graph)
    for start in range(0, n, width):
        batch = np.arange(start, min(start + width, n), dtype=np.int64)
        # The engine reduces each sweep straight to eccentricities —
        # the source's own 0 keeps the within-component max correct.
        ecc[batch] = engine.ecc_batch(batch, counter=counter)
    return ecc
