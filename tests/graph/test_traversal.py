"""Unit tests for the BFS engine, cross-checked against scipy."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.errors import InvalidVertexError
from repro.graph.csr import Graph
from repro.graph.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.traversal import (
    UNREACHED,
    TraversalCounter,
    bfs_distances,
    bfs_distances_bounded,
    eccentricity,
    eccentricity_and_distances,
    multi_source_bfs,
)

from helpers import random_connected_graph


def scipy_distances(graph: Graph, source: int) -> np.ndarray:
    matrix = sp.csr_matrix(
        (
            np.ones(len(graph.indices), dtype=np.int8),
            graph.indices,
            graph.indptr,
        ),
        shape=(graph.num_vertices, graph.num_vertices),
    )
    dist = csgraph.shortest_path(
        matrix, method="D", unweighted=True, indices=source
    )
    out = np.where(np.isinf(dist), -1, dist).astype(np.int32)
    return out


class TestBFSDistances:
    def test_path_graph(self):
        g = path_graph(6)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 4, 5]

    def test_cycle_graph(self):
        g = cycle_graph(6)
        assert bfs_distances(g, 0).tolist() == [0, 1, 2, 3, 2, 1]

    def test_star_center_and_leaf(self):
        g = star_graph(5)
        assert bfs_distances(g, 0).tolist() == [0, 1, 1, 1, 1]
        leaf = bfs_distances(g, 1)
        assert leaf[0] == 1 and all(leaf[i] == 2 for i in range(2, 5))

    def test_unreachable_marked(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        dist = bfs_distances(g, 0)
        assert dist[2] == UNREACHED

    def test_source_distance_zero(self):
        g = grid_graph(3, 3)
        for s in range(9):
            assert bfs_distances(g, s)[s] == 0

    def test_matches_scipy_on_random_graphs(self):
        for seed in range(5):
            g = random_connected_graph(60, 40, seed)
            for source in (0, 17, 59):
                np.testing.assert_array_equal(
                    bfs_distances(g, source), scipy_distances(g, source)
                )

    def test_invalid_source(self):
        with pytest.raises(InvalidVertexError):
            bfs_distances(path_graph(3), 3)

    def test_single_vertex(self):
        g = Graph.from_edges([], num_vertices=1)
        assert bfs_distances(g, 0).tolist() == [0]


class TestBoundedBFS:
    def test_limit_truncates(self):
        g = path_graph(10)
        dist = bfs_distances_bounded(g, 0, limit=3)
        assert dist[3] == 3
        assert dist[4] == UNREACHED

    def test_limit_zero_only_source(self):
        g = path_graph(4)
        dist = bfs_distances_bounded(g, 1, limit=0)
        assert dist.tolist() == [-1, 0, -1, -1]

    def test_no_limit_full(self):
        g = grid_graph(4, 4)
        np.testing.assert_array_equal(
            bfs_distances_bounded(g, 5, limit=None), bfs_distances(g, 5)
        )


class TestEccentricity:
    def test_path_ends(self):
        g = path_graph(7)
        assert eccentricity(g, 0) == 6
        assert eccentricity(g, 3) == 3

    def test_cycle_uniform(self):
        g = cycle_graph(8)
        assert all(eccentricity(g, v) == 4 for v in range(8))

    def test_returns_distances_too(self):
        g = star_graph(4)
        ecc, dist = eccentricity_and_distances(g, 0)
        assert ecc == 1
        assert dist.tolist() == [0, 1, 1, 1]

    def test_within_component_only(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert eccentricity(g, 0) == 1


class TestMultiSourceBFS:
    def test_single_source_matches_bfs(self):
        g = grid_graph(4, 4)
        dist, owner = multi_source_bfs(g, [5])
        np.testing.assert_array_equal(dist, bfs_distances(g, 5))
        assert np.all(owner == 5)

    def test_nearest_source_distance(self):
        g = path_graph(10)
        dist, owner = multi_source_bfs(g, [0, 9])
        expected = [min(v, 9 - v) for v in range(10)]
        assert dist.tolist() == expected

    def test_owner_assignment(self):
        g = path_graph(10)
        _dist, owner = multi_source_bfs(g, [0, 9])
        assert owner[1] == 0
        assert owner[8] == 9

    def test_tie_goes_to_earlier_source(self):
        g = path_graph(5)
        _dist, owner = multi_source_bfs(g, [0, 4])
        assert owner[2] == 0  # equidistant, first source wins
        _dist, owner = multi_source_bfs(g, [4, 0])
        assert owner[2] == 4

    def test_empty_sources(self):
        g = path_graph(3)
        dist, owner = multi_source_bfs(g, [])
        assert np.all(dist == UNREACHED)
        assert np.all(owner == -1)

    def test_invalid_source(self):
        with pytest.raises(InvalidVertexError):
            multi_source_bfs(path_graph(3), [0, 7])

    def test_matches_min_over_singles(self):
        g = random_connected_graph(50, 30, seed=3)
        sources = [0, 10, 20]
        dist, _owner = multi_source_bfs(g, sources)
        singles = np.stack([bfs_distances(g, s) for s in sources])
        np.testing.assert_array_equal(dist, singles.min(axis=0))


class TestTraversalCounter:
    def test_counts_runs(self):
        g = path_graph(5)
        counter = TraversalCounter()
        bfs_distances(g, 0, counter=counter)
        bfs_distances(g, 1, counter=counter)
        assert counter.bfs_runs == 2

    def test_counts_vertices(self):
        g = path_graph(5)
        counter = TraversalCounter()
        bfs_distances(g, 0, counter=counter)
        assert counter.vertices_visited == 5

    def test_merge(self):
        a, b = TraversalCounter(), TraversalCounter()
        bfs_distances(path_graph(3), 0, counter=a)
        bfs_distances(path_graph(3), 0, counter=b)
        a.merge(b)
        assert a.bfs_runs == 2

    def test_history_labels(self):
        counter = TraversalCounter()
        bfs_distances(path_graph(3), 2, counter=counter)
        assert counter.history == ["bfs:2"]

    def test_new_name_is_silent(self, recwarn):
        counter = TraversalCounter()
        counter.record(edges=1, vertices=1)
        deprecations = [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]
        assert deprecations == []

    def test_unknown_attribute_still_raises(self):
        import repro.counters as counters

        with pytest.raises(AttributeError):
            counters.NoSuchMeter


class TestAllPairs:
    def test_yields_every_vertex(self):
        from repro.graph.traversal import all_pairs_distances

        g = grid_graph(3, 3)
        rows = dict(all_pairs_distances(g))
        assert sorted(rows) == list(range(9))
        for v, dist in rows.items():
            np.testing.assert_array_equal(dist, bfs_distances(g, v))

    def test_counter_counts_n_runs(self):
        from repro.graph.traversal import all_pairs_distances

        g = path_graph(6)
        counter = TraversalCounter()
        list(all_pairs_distances(g, counter=counter))
        assert counter.bfs_runs == 6

    def test_lazy_generator(self):
        from repro.graph.traversal import all_pairs_distances

        g = path_graph(50)
        gen = all_pairs_distances(g)
        v, dist = next(gen)
        assert v == 0
        assert dist[49] == 49


class TestBoundedValidation:
    def test_negative_limit_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            bfs_distances_bounded(path_graph(4), 0, limit=-1)
