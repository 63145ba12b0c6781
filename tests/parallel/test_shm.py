"""Graph publication for the process backend (repro.parallel.shm).

Every published graph crosses the process boundary as ``.rcsr`` bytes:
a store file for store-backed graphs, the same container image in a
shared-memory segment for in-memory ones.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ParallelBackendError
from repro.graph.generators import barabasi_albert, paper_example_graph
from repro.parallel.shm import (
    ArraySpec,
    SharedGraphSpec,
    attach,
    attach_array,
    create_segment,
    publish_graph,
    shared_memory_available,
)
from repro.store.format import (
    HEADER_SIZE,
    open_store,
    parse_header,
    save_store,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)


def _weighted():
    from repro.weighted.graph import WeightedGraph

    return WeightedGraph.from_edges(
        [(0, 1, 1.5), (1, 2, 0.25), (2, 3, 2.0), (3, 0, 1.0)]
    )


def _directed():
    from repro.directed.graph import DirectedGraph

    return DirectedGraph.from_arcs([(0, 1), (1, 2), (2, 3), (3, 0)])


def _csr_arrays(graph):
    """Every CSR array of ``graph``, in a fixed order per kind."""
    if hasattr(graph, "forward_view"):
        return graph.forward_view() + graph.backward_view()
    arrays = (graph.indptr, graph.indices, graph.degrees)
    if getattr(graph, "weights", None) is not None:
        arrays += (graph.weights,)
    return arrays


def _assert_bitwise_equal(rebuilt, graph):
    assert type(rebuilt) is type(graph)
    assert rebuilt.num_vertices == graph.num_vertices
    for got, want in zip(_csr_arrays(rebuilt), _csr_arrays(graph)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _backed_by_memmap(array):
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


class TestRoundTrip:
    """In-memory graphs: encoded once into a shared-memory image."""

    def test_graph_round_trip_is_bitwise(self):
        graph = barabasi_albert(200, 3, seed=9)
        with publish_graph(graph) as share:
            rebuilt, segment = attach(share.spec)
            try:
                _assert_bitwise_equal(rebuilt, graph)
                assert rebuilt.indptr.dtype == np.int64
                assert rebuilt.indices.dtype == np.int32
            finally:
                segment.close()

    def test_attached_views_are_frozen(self):
        with publish_graph(paper_example_graph()) as share:
            rebuilt, segment = attach(share.spec)
            try:
                for array in (
                    rebuilt.indptr, rebuilt.indices, rebuilt.degrees
                ):
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[0] = 99
            finally:
                segment.close()

    def test_attached_views_are_zero_copy(self):
        with publish_graph(paper_example_graph()) as share:
            rebuilt, segment = attach(share.spec)
            try:
                info = parse_header(
                    bytes(segment.buf[:HEADER_SIZE]), segment.size, "image"
                )
                for key in ("indptr", "indices"):
                    slot = info.array(key)
                    spec = ArraySpec(
                        key, slot.offset, (slot.length,), slot.dtype
                    )
                    raw = attach_array(segment, spec)
                    assert np.shares_memory(getattr(rebuilt, key), raw)
            finally:
                segment.close()

    def test_weighted_round_trip(self):
        graph = _weighted()
        with publish_graph(graph) as share:
            rebuilt, segment = attach(share.spec)
            try:
                _assert_bitwise_equal(rebuilt, graph)
            finally:
                segment.close()

    def test_directed_round_trip(self):
        graph = _directed()
        with publish_graph(graph) as share:
            rebuilt, segment = attach(share.spec)
            try:
                _assert_bitwise_equal(rebuilt, graph)
            finally:
                segment.close()

    @pytest.mark.parametrize(
        "make", [paper_example_graph, _weighted, _directed],
        ids=["graph", "weighted", "directed"],
    )
    def test_image_holds_the_store_bytes(self, make, tmp_path):
        graph = make()
        save_store(graph, tmp_path / "g.rcsr")
        want = (tmp_path / "g.rcsr").read_bytes()
        with publish_graph(graph) as share:
            rebuilt, segment = attach(share.spec)
            try:
                assert bytes(segment.buf[: len(want)]) == want
                assert not any(segment.buf[len(want):])
            finally:
                segment.close()

    def test_spec_is_picklable(self):
        with publish_graph(paper_example_graph()) as share:
            clone = pickle.loads(pickle.dumps(share.spec))
            assert clone == share.spec
            assert clone.path is None and clone.segment


class TestFileBacked:
    """Store-backed graphs: the spec carries the file path and workers
    map the file instead of receiving a copy."""

    def test_publish_store_round_trip(self, tmp_path):
        graph = barabasi_albert(200, 3, seed=9)
        info = save_store(graph, tmp_path / "g.rcsr")
        with publish_graph(open_store(info.path)) as share:
            assert share.spec.path == str(info.path)
            assert share.spec.segment == ""
            rebuilt, segment = attach(share.spec)
            assert segment is None
            _assert_bitwise_equal(rebuilt, graph)

    def test_publish_weighted_store(self, tmp_path):
        graph = _weighted()
        info = save_store(graph, tmp_path / "w.rcsr")
        with publish_graph(open_store(info.path)) as share:
            rebuilt, _segment = attach(share.spec)
            _assert_bitwise_equal(rebuilt, graph)

    def test_publish_directed_store(self, tmp_path):
        graph = _directed()
        info = save_store(graph, tmp_path / "d.rcsr")
        with publish_graph(open_store(info.path)) as share:
            rebuilt, _segment = attach(share.spec)
            _assert_bitwise_equal(rebuilt, graph)

    def test_file_backed_views_are_frozen_memmaps(self, tmp_path):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        with publish_graph(open_store(info.path)) as share:
            rebuilt, _segment = attach(share.spec)
            for array in (rebuilt.indptr, rebuilt.indices):
                assert _backed_by_memmap(array)
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 99

    def test_unlink_leaves_the_store_file(self, tmp_path):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        share = publish_graph(open_store(info.path))
        share.unlink()
        share.unlink()  # idempotent, and the file survives
        assert (tmp_path / "g.rcsr").exists()
        assert open_store(info.path).num_vertices == 13

    def test_attach_vanished_file_raises(self, tmp_path):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        share = publish_graph(open_store(info.path))
        (tmp_path / "g.rcsr").unlink()
        with pytest.raises(ParallelBackendError, match="vanished"):
            attach(share.spec)

    def test_spec_with_path_pickles(self, tmp_path):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        with publish_graph(open_store(info.path)) as share:
            clone = pickle.loads(pickle.dumps(share.spec))
            assert clone == share.spec
            assert clone.path == str(info.path)

    def test_publish_graph_prefers_the_store_file(self, tmp_path):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        with publish_graph(open_store(info.path)) as share:
            assert share.spec.path == str(info.path)
            assert share.name == str(info.path)

    def test_publish_graph_falls_back_to_segment(self, tmp_path):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        opened = open_store(info.path)
        (tmp_path / "g.rcsr").unlink()
        with publish_graph(opened) as share:
            assert share.spec.path is None
            assert share.spec.segment == share.name != ""
            rebuilt, segment = attach(share.spec)
            try:
                assert np.array_equal(rebuilt.indptr, opened.indptr)
            finally:
                segment.close()


class TestLifecycle:
    def test_unlink_is_idempotent(self):
        share = publish_graph(paper_example_graph())
        share.unlink()
        share.unlink()

    def test_attach_after_unlink_raises(self):
        share = publish_graph(paper_example_graph())
        spec = share.spec
        share.unlink()
        with pytest.raises(ParallelBackendError, match="vanished"):
            attach(spec)

    def test_unknown_kind_raises(self):
        """Workers validate the image header before rebuilding."""
        with publish_graph(paper_example_graph()) as share:
            _graph, segment = attach(share.spec)
            try:
                segment.buf[12] = 9  # the kind code
            finally:
                segment.close()
            with pytest.raises(ParallelBackendError, match="unknown kind"):
                attach(share.spec)

    def test_attach_garbage_segment_raises(self):
        segment = create_segment(HEADER_SIZE)
        try:
            segment.buf[:8] = b"garbage!"
            with pytest.raises(ParallelBackendError, match="damaged"):
                attach(SharedGraphSpec(segment=segment.name))
        finally:
            segment.close()
            segment.unlink()

    def test_attach_array_round_trips_values(self):
        segment = create_segment(4 * 16)
        try:
            spec = ArraySpec(
                key="x", offset=0, shape=(16,), dtype="int32"
            )
            view = attach_array(segment, spec)
            view[:] = np.arange(16, dtype=np.int32)
            again = attach_array(segment, spec)
            assert np.array_equal(again, np.arange(16))
        finally:
            segment.close()
            segment.unlink()
