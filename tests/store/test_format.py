"""The binary graph store container (repro.store.format)."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core.ifecc import compute_eccentricities
from repro.errors import StoreFormatError
from repro.graph.generators import barabasi_albert, paper_example_graph
from repro.store.format import (
    ALIGN,
    HEADER_SIZE,
    MAGIC,
    STORE_VERSION,
    StoreInfo,
    encode_store,
    graph_from_arrays,
    map_store_arrays,
    open_store,
    parse_header,
    read_info,
    save_store,
    source_of,
    verify_store,
)

GOLDEN = Path(__file__).parent.parent / "data" / "golden_store_v1.rcsr"


class TestRoundTrip:
    def test_graph_round_trip_is_bitwise(self, tmp_path):
        graph = barabasi_albert(200, 3, seed=9)
        info = save_store(graph, tmp_path / "g.rcsr")
        assert info.kind == "graph"
        reopened = open_store(info.path)
        assert np.array_equal(reopened.indptr, graph.indptr)
        assert np.array_equal(reopened.indices, graph.indices)
        assert np.array_equal(reopened.degrees, graph.degrees)
        assert reopened.num_vertices == graph.num_vertices
        assert reopened.indptr.dtype == np.int64
        assert reopened.indices.dtype == np.int32

    def test_weighted_round_trip(self, tmp_path):
        from repro.weighted.graph import WeightedGraph

        graph = WeightedGraph.from_edges(
            [(0, 1, 1.5), (1, 2, 0.25), (2, 3, 2.0), (3, 0, 1.0)]
        )
        info = save_store(graph, tmp_path / "w.rcsr")
        assert info.kind == "weighted"
        reopened = open_store(info.path)
        assert np.array_equal(reopened.indptr, graph.indptr)
        assert np.array_equal(reopened.indices, graph.indices)
        assert np.array_equal(reopened.weights, graph.weights)

    def test_directed_round_trip(self, tmp_path):
        from repro.directed.graph import DirectedGraph

        graph = DirectedGraph.from_arcs([(0, 1), (1, 2), (2, 3), (3, 0)])
        info = save_store(graph, tmp_path / "d.rcsr")
        assert info.kind == "directed"
        reopened = open_store(info.path)
        for got, want in zip(
            reopened.forward_view() + reopened.backward_view(),
            graph.forward_view() + graph.backward_view(),
        ):
            assert np.array_equal(got, want)

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        save_store(paper_example_graph(), tmp_path / "g.rcsr")
        assert [p.name for p in tmp_path.iterdir()] == ["g.rcsr"]


class TestZeroCopy:
    def test_open_shares_memory_with_the_mmap(self, tmp_path):
        """The tentpole claim: no copy of indptr/indices on open."""
        graph = barabasi_albert(500, 3, seed=2)
        info = save_store(graph, tmp_path / "g.rcsr")
        views = map_store_arrays(read_info(info.path))
        opened = graph_from_arrays(read_info(info.path), views)
        assert np.shares_memory(opened.indptr, views["indptr"])
        assert np.shares_memory(opened.indices, views["indices"])
        assert isinstance(views["indptr"], np.memmap)

    def test_opened_arrays_are_frozen(self, tmp_path):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        opened = open_store(info.path)
        for array in (opened.indptr, opened.indices, opened.degrees):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 99

    def test_open_registers_source(self, tmp_path):
        info = save_store(paper_example_graph(), tmp_path / "g.rcsr")
        opened = open_store(info.path)
        backing = source_of(opened)
        assert backing is not None
        assert backing.path == info.path
        assert backing.digest == info.digest
        assert source_of(paper_example_graph()) is None

    def test_offsets_are_aligned(self, tmp_path):
        info = save_store(barabasi_albert(150, 2, seed=4), tmp_path / "g.rcsr")
        for entry in info.arrays:
            assert entry.offset % ALIGN == 0


class TestValidation:
    def _saved(self, tmp_path) -> StoreInfo:
        return save_store(paper_example_graph(), tmp_path / "g.rcsr")

    def test_bad_magic_rejected(self, tmp_path):
        info = self._saved(tmp_path)
        with open(info.path, "r+b") as handle:
            handle.write(b"NOTAGRPH")
        with pytest.raises(StoreFormatError, match="magic"):
            open_store(info.path)

    def test_truncated_header_rejected(self, tmp_path):
        info = self._saved(tmp_path)
        raw = Path(info.path).read_bytes()
        Path(info.path).write_bytes(raw[: HEADER_SIZE // 2])
        with pytest.raises(StoreFormatError, match="truncated"):
            open_store(info.path)

    def test_truncated_payload_rejected(self, tmp_path):
        info = self._saved(tmp_path)
        raw = Path(info.path).read_bytes()
        Path(info.path).write_bytes(raw[:-8])
        with pytest.raises(StoreFormatError, match="past end of file"):
            open_store(info.path)

    def test_newer_version_rejected(self, tmp_path):
        info = self._saved(tmp_path)
        with open(info.path, "r+b") as handle:
            handle.seek(8)
            handle.write(struct.pack("<H", STORE_VERSION + 1))
        with pytest.raises(StoreFormatError, match="newer"):
            open_store(info.path)

    def test_unknown_kind_rejected(self, tmp_path):
        info = self._saved(tmp_path)
        with open(info.path, "r+b") as handle:
            handle.seek(12)
            handle.write(b"\x09")
        with pytest.raises(StoreFormatError, match="kind"):
            open_store(info.path)

    def test_non_monotone_indptr_rejected(self, tmp_path):
        info = self._saved(tmp_path)
        indptr_entry = info.array("indptr")
        with open(info.path, "r+b") as handle:
            handle.seek(indptr_entry.offset + 8)
            handle.write(struct.pack("<q", 2**40))
        with pytest.raises(StoreFormatError, match="monotone"):
            open_store(info.path)

    def test_fingerprint_mismatch_detected_by_verify(self, tmp_path):
        """A flipped payload byte passes the O(1) open but fails
        verification (and open_store(verify=True))."""
        info = self._saved(tmp_path)
        indices_entry = info.array("indices")
        with open(info.path, "r+b") as handle:
            handle.seek(indices_entry.offset)
            first = handle.read(4)
            value = int.from_bytes(first, "little")
            handle.seek(indices_entry.offset)
            handle.write(
                ((value + 1) % len(paper_example_graph().degrees)).to_bytes(
                    4, "little"
                )
            )
        open_store(info.path)  # structural checks still pass
        with pytest.raises(StoreFormatError, match="fingerprint mismatch"):
            verify_store(info.path)
        with pytest.raises(StoreFormatError, match="fingerprint mismatch"):
            open_store(info.path, verify=True)

    def test_verify_store_accepts_intact_file(self, tmp_path):
        info = self._saved(tmp_path)
        assert verify_store(info.path).digest == info.digest

    def test_missing_file_raises_store_error(self, tmp_path):
        with pytest.raises(StoreFormatError, match="cannot read"):
            read_info(tmp_path / "absent.rcsr")


class TestImage:
    def test_parse_header_rejects_corrupt_image(self):
        """The bytes-level parser validates a container held in memory."""
        image = encode_store(paper_example_graph())
        buffer = bytearray(image.nbytes)
        for offset, chunk in image.chunks():
            buffer[offset: offset + len(chunk)] = chunk
        info = parse_header(bytes(buffer), len(buffer), "img")
        assert info.path == "img"
        # A payload shorter than the slot table claims.
        with pytest.raises(StoreFormatError, match="img: .*past end"):
            parse_header(bytes(buffer), len(buffer) - 8, "img")
        # A misaligned offset in the indices slot (the second 24-byte
        # slot-table entry at byte 48; its offset field follows 8 bytes
        # of dtype code and padding).
        indices_offset_field = 48 + 24 + 8
        assert struct.unpack_from("<q", buffer, indices_offset_field)[0] == (
            info.array("indices").offset
        )
        struct.pack_into("<q", buffer, indices_offset_field, HEADER_SIZE + 4)
        with pytest.raises(StoreFormatError, match="bad offset"):
            parse_header(bytes(buffer), len(buffer), "img")
        # Garbage where the magic belongs.
        buffer[:8] = b"garbage!"
        with pytest.raises(StoreFormatError, match="magic"):
            parse_header(bytes(buffer), len(buffer), "img")


class TestGoldenFixture:
    def test_v1_byte_layout_is_pinned(self, tmp_path):
        """Saving the paper example reproduces the committed fixture
        byte for byte — any layout change must bump STORE_VERSION."""
        path = tmp_path / "fresh.rcsr"
        save_store(paper_example_graph(), path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_fixture_header_fields(self):
        info = read_info(GOLDEN)
        assert info.version == 1
        assert info.kind == "graph"
        assert info.num_vertices == 13
        assert info.num_entries == 30
        assert GOLDEN.read_bytes()[:8] == MAGIC

    def test_fixture_opens_to_the_paper_example(self):
        graph = paper_example_graph()
        opened = open_store(GOLDEN)
        assert np.array_equal(opened.indptr, graph.indptr)
        assert np.array_equal(opened.indices, graph.indices)


class TestSolverEquivalence:
    def test_ifecc_bit_identical_on_memmap_graph(self, tmp_path):
        """IFECC on the memmap-backed graph reproduces the in-memory
        run exactly — same eccentricities AND same probe count."""
        graph = barabasi_albert(400, 3, seed=5)
        info = save_store(graph, tmp_path / "g.rcsr")
        mapped = open_store(info.path)
        in_memory = compute_eccentricities(graph)
        on_store = compute_eccentricities(mapped)
        assert np.array_equal(
            in_memory.eccentricities, on_store.eccentricities
        )
        assert in_memory.num_bfs == on_store.num_bfs
        assert in_memory.radius == on_store.radius
        assert in_memory.diameter == on_store.diameter


class TestIoWrappers:
    def test_io_save_load_store(self, tmp_path):
        from repro.graph.io import load_store, save_store as io_save_store

        graph = paper_example_graph()
        path = tmp_path / "g.rcsr"
        io_save_store(graph, path)
        reopened = load_store(path)
        assert np.array_equal(reopened.indptr, graph.indptr)
        assert np.array_equal(reopened.indices, graph.indices)
