"""Tests for chunk partitioning."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import Chunk, Chunker
from repro.errors import ConfigError


class TestChunk:
    def test_elements(self):
        c = Chunk(index=0, offset=0, nbytes=80)
        assert c.elements() == 10

    def test_end(self):
        c = Chunk(index=1, offset=100, nbytes=50)
        assert c.end == 150


class TestChunker:
    def test_even_partition(self):
        ch = Chunker(total_bytes=800, chunk_bytes=200)
        chunks = ch.chunks()
        assert len(chunks) == 4
        assert all(c.nbytes == 200 for c in chunks)
        assert [c.offset for c in chunks] == [0, 200, 400, 600]

    def test_final_partial_chunk(self):
        ch = Chunker(total_bytes=800, chunk_bytes=296)
        chunks = ch.chunks()
        assert [c.nbytes for c in chunks] == [296, 296, 208]

    def test_chunks_cover_exactly(self):
        ch = Chunker(total_bytes=1000, chunk_bytes=304)
        chunks = ch.chunks()
        assert chunks[0].offset == 0
        for a, b in zip(chunks, chunks[1:]):
            assert a.end == b.offset
        assert chunks[-1].end == 1000

    def test_chunk_larger_than_total_clamped(self):
        ch = Chunker(total_bytes=800, chunk_bytes=10_000)
        assert ch.num_chunks == 1
        assert ch.chunks()[0].nbytes == 800

    def test_chunk_aligned_to_elements(self):
        ch = Chunker(total_bytes=800, chunk_bytes=101, element_size=8)
        assert ch.chunk_bytes == 96  # aligned down

    def test_from_elements(self):
        ch = Chunker.from_elements(n=1000, chunk_elements=300)
        assert ch.total_bytes == 8000
        assert ch.chunk_bytes == 2400
        assert ch.num_chunks == 4
        assert ch.chunk_elements() == 300

    def test_invalid_total(self):
        with pytest.raises(ConfigError):
            Chunker(total_bytes=0, chunk_bytes=10)

    def test_invalid_chunk(self):
        with pytest.raises(ConfigError):
            Chunker(total_bytes=100, chunk_bytes=0)

    def test_chunk_below_element_size(self):
        with pytest.raises(ConfigError):
            Chunker(total_bytes=80, chunk_bytes=4, element_size=8)

    def test_non_integral_elements(self):
        with pytest.raises(ConfigError):
            Chunker(total_bytes=81, chunk_bytes=8, element_size=8)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10_000),
    chunk=st.integers(min_value=1, max_value=12_000),
)
def test_chunks_partition_invariant(n, chunk):
    """Chunks are contiguous, non-empty, ordered, and cover the data."""
    ch = Chunker(total_bytes=n * 8, chunk_bytes=max(chunk * 8, 8))
    chunks = ch.chunks()
    assert len(chunks) == ch.num_chunks
    assert chunks[0].offset == 0
    total = 0
    for i, c in enumerate(chunks):
        assert c.index == i
        assert c.nbytes > 0
        total += c.nbytes
    for a, b in zip(chunks, chunks[1:]):
        assert a.end == b.offset
        assert a.nbytes >= b.nbytes or a.nbytes == ch.chunk_bytes
    assert total == n * 8
