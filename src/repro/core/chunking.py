"""Chunk partitioning of large data sets.

"Chunking" migrates one near-memory-sized piece of the data at a time
into MCDRAM, computes on it, and writes it back (Section 3). The
:class:`Chunker` produces the chunk geometry: the byte count of every
chunk, which is all the timed plan builders need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigError
from repro.units import INT64


@dataclass(frozen=True)
class Chunk:
    """One contiguous piece of the data set.

    Attributes
    ----------
    index:
        Position in chunk order.
    offset:
        Byte offset of the chunk's start within the data set.
    nbytes:
        Chunk size in bytes (the final chunk may be smaller).
    """

    index: int
    offset: int
    nbytes: int

    def elements(self, element_size: int = INT64) -> int:
        """Whole elements contained in the chunk."""
        return self.nbytes // element_size

    @property
    def end(self) -> int:
        """Byte offset one past the chunk's last byte."""
        return self.offset + self.nbytes


class Chunker:
    """Partitions ``total_bytes`` into chunks of ``chunk_bytes``.

    Parameters
    ----------
    total_bytes:
        Data set size.
    chunk_bytes:
        Nominal chunk size; the last chunk holds the remainder.
    element_size:
        Element granularity — chunk boundaries are aligned down to a
        multiple of this so no chunk splits an element.
    """

    def __init__(
        self,
        total_bytes: int,
        chunk_bytes: int,
        element_size: int = INT64,
    ) -> None:
        if total_bytes <= 0:
            raise ConfigError("total_bytes must be positive")
        if chunk_bytes <= 0:
            raise ConfigError("chunk_bytes must be positive")
        if element_size <= 0:
            raise ConfigError("element_size must be positive")
        if total_bytes % element_size != 0:
            raise ConfigError(
                f"total_bytes {total_bytes} is not a whole number of "
                f"{element_size}-byte elements"
            )
        aligned = (chunk_bytes // element_size) * element_size
        if aligned == 0:
            raise ConfigError(
                f"chunk_bytes {chunk_bytes} smaller than one element"
            )
        self.total_bytes = int(total_bytes)
        self.chunk_bytes = int(min(aligned, total_bytes))
        self.element_size = element_size

    @classmethod
    def from_elements(
        cls, n: int, chunk_elements: int, element_size: int = INT64
    ) -> "Chunker":
        """Build a chunker from element counts (paper convention)."""
        return cls(
            total_bytes=n * element_size,
            chunk_bytes=chunk_elements * element_size,
            element_size=element_size,
        )

    @property
    def num_chunks(self) -> int:
        """Number of chunks including a final partial one."""
        return -(-self.total_bytes // self.chunk_bytes)

    @property
    def full_chunks(self) -> int:
        """Number of chunks of the full nominal size."""
        return self.total_bytes // self.chunk_bytes

    def nbytes(self, index: int) -> int:
        """Size of chunk ``index``: nominal, or the remainder for the
        final partial chunk."""
        return min(self.chunk_bytes, self.total_bytes - index * self.chunk_bytes)

    def chunks(self) -> list[Chunk]:
        """All chunks in order."""
        return list(self.iter_chunks())

    def iter_chunks(self) -> Iterator[Chunk]:
        """Iterate chunks lazily."""
        index = 0
        offset = 0
        while offset < self.total_bytes:
            nbytes = min(self.chunk_bytes, self.total_bytes - offset)
            yield Chunk(index=index, offset=offset, nbytes=nbytes)
            index += 1
            offset += nbytes

    def chunk_elements(self) -> int:
        """Elements per full chunk."""
        return self.chunk_bytes // self.element_size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Chunker(total={self.total_bytes}, chunk={self.chunk_bytes}, "
            f"n={self.num_chunks})"
        )
