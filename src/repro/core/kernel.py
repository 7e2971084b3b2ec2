"""Kernel abstraction: the compute stage of a chunked algorithm.

A kernel is characterized, for timing purposes, by how many streaming
passes it makes over a chunk and what fraction of the chunk it writes.
The merge benchmark of Section 5 is a :class:`StreamKernel` with
``passes == repeats``; MLM-sort's serial sort stage is a recursive
kernel whose pass structure the algorithms package derives from the
chunk size.
"""

from __future__ import annotations

import abc

from repro.errors import ConfigError


class Kernel(abc.ABC):
    """A compute stage applied to each chunk."""

    #: Display name.
    name: str = "kernel"

    @abc.abstractmethod
    def passes(self, chunk_bytes: float) -> float:
        """Streaming passes (read+write sweeps) over a chunk of this size."""

    @property
    def write_fraction(self) -> float:
        """Fraction of touched bytes dirtied per pass (default 1.0:
        read-modify-write kernels like sort and merge)."""
        return 1.0

    def logical_bytes(self, chunk_bytes: float) -> float:
        """Logical traffic of the compute stage: ``2 * B * passes``
        (the paper's Eq. 4 numerator), counting read+write per pass."""
        if chunk_bytes < 0:
            raise ConfigError("chunk_bytes must be non-negative")
        return 2.0 * chunk_bytes * self.passes(chunk_bytes)


class StreamKernel(Kernel):
    """A kernel with a fixed pass count, e.g. the merge benchmark.

    Parameters
    ----------
    passes:
        Number of read+write sweeps per chunk (the benchmark's
        ``repeats``).
    name:
        Display name.
    write_fraction:
        Dirty fraction per pass.
    """

    def __init__(
        self,
        passes: float,
        name: str = "stream",
        write_fraction: float = 1.0,
    ) -> None:
        if passes < 0:
            raise ConfigError("passes must be non-negative")
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigError("write_fraction must be in [0, 1]")
        self._passes = float(passes)
        self.name = name
        self._write_fraction = write_fraction

    def passes(self, chunk_bytes: float) -> float:
        return self._passes

    @property
    def write_fraction(self) -> float:
        return self._write_fraction
