"""Tests for the kernel abstraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel import Kernel, StreamKernel
from repro.errors import ConfigError


class TestStreamKernel:
    def test_fixed_passes(self):
        k = StreamKernel(passes=8)
        assert k.passes(1000) == 8
        assert k.passes(10**12) == 8

    def test_logical_bytes_eq4_numerator(self):
        """logical bytes = 2 * B * passes, the paper's Eq. 4 numerator."""
        k = StreamKernel(passes=4)
        assert k.logical_bytes(100.0) == pytest.approx(800.0)

    def test_zero_passes(self):
        k = StreamKernel(passes=0)
        assert k.logical_bytes(100.0) == 0.0

    def test_negative_passes_rejected(self):
        with pytest.raises(ConfigError):
            StreamKernel(passes=-1)

    def test_negative_chunk_rejected(self):
        with pytest.raises(ConfigError):
            StreamKernel(passes=1).logical_bytes(-1.0)

    def test_write_fraction_default(self):
        assert StreamKernel(passes=1).write_fraction == 1.0

    def test_write_fraction_custom(self):
        assert StreamKernel(passes=1, write_fraction=0.25).write_fraction == 0.25

    def test_write_fraction_validated(self):
        with pytest.raises(ConfigError):
            StreamKernel(passes=1, write_fraction=1.5)


class TestKernelABC:
    def test_custom_subclass(self):
        class LogKernel(Kernel):
            name = "log"

            def passes(self, chunk_bytes: float) -> float:
                return max(1.0, np.log2(max(chunk_bytes, 2.0)))

        k = LogKernel()
        assert k.passes(1024) == pytest.approx(10.0)
        assert k.logical_bytes(1024) == pytest.approx(2 * 1024 * 10.0)
