"""The paper's primary contribution: chunking + buffering for MLM.

This package implements the kernel-redesign methodology of Section 3:

* :mod:`repro.core.chunking` — partition a data set into near-memory
  sized chunks (and MLM-sort's "megachunks");
* :mod:`repro.core.kernel` — the user-facing kernel abstraction
  (a compute stage characterized by streaming passes and a write
  fraction, optionally with a functional NumPy implementation);
* :mod:`repro.core.modes` — the four usage modes (flat, hybrid,
  implicit cache, hardware cache) and how each turns logical kernel
  traffic into physical device traffic;
* :mod:`repro.core.buffering` — the triple-buffered pipeline of
  Fig. 2 (copy-in / compute / copy-out overlapped across steps).

Chunk size and thread split are the caller's choice: the drivers pick
copy threads with :func:`repro.model.optimal_copy_threads` and split
the node with :meth:`repro.threads.pool.PoolSet.split`.
"""

from repro.core.chunking import Chunk, Chunker
from repro.core.kernel import FunctionKernel, Kernel, StreamKernel
from repro.core.modes import UsageMode, required_memory_mode, mode_label
from repro.core.buffering import BufferedPipeline, PipelineResult

__all__ = [
    "Chunk",
    "Chunker",
    "Kernel",
    "StreamKernel",
    "FunctionKernel",
    "UsageMode",
    "required_memory_mode",
    "mode_label",
    "BufferedPipeline",
    "PipelineResult",
]
