"""repro — reproduction of "Optimizing for KNL Usage Modes When Data
Doesn't Fit in MCDRAM" (Butcher et al., ICPP 2018).

Top-level convenience exports; see the subpackages for the full API:

* :mod:`repro.simknl` — the simulated KNL node;
* :mod:`repro.core` — chunking / buffering / usage modes;
* :mod:`repro.model` — the Section 3.2 analytic model;
* :mod:`repro.algorithms` — sorts, merges, benchmarks;
* :mod:`repro.threads` — the copy/compute thread pools;
* :mod:`repro.experiments` — table/figure drivers.
"""

from repro.core import (
    BufferedPipeline,
    Chunker,
    StreamKernel,
    UsageMode,
)
from repro.model import ModelParams, optimal_copy_threads, predict
from repro.simknl import KNLNode, KNLNodeConfig, MemoryMode

__version__ = "1.0.0"

__all__ = [
    "BufferedPipeline",
    "Chunker",
    "StreamKernel",
    "UsageMode",
    "ModelParams",
    "optimal_copy_threads",
    "predict",
    "KNLNode",
    "KNLNodeConfig",
    "MemoryMode",
    "__version__",
]
