"""Model parameters (the paper's Table 2).

The five parameters:

=============  =========  ====================================================
``b_copy``     14.9 GB    data set size
``ddr_max``    90 GB/s    max DDR bandwidth (STREAM)
``mcdram_max`` 400 GB/s   max MCDRAM bandwidth (STREAM)
``s_copy``     4.8 GB/s   per-thread MCDRAM<->DDR transfer rate, unconstrained
``s_comp``     6.78 GB/s  per-thread compute streaming rate, unconstrained
=============  =========  ====================================================

The Table 2 experiment (:mod:`repro.experiments.table2`) re-measures them
on the simulated node: the bandwidth ceilings by STREAM-triad runs
(:func:`~repro.algorithms.stream.stream_triad_plan`) and the per-thread
rates by single-thread micro-runs
(:func:`~repro.algorithms.stream.micro_rate_plans`), closing the loop
the paper describes ("values for these parameters from system
measurements and problem characteristics").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.units import GB


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the Section 3.2 model, in bytes and bytes/s."""

    b_copy: float = 14.9 * GB
    ddr_max: float = 90 * GB
    mcdram_max: float = 400 * GB
    s_copy: float = 4.8 * GB
    s_comp: float = 6.78 * GB

    def __post_init__(self) -> None:
        for name in ("b_copy", "ddr_max", "mcdram_max", "s_copy", "s_comp"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def with_data_size(self, b_copy: float) -> "ModelParams":
        """Copy of these parameters for a different data set size."""
        return replace(self, b_copy=b_copy)

    def ddr_saturating_copy_threads(self) -> int:
        """Smallest copy-thread total that saturates DDR (ceil)."""
        return int(-(-self.ddr_max // self.s_copy))
