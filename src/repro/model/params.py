"""Model parameters (the paper's Table 2) and their measurement.

The five parameters:

=============  =========  ====================================================
``b_copy``     14.9 GB    data set size
``ddr_max``    90 GB/s    max DDR bandwidth (STREAM)
``mcdram_max`` 400 GB/s   max MCDRAM bandwidth (STREAM)
``s_copy``     4.8 GB/s   per-thread MCDRAM<->DDR transfer rate, unconstrained
``s_comp``     6.78 GB/s  per-thread compute streaming rate, unconstrained
=============  =========  ====================================================

:func:`measure_params` recovers the bandwidth ceilings by running the
STREAM benchmark *on the simulated node* and the per-thread rates by
single-thread micro-measurements, closing the loop the paper describes
("values for these parameters from system measurements and problem
characteristics").
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


def measure_params(node, b_copy: float = 14.9 * GB) -> ModelParams:
    """Measure model parameters from a simulated node.

    Bandwidth ceilings come from STREAM-triad runs against each
    device; per-thread rates from single-thread micro-transfers. The
    import of :mod:`repro.algorithms.stream` is deferred to avoid a
    package cycle (algorithms use the model's parameters).
    """
    from repro.algorithms.stream import measure_bandwidth, measure_per_thread_rates

    ddr_max = measure_bandwidth(node, device="ddr")
    mcdram_max = measure_bandwidth(node, device="mcdram")
    s_copy, s_comp = measure_per_thread_rates(node)
    return ModelParams(
        b_copy=b_copy,
        ddr_max=ddr_max,
        mcdram_max=mcdram_max,
        s_copy=s_copy,
        s_comp=s_comp,
    )
