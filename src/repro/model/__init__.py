"""The paper's analytical performance model (Section 3.2).

Equations 1-5 predict the execution time of a buffered chunking
algorithm from five parameters (Table 2): data size ``B_copy``, the
device bandwidth ceilings ``DDR_max`` and ``MCDRAM_max``, and the
unconstrained per-thread rates ``S_copy`` and ``S_comp``. The model's
purpose is to choose a near-optimal number of copy threads without
exhaustive benchmarking; :mod:`repro.model.optimizer` performs that
search, and :mod:`repro.model.roofline` implements the Snir-style
bandwidth-boundedness test the paper cites from Bender et al.
"""

from repro.model.params import ModelParams
from repro.model.analytic import (
    copy_rate_coefficient,
    compute_rate_coefficient,
    copy_time,
    compute_time,
    total_time,
    predict,
    ModelPrediction,
)
from repro.model.optimizer import (
    OptimizerResult,
    optimal_copy_threads,
    sweep_copy_threads,
)
from repro.model.roofline import RooflinePoint, machine_balance, is_bandwidth_bound

__all__ = [
    "ModelParams",
    "copy_rate_coefficient",
    "compute_rate_coefficient",
    "copy_time",
    "compute_time",
    "total_time",
    "predict",
    "ModelPrediction",
    "OptimizerResult",
    "optimal_copy_threads",
    "sweep_copy_threads",
    "RooflinePoint",
    "machine_balance",
    "is_bandwidth_bound",
]
