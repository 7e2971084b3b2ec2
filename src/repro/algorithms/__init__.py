"""Sorting and streaming algorithms as timed plans.

Every algorithm the paper evaluates (the GNU-parallel-sort baseline,
MLM-sort and its variants, the basic chunked sort, the merge benchmark
kernel and the related-work comparison points) exists here as a timed
plan builder: it emits the algorithm's phase structure as bandwidth
flows for the simulated KNL node at paper scale (2-6 billion
elements). Timing needs only sizes and traffic, so no builder sorts
real data.

The shared cost model lives in :mod:`repro.algorithms.costs`.

The package re-exports no function under its submodule's name, so
``repro.algorithms.mlm_sort`` is always the module.

Covers the Section 4 algorithms, the Section 5 merge benchmark, and the
Section 2 comparison points.
"""

from repro.algorithms.costs import SortCostModel, sort_levels
from repro.algorithms.parallel_sort import gnu_sort_plan
from repro.algorithms.mlm_sort import MLMSortConfig, mlm_sort_plan
from repro.algorithms.merge_bench import (
    MergeBenchConfig,
    merge_bench_kernel,
    run_merge_bench,
)
from repro.algorithms.stream import stream_triad_plan
from repro.algorithms.oblivious import oblivious_sort_plan
from repro.algorithms.funnelsort import funnelsort_plan
from repro.algorithms.external_sort import external_sort_plan

__all__ = [
    "SortCostModel",
    "sort_levels",
    "gnu_sort_plan",
    "MLMSortConfig",
    "mlm_sort_plan",
    "MergeBenchConfig",
    "merge_bench_kernel",
    "run_merge_bench",
    "stream_triad_plan",
    "oblivious_sort_plan",
    "funnelsort_plan",
    "external_sort_plan",
]
