"""Sorting and streaming algorithms, functional and timed.

Every algorithm the paper evaluates exists here in two forms:

* a **functional** implementation on real NumPy arrays (serial
  introsort, loser-tree and vectorized multiway merges, the
  GNU-parallel-sort equivalent, MLM-sort and its variants, the merge
  benchmark kernel) — used by tests and examples at laptop scale;
* a **timed** plan builder that emits the identical phase structure as
  bandwidth flows for the simulated KNL node — used by the experiment
  drivers at paper scale (2-6 billion elements).

The shared cost model lives in :mod:`repro.algorithms.costs`.

Covers the Section 4 algorithms, the Section 5 merge benchmark, and the
Section 2 comparison points.
"""

from repro.algorithms.costs import SortCostModel, sort_levels
from repro.algorithms.serial_sort import insertion_sort, introsort, serial_sort
from repro.algorithms.multiway_merge import (
    LoserTree,
    merge_two,
    multiway_merge,
    multiseq_partition,
)
from repro.algorithms.parallel_sort import (
    gnu_parallel_sort,
    gnu_sort_plan,
)
from repro.algorithms.mlm_sort import (
    MLMSortConfig,
    basic_chunked_sort,
    mlm_sort,
    mlm_sort_plan,
)
from repro.algorithms.merge_bench import (
    MergeBenchConfig,
    merge_bench_kernel,
    run_merge_bench,
)
from repro.algorithms.stream import stream_triad_plan
from repro.algorithms.oblivious import oblivious_mergesort, oblivious_sort_plan
from repro.algorithms.funnelsort import funnelsort, funnelsort_plan
from repro.algorithms.external_sort import external_sort, external_sort_plan

__all__ = [
    "SortCostModel",
    "sort_levels",
    "insertion_sort",
    "introsort",
    "serial_sort",
    "LoserTree",
    "merge_two",
    "multiway_merge",
    "multiseq_partition",
    "gnu_parallel_sort",
    "gnu_sort_plan",
    "MLMSortConfig",
    "basic_chunked_sort",
    "mlm_sort",
    "mlm_sort_plan",
    "MergeBenchConfig",
    "merge_bench_kernel",
    "run_merge_bench",
    "stream_triad_plan",
    "oblivious_mergesort",
    "oblivious_sort_plan",
    "funnelsort",
    "funnelsort_plan",
    "external_sort",
    "external_sort_plan",
]
