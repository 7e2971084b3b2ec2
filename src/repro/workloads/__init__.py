"""Workload generators for the paper's experiments.

Two forms:

* **descriptors** (:class:`WorkloadSpec`) — size/order/dtype only, fed
  to the timed plan builders at paper scale (billions of elements,
  never materialized);
* **materialized arrays** (:func:`generate`) — real NumPy arrays at
  test/example scale, in the input orders the paper evaluates
  (random, reverse-sorted) plus the standard extras (sorted,
  nearly-sorted, few-unique) used by the extended test suite.

The input orders (random, reverse, ...) are those of Table 1.
"""

from repro.workloads.generators import (
    ORDERS,
    WorkloadSpec,
    generate,
    paper_table1_specs,
)

__all__ = [
    "ORDERS",
    "WorkloadSpec",
    "generate",
    "paper_table1_specs",
]
