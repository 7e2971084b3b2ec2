#!/usr/bin/env python3
"""Sort a data set larger than near memory with MLM-sort.

Shows both faces of the library:

* **functional** — MLM-sort actually sorting a NumPy array at laptop
  scale, validated against ``np.sort``;
* **timed** — the same algorithm at the paper's 2-billion-element
  scale on the simulated KNL, comparing all five Table-1 variants.

Run: ``python examples/out_of_core_sort.py``
"""

import numpy as np

from repro.algorithms.mlm_sort import mlm_sort
from repro.experiments.runner import VARIANTS, sort_variant_seconds


def functional_demo() -> None:
    print("== functional: sorting 2M elements with MLM-sort ==")
    n = 2_000_000
    arr = np.random.default_rng(42).integers(0, 4 * n, n, dtype=np.int64)
    out = mlm_sort(arr, megachunk_elements=500_000, threads=8)
    assert np.array_equal(out, np.sort(arr)), "sorted output mismatch"
    print(f"sorted {len(out):,} elements; head: {out[:5]} ... tail: {out[-5:]}")
    print("matches np.sort: True\n")


def timed_demo() -> None:
    print("== timed: 2B int64 elements on the simulated KNL ==")
    for order in ("random", "reverse"):
        print(f"[{order} input]")
        base = sort_variant_seconds("GNU-flat", 2_000_000_000, order)
        for variant in VARIANTS:
            t = sort_variant_seconds(variant, 2_000_000_000, order)
            print(f"  {variant:13s} {t:6.2f} s   speedup {base / t:4.2f}x")
        print()


if __name__ == "__main__":
    functional_demo()
    timed_demo()
