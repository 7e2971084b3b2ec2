#!/usr/bin/env python3
"""Sort a data set larger than near memory with MLM-sort.

Times the five Table-1 sort variants at the paper's 2-billion-element
scale on the simulated KNL, for random and reverse-sorted input.

Run: ``python examples/out_of_core_sort.py``
"""

from repro.experiments.runner import VARIANTS, sort_variant_seconds


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
    timed_demo()
