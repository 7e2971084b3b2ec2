"""Presortedness measures: from input structure to cost-model factors.

The cost model discounts sort work on structured inputs through a
per-order factor (`SortCostModel.order_factor`), with labels for the
paper's two evaluated orders. Real inputs are not labelled, so this
module measures the classic presortedness quantities —

* ``count_ascending_runs`` / ``count_monotone_runs`` — Knuth's RUNS,
* ``count_inversions`` — Kendall-tau disorder (exact, O(n log n)),
* ``rem`` — elements outside the longest non-decreasing subsequence,

— and maps them to an *estimated* order factor:
introsort-family sorts run fast on inputs made of few long monotone
runs (sorted, reverse, organ-pipe, nearly-sorted) and slow on
run-free random data, so the factor interpolates on the normalized
monotone-run count.

Grounds the Table 1 input-order effect (random vs reverse inputs).
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.errors import ConfigError
from repro.algorithms.costs import DEFAULT_COST, SortCostModel


def _require_1d(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ConfigError("expects a one-dimensional array")
    return arr


def count_ascending_runs(arr: np.ndarray) -> int:
    """Number of maximal non-decreasing runs (>= 1 for non-empty)."""
    arr = _require_1d(arr)
    if len(arr) == 0:
        return 0
    return int(np.sum(np.diff(arr) < 0)) + 1


def count_monotone_runs(arr: np.ndarray) -> int:
    """Number of maximal monotone (non-decreasing *or* non-increasing)
    runs — the structure introsort's pivoting exploits.

    Greedy segmentation: each run extends while the direction
    (established by its first non-equal pair) is maintained.
    """
    arr = _require_1d(arr)
    n = len(arr)
    if n == 0:
        return 0
    d = np.sign(np.diff(arr))
    runs = 1
    direction = 0
    for step in d:
        if step == 0:
            continue
        if direction == 0:
            direction = step
        elif step != direction:
            runs += 1
            direction = 0
    return runs


def count_inversions(arr: np.ndarray) -> int:
    """Exact inversion count (pairs i < j with a[i] > a[j])."""
    arr = _require_1d(arr)

    def rec(a: np.ndarray) -> tuple[np.ndarray, int]:
        n = len(a)
        if n <= 1:
            return a, 0
        mid = n // 2
        left, inv_l = rec(a[:mid])
        right, inv_r = rec(a[mid:])
        # Cross inversions: for each right element, left elements
        # strictly greater than it precede it.
        pos = np.searchsorted(left, right, side="right")
        cross = int(np.sum(len(left) - pos))
        merged = np.empty(n, dtype=a.dtype)
        ia = np.searchsorted(right, left, side="left") + np.arange(len(left))
        ib = pos + np.arange(len(right))
        merged[ia] = left
        merged[ib] = right
        return merged, inv_l + inv_r + cross

    _, inv = rec(arr)
    return inv


def rem(arr: np.ndarray) -> int:
    """REM: elements to remove to leave a non-decreasing sequence
    (n minus the longest non-decreasing subsequence)."""
    arr = _require_1d(arr)
    tails: list = []
    for x in arr.tolist():
        i = bisect.bisect_right(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(arr) - len(tails)


def normalized_inversions(arr: np.ndarray) -> float:
    """Inversions over the maximum ``n (n-1) / 2`` (0 sorted, 1
    reverse, ~0.5 random)."""
    arr = _require_1d(arr)
    n = len(arr)
    if n < 2:
        return 0.0
    return count_inversions(arr) / (n * (n - 1) / 2)


def run_structure(arr: np.ndarray) -> float:
    """Normalized monotone-run density in [0, 1].

    0 = one monotone run (sorted or reverse), ~1 = random (expected
    monotone run length is ~e for random permutations, normalized
    against that expectation).
    """
    arr = _require_1d(arr)
    n = len(arr)
    if n < 2:
        return 0.0
    runs = count_monotone_runs(arr)
    # Random data has ~n / e monotone runs; normalize against that.
    expected_random = max(1.0, n / np.e)
    return min(1.0, (runs - 1) / expected_random)


def estimate_order_factor(
    arr: np.ndarray, cost: SortCostModel | None = None, gnu: bool = False
) -> float:
    """Estimated effective-level factor for an arbitrary input.

    Interpolates between the structured floor (the calibrated reverse
    factor — introsort's best case on monotone inputs) and 1.0
    (random) on the monotone-run density. Agrees with the calibrated
    labels at the extremes: sorted/reverse inputs land at the floor,
    random inputs at ~1.
    """
    cost = cost or DEFAULT_COST
    floor = cost.reverse_factor_gnu if gnu else cost.reverse_factor_mlm
    return floor + (1.0 - floor) * run_structure(arr)


def classify_order(arr: np.ndarray) -> str:
    """Nearest workload label for an input: ``sorted``, ``reverse``,
    ``nearly-sorted``, or ``random``."""
    arr = _require_1d(arr)
    if len(arr) < 2:
        return "sorted"
    inv = normalized_inversions(arr)
    if inv <= 0.01:
        return "sorted"
    if inv >= 0.95:
        return "reverse"
    if inv <= 0.10 or rem(arr) <= max(1, len(arr) // 10):
        return "nearly-sorted"
    return "random"
