"""Compare two benchmark result sets, per workload and end-to-end metric.

Usage::

    python3 bench/compare.py bench/results/a bench/results/b

A result set is a directory of ``run.py --out`` files (or one such
file). Untraced runs are grouped by workload; A is the parent, B the
change. For each metric the table gives each side's median and
quartiles, the spread (quartile distance over median), B's change
against A, and B's wins over ``pairs`` (runs paired by seed, then
order; ties count for neither) with a verdict:

* ``improved``   -- at least 10 pairs, B wins 9 of 10 of them, and the
  medians differ by more than A's quartile distance;
* ``regressed``  -- B's median is worse than A's by more than the
  metric's bound in ``BENCHMARK.json`` (and either both spreads are
  within the bound or every B run is worse than every A run);
* ``unresolved`` -- a spread is wider than the bound;
* ``unchanged``  -- otherwise.

Exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
MIN_PAIRS, WIN_SHARE = 10, 0.9


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced runs by workload, each list sorted by seed."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = {}
    for f in files:
        for run in json.loads(f.read_text())["runs"]:
            if not run["trace"]:
                by_workload.setdefault(run["workload"], []).append(run)
    for runs in by_workload.values():
        runs.sort(key=lambda r: r["seed"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, higher: bool):
    """``(verdict, change, wins, pairs, spread A, spread B)``."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = -1.0 if higher else 1.0
    change = (bm - am) / am
    worse = sign * change

    def better(x, y):
        return sign * (x - y) < 0

    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    spread_a, spread_b = (a3 - a1) / am, (b3 - b1) / bm
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and better(bm, am) and abs(bm - am) > a3 - a1):
        result = "improved"
    elif worse > bound and (
        max(spread_a, spread_b) <= bound
        or all(better(x, y) for x in a for y in b)
    ):
        result = "regressed"
    elif max(spread_a, spread_b) > bound:
        result = "unresolved"
    else:
        result = "unchanged"
    return result, change, wins, len(pairs), spread_a, spread_b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent result set")
    parser.add_argument("b", type=Path, help="change result set")
    args = parser.parse_args(argv)
    a_runs, b_runs = load(args.a), load(args.b)
    regressed = False
    print(f"{'workload':9} {'metric':12} {'A median [q1, q3]':27} "
          f"{'B median [q1, q3]':27} {'sprA':>6} {'sprB':>6} {'change':>7} "
          f"{'bound':>5} {'wins':>5}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        for m in SPEC["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            result, change, wins, pairs, spr_a, spr_b = verdict(
                a, b, m["bound"], m["better"] == "higher"
            )
            regressed |= result == "regressed"
            qa, qb = (
                "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(v))
                for v in (a, b)
            )
            print(f"{workload:9} {name:12} {qa:27} {qb:27} {spr_a:6.1%} "
                  f"{spr_b:6.1%} {change:+7.1%} {m['bound']:5.0%} "
                  f"{wins:>2}/{pairs:<2}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
