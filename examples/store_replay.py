#!/usr/bin/env python3
"""Cache and replay: warm an on-disk result store, then re-render free.

Demonstrates the experiment result store (docs/EXPERIMENTS_STORE.md):

1. run Figure 7 cold against a store — every sweep cell is simulated
   once and persisted as ``config_hash -> result``,
2. run it again — warm, from the *in-memory* memo tier this time
   (same process), zero simulation,
3. replay it — resolved from the *disk* tier alone, exactly what a
   fresh process or CI run would see, and provably compute-free:
   inside a replay session the cell function is never invoked, and a
   missing cell is a hard error instead of a silent recompute.

Equivalent CLI: ``repro-knl figure7 --store DIR`` then
``repro-knl replay figure7 --store DIR``.

Run: ``python examples/store_replay.py [store-dir]``
"""

import sys
import tempfile
import time

from repro.experiments import ResultStore, replay_session, run_figure7


def timed(label: str, fn):
    t0 = time.perf_counter()
    result = fn()
    print(f"{label:<30} {time.perf_counter() - t0:8.3f} s wall")
    return result


def main() -> None:
    root = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-store-"
    )
    store = ResultStore(root)
    print(f"result store: {root}\n")

    cold = timed(
        "cold run (simulate + persist)", lambda: run_figure7(store=store)
    )
    print(f"  store: {store.stats.writes} cells written\n")

    warm = timed(
        "warm run (in-memory memo)", lambda: run_figure7(store=store)
    )
    print(f"  store: {store.stats.hits} disk hits (tier 1 answered)\n")

    def replayed():
        with replay_session(store):
            return run_figure7()

    replay = timed("replay (disk tier only)", replayed)
    print(
        f"  store: {store.stats.hits} disk hits — what a fresh "
        "process pays: file reads, no simulation\n"
    )

    assert warm.rows == cold.rows
    assert replay.rows == cold.rows
    print("all three renders are identical, row for row:")
    for row in replay.rows[:3]:
        print(f"  {row}")
    print(f"  ... ({len(replay.rows)} rows total)")


if __name__ == "__main__":
    main()
