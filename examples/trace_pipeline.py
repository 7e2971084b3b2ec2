#!/usr/bin/env python3
"""Trace a buffered pipeline: phase timeline, energy, Perfetto export.

Runs the Section 5 merge benchmark inside a telemetry session and
shows what the simulator scheduled — the Fig. 2 overlap of copy-in /
compute / copy-out steps, one ``phase.end`` event per step — plus the
energy bill. Optionally writes the event log as Chrome-trace /
Perfetto JSON (the same format as ``repro-knl <artifact> --events
x.perfetto.json``), loadable in ui.perfetto.dev or chrome://tracing.

Run: ``python examples/trace_pipeline.py [trace.perfetto.json]``
"""

import sys

from repro.algorithms.merge_bench import MergeBenchConfig, run_merge_bench
from repro.simknl.energy import EnergyModel
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.telemetry import events_to_perfetto, telemetry_session
from repro.telemetry import names as tn


def main(trace_path: str | None = None) -> None:
    node = KNLNode(KNLNodeConfig(mode=MemoryMode.FLAT))
    cfg = MergeBenchConfig(
        repeats=8, copy_in_threads=5, data_bytes=8 * 10**9, chunk_bytes=10**9
    )
    with telemetry_session() as tel:
        res = run_merge_bench(node, cfg)
    print(f"merge benchmark: {res.elapsed:.3f} s over {res.num_chunks} chunks\n")

    print(f"phase timeline ({len(tel.events)} events logged):")
    for ev in tel.events:
        if ev.name == tn.EVENT_PHASE_END:
            start = ev.time - ev.attrs["seconds"]
            print(
                f"  {ev.attrs['phase']:8s} {start * 1e3:7.2f} -> "
                f"{ev.time * 1e3:7.2f} ms"
            )

    rep = EnergyModel().report(res.run)
    print(
        f"\nenergy: {rep.total_joules:.1f} J total "
        f"(dynamic ddr {rep.dynamic_joules.get('ddr', 0):.1f} J, "
        f"mcdram {rep.dynamic_joules.get('mcdram', 0):.1f} J); "
        f"EDP {rep.energy_delay_product:.1f} J*s"
    )

    if trace_path:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(events_to_perfetto(tel.events))
        print(f"\nwrote Perfetto trace to {trace_path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
