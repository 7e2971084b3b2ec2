"""STREAM-style bandwidth measurement on the simulated node.

The paper's Table 2 quotes its bandwidth ceilings "as measured by the
STREAM benchmark". We reproduce that measurement procedure against the
simulator: saturate a device with many copy streams and divide bytes
by time. The per-thread rates ``S_copy``/``S_comp`` are recovered from
single-stream runs bounded by memory-level parallelism (Little's law
over the device latencies), matching Table 2's 4.8 and 6.78 GB/s.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.simknl.engine import Phase, Plan
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode
from repro.units import GB, GiB

#: Outstanding cache lines per copy thread (loads + stores across two
#: devices throttle concurrency): 10 * 64 B / 130 ns ~ 4.9 GB/s.
MLP_COPY = 10
#: Outstanding cache lines per compute thread against MCDRAM:
#: 16 * 64 B / 150 ns ~ 6.8 GB/s.
MLP_COMP = 16


def stream_triad_plan(
    node: KNLNode, device: str, nbytes: float = 4 * GiB, threads: int = 256
) -> Plan:
    """A STREAM-triad-like plan: a[i] = b[i] + s * c[i] on ``device``.

    Triad moves three arrays (two reads, one write); the flow's
    logical bytes are the total traffic.
    """
    if device not in ("ddr", "mcdram"):
        raise ConfigError(f"unknown device {device!r}")
    flow = Flow(
        name=f"triad-{device}",
        threads=threads,
        per_thread_rate=getattr(node, device).per_thread_rate_bound(MLP_COMP),
        resources={device: 1.0},
        bytes_total=3 * nbytes,
    )
    return Plan(name=f"stream-{device}", phases=[Phase("triad", [flow])])


def micro_rate_plans(node: KNLNode) -> tuple[Plan, Plan, float]:
    """The single-thread validation plans behind S_copy/S_comp.

    A copy thread's rate is bounded by the slower of the two devices
    it touches; a compute thread streams MCDRAM only. Returns
    ``(copy_plan, comp_plan, nbytes)`` so callers can run the two
    micro-measurements themselves (the cross-cell sweep lowering
    batches them alongside the STREAM plans).
    """
    s_copy = min(
        node.ddr.per_thread_rate_bound(MLP_COPY),
        node.mcdram.per_thread_rate_bound(MLP_COPY + 2),
    )
    s_comp = node.mcdram.per_thread_rate_bound(MLP_COMP)
    nbytes = float(1 * GB)
    copy_flow = Flow("copy1", 1, s_copy, {"ddr": 1.0, "mcdram": 1.0}, nbytes)
    comp_flow = Flow("comp1", 1, s_comp, {"mcdram": 1.0}, nbytes)
    copy_plan = Plan(name="phase", phases=[Phase("phase", [copy_flow])])
    comp_plan = Plan(name="phase", phases=[Phase("phase", [comp_flow])])
    return copy_plan, comp_plan, nbytes
