#!/usr/bin/env python3
"""Quickstart: simulate a KNL node and run a chunked kernel on it.

Demonstrates the core workflow in ~50 lines:

1. boot a simulated KNL node in a memory mode,
2. describe a streaming kernel and a data set,
3. size the chunks for the usage mode and split the threads with the
   model's optimal copy-thread count (Eqs. 1-5),
4. run the triple-buffered pipeline and read back time + traffic.

Run: ``python examples/quickstart.py``
"""

from repro.core import BufferedPipeline, Chunker, StreamKernel
from repro.core.modes import UsageMode
from repro.model.optimizer import optimal_copy_threads
from repro.model.params import ModelParams
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode
from repro.threads.pool import PoolSet
from repro.units import GB, INT64


def main() -> None:
    # A 30 GB data set: twice the MCDRAM, the paper's regime.
    data_bytes = int(30 * GB) // 8 * 8
    kernel = StreamKernel(passes=8, name="my-kernel")
    params = ModelParams().with_data_size(data_bytes)

    print("workload: 30 GB, 8 read+write passes per chunk\n")
    for mode, bios in (
        (UsageMode.FLAT, MemoryMode.FLAT),
        (UsageMode.IMPLICIT, MemoryMode.CACHE),
        (UsageMode.DDR, MemoryMode.FLAT),
    ):
        node = KNLNode(KNLNodeConfig(mode=bios))
        threads = node.total_threads
        if mode is UsageMode.FLAT:
            # Three live buffers (copy-in, compute, copy-out) share the
            # MCDRAM; the model picks the copy pools for that chunk.
            chunk = int(node.addressable_mcdram) // 3 // INT64 * INT64
            best = optimal_copy_threads(
                params, total_threads=threads, passes=kernel.passes(chunk)
            )
            pools = PoolSet.split(
                node, compute=threads - 2 * best.p_in, copy_in=best.p_in
            )
        elif mode is UsageMode.IMPLICIT:
            # Cache-sized chunks re-hit MCDRAM on every pass after the
            # cold fill; every thread computes.
            usable = int(node.cache_model.usable_capacity)
            chunk = usable // INT64 * INT64
            pools = PoolSet.compute_only(node)
        else:
            # DDR mode processes the data set in place.
            chunk = data_bytes
            pools = PoolSet.compute_only(node)
        pipe = BufferedPipeline(
            node, mode, pools, Chunker(data_bytes, chunk), kernel, params
        )
        res = pipe.run()
        print(
            f"{mode.value:9s}: {res.elapsed:6.3f} s   "
            f"chunks={res.num_chunks:3d}  "
            f"copy-threads={pools.copy_threads:3d}  "
            f"DDR traffic={res.traffic_gb('ddr'):6.1f} GB  "
            f"MCDRAM traffic={res.traffic_gb('mcdram'):7.1f} GB"
        )

    print(
        "\nflat beats DDR-only by exploiting MCDRAM bandwidth; implicit"
        "\nkeeps most of that win with zero explicit data movement —"
        "\nthe paper's central observation."
    )


if __name__ == "__main__":
    main()
