"""External-memory (out-of-core) mergesort: the Section 2.2 contrast.

The paper positions its work against the out-of-core tradition ("our
in-memory sort can only sort datasets that fit into the DDR memory"):
when data exceeds *all* memory levels, the classic DAM-model answer is
run formation + multiway merge against disk. We implement both faces:

* :func:`external_sort` — a *real* out-of-core sort: sorted runs are
  written to temporary files on disk and k-way merged back in bounded
  memory blocks. Works on arrays or iterables larger than the allowed
  memory budget.
* :func:`external_sort_plan` — the timed counterpart on the simulated
  node with a disk device: run-formation and merge passes stream the
  data set through DDR and disk, showing where the crossover with the
  in-memory MLM-sort lies.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.simknl.devices import MemoryDevice
from repro.simknl.engine import Phase, Plan
from repro.simknl.flows import Flow
from repro.simknl.node import KNLNode
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm
from repro.units import GB, GiB, INT64


def disk_device(
    bandwidth: float = 2 * GB,
    capacity: float = 8192 * GiB,
    latency: float = 100e-6,
) -> MemoryDevice:
    """An NVMe-class block device for the timed plans."""
    return MemoryDevice(
        name="disk",
        bandwidth=bandwidth,
        capacity=capacity,
        latency=latency,
        channels=4,
    )


# ---------------------------------------------------------------------------
# Functional: real files, bounded memory
# ---------------------------------------------------------------------------


def _write_runs(arr: np.ndarray, budget: int, tmpdir: Path) -> list[Path]:
    """Phase 1: sort budget-sized runs and spill them to disk."""
    paths = []
    tel = _tm.current()
    for i, start in enumerate(range(0, len(arr), budget)):
        run = np.sort(arr[start : start + budget], kind="stable")
        path = tmpdir / f"run{i:05d}.npy"
        np.save(path, run)
        paths.append(path)
        if tel.enabled:
            m = tel.metrics
            m.counter(_tn.SORT_SPILL_FILES_TOTAL).inc()
            m.counter(_tn.SORT_SPILL_BYTES_TOTAL).inc(run.nbytes)
            tel.events.emit(
                _tn.EVENT_SORT_SPILL, file=path.name, bytes=run.nbytes
            )
    return paths


def _merge_runs(
    paths: list[Path], budget: int, dtype: np.dtype
) -> np.ndarray:
    """Phase 2: k-way merge the runs reading bounded blocks."""
    k = len(paths)
    tel = _tm.current()
    if tel.enabled:
        tel.metrics.histogram(_tn.SORT_MERGE_FAN_IN).observe(k)
        tel.events.emit(_tn.EVENT_SORT_MERGE, fan_in=k)
    block = max(1, budget // (k + 1))
    readers = [np.load(p, mmap_mode="r") for p in paths]
    positions = [0] * k
    buffers: list[np.ndarray] = [r[:block].copy() for r in readers]
    offsets = [0] * k
    heap: list[tuple] = []
    for i in range(k):
        if len(buffers[i]):
            heapq.heappush(heap, (buffers[i][0].item(), i))
    total = sum(len(r) for r in readers)
    out = np.empty(total, dtype=dtype)
    for j in range(total):
        value, i = heapq.heappop(heap)
        out[j] = value
        offsets[i] += 1
        if offsets[i] >= len(buffers[i]):
            positions[i] += len(buffers[i])
            buffers[i] = np.asarray(
                readers[i][positions[i] : positions[i] + block]
            ).copy()
            offsets[i] = 0
        if offsets[i] < len(buffers[i]):
            heapq.heappush(heap, (buffers[i][offsets[i]].item(), i))
    return out


def external_sort(
    arr: np.ndarray,
    memory_budget_elements: int,
    workdir: str | None = None,
) -> np.ndarray:
    """Out-of-core mergesort with a hard in-memory element budget.

    Parameters
    ----------
    arr:
        Input (conceptually too large for memory; the budget is
        enforced on run size and merge blocks).
    memory_budget_elements:
        Elements allowed resident during each phase.
    workdir:
        Directory for spill files; a temporary directory by default.
        The spill directory is removed on every exit path, so no
        orphaned run files survive an exception.
    """
    if arr.ndim != 1:
        raise ConfigError("expects a one-dimensional array")
    if memory_budget_elements < 2:
        raise ConfigError("memory budget must be >= 2 elements")
    if len(arr) == 0:
        return arr.copy()
    if len(arr) <= memory_budget_elements:
        return np.sort(arr, kind="stable")
    with contextlib.ExitStack() as stack:
        tmp = tempfile.mkdtemp(prefix="extsort-", dir=workdir)
        # Registered before any run file exists: every exit path —
        # including a mid-merge failure — removes the whole spill tree.
        stack.callback(shutil.rmtree, tmp, ignore_errors=True)
        tmpdir = Path(tmp)
        paths = _write_runs(arr, memory_budget_elements, tmpdir)
        return _merge_runs(paths, memory_budget_elements, arr.dtype)


# ---------------------------------------------------------------------------
# Timed plan
# ---------------------------------------------------------------------------


def external_sort_plan(
    node: KNLNode,
    n: int,
    memory_budget_bytes: float,
    threads: int = 256,
    fan_in: int = 64,
    s_sort: float = 0.21e9,
    s_merge: float = 0.55e9,
    element_size: int = INT64,
) -> Plan:
    """Timed out-of-core mergesort against the disk device.

    Run formation reads the data from disk and writes sorted runs
    back (one full disk round-trip, with in-memory sorting through
    DDR); each merge pass (``ceil(log_fan_in(num_runs))`` of them)
    streams the whole data set disk -> DDR -> disk again.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if memory_budget_bytes <= 0:
        raise ConfigError("memory budget must be positive")
    if fan_in < 2:
        raise ConfigError("fan_in must be >= 2")
    nbytes = float(n * element_size)
    num_runs = max(1, math.ceil(nbytes / memory_budget_bytes))
    merge_passes = max(1, math.ceil(math.log(max(num_runs, 2), fan_in)))
    plan = Plan(name=f"external-sort/n={n}")
    # Run formation: disk in + out, plus the in-memory sort traffic.
    plan.add(
        Phase(
            "run-formation/io",
            [Flow("disk-io", threads, 1 * GB, {"disk": 2.0}, nbytes)],
        )
    )
    m = max(2.0, memory_budget_bytes / element_size / threads)
    levels = 1.15 * math.log2(m)
    plan.add(
        Phase(
            "run-formation/sort",
            [Flow("sort", threads, s_sort, {"ddr": 2.0}, nbytes * levels)],
        )
    )
    for p in range(merge_passes):
        plan.add(
            Phase(
                f"merge-pass{p}",
                [
                    # Streaming merge bound by both disk and memory.
                    Flow(
                        "merge",
                        threads,
                        s_merge,
                        {"disk": 2.0, "ddr": 2.0},
                        nbytes,
                    )
                ],
            )
        )
    return plan
