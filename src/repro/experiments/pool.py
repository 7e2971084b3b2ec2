"""Persistent shared-memory worker pool for :func:`sweep_map`.

The fork-per-call backend (``pool="fork"``) re-pays process startup and
one pickle round-trip per cell on every sweep. For the small cells the
figure drivers run by the hundreds, that overhead binds long before the
simulation work does — the same staging-vs-compute economics the
paper's Section 3.2 model describes, applied to our own harness. This
module amortizes it the way the paper amortizes copies:

* **Workers are spawned once per process lifetime** (lazily, sized by
  ``jobs``) and survive across :func:`sweep_map` calls and drivers.
* **Cells are dispatched in chunks**, so the per-message IPC cost is
  paid per chunk, not per cell. Chunk sizes are *skew-aware*: the pool
  keeps a per-cell-function cost model (EWMA mean plus a decaying
  per-cell peak, fed by worker-reported compute time) and shrinks
  chunks in proportion to the observed max/mean skew, so one
  expensive cell cannot serialize a full-size chunk behind it. A
  function the model has not seen yet falls back to the static
  halving taper of :meth:`PersistentPool.chunk_spans`.
* **Idle workers steal**: once the dispatch queue is empty, an idle
  worker takes the unstarted half of the most-loaded worker's
  prefetched backlog (a parent-mediated reassignment: the victim gets
  a ``cancel`` message, the thief a fresh dispatch), so a straggler
  cell no longer holds its queued neighbours hostage until a deadline
  blows.
* **The worker count autoscales** between a floor and ``size``
  against the cost model's projected sweep time — a sweep of cheap
  memo-style cells runs on a couple of workers instead of paying
  ``jobs`` pipes' worth of dispatch, and a sweep that turns out
  heavier than projected grows back mid-call against the observed
  queue depth. Scale-down only retires workers with nothing in
  flight.
* **Numeric results return through a shared-memory ring buffer** — one
  :class:`multiprocessing.shared_memory.SharedMemory` segment per
  worker, written as a single-producer/single-consumer ring of float64
  slots — while mixed-type payloads (dicts, heterogeneous tuples) fall
  back to pickle over the worker's duplex pipe.
* **Reassembly is deterministic**: chunks carry their cell indices, so
  results land in cell order regardless of completion order and a
  parallel sweep stays bit-identical to a serial one.

The pool is hardened against production-style harness failures (the
chaos suite in :mod:`repro.experiments.chaos` injects every one of
them at fixed seeds):

* **Worker death is survived**: a dead worker's already-delivered
  results are drained, the worker is respawned with a fresh ring after
  a bounded exponential backoff, and its lost chunks are resubmitted.
  Per-chunk *delivered* attempts are bounded; the pool raises
  :class:`~repro.errors.RetryExhaustedError` (carrying the attempt
  count, the :mod:`repro.faults` retry-accounting convention) when a
  chunk keeps killing its workers.
* **Hung and slow workers are survived**: every dispatched chunk
  carries a deadline derived from the per-function cost model —
  worker-reported *compute* time only, so prefetch queue wait never
  inflates the estimate, and one function's timings never contaminate
  another's deadlines. A chunk whose every outstanding assignment has blown its
  deadline is speculatively resubmitted to another worker;
  first-result-wins dedup through the ``completed`` set keeps the
  sweep bit-identical. A worker that delivers nothing long after its
  chunk completed elsewhere is declared hung and killed.
* **Ring corruption is detected, not returned**: shm payloads carry a
  per-worker sequence number and a CRC-32 of the raw float64 bytes. A
  payload failing either check is discarded and the chunk refetched
  over the type-exact pickle path.
* **An unhealthy pool degrades instead of stalling**: a slot that
  crash-loops past the circuit-breaker threshold, a call that exhausts
  its respawn or deadline budget, or a pool making no progress at all
  triggers graceful degradation — the remaining cells run in-process
  serially (bit-identical, since cell order is deterministic), a
  :class:`~repro.errors.DegradedModeWarning` is emitted, and the
  workers are reset for the next call.

Pool health is observable through :attr:`PersistentPool.stats` and,
when a telemetry session is active at dispatch time, through the
``sweep.*`` metrics in the telemetry catalog. (:func:`sweep_map` itself
runs serially under a session — see its docstring — so those metrics
are populated by direct :meth:`PersistentPool.map` use.)

Workers only *report* results over the ring/pipe; they never touch
the on-disk result store (:mod:`repro.experiments.store`). The parent
persists reassembled results after :meth:`PersistentPool.map` returns
— in :func:`sweep_map`'s write-through — so concurrent workers cannot
race on store files and a degraded-serial tail is persisted exactly
like a healthy parallel sweep.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
import warnings
import weakref
import zlib
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import Connection, wait
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ConfigError, DegradedModeWarning, RetryExhaustedError
from repro.experiments.runner import cost_key
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm

#: float64 result slots per worker ring (512 KiB of payload).
RING_SLOTS = 1 << 16
#: Ring header bytes: one int64 read cursor (parent-written).
_HEADER_BYTES = 16
#: Chunks kept in flight per worker before its next dispatch.
_PREFETCH = 2
#: Upper bound on cells per chunk (keeps ring payloads small and load
#: balancing effective).
MAX_CHUNK_CELLS = 64
#: Hard cap on pool size, far above any sensible ``--jobs``.
_MAX_WORKERS = 64
#: Delivered attempts per chunk before the pool gives up on a crash
#: loop (pipe failures that never reached a worker do not count).
_MAX_CHUNK_ATTEMPTS = 3
#: EWMA smoothing for the online per-cell time estimate.
_EWMA_ALPHA = 0.2
#: Per-observation decay of the tracked per-cell peak time, so a
#: one-off spike stops shrinking chunks after enough calm chunks.
_PEAK_DECAY = 0.05
#: Ceiling on chunks per call from skew-aware sizing (bounds the IPC
#: message count no matter how extreme the measured skew is).
_MAX_ADAPTIVE_CHUNKS = 1024
#: File name of the cost-model sidecar under a result-store root.
COST_SIDECAR = "cost_model.json"
#: Sidecar schema stamp; bump when the sidecar shape changes.
COST_SCHEMA = 1
#: Per-process serial for sidecar temp-file names (same uniqueness
#: argument as the store's entry temp files).
_COST_TMP_SERIAL = itertools.count()


@dataclass
class _CellCost:
    """Online cost estimate for one cell function (compute seconds).

    ``mean_s`` is an EWMA of per-cell compute time; ``max_s`` tracks
    the slowest single cell seen, decaying mildly per observation so
    the skew signal reflects the recent shape of the sweep, not one
    ancient outlier. Both are fed exclusively from worker-reported
    compute time, never parent-side round-trip time.
    """

    mean_s: float
    max_s: float
    chunks: int = 1


def load_costs(root: str | os.PathLike) -> dict[str, _CellCost]:
    """Read a cost-model sidecar, tolerating absence and corruption.

    The sidecar lives at ``<root>/cost_model.json``, next to (not
    inside) a result store's ``v1/`` entry tree, and is best-effort in
    both directions: a missing, unreadable, truncated, or
    wrong-schema sidecar simply reads as empty — the model it would
    have seeded starts cold, exactly as before the sidecar existed.
    Entries with non-numeric or negative fields are skipped
    individually, so one corrupt record cannot poison the rest.
    """
    path = Path(root) / COST_SIDECAR
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return {}
    try:
        doc = json.loads(raw)
    except ValueError:
        return {}
    if not isinstance(doc, dict) or doc.get("schema") != COST_SCHEMA:
        return {}
    records = doc.get("costs")
    if not isinstance(records, dict):
        return {}
    costs: dict[str, _CellCost] = {}
    for key, record in records.items():
        if not isinstance(key, str) or not isinstance(record, dict):
            continue
        mean_s = record.get("mean_s")
        max_s = record.get("max_s")
        chunks = record.get("chunks", 1)
        if (
            isinstance(mean_s, (int, float))
            and isinstance(max_s, (int, float))
            and isinstance(chunks, int)
            and not isinstance(mean_s, bool)
            and not isinstance(max_s, bool)
            and mean_s >= 0.0
            and max_s >= 0.0
            and chunks >= 1
        ):
            costs[key] = _CellCost(float(mean_s), float(max_s), chunks)
    return costs


def save_costs(
    root: str | os.PathLike, costs: dict[str, _CellCost]
) -> bool:
    """Persist a cost model to the sidecar atomically, best-effort.

    Published with a temp-file + :func:`os.replace` like store
    entries, so concurrent writers each land a complete file and a
    reader never observes a partial one. Any filesystem failure
    returns ``False`` instead of raising — losing the warm-start is
    an acceptable outcome, failing the sweep that produced it is not.
    """
    path = Path(root) / COST_SIDECAR
    doc = {
        "schema": COST_SCHEMA,
        "costs": {
            key: {
                "mean_s": cost.mean_s,
                "max_s": cost.max_s,
                "chunks": cost.chunks,
            }
            for key, cost in sorted(costs.items())
        },
    }
    data = json.dumps(doc, separators=(",", ":")) + "\n"
    tmp = path.parent / (
        f".{COST_SIDECAR}.{os.getpid()}.{next(_COST_TMP_SERIAL)}.tmp"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(data, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return False
    return True


_CTX = get_context(
    "fork" if "fork" in get_all_start_methods() else "spawn"
)

#: Every live pool, so freshly forked workers can close inherited
#: parent-side pipe fds regardless of which pool spawned them.
_REGISTRY: "weakref.WeakSet[PersistentPool]" = weakref.WeakSet()


@dataclass
class ChunkCellsSummary:
    """Bounded summary of chunk sizes dispatched over a pool's lifetime.

    Replaces an unbounded per-chunk list: a process-lifetime pool
    dispatches chunks forever, so the stats object keeps only
    count/total/min/max (the ``sweep.chunk_cells`` histogram carries
    the full distribution while a telemetry session is active).
    """

    count: int = 0
    total: int = 0
    min: int = 0
    max: int = 0

    def observe(self, ncells: int) -> None:
        """Fold one dispatched chunk's cell count into the summary."""
        if self.count == 0:
            self.min = ncells
            self.max = ncells
        else:
            self.min = min(self.min, ncells)
            self.max = max(self.max, ncells)
        self.count += 1
        self.total += ncells

    @property
    def mean(self) -> float:
        """Average cells per chunk (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0


@dataclass
class PoolStats:
    """Cumulative health counters of one :class:`PersistentPool`.

    ``dispatch_seconds`` is total wall time inside :meth:`map`;
    ``ipc_wait_seconds`` the part of it spent blocked on worker
    replies. ``shm_results`` / ``pickle_results`` count chunks by
    return transport. The hardening counters mirror the ``sweep.*``
    telemetry entries: ``deadline_expiries`` counts chunk assignments
    that blew their deadline, ``speculative`` the resubmissions that
    recovered them, ``ring_corrupt`` shm payloads that failed framing
    validation, ``backoff_seconds`` the total respawn backoff
    scheduled, and ``degraded_calls`` the :meth:`PersistentPool.map`
    calls that fell back to in-process serial execution. The
    scheduling counters track the adaptive dispatcher: ``steals``
    counts prefetched chunks reassigned from a busy worker to an idle
    one, ``scaled_up`` / ``scaled_down`` the worker-count autoscaling
    decisions taken (mid-call growth and idle retirement).
    """

    workers_spawned: int = 0
    respawns: int = 0
    cells: int = 0
    chunks: int = 0
    shm_results: int = 0
    pickle_results: int = 0
    dispatch_seconds: float = 0.0
    ipc_wait_seconds: float = 0.0
    deadline_expiries: int = 0
    speculative: int = 0
    ring_corrupt: int = 0
    backoff_seconds: float = 0.0
    degraded_calls: int = 0
    steals: int = 0
    scaled_up: int = 0
    scaled_down: int = 0
    chunk_cells: ChunkCellsSummary = field(default_factory=ChunkCellsSummary)


def _encode_numeric(results: list) -> tuple[np.ndarray, int] | None:
    """Flatten a chunk's results into float64s, if losslessly possible.

    Returns ``(values, cols)`` where ``cols == 0`` marks plain float
    scalars and ``cols == k`` marks uniform k-tuples of floats; ``None``
    when any element is not exactly a float (ints, bools, dicts, …
    take the pickle path so reconstruction is type-exact).
    """
    if not results:
        return None
    first = results[0]
    if type(first) is float:
        if all(type(r) is float for r in results):
            return np.asarray(results, dtype=np.float64), 0
        return None
    if type(first) is tuple and first and len(first) <= RING_SLOTS:
        cols = len(first)
        for r in results:
            if type(r) is not tuple or len(r) != cols:
                return None
            for v in r:
                if type(v) is not float:
                    return None
        flat = np.asarray(results, dtype=np.float64).reshape(-1)
        return flat, cols
    return None


def _decode_numeric(values: np.ndarray, cols: int) -> list:
    """Inverse of :func:`_encode_numeric`."""
    if cols == 0:
        return [float(v) for v in values]
    rows = values.reshape(-1, cols)
    return [tuple(float(v) for v in row) for row in rows]


def _ring_views(shm: SharedMemory) -> tuple[np.ndarray, np.ndarray]:
    """(read-cursor int64 view, float64 data view) over a ring segment."""
    header = np.ndarray((1,), dtype=np.int64, buffer=shm.buf)
    data = np.ndarray(
        (RING_SLOTS,), dtype=np.float64, buffer=shm.buf,
        offset=_HEADER_BYTES,
    )
    return header, data


def _close_sibling_fds() -> None:
    """Close inherited pool fds in a freshly forked worker.

    A fork copies the parent's fd table, so a worker holds the parent
    ends of every *earlier* worker's pipe; while those copies stay
    open, a sibling's death never reads as EOF in the parent. The
    forked child still sees the live pool objects through the module
    registry, so it can close them all — including the pipes of pools
    other than its own (the chaos driver runs dedicated pools next to
    the singleton).
    """
    for pool in list(_REGISTRY):
        for worker in pool._workers:
            try:
                worker.conn.close()
            except OSError:
                pass


def _payload_crc(values: np.ndarray) -> int:
    """CRC-32 of a ring payload's raw float64 bytes."""
    return zlib.crc32(values.tobytes()) & 0xFFFFFFFF


def _worker_main(slot: int, conn: Connection, shm_name: str) -> None:
    """Worker loop: pull chunk messages, push results until ``stop``.

    The worker keeps a local backlog: it blocks for one message when
    idle, then drains whatever else has already arrived. That lets a
    parent-mediated ``("cancel", chunk_id)`` overtake a prefetched-
    but-unstarted ``run`` (the pipe is FIFO, so a cancel always
    arrives after the run it voids) — the mechanism behind work
    stealing. A cancel for a chunk already executed is dropped
    harmlessly; the parent's first-result-wins dedup resolves the
    race where both the victim and the thief return the chunk.

    Each result message carries the chunk's summed per-cell *compute*
    time and the slowest single cell, measured around the ``fn`` calls
    themselves, so the parent's cost model never absorbs the time a
    chunk spent queued behind the worker's previous chunk.

    Chunk messages optionally carry a chaos directive (see
    :mod:`repro.experiments.chaos`) which the worker enacts on itself:
    ``("kill",)`` exits hard, ``("hang",)`` stops consuming messages
    while staying alive, ``("slow", s)`` sleeps ``s`` seconds before
    each cell, and ``("corrupt",)`` scribbles on the shm payload after
    checksumming it so the parent's framing check must catch it.
    """
    _close_sibling_fds()
    shm = SharedMemory(name=shm_name)
    read_cursor, ring = _ring_views(shm)
    write_idx = 0
    seq = 0
    pending: list = []
    try:
        while True:
            try:
                if not pending:
                    # Idle: block for work (EOF/undecodable message —
                    # e.g. fn not importable in this fork — dies
                    # quietly; the pool respawns and resubmits).
                    pending.append(conn.recv())
                while conn.poll(0):
                    pending.append(conn.recv())
            except Exception:
                break
            cancelled = {m[1] for m in pending if m[0] == "cancel"}
            if cancelled:
                pending = [
                    m
                    for m in pending
                    if m[0] != "cancel"
                    and not (m[0] == "run" and m[1] in cancelled)
                ]
                if not pending:
                    continue
            msg = pending.pop(0)
            if msg[0] == "stop":
                break
            _, chunk_id, fn, cells, directive, force_pickle = msg
            fault = directive[0] if directive else None
            if fault == "kill":
                os._exit(117)
            if fault == "hang":
                # Livelocked, not dead: stay alive but stop consuming.
                while True:
                    time.sleep(0.05)
            delay = directive[1] if fault == "slow" else 0.0
            compute_s = 0.0
            cell_max_s = 0.0
            results = []
            try:
                for cell in cells:
                    t_cell = time.perf_counter()
                    if delay:
                        time.sleep(delay)
                    results.append(fn(*cell))
                    dt = time.perf_counter() - t_cell
                    compute_s += dt
                    if dt > cell_max_s:
                        cell_max_s = dt
            except BaseException as exc:
                try:
                    conn.send(("error", slot, chunk_id, exc))
                except Exception:
                    conn.send(
                        (
                            "error", slot, chunk_id,
                            RuntimeError(
                                f"{type(exc).__name__}: {exc} "
                                "(original exception unpicklable)"
                            ),
                        )
                    )
                continue
            encoded = None if force_pickle else _encode_numeric(results)
            if encoded is not None and len(encoded[0]) <= RING_SLOTS:
                values, cols = encoded
                count = len(values)
                crc = _payload_crc(values)
                # SPSC flow control: monotonic cursors, parent advances
                # the read cursor after consuming each payload.
                while RING_SLOTS - (write_idx - int(read_cursor[0])) < count:
                    time.sleep(0.0005)
                pos = write_idx % RING_SLOTS
                head = min(count, RING_SLOTS - pos)
                ring[pos:pos + head] = values[:head]
                if count > head:
                    ring[:count - head] = values[head:]
                if fault == "corrupt":
                    # Flip one mantissa bit of the first slot, after
                    # the checksum: a guaranteed byte-level mismatch.
                    ring[pos:pos + 1].view(np.int64)[0] ^= 0x1
                conn.send(
                    (
                        "shm", slot, chunk_id, write_idx, count, cols,
                        seq, crc, compute_s, cell_max_s,
                    )
                )
                seq += 1
                write_idx += count
            else:
                try:
                    conn.send(
                        ("pickle", slot, chunk_id, results,
                         compute_s, cell_max_s)
                    )
                except Exception as exc:
                    conn.send(
                        (
                            "error", slot, chunk_id,
                            RuntimeError(
                                f"chunk {chunk_id} result unpicklable: "
                                f"{type(exc).__name__}: {exc}"
                            ),
                        )
                    )
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        shm.close()


@dataclass
class _Worker:
    """Parent-side record of one worker process."""

    slot: int
    process: Any
    conn: Connection
    shm: SharedMemory
    read_header: np.ndarray
    ring: np.ndarray
    #: Next shm sequence number expected from this worker.
    seq_expected: int = 0
    #: Monotonic time of the last message received from this worker.
    last_result_at: float = 0.0
    #: Harvested (conn closed, awaiting respawn) — not in the wait set.
    dead: bool = False


@dataclass
class _Chunk:
    """One dispatched batch of cells."""

    chunk_id: int
    indices: list[int]
    cells: list[tuple]
    #: Delivered attempts only: sends that reached a live worker.
    attempts: int = 0
    #: Refetch over pickle after a ring-integrity failure.
    force_pickle: bool = False
    #: At least one speculative resubmission happened.
    speculated: bool = False


@dataclass
class _Assignment:
    """One (chunk, worker) dispatch awaiting a result."""

    chunk: _Chunk
    slot: int
    sent_at: float
    deadline_s: float
    #: conn.send succeeded — the worker actually saw the chunk.
    delivered: bool = False
    #: Blew its deadline (or was superseded); no longer awaited.
    expired: bool = False


class PersistentPool:
    """A process-lifetime pool of sweep workers.

    Use :func:`get_pool` rather than constructing directly — the pool
    is meant to be a singleton whose spawn cost amortizes across every
    sweep of the process. (The chaos driver is the exception: it
    builds dedicated pools so injected faults cannot perturb sweeps
    sharing the singleton.)

    Parameters
    ----------
    size:
        Worker count ceiling (capped at ``_MAX_WORKERS``); with
        ``autoscale`` the live count floats between ``min_workers``
        and this.
    deadline_factor:
        A dispatched chunk's deadline is ``deadline_factor`` times the
        cost-model-predicted chunk time; generous by default so
        legitimately heavy cells speculate rarely.
    min_deadline_s:
        Deadline floor, so microsecond cells do not produce
        millisecond deadlines that expire on scheduler jitter.
    cold_deadline_s:
        Deadline used for a cell function the cost model has not seen
        yet (estimates are per-function, so a new function always
        starts cold no matter what earlier sweeps trained).
    hang_kill_factor:
        A live worker is declared hung and killed once an assignment
        is overdue by this multiple of its deadline *and* the chunk
        already completed elsewhere *and* the worker has delivered
        nothing since the send — it is provably contributing nothing.
    backoff_base_s / backoff_max_s:
        Exponential backoff bounds between respawns of the same slot.
    breaker_respawns:
        Consecutive respawns of one slot (no delivery in between) that
        open the circuit breaker and degrade the call to serial.
    stall_escape_s:
        Hard ceiling on time with no progress at all before degrading;
        defaults to ``max(4 * cold_deadline_s, 5.0)``.
    adaptive:
        Enables skew-aware chunk sizing and work stealing. ``False``
        pins dispatch to the static halving taper with no stealing
        (the pre-adaptive scheduler, kept as the benchmark baseline).
    autoscale:
        Enables worker-count autoscaling between ``min_workers`` and
        ``size``. ``False`` always runs ``size`` workers.
    min_workers:
        Autoscaling floor (clamped to ``size``); defaults to 2 so a
        straggling chunk always has a second worker to speculate or
        steal onto, except in single-worker pools.
    scale_quantum_s:
        Projected sweep seconds worth one worker: the target count is
        ``projected_sweep_s / scale_quantum_s``, clamped to the
        floor/'``size``' band. Mid-call, a worker is added while the
        remaining queue projects past this per live worker.
    steal_min_s:
        How long the oldest unexpired assignment of a victim worker
        must have been outstanding before an idle worker may steal
        its backlog — short sweeps finish without steal churn.
    skew_ratio:
        Minimum observed ``max_s / mean_s`` per-cell skew before
        chunks shrink below the static size.
    skew_cell_floor_s:
        Minimum observed per-cell peak before skew sizing engages at
        all; microsecond cells have noisy skew that is never worth
        extra IPC messages.
    idle_reap_s:
        Default idleness bound for :meth:`reap_idle`: a pool that has
        not dispatched for this long retires all its workers (they
        respawn lazily on the next call). ``None`` (the default)
        disables reaping unless the caller passes an explicit bound —
        one-shot CLI runs exit anyway, but a long-running service must
        not pin ``jobs`` idle processes forever.
    """

    def __init__(
        self,
        size: int,
        *,
        deadline_factor: float = 8.0,
        min_deadline_s: float = 0.25,
        cold_deadline_s: float = 30.0,
        hang_kill_factor: float = 4.0,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        breaker_respawns: int = 3,
        stall_escape_s: float | None = None,
        adaptive: bool = True,
        autoscale: bool = True,
        min_workers: int | None = None,
        scale_quantum_s: float = 0.05,
        steal_min_s: float = 0.05,
        skew_ratio: float = 4.0,
        skew_cell_floor_s: float = 0.02,
        idle_reap_s: float | None = None,
    ) -> None:
        if size < 1:
            raise ConfigError(f"pool size must be >= 1, got {size}")
        for name, value in (
            ("deadline_factor", deadline_factor),
            ("min_deadline_s", min_deadline_s),
            ("cold_deadline_s", cold_deadline_s),
            ("hang_kill_factor", hang_kill_factor),
            ("backoff_base_s", backoff_base_s),
            ("backoff_max_s", backoff_max_s),
            ("scale_quantum_s", scale_quantum_s),
            ("steal_min_s", steal_min_s),
            ("skew_cell_floor_s", skew_cell_floor_s),
        ):
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if breaker_respawns < 1:
            raise ConfigError(
                f"breaker_respawns must be >= 1, got {breaker_respawns}"
            )
        if skew_ratio <= 1.0:
            raise ConfigError(
                f"skew_ratio must be > 1, got {skew_ratio}"
            )
        if min_workers is not None and min_workers < 1:
            raise ConfigError(
                f"min_workers must be >= 1, got {min_workers}"
            )
        if idle_reap_s is not None and idle_reap_s < 0:
            raise ConfigError(
                f"idle_reap_s must be >= 0, got {idle_reap_s}"
            )
        self.size = min(size, _MAX_WORKERS)
        self.deadline_factor = deadline_factor
        self.min_deadline_s = min_deadline_s
        self.cold_deadline_s = cold_deadline_s
        self.hang_kill_factor = hang_kill_factor
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.breaker_respawns = breaker_respawns
        self.stall_escape_s = (
            stall_escape_s
            if stall_escape_s is not None
            else max(4.0 * cold_deadline_s, 5.0)
        )
        self.adaptive = adaptive
        self.autoscale = autoscale
        self.min_workers = (
            min(min_workers, self.size)
            if min_workers is not None
            else min(2, self.size)
        )
        self.scale_quantum_s = scale_quantum_s
        self.steal_min_s = steal_min_s
        self.skew_ratio = skew_ratio
        self.skew_cell_floor_s = skew_cell_floor_s
        self.idle_reap_s = idle_reap_s
        self.stats = PoolStats()
        self._workers: list[_Worker] = []
        self._next_chunk_id = 0
        self._closed = False
        self._cell_cost: dict[str, _CellCost] = {}
        self._slot_consecutive: dict[int, int] = {}
        self._respawn_not_before: dict[int, float] = {}
        self._last_chunks: list[_Chunk] = []
        #: Serializes map() so concurrent callers (the sweep service's
        #: job threads) cannot interleave dispatch on shared workers.
        self._lock = threading.RLock()
        self._last_used = time.monotonic()
        self._cost_seeded: set[str] = set()
        _REGISTRY.add(self)

    # ---- worker lifecycle --------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        shm = SharedMemory(
            create=True, size=_HEADER_BYTES + RING_SLOTS * 8
        )
        header, ring = _ring_views(shm)
        header[0] = 0
        parent_conn, child_conn = _CTX.Pipe(duplex=True)
        process = _CTX.Process(
            target=_worker_main,
            args=(slot, child_conn, shm.name),
            daemon=True,
            name=f"repro-sweep-{slot}",
        )
        process.start()
        child_conn.close()
        self.stats.workers_spawned += 1
        return _Worker(slot, process, parent_conn, shm, header, ring)

    def _retire(self, worker: _Worker) -> None:
        """Close a worker's parent-side resources (process may live).

        Tolerates every partial state a worker can be in — already
        dead, already harvested (conn closed), ring already unlinked —
        so teardown paths (shutdown, reap, signal-time drains) can
        retire unconditionally without leaking the shm ring.
        """
        try:
            worker.conn.close()
        except OSError:
            pass
        try:
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=1.0)
        except (OSError, ValueError):
            pass
        try:
            worker.shm.close()
        except OSError:
            pass
        try:
            worker.shm.unlink()
        except (FileNotFoundError, OSError):
            pass

    def _replace_worker(self, slot: int) -> None:
        """Retire the worker in ``slot`` and spawn a fresh one."""
        self._retire(self._workers[slot])
        self._workers[slot] = self._spawn(slot)
        self.stats.respawns += 1

    def _reset_workers(self) -> None:
        """Tear down every worker; the next call respawns lazily."""
        for worker in self._workers:
            self._retire(worker)
        self._workers = []
        self._slot_consecutive = {}
        self._respawn_not_before = {}

    def _ensure_workers(self, target: int | None = None) -> int:
        """Bring the live worker count to ``target`` (default ``size``).

        Growth spawns at the end of the slot list; shrinkage (only
        with ``autoscale``, and only between calls, when nothing is in
        flight) retires trailing workers, so slot numbers always equal
        list indices. Returns how many workers were retired, so the
        caller can account the scale-down.
        """
        if self._closed:
            raise ConfigError("pool has been shut down")
        if target is None:
            target = self.size
        target = max(1, min(target, self.size))
        while len(self._workers) < target:
            self._workers.append(self._spawn(len(self._workers)))
        retired = 0
        while self.autoscale and len(self._workers) > target:
            self._retire(self._workers.pop())
            retired += 1
        return retired

    def _target_workers(self, fn_key: str, ncells: int) -> int:
        """Autoscaling target for a sweep of ``ncells`` of ``fn_key``.

        A function the cost model has not seen runs at full ``size``
        (the pre-autoscale behavior — no projection, no risk); a known
        function gets one worker per ``scale_quantum_s`` of projected
        sweep time, clamped to the ``min_workers``..``size`` band.
        """
        if not self.autoscale:
            return self.size
        cost = self._cell_cost.get(fn_key)
        if cost is None:
            return self.size
        floor = max(1, min(self.min_workers, self.size))
        want = int(cost.mean_s * ncells / self.scale_quantum_s) + 1
        return max(floor, min(self.size, want))

    def grow(self, size: int) -> None:
        """Raise the worker-count ceiling (never lowers it)."""
        if size > self.size:
            self.size = min(size, _MAX_WORKERS)

    @property
    def alive(self) -> bool:
        """False once :meth:`shutdown` has run."""
        return not self._closed

    def shutdown(self) -> None:
        """Stop workers and release shared-memory rings.

        Idempotent and safe to call from signal handlers, atexit, and
        service drains alike: every step tolerates workers that are
        already dead, pipes that are already closed, and rings that
        are already unlinked. ``atexit`` alone is not enough — it does
        not run on SIGTERM, so a killed service would leak every
        worker's ``/dev/shm`` ring; whoever catches the signal calls
        this (see :mod:`repro.experiments.service`) and the rings are
        unlinked no matter what state the workers died in.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            try:
                worker.process.join(timeout=1.0)
            except (OSError, ValueError):
                pass
            try:
                self._retire(worker)
            except Exception:
                # Last resort: the ring segment must not outlive us.
                try:
                    worker.shm.unlink()
                except (FileNotFoundError, OSError):
                    pass
        self._workers = []

    def reap_idle(self, max_idle_s: float | None = None) -> int:
        """Retire all workers if the pool has been idle long enough.

        ``max_idle_s`` overrides the pool's ``idle_reap_s`` (both
        ``None`` disables the reap). Returns the number of workers
        retired. Never blocks a sweep: if :meth:`map` holds the
        dispatch lock the pool is by definition not idle and the reap
        is skipped. Workers respawn lazily on the next call, paying
        one spawn round-trip — the right trade for a service that may
        sit quiet for hours between tenant bursts.
        """
        limit = max_idle_s if max_idle_s is not None else self.idle_reap_s
        if limit is None or self._closed or not self._workers:
            return 0
        if not self._lock.acquire(blocking=False):
            return 0
        try:
            if time.monotonic() - self._last_used < limit:
                return 0
            reaped = len(self._workers)
            self._reset_workers()
            return reaped
        finally:
            self._lock.release()

    # ---- per-function cost model -------------------------------------------

    def _deadline_s(self, fn_key: str, ncells: int) -> float:
        """Deadline for a fresh ``ncells``-cell chunk of ``fn_key``.

        A function without observations gets ``cold_deadline_s``; a
        known one gets ``deadline_factor`` times the larger of the
        projected chunk time and the slowest single cell seen, so a
        chunk that happens to contain the sweep's one heavy cell does
        not expire spuriously.
        """
        cost = self._cell_cost.get(fn_key)
        if cost is None:
            return self.cold_deadline_s
        return max(
            self.min_deadline_s,
            self.deadline_factor * max(cost.mean_s * ncells, cost.max_s),
        )

    def _observe_chunk(
        self,
        fn_key: str,
        compute_s: float,
        cell_max_s: float,
        ncells: int,
    ) -> None:
        """Fold one chunk's worker-reported compute timing into the model."""
        per_cell = compute_s / max(1, ncells)
        cost = self._cell_cost.get(fn_key)
        if cost is None:
            self._cell_cost[fn_key] = _CellCost(per_cell, cell_max_s)
            return
        cost.mean_s = (
            _EWMA_ALPHA * per_cell + (1.0 - _EWMA_ALPHA) * cost.mean_s
        )
        cost.max_s = max(cell_max_s, (1.0 - _PEAK_DECAY) * cost.max_s)
        cost.chunks += 1

    def warm_costs(self, root: str | os.PathLike) -> int:
        """Seed cold cost-model entries from ``root``'s sidecar.

        Fixes the cold-start gap: the EWMA table dies with the
        process, so without this the first sweep of every process ran
        blind ``cold_deadline_s`` deadlines with no skew-aware
        chunking. Only functions the live model has *not* observed are
        seeded — a fresh in-process measurement always outranks a
        sidecar written by an earlier process. Each sidecar is read at
        most once per (pool, root) pair; re-warming after new sweeps is
        therefore free. Returns the number of entries seeded.
        """
        resolved = str(Path(root).resolve())
        if resolved in self._cost_seeded:
            return 0
        self._cost_seeded.add(resolved)
        seeded = 0
        for fn_key, cost in load_costs(root).items():
            if fn_key not in self._cell_cost:
                self._cell_cost[fn_key] = cost
                seeded += 1
        return seeded

    def persist_costs(self, root: str | os.PathLike) -> bool:
        """Write the live cost model to ``root``'s sidecar, best-effort.

        Called after each store-backed sweep so the next process
        warm-starts from this one's observations. No-op (``False``)
        when the model is empty or the write fails.
        """
        if not self._cell_cost:
            return False
        return save_costs(root, self._cell_cost)

    # ---- dispatch ----------------------------------------------------------

    def chunk_size(self, ncells: int) -> int:
        """Cells per chunk: ~4 chunks per worker, capped for balance."""
        per_worker = -(-ncells // (self.size * 4))
        return max(1, min(MAX_CHUNK_CELLS, per_worker))

    @staticmethod
    def chunk_spans(ncells: int, step: int) -> list[tuple[int, int]]:
        """Chunk boundaries with a tapered tail, in dispatch order.

        Leading chunks carry ``step`` cells; once at most ``2 * step``
        cells remain, chunk sizes halve toward the end (floor 1). An
        expensive trailing cell (figure7's 6B-element implicit cells
        vs 125M) then serializes at most a small final chunk instead
        of a full quarter-of-a-worker's-share, while the bulk of the
        sweep still pays per-chunk IPC cost on big chunks. Spans are a
        pure function of ``(ncells, step)``, so dispatch order and
        reassembly stay deterministic.
        """
        spans: list[tuple[int, int]] = []
        lo = 0
        while ncells - lo > 2 * step:
            spans.append((lo, lo + step))
            lo += step
        while lo < ncells:
            size = max(1, min(step, (ncells - lo + 1) // 2))
            spans.append((lo, lo + size))
            lo += size
        return spans

    def plan_spans(
        self, ncells: int, step: int, fn_key: str
    ) -> list[tuple[int, int]]:
        """Chunk boundaries for one call, sized by measured skew.

        When the cost model knows ``fn_key`` and its per-cell skew
        (``max_s / mean_s``) clears ``skew_ratio`` — with the peak
        above ``skew_cell_floor_s``, so microsecond noise never
        engages — chunks shrink uniformly to ``step / skew`` cells
        (floor 1, chunk count capped): the slowest cell observed then
        costs about one chunk, not a ``step``-cell convoy behind it.
        Otherwise (cold model, calm sweep, or ``adaptive=False``) the
        static halving taper applies. Spans depend only on model state
        at call entry, never on completion order, so reassembly stays
        deterministic within the call.
        """
        if self.adaptive:
            cost = self._cell_cost.get(fn_key)
            if (
                cost is not None
                and cost.mean_s > 0.0
                and cost.max_s >= self.skew_cell_floor_s
                and cost.max_s / cost.mean_s >= self.skew_ratio
            ):
                skew = cost.max_s / cost.mean_s
                size = max(
                    1,
                    int(step / skew),
                    -(-ncells // _MAX_ADAPTIVE_CHUNKS),
                )
                size = min(size, step)
                return [
                    (lo, min(lo + size, ncells))
                    for lo in range(0, ncells, size)
                ]
        return self.chunk_spans(ncells, step)

    def map(
        self,
        fn: Callable[..., Any],
        cells: Sequence[tuple],
        chunk_cells: int | None = None,
        chaos: Any | None = None,
    ) -> list[Any]:
        """Map ``fn`` over ``cells`` on the pool, in cell order.

        Exceptions raised by ``fn`` propagate. A worker that dies
        mid-chunk is respawned (with backoff) and the chunk
        resubmitted; hung or slow workers are recovered by chunk
        deadlines and speculative resubmission; corrupt shm payloads
        are refetched over pickle; an unhealthy pool finishes the
        sweep in-process serially under a
        :class:`~repro.errors.DegradedModeWarning` instead of raising.

        ``chaos``, when given, is a
        :class:`repro.experiments.chaos.HarnessFaultInjector` consulted
        once per chunk dispatch; its directives are injected into the
        real workers.

        Calls serialize on an internal lock: the pool's workers, pipes,
        and cost model are shared state, so concurrent callers (the
        sweep service dispatches jobs from a thread pool) queue up
        rather than interleave dispatch. Each sweep still parallelizes
        across the pool's workers internally.
        """
        with self._lock:
            try:
                return self._map_locked(fn, cells, chunk_cells, chaos)
            finally:
                self._last_used = time.monotonic()

    def _map_locked(
        self,
        fn: Callable[..., Any],
        cells: Sequence[tuple],
        chunk_cells: int | None,
        chaos: Any | None,
    ) -> list[Any]:
        if not cells:
            return []
        t_start = time.perf_counter()
        fn_key = cost_key(fn)
        retired = self._ensure_workers(
            self._target_workers(fn_key, len(cells))
        )
        for slot, worker in enumerate(self._workers):
            # Revive slots that died (or were hung-killed) between
            # calls, so every sweep starts with a full complement.
            if not worker.process.is_alive():
                self._replace_worker(slot)
        step = chunk_cells or self.chunk_size(len(cells))
        chunks: list[_Chunk] = []
        for lo, hi in self.plan_spans(len(cells), step, fn_key):
            indices = list(range(lo, hi))
            chunks.append(
                _Chunk(
                    self._next_chunk_id,
                    indices,
                    [cells[i] for i in indices],
                )
            )
            self._next_chunk_id += 1
        self._last_chunks = chunks
        results: list[Any] = [None] * len(cells)
        call = self._run_chunks(fn, fn_key, chunks, results, chaos=chaos)
        call["scaled_down"] += retired
        call["dispatch_seconds"] = time.perf_counter() - t_start
        self.stats.cells += len(cells)
        self.stats.chunks += len(chunks)
        for chunk in chunks:
            self.stats.chunk_cells.observe(len(chunk.indices))
        self.stats.dispatch_seconds += call["dispatch_seconds"]
        self.stats.ipc_wait_seconds += call["ipc_wait_seconds"]
        self.stats.shm_results += call["shm_results"]
        self.stats.pickle_results += call["pickle_results"]
        self.stats.respawns += call["respawns"]
        self.stats.deadline_expiries += call["deadline_expiries"]
        self.stats.speculative += call["speculative"]
        self.stats.ring_corrupt += call["ring_corrupt"]
        self.stats.backoff_seconds += call["backoff_seconds"]
        self.stats.degraded_calls += call["degraded"]
        self.stats.steals += call["steals"]
        self.stats.scaled_up += call["scaled_up"]
        self.stats.scaled_down += call["scaled_down"]
        self._emit_telemetry(fn_key, chunks, call)
        return results

    def _run_chunks(
        self,
        fn: Callable[..., Any],
        fn_key: str,
        chunks: list[_Chunk],
        results: list[Any],
        chaos: Any | None = None,
    ) -> dict[str, Any]:
        """Dispatch chunks, reassemble results; returns per-call stats."""
        todo = list(reversed(chunks))  # pop() from the front of the sweep
        by_id = {c.chunk_id: c for c in chunks}
        assigned: dict[int, dict[int, _Assignment]] = {
            w.slot: {} for w in self._workers
        }
        inflight: dict[int, list[_Assignment]] = {}
        completed: set[int] = set()
        failure: BaseException | None = None
        breaker_reason: str | None = None
        dispatch_counter = 0
        done = 0
        last_progress = time.monotonic()
        deadline_budget = max(16, 4 * len(chunks))
        respawn_budget = max(8, 4 * self.size)
        call: dict[str, Any] = {
            "ipc_wait_seconds": 0.0,
            "shm_results": 0,
            "pickle_results": 0,
            "respawns": 0,
            "deadline_expiries": 0,
            "speculative": 0,
            "ring_corrupt": 0,
            "backoff_seconds": 0.0,
            "degraded": 0,
            "steals": 0,
            "scaled_up": 0,
            "scaled_down": 0,
        }

        def record_failure(exc: BaseException) -> None:
            # Fail fast: keep the first error, abandon undispatched
            # chunks, and only drain what is already in flight.
            nonlocal failure, done
            if failure is None:
                failure = exc
            while todo:
                chunk = todo.pop()
                if chunk.chunk_id not in completed:
                    completed.add(chunk.chunk_id)
                    done += 1

        def send_chunk(slot: int, chunk: _Chunk) -> None:
            nonlocal dispatch_counter
            worker = self._workers[slot]
            directive = None
            if chaos is not None:
                directive = chaos.on_dispatch(
                    dispatch_counter, chunk.chunk_id
                )
            dispatch_counter += 1
            prior = len(inflight.get(chunk.chunk_id, []))
            assignment = _Assignment(
                chunk,
                slot,
                time.monotonic(),
                # Deadlines double per prior assignment so a chunk
                # that is legitimately heavy (not hung) stops
                # re-speculating once its deadline catches up.
                self._deadline_s(fn_key, len(chunk.cells))
                * (2 ** min(prior, 8)),
            )
            assigned[slot][chunk.chunk_id] = assignment
            inflight.setdefault(chunk.chunk_id, []).append(assignment)
            if directive is not None and directive[0] == "drop":
                return  # parent-enacted pipe loss: never sent
            try:
                worker.conn.send(
                    (
                        "run", chunk.chunk_id, fn, chunk.cells,
                        directive, chunk.force_pickle,
                    )
                )
            except (OSError, ValueError):
                # Worker died under us before delivery; the deadline
                # or the next harvest recovers the chunk. Not counted
                # as an attempt: the worker never saw it.
                return
            assignment.delivered = True
            chunk.attempts += 1

        def dispatch(slot: int) -> None:
            worker = self._workers[slot]
            if worker.dead:
                return
            while (
                todo
                and failure is None
                and len(assigned.setdefault(slot, {})) < _PREFETCH
            ):
                chunk = todo.pop()
                if chunk.chunk_id in completed:
                    continue
                if chunk.chunk_id in assigned[slot]:
                    todo.append(chunk)
                    break
                send_chunk(slot, chunk)

        def fill() -> None:
            for slot in range(len(self._workers)):
                dispatch(slot)

        def live_backlog(slot: int) -> list[_Assignment]:
            return [
                a
                for a in assigned.get(slot, {}).values()
                if not a.expired
            ]

        def try_steal(now: float) -> None:
            # Work stealing: with the queue drained, an idle worker
            # takes the newest (certainly unstarted — FIFO pipe, the
            # older assignment is in front of it) prefetched chunk of
            # the most-loaded worker. The victim gets a cancel so it
            # skips the chunk if it has not started it; if the cancel
            # loses the race, first-result-wins dedup keeps the sweep
            # bit-identical. Only victims provably busy for at least
            # steal_min_s are robbed, so short healthy sweeps finish
            # without steal churn.
            if not self.adaptive or todo or failure is not None:
                return
            for thief in self._workers:
                if thief.dead or live_backlog(thief.slot):
                    continue
                victim_live: list[_Assignment] = []
                for worker in self._workers:
                    if worker.dead or worker.slot == thief.slot:
                        continue
                    backlog = live_backlog(worker.slot)
                    if len(backlog) >= 2 and len(backlog) > len(
                        victim_live
                    ):
                        victim_live = backlog
                if not victim_live:
                    return
                victim_live.sort(key=lambda a: a.sent_at)
                if now - victim_live[0].sent_at < self.steal_min_s:
                    return
                prey = victim_live[-1]
                chunk = prey.chunk
                if (
                    chunk.chunk_id in completed
                    or chunk.chunk_id in assigned.get(thief.slot, {})
                ):
                    continue
                prey.expired = True
                assigned.get(prey.slot, {}).pop(chunk.chunk_id, None)
                try:
                    self._workers[prey.slot].conn.send(
                        ("cancel", chunk.chunk_id)
                    )
                except (OSError, ValueError):
                    pass  # victim dying; harvest will also skip it
                call["steals"] += 1
                send_chunk(thief.slot, chunk)

        def autoscale_tick() -> None:
            # Mid-call worker-count correction, one step per loop
            # iteration. Growth: the remaining queue projects past
            # scale_quantum_s per live worker (or the model is cold),
            # and the ceiling allows another worker. Shrink: queue
            # empty, so trailing workers with nothing in flight retire
            # down to the floor — the tail of a sweep does not hold
            # `size` idle processes.
            if not self.autoscale or failure is not None:
                return
            floor = max(1, min(self.min_workers, self.size))
            if todo:
                if len(self._workers) >= self.size:
                    return
                cost = self._cell_cost.get(fn_key)
                todo_cells = sum(len(c.cells) for c in todo)
                live = sum(1 for w in self._workers if not w.dead)
                if cost is None or (
                    cost.mean_s * todo_cells
                    > self.scale_quantum_s * max(1, live)
                ):
                    slot = len(self._workers)
                    self._workers.append(self._spawn(slot))
                    assigned.setdefault(slot, {})
                    call["scaled_up"] += 1
                return
            if len(self._workers) <= floor:
                return
            worker = self._workers[-1]
            if not live_backlog(worker.slot):
                self._workers.pop()
                self._retire(worker)
                assigned.pop(worker.slot, None)
                call["scaled_down"] += 1

        def harvest(slot: int) -> None:
            # One-shot teardown of an unusable worker (dead process or
            # EOF pipe): drop it from the wait set, recover its
            # chunks, schedule a backed-off respawn.
            nonlocal breaker_reason
            worker = self._workers[slot]
            if worker.dead:
                return
            worker.dead = True
            try:
                worker.conn.close()
            except OSError:
                pass
            lost = list(assigned[slot].values())
            assigned[slot].clear()
            for assignment in lost:
                assignment.expired = True
            # Delivered-attempt exhaustion outranks breaker
            # bookkeeping: a chunk that keeps killing workers is a
            # poison chunk, not an unhealthy pool, and running it
            # in-process serially would kill the parent too.
            for assignment in lost:
                chunk = assignment.chunk
                if chunk.chunk_id in completed:
                    continue
                if chunk.attempts >= _MAX_CHUNK_ATTEMPTS:
                    if chaos is None:
                        self.shutdown()
                        raise RetryExhaustedError(
                            f"sweep chunk {chunk.chunk_id} killed its "
                            f"worker {chunk.attempts} times "
                            f"(cells {chunk.indices[0]}.."
                            f"{chunk.indices[-1]})",
                            attempts=chunk.attempts,
                        )
                    # Injected kills are not poison cells: degrade
                    # so the chaotic sweep still completes.
                    if breaker_reason is None:
                        breaker_reason = (
                            f"chunk {chunk.chunk_id} exhausted its "
                            f"{chunk.attempts} delivered attempts "
                            "under chaos injection"
                        )
            consecutive = self._slot_consecutive.get(slot, 0) + 1
            self._slot_consecutive[slot] = consecutive
            backoff = min(
                self.backoff_max_s,
                self.backoff_base_s * (2 ** (consecutive - 1)),
            )
            self._respawn_not_before[slot] = time.monotonic() + backoff
            call["backoff_seconds"] += backoff
            if (
                consecutive >= self.breaker_respawns
                and breaker_reason is None
            ):
                breaker_reason = (
                    f"worker slot {slot} crash-looped "
                    f"({consecutive} consecutive respawns)"
                )
            requeue = []
            for assignment in lost:
                chunk = assignment.chunk
                if chunk.chunk_id in completed or chunk in todo:
                    continue
                others = [
                    a
                    for a in inflight.get(chunk.chunk_id, [])
                    if not a.expired
                ]
                if not others:
                    requeue.append(chunk)
            # Resubmit at the front so lost work finishes promptly.
            todo.extend(reversed(requeue))

        def respawn_due() -> None:
            nonlocal breaker_reason
            now = time.monotonic()
            for slot, worker in enumerate(self._workers):
                if not worker.dead:
                    continue
                if call["respawns"] >= respawn_budget:
                    if breaker_reason is None:
                        breaker_reason = (
                            f"respawn budget exhausted "
                            f"({call['respawns']} respawns this call)"
                        )
                    return
                if now < self._respawn_not_before.get(slot, 0.0):
                    continue
                worker.process.join(timeout=0.5)
                worker.shm.close()
                try:
                    worker.shm.unlink()
                except FileNotFoundError:
                    pass
                self._workers[slot] = self._spawn(slot)
                call["respawns"] += 1

        def pick_speculation_slot(chunk_id: int) -> int | None:
            best: int | None = None
            best_load = None
            for slot, worker in enumerate(self._workers):
                if worker.dead or chunk_id in assigned[slot]:
                    continue
                load = len(assigned[slot])
                if best_load is None or load < best_load:
                    best, best_load = slot, load
            return best

        def scan() -> None:
            # Expire blown deadlines, speculate dead chunks onto other
            # workers, kill provably hung workers, watch for stalls.
            nonlocal done, breaker_reason
            now = time.monotonic()
            for chunk_id, assignments in list(inflight.items()):
                if chunk_id in completed:
                    continue
                for assignment in assignments:
                    if (
                        not assignment.expired
                        and now - assignment.sent_at > assignment.deadline_s
                    ):
                        assignment.expired = True
                        call["deadline_expiries"] += 1
                        if not assignment.delivered:
                            # The worker never saw this chunk (dropped
                            # dispatch or failed send): no result can
                            # ever arrive, so free the prefetch slot —
                            # otherwise the stale entry starves the
                            # worker's dispatch capacity for the rest
                            # of the pool's life.
                            assigned.get(assignment.slot, {}).pop(
                                assignment.chunk.chunk_id, None
                            )
                if any(not a.expired for a in assignments):
                    continue
                if failure is not None:
                    # Draining after an error: abandon, don't recover.
                    completed.add(chunk_id)
                    done += 1
                    continue
                if call["deadline_expiries"] > deadline_budget:
                    if breaker_reason is None:
                        breaker_reason = (
                            "deadline budget exhausted "
                            f"({call['deadline_expiries']} expiries "
                            f"this call, budget {deadline_budget})"
                        )
                    continue
                chunk = by_id[chunk_id]
                if chunk in todo:
                    continue  # queued for refetch; dispatch resends it
                slot = pick_speculation_slot(chunk_id)
                if slot is None:
                    continue
                call["speculative"] += 1
                chunk.speculated = True
                send_chunk(slot, chunk)
            for slot, worker in enumerate(self._workers):
                if worker.dead or not worker.process.is_alive():
                    continue
                for assignment in assigned[slot].values():
                    overdue = now - assignment.sent_at
                    if (
                        assignment.expired
                        and assignment.chunk.chunk_id in completed
                        and worker.last_result_at < assignment.sent_at
                        and overdue
                        > self.hang_kill_factor * assignment.deadline_s
                    ):
                        # The chunk finished elsewhere and this worker
                        # has delivered nothing since the send: it is
                        # provably contributing nothing. Kill it; the
                        # harvest/respawn path takes over.
                        worker.process.kill()
                        break
            if (
                done < len(chunks)
                and now - last_progress > self.stall_escape_s
                and breaker_reason is None
            ):
                breaker_reason = (
                    f"no progress for {self.stall_escape_s:.1f}s"
                )

        def loop_timeout() -> float:
            now = time.monotonic()
            margin = 0.25
            for chunk_id, assignments in inflight.items():
                if chunk_id in completed:
                    continue
                for assignment in assignments:
                    if assignment.expired:
                        continue
                    margin = min(
                        margin,
                        assignment.sent_at
                        + assignment.deadline_s
                        - now,
                    )
            return max(0.02, margin)

        fill()
        while done < len(chunks):
            scan()
            if breaker_reason is not None:
                break
            for slot, worker in enumerate(self._workers):
                if not worker.dead and not worker.process.is_alive():
                    harvest(slot)
            if breaker_reason is not None:
                break
            respawn_due()
            if breaker_reason is not None:
                break
            fill()
            try_steal(time.monotonic())
            autoscale_tick()
            if done >= len(chunks):
                break
            conns = [w.conn for w in self._workers if not w.dead]
            t_wait = time.perf_counter()
            if conns:
                ready = wait(conns, timeout=loop_timeout())
            else:
                time.sleep(0.01)
                ready = []
            call["ipc_wait_seconds"] += time.perf_counter() - t_wait
            for conn in ready:
                worker = next(
                    (
                        w
                        for w in self._workers
                        if w.conn is conn and not w.dead
                    ),
                    None,
                )
                if worker is None:
                    continue  # conn replaced by a respawn this round
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    harvest(worker.slot)
                    continue
                now = time.monotonic()
                worker.last_result_at = now
                self._slot_consecutive[worker.slot] = 0
                chunk_id = msg[2]
                if msg[0] == "error":
                    assignment = assigned[worker.slot].pop(chunk_id, None)
                    if assignment is not None:
                        assignment.expired = True
                    if chunk_id not in completed:
                        completed.add(chunk_id)
                        done += 1
                    record_failure(msg[3])
                    last_progress = now
                    continue
                if msg[0] == "shm":
                    _, _, _, start, count, cols, seq, crc = msg[:8]
                    compute_s, cell_max_s = msg[8], msg[9]
                    pos = start % RING_SLOTS
                    head = min(count, RING_SLOTS - pos)
                    values = np.empty(count, dtype=np.float64)
                    values[:head] = worker.ring[pos:pos + head]
                    if count > head:
                        values[head:] = worker.ring[:count - head]
                    worker.read_header[0] = start + count
                    intact = (
                        seq == worker.seq_expected
                        and _payload_crc(values) == crc
                    )
                    worker.seq_expected = seq + 1
                    assignment = assigned[worker.slot].pop(chunk_id, None)
                    if assignment is not None:
                        assignment.expired = True
                    if not intact:
                        call["ring_corrupt"] += 1
                        chunk = by_id.get(chunk_id)
                        if (
                            chunk is not None
                            and chunk_id not in completed
                            and failure is None
                            and chunk not in todo
                        ):
                            # Refetch over the type-exact pickle path;
                            # the corrupt payload is discarded.
                            chunk.force_pickle = True
                            todo.append(chunk)
                        dispatch(worker.slot)
                        continue
                    payload = _decode_numeric(values, cols)
                    call["shm_results"] += 1
                else:
                    payload = msg[3]
                    compute_s, cell_max_s = msg[4], msg[5]
                    call["pickle_results"] += 1
                    assignment = assigned[worker.slot].pop(chunk_id, None)
                    if assignment is not None:
                        assignment.expired = True
                chunk = by_id.get(chunk_id)
                if chunk is not None:
                    # Fold in the worker-reported compute time (not
                    # the parent-side round trip: with _PREFETCH > 1 a
                    # queued chunk's round trip includes waiting
                    # behind its predecessor, which used to inflate
                    # the estimate by up to the prefetch depth).
                    # Duplicates from lost speculation races are real
                    # measurements and are folded in too.
                    self._observe_chunk(
                        fn_key, compute_s, cell_max_s, len(chunk.cells)
                    )
                if chunk is None or chunk_id in completed:
                    # Stale (previous call) or duplicate (speculation
                    # lost the race): payload consumed, result dropped.
                    dispatch(worker.slot)
                    continue
                for index, value in zip(chunk.indices, payload):
                    results[index] = value
                completed.add(chunk_id)
                done += 1
                last_progress = now
                dispatch(worker.slot)
        if (
            breaker_reason is not None
            and failure is None
            and done < len(chunks)
        ):
            self._degrade_serial(
                fn, chunks, completed, results, breaker_reason, call
            )
        if failure is not None:
            raise failure
        return call

    def _degrade_serial(
        self,
        fn: Callable[..., Any],
        chunks: list[_Chunk],
        completed: set[int],
        results: list[Any],
        reason: str,
        call: dict[str, Any],
    ) -> None:
        """Finish the sweep in-process; reset workers for the next call.

        Cell order is deterministic, so the serial tail is
        bit-identical to what the workers would have returned — the
        sweep completes under a :class:`DegradedModeWarning` instead
        of raising.
        """
        warnings.warn(
            "sweep pool degraded to in-process serial execution: "
            f"{reason}",
            DegradedModeWarning,
            stacklevel=4,
        )
        call["degraded"] = 1
        for chunk in chunks:
            if chunk.chunk_id in completed:
                continue
            for index, cell in zip(chunk.indices, chunk.cells):
                results[index] = fn(*cell)
            completed.add(chunk.chunk_id)
        self._reset_workers()

    # ---- observability -----------------------------------------------------

    def _emit_telemetry(
        self, fn_key: str, chunks: list[_Chunk], call: dict[str, Any]
    ) -> None:
        """Flush one call's deltas into the active telemetry session."""
        tel = _tm.current()
        if not tel.enabled:
            return
        m = tel.metrics
        m.counter(_tn.SWEEP_CELLS_TOTAL).inc(
            sum(len(c.indices) for c in chunks)
        )
        m.counter(_tn.SWEEP_CHUNKS_TOTAL).inc(len(chunks))
        for chunk in chunks:
            m.histogram(_tn.SWEEP_CHUNK_CELLS).observe(len(chunk.indices))
        m.counter(_tn.SWEEP_DISPATCH_SECONDS_TOTAL).inc(
            call["dispatch_seconds"]
        )
        m.counter(_tn.SWEEP_IPC_WAIT_SECONDS_TOTAL).inc(
            call["ipc_wait_seconds"]
        )
        m.counter(_tn.SWEEP_RESULTS_TOTAL).inc(
            call["shm_results"], transport="shm"
        )
        m.counter(_tn.SWEEP_RESULTS_TOTAL).inc(
            call["pickle_results"], transport="pickle"
        )
        m.counter(_tn.SWEEP_RESPAWNS_TOTAL).inc(call["respawns"])
        m.gauge(_tn.SWEEP_WORKERS).set(len(self._workers))
        m.counter(_tn.SWEEP_DEADLINE_TOTAL).inc(call["deadline_expiries"])
        m.counter(_tn.SWEEP_SPECULATIVE_TOTAL).inc(call["speculative"])
        m.counter(_tn.SWEEP_RING_CORRUPT_TOTAL).inc(call["ring_corrupt"])
        m.counter(_tn.SWEEP_BACKOFF_SECONDS_TOTAL).inc(
            call["backoff_seconds"]
        )
        m.gauge(_tn.SWEEP_DEGRADED).set(call["degraded"])
        m.counter(_tn.SWEEP_STEALS_TOTAL).inc(call["steals"])
        m.counter(_tn.SWEEP_WORKERS_SCALED_TOTAL).inc(
            call["scaled_up"], direction="up"
        )
        m.counter(_tn.SWEEP_WORKERS_SCALED_TOTAL).inc(
            call["scaled_down"], direction="down"
        )
        cost = self._cell_cost.get(fn_key)
        if cost is not None:
            m.gauge(_tn.SWEEP_EWMA_CELL_SECONDS).set(cost.mean_s)


#: The process-wide pool singleton (``None`` until first use).
_POOL: PersistentPool | None = None


def get_pool(jobs: int) -> PersistentPool:
    """The shared pool, created lazily and grown to ``jobs`` workers."""
    global _POOL
    if _POOL is None or not _POOL.alive:
        _POOL = PersistentPool(jobs)
    else:
        _POOL.grow(jobs)
    return _POOL


def current_pool() -> PersistentPool | None:
    """The live singleton, or ``None`` if no pool is up.

    Unlike :func:`get_pool` this never creates or grows a pool, so
    callers that only want to poke an existing one (the service's
    idle reaper, cost persistence) can't accidentally fork workers.
    """
    if _POOL is not None and _POOL.alive:
        return _POOL
    return None


def shutdown_pool() -> None:
    """Tear down the singleton (used by tests and the atexit hook)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(shutdown_pool)
