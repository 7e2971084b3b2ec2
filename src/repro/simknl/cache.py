"""Line-granularity direct-mapped model of the MCDRAM hardware cache.

In hardware cache mode KNL's MCDRAM acts as a direct-mapped,
64 B-line, memory-side cache in front of DDR. This module simulates
that structure exactly (at reduced scale for testability): address →
line → set index by modulo, single way, write-back with write-allocate,
and a classification of misses into cold (first touch), conflict
(line was evicted by a different line mapping to the same set while
the working set fits), and capacity (working set exceeds the cache).

The cache state is backed by NumPy tag/dirty arrays so that the hot
entry point — :meth:`DirectMappedCache.access_range` — can resolve a
whole contiguous range *per batch*: one vectorized pass classifies
every hit, cold/conflict/capacity miss, eviction, and writeback in the
range, and telemetry is emitted with a single ``inc(n)`` per counter
instead of a registry lookup per access. The scalar
:meth:`~DirectMappedCache.access` path is retained as the reference
implementation; the property tests in ``tests/simknl`` hold the two
paths bit-identical on random traces (see ``docs/PERFORMANCE.md``).

The functional simulator is used by tests and by the validation suite
that checks the *analytic* streaming model
(:mod:`repro.simknl.cache_analytic`) against ground truth on small
configurations; paper-scale experiments use the analytic model.

A fraction of MCDRAM capacity is reserved for tags when the real
hardware holds tag state in the array itself; the paper calls this out
as a disadvantage of cache mode, and :class:`DirectMappedCache` models
it via ``tag_overhead``.

Models the hardware cache mode of Section 1 (and Section 1.1's direct-
mapped caveats); the Fig. 4 pollution effect reproduces on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.telemetry import runtime as _tm
from repro.units import CACHE_LINE

#: Tag value marking an empty cache slot.
_EMPTY = -1


@dataclass
class CacheStats:
    """Counters accumulated by :class:`DirectMappedCache`."""

    hits: int = 0
    cold_misses: int = 0
    conflict_misses: int = 0
    capacity_misses: int = 0
    writebacks: int = 0

    @property
    def misses(self) -> int:
        """Total misses of all classes."""
        return self.cold_misses + self.conflict_misses + self.capacity_misses

    @property
    def accesses(self) -> int:
        """Total accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when no accesses yet)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.cold_misses = 0
        self.conflict_misses = 0
        self.capacity_misses = 0
        self.writebacks = 0


class DirectMappedCache:
    """A direct-mapped, write-back, write-allocate cache.

    Parameters
    ----------
    capacity:
        Nominal cache capacity in bytes (before tag overhead).
    line_size:
        Cache line size in bytes (KNL: 64).
    tag_overhead:
        Fraction of nominal capacity consumed by tag storage; the
        usable line count shrinks accordingly.
    """

    def __init__(
        self,
        capacity: int,
        line_size: int = CACHE_LINE,
        tag_overhead: float = 0.0,
    ) -> None:
        if line_size <= 0:
            raise ConfigError("line_size must be positive")
        if capacity < line_size:
            raise ConfigError("capacity must hold at least one line")
        if not 0.0 <= tag_overhead < 1.0:
            raise ConfigError("tag_overhead must be in [0, 1)")
        usable = int(capacity * (1.0 - tag_overhead))
        self.num_lines = max(1, usable // line_size)
        self.line_size = line_size
        self.capacity = capacity
        self.tag_overhead = tag_overhead
        #: Per-set resident line number (``_EMPTY`` when the slot is
        #: free) and dirty bit — the NumPy backing the batched path
        #: scatters into.
        self._tags = np.full(self.num_lines, _EMPTY, dtype=np.int64)
        self._dirty = np.zeros(self.num_lines, dtype=bool)
        #: Every line number ever touched drives cold-vs-capacity
        #: classification. Stored as a sorted array (the batched
        #: path's membership structure) plus a small pending set the
        #: scalar path inserts into; the two are kept disjoint and
        #: merged lazily before a batch runs.
        self._seen_arr = np.empty(0, dtype=np.int64)
        self._seen_pending: set[int] = set()
        self.stats = CacheStats()
        # Telemetry counter handles, hoisted once per session: the
        # scalar path re-resolves them only when the active session
        # changes instead of doing a registry lookup per access.
        self._tel_cached: _tm.Telemetry | None = None
        self._handles: tuple = ()
        tel = _tm.current()
        if tel.enabled:
            self._hoist_handles(tel)

    def _hoist_handles(self, tel: _tm.Telemetry) -> tuple:
        """(Re)bind counter handles to ``tel`` and return them."""
        from repro.telemetry import names as _tn

        m = tel.metrics
        self._handles = (
            m.counter(_tn.CACHE_HITS_TOTAL),
            m.counter(_tn.CACHE_MISSES_TOTAL),
            m.counter(_tn.CACHE_EVICTIONS_TOTAL),
            m.counter(_tn.CACHE_WRITEBACKS_TOTAL),
        )
        self._tel_cached = tel
        return self._handles

    @property
    def usable_capacity(self) -> int:
        """Capacity available for data after tag overhead, in bytes."""
        return self.num_lines * self.line_size

    def _index_and_line(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_size
        return line % self.num_lines, line

    @property
    def _seen_count(self) -> int:
        return self._seen_arr.size + len(self._seen_pending)

    def _seen_has(self, line: int) -> bool:
        if line in self._seen_pending:
            return True
        arr = self._seen_arr
        pos = int(np.searchsorted(arr, line))
        return pos < arr.size and int(arr[pos]) == line

    def _seen_snapshot(self) -> np.ndarray:
        """Sorted array of all line numbers ever seen."""
        if self._seen_pending:
            pending = np.fromiter(
                self._seen_pending,
                dtype=np.int64,
                count=len(self._seen_pending),
            )
            self._seen_arr = np.union1d(self._seen_arr, pending)
            self._seen_pending.clear()
        return self._seen_arr

    def access(self, addr: int, write: bool = False) -> bool:
        """Access one byte address; returns True on hit.

        A miss installs the line (write-allocate); evicting a dirty
        line counts a writeback. This is the scalar reference
        implementation; :meth:`access_range` is the vectorized
        equivalent for contiguous ranges.
        """
        if addr < 0:
            raise ConfigError("negative address")
        tel = _tm.current()
        index, line = self._index_and_line(addr)
        tag = int(self._tags[index])
        if tag == line:
            self.stats.hits += 1
            if write:
                self._dirty[index] = True
            if tel.enabled:
                handles = (
                    self._handles
                    if tel is self._tel_cached
                    else self._hoist_handles(tel)
                )
                handles[0].inc()
            return True
        # Miss: classify.
        cold = not self._seen_has(line)
        if cold:
            self.stats.cold_misses += 1
            miss_class = "cold"
            self._seen_pending.add(line)
        else:
            # Distinguish conflict from capacity by whether the live
            # working set (distinct lines seen) exceeds the cache.
            if self._seen_count > self.num_lines:
                self.stats.capacity_misses += 1
                miss_class = "capacity"
            else:
                self.stats.conflict_misses += 1
                miss_class = "conflict"
        occupied = tag != _EMPTY
        writeback = occupied and bool(self._dirty[index])
        if writeback:
            self.stats.writebacks += 1
        if tel.enabled:
            handles = (
                self._handles
                if tel is self._tel_cached
                else self._hoist_handles(tel)
            )
            handles[1].inc(**{"class": miss_class})
            if occupied:
                handles[2].inc()
            if writeback:
                handles[3].inc()
        self._tags[index] = line
        self._dirty[index] = write
        return False

    def access_range(self, start: int, nbytes: int, write: bool = False) -> None:
        """Access every line in ``[start, start + nbytes)``.

        Equivalent to calling :meth:`access` once per line in
        ascending order, but resolved per *batch*: tag compares, miss
        classification, collision resolution within the range, and
        writeback detection are single NumPy passes, and telemetry is
        emitted with one ``inc(n)`` per counter class.
        """
        if nbytes < 0:
            raise ConfigError("negative range size")
        if start < 0:
            raise ConfigError("negative address")
        if nbytes == 0:
            return
        ls = self.line_size
        nl = self.num_lines
        first = start // ls
        last = (start + nbytes - 1) // ls
        lines = np.arange(first, last + 1, dtype=np.int64)
        nb = lines.size

        # The range is a run of *distinct* consecutive lines, so the
        # first min(nb, nl) of them have pairwise-distinct set indices
        # ("head"); every later line ("tail") revisits an index already
        # claimed by an earlier line of this batch and therefore always
        # misses, evicting that batch-local predecessor.
        n_head = min(nb, nl)
        head = lines[:n_head]
        head_idx = head % nl
        pre_tags = self._tags[head_idx]
        pre_dirty = self._dirty[head_idx]
        hit = pre_tags == head
        n_hits = int(np.count_nonzero(hit))
        evict_head = (~hit) & (pre_tags != _EMPTY)
        n_tail = nb - n_head
        n_evictions = int(np.count_nonzero(evict_head)) + n_tail
        n_writebacks = int(np.count_nonzero(evict_head & pre_dirty))
        if n_tail:
            if write:
                # Every batch-local predecessor was installed (or
                # re-marked) dirty, so each tail access writes back.
                n_writebacks += n_tail
            else:
                # Only head *hits* on pre-existing dirty lines stay
                # dirty; those evicted by a tail access write back.
                head_pos = np.arange(n_head)
                n_writebacks += int(
                    np.count_nonzero(hit & pre_dirty & (head_pos + nl < nb))
                )

        # Cold/capacity/conflict classification replays the scalar
        # order: the ever-seen set grows by each cold line as the
        # batch proceeds, so a re-seen miss at position p compares the
        # cache size against seen0 + (cold lines before p).
        seen = self._seen_snapshot()
        cold = np.ones(nb, dtype=bool)
        lo = int(np.searchsorted(seen, first))
        hi = int(np.searchsorted(seen, last + 1))
        if hi > lo:
            cold[seen[lo:hi] - first] = False
        miss = np.ones(nb, dtype=bool)
        miss[:n_head] = ~hit
        n_cold = int(np.count_nonzero(cold))
        seen0 = seen.size
        seen_before = seen0 + np.cumsum(cold) - cold
        n_capacity = int(np.count_nonzero(miss & ~cold & (seen_before > nl)))
        n_misses = nb - n_hits
        n_conflict = n_misses - n_cold - n_capacity

        # Commit state: the final resident line of each touched set is
        # the *last* occurrence of its index in the batch.
        n_last = min(nb, nl)
        tail_lines = lines[nb - n_last :]
        tail_idx = tail_lines % nl
        if write:
            new_dirty = np.ones(n_last, dtype=bool)
        else:
            new_dirty = np.zeros(n_last, dtype=bool)
            # Head hits that survive to the end of the batch keep
            # their pre-existing dirty bit.
            surv = np.nonzero(hit & pre_dirty)[0]
            surv = surv[surv >= nb - n_last]
            if surv.size:
                new_dirty[surv - (nb - n_last)] = True
        self._tags[tail_idx] = tail_lines
        self._dirty[tail_idx] = new_dirty
        if n_cold:
            # The cold lines are disjoint from ``seen`` and already
            # sorted, so a stable sort of the concatenation is a
            # two-run merge — no dedup pass needed.
            merged = np.concatenate([seen, lines[cold]])
            merged.sort(kind="stable")
            self._seen_arr = merged

        self.stats.hits += n_hits
        self.stats.cold_misses += n_cold
        self.stats.conflict_misses += n_conflict
        self.stats.capacity_misses += n_capacity
        self.stats.writebacks += n_writebacks

        tel = _tm.current()
        if tel.enabled:
            c_hits, c_miss, c_evict, c_wb = (
                self._handles
                if tel is self._tel_cached
                else self._hoist_handles(tel)
            )
            if n_hits:
                c_hits.inc(n_hits)
            if n_cold:
                c_miss.inc(n_cold, **{"class": "cold"})
            if n_conflict:
                c_miss.inc(n_conflict, **{"class": "conflict"})
            if n_capacity:
                c_miss.inc(n_capacity, **{"class": "capacity"})
            if n_evictions:
                c_evict.inc(n_evictions)
            if n_writebacks:
                c_wb.inc(n_writebacks)

    def flush(self) -> int:
        """Write back all dirty lines and empty the cache.

        Returns the number of writebacks performed.
        """
        occupied = self._tags != _EMPTY
        dirty = int(np.count_nonzero(self._dirty & occupied))
        self.stats.writebacks += dirty
        self._tags.fill(_EMPTY)
        self._dirty.fill(False)
        tel = _tm.current()
        if tel.enabled:
            from repro.telemetry import names as _tn
            tel.metrics.counter(_tn.CACHE_FLUSHES_TOTAL).inc()
            if dirty:
                tel.metrics.counter(_tn.CACHE_WRITEBACKS_TOTAL).inc(dirty)
        return dirty

    def reset(self) -> None:
        """Empty the cache and zero statistics (cold state)."""
        self._tags.fill(_EMPTY)
        self._dirty.fill(False)
        self._seen_arr = np.empty(0, dtype=np.int64)
        self._seen_pending.clear()
        self.stats.reset()

    def traffic(self) -> tuple[float, float]:
        """Physical traffic implied by the access history so far.

        Returns ``(ddr_bytes, mcdram_bytes)``:

        * each miss reads one line from DDR (fill) and writes it into
          MCDRAM, plus delivers it (MCDRAM read);
        * each hit is one MCDRAM line access;
        * each writeback moves one line MCDRAM → DDR.
        """
        ls = self.line_size
        ddr = (self.stats.misses + self.stats.writebacks) * ls
        mcdram = (
            self.stats.hits + 2 * self.stats.misses + self.stats.writebacks
        ) * ls
        return float(ddr), float(mcdram)
