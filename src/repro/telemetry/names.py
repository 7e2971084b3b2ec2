"""The authoritative catalog of metric and event names.

Every metric or event the stack emits is declared here, once, with its
kind, unit, labels, and a one-line description. The registry and event
log validate against this catalog at emission time, which gives two
guarantees the observability guide relies on:

* nothing in ``src/repro/`` can emit a name that is not in the
  catalog (a typo raises :class:`~repro.errors.ConfigError`);
* ``docs/OBSERVABILITY.md`` can enumerate the complete telemetry
  surface, and ``tests/telemetry/test_catalog_doc.py`` diffs the two.

Naming conventions (see docs/OBSERVABILITY.md for the rationale):

* dotted ``<subsystem>.<noun>[_<unit>][_total]`` names;
* counters end in ``_total``; monotonically increasing only;
* gauges carry a unit suffix (``_bytes``, ``_threads``) and may move
  in both directions; ``set_max`` implements high-water marks;
* histograms are named for the observed quantity, with the unit in
  :attr:`MetricSpec.unit`;
* label keys are singular nouns (``device``, ``resource``, ``role``,
  ``class``) with small, closed value sets.

Telemetry is reproduction infrastructure spanning all paper sections;
names group by layer, from the Section 3 engine down to the flat-mode
pipeline buffers and the result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric in the catalog."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    help: str
    labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class EventSpec:
    """Declaration of one structured event type in the catalog."""

    name: str
    help: str
    fields: tuple[str, ...] = field(default=())


# --- engine (simknl.engine) ------------------------------------------------

ENGINE_RUNS_TOTAL = "engine.runs_total"
ENGINE_PHASES_TOTAL = "engine.phases_total"
ENGINE_PHASE_SECONDS = "engine.phase_seconds"
ENGINE_FLOW_COMPLETIONS_TOTAL = "engine.flow_completions_total"
ENGINE_TRAFFIC_BYTES_TOTAL = "engine.traffic_bytes_total"

# --- hardware cache (simknl.cache) ----------------------------------------

CACHE_HITS_TOTAL = "cache.hits_total"
CACHE_MISSES_TOTAL = "cache.misses_total"
CACHE_EVICTIONS_TOTAL = "cache.evictions_total"
CACHE_WRITEBACKS_TOTAL = "cache.writebacks_total"
CACHE_FLUSHES_TOTAL = "cache.flushes_total"

# --- pipeline buffers in MCDRAM (core.buffering) ---------------------------
# Help texts are part of every ``--metrics`` snapshot, and the pinned
# telemetry digests lock those bytes: reword these four only together
# with the digests.

ALLOC_REQUESTS_TOTAL = "alloc.requests_total"
ALLOC_BYTES_TOTAL = "alloc.bytes_total"
ALLOC_FREES_TOTAL = "alloc.frees_total"
ALLOC_HIGH_WATER_BYTES = "alloc.high_water_bytes"

# --- thread pools (threads.pool) -------------------------------------------

POOL_THREADS = "pool.threads"

# --- sorting algorithms (algorithms.mlm_sort) -----------------------------

SORT_MEGACHUNKS_TOTAL = "sort.megachunks_total"

# --- experiment result store (experiments.store) ---------------------------

STORE_HITS_TOTAL = "store.hits_total"
STORE_MISSES_TOTAL = "store.misses_total"
STORE_WRITES_TOTAL = "store.writes_total"
STORE_CORRUPT_TOTAL = "store.corrupt_total"

_METRIC_SPECS = [
    MetricSpec(
        ENGINE_RUNS_TOTAL, "counter", "runs",
        "Plans executed to completion by the engine.",
    ),
    MetricSpec(
        ENGINE_PHASES_TOTAL, "counter", "phases",
        "Barrier-delimited phases executed.",
    ),
    MetricSpec(
        ENGINE_PHASE_SECONDS, "histogram", "seconds",
        "Distribution of per-phase simulated elapsed time.",
    ),
    MetricSpec(
        ENGINE_FLOW_COMPLETIONS_TOTAL, "counter", "flows",
        "Flows drained to completion.",
    ),
    MetricSpec(
        ENGINE_TRAFFIC_BYTES_TOTAL, "counter", "bytes",
        "Physical bytes moved per bandwidth resource (the per-device "
        "byte counters behind the Fig. 2-5 utilization views).",
        labels=("resource",),
    ),
    MetricSpec(
        CACHE_HITS_TOTAL, "counter", "accesses",
        "Line accesses served by the MCDRAM hardware cache.",
    ),
    MetricSpec(
        CACHE_MISSES_TOTAL, "counter", "accesses",
        "Cache misses by class (cold / conflict / capacity).",
        labels=("class",),
    ),
    MetricSpec(
        CACHE_EVICTIONS_TOTAL, "counter", "lines",
        "Lines displaced by a miss installing a different line.",
    ),
    MetricSpec(
        CACHE_WRITEBACKS_TOTAL, "counter", "lines",
        "Dirty lines written back to DDR (on eviction or flush).",
    ),
    MetricSpec(
        CACHE_FLUSHES_TOTAL, "counter", "calls",
        "Explicit whole-cache flushes.",
    ),
    MetricSpec(
        ALLOC_REQUESTS_TOTAL, "counter", "calls",
        "Pipeline buffers that passed the MCDRAM capacity check, per "
        "device.",
        labels=("device",),
    ),
    MetricSpec(
        ALLOC_BYTES_TOTAL, "counter", "bytes",
        "Bytes of pipeline buffers checked against addressable MCDRAM, "
        "per device.",
        labels=("device",),
    ),
    MetricSpec(
        ALLOC_FREES_TOTAL, "counter", "calls",
        "Pipeline buffers released once their plan is built, per "
        "device.",
        labels=("device",),
    ),
    MetricSpec(
        ALLOC_HIGH_WATER_BYTES, "gauge", "bytes",
        "Largest buffer bytes one pipeline reserved, per device.",
        labels=("device",),
    ),
    MetricSpec(
        POOL_THREADS, "gauge", "threads",
        "Hardware threads assigned per role pool (compute / copy-in / "
        "copy-out) — the §3.2 p_comp/p_in/p_out split.",
        labels=("role",),
    ),
    MetricSpec(
        SORT_MEGACHUNKS_TOTAL, "counter", "chunks",
        "Megachunks processed by MLM-sort variants.",
    ),
    MetricSpec(
        STORE_HITS_TOTAL, "counter", "lookups",
        "Result-store lookups served from disk (the sweep memo's "
        "second tier).",
    ),
    MetricSpec(
        STORE_MISSES_TOTAL, "counter", "lookups",
        "Result-store lookups that found no usable entry (absent or "
        "corrupt).",
    ),
    MetricSpec(
        STORE_WRITES_TOTAL, "counter", "entries",
        "Result entries persisted to the on-disk store.",
    ),
    MetricSpec(
        STORE_CORRUPT_TOTAL, "counter", "entries",
        "Store entries skipped as corrupt (unreadable, not UTF-8, "
        "unparseable, wrong schema, or key/function mismatch); each "
        "reads as a miss. Writes blocked at the entry path count too.",
    ),
]

#: Metric catalog: name -> spec.
METRICS: dict[str, MetricSpec] = {s.name: s for s in _METRIC_SPECS}

# --- event types -----------------------------------------------------------

EVENT_RUN_START = "run.start"
EVENT_RUN_END = "run.end"
EVENT_PHASE_START = "phase.start"
EVENT_PHASE_END = "phase.end"

_EVENT_SPECS = [
    EventSpec(
        EVENT_RUN_START, "A plan starts executing.", ("plan",),
    ),
    EventSpec(
        EVENT_RUN_END, "A plan finished.", ("plan", "seconds"),
    ),
    EventSpec(
        EVENT_PHASE_START, "A barrier-delimited phase begins.",
        ("plan", "phase", "index"),
    ),
    EventSpec(
        EVENT_PHASE_END, "A phase completed.",
        ("plan", "phase", "index", "seconds"),
    ),
]

#: Event catalog: name -> spec.
EVENTS: dict[str, EventSpec] = {s.name: s for s in _EVENT_SPECS}
