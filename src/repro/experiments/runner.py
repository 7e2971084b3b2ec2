"""Shared experiment infrastructure.

:func:`sort_variant_seconds` maps the paper's algorithm labels
(GNU-flat, GNU-cache, MLM-ddr, MLM-sort, MLM-implicit) to the right
node configuration and timed plan; :class:`ExperimentResult` is the
uniform record every driver returns; :func:`sweep_map` evaluates a
sweep's independent cells in order, in-process, with two-tier
config-hash memoization (in-memory dict first, then the on-disk
:mod:`~repro.experiments.store` result store) and the cross-cell tensor
fast path;
:func:`replay_session` switches :func:`sweep_map` into pure-lookup
replay, the engine-free re-render mode behind ``repro-knl replay``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import warnings
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ConfigError, StoreMissError
from repro.algorithms.costs import DEFAULT_COST, SortCostModel
from repro.algorithms.mlm_sort import MLMSortConfig, mlm_sort_plan
from repro.algorithms.parallel_sort import gnu_sort_plan
from repro.core.modes import UsageMode
from repro.experiments.store import ResultStore, default_store, get_store
from repro.simknl.batch import PlanBatch, plan_cell
from repro.simknl.engine import RunResult
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode, boot
from repro.telemetry import names as _tn
from repro.telemetry import runtime as _tm

#: Paper algorithm labels in Table 1 order.
VARIANTS = ("GNU-flat", "GNU-cache", "MLM-ddr", "MLM-sort", "MLM-implicit")


@dataclass(frozen=True)
class SeriesSpec:
    """How a driver's rows render as an ASCII series chart.

    Drivers that make sense as charts (the figure and sweep
    experiments) attach one of these as a ``series_spec`` attribute on
    the driver function; the CLI's ``--chart`` flag picks it up.
    """

    x: str
    ys: tuple[str, ...]


@dataclass
class ExperimentResult:
    """Uniform result record for all drivers.

    Attributes
    ----------
    experiment:
        Identifier, e.g. ``"table1"``.
    title:
        Human-readable title.
    columns:
        Ordered column names of ``rows``.
    rows:
        One dict per reported row.
    notes:
        Free-form annotations (substitutions, known deviations).
    """

    experiment: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]]
    notes: list[str] = field(default_factory=list)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ConfigError(f"unknown column {name!r}")
        return [r.get(name) for r in self.rows]


#: Default ``object.__repr__`` form: ``<pkg.Cls object at 0x7f...>``.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+>")


def _canonical_repr(obj: Any) -> str:
    """``repr`` fallback for :func:`config_hash`, rejecting unstable reprs.

    An object that falls back to ``object.__repr__`` embeds its memory
    address, so the "same" configuration would hash differently in
    every process — result-store entries written by one run would
    silently never hit in the next. Raising here turns that silent
    cache miss into a loud configuration error naming the offending
    payload field.
    """
    text = repr(obj)
    if _ADDRESS_REPR.search(text):
        raise ConfigError(
            f"config_hash: field of type {type(obj).__name__!r} has an "
            f"address-bearing repr ({text!r}); its hash would differ in "
            "every process, so memoized sweep results could never be "
            "shared. Give the type a stable __repr__ (e.g. make it a "
            "dataclass) or pass primitive values instead."
        )
    return text


#: The one encoder :func:`config_hash` canonicalizes through. It is the
#: encoder ``json.dumps`` would build per call for these arguments, so
#: keys stay byte-identical and stores written earlier still hit.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, default=_canonical_repr, separators=(",", ":")
)


def config_hash(payload: Any) -> str:
    """Deterministic hash of an experiment cell's configuration.

    Canonicalizes ``payload`` through JSON (sorted keys, ``repr`` for
    non-JSON types — dataclass reprs are stable and carry every field)
    and returns a short SHA-256 hex digest. Two calls with equal
    configurations hash identically across processes and sessions,
    which is what makes :func:`sweep_map`'s memo safe to share.

    Payload objects whose repr embeds a memory address (the default
    ``object.__repr__``) are rejected with
    :class:`~repro.errors.ConfigError`: such a hash would be unique per
    process and the result store would silently never hit across runs.
    """
    canonical = _CANONICAL_ENCODER.encode(payload)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def cost_key(fn: Callable[..., Any]) -> str:
    """Stable per-cell-function identity for memo and store keys.

    :func:`sweep_map` hashes ``(cost_key(fn), cell)`` into each cell's
    ``config_hash``, and tags store entries with it, so a function's
    cached results survive across processes under the same name.
    """
    return getattr(fn, "__qualname__", None) or repr(fn)


#: Process-wide memo for :func:`sweep_map` (config hash -> result).
_SWEEP_MEMO: dict[str, Any] = {}
_SWEEP_MEMO_MAX = 65536

#: One-time flag for the memo-capacity warning (reset only by tests).
_MEMO_CAP_WARNED = False


def _memo_insert(memo: dict[str, Any], key: str, value: Any) -> bool:
    """Cache one result, visibly dropping it when the memo is full.

    The cap used to be enforced silently — a long-lived process whose
    sweeps stopped memoizing gave no signal at all. A drop now emits a
    one-time :class:`UserWarning` plus a ``sweep.memo_evicted_total``
    increment per dropped entry while a telemetry session is active.
    Returns whether the entry was cached.
    """
    global _MEMO_CAP_WARNED
    if key in memo:
        return True
    if len(memo) < _SWEEP_MEMO_MAX:
        memo[key] = value
        return True
    if not _MEMO_CAP_WARNED:
        _MEMO_CAP_WARNED = True
        warnings.warn(
            f"sweep_map memo reached its cap of {_SWEEP_MEMO_MAX} "
            "entries; new results are computed but no longer cached "
            "in memory (counted by sweep.memo_evicted_total; the "
            "on-disk result store, when configured, still caches "
            "them)",
            stacklevel=3,
        )
    tel = _tm.current()
    if tel.enabled:
        tel.metrics.counter(_tn.SWEEP_MEMO_EVICTED_TOTAL).inc()
    return False


#: The store :func:`replay_session` is replaying from (None = normal).
_REPLAY: ContextVar[ResultStore | None] = ContextVar(
    "repro_replay_store", default=None
)


@contextlib.contextmanager
def replay_session(
    store: ResultStore | str | os.PathLike,
) -> Iterator[ResultStore]:
    """Run the enclosed block in pure-replay mode.

    Inside the block every :func:`sweep_map` call resolves its cells
    from ``store`` alone — the in-memory memo is bypassed (so the
    outcome does not depend on what this process happened to compute
    earlier) and the cell function is **never invoked**. Cells absent
    from the store raise :class:`~repro.errors.StoreMissError` listing
    the missing ``config_hash`` keys. Because drivers are
    deterministic and stored floats round-trip bit-identically, a
    replayed artifact is byte-identical to a fresh run over the same
    configuration.
    """
    resolved = get_store(store)
    token = _REPLAY.set(resolved)
    try:
        yield resolved
    finally:
        _REPLAY.reset(token)


def _cell_keys(name: str, cells: Sequence[tuple]) -> list[str]:
    """Per-cell ``config_hash((name, cell))``, hashed once per unique cell.

    Sweeps legitimately repeat cells (e.g. a baseline column present in
    every row) and the hash's JSON canonicalization — which also runs
    the address-bearing-repr validation on every payload field — is the
    expensive part, so duplicates reuse the first occurrence's digest.
    Unhashable cell payloads simply skip the dedup and hash directly.
    """
    digests: dict[tuple, str] = {}
    keys: list[str] = []
    for cell in cells:
        try:
            key = digests.get(cell)
            if key is None:
                key = digests[cell] = config_hash((name, cell))
        except TypeError:
            key = config_hash((name, cell))
        keys.append(key)
    return keys


def _replay_lookup(
    store: ResultStore, name: str, cells: Sequence[tuple]
) -> list[Any]:
    """Resolve every cell from the store or fail listing the misses."""
    keys = _cell_keys(name, cells)
    results: list[Any] = [None] * len(cells)
    missing: list[str] = []
    for i, key in enumerate(keys):
        found, value = store.get(key, fn=name)
        if found:
            results[i] = value
        elif key not in missing:
            missing.append(key)
    if missing:
        shown = ", ".join(missing[:10])
        more = f", ... ({len(missing) - 10} more)" if len(missing) > 10 else ""
        raise StoreMissError(
            f"replay: store {store.root} is missing {len(missing)} of "
            f"{len(set(keys))} cells for {name} [{shown}{more}]; warm "
            "it by running the experiment once with the same --store",
            missing=tuple(missing),
        )
    return results


def sweep_map(
    fn: Callable[..., Any],
    cells: Sequence[tuple],
    memo: dict[str, Any] | None = None,
    store: ResultStore | str | os.PathLike | None = None,
) -> list[Any]:
    """Map ``fn`` over independent sweep cells, in cell order.

    Parameters
    ----------
    fn:
        A module-level cell function; called as ``fn(*cell)``.
    cells:
        The argument tuples, one per cell. Results come back in cell
        order.
    memo:
        Optional explicit memo dict (config hash -> result). Defaults
        to a process-wide cache, so re-running a sweep with overlapping
        cells (e.g. ``repro-knl all``) skips finished work.
    store:
        On-disk second memo tier: a
        :class:`~repro.experiments.store.ResultStore` or a directory
        path. ``None`` uses the process default from the
        ``REPRO_STORE`` environment variable (no store when unset).

    Cells are memoized on ``config_hash((qualname, cell))`` through a
    **two-tier lookup**: the in-memory memo first, then the on-disk
    result store; a cell missing from both is computed, returned, and
    written through to both tiers, and a memo hit the store lacks is
    backfilled to disk — so any sweep run with a store leaves that
    store replay-complete, even for cells an earlier store-less call
    already memoized. Equal configurations are therefore
    computed once — across drivers in the same process via the memo,
    and across processes and CI runs via the store. Cells that repeat
    *within* one call are deduplicated before evaluation. Pending
    cells of a :func:`~repro.simknl.batch.plan_cell` are evaluated
    together on the cross-cell tensor path
    (:func:`~repro.simknl.batch.evaluate_cells`), bit-identical to
    per-cell calls; any other function runs as serial ``fn(*cell)``
    calls. The memo is
    bounded by ``_SWEEP_MEMO_MAX`` entries; once full, new results are
    still returned but no longer cached in memory (a one-time warning
    plus ``sweep.memo_evicted_total`` make the drops visible), while
    the store keeps accepting them under its own LRU bound.

    Inside a :func:`replay_session` none of the above happens: every
    cell is resolved from the replay store alone and a missing cell
    raises :class:`~repro.errors.StoreMissError` — the cell function
    is never invoked.

    A telemetry session changes none of this: its engine metrics count
    the runs actually made, so a memo or store hit adds none.
    """
    name = cost_key(fn)
    replay = _REPLAY.get()
    if replay is not None:
        return _replay_lookup(replay, name, cells)
    tier2 = get_store(store) if store is not None else default_store()
    if memo is None:
        memo = _SWEEP_MEMO
    keys = _cell_keys(name, cells)
    results: list[Any] = [memo.get(k) for k in keys]
    # Deduplicate by key: two identical cells in one call must compute
    # once, not twice. ``pending`` maps each missing key to the first
    # cell index that needs it.
    pending: dict[str, int] = {}
    for i, k in enumerate(keys):
        if k not in memo and k not in pending:
            pending[k] = i
    if tier2 is not None:
        # Backfill: a cell this process already memoized may predate
        # the store (e.g. an earlier driver in `repro-knl all --store`
        # computed it store-less). A memo hit must still leave the
        # store replay-complete. The probe validates the entry, not
        # just its path: a corrupt or foreign-function file behind a
        # memo hit must be rewritten, or replay fails on a warm store.
        backfilled: set[str] = set()
        for k in keys:
            if k in memo and k not in backfilled:
                backfilled.add(k)
                if not tier2.probe(k, fn=name):
                    tier2.put(k, memo[k], fn=name)
    # Values for the memo's misses, by key: store hits, then computed
    # cells. ``results`` is filled from it in one pass at the end.
    resolved: dict[str, Any] = {}
    if pending and tier2 is not None:
        # Second tier: resolve what the in-memory memo lacks from the
        # on-disk store, warming the memo for the rest of the process.
        for k in list(pending):
            found, value = tier2.get(k, fn=name)
            if found:
                del pending[k]
                _memo_insert(memo, k, value)
                resolved[k] = value
    if pending:
        pending_keys = list(pending)
        indices = list(pending.values())
        build = getattr(fn, "plan_batch", None)
        if build is not None:
            # Cross-cell tensor fast path: a plan cell's builder lowers
            # every pending cell to plans, evaluated in-process with a
            # handful of NumPy ops, bit-identical to per-cell ``fn``
            # calls (:mod:`repro.simknl.batch`). Replay sweeps never
            # reach this branch — they are handled above.
            from repro.simknl.batch import evaluate_cells

            computed = evaluate_cells(build, [cells[i] for i in indices])
        else:
            computed = [fn(*cells[i]) for i in indices]
        # Warm both tiers. The memo drops (visibly) at its cap; the
        # store enforces its own LRU bound.
        for k, value in zip(pending_keys, computed):
            resolved[k] = value
            _memo_insert(memo, k, value)
            if tier2 is not None:
                tier2.put(k, value, fn=name)
    if resolved:
        for i, k in enumerate(keys):
            if k in resolved:
                results[i] = resolved[k]
    return results


#: The two node configurations the variants boot. Configs are frozen,
#: so every cell shares one object (and one booted node), and
#: plan-template keys holding it compare by identity.
_CACHE_CONFIG = KNLNodeConfig(mode=MemoryMode.CACHE)
_FLAT_CONFIG = KNLNodeConfig(mode=MemoryMode.FLAT)


def node_for_variant(variant: str) -> KNLNode:
    """The shared node booted into the BIOS mode the variant needs."""
    if variant in ("GNU-cache", "MLM-implicit"):
        return boot(_CACHE_CONFIG)
    return boot(_FLAT_CONFIG)


def paper_megachunk(n: int) -> int:
    """The megachunk sizes the paper reports using for MLM-sort:
    1.5 B elements for the 6 B runs, 1 B otherwise."""
    return 1_500_000_000 if n >= 6_000_000_000 else 1_000_000_000


def _sort_variant_plan(
    variant: str,
    n: int,
    order: str,
    cost: SortCostModel | None = None,
    megachunk: int | None = None,
    threads: int = 256,
):
    """The ``(node, plan)`` pair behind one Table-1 variant cell."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; one of {VARIANTS}")
    cost = cost or DEFAULT_COST
    node = node_for_variant(variant)
    if variant == "GNU-flat":
        plan = gnu_sort_plan(node, n, order, UsageMode.DDR, threads, cost)
    elif variant == "GNU-cache":
        plan = gnu_sort_plan(node, n, order, UsageMode.CACHE, threads, cost)
    else:
        if variant == "MLM-implicit":
            mode, mega = UsageMode.IMPLICIT, n
        elif variant == "MLM-sort":
            mode, mega = UsageMode.FLAT, megachunk or paper_megachunk(n)
        else:  # MLM-ddr
            mode, mega = UsageMode.DDR, megachunk or paper_megachunk(n)
        cfg = MLMSortConfig(
            n=n, megachunk_elements=mega, mode=mode, order=order, threads=threads
        )
        plan = mlm_sort_plan(node, cfg, cost)
    return node, plan


def sort_variant_run(
    variant: str,
    n: int,
    order: str,
    cost: SortCostModel | None = None,
    megachunk: int | None = None,
    threads: int = 256,
) -> RunResult:
    """Execute one Table-1 algorithm variant at paper scale."""
    node, plan = _sort_variant_plan(variant, n, order, cost, megachunk, threads)
    return node.run(plan)


@plan_cell
def sort_variant_seconds(
    variant: str,
    n: int,
    order: str,
    cost: SortCostModel | None = None,
    megachunk: int | None = None,
) -> PlanBatch:
    """Simulated execution time of one variant, in seconds (figure6 and
    table1 sweep this shared key space)."""
    node, plan = _sort_variant_plan(variant, n, order, cost, megachunk)
    return PlanBatch(
        resources=tuple(node.resources()),
        plans=(plan,),
        finish=lambda runs: runs[0].elapsed,
    )
