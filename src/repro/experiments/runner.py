"""Shared experiment infrastructure.

:func:`sort_variant_seconds` maps the paper's algorithm labels
(GNU-flat, GNU-cache, MLM-ddr, MLM-sort, MLM-implicit) to the right
node configuration and timed plan; :class:`ExperimentResult` is the
uniform record every driver returns; :func:`sweep_map` evaluates a
sweep's independent cells in order, in-process, with two-tier
memoization (an in-memory dict keyed on each cell's exact form first,
then the on-disk :mod:`~repro.experiments.store` result store keyed on
its config hash) and the cross-cell batched fast path;
:func:`replay_session` switches :func:`sweep_map` into pure-lookup
replay, the engine-free re-render mode behind ``repro-knl replay``.

Drivers reach the engine only through :func:`sweep_map` over
:func:`~repro.simknl.batch.plan_group` cells, so a cell that another
driver already ran in the process comes from the memo.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
from contextvars import ContextVar
from dataclasses import dataclass, field
from marshal import dumps as _marshal
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.errors import ConfigError, StoreMissError
from repro.algorithms.costs import DEFAULT_COST, SortCostModel
from repro.algorithms.mlm_sort import mlm_sort_planner
from repro.algorithms.parallel_sort import gnu_sort_planner
from repro.core.modes import UsageMode
from repro.simknl.batch import PlanBatch, plan_group
from repro.simknl.engine import Plan
from repro.simknl.node import KNLNode, KNLNodeConfig, MemoryMode, boot
from repro.telemetry import runtime as _tm

if TYPE_CHECKING:
    from repro.experiments.store import ResultStore

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


@functools.cache
def _hasher() -> tuple[Callable[[Any], str], Callable[[bytes], Any]]:
    """:func:`config_hash`'s encoder and digest, built on first use (a
    plain run hashes nothing). The encoder is the one ``json.dumps``
    would build per call, so keys stay byte-identical."""
    import hashlib
    import json

    encoder = json.JSONEncoder(
        sort_keys=True, default=_canonical_repr, separators=(",", ":")
    )
    return encoder.encode, hashlib.sha256


def config_hash(payload: Any) -> str:
    """Deterministic hash of an experiment cell's configuration.

    Canonicalizes ``payload`` through JSON (sorted keys, ``repr`` for
    non-JSON types — dataclass reprs are stable and carry every field)
    and returns a short SHA-256 hex digest. Two calls with equal
    configurations hash identically across processes and sessions,
    which is what makes it the result store's key.

    Payload objects whose repr embeds a memory address (the default
    ``object.__repr__``) are rejected with
    :class:`~repro.errors.ConfigError`: such a hash would be unique per
    process and the result store would silently never hit across runs.
    """
    encode, sha256 = _hasher()
    return sha256(encode(payload).encode()).hexdigest()[:16]


def cost_key(fn: Callable[..., Any]) -> str:
    """Stable per-cell-function identity for memo and store keys.

    :func:`sweep_map` keys each cell's memo entry on it, hashes
    ``(cost_key(fn), cell)`` into the cell's store key, and tags store
    entries with it, so a function's cached results survive across
    processes under the same name.
    """
    return getattr(fn, "__qualname__", None) or repr(fn)


#: Process-wide memo for :func:`sweep_map` (memo key -> result; see
#: :func:`_dedup`).
_SWEEP_MEMO: dict[tuple, Any] = {}

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
    from repro.experiments.store import get_store

    resolved = get_store(store)
    token = _REPLAY.set(resolved)
    try:
        yield resolved
    finally:
        _REPLAY.reset(token)


def _dedup(
    name: str, cells: Sequence[tuple]
) -> tuple[list[int], dict[bytes | str, int]]:
    """Each cell's first-occurrence index, and each distinct cell's
    exact form mapped to that index, in first-occurrence order. A
    cell's memo key is ``(name, exact form)``.

    Sweeps legitimately repeat cells (e.g. a baseline column present in
    every row); duplicates compute once. They are found on a type-exact
    form of the cell, not on tuple equality: ``(1,)``, ``(1.0,)`` and
    ``(True,)`` are equal tuples but different configurations, with
    different results. The form is the cell's ``marshal`` bytes, which
    encode each value with its exact type (and ``-0.0`` apart from
    ``0.0``) at C speed; a cell holding a type marshal refuses (a
    dataclass, an enum) uses its ``repr``. A repr embedding a memory
    address would differ per object, so :func:`config_hash` rejects it
    as it rejects such a field.
    """
    firsts: dict[bytes | str, int] = {}
    slots: list[int] = []
    # Bound once: the loop body runs per cell, duplicates included.
    first, append = firsts.setdefault, slots.append
    for cell in cells:
        try:
            exact: bytes | str = _marshal(cell, 2)
        except ValueError:
            exact = repr(cell)
            if _ADDRESS_REPR.search(exact):
                config_hash((name, cell))
        append(first(exact, len(slots)))
    return slots, firsts


def _cell_keys(
    name: str, cells: Sequence[tuple]
) -> tuple[list[str], dict[int, str]]:
    """Per-cell ``config_hash((name, cell))`` (the store's keys, which
    only a store or a replay needs), hashed once per distinct cell;
    also returns the digest by first-occurrence index."""
    slots, firsts = _dedup(name, cells)
    digests = {i: config_hash((name, cells[i])) for i in firsts.values()}
    return [digests[i] for i in slots], digests


def _replay_lookup(
    store: ResultStore, name: str, cells: Sequence[tuple]
) -> list[Any]:
    """Resolve every cell from the store or fail listing the misses."""
    keys, _ = _cell_keys(name, cells)
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
    memo: dict[tuple, Any] | None = None,
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
        Optional explicit memo dict (memo key -> result). Defaults to
        a process-wide cache, so re-running a sweep with overlapping
        cells (e.g. ``repro-knl all``) skips finished work.
    store:
        On-disk second memo tier: a
        :class:`~repro.experiments.store.ResultStore` or a directory
        path. ``None`` uses the process default from the
        ``REPRO_STORE`` environment variable (no store when unset).

    Cells are memoized through a **two-tier lookup**: the in-memory
    memo first, keyed on the cell's exact form (:func:`_dedup`),
    then the on-disk result store, keyed on
    ``config_hash((qualname, cell))``, which is computed only when a
    store is set. A cell missing from both is computed, returned, and
    written through to both tiers, and a memo hit the store lacks is
    backfilled to disk — so any sweep run with a store leaves that
    store replay-complete, even for cells an earlier store-less call
    already memoized. Equal configurations are therefore
    computed once — across drivers in the same process via the memo,
    and across processes and CI runs via the store. Cells that repeat
    *within* one call are deduplicated before evaluation. Pending
    cells of a :func:`~repro.simknl.batch.plan_group` cell are built
    and evaluated together on the cross-cell fast path
    (:func:`~repro.simknl.batch.evaluate_cells`), bit-identical to
    per-cell calls; any other function runs as serial ``fn(*cell)``
    calls. Neither tier is bounded: ``repro-knl all`` leaves 183
    entries in the memo and 143 in the store.

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
    if store is None:  # ``default_store()``, without importing the store
        store = os.environ.get("REPRO_STORE") or None
    tier2 = None
    if store is not None:
        from repro.experiments.store import get_store

        tier2 = get_store(store)
    if memo is None:
        memo = _SWEEP_MEMO
    slots, firsts = _dedup(name, cells)
    # Values by first cell index: memo hits now, then store hits and
    # computed cells. ``pending`` maps each missing cell's first index
    # to its memo key, so two identical cells in one call compute once.
    values: dict[int, Any] = {}
    pending: dict[int, tuple] = {}
    for exact, i in firsts.items():
        key = (name, exact)
        if key in memo:
            values[i] = memo[key]
        else:
            pending[i] = key
    if tier2 is not None:
        digests = {i: config_hash((name, cells[i])) for i in firsts.values()}
        # Backfill: a cell this process already memoized may predate
        # the store (e.g. an earlier driver in `repro-knl all --store`
        # computed it store-less). A memo hit must still leave the
        # store replay-complete. The probe validates the entry, not
        # just its path: a corrupt or foreign-function file behind a
        # memo hit must be rewritten, or replay fails on a warm store.
        for i, value in values.items():
            if not tier2.probe(digests[i], fn=name):
                tier2.put(digests[i], value, fn=name)
        # Second tier: resolve what the in-memory memo lacks from the
        # on-disk store, warming the memo for the rest of the process.
        for i in list(pending):
            found, value = tier2.get(digests[i], fn=name)
            if found:
                memo[pending.pop(i)] = values[i] = value
    if pending:
        indices = list(pending)
        build = getattr(fn, "plan_batch", None)
        if build is not None:
            # Cross-cell fast path: one call of a plan cell's builder
            # lowers every pending cell to plans, evaluated per plan
            # template as one batch, bit-identical to per-cell ``fn``
            # calls (:mod:`repro.simknl.batch`). Replay sweeps never
            # reach this branch — they are handled above.
            from repro.simknl.batch import evaluate_cells

            computed = evaluate_cells(build, [cells[i] for i in indices])
        else:
            computed = [fn(*cells[i]) for i in indices]
        # Warm both tiers.
        for i, value in zip(indices, computed):
            values[i] = memo[pending[i]] = value
            if tier2 is not None:
                tier2.put(digests[i], value, fn=name)
    return [values[i] for i in slots]


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


def _variant_planner(
    variant: str, order: str, cost: SortCostModel | None, threads: int = 256
) -> tuple[KNLNode, Callable[..., Plan], Callable[[int, int | None], tuple]]:
    """The node, the plan builder and the plan's inputs behind one
    Table-1 variant, input order and cost model: a cell ``(n,
    megachunk)`` plans as ``plan(*inputs(n, megachunk))``.

    The inputs are only what the plan reads. GNU-flat, GNU-cache and
    MLM-implicit ignore the megachunk; MLM-sort and MLM-ddr read the
    effective one: ``paper_megachunk(n)`` when it is None, and ``n``
    when it exceeds ``n`` (the planner chunks by ``min(megachunk, n)``).
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; one of {VARIANTS}")
    cost = cost or DEFAULT_COST
    node = node_for_variant(variant)
    if variant in ("GNU-flat", "GNU-cache"):
        mode = UsageMode.DDR if variant == "GNU-flat" else UsageMode.CACHE
        gnu = gnu_sort_planner(node, order, mode, threads, cost)
        return node, gnu, lambda n, megachunk: (n,)
    if variant == "MLM-implicit":
        mlm = mlm_sort_planner(node, UsageMode.IMPLICIT, order, threads, cost)
        return node, mlm, lambda n, megachunk: (n, n)
    mode = UsageMode.FLAT if variant == "MLM-sort" else UsageMode.DDR
    mlm = mlm_sort_planner(node, mode, order, threads, cost)

    def inputs(n: int, megachunk: int | None) -> tuple:
        if megachunk is None:
            megachunk = paper_megachunk(n)
        return n, min(megachunk, n)

    return node, mlm, inputs


def _sort_variant_plan(
    variant: str,
    n: int,
    order: str,
    cost: SortCostModel | None = None,
    megachunk: int | None = None,
    threads: int = 256,
) -> tuple[KNLNode, Plan]:
    """The ``(node, plan)`` pair behind one Table-1 variant cell."""
    node, plan, inputs = _variant_planner(variant, order, cost, threads)
    return node, plan(*inputs(n, megachunk))


def _variant_cell(
    variant: str,
    n: int,
    order: str,
    cost: SortCostModel | None = None,
    megachunk: int | None = None,
) -> tuple:
    """A sort-variant cell's arguments, defaults filled in."""
    return variant, n, order, cost, megachunk


@plan_group
def sort_variant_seconds(cells: Sequence[tuple]) -> list[PlanBatch]:
    """Simulated execution time of one variant, in seconds (figure6 and
    table1 sweep this shared key space), per cell ``(variant, n,
    order, cost=None, megachunk=None)``. Cells of one variant, order
    and cost model (by identity, not hashed) share a planner.

    Cells that denote one plan share one :class:`PlanBatch` object:
    those of one planner whose inputs (:func:`_variant_planner`) are
    equal in their exact ``marshal`` form, as :func:`_dedup` compares
    cells, so ``1e9`` never shares with ``1_000_000_000``. Only a
    plan that built is shared, so a cell that raises alone raises here
    too. Under an enabled telemetry session a sharing cell still calls
    its planner, so what the planner records per plan
    (``sort.megachunks_total``) is recorded per cell. Nothing is shared
    beyond one call.
    """
    planners: dict[tuple, tuple] = {}
    tel = _tm.current()
    batches = []
    for cell in cells:
        variant, n, order, cost, megachunk = _variant_cell(*cell)
        key = (variant, order, id(cost))
        planner = planners.get(key)
        if planner is None:
            node, plan, inputs = _variant_planner(variant, order, cost)
            planner = planners[key] = (node.resources(), plan, inputs, {})
        resources, plan, inputs, shared = planner
        args = inputs(n, megachunk)
        try:
            exact: bytes | None = _marshal(args, 2)
        except ValueError:  # a type marshal refuses: built alone
            exact = None
        batch = shared.get(exact)
        if batch is None:
            plans = (plan(*args),)
            batch = PlanBatch(resources, plans, lambda r: r[0].elapsed)
            if exact is not None:
                shared[exact] = batch
        elif tel.enabled:
            # A planner records each plan it builds (the MLM planner's
            # sort.megachunks_total); this cell's record is its own.
            plan(*args)
        batches.append(batch)
    return batches
