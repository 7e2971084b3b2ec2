"""Span tracer the benchmark wraps around the program's layer boundaries.

Nothing under ``src/`` is instrumented: :meth:`Tracer.install` replaces
each target function with a timing wrapper from outside. A function
target is rebound wherever a ``repro.*`` module holds it -- as a module
attribute (which also catches ``from x import f`` aliases such as
``repro.cli.render_table``) or as a value of a module-level dict (the
driver registries); a method target is replaced on its class.

Each span records name, start, end, parent span and op id. Spans stay in
memory (up to :data:`SPAN_CAP`; aggregates keep counting past it) and
are written out when the benchmark ends. A layer's self time is its
span's duration minus the part its child spans cover.

A target that no longer exists (a refactor deleted or renamed it) makes
its layer *absent*: its metrics are reported as absent, never as 0, and
the traced program runs on unaffected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

#: Spans kept for the trace file per process; aggregates are unbounded.
SPAN_CAP = 50_000

#: The 18 artifacts the benchmark runs: every driver except ``chaos``,
#: which forks pool workers and is slated for deletion.
ARTIFACTS = (
    "table1", "figure6", "figure7", "table2", "table3", "figure8",
    "bender", "nvm", "designspace", "hybrid", "ablation", "oblivious",
    "energy", "external", "pollution", "adaptive", "faults", "pareto",
)

#: Artifacts whose drivers support ``--store`` and ``replay``.
REPLAYABLE = (
    "table1", "figure6", "figure7", "table2", "table3", "figure8", "pareto",
)


def _distinct(cells) -> int:
    try:
        return len(set(cells))
    except TypeError:
        return len(cells)


@functools.lru_cache(maxsize=None)
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bind(fn, args, kwargs) -> dict:
    return _signature(fn).bind(*args, **kwargs).arguments


def _sweep_map_pre(tr, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    cells = bound["cells"]
    runner = sys.modules["repro.experiments.runner"]
    memo = bound.get("memo")
    if memo is None:
        memo = runner._SWEEP_MEMO
    replaying = runner._REPLAY.get() is not None
    unique = _distinct(cells)
    tr.count("runner.cells", len(cells))
    tr.count("runner.unique_cells", unique)
    # A replay bypasses the memo; every other call resolves each unique
    # cell from it or inserts it, so the size delta counts the misses.
    return None if replaying else (memo, len(memo), unique)


def _sweep_map_post(tr, state, result):
    if state is not None:
        memo, before, unique = state
        tr.count("runner.memo_lookups", unique)
        tr.count("runner.memo_hits", unique - (len(memo) - before))


def _run_batch_pre(tr, fn, args, kwargs):
    tr.count("batch.plans", len(_bind(fn, args, kwargs)["plans"]))


def _run_lowered_post(tr, state, result):
    if result is not None:
        tr.count("batch.plans_tensor", len(result))


def _evaluate_post(tr, state, result):
    tr.count("batch.leftover_cells", len(result[1]))


def _store_get_post(tr, state, result):
    tr.count("store.gets")
    tr.count("store.hits", int(bool(result[0])))


#: (layer, "module:qualname", pre hook, post hook). A layer may have
#: several targets; it is absent only when all of them are. Hooks count
#: work at the boundary; a hook that fails marks its layer broken
#: (reported absent) and never disturbs the call it observes.
TARGETS = (
    ("cli.main", "repro.cli:main", None, None),
    ("report.render", "repro.experiments.report:render_table", None, None),
    ("report.render", "repro.experiments.report:render_series", None, None),
    ("report.csv", "repro.experiments.report:to_csv", None, None),
    ("runner.sweep_map", "repro.experiments.runner:sweep_map",
     _sweep_map_pre, _sweep_map_post),
    ("runner.config_hash", "repro.experiments.runner:config_hash",
     None, None),
    ("plan.build", "repro.core.buffering:BufferedPipeline.build_plan",
     None, None),
    ("plan.build", "repro.algorithms.mlm_sort:mlm_sort_plan", None, None),
    ("plan.build", "repro.algorithms.parallel_sort:gnu_sort_plan",
     None, None),
    ("node.init", "repro.simknl.node:KNLNode.__init__", None, None),
    ("engine.structure", "repro.simknl.engine:Plan.structure", None, None),
    ("engine.run", "repro.simknl.engine:Engine.run", None, None),
    ("batch.evaluate", "repro.simknl.batch:evaluate_plan_batch",
     None, _evaluate_post),
    ("batch.evaluate", "repro.simknl.batch:run_batch",
     _run_batch_pre, None),
    ("batch.lower", "repro.simknl.batch:lower_plans", None, None),
    ("batch.run_lowered", "repro.simknl.batch:run_lowered",
     None, _run_lowered_post),
    ("model.optimizer", "repro.model.optimizer:optimal_copy_threads",
     None, None),
    ("model.optimizer", "repro.model.optimizer:sweep_copy_threads",
     None, None),
    ("model.optimizer", "repro.model.optimizer:predict_sweep", None, None),
    ("store.get", "repro.experiments.store:ResultStore.get",
     None, _store_get_post),
    ("store.put", "repro.experiments.store:ResultStore.put", None, None),
    ("store.probe", "repro.experiments.store:ResultStore.probe", None, None),
) + tuple(
    (f"driver.{a}", f"repro.experiments:ALL_EXPERIMENTS[{a}]", None, None)
    for a in ARTIFACTS
)


def _resolve(spec: str):
    """``(original, owner-or-None)`` for a target spec, or ``None``.

    ``owner`` is the class for a method target; function targets are
    rebound by identity across modules instead.
    """
    module_name, _, path = spec.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = None
    if "[" in path:
        attr, _, key = path.rstrip("]").partition("[")
        registry = getattr(obj, attr, None)
        obj = registry.get(key) if isinstance(registry, dict) else None
    else:
        for part in path.split("."):
            owner, obj = obj, getattr(obj, part, None)
            if obj is None:
                return None
        if not inspect.isclass(owner):
            owner = None
    if not inspect.isfunction(obj):
        return None
    return obj, owner


class Tracer:
    """In-memory spans plus per-layer aggregates for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.dropped = 0
        self.op: int | None = None
        self.present: set[str] = set()
        self.broken: set[str] = set()
        self._stack: list[list] = []  # [span index, start_ns, child_ns, name]
        self._patches: list[tuple] = []  # (container, key, original, wrapper)

    # ---- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        index = len(self.spans)
        if index < SPAN_CAP:
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append([name, 0, 0, parent, self.op])
        else:
            index = -1
            self.dropped += 1
        self._stack.append([index, time.perf_counter_ns(), 0, name])

    def exit(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        end = time.perf_counter_ns()
        index, start, child_ns, name = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end
        return duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # ---- installation ------------------------------------------------------

    def _wrap(self, layer, original, pre, post):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.enter(layer)
            try:
                state = None
                if pre is not None and layer not in tracer.broken:
                    try:
                        state = pre(tracer, original, args, kwargs)
                    except Exception:
                        tracer.broken.add(layer)
                result = original(*args, **kwargs)
                if post is not None and layer not in tracer.broken:
                    try:
                        post(tracer, state, result)
                    except Exception:
                        tracer.broken.add(layer)
                return result
            finally:
                tracer.exit()

        return wrapper

    def _locate(self) -> list[tuple]:
        by_id: dict[int, tuple] = {}
        patches: list[tuple] = []
        for layer, spec, pre, post in TARGETS:
            found = _resolve(spec)
            if found is None:
                continue
            original, owner = found
            self.present.add(layer)
            wrapper = self._wrap(layer, original, pre, post)
            if owner is not None:
                patches.append((owner, original.__name__, original, wrapper))
            else:
                by_id[id(original)] = (original, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in by_id:
                    patches.append((module, key, *by_id[id(value)]))
                elif type(value) is dict:
                    patches.extend(
                        (value, k, *by_id[id(v)])
                        for k, v in value.items() if id(v) in by_id
                    )
        return patches

    def install(self) -> None:
        """Wrap every target that exists; idempotent across re-installs."""
        if not self._patches:
            self._patches = self._locate()
        for container, key, _, wrapper in self._patches:
            _set(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, original, _ in self._patches:
            _set(container, key, original)

    def absent_layers(self) -> list[str]:
        layers = {layer for layer, *_ in TARGETS}
        return sorted((layers - self.present) | self.broken)

    def report(self) -> dict:
        return {
            "pid": os.getpid(),
            "self_ns": dict(self.self_ns),
            "total_ns": dict(self.total_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "absent": self.absent_layers(),
            "spans": self.spans,
            "dropped": self.dropped,
        }


def _set(container, key, value) -> None:
    if type(container) is dict:
        container[key] = value
    else:
        setattr(container, key, value)
