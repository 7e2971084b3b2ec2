"""On-disk experiment result store: the sweep memo's second tier.

:func:`~repro.experiments.runner.sweep_map` memoizes cell results in
memory, but that memo dies with the process — every new CI run, figure
re-render, and analysis session pays the full simulation cost again.
This module persists them on disk, keyed on
:func:`~repro.experiments.runner.config_hash`, so warm results survive
across processes bit-identically, the cache-and-replay
experiment workflow of delphyne's experiments README (SNIPPETS.md §1):
run once against a store, then re-render any artifact purely from the
cached results.

Layout (``docs/EXPERIMENTS_STORE.md`` is the user guide)::

    <root>/v1/<hh>/<config_hash>.json

* ``v1`` is the layout version; an incompatible future layout gets a
  new directory and old entries are simply never consulted.
* ``<hh>`` is the first two hex digits of the key, sharding entries so
  no directory grows unboundedly.
* Each entry file is a single JSON object carrying a per-entry
  ``schema`` stamp, the full key, the producing function's qualname,
  and the encoded result value.

Durability and safety properties:

* **Atomic writes.** Entries are written to a temp file in the shard
  directory and published with :func:`os.replace`, so a reader never
  observes a half-written entry and two processes racing to write the
  same key (deterministic cells produce identical bytes) both land a
  complete file.
* **Corruption tolerance.** A load that cannot read the entry (an
  I/O error, a directory at its path, or a file at its shard path),
  is not valid UTF-8, fails to parse, fails its schema/key/function
  checks, or fails value decoding is *skipped and reported*
  (``store.corrupt_total``, :attr:`StoreStats.corrupt`, one warning
  per store instance) — never raised. The entry is treated as a miss
  and the next write replaces it. A write blocked by a directory at
  the entry path or a file at the shard path is skipped and reported
  the same way.
* **Read-only hits.** :meth:`ResultStore.get` and
  :meth:`ResultStore.probe` share one reader: it opens the entry as a
  raw descriptor, reads it to EOF, decodes strict UTF-8 and validates
  — a few syscalls per entry, no text-mode file object, and nothing
  written back.

The store is unbounded: a full ``repro-knl all`` run writes 143 entries
(17 KB of JSON, ~1 MB on disk). Delete the directory to reclaim it.

Only JSON-representable results (floats, ints, bools, strings,
``None``, and lists/tuples/str-keyed dicts of those) are persisted;
tuples round-trip type-exactly through a tagged encoding, and floats
round-trip bit-identically through ``repr``-based JSON serialization.
A cell returning anything else is computed normally and simply never
cached on disk.

Telemetry: the ``store.*`` counters (hits/misses/writes/corrupt) are
emitted while a session is active; :attr:`ResultStore.stats` keeps the
same counts unconditionally.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import StoreError
from repro.telemetry import runtime as _tm

#: Per-entry schema stamp; bump when the entry dict shape changes.
SCHEMA_VERSION = 1
#: On-disk layout version directory; bump when the file layout changes.
LAYOUT = "v1"

#: Tag key marking a tuple in the JSON value encoding.
_TUPLE_TAG = "__tuple__"

#: ``os.read`` size when loading an entry; entries are a few hundred
#: bytes, so one read plus the EOF read is the usual cost.
_READ_SIZE = 8192

#: Per-process serial for temp-file names: the PID alone is not unique
#: enough — two *threads* writing the same key would share a temp path
#: and one ``os.replace`` would steal the other's file.
_TMP_SERIAL = itertools.count()


class _Unstorable(Exception):
    """A result value has no faithful JSON encoding (internal)."""


def _encode_value(value: Any) -> Any:
    """JSON-ready encoding of a cell result, or raise :class:`_Unstorable`.

    Floats/ints/bools/strings/``None`` pass through (JSON round-trips
    finite floats bit-identically via shortest-repr); tuples become
    ``{"__tuple__": [...]}`` so decoding is type-exact; lists and
    str-keyed dicts recurse. Everything else is unstorable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_value(v) for v in value]}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        if any(not isinstance(k, str) or k == _TUPLE_TAG for k in value):
            raise _Unstorable(value)
        return {k: _encode_value(v) for k, v in value.items()}
    raise _Unstorable(value)


def _decode_value(value: Any) -> Any:
    """Inverse of :func:`_encode_value`."""
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    if isinstance(value, dict):
        if len(value) == 1 and _TUPLE_TAG in value:
            return tuple(_decode_value(v) for v in value[_TUPLE_TAG])
        return {k: _decode_value(v) for k, v in value.items()}
    return value


@dataclass
class StoreStats:
    """Cumulative counters of one :class:`ResultStore` instance.

    Mirrors the ``store.*`` telemetry family, but counts
    unconditionally so scripts can report cache behavior without a
    telemetry session.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    unstorable: int = 0


class ResultStore:
    """A ``config_hash``-keyed, file-backed result store.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing). The same
        directory can be shared by concurrent writers — writes are
        atomic and deterministic cells produce identical entries.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.stats = StoreStats()
        #: The layout directory as a string: entry paths are joined as
        #: strings on the per-cell get/probe/put path, which ``Path``
        #: objects slow.
        self._dirname = os.fspath(self.root / LAYOUT)
        os.makedirs(self._dirname, exist_ok=True)
        self._warned_corrupt = False

    def _path(self, key: str) -> str:
        return f"{self._dirname}/{key[:2]}/{key}.json"

    def _report_corrupt(
        self, path: str, why: str, stacklevel: int = 5
    ) -> None:
        self.stats.corrupt += 1
        tel = _tm.current()
        if tel.enabled:
            from repro.telemetry import names as _tn
            tel.metrics.counter(_tn.STORE_CORRUPT_TOTAL).inc()
        if not self._warned_corrupt:
            self._warned_corrupt = True
            warnings.warn(
                f"result store {self.root}: skipping corrupt entry "
                f"{os.path.basename(path)} ({why}); further corrupt "
                "entries in this store are counted silently (see "
                "store.corrupt_total / StoreStats.corrupt)",
                stacklevel=stacklevel,
            )

    # ---- lookup ------------------------------------------------------------

    @staticmethod
    def _validate_entry(raw: str, key: str, fn: str | None) -> Any:
        """Parse and validate one entry's text, returning its value.

        The single validation behind both :meth:`get` and
        :meth:`probe` — schema stamp, key echo, producing-function
        qualname, and value decoding all have to pass, or the entry
        reads as corrupt. Raises :class:`ValueError` (or
        ``TypeError``/``KeyError`` from hostile JSON) on any mismatch.
        """
        entry = json.loads(raw)
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
        if entry.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"schema {entry.get('schema')!r} != {SCHEMA_VERSION}"
            )
        if entry.get("key") != key:
            raise ValueError(f"key {entry.get('key')!r} != {key!r}")
        if fn is not None and entry.get("fn") != fn:
            raise ValueError(f"fn {entry.get('fn')!r} != {fn!r}")
        if "value" not in entry:
            raise ValueError("no value field")
        return _decode_value(entry["value"])

    def _load(self, key: str, fn: str | None) -> tuple[bool, Any]:
        """Read and validate one entry; returns ``(found, value)``.

        The one reader behind :meth:`get` and :meth:`probe`. The entry
        is opened as a raw descriptor, read to EOF, decoded as strict
        UTF-8 and checked by :meth:`_validate_entry`. An absent entry
        reads ``(False, None)``; so does an unreadable (a directory at
        the entry path, or a file at its shard path), undecodable or
        invalid one, which is also reported corrupt.
        """
        path = self._path(key)
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return False, None
        except OSError as exc:
            self._report_corrupt(path, f"unreadable: {exc}")
            return False, None
        try:
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
            value = self._validate_entry(b"".join(chunks).decode(), key, fn)
        except OSError as exc:
            self._report_corrupt(path, f"unreadable: {exc}")
            return False, None
        except (ValueError, TypeError, KeyError) as exc:
            self._report_corrupt(path, str(exc))
            return False, None
        else:
            return True, value
        finally:
            os.close(fd)

    def get(self, key: str, fn: str | None = None) -> tuple[bool, Any]:
        """Look up one entry; returns ``(found, value)``.

        ``fn``, when given, must match the qualname recorded at write
        time — a hash collision across functions (or a store shared by
        incompatible code) reads as corruption, not as a hit.
        """
        found, value = self._load(key, fn)
        if not found:
            self._miss()
            return False, None
        self.stats.hits += 1
        tel = _tm.current()
        if tel.enabled:
            from repro.telemetry import names as _tn
            tel.metrics.counter(_tn.STORE_HITS_TOTAL).inc()
        return True, value

    def probe(self, key: str, fn: str | None = None) -> bool:
        """Whether ``key`` holds a *loadable* entry (validating probe).

        Runs the same read + schema/key/function validation as
        :meth:`get` but records no hit or miss — probing whether a
        backfill is needed must not skew the cache statistics. A
        present-but-corrupt entry returns ``False`` (and
        is counted by ``store.corrupt_total``), so callers rewrite it:
        this is what keeps a warm :func:`~repro.experiments.runner.sweep_map`
        run replay-complete even when an on-disk entry behind an
        in-memory memo hit was truncated or written by a different
        cell function.
        """
        return self._load(key, fn)[0]

    def _miss(self) -> None:
        self.stats.misses += 1
        tel = _tm.current()
        if tel.enabled:
            from repro.telemetry import names as _tn
            tel.metrics.counter(_tn.STORE_MISSES_TOTAL).inc()

    # ---- write -------------------------------------------------------------

    def put(self, key: str, value: Any, fn: str = "") -> bool:
        """Persist one entry atomically; returns False if not stored.

        The entry is serialized to a temp file in its shard directory
        and published with :func:`os.replace`, so concurrent readers
        and writers never see partial entries. A value the store
        cannot encode is not stored. Neither is an entry whose path
        holds a directory (or whose shard path holds a file): it is
        reported corrupt, under the same warn-once rule as reads.
        """
        try:
            encoded = _encode_value(value)
        except _Unstorable:
            self.stats.unstorable += 1
            return False
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "fn": fn,
            "value": encoded,
        }
        data = json.dumps(entry, separators=(",", ":")) + "\n"
        path = self._path(key)
        shard = os.path.dirname(path)
        tmp = os.path.join(
            shard, f".{key}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp"
        )
        try:
            os.makedirs(shard, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(data)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if isinstance(exc, (IsADirectoryError, FileExistsError)):
                # A directory at the entry path, or a file at its shard
                # path: the entry cannot be written, so skip it.
                self._report_corrupt(path, f"unwritable: {exc}", 4)
                return False
            raise
        self.stats.writes += 1
        tel = _tm.current()
        if tel.enabled:
            from repro.telemetry import names as _tn
            tel.metrics.counter(_tn.STORE_WRITES_TOTAL).inc()
        return True


#: Stores opened by path, one instance per resolved root.
_STORES: dict[Path, ResultStore] = {}


def get_store(root: str | os.PathLike | ResultStore) -> ResultStore:
    """The store at ``root``, cached per resolved path.

    Passing a :class:`ResultStore` returns it unchanged, so APIs can
    accept "a store or a path" uniformly.
    """
    if isinstance(root, ResultStore):
        return root
    resolved = Path(root).resolve()
    store = _STORES.get(resolved)
    if store is None:
        store = ResultStore(resolved)
        _STORES[resolved] = store
    return store


def default_store() -> ResultStore | None:
    """The process-default store from ``REPRO_STORE``, if set.

    Returns ``None`` when the environment variable is absent or empty —
    sweeps then run with the in-memory memo only.
    """
    root = os.environ.get("REPRO_STORE")
    if not root:
        return None
    return get_store(root)


def require_store(
    root: str | os.PathLike | ResultStore | None,
) -> ResultStore:
    """Resolve ``root`` or the default store, or fail loudly.

    Replay needs a store to replay *from*; this is the one place a
    missing store is an error rather than "no second tier".
    """
    if root is not None:
        return get_store(root)
    store = default_store()
    if store is None:
        raise StoreError(
            "no result store: pass --store DIR (or set REPRO_STORE) "
            "pointing at a store warmed by a previous run"
        )
    return store
