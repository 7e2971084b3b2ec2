"""Command-line entry point: run any experiment driver.

Usage::

    repro-knl table1              # or: python -m repro table1
    repro-knl figure8 --csv out.csv
    repro-knl table1 --metrics m.json --events e.perfetto.json
    repro-knl figure7 --store results/   # warm the on-disk result store
    repro-knl replay figure7 --store results/   # re-render, zero compute
    repro-knl all

``--metrics`` / ``--events`` run the experiment inside a telemetry
session and write the snapshot/event log in the format implied by the
file extension (see ``docs/OBSERVABILITY.md``).

``--store`` backs the sweep memo with an on-disk result store so warm
results survive across processes, and ``repro-knl replay <artifact>``
re-renders a figure/table purely from such a store — zero engine
invocations, byte-identical output (see ``docs/EXPERIMENTS_STORE.md``).

Each subcommand regenerates one paper artifact (Tables 1-3, Figures
6-8) or one extension driver. The exporters and the result store are
imported by the branches that use them, so a plain run loads neither.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from repro.errors import StoreError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.report import render_series, render_table, to_csv
from repro.experiments.runner import replay_session
from repro.telemetry import telemetry_session

#: Artifacts whose drivers resolve entirely through the result store,
#: hence can be re-rendered by ``repro-knl replay``.
REPLAYABLE = tuple(
    name
    for name, driver in ALL_EXPERIMENTS.items()
    if getattr(driver, "supports_store", False)
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process (parsing never
    changes it)."""
    parser = argparse.ArgumentParser(
        prog="repro-knl",
        description=(
            "Reproduce the tables and figures of 'Optimizing for KNL Usage "
            "Modes When Data Doesn't Fit in MCDRAM' (ICPP 2018) on a "
            "simulated KNL node."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*ALL_EXPERIMENTS, "all", "replay"],
        help=(
            "which table/figure to regenerate, 'all' for every driver, "
            "or 'replay' to re-render an artifact purely from a warm "
            "result store"
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "with 'replay': the artifact to re-render (one of "
            f"{', '.join(REPLAYABLE)})"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        help="also write the rows as CSV to PATH (or '-' for stdout)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render figures as ASCII series charts instead of tables",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "on-disk result store backing the sweep memo: warm results "
            "survive across processes and feed 'replay'. Defaults to "
            "$REPRO_STORE when set (see docs/EXPERIMENTS_STORE.md)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "seed for drivers with stochastic injection schedules "
            "(faults); replaying a seed replays the identical "
            "schedule. Ignored by deterministic drivers"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help=(
            "collect telemetry and write the metrics snapshot to PATH "
            "(.json, .prom/.txt, or .csv by extension)"
        ),
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        help=(
            "collect telemetry and write the event log to PATH (.json, "
            "or .perfetto.json/.trace.json for Perfetto)"
        ),
    )
    return parser


def _emit(result, args) -> None:
    spec = getattr(
        ALL_EXPERIMENTS.get(result.experiment), "series_spec", None
    )
    if args.chart and spec is not None:
        print(render_series(result, spec.x, list(spec.ys)))
    else:
        print(render_table(result))
    print()
    if args.csv:
        text = to_csv(result)
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            path = args.csv
            if args.experiment == "all":
                head, tail = os.path.split(path)
                path = os.path.join(head, f"{result.experiment}-{tail}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _run_replay(args) -> None:
    """Re-render one artifact purely from the result store."""
    if args.target is None:
        raise StoreError(
            f"replay needs a target artifact: one of {', '.join(REPLAYABLE)}"
        )
    if args.target not in REPLAYABLE:
        raise StoreError(
            f"cannot replay {args.target!r}: only store-backed drivers "
            f"support replay ({', '.join(REPLAYABLE)})"
        )
    from repro.experiments.store import require_store

    store = require_store(args.store)
    with replay_session(store):
        _emit(ALL_EXPERIMENTS[args.target](), args)


def _run_all(args) -> None:
    if args.experiment == "replay":
        _run_replay(args)
        return
    if args.target is not None:
        raise StoreError(
            "a target artifact is only valid with 'replay' "
            f"(got {args.experiment} {args.target})"
        )
    names = (
        list(ALL_EXPERIMENTS) if args.experiment == "all"
        else [args.experiment]
    )
    for name in names:
        driver = ALL_EXPERIMENTS[name]
        kwargs = {}
        if args.store is not None and getattr(
            driver, "supports_store", False
        ):
            kwargs["store"] = args.store
        if args.seed is not None and getattr(
            driver, "supports_seed", False
        ):
            kwargs["seed"] = args.seed
        _emit(driver(**kwargs), args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.metrics or args.events:
            from repro.telemetry.export import write_events, write_metrics

            with telemetry_session() as tel:
                _run_all(args)
            if args.metrics:
                write_metrics(args.metrics, tel)
            if args.events:
                write_events(args.events, tel)
        else:
            _run_all(args)
    except StoreError as exc:
        print(f"repro-knl: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
