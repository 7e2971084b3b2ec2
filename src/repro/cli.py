"""Command-line entry point: run any experiment driver.

Usage::

    repro-knl table1              # or: python -m repro table1
    repro-knl figure8 --csv out.csv
    repro-knl table1 --metrics m.json --events e.perfetto.json
    repro-knl figure7 --store results/   # warm the on-disk result store
    repro-knl replay figure7 --store results/   # re-render, zero compute
    repro-knl serve --store results/ --port 7077   # sweep service
    repro-knl submit figure7 --port 7077           # job to a service
    repro-knl all

``--metrics`` / ``--events`` run the experiment inside a telemetry
session and write the snapshot/event log in the format implied by the
file extension (see ``docs/OBSERVABILITY.md``).

``--store`` backs the sweep memo with an on-disk result store so warm
results survive across processes, and ``repro-knl replay <artifact>``
re-renders a figure/table purely from such a store — zero engine
invocations, byte-identical output (see ``docs/EXPERIMENTS_STORE.md``).

``serve`` runs the long-lived sweep service (asyncio job queue over
the result store) and ``submit`` sends one job to a running instance,
rendering the returned result byte-identical to a local run (see
``docs/SERVICE.md``).

Each subcommand regenerates one paper artifact (Tables 1-3, Figures
6-8) or one extension driver.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ServiceError, StoreError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.report import render_series, render_table, to_csv
from repro.experiments.runner import replay_session
from repro.experiments.store import require_store
from repro.telemetry import telemetry_session, write_events, write_metrics

#: Artifacts whose drivers resolve entirely through the result store,
#: hence can be re-rendered by ``repro-knl replay``.
REPLAYABLE = tuple(
    name
    for name, driver in ALL_EXPERIMENTS.items()
    if getattr(driver, "supports_replay", False)
)


def build_parser() -> argparse.ArgumentParser:
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
        choices=[*ALL_EXPERIMENTS, "all", "replay", "serve", "submit"],
        help=(
            "which table/figure to regenerate, 'all' for every driver, "
            "'replay' to re-render an artifact purely from a warm "
            "result store, 'serve' to run the sweep service, or "
            "'submit' to send a job to a running service"
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "with 'replay': the artifact to re-render (one of "
            f"{', '.join(REPLAYABLE)}); with 'submit': the experiment "
            "to run on the service (any driver name)"
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
    service = parser.add_argument_group(
        "sweep service ('serve' / 'submit', see docs/SERVICE.md)"
    )
    service.add_argument(
        "--host",
        default="127.0.0.1",
        help="address to bind ('serve') or connect to ('submit')",
    )
    service.add_argument(
        "--port",
        type=int,
        default=7077,
        metavar="N",
        help=(
            "TCP port for 'serve' / 'submit'; 'serve' with 0 binds an "
            "ephemeral port and prints it on stderr"
        ),
    )
    service.add_argument(
        "--tenant",
        default="default",
        metavar="NAME",
        help="tenant identity for 'submit' (admission control quota)",
    )
    service.add_argument(
        "--queue",
        type=int,
        default=16,
        metavar="N",
        help="'serve' only: max queued jobs before submissions reject",
    )
    service.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="'submit' only: seconds to wait for the job's result",
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
                path = f"{result.experiment}-{path}"
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
    store = require_store(args.store)
    with replay_session(store):
        _emit(ALL_EXPERIMENTS[args.target](), args)


def _run_serve(args) -> None:
    """Run the sweep service until SIGTERM/SIGINT."""
    from repro.experiments.service import ServiceConfig, run_server

    if args.target is not None:
        raise ServiceError(
            f"'serve' takes no target artifact (got {args.target!r})"
        )
    config = ServiceConfig(max_queue=args.queue, store=args.store)
    run_server(host=args.host, port=args.port, config=config)


def _run_submit(args) -> None:
    """Submit one job to a running service and render its result."""
    from repro.experiments.client import ServiceClient
    from repro.experiments.service import result_from_wire

    if args.target is None:
        raise ServiceError(
            "submit needs a target experiment: one of "
            f"{', '.join(ALL_EXPERIMENTS)}"
        )
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    with ServiceClient(args.host, args.port) as client:
        response = client.submit(
            args.target,
            tenant=args.tenant,
            params=kwargs,
            timeout=args.timeout,
        )
    state = response.get("state")
    if state != "done":
        raise ServiceError(
            f"job {response.get('job_id')} finished as {state!r}: "
            f"{response.get('error', 'no detail')}"
        )
    print(
        f"repro-knl submit: job {response['job_id']} done "
        f"(served: {response.get('served', 'unknown')})",
        file=sys.stderr,
    )
    result = result_from_wire(response["result"])
    # Render exactly like a local run: byte-identical tables and CSV.
    args.experiment = result.experiment
    _emit(result, args)


def _run_all(args) -> None:
    if args.experiment == "replay":
        _run_replay(args)
        return
    if args.experiment == "serve":
        _run_serve(args)
        return
    if args.experiment == "submit":
        _run_submit(args)
        return
    if args.target is not None:
        raise StoreError(
            "a target artifact is only valid with 'replay' or 'submit' "
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
            with telemetry_session() as tel:
                _run_all(args)
            if args.metrics:
                write_metrics(args.metrics, tel)
            if args.events:
                write_events(args.events, tel)
        else:
            _run_all(args)
    except (ServiceError, StoreError) as exc:
        print(f"repro-knl: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
