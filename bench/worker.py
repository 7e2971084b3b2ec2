"""One benchmark process: runs the ops ``run.py`` sends it and reports back.

Reads a JSON spec on stdin and prints one JSON object on stdout. Two
modes:

* ``main`` -- import ``repro.cli``, then run each op: a list of
  ``repro.cli.main(argv)`` calls timed as one unit. Every call's stdout
  is captured and reported as a sha256 digest with its error, if any.
* ``sweep`` -- one warm-up ``sweep_map`` call over the given cells, a
  bit-for-bit check of the ``check`` cells against direct
  ``sort_variant_seconds`` calls, then timed ``sweep_map(..., memo={})``
  calls until ``seconds`` have passed, each compared with the warm-up.

With ``trace`` set, the ops run under :class:`tracer.Tracer` (every
other call in ``sweep`` mode, so one process also gives the untraced
times the tracing overhead is measured against).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

from tracer import Tracer


def _call_main(main, argv: list[str]) -> list:
    buf = io.StringIO()  # no newline translation: CSV's \r\n survives
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            error = f"exit code {code}"
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    artifact = argv[1] if argv[0] == "replay" else argv[0]
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return [artifact, digest, error]


def _timed(tracer: Tracer | None, op_id: int, body):
    """Run ``body()`` as one op; returns ``(seconds, body's result)``."""
    if tracer is not None:
        tracer.op = op_id
        tracer.enter("op")
    start = time.perf_counter()
    try:
        out = body()
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
            tracer.op = None
    return seconds, out


def run_main(spec: dict, tracer: Tracer | None) -> dict:
    import repro.cli

    if tracer is not None:
        tracer.install()
    ops = []
    for i, op in enumerate(spec["ops"]):
        # main is looked up per call so the traced wrapper runs.
        seconds, results = _timed(
            tracer, spec["op_base"] + i,
            lambda: [_call_main(repro.cli.main, argv) for argv in op],
        )
        ops.append(
            {"s": seconds, "traced": tracer is not None, "results": results}
        )
    return {"ops": ops}


def run_sweep(spec: dict, tracer: Tracer | None) -> dict:
    from repro.experiments import runner
    from repro.experiments.runner import sort_variant_seconds

    def call():
        # Looked up per call so the traced wrapper, when installed, runs.
        return runner.sweep_map(sort_variant_seconds, cells, memo={})

    cells = [tuple(c) for c in spec["cells"]]
    errors = []
    reference = call()
    for i in spec["check"]:
        direct = sort_variant_seconds(*cells[i])
        if float(direct).hex() != float(reference[i]).hex():
            errors.append(
                f"cell {cells[i]}: sweep_map gave {reference[i]!r}, "
                f"direct call gave {direct!r}"
            )
    ops = []
    deadline = time.perf_counter() + spec["seconds"]
    while len(ops) < spec["min_ops"] or time.perf_counter() < deadline:
        traced = tracer is not None and len(ops) % 2 == 0
        if traced:
            tracer.install()
        seconds, result = _timed(
            tracer if traced else None, spec["op_base"] + len(ops), call
        )
        if traced:
            tracer.uninstall()
        ops.append({
            "s": seconds, "traced": traced,
            "error": None if result == reference
            else "results differ from the warm-up call",
        })
    return {"ops": ops, "check_errors": errors}


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = Tracer() if spec.get("trace") else None
    run = run_sweep if spec["mode"] == "sweep" else run_main
    out = run(spec, tracer)
    if tracer is not None:
        out["trace"] = tracer.report()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
