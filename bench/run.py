"""End-to-end benchmark of the ``repro-knl`` harness.

Usage::

    python3 bench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1                 # every workload in turn
    python3 bench/run.py --workload sweep --seed 1 --trace 1   # per layer
    python3 bench/run.py --write-expected         # regenerate digests

Every workload is a closed loop with one client: one process at a time,
started by this generator process, each op waiting for the previous
one, as a CLI user waits for each artifact. The seed changes only the
generated inputs (artifact order, sweep cells); drivers always run with
their defaults. Metric names, units and bounds live in
``BENCHMARK.json``; ``bench/README.md`` says why each workload exists.

Each artifact's stdout is checked against the sha256 in
``bench/expected.json``; sweep results are checked bit-for-bit against
direct ``sort_variant_seconds`` calls. Any mismatch, nonzero exit or
exception counts as a failed op.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from :mod:`tracer` spans) with
``--trace 1``. A layer whose wrapped target no longer exists is listed
as absent on the line before and left out of ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ARTIFACTS, REPLAYABLE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Import probes timed in set-up (after one untimed bytecode warm-up).
SETUP_PROBES = 5
#: Replay passes per fresh process in the ``store`` workload.
REPLAYS_PER_PROCESS = 20
#: Sweep inputs: seeded draws plus repeats of earlier draws.
SWEEP_DRAWS, SWEEP_REPEATS, SWEEP_CHECKS = 3000, 1000, 32
VARIANTS = ("GNU-flat", "GNU-cache", "MLM-ddr", "MLM-sort", "MLM-implicit")
MEGACHUNKS = (None, 250_000_000, 500_000_000, 1_000_000_000, 1_500_000_000)
#: Artifact whose ``-X importtime`` run gives the ``import.*`` metrics.
IMPORTTIME_ARTIFACT = "figure7"
#: Spans kept for a workload's trace file.
TRACE_EVENT_CAP = 200_000
CHILD_TIMEOUT_S = 120


def child_env() -> dict[str, str]:
    """The environment every program process runs with.

    ``REPRO_*`` variables are dropped so runs use the drivers' defaults
    (no ``REPRO_STORE``, no pool selection).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


ENV = child_env()


class BenchError(Exception):
    """The benchmark cannot produce a result; none is printed."""


def spawn(cmd: list[str], stdin: str | None = None):
    """Run one child to completion; returns ``(wall seconds, process)``.

    stdout stays bytes (CSV rows end in ``\\r\\n``, which text mode
    would rewrite); stderr is decoded.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, input=None if stdin is None else stdin.encode(),
        capture_output=True, env=ENV, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    proc.stderr = proc.stderr.decode(errors="replace")
    return seconds, proc


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_cmd(artifact: str) -> list[str]:
    return [sys.executable, "-m", "repro", artifact, "--csv", "-"]


def setup(probes: int) -> list[float]:
    """Wall times of fresh-interpreter ``import repro.cli`` probes."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    times = []
    for i in range(probes + 1):
        seconds, proc = spawn([sys.executable, "-c", "import repro.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import repro.cli failed:\n{proc.stderr}")
        if i:  # the first probe only compiles bytecode
            times.append(seconds)
    return times


class Run:
    """One workload run: its ops, failures and trace aggregates."""

    def __init__(self, args, expected: dict[str, str]) -> None:
        self.rng = random.Random(args.seed)
        self.seconds = 0.0 if args.quick else args.seconds
        self.trace = bool(args.trace)
        self.quick = args.quick
        self.expected = expected
        self.ops: list[dict] = []  # timed ops
        self.checks = 0  # untimed correctness checks attempted ...
        self.checks_failed = 0  # ... and failed (or ops lost to a crash)
        self.errors: list[str] = []
        self.agg = {"self_ns": {}, "total_ns": {}, "calls": {}, "counts": {}}
        self.absent: set[str] = set()
        self.events: list[dict] = []
        self.dropped = 0
        self.store_bytes: list[int] = []
        self.imports: dict[str, float] = {}
        self.start = time.perf_counter()

    def more(self, passes: int, minimum: int | None = None) -> bool:
        """Whether to start another pass. Traced runs need two by default:
        one traced and one untraced."""
        if minimum is None:
            minimum = 2 if self.trace else 1
        if passes < minimum:
            return True
        return time.perf_counter() - self.start < self.seconds

    def traced(self, index: int) -> bool:
        """Traced runs alternate traced and untraced ops or processes,
        so the tracing overhead is measured within the run."""
        return self.trace and index % 2 == 0

    def order(self, names) -> list[str]:
        names = list(names)
        self.rng.shuffle(names)
        return names

    def check(self, results) -> bool:
        """Compare ``[artifact, sha256, error]`` triples with expected."""
        ok = True
        for artifact, got, error in results:
            if error is None and got != self.expected.get(artifact):
                error = f"stdout sha256 {got[:12]}... is not the expected one"
            if error is not None:
                self.errors.append(f"{artifact}: {error}")
                ok = False
        return ok

    def check_untimed(self, ok: bool) -> None:
        self.checks += 1
        self.checks_failed += not ok

    def add_op(self, seconds, traced, ok) -> None:
        self.ops.append({"s": seconds, "traced": traced, "ok": ok})

    def worker(self, spec: dict):
        """Run ``worker.py`` on ``spec``; ``(wall seconds, output or None)``."""
        seconds, proc = spawn(
            [sys.executable, str(BENCH / "worker.py")],
            json.dumps({"op_base": len(self.ops), **spec}),
        )
        try:
            out = json.loads(proc.stdout) if proc.returncode == 0 else None
        except ValueError:
            out = None
        if out is None:
            self.errors.append(
                f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
            self.check_untimed(False)
        elif "trace" in out:
            self.merge_trace(out["trace"])
        return seconds, out

    def merge_trace(self, rep: dict) -> None:
        for key, table in self.agg.items():
            for name, value in rep[key].items():
                table[name] = table.get(name, 0) + value
        self.absent.update(rep["absent"])
        self.dropped += rep["dropped"]
        base = len(self.events)
        for i, (name, start, end, parent, op) in enumerate(rep["spans"]):
            if len(self.events) >= TRACE_EVENT_CAP:
                self.dropped += len(rep["spans"]) - i
                break
            self.events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": start / 1e3, "dur": (end - start) / 1e3,
                "pid": rep["pid"], "tid": 1,
                "args": {
                    "id": base + i, "op": op,
                    "parent": base + parent if parent >= 0 else None,
                },
            })

    def main_ops(self, spec: dict) -> None:
        _, out = self.worker({"mode": "main", **spec})
        for op in out["ops"] if out else ():
            ok = self.check(op["results"])
            self.add_op(op["s"], op["traced"], ok)


# ---- workloads ---------------------------------------------------------------


def cli_cold(run: Run) -> None:
    """Each op: one fresh ``python -m repro <artifact> --csv -`` process.

    A traced pass runs each artifact twice: traced, through
    ``worker.py`` (which imports the program, installs the tracer and
    calls ``main``), then untraced.
    """
    passes = 0
    while run.more(passes, minimum=1):
        for artifact in run.order(ARTIFACTS):
            if run.trace:
                seconds, out = run.worker({
                    "mode": "main", "trace": True,
                    "ops": [[[artifact, "--csv", "-"]]],
                })
                if out is not None:
                    ok = run.check(out["ops"][0]["results"])
                    run.add_op(seconds, True, ok)
            seconds, proc = spawn(cli_cmd(artifact))
            error = None if proc.returncode == 0 else (
                f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
            )
            ok = run.check([[artifact, digest(proc.stdout), error]])
            run.add_op(seconds, False, ok)
        passes += 1


def suite(run: Run) -> None:
    """Each op: all 18 artifacts through ``repro.cli.main`` in one fresh
    process, import excluded from the timing."""
    passes = 0
    while run.more(passes):
        run.main_ops({
            "trace": run.traced(passes),
            "ops": [[[a, "--csv", "-"] for a in run.order(ARTIFACTS)]],
        })
        passes += 1


def store(run: Run) -> None:
    """Each process writes the 7 replayable artifacts into a fresh store
    with ``--store`` (one op), then replays them from it 20 times (one op
    each): the write pass is the rare slow op, the rest are replays."""
    passes = 0
    tmp = OUT / f"tmp-{os.getpid()}"
    while run.more(passes):
        path = str(tmp / f"store-{passes}")
        order = run.order(REPLAYABLE)
        write = [[a, "--store", path, "--csv", "-"] for a in order]
        replay = [["replay", a, "--store", path, "--csv", "-"] for a in order]
        traced = run.traced(passes)
        run.main_ops({
            "trace": traced, "ops": [write] + [replay] * REPLAYS_PER_PROCESS,
        })
        if traced:
            run.store_bytes.append(sum(
                p.stat().st_size for p in Path(path).rglob("*") if p.is_file()
            ))
        shutil.rmtree(path, ignore_errors=True)
        passes += 1
    shutil.rmtree(tmp, ignore_errors=True)


def sweep_cells(rng: random.Random, draws: int, repeats: int) -> list:
    cells = [
        (rng.choice(VARIANTS), rng.randrange(1, 13) * 500_000_000,
         rng.choice(("random", "reverse")), None, rng.choice(MEGACHUNKS))
        for _ in range(draws)
    ]
    return cells + rng.choices(cells, k=repeats)


def sweep(run: Run) -> None:
    """Each op: one ``sweep_map(sort_variant_seconds, cells, memo={})`` call
    in a single long-lived process."""
    draws, repeats = (150, 50) if run.quick else (SWEEP_DRAWS, SWEEP_REPEATS)
    cells = sweep_cells(run.rng, draws, repeats)
    check = run.rng.sample(range(len(cells)), min(SWEEP_CHECKS, len(cells)))
    _, out = run.worker({
        "mode": "sweep", "trace": run.trace, "cells": cells, "check": check,
        "seconds": run.seconds, "min_ops": 2 if run.trace else 1,
    })
    if out is None:
        return
    run.errors.extend(out["check_errors"])
    run.check_untimed(not out["check_errors"])
    for op in out["ops"]:
        if op["error"] is not None:
            run.errors.append(op["error"])
        run.add_op(op["s"], op["traced"], op["error"] is None)


WORKLOADS = {
    "cli-cold": cli_cold,
    "suite": suite,
    "sweep": sweep,
    "store": store,
}


# ---- metrics -----------------------------------------------------------------


def import_profile(run: Run) -> None:
    """``import.*`` metrics from one ``-X importtime`` cli-cold op."""
    cmd = cli_cmd(IMPORTTIME_ARTIFACT)
    cmd[1:1] = ["-X", "importtime"]
    _, proc = spawn(cmd)
    error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    run.check_untimed(
        run.check([[IMPORTTIME_ARTIFACT, digest(proc.stdout), error]])
    )
    rows = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            self_us, cum_us, name = line[len("import time:"):].split("|")
            rows.append((int(self_us), int(cum_us), name.strip()))
    cumulative = {}
    for _, cum_us, name in rows:
        cumulative.setdefault(name, cum_us)
    run.imports = {
        "import.total_ms": sum(r[0] for r in rows) / 1e3,
        "import.numpy_ms": cumulative.get("numpy", 0) / 1e3,
        "import.networkx_ms": cumulative.get("networkx", 0) / 1e3,
        "import.repro_self_ms": sum(
            s for s, _, n in rows if n == "repro" or n.startswith("repro.")
        ) / 1e3,
        "import.modules": len(rows),
    }


def e2e_metrics(run: Run, setup_probes: list[float]) -> dict[str, float]:
    # The fastest op: ops repeat deterministic work, so the time above it
    # is mostly other tenants' load, which is what makes medians and
    # tails wander from run to run on a shared host (bench/README.md).
    return {
        "setup_s": statistics.median(setup_probes),
        "op_ms_min": min(op["s"] for op in run.ops) * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


#: Per-layer metric -> (tracer layers it needs, statistic, counters).
#: ``self_ms``: self time per traced op; ``calls``/``count``: calls of the
#: layer or a hook counter per traced op; ``ratio``: counter over counter
#: (0 when the base is 0); ``call_ms``: inclusive time per call.
LAYER_METRICS = {
    "cli.main_self_ms": (("cli.main",), "self_ms"),
    "report.render_ms": (("report.render",), "self_ms"),
    "report.csv_ms": (("report.csv",), "self_ms"),
    "runner.sweep_map_calls": (("runner.sweep_map",), "calls"),
    "runner.cells": (("runner.sweep_map",), "count", "runner.cells"),
    "runner.unique_cells":
        (("runner.sweep_map",), "count", "runner.unique_cells"),
    "runner.memo_hit_ratio": (("runner.sweep_map",), "ratio",
                              "runner.memo_hits", "runner.memo_lookups"),
    "runner.config_hash_ms": (("runner.config_hash",), "self_ms"),
    "runner.sweep_map_self_ms": (("runner.sweep_map",), "self_ms"),
    "plan.build_ms": (("plan.build",), "self_ms"),
    "plan.builds": (("plan.build",), "calls"),
    "node.init_ms": (("node.init",), "self_ms"),
    "node.inits": (("node.init",), "calls"),
    "engine.structure_ms": (("engine.structure",), "self_ms"),
    "engine.run_calls": (("engine.run",), "calls"),
    "engine.run_ms": (("engine.run",), "self_ms"),
    "batch.evaluate_self_ms": (("batch.evaluate",), "self_ms"),
    "batch.lower_ms": (("batch.lower",), "self_ms"),
    "batch.run_lowered_ms": (("batch.run_lowered",), "self_ms"),
    "batch.plans": (("batch.evaluate",), "count", "batch.plans"),
    "batch.plans_tensor":
        (("batch.run_lowered",), "count", "batch.plans_tensor"),
    "batch.tensor_ratio": (("batch.evaluate", "batch.run_lowered"), "ratio",
                           "batch.plans_tensor", "batch.plans"),
    "batch.leftover_cells":
        (("batch.evaluate",), "count", "batch.leftover_cells"),
    "model.optimizer_ms": (("model.optimizer",), "self_ms"),
    "store.get_ms": (("store.get",), "self_ms"),
    "store.gets": (("store.get",), "count", "store.gets"),
    "store.hit_ratio":
        (("store.get",), "ratio", "store.hits", "store.gets"),
    "store.put_ms": (("store.put",), "self_ms"),
    "store.puts": (("store.put",), "calls"),
    "store.probe_ms": (("store.probe",), "self_ms"),
    **{f"driver.{a}_ms": ((f"driver.{a}",), "call_ms") for a in ARTIFACTS},
}


def layer_metrics(run: Run) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values, and the names of those whose layer is
    absent (left out of the values, never reported as 0)."""
    self_ns, total_ns, calls, counts = (
        run.agg[k] for k in ("self_ns", "total_ns", "calls", "counts")
    )
    traced = [op["s"] for op in run.ops if op["traced"]]
    untraced = [op["s"] for op in run.ops if not op["traced"]]
    n = len(traced)
    values, absent = {}, []
    for name, (layers, statistic, *keys) in LAYER_METRICS.items():
        if any(layer in run.absent for layer in layers):
            absent.append(name)
            continue
        layer = layers[0]
        if statistic == "self_ms":
            values[name] = self_ns.get(layer, 0) / 1e6 / n
        elif statistic == "calls":
            values[name] = calls.get(layer, 0) / n
        elif statistic == "count":
            values[name] = counts.get(keys[0], 0) / n
        elif statistic == "ratio":
            base = counts.get(keys[1], 0)
            values[name] = counts.get(keys[0], 0) / base if base else 0.0
        else:
            made = calls.get(layer, 0)
            values[name] = total_ns.get(layer, 0) / 1e6 / made if made else 0.0
    values["store.bytes"] = (
        statistics.mean(run.store_bytes) if run.store_bytes else 0.0
    )
    values.update(run.imports)
    values["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(untraced) - 1
    ) * 100
    return values, absent


# ---- entry point -------------------------------------------------------------


def run_workload(name: str, args, expected, setup_probes: list) -> dict:
    run = Run(args, expected)
    WORKLOADS[name](run)
    kinds = {op["traced"] for op in run.ops}
    if kinds != ({True, False} if run.trace else {False}):
        raise BenchError(f"{name}: no op completed:\n" + "\n".join(run.errors))
    if run.trace:
        import_profile(run)
        metrics, absent = layer_metrics(run)
        specs = SPEC["per_layer"]
        OUT.mkdir(exist_ok=True)
        (OUT / f"{name}.trace.json").write_text(json.dumps({
            "traceEvents": run.events, "displayTimeUnit": "ms",
            "otherData": {"workload": name, "seed": args.seed,
                          "dropped_spans": run.dropped},
        }))
    else:
        metrics, absent = e2e_metrics(run, setup_probes), []
        specs = SPEC["end_to_end"]
    unknown = {m["name"] for m in specs} - set(metrics) - set(absent)
    if unknown:
        raise BenchError(f"metrics with no measurement: {sorted(unknown)}")
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "correct": not run.errors,
        "attempted": len(run.ops) + run.checks,
        "failed": sum(not op["ok"] for op in run.ops) + run.checks_failed,
        "samples": sum(not op["traced"] for op in run.ops),
        "op_s": [round(op["s"], 6) for op in run.ops if not op["traced"]],
        "setup_probe_s": [round(s, 6) for s in setup_probes],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in specs if m["name"] in metrics
        },
        "absent": absent,
        "errors": run.errors[:20],
    }


def run_each_workload(args) -> list[dict]:
    """Without ``--workload``: each workload in its own ``run.py`` process,
    so peak RSS is per workload."""
    results = []
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        out = OUT / f"all-{os.getpid()}-{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{name} failed:\n{proc.stderr}")
        results += json.loads(out.read_text())["runs"]
        out.unlink()
    return results


def write_expected() -> None:
    digests = {}
    for artifact in ARTIFACTS:
        _, proc = spawn(cli_cmd(artifact))
        if proc.returncode != 0:
            raise BenchError(f"{artifact} failed:\n{proc.stderr}")
        digests[artifact] = digest(proc.stdout)
    EXPECTED.write_text(json.dumps(
        {"command": "python -m repro <artifact> --csv -",
         "sha256": digests}, indent=2,
    ) + "\n")


def print_result(result: dict) -> None:
    name = result["workload"]
    for metric, m in result["metrics"].items():
        print(f"{name:12} {metric:28} {m['value']:14.4f} {m['unit']}")
    print(f"{name:12} attempted={result['attempted']} "
          f"failed={result['failed']} untraced samples={result['samples']}")
    for error in result["errors"]:
        print(f"{name:12} error: {error}")
    if result["absent"]:
        print(f"{name:12} absent: {', '.join(result['absent'])}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path,
                        help="also write the full result as JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="one pass per workload and a 200-cell sweep")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate bench/expected.json and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.write_expected:
            write_expected()
            return 0
        if args.workload is None:
            results = run_each_workload(args)
        else:
            expected = json.loads(EXPECTED.read_text())["sha256"]
            probes = setup(1 if args.quick else SETUP_PROBES)
            results = [run_workload(args.workload, args, expected, probes)]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_result(result)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": results, "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        }}, indent=1) + "\n")
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}/{k}": v
                for r in results for k, v in r["metrics"].items()
            },
        }
    print(json.dumps({k: summary[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
