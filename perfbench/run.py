#!/usr/bin/env python3
"""Benchmark of costblotto's user-facing commands, run in one process.

    python3 perfbench/run.py --workload solve-pair --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``solve-pair`` calls ``cmd_solve``,
``bounds-grid`` the sweep's per-point function, ``oracle-small``
``cmd_oracle_diff``.  The seed makes one *pass*, a fixed list of ops (one
command call each); the timed phase repeats whole passes for as long as
another one fits in ``--seconds``, and runs at least one.  Every op's output is
checked; an op that raises or fails its check counts as failed, and the run
goes on.  It is a closed loop with one op in flight, so no layer queues.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of a fresh interpreter importing the package and its numpy/scipy
dependencies, which every CLI invocation pays), ``wall_s`` (median over
passes of the time spent in the pass's command calls), ``op_s.p50``,
``peak_rss_mb`` and ``ops_ok`` (share of attempted ops that succeeded).

``--trace 1`` alternates untraced and traced passes.  Traced passes wrap the
calls between modules (``spans.py``) and report per-layer times (median
over traced passes), computed counts (which must repeat exactly, and are
listed as computed), and ``trace.overhead_s``, the traced minus the
untraced pass time.  Metrics of layers that every workload reaches go to
the result; those of layers only this workload reaches (the oracle, path
decomposition and certificate, the pinned bounds programs) go to the
record's ``workload_metrics``.  A layer the workload should reach but that
recorded no call is named under ``missing_layers`` and left out.

The line before the result is a JSON record of the inputs (seed and a
digest of every generated config) and the environment.  The last line is
``{"correct", "attempted", "failed", "metrics"}``.  The package is imported
from ``src/`` of the checkout holding this file; without it, or with
``COSTBLOTTO_LP_BACKEND`` set, the run exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYER_METRICS, OP_SPAN, OVERHEAD_METRIC, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_CODE = "import costblotto.cli"  # imports numpy and scipy too


class HarnessError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def import_package():
    """Import costblotto from this checkout's ``src/`` and no other place."""
    package = SRC / "costblotto"
    if not (package / "__init__.py").is_file():
        raise HarnessError(f"no costblotto sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import costblotto
    from costblotto import solver

    if Path(costblotto.__file__).resolve().parent != package.resolve():
        raise HarnessError(f"costblotto was imported from {costblotto.__file__}")
    if solver.BACKEND_ENV_VAR in os.environ:
        raise HarnessError(
            f"{solver.BACKEND_ENV_VAR} is set; unset it so that the default "
            f"LP method is the one measured")
    return solver


def measure_setup() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs passes over one workload's ops and keeps what they measured."""

    def __init__(self, workload, ops, work: Path):
        self.workload = workload
        self.ops = ops
        self.work = work
        self.op_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, list[dict]]:
        """One pass; returns its time in command calls and the checks' readings."""
        spent = 0.0
        readings = []
        for i, op in enumerate(self.ops):
            out = self.work / "out" / f"{i:03d}"
            self.attempted += 1
            try:
                if tracer is not None:
                    tracer.recording = True
                    span = tracer.open(OP_SPAN)
                t0 = time.perf_counter()
                try:
                    output = self.workload.run(op, out)
                finally:
                    elapsed = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.close(span)
                        tracer.recording = False
                    spent += elapsed
                    self.op_times.append(elapsed)
                readings.append(self.workload.check(op, output, out))
            except Exception as exc:  # a failed op is counted, not fatal
                self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return spent, readings


def repeat(run_once, seconds: float) -> None:
    """Call ``run_once`` (which returns its duration) while another call is
    expected to end within ``seconds``; always call it once."""
    durations = []
    t_start = time.perf_counter()
    while True:
        durations.append(run_once())
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(durations) > seconds:
            return


def end_to_end(runner: Runner, seconds: float) -> dict:
    walls = []

    def one_pass():
        walls.append(runner.run_pass()[0])
        return walls[-1]

    repeat(one_pass, seconds)
    setup_s = measure_setup()
    return {
        "passes": len(walls),
        "metrics": {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_s.p50": (statistics.median(runner.op_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "ops_ok": (1 - len(runner.failures) / runner.attempted, "share"),
        },
    }


def per_layer(runner: Runner, seconds: float, common: set[str]) -> dict:
    """Traced metrics.  Those of layers every workload reaches (``common``)
    go to the result; those of layers only some workloads reach go to the
    record, so that no layer a workload never calls reads 0 ms there."""
    tracer = Tracer()
    plain, traced, snapshots = [], [], []

    def pair_of_passes():
        plain.append(runner.run_pass()[0])
        tracer.reset()
        tracer.install()
        try:
            wall, readings = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        drift = [r["pin_drift"] for r in readings if "pin_drift" in r]
        snapshots.append(tracer.snapshot(max(drift, default=0.0)))
        return plain[-1] + wall

    repeat(pair_of_passes, seconds)

    reached = set(runner.workload.layers) | {OP_SPAN}
    metrics, workload_metrics, missing, computed = {}, {}, [], []
    for name, unit, span, field in LAYER_METRICS:
        if span not in reached:
            continue
        if snapshots[0]["calls"].get(span, 0) == 0:
            missing.append(f"{name} ({span})")
            continue
        if field in ("calls", "counter"):
            value = snapshots[0][field].get(span if field == "calls" else name, 0)
            computed.append(name)
        else:
            value = statistics.median(s[field].get(span, 0.0) for s in snapshots)
        (metrics if span in common else workload_metrics)[name] = (value, unit)
    metrics[OVERHEAD_METRIC] = (statistics.median(traced) - statistics.median(plain), "s")
    counts = [(s["calls"], s["counter"]) for s in snapshots]
    return {
        "passes": len(traced),
        "metrics": metrics,
        "workload_metrics": {name: {"value": value, "unit": unit}
                             for name, (value, unit) in workload_metrics.items()},
        "computed": computed,
        "counts_repeat": all(c == counts[0] for c in counts),
        "missing_layers": missing,
        "unbound": tracer.unbound,
    }


def environment(solver) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "lp_method": getattr(solver.get_backend(), "method", None),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes, for the harness self-test")
    return p.parse_args(argv)


def run(argv=None) -> dict:
    """Run one benchmark invocation; return its record and result."""
    solver = import_package()
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload](args.scale)
    env = environment(solver)
    env["loadavg_before"] = os.getloadavg()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        work = Path(work)
        ops = workload.ops(random.Random(args.seed), work)
        runner = Runner(workload, ops, work)
        if args.trace:
            common = set.intersection(*(set(w.layers) for w in WORKLOADS.values()))
            outcome = per_layer(runner, args.seconds, common | {OP_SPAN})
        else:
            outcome = end_to_end(runner, args.seconds)
    env["loadavg_after"] = os.getloadavg()
    digests = [op.digest for op in ops]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "inputs": {
            "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "ops": [{"label": op.label, "digest": d} for op, d in zip(ops, digests)],
        },
        "environment": env,
        "ops_timed": len(runner.op_times),
        "failures": runner.failures[:20],
        **{k: v for k, v in outcome.items() if k != "metrics"},
    }
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }
    return {"record": record, "result": result}


def main(argv=None) -> int:
    try:
        out = run(argv)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"perfbench": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
