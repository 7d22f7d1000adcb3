#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes, in well under a minute.

    python3 perfbench/selftest.py

For every workload it runs the benchmark without and with the trace, and
checks that: every op passes its output check; the metrics match
``BENCHMARK.json`` by name and unit, and the end-to-end ones are positive;
the trace binds every wrapper and reaches every layer the workload should;
the computed counts repeat exactly across two runs of one seed; the LP count
per op is the number of LPs the command solves (2 for ``cmd_solve`` and
``cmd_oracle_diff``, 5 for a sweep point); and a second seed gives other
inputs of the same sizes.  It also checks that the benchmark refuses to run
with ``COSTBLOTTO_LP_BACKEND`` set, and in a directory without the sources.
Exits 1 and lists what failed, if anything did.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from spans import LAYER_METRICS, OP_SPAN

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LP_PER_OP = {"solve-pair": 2, "bounds-grid": 5, "oracle-small": 2}


def invoke(workload: str, seed: int, trace: int) -> dict:
    return run.run(["--workload", workload, "--seed", str(seed),
                    "--seconds", "0.2", "--trace", str(trace),
                    "--scale", "tiny"])


def check_workload(name: str) -> list[str]:
    problems = []
    e2e_units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{name}: {what}")

    traced = [invoke(name, 1, 1) for _ in range(2)]
    plain, other = invoke(name, 1, 0), invoke(name, 2, 1)
    from workloads import WORKLOADS  # importable once run has found the package

    for out in [plain, other, *traced]:
        result, record = out["result"], out["record"]
        expect(result["correct"] and result["failed"] == 0,
               f"failed ops {record['failures']}")
    metrics = plain["result"]["metrics"]
    expect({k: v["unit"] for k, v in metrics.items()} == e2e_units,
           f"end-to-end metrics {sorted(metrics)} differ from BENCHMARK.json")
    expect(all(v["value"] > 0 for v in metrics.values()),
           "an end-to-end metric is not positive")

    first, second = traced
    for out in traced:
        record = out["record"]
        expect(not record["missing_layers"], f"missing {record['missing_layers']}")
        expect(not record["unbound"], f"unbound {record['unbound']}")
        expect(record["counts_repeat"], "counts differ between traced passes")
        units = {k: v["unit"] for k, v in out["result"]["metrics"].items()}
        expect(units == layer_units,
               f"per-layer metrics {sorted(units)} differ from BENCHMARK.json")
    reached = set(WORKLOADS[name].layers) | {OP_SPAN}
    expected = {m for m, _, span, _ in LAYER_METRICS if span in reached}
    reported = set(first["result"]["metrics"]) | set(first["record"]["workload_metrics"])
    expect(expected <= reported, f"unreported {sorted(expected - reported)}")

    def values(out):
        return {**out["result"]["metrics"], **out["record"]["workload_metrics"]}

    counts = [{k: values(out)[k]["value"] for k in out["record"]["computed"]}
              for out in traced]
    expect(counts[0] == counts[1], "computed counts differ between two runs")
    ops = first["record"]["inputs"]["ops"]
    expect(counts[0].get("solver.calls") == LP_PER_OP[name] * len(ops),
           f"solver.calls {counts[0].get('solver.calls')} for {len(ops)} ops")

    same = [r["record"]["inputs"] for r in (plain, first, second)]
    expect(all(s == same[0] for s in same), "one seed gave different inputs")
    ops_2 = other["record"]["inputs"]["ops"]
    expect(len(ops_2) == len(ops), "another seed changed the op count")
    expect(other["record"]["inputs"]["digest"] != same[0]["digest"],
           "another seed gave the same inputs")
    return problems


def check_refusals() -> list[str]:
    problems = []
    os.environ["COSTBLOTTO_LP_BACKEND"] = "highs-ipm"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "solve-pair", "--seed", "1",
                             "--seconds", "0.2", "--scale", "tiny"])
        if code != 2:
            problems.append("ran with COSTBLOTTO_LP_BACKEND set")
    finally:
        del os.environ["COSTBLOTTO_LP_BACKEND"]
    here = Path(__file__).resolve().parent
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as bare:
        bare = Path(bare)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(here, bare / here.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{here.name}/run.py", "--workload", "solve-pair",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout:
            problems.append("ran in a directory without the sources")
    return problems


def main() -> int:
    problems = check_refusals()
    for workload in BENCH["workloads"]:
        problems += check_workload(workload["name"])
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
