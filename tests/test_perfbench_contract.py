"""The names ``perfbench/`` binds or reads must exist in the package.

The benchmark wraps package functions by name and reads the backend
settings; a deletion that removes one of them would only show up as an
unbound span or a failed benchmark run, so tier-1 checks them here.
"""

import importlib.util
from collections import defaultdict
from pathlib import Path

from costblotto import build_minimax_lp, build_sunk_cost, solver
from costblotto.cli import _sweep_point

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_exist(monkeypatch):
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert tracer.unbound == []
    finally:
        tracer.uninstall()
    # perfbench/run.py refuses to run with the variable set and records the
    # default backend's method
    monkeypatch.delenv(solver.BACKEND_ENV_VAR, raising=False)
    assert isinstance(solver.BACKEND_ENV_VAR, str)
    assert isinstance(solver.get_backend().method, str)


def test_observers_read_the_full_lp(example_game, monkeypatch):
    # the counts perfbench observes on build_minimax_lp's model and on a
    # HiGHS run are the full LP's and the run's
    observers = _load_spans().OBSERVERS
    counter = defaultdict(int)
    model = build_minimax_lp(build_sunk_cost(example_game), "A")
    observers["minimax.assemble"](counter, model)
    runs = []
    linprog = solver.linprog
    monkeypatch.setattr(solver, "linprog", lambda highs: runs.append(linprog(highs)) or runs[-1])
    backend = solver.ScipyHighsBackend()
    sol = backend.solve(model.program)
    observers["solver.highs"](counter, runs[0])
    assert model.program.base is None
    assert (counter["minimax.lp_vars"], counter["minimax.lp_rows"]) == (49, 49)
    assert counter["minimax.lp_nnz"] == model.program.a.nnz == backend._highs.getNumNz()
    assert sol.status == solver.OPTIMAL and len(runs) == 1
    assert counter["solver.highs_iters"] == sol.iterations > 0
    assert counter["solver.not_optimal"] == 0


def test_bounds_reach_the_bound_layers():
    # a bounds op folds the game, assembles its first model and solves
    # through the names perfbench binds, so their layers are measured
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        tracer.recording = True
        row = _sweep_point((2, 3, 3, 1.5))
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert row["error"] == ""
    calls = tracer.snapshot(0.0)["calls"]
    for layer in ("minimax.assemble", "minimax.solve", "reduction.fold"):
        assert calls.get(layer, 0) >= 1, layer
