"""The names ``perfbench/`` binds or reads must exist in the package.

The benchmark wraps package functions by name and reads the backend
settings; a deletion that removes one of them would only show up as an
unbound span or a failed benchmark run, so tier-1 checks them here.
"""

import importlib.util
from pathlib import Path

from costblotto import solver

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
