"""Spans around the calls one costblotto module makes into the next.

The benchmark records these from its own files: each wrapper is bound at
the name the *caller* looks up (``costblotto.cli.build_minimax_lp``, not only
``costblotto.minimax.build_minimax_lp``), so a call is seen whichever module
makes it.  Spans stay in memory; :meth:`Tracer.snapshot` folds them into
per-layer calls, inclusive time and self time, where self time is a span's
duration minus the time covered by its direct children.

Counts that the program's outputs determine (LP sizes, HiGHS iterations,
support sizes, matrix cells) are observed at the same boundaries.  They are
computed, not timed, so they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: The span the benchmark opens around each command call.
OP_SPAN = "cli.op"

#: (module, attribute, span name).  A module attribute named here is
#: replaced by a recording wrapper for the length of a traced pass.
BINDINGS = (
    ("costblotto.cli", "load_game", "config.load"),
    ("costblotto.cli", "sweep_point_game", "config.load"),
    ("costblotto.cli", "build_sunk_cost", "reduction.fold"),
    ("costblotto.minimax", "build_sunk_cost", "reduction.fold"),
    ("costblotto.strategy", "build_sunk_cost", "reduction.fold"),
    ("costblotto.cli", "build_minimax_lp", "minimax.assemble"),
    ("costblotto.minimax", "build_minimax_lp", "minimax.assemble"),
    ("costblotto.cli", "solve", "minimax.solve"),
    ("costblotto.minimax", "solve", "minimax.solve"),
    ("costblotto.cli", "equilibrium_statistic_bounds", "minimax.bounds"),
    ("costblotto.solver", "ScipyHighsBackend.solve", "solver.backend"),
    ("costblotto.solver", "linprog", "solver.highs"),
    ("costblotto.cli", "decompose_flow", "strategy.decompose"),
    ("costblotto.cli", "certify_equilibrium", "strategy.certify"),
    ("costblotto.strategy", "best_response_value", "strategy.best_response"),
    ("costblotto.cli", "build_matrix", "oracle.build_matrix"),
    ("costblotto.cli", "matrix_game_solve", "oracle.matrix_game_solve"),
)

#: Per-layer metrics: (name, unit, span, field).  ``calls``, ``ms`` and
#: ``self_ms`` come from the span's totals; ``counter`` is a computed value
#: observed on the span's results or, for the pin drift, on the outputs.
LAYER_METRICS = (
    ("solver.calls", "count", "solver.backend", "calls"),
    ("solver.highs_ms", "ms", "solver.highs", "ms"),
    ("solver.highs_iters", "count", "solver.highs", "counter"),
    ("solver.not_optimal", "count", "solver.highs", "counter"),
    # backend.solve minus the linprog call: the split-and-vstack hand-off
    ("solver.handoff_ms", "ms", "solver.backend", "self_ms"),
    ("minimax.assemble.calls", "count", "minimax.assemble", "calls"),
    ("minimax.assemble.ms", "ms", "minimax.assemble", "ms"),
    ("minimax.lp_vars", "count", "minimax.assemble", "counter"),
    ("minimax.lp_rows", "count", "minimax.assemble", "counter"),
    ("minimax.lp_nnz", "count", "minimax.assemble", "counter"),
    # solve minus the backend: flow cleanup
    ("minimax.solve.self_ms", "ms", "minimax.solve", "self_ms"),
    # bounds minus its fold, assembly and solves: pinned-program builds
    ("minimax.bounds.self_ms", "ms", "minimax.bounds", "self_ms"),
    ("minimax.pin_drift_max", "resources", "minimax.bounds", "counter"),
    ("reduction.fold.calls", "count", "reduction.fold", "calls"),
    ("reduction.fold.ms", "ms", "reduction.fold", "ms"),
    ("strategy.decompose.ms", "ms", "strategy.decompose", "ms"),
    ("strategy.support_size", "count", "strategy.decompose", "counter"),
    ("strategy.certify.self_ms", "ms", "strategy.certify", "self_ms"),
    ("strategy.best_response.ms", "ms", "strategy.best_response", "ms"),
    ("strategy.gap_max", "payoff", "strategy.certify", "counter"),
    ("oracle.build_matrix.ms", "ms", "oracle.build_matrix", "ms"),
    ("oracle.matrix_cells", "count", "oracle.build_matrix", "counter"),
    ("oracle.matrix_game_solve.ms", "ms", "oracle.matrix_game_solve", "ms"),
    ("config.load.ms", "ms", "config.load", "ms"),
    # op time no child span covers: JSON output, unmapping, marginals
    ("cli.self_ms", "ms", OP_SPAN, "self_ms"),
)

#: Traced minus untraced pass time.
OVERHEAD_METRIC = "trace.overhead_s"


def _count_highs(counter, result):
    counter["solver.highs_iters"] += int(result.nit)
    counter["solver.not_optimal"] += int(result.status != 0)


def _count_assemble(counter, model):
    counter["minimax.lp_vars"] += model.num_vars
    counter["minimax.lp_rows"] += model.num_constraints
    counter["minimax.lp_nnz"] += int(model.program.a.nnz)


def _count_support(counter, xi):
    counter["strategy.support_size"] += len(xi.support)


def _count_gaps(counter, certificate):
    _, gap_a, gap_b = certificate
    counter["strategy.gap_max"] = max(float(counter["strategy.gap_max"]),
                                      float(gap_a), float(gap_b))


def _count_cells(counter, matrix):
    counter["oracle.matrix_cells"] += (len(matrix.row_strategies)
                                       * len(matrix.col_strategies))


OBSERVERS = {
    "solver.highs": _count_highs,
    "minimax.assemble": _count_assemble,
    "strategy.decompose": _count_support,
    "strategy.certify": _count_gaps,
    "oracle.build_matrix": _count_cells,
}


class Tracer:
    """Records nested spans and computed counts while :attr:`recording`.

    Single-threaded by design: the benchmark runs one command at a time in
    one process, so a stack gives each span its parent.
    """

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counter: defaultdict[str, float] = defaultdict(int)
        self.unbound: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counter.clear()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                observe(tracer.counter, result)
            return result

        return wrapper

    def install(self) -> None:
        """Bind every wrapper in :data:`BINDINGS`; missing names are listed
        in :attr:`unbound` rather than failing the run."""
        self.unbound = []
        for module_name, attr, name in BINDINGS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.unbound.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, name))
            self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def snapshot(self, pin_drift: float) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``; plus
        the ``counter`` values, with the pass's largest pin drift."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        ms: defaultdict[str, float] = defaultdict(float)
        self_ms: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_s):
            calls[name] += 1
            ms[name] += (end - start) * 1e3
            self_ms[name] += (end - start - children) * 1e3
        counter = dict(self.counter, **{"minimax.pin_drift_max": pin_drift})
        return {"calls": dict(calls), "ms": dict(ms), "self_ms": dict(self_ms),
                "counter": counter}
