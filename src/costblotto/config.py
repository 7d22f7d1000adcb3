"""JSON configuration for games and parameter sweeps.

A game config names both players' budgets, per-battlefield valuations and
assignment costs, and each player's obtainment cost.  Cost specs are
``{"kind": "none" | "linear" | "quadratic" | "table", ...}`` and valuation
specs ``{"kind": "sign" | "table", ...}``; a single spec may stand in for a
per-battlefield list when every battlefield is the same.  Sweep specs give
inclusive ``min``/``max``/``interval`` grids in the style of the experiment
harness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .game import CostBlottoGame, CostFunction, Valuation


class ConfigError(ValueError):
    """A configuration file is malformed; the message names the field."""


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}: missing required field {key!r}")
    return data[key]


def _number(x, path: str):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {x!r}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {x!r}")
    return x


def _count(x, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise ConfigError(f"{path}: expected a nonnegative integer, got {x!r}")
    return x


def parse_cost_spec(spec, budget: int, path: str) -> CostFunction:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kind = _require(spec, "kind", path)
    try:
        if kind == "none":
            return CostFunction.zero(budget)
        if kind in ("linear", "quadratic"):
            coeff = _number(_require(spec, "coeff", path), f"{path}.coeff")
            ctor = CostFunction.linear if kind == "linear" else CostFunction.quadratic
            return ctor(coeff, budget)
        if kind == "table":
            values = _require(spec, "values", path)
            if not isinstance(values, list):
                raise ConfigError(f"{path}.values: expected a list")
            values = [_number(x, f"{path}.values[{t}]") for t, x in enumerate(values)]
            if len(values) != budget + 1:
                raise ConfigError(
                    f"{path}.values: has {len(values)} entries, expected {budget + 1}"
                )
            return CostFunction.from_table(values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown cost kind {kind!r}")


def parse_valuation_spec(spec, budget_a: int, budget_b: int, path: str) -> Valuation:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kind = _require(spec, "kind", path)
    try:
        if kind == "sign":
            weight = _number(_require(spec, "weight", path), f"{path}.weight")
            return Valuation.sign_form(weight, budget_a, budget_b)
        if kind == "table":
            rows = _require(spec, "rows", path)
            if (not isinstance(rows, list) or len(rows) != budget_a + 1
                    or any(not isinstance(r, list) or len(r) != budget_b + 1 for r in rows)):
                raise ConfigError(
                    f"{path}.rows: expected {budget_a + 1} rows of {budget_b + 1} numbers"
                )
            rows = [
                [_number(x, f"{path}.rows[{a}][{b}]") for b, x in enumerate(row)]
                for a, row in enumerate(rows)
            ]
            return Valuation.from_table(rows)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown valuation kind {kind!r}")


def _per_battlefield(entry, n: int, path: str) -> list:
    """Accept either one spec for all battlefields or a list of n specs."""
    if isinstance(entry, dict):
        return [entry] * n
    if isinstance(entry, list):
        if len(entry) != n:
            raise ConfigError(f"{path}: has {len(entry)} entries, expected n={n}")
        return entry
    raise ConfigError(f"{path}: expected an object or a list of {n} objects")


def parse_game_config(data: dict) -> CostBlottoGame:
    """Build a validated game from parsed JSON."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    n = _count(_require(data, "n", "config"), "config.n")
    budget_a = _count(_require(data, "budget_A", "config"), "config.budget_A")
    budget_b = _count(_require(data, "budget_B", "config"), "config.budget_B")
    vals = [
        parse_valuation_spec(spec, budget_a, budget_b, f"config.valuations[{i}]")
        for i, spec in enumerate(_per_battlefield(_require(data, "valuations", "config"), n, "config.valuations"))
    ]
    costs_a = [
        parse_cost_spec(spec, budget_a, f"config.assign_costs_A[{i}]")
        for i, spec in enumerate(_per_battlefield(_require(data, "assign_costs_A", "config"), n, "config.assign_costs_A"))
    ]
    costs_b = [
        parse_cost_spec(spec, budget_b, f"config.assign_costs_B[{i}]")
        for i, spec in enumerate(_per_battlefield(_require(data, "assign_costs_B", "config"), n, "config.assign_costs_B"))
    ]
    obtain_a = parse_cost_spec(_require(data, "obtain_cost_A", "config"), budget_a, "config.obtain_cost_A")
    obtain_b = parse_cost_spec(_require(data, "obtain_cost_B", "config"), budget_b, "config.obtain_cost_B")
    try:
        return CostBlottoGame(
            n=n, budget_a=budget_a, budget_b=budget_b,
            valuations=tuple(vals),
            assign_costs_a=tuple(costs_a), assign_costs_b=tuple(costs_b),
            obtain_cost_a=obtain_a, obtain_cost_b=obtain_b,
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


def _read_json(path: str | Path, what: str):
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what} file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: cannot read {what} file: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def load_game(path: str | Path) -> CostBlottoGame:
    return parse_game_config(_read_json(path, "config"))


@dataclass(frozen=True)
class GridRange:
    """Inclusive arithmetic grid ``start, start+interval, ... <= stop``."""

    start: float
    stop: float
    interval: float

    def __post_init__(self):
        if self.interval <= 0:
            raise ConfigError(f"grid interval must be positive, got {self.interval!r}")
        if self.stop < self.start:
            raise ConfigError(f"grid is empty: max {self.stop!r} below min {self.start!r}")

    def size(self) -> float:
        """How many values :meth:`values` yields, up to floating-point
        rounding, computed without building them; ``inf`` on overflow."""
        span = (self.stop + 1e-9 - self.start) / self.interval
        return math.floor(span) + 1 if math.isfinite(span) else math.inf

    def values(self) -> list[float]:
        out = []
        k = 0
        while True:
            x = self.start + k * self.interval
            if x > self.stop + 1e-9:
                return out
            out.append(x)
            k += 1


@dataclass(frozen=True)
class SweepSpec:
    """Grids over battlefield count, both budgets, and inverse unit cost."""

    n: GridRange
    budget_a: GridRange
    budget_b: GridRange
    c0_inv: GridRange

    def points(self) -> list[tuple[int, int, int, float]]:
        """All grid points in row-major (n, D_A, D_B, c0_inv) order."""
        return [
            (int(n), int(da), int(db), c)
            for n in self.n.values()
            for da in self.budget_a.values()
            for db in self.budget_b.values()
            for c in self.c0_inv.values()
        ]


def _parse_range(data, path: str, integral: bool) -> GridRange:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object with min/max/interval")
    lo = _number(_require(data, "min", path), f"{path}.min")
    hi = _number(_require(data, "max", path), f"{path}.max")
    step = _number(data.get("interval", 1), f"{path}.interval")
    if integral:
        for name, x in (("min", lo), ("max", hi), ("interval", step)):
            if x != int(x):
                raise ConfigError(f"{path}.{name}: expected an integer, got {x!r}")
    try:
        return GridRange(start=lo, stop=hi, interval=step)
    except ConfigError as exc:
        raise ConfigError(f"{path}{'.interval' if step <= 0 else ''}: {exc}") from None


#: Every sweep point is one solve, and :meth:`SweepSpec.points` lists them all
#: up front; a spec past this count is a mistyped ``max`` or ``interval``, and
#: its list alone could exhaust memory.
MAX_SWEEP_POINTS = 1_000_000


def parse_sweep_spec(data: dict) -> SweepSpec:
    if not isinstance(data, dict):
        raise ConfigError("sweep: expected a JSON object at the top level")
    grids, points = {}, 1
    for key in ("n", "budget_A", "budget_B", "c0_inv"):
        path = f"sweep.{key}"
        grid = grids[key.lower()] = _parse_range(_require(data, key, "sweep"), path,
                                                 integral=key != "c0_inv")
        points *= grid.size()
        if points > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"{path}: a grid of {grid.size():.6g} values brings the sweep to "
                f"{points:.6g} points, over the limit of {MAX_SWEEP_POINTS}"
            )
    return SweepSpec(**grids)


def load_sweep_spec(path: str | Path) -> SweepSpec:
    return parse_sweep_spec(_read_json(path, "sweep spec"))


def sweep_point_game(n: int, budget_a: int, budget_b: int, c0_inv: float) -> CostBlottoGame:
    """The sweep family: sign valuations, no assignment costs, linear
    obtainment cost ``1 / c0_inv`` for both players."""
    if c0_inv <= 0:
        raise ConfigError(f"c0_inv must be positive, got {c0_inv!r}")
    c0 = 1.0 / c0_inv
    return CostBlottoGame(
        n=n, budget_a=budget_a, budget_b=budget_b,
        valuations=(Valuation.sign_form(1, budget_a, budget_b),) * n,
        assign_costs_a=(CostFunction.zero(budget_a),) * n,
        assign_costs_b=(CostFunction.zero(budget_b),) * n,
        obtain_cost_a=CostFunction.linear(c0, budget_a),
        obtain_cost_b=CostFunction.linear(c0, budget_b),
    )
