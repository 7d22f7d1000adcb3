"""Smoke tests for the scripts under ``scripts/``, which no other test runs."""

import importlib.util
from pathlib import Path

import pytest

from costblotto import CostBlottoGame

RUNTIME_TABLE = Path(__file__).resolve().parent.parent / "scripts" / "run_runtime_table.py"


@pytest.mark.parametrize("setting", ["linear", "quadratic"])
def test_runtime_table_builds_its_games(setting):
    spec = importlib.util.spec_from_file_location("run_runtime_table", RUNTIME_TABLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    game = module.make_game(2, 3, 3, setting)
    assert isinstance(game, CostBlottoGame)
    assert (game.n, game.budget_a, game.budget_b) == (2, 3, 3)
