import json

import pytest

from costblotto import (
    ConfigError,
    GridRange,
    load_game,
    load_sweep_spec,
    parse_game_config,
    parse_sweep_spec,
    payoff_costs,
    sweep_point_game,
)
from costblotto.config import MAX_SWEEP_POINTS, parse_cost_spec, parse_valuation_spec

EXAMPLE = {
    "n": 2,
    "budget_A": 2,
    "budget_B": 2,
    "valuations": {"kind": "sign", "weight": 1},
    "assign_costs_A": {"kind": "none"},
    "assign_costs_B": {"kind": "none"},
    "obtain_cost_A": {"kind": "linear", "coeff": 1},
    "obtain_cost_B": {"kind": "linear", "coeff": 1},
}


class TestParseGameConfig:
    def test_example(self, example_game):
        game = parse_game_config(EXAMPLE)
        assert game.n == 2
        assert payoff_costs(game, (1, 1), (0, 0)) == payoff_costs(
            example_game, (1, 1), (0, 0))

    def test_per_battlefield_lists(self):
        data = dict(EXAMPLE)
        data["valuations"] = [
            {"kind": "sign", "weight": 1},
            {"kind": "table", "rows": [[0, -1, -1], [1, 0, -1], [1, 1, 0]]},
        ]
        data["assign_costs_A"] = [
            {"kind": "linear", "coeff": 0.5},
            {"kind": "table", "values": [0, 1, 1]},
        ]
        game = parse_game_config(data)
        assert game.valuations[1].rows[2][0] == 1
        assert game.assign_costs_a[1](2) == 1

    def test_wrong_list_length(self):
        data = dict(EXAMPLE)
        data["valuations"] = [{"kind": "sign", "weight": 1}]
        with pytest.raises(ConfigError, match="valuations"):
            parse_game_config(data)

    def test_missing_field_diagnostic(self):
        data = dict(EXAMPLE)
        del data["obtain_cost_B"]
        with pytest.raises(ConfigError, match="obtain_cost_B"):
            parse_game_config(data)

    def test_non_monotone_table_diagnostic(self):
        data = dict(EXAMPLE)
        data["assign_costs_A"] = [
            {"kind": "none"}, {"kind": "table", "values": [0, 2, 1]}]
        with pytest.raises(ConfigError, match=r"assign_costs_A\[1\]"):
            parse_game_config(data)

    def test_bad_valuation_shape(self):
        data = dict(EXAMPLE)
        data["valuations"] = {"kind": "table", "rows": [[0, 0], [0, 0]]}
        with pytest.raises(ConfigError, match="valuations"):
            parse_game_config(data)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="cubic"):
            parse_cost_spec({"kind": "cubic", "coeff": 1}, 2, "config.x")

    def test_unknown_valuation_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_valuation_spec({"kind": "magic"}, 2, 2, "config.v")

    def test_non_integer_budget(self):
        data = dict(EXAMPLE)
        data["budget_A"] = 2.5
        with pytest.raises(ConfigError, match="budget_A"):
            parse_game_config(data)

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf")])
    def test_non_finite_coefficient(self, coeff):
        cfg = dict(EXAMPLE, obtain_cost_A={"kind": "linear", "coeff": coeff})
        with pytest.raises(ConfigError,
                           match=r"config\.obtain_cost_A\.coeff: expected a finite number"):
            parse_game_config(cfg)


class TestLoadGame:
    def test_load(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(EXAMPLE))
        game = load_game(path)
        assert game.budget_a == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_game(tmp_path / "nope.json")

    def test_invalid_json_line_number(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "n": 2,\n}')
        with pytest.raises(ConfigError, match="line 3"):
            load_game(path)

    def test_non_finite_table_entry(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(
            dict(EXAMPLE, assign_costs_B={"kind": "table", "values": [0, 1, float("inf")]})))
        with pytest.raises(ConfigError, match=r"assign_costs_B\[0\]\.values\[2\]"):
            load_game(path)


class TestGridRange:
    def test_values(self):
        assert GridRange(1, 3, 1).values() == [1.0, 2.0, 3.0]

    def test_fractional_interval_hits_endpoint(self):
        values = GridRange(1, 10, 0.25).values()
        assert len(values) == 37
        assert values[0] == 1.0
        assert values[-1] == pytest.approx(10.0)

    def test_singleton(self):
        assert GridRange(4, 4, 1).values() == [4.0]

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            GridRange(1, 2, 0)

    def test_stop_before_start(self):
        with pytest.raises(ValueError):
            GridRange(3, 1, 1)


class TestSweepSpec:
    SPEC = {
        "n": {"min": 2, "max": 3},
        "budget_A": {"min": 4, "max": 4},
        "budget_B": {"min": 4, "max": 4},
        "c0_inv": {"min": 1, "max": 2, "interval": 0.5},
    }

    def test_points_row_major(self):
        spec = parse_sweep_spec(self.SPEC)
        points = spec.points()
        assert points == [
            (2, 4, 4, 1.0), (2, 4, 4, 1.5), (2, 4, 4, 2.0),
            (3, 4, 4, 1.0), (3, 4, 4, 1.5), (3, 4, 4, 2.0),
        ]

    def test_integral_ranges_enforced(self):
        bad = dict(self.SPEC)
        bad["n"] = {"min": 2.5, "max": 3}
        with pytest.raises(ConfigError, match="n"):
            parse_sweep_spec(bad)

    def test_load(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.SPEC))
        assert len(load_sweep_spec(path).points()) == 6

    def test_missing_key(self):
        bad = {k: v for k, v in self.SPEC.items() if k != "c0_inv"}
        with pytest.raises(ConfigError, match="c0_inv"):
            parse_sweep_spec(bad)

    # parsed only: at an unchecked boundary these grids never end
    @pytest.mark.parametrize("field,grid", [
        ("n", {"min": 2, "max": float("inf")}),
        ("c0_inv", {"min": 1, "max": float("inf")}),
        ("c0_inv", {"min": 1, "max": 2, "interval": float("nan")}),
        ("budget_A", {"min": float("-inf"), "max": 4}),
    ])
    def test_non_finite_rejected(self, field, grid):
        with pytest.raises(ConfigError, match=rf"sweep\.{field}\.\w+: expected a finite number"):
            parse_sweep_spec(dict(self.SPEC, **{field: grid}))

    # parsed only: the point list of either grid would not fit in memory
    @pytest.mark.parametrize("field,grid", [
        ("c0_inv", {"min": 1, "max": 2, "interval": 1e-12}),
        ("n", {"min": 2, "max": 1e12}),
    ])
    def test_huge_grid_rejected(self, field, grid):
        with pytest.raises(ConfigError, match=rf"^sweep\.{field}: .* over the limit of {MAX_SWEEP_POINTS}$"):
            parse_sweep_spec(dict(self.SPEC, **{field: grid}))

    def test_grids_at_the_limit_accepted(self):
        spec = parse_sweep_spec(dict(
            self.SPEC, n={"min": 1, "max": 1000}, c0_inv={"min": 0.5, "max": 100.4, "interval": 0.1}))
        assert spec.n.size() * spec.c0_inv.size() == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match=r"^sweep\.c0_inv: .* brings the sweep to 1\.001e\+06 points"):
            parse_sweep_spec(dict(
                self.SPEC, n={"min": 1, "max": 1000}, c0_inv={"min": 0.5, "max": 100.5, "interval": 0.1}))

    @pytest.mark.parametrize("grid", [
        GridRange(1, 2, 0.5), GridRange(0.5, 100.4, 0.1), GridRange(2, 2, 1),
        GridRange(1, 10, 0.3), GridRange(0.1, 0.7, 0.1), GridRange(9.75, 10.25, 0.05),
    ])
    def test_size_counts_values(self, grid):
        assert grid.size() == len(grid.values())


class TestSweepPointGame:
    def test_structure(self):
        game = sweep_point_game(3, 5, 4, 2.5)
        assert game.n == 3
        assert game.budget_a == 5
        assert game.budget_b == 4
        assert game.obtain_cost_a(5) == pytest.approx(2.0)
        assert game.obtain_cost_b(4) == pytest.approx(1.6)
        assert all(game.assign_costs_a[i](2) == 0 for i in range(3))
        assert game.valuations[0].rows[3][1] == 1

    def test_example_point_matches_fixture(self, example_game):
        game = sweep_point_game(2, 2, 2, 1.0)
        for s_a in [(0, 0), (1, 1), (0, 2)]:
            for s_b in [(0, 0), (2, 0)]:
                assert payoff_costs(game, s_a, s_b) == pytest.approx(
                    payoff_costs(example_game, s_a, s_b))
