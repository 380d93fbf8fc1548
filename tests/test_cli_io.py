import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swapmotion.cli import main
from swapmotion.errors import InvalidScenario, NavigationFailure
from swapmotion.fileio import (
    MAX_GRID_CELLS,
    AgentSpec,
    Scenario,
    ScenarioParams,
    dump_json,
    graph_to_dict,
    load_json,
    plan_to_dict,
    scenario_from_dict,
    scenario_to_dict,
    trajectory_from_csv,
    trajectory_to_csv,
)
from swapmotion.geometry import Point2, rectangle_workspace
from swapmotion import pipeline
from swapmotion.pipeline import run_pipeline, sample_free_positions
from swapmotion.render_svg import _Svg
from swapmotion.trajectory import Track, TrajectorySet, verify_trajectories

from fileio_reference import trajectory_to_csv_reference
from sampling_oracle import sample_times
from test_acceptance import bench_runs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = Path(__file__).resolve().parent / "data"


def small_scenario():
    return scenario_from_dict(load_json(SCENARIOS / "rect_12.json"))


class TestRoundTrips:
    def test_scenario(self):
        s = small_scenario()
        d = scenario_to_dict(s)
        s2 = scenario_from_dict(json.loads(json.dumps(d)))
        assert scenario_to_dict(s2) == d

    def test_graph(self):
        # graph.json is write-only; rect_12 has radial and gap corridors,
        # grid_20 path and radial ones, and all three kinds are named
        seen = set()
        for name in ("rect_12", "grid_20"):
            s = scenario_from_dict(load_json(SCENARIOS / f"{name}.json"))
            d = graph_to_dict(pipeline.convert_scenario(s))
            seen |= {k["kind"] for k in d["edge_kinds"]}
        assert seen == {"radial", "gap", "path"}

    def test_plan_and_trajectory(self, tmp_path):
        s = small_scenario()
        run, art = run_pipeline(s)
        csv_path = tmp_path / "traj.csv"
        trajectory_to_csv(art.trajectory, csv_path)
        loaded = trajectory_from_csv(csv_path)
        assert loaded.agents() == art.trajectory.agents()
        assert sorted(loaded.agents()) == [a.id for a in s.agents]
        assert loaded.horizon == art.trajectory.horizon
        for a in loaded.agents():
            x, y = loaded.segments[a], art.trajectory.segments[a]
            for f in ("t0", "t1", "kind", "par"):
                assert np.array_equal(getattr(x, f), getattr(y, f))
            assert x.t0[0] == 0.0


class TestExactTrajectoryExport:
    """`exec` writes trajectory.csv as an exact segment table."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        outs = []
        for k in range(2):
            out = tmp_path_factory.mktemp(f"exec{k}")
            assert main(["exec", "--scenario", str(SCENARIOS / "rect_12.json"),
                         "--out", str(out)]) == 0
            outs.append(out)
        s = small_scenario()
        run, art = run_pipeline(s)
        return s, art, outs

    def test_positions_equal_at_every_verify_sample(self, runs):
        s, art, outs = runs
        loaded = trajectory_from_csv(outs[0] / "trajectory.csv")
        assert loaded.horizon == art.trajectory.horizon
        times = sample_times(art.trajectory.horizon, s.params.dt)
        for a in art.trajectory.agents():
            assert np.array_equal(
                loaded.segments[a].sample(times), art.trajectory.segments[a].sample(times)
            )

    def test_reverify_gives_identical_report(self, runs):
        s, art, outs = runs
        loaded = trajectory_from_csv(outs[0] / "trajectory.csv")
        rep = verify_trajectories(loaded, s.workspace, s.r)
        assert rep == art.verification
        assert rep.ok

    def test_two_runs_byte_identical(self, runs):
        s, art, outs = runs
        first = (outs[0] / "trajectory.csv").read_bytes()
        assert first == (outs[1] / "trajectory.csv").read_bytes()
        header = first.decode().splitlines()[1]
        assert header == "agent,t0,t1,kind,p0,p1,p2,p3,p4"

    @pytest.mark.parametrize("name", ["rect_12", "obstacles_30"])
    def test_writer_matches_the_row_by_row_reference(self, name, tmp_path):
        ts = bench_runs()[name][2].trajectory
        trajectory_to_csv(ts, tmp_path / "table.csv")
        trajectory_to_csv_reference(ts, tmp_path / "reference.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_writer_keeps_every_bit_pattern(self, tmp_path):
        # values shared across agents and blocks of agents, both zeros, the
        # least subnormal, and int and str ids, whose repr order interleaves
        values = np.array([0.0, -0.0, 1e16, 1e-05, 5e-324, -5e-324, 0.1 + 0.2, 1 / 3, -2.5])
        rng = np.random.default_rng(3)
        tracks = {}
        for k, a in enumerate([*range(14), *"abcdefgh", -7, "10"]):
            n = 1 + k % 4
            cells = rng.choice(values, size=(n, 7))
            tracks[a] = Track(cells[:, 0], cells[:, 1], rng.integers(0, 3, n), cells[:, 2:])
        ts = TrajectorySet(tracks, 1e16)
        trajectory_to_csv(ts, tmp_path / "table.csv")
        trajectory_to_csv_reference(ts, tmp_path / "reference.csv")
        table = (tmp_path / "table.csv").read_text()
        assert table == (tmp_path / "reference.csv").read_text()
        assert ",-0.0," in table and ",0.0," in table and "5e-324" in table


def test_polyline_formats_each_number_like_fmt():
    svg = _Svg(rectangle_workspace(30.0, 20.0))
    rng = np.random.default_rng(5)
    edge = [-1.0, -1.000001, 4.0, 0.0025, 1e-09, 1234.5, 21.0, 20.999999]
    pts = np.concatenate([rng.uniform(-2.0, 32.0, (160, 2)), np.c_[edge, edge]])
    svg.polyline(pts, "#000000")
    coords = " ".join(f"{svg.x(x)},{svg.y(y)}" for x, y in pts.tolist())
    assert svg.parts[-1] == (
        f'<polyline points="{coords}" stroke="#000000" fill="none" stroke-width="1.0"/>'
    )
    assert " 0,440 -0,440 100,340 " in svg.parts[-1]


class TestDeterminism:
    def test_plan_files_byte_identical(self, tmp_path):
        s = small_scenario()
        paths = []
        for k in range(2):
            run, art = run_pipeline(s)
            p = tmp_path / f"plan{k}.json"
            dump_json(plan_to_dict(art.plan), p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCli:
    def test_exec_small_scenario(self, tmp_path, capsys):
        code = main(
            ["exec", "--scenario", str(SCENARIOS / "rect_12.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        for name in ("graph.json", "plan.json", "report.json", "trajectory.csv",
                     "scene.svg", "scenario.json"):
            assert (tmp_path / name).exists()
        report = load_json(tmp_path / "report.json")
        assert report["success"] is True
        assert report["timings"]["artifacts"] > 0.0
        block = report["plan"]
        assert set(block) == {
            "cycles", "exchanges", "vacancy_swaps", "idle_swaps", "core_swaps", "ops_emitted", "ops"
        }
        assert block["ops"] == report["op_count"] <= block["ops_emitted"]
        assert block["vacancy_swaps"] <= block["exchanges"]
        legs = report["navigate"]
        assert set(legs) == {"start", "goal"}
        for leg in legs.values():
            assert set(leg) == {
                "direct", "hint_detour", "via_detour", "two_leg", "grid",
                "grid_tried", "sidesteps", "retries",
            }
            assert leg["grid"] <= leg["grid_tried"]
            tiers = ("direct", "hint_detour", "via_detour", "two_leg", "grid")
            assert sum(leg[k] for k in tiers) == report["n_agents"]  # one route each
        block = report["convert"]
        assert set(block) == {
            "fragments", "bridges", "bridge_pops", "candidates", "builds", "builds_cut",
            "circles_kept", "paths_searched", "paths_reused", "paths_skipped",
        }
        assert block["circles_kept"] == len(load_json(tmp_path / "graph.json")["circles"])
        assert block["circles_kept"] <= min(block["builds"], block["candidates"])
        assert block["bridges"] < block["fragments"]
        assert block["builds_cut"] <= block["builds"]

    def test_convert_only(self, tmp_path):
        code = main(
            ["convert", "--scenario", str(SCENARIOS / "rect_12.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "graph.json").exists()

    def test_insufficient_capacity_exit_code(self, tmp_path):
        code = main(
            ["exec", "--scenario", str(SCENARIOS / "corridor_narrow_4.json"),
             "--out", str(tmp_path)]
        )
        assert code == 3

    def test_max_agents_flag(self, tmp_path):
        code = main(
            ["exec", "--scenario", str(SCENARIOS / "rect_12.json"),
             "--out", str(tmp_path), "--max-agents", "4"]
        )
        assert code == 0
        report = load_json(tmp_path / "report.json")
        assert report["n_agents"] == 4

    @pytest.mark.parametrize("command", ["exec", "convert"])
    @pytest.mark.parametrize("nested", [False, True], ids=["file", "below_file"])
    def test_out_naming_a_file_exit_2(self, command, nested, tmp_path, capsys, monkeypatch):
        """An `--out` that names a file, or lies below one, used to crash in
        mkdir after the whole run (exit 1, the code of a failed certificate)."""
        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "sub" if nested else taken
        code = main([command, "--scenario", str(SCENARIOS / "rect_12.json"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error [InvalidScenario]: --out {out}: {taken} is not a directory"]
        assert taken.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_agents_below_one_exit_2(self, value, tmp_path, capsys):
        code = main(
            ["exec", "--scenario", str(SCENARIOS / "rect_12.json"),
             "--out", str(tmp_path), "--max-agents", value]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error [InvalidScenario]: --max-agents {value} below 1"]
        assert list(tmp_path.iterdir()) == []

    def test_verify_prints_pipeline_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["exec", "--scenario", str(SCENARIOS / "rect_12.json")])
        assert code == 0
        out = capsys.readouterr().out
        s = small_scenario()
        intervals = run_pipeline(s)[1].verification.samples
        assert f"0 violations over {intervals} intervals" in out
        assert list(tmp_path.iterdir()) == []

    def test_render(self, tmp_path):
        assert main(["exec", "--scenario", str(SCENARIOS / "rect_12.json"),
                     "--out", str(tmp_path)]) == 0
        code = main(["render", "--out", str(tmp_path), "--dt", "5.0"])
        assert code == 0
        assert (tmp_path / "scene.svg").exists()
        frames = list((tmp_path / "frames").glob("frame_*.svg"))
        assert frames

    def test_render_reads_exec_dir_and_never_plans(self, tmp_path, monkeypatch):
        assert main(["exec", "--scenario", str(SCENARIOS / "rect_12.json"),
                     "--out", str(tmp_path)]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("render must not run the pipeline")

        monkeypatch.setattr(pipeline, "run_pipeline", fail)
        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        assert main(["render", "--out", str(tmp_path), "--dt", "5"]) == 0
        assert list((tmp_path / "frames").glob("frame_*.svg"))


class TestNavigationFailure:
    """A stuck navigation leg names its stage, its leg and its agents.

    `walled_pocket.json` starts agent 0 inside a 3 x 3 pocket sealed by four
    walls, so no slot can be reached from there, and the message says so."""

    @pytest.fixture
    def scene(self):
        return scenario_from_dict(load_json(DATA / "walled_pocket.json"))

    def test_start_leg(self, scene):
        with pytest.raises(NavigationFailure) as e:
            run_pipeline(scene)
        assert e.value.stuck_agents == [0]
        assert str(e.value) == (
            "navigate: start leg stuck for agents [0]; no grid path to any slot for agents [0]"
        )

    def test_goal_leg(self, scene):
        # with starts and goals swapped, the goal leg is the stuck leg above
        agents = [AgentSpec(a.id, a.goal, a.start) for a in scene.agents]
        back = Scenario(scene.name, scene.workspace, scene.r, agents, scene.params)
        with pytest.raises(NavigationFailure) as e:
            run_pipeline(back)
        assert e.value.stuck_agents == [0]
        assert str(e.value) == (
            "navigate: goal leg stuck for agents [0]; no grid path to any slot for agents [0]"
        )

    def test_exit_code(self, tmp_path, capsys):
        code = main(["exec", "--scenario", str(DATA / "walled_pocket.json"),
                     "--out", str(tmp_path)])
        assert code == 5
        err = capsys.readouterr().err
        assert (
            "error [NavigationFailure]: navigate: start leg stuck for agents [0]; "
            "no grid path to any slot for agents [0]"
        ) in err


class TestSpareSlotRetries:
    """A stuck agent is retried on spare slots it has not tried in the leg.

    On `start_leg_stuck.json` agent 1 stalls on its first two slots; the
    slot it leaves rejoins the spares but is not handed back to it."""

    def test_no_agent_is_sent_to_a_slot_twice(self, monkeypatch):
        calls = []
        navigate = pipeline.navigate

        def spy(agents, points, targets, *args):
            calls.append((points.tolist(), [tuple(t) for t in targets.tolist()]))
            return navigate(agents, points, targets, *args)

        monkeypatch.setattr(pipeline, "navigate", spy)
        s = scenario_from_dict(load_json(DATA / "start_leg_stuck.json"))
        run, _ = run_pipeline(s)
        assert run.success
        def leg_calls(leg):
            return [t for p, t in calls if p == [list(q) for q in leg]]

        for leg in (s.starts(), s.goals()):
            targets = leg_calls(leg)
            for a in range(len(targets[0])):
                sent = [t[a] for k, t in enumerate(targets) if k == 0 or t[a] != targets[k - 1][a]]
                assert len(set(sent)) == len(sent), (a, sent)
        # agent 1 reached its third slot on the start leg
        start_leg = leg_calls(s.starts())
        assert len({t[1] for t in start_leg}) == 3


class TestInvalidScenario:
    """An invalid scenario is a typed error: exit code 2 and one line, before any work."""

    @pytest.fixture
    def same_starts(self, tmp_path):
        d = load_json(SCENARIOS / "rect_12.json")
        d["agents"][1]["start"] = list(d["agents"][0]["start"])
        path = tmp_path / "same_starts.json"
        dump_json(d, path)
        return path

    @pytest.mark.parametrize("command", ["exec", "convert"])
    def test_coincident_starts_exit_2(self, command, same_starts, tmp_path, capsys):
        code = main([command, "--scenario", str(same_starts), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error [InvalidScenario]: scenario: starts of agents 0,1 closer than 2r"]

    def test_near_goals_exit_2(self, tmp_path, capsys, monkeypatch):
        """Goals 1r apart used to pass validation, run convert and the start
        leg, and end as a goal-leg NavigationFailure (exit 5)."""
        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        d = load_json(SCENARIOS / "rect_12.json")
        x, y = d["agents"][0]["goal"]
        d["agents"][1]["goal"] = [x - d["r"], y]
        path = tmp_path / "near_goals.json"
        dump_json(d, path)
        assert main(["exec", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error [InvalidScenario]: scenario: goals of agents 0,1 closer than 2r"]

    def test_validate_goal_spacing_matches_starts(self):
        """Goals and starts are held to the same 2r spacing, with the same tolerance."""
        s = small_scenario()
        a, b = s.agents[0], s.agents[1]
        tol = s.workspace.tol
        for gap, problems in (
            (2 * s.r - 2 * tol, ["goals of agents 0,1 closer than 2r"]),
            (2 * s.r, []),
        ):
            b.goal = Point2(a.goal.x - gap, a.goal.y)
            assert s.validate() == problems
        b.goal = a.goal
        assert s.validate() == ["goals of agents 0,1 closer than 2r"]

    def test_run_pipeline_raises_invalid_scenario(self, same_starts):
        s = scenario_from_dict(load_json(same_starts))
        with pytest.raises(InvalidScenario, match="starts of agents 0,1"):
            run_pipeline(s)

    @pytest.mark.parametrize(
        "field,value",
        # the last two make a medial-axis grid of more than MAX_GRID_CELLS
        [("epsilon", 0), ("k_max", 0), ("threshold", 0), ("r", 0.001), ("r", 1e-300)],
    )
    def test_nonpositive_step_fails_before_convert(self, field, value, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        d = load_json(SCENARIOS / "rect_12.json")
        (d if field == "r" else d["params"])[field] = value
        path = tmp_path / "bad_step.json"
        dump_json(d, path)
        assert main(["exec", "--scenario", str(path)]) == 2

    @pytest.mark.parametrize(
        "r,problem",
        [(0.0, "r 0.0 not positive"), (-1.0, "r -1.0 not positive"), (math.inf, "r inf not finite")],
    )
    def test_validate_names_bad_r(self, r, problem):
        s = small_scenario()
        s.r = r
        assert s.validate() == [problem]

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_nonpositive_r_exit_2(self, r, tmp_path, capsys):
        d = load_json(SCENARIOS / "rect_12.json")
        d["r"] = r
        path = tmp_path / "bad_r.json"
        dump_json(d, path)
        assert main(["exec", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error [InvalidScenario]: scenario: r {r} not positive"]

    def test_validate_names_nonpositive_steps(self):
        s = small_scenario()
        s.params.dt = 0.0
        s.params.epsilon = -1.0
        s.params.k_max = 0
        s.params.threshold = 0
        assert s.validate() == [
            "dt 0.0 not positive",
            "epsilon -1.0 not positive",
            "k_max 0 not an integer >= 1",
            "threshold 0 below 1",
        ]

    def test_validate_names_non_numeric_steps(self):
        """Non-numbers used to reach a comparison and end in a TypeError."""
        s = small_scenario()
        s.params.dt = None
        s.params.epsilon = "a"
        s.params.threshold = "x"
        assert s.validate() == [
            "dt None not a number",
            "epsilon 'a' not a number",
            "threshold 'x' not a number",
        ]

    @pytest.mark.parametrize("dt,problem", [(math.inf, "dt inf not finite"),
                                            (math.nan, "dt nan not positive")])
    def test_non_finite_dt_exit_2(self, dt, problem, tmp_path, capsys, monkeypatch):
        """`exec` used to run a scenario with dt = inf that `render` then
        refused; both now reject it before convert."""
        s = small_scenario()
        s.params.dt = dt
        assert s.validate() == [problem]

        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        d = load_json(SCENARIOS / "rect_12.json")
        d["params"]["dt"] = dt
        path = tmp_path / "bad_dt.json"
        dump_json(d, path)
        assert main(["exec", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error [InvalidScenario]: scenario: {problem}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field,value,shown",
        [("epsilon", "a", "'a'"), ("threshold", "x", "'x'"), ("dt", None, "None")],
    )
    def test_non_numeric_param_exit_2(self, field, value, shown, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        d = load_json(SCENARIOS / "rect_12.json")
        d.setdefault("params", {})[field] = value
        path = tmp_path / "bad_param.json"
        dump_json(d, path)
        assert main(["exec", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error [InvalidScenario]: scenario: {field} {shown} not a number"]

    def test_validate_bounds_grid_cells(self):
        """A tiny r used to allocate a multi-GiB grid in convert. Navigation
        routes on the medial axis's grid, so there is one grid to bound.

        Only `validate` runs here: such a scenario must never reach convert."""
        s = small_scenario()  # 30 x 18
        s.r = 1e-3
        assert s.validate() == [f"medial-axis grid of 2160000000 cells above {MAX_GRID_CELLS}"]


class TestParamsKeys:
    """Every params key that the program does not read is an error, unless
    its value is null; a misspelled key used to be ignored without a word."""

    def _with_params(self, tmp_path, **params):
        d = load_json(SCENARIOS / "grid_20.json")
        d["params"].update(params)
        path = tmp_path / "params.json"
        dump_json(d, path)
        return d, path

    @pytest.mark.parametrize("key,value", [("kmax", 8), ("grid_resolution", 0.5)])
    def test_unread_key_is_rejected(self, key, value, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        d, path = self._with_params(tmp_path, **{key: value})
        with pytest.raises(ValueError, match=f"unknown params key '{key}'"):
            scenario_from_dict(d)
        assert main(["exec", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"error [InvalidScenario]: {path}: malformed "
            f"(ValueError: unknown params key '{key}')"
        ]

    def test_null_unread_key_loads(self, tmp_path):
        """The shipped scenarios carry `"grid_resolution": null`."""
        assert load_json(SCENARIOS / "grid_20.json")["params"]["grid_resolution"] is None
        d, _ = self._with_params(tmp_path, grid_resolution=None, kmax=None)
        s = scenario_from_dict(d)
        assert s.params == scenario_from_dict(load_json(SCENARIOS / "grid_20.json")).params
        assert s.validate() == []
        assert "grid_resolution" not in scenario_to_dict(s)["params"]

    def test_params_not_an_object(self, tmp_path):
        d, _ = self._with_params(tmp_path)
        d["params"] = ["k_max", 8]
        with pytest.raises(ValueError, match="params .* not an object"):
            scenario_from_dict(d)


class TestScenarioKeys:
    """A top-level scenario key outside name, workspace, r, agents and params
    is an error unless its value is null: grid_20 with `params` renamed to
    `parameters` used to load with default params and an empty validate()."""

    @pytest.mark.parametrize("rename", [True, False])
    def test_unknown_key_is_rejected(self, rename, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        d = load_json(SCENARIOS / "grid_20.json")
        d["parameters"] = d.pop("params") if rename else {"k_max": 8}
        path = tmp_path / "keys.json"
        dump_json(d, path)
        with pytest.raises(ValueError, match="unknown scenario key 'parameters'"):
            scenario_from_dict(d)
        assert main(["exec", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            f"error [InvalidScenario]: {path}: malformed "
            "(ValueError: unknown scenario key 'parameters')"
        ]

    def test_null_unknown_key_loads(self):
        d = load_json(SCENARIOS / "grid_20.json")
        d["comment"] = None
        assert scenario_from_dict(d) == scenario_from_dict(load_json(SCENARIOS / "grid_20.json"))

    def test_shipped_files_use_only_the_read_keys(self):
        files = sorted(SCENARIOS.glob("*.json")) + sorted(DATA.glob("*.json"))
        assert len(files) >= 10
        for f in files:
            assert set(load_json(f)) == {"name", "workspace", "r", "agents", "params"}, f

    def test_make_scenarios_reproduces_the_shipped_files(self, tmp_path):
        """`scripts/make_scenarios.py`, run in an empty directory, writes a
        `scenarios/` whose every file parses to the shipped file's Scenario."""
        root = SCENARIOS.parent
        subprocess.run(
            [sys.executable, str(root / "scripts" / "make_scenarios.py")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(root / "src")},
            check=True, capture_output=True,
        )
        made = sorted(p.name for p in (tmp_path / "scenarios").glob("*.json"))
        assert made == sorted(p.name for p in SCENARIOS.glob("*.json"))
        for name in made:
            fresh = scenario_from_dict(load_json(tmp_path / "scenarios" / name))
            assert fresh == scenario_from_dict(load_json(SCENARIOS / name)), name


class TestUnreadableInput:
    """A missing or malformed input file is an InvalidScenario: exit 2, one line."""

    def _run(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error [InvalidScenario]: ")
        return err[0]

    def test_missing_scenario_file(self, tmp_path, capsys):
        missing = tmp_path / "nothere.json"
        line = self._run(["exec", "--scenario", str(missing)], capsys)
        assert str(missing) in line

    def test_scenario_without_workspace(self, tmp_path, capsys):
        d = load_json(SCENARIOS / "rect_12.json")
        del d["workspace"]
        path = tmp_path / "no_workspace.json"
        dump_json(d, path)
        for command in ("exec", "convert"):
            line = self._run([command, "--scenario", str(path), "--out", str(tmp_path)], capsys)
            assert "missing key 'workspace'" in line

    @pytest.mark.parametrize("field", ["start", "goal"])
    @pytest.mark.parametrize(
        "xy", [["a", 3.0], [None, 3.0], [True, 3.0], [1.0]], ids=["str", "null", "bool", "short"]
    )
    def test_agent_coordinate_not_two_numbers(self, field, xy, tmp_path, capsys, monkeypatch):
        """`["a", 3.0]` used to end in an untyped ValueError and `[null, 3.0]`
        in a TypeError, both with exit 1."""
        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        d = load_json(SCENARIOS / "rect_12.json")
        d["agents"][1][field] = xy
        path = tmp_path / "bad_agent.json"
        dump_json(d, path)
        line = self._run(["exec", "--scenario", str(path)], capsys)
        assert line.endswith(f"(ValueError: agent 1 {field} {xy!r} not two numbers)")

    @pytest.mark.parametrize("value", ["30", True], ids=["str", "bool"])
    @pytest.mark.parametrize("field", ["r", "bound", "vertex"])
    def test_workspace_number_not_a_number(self, field, value, tmp_path, capsys, monkeypatch):
        """`"r": "1.0"` and `"r": true` used to load as r = 1.0, and `exec`
        exited 0; a string or bool bound or obstacle vertex is rejected too."""
        def fail(*args, **kwargs):
            raise AssertionError("greedy_convert must not run")

        monkeypatch.setattr(pipeline, "greedy_convert", fail)
        d = load_json(SCENARIOS / "obstacles_30.json")
        w = d["workspace"]
        if field == "r":
            d["r"] = value
            problem = f"r {value!r} not a number"
        elif field == "bound":
            w["bounds"][2] = value
            problem = f"bounds {w['bounds']!r} not four numbers"
        else:
            w["obstacles"][0][1][0] = value
            problem = f"obstacle 0 vertex {w['obstacles'][0][1]!r} not two numbers"
        path = tmp_path / "bad_number.json"
        dump_json(d, path)
        line = self._run(["exec", "--scenario", str(path)], capsys)
        assert line.endswith(f"(ValueError: {problem})")

    @pytest.mark.parametrize("aid", [2.5, True, math.inf], ids=["fraction", "bool", "inf"])
    def test_agent_id_not_an_integer(self, aid, tmp_path, capsys):
        """`int(id)` used to turn 2.5 into 2 and true into 1, and `Infinity`
        ended in an untyped OverflowError."""
        d = load_json(SCENARIOS / "rect_12.json")
        d["agents"][1]["id"] = aid
        path = tmp_path / "bad_id.json"
        path.write_text(json.dumps(d))
        line = self._run(["exec", "--scenario", str(path)], capsys)
        assert line.endswith(f"(ValueError: agent id {aid!r} not an integer)")

    def test_committed_bad_coordinate_scenario(self, capsys):
        """The scenario CI runs `exec` on to check for exit code 2: valid
        apart from agent 1's start, so with that start fixed it converts."""
        path = DATA / "non_numeric_start.json"
        line = self._run(["exec", "--scenario", str(path)], capsys)
        assert line.endswith("(ValueError: agent 1 start ['a', 3.0] not two numbers)")
        d = load_json(path)
        d["agents"][1]["start"] = [3.0, 9.0]
        assert scenario_from_dict(d).validate() == []

    def test_render_dir_without_scenario(self, tmp_path, capsys):
        line = self._run(["render", "--out", str(tmp_path)], capsys)
        assert "scenario.json" in line


def _bad_horizon(rows, value):
    rows[0] = f"# horizon={value}"


def _no_opening_hold(rows):
    del rows[2]  # agent 0's opening hold


def _ends_before_start(rows):
    f = rows[3].split(",")  # agent 0's first move
    f[1], f[2] = f[2], f[1]
    rows[3] = ",".join(f)


def _out_of_order(rows):
    rows[3], rows[4] = rows[4], rows[3]


@pytest.fixture(scope="module")
def exec_dir(tmp_path_factory):
    """What `exec --out` writes for rect_12."""
    out = tmp_path_factory.mktemp("exec")
    assert main(["exec", "--scenario", str(SCENARIOS / "rect_12.json"),
                 "--out", str(out)]) == 0
    return out


class TestMalformedTrajectory:
    """`render` reads trajectory.csv from outside the program: a table that
    breaks the record invariants is an InvalidScenario (exit 2), and no frame
    is drawn."""

    @pytest.mark.parametrize("edit,message", [
        (lambda rows: _bad_horizon(rows, "nan"), "horizon nan"),
        (lambda rows: _bad_horizon(rows, "inf"), "horizon inf"),
        (lambda rows: _bad_horizon(rows, "-1.0"), "horizon -1.0"),
        # rect_12's records run to about 665; render would draw only t <= 1
        (lambda rows: _bad_horizon(rows, "1.0"), "past the horizon"),
        (_no_opening_hold, "agent 0 does not open with a hold"),
        (_ends_before_start, "agent 0 has a record ending before it starts"),
        (_out_of_order, "records of agent 0 are not in time order"),
    ], ids=["horizon_nan", "horizon_inf", "horizon_negative", "horizon_too_early",
            "no_opening_hold",
            "ends_before_start", "out_of_order"])
    def test_render_rejects(self, edit, message, exec_dir, tmp_path, capsys):
        for name in ("scenario.json", "trajectory.csv"):
            (tmp_path / name).write_bytes((exec_dir / name).read_bytes())
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        edit(rows)
        (tmp_path / "trajectory.csv").write_text("\n".join(rows) + "\n")
        assert main(["render", "--out", str(tmp_path), "--dt", "500"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [InvalidScenario]: ")
        assert "trajectory.csv" in err[0] and message in err[0]
        assert not (tmp_path / "frames").exists()


class TestFrameStep:
    """`render`'s frame step, `--dt` or else scenario.json's params.dt, is a
    finite number > 0; anything else is an InvalidScenario (exit 2), and no
    frame is drawn."""

    @pytest.mark.parametrize("flag,file_dt", [
        ("-1", None), ("0", None), ("nan", None), ("inf", None), (None, "abc"), (None, 0),
    ], ids=["flag_negative", "flag_zero", "flag_nan", "flag_inf", "file_abc", "file_zero"])
    def test_render_rejects(self, flag, file_dt, exec_dir, tmp_path, capsys):
        (tmp_path / "trajectory.csv").write_bytes((exec_dir / "trajectory.csv").read_bytes())
        d = load_json(exec_dir / "scenario.json")
        if file_dt is not None:
            d["params"]["dt"] = file_dt
        dump_json(d, tmp_path / "scenario.json")
        argv = ["render", "--out", str(tmp_path)] + (["--dt", flag] if flag else [])
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error [InvalidScenario]: frame step ")
        assert repr(float(flag) if flag else file_dt) in err[0]
        assert not (tmp_path / "frames").exists()

    def test_flag_overrides_a_bad_file_step(self, exec_dir, tmp_path):
        (tmp_path / "trajectory.csv").write_bytes((exec_dir / "trajectory.csv").read_bytes())
        d = load_json(exec_dir / "scenario.json")
        d["params"]["dt"] = "abc"
        dump_json(d, tmp_path / "scenario.json")
        assert main(["render", "--out", str(tmp_path), "--dt", "500"]) == 0
        assert list((tmp_path / "frames").glob("frame_*.svg"))
