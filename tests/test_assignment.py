import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from capsule_reference import capsule_free_reference, point_segment_distance
from graph_fixtures import circle_graph
from navigation_reference import free_mask_reference, nav_grid_reference
from test_conversion import bench_workloads
from swapmotion import assignment, pipeline
from swapmotion.assignment import (
    _clear_crowd,
    _detour_route,
    _free_sidestep,
    _grid_route,
    _min_cost_columns,
    _stamp_disks,
    _static_free,
    _string_pull,
    _two_leg_route,
    _via_candidates,
    grid_unreachable,
    navigate,
    optimal_assignment,
    radial_hints,
)
from swapmotion.errors import AssignmentFailure, TooFewSlots
from swapmotion.fileio import AgentSpec, Scenario, load_json, scenario_from_dict
from swapmotion.geometry import Disk, Point2, Polygon, dist, rectangle_workspace
from swapmotion.medial_axis import extract_medial_axis
from swapmotion.swap_graph import Occupancy
from swapmotion.trajectory import record_end, verify_trajectories

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def brute_force_cost(starts, slots):
    best = math.inf
    for perm in itertools.permutations(range(len(slots)), len(starts)):
        cost = sum(dist(starts[i], slots[j]) for i, j in enumerate(perm))
        best = min(best, cost)
    return best


class TestOptimalAssignment:
    def test_identity(self):
        pts = [Point2(0, 0), Point2(3, 1), Point2(5, 4)]
        asg = optimal_assignment(pts, pts)
        assert asg.total_cost == pytest.approx(0.0)
        assert asg.slot_of == [0, 1, 2]

    def test_non_identity_optimum(self):
        starts = [Point2(0, 0), Point2(1, 0), Point2(2, 0)]
        slots = [Point2(2.1, 0), Point2(0.1, 0), Point2(1.1, 0)]
        asg = optimal_assignment(starts, slots)
        assert asg.slot_of == [1, 2, 0]
        assert asg.total_cost == pytest.approx(0.3)

    def test_one_agent_two_slots(self):
        asg = optimal_assignment([Point2(0, 0)], [Point2(5, 0), Point2(1, 0)])
        assert asg.slot_of == [1]

    def test_too_few_slots(self):
        with pytest.raises(TooFewSlots):
            optimal_assignment([Point2(0, 0), Point2(1, 1)], [Point2(0, 0)])

    def test_nan_point_raises(self):
        with pytest.raises(ValueError):
            optimal_assignment([Point2(math.nan, 0.0)], [Point2(0, 0), Point2(1, 0)])

    def test_marginals(self):
        rng = random.Random(3)
        starts = [Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(6)]
        slots = [Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(9)]
        asg = optimal_assignment(starts, slots)
        assert len(asg.slot_of) == 6
        assert len(set(asg.slot_of)) == 6

    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(120):
            n = rng.randint(1, 6)
            m = rng.randint(n, n + 2)
            starts = [Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
            slots = [Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(m)]
            asg = optimal_assignment(starts, slots)
            assert asg.total_cost == pytest.approx(brute_force_cost(starts, slots))


def _random_costs(kind, seed):
    rng = np.random.default_rng(seed)
    nr = 1 if kind == "one_row" else int(rng.integers(2, 30))
    nc = nr if kind == "square" else nr + int(rng.integers(0, 30))
    if kind == "integer":
        # few distinct values: many tied paths
        return rng.integers(0, int(rng.integers(1, 5)), size=(nr, nc)).astype(float)
    cost = rng.random((nr, nc))
    if kind == "duplicate_rows":
        cost[1::2] = cost[: nr // 2 * 2 : 2]
    return cost


class TestMinCostColumns:
    """The in-package solver returns scipy's `linear_sum_assignment` columns."""

    @pytest.mark.parametrize("kind", ["real", "integer", "square", "one_row", "duplicate_rows"])
    def test_matches_scipy(self, kind):
        for seed in range(100):
            cost = _random_costs(kind, seed)
            rows, cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, np.arange(len(cost)))
            assert np.array_equal(_min_cost_columns(cost), cols), seed

    def test_constant_matrix_gives_the_identity(self):
        assert list(_min_cost_columns(np.ones((4, 7)))) == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_raises(self, bad):
        cost = np.ones((3, 4))
        cost[1, 2] = bad
        with pytest.raises(ValueError):
            _min_cost_columns(cost)

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_scenarios_match_scipy(self, path):
        s = scenario_from_dict(load_json(path))
        g = pipeline.convert_scenario(s).graph
        slots = np.asarray([g.positions[v] for v in g.vertex_ids()], dtype=float)
        for points in (s.starts(), s.goals()):
            pts = np.asarray(points, dtype=float)
            if len(pts) > len(slots):
                continue  # TooFewSlots; nothing to assign
            cost = np.linalg.norm(pts[:, None, :] - slots[None, :, :], axis=2)
            assert np.array_equal(_min_cost_columns(cost), linear_sum_assignment(cost)[1])


def test_cli_and_pipeline_import_without_scipy():
    import swapmotion

    code = (
        "import json, sys, swapmotion.cli, swapmotion.pipeline; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(swapmotion.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []


def distance_grid(w, r):
    """The distance grid that conversion hands navigation: the medial axis's
    at 0.5r."""
    return extract_medial_axis(w, 0.5 * r).grid


def plain_navigate(points, targets, w, r):
    """`navigate` with the agents named by their rows, no hints and one phase."""
    n = len(points)
    return navigate(
        list(range(n)), np.array(points, dtype=float), np.array(targets, dtype=float), w, r,
        [np.empty((0, 2))] * n, [0] * n, distance_grid(w, r),
    )


class TestNavigate:
    def test_already_at_targets(self):
        w = rectangle_workspace(10, 10)
        cur = [Point2(3, 3), Point2(7, 7)]
        out = plain_navigate(cur, cur, w, 1.0)
        assert out.ok
        assert out.trajectory.horizon == 0.0

    def test_single_straight_line(self):
        w = rectangle_workspace(10, 10)
        out = plain_navigate([Point2(2, 5)], [Point2(8, 5)], w, 1.0)
        assert out.ok
        assert out.trajectory.horizon == pytest.approx(6.0)

    def test_crossing_pair_resolved_sequentially(self):
        w = rectangle_workspace(12, 12)
        cur = [Point2(2, 6), Point2(10, 6)]
        tgt = [Point2(10, 6), Point2(2, 6)]
        out = plain_navigate(cur, tgt, w, 1.0)
        assert out.ok
        rep = verify_trajectories(out.trajectory, w, 1.0)
        assert rep.ok, rep.violations[:3]

    def test_navigate_to_vertices_roundtrip(self):
        w = rectangle_workspace(20.0, 20.0)
        res = circle_graph([Disk(Point2(10, 10), 6.0)], w=w)
        rng = np.random.default_rng(5)
        starts = []
        while len(starts) < 6:
            p = Point2(float(rng.uniform(1.5, 18.5)), float(rng.uniform(1.5, 18.5)))
            if all(dist(p, q) >= 2.0 for q in starts):
                starts.append(p)
        vids = res.graph.vertex_ids()
        asg = optimal_assignment(starts, [res.graph.positions[v] for v in vids])
        targets = [vids[j] for j in asg.slot_of]
        out = navigate(
            list(range(6)),
            np.array(starts),
            np.array([res.graph.positions[v] for v in targets]),
            w,
            1.0,
            [radial_hints(res, v, 1.0) for v in targets],
            [min(res.loop_layer[li][1] for li in res.graph.loops_of(v)) for v in targets],
            distance_grid(w, 1.0),
        )
        assert out.ok, out.stuck_agents
        rep = verify_trajectories(out.trajectory, w, 1.0)
        assert rep.ok, rep.violations[:3]
        for i, v in enumerate(targets):
            tr = out.trajectory.segments[i]
            end = record_end(tr.kind[-1], tr.par[-1])
            assert dist(end, res.graph.positions[v]) < 1e-9

    @pytest.mark.parametrize("short", ["points", "targets", "hints", "phases"])
    def test_a_row_count_mismatch_raises(self, short):
        """A target left out used to crash with a TypeError once a stall
        sidestepped that agent: in this 30 x 10 room the box over the
        corridor blocks agent 0, and agent 1, which had no target, was
        nudged and re-queued with no rank."""
        w = rectangle_workspace(30, 10, [Polygon(
            (Point2(8, 3), Point2(22, 3), Point2(22, 10), Point2(8, 10))
        )])
        args = {
            "points": np.array([(3.0, 1.5), (23.5, 1.5)]),
            "targets": np.array([(27.0, 1.5), (23.5, 1.5)]),
            "hints": [np.empty((0, 2))] * 2,
            "phases": [0, 0],
        }
        args[short] = args[short][:1]
        with pytest.raises(ValueError, match="navigate: 2 agents but"):
            navigate([0, 1], args["points"], args["targets"], w, 1.0, args["hints"],
                     args["phases"], distance_grid(w, 1.0))


# Scalar versions of the via loops: one capsule per via, checked in order.
def _free(a, b, w, r, others) -> bool:
    return capsule_free_reference(a, b, r, w, others)


def scalar_detour(a, b, w, r, others, vias):
    best = None
    for v in vias:
        extra = dist(a, v) + dist(v, b)
        if best is not None and extra >= best[0]:
            continue
        if dist(a, v) < 1e-12 or dist(v, b) < 1e-12:
            continue
        if _free(a, v, w, r, others) and _free(v, b, w, r, others):
            best = (extra, v)
    return None if best is None else [a, best[1], b]


def scalar_two_leg(a, b, w, r, others, hints, vias):
    for h in hints:
        if dist(h, b) < 1e-12 or not _free(h, b, w, r, others):
            continue
        if _free(a, h, w, r, others):
            return [a, h, b]
        for v in vias or []:
            if dist(a, v) < 1e-12 or dist(v, h) < 1e-12:
                continue
            if _free(a, v, w, r, others) and _free(v, h, w, r, others):
                return [a, v, h, b]
    return None


def scalar_sidestep(p, away_from, w, r, others, vias):
    best = None
    for v in vias:
        d = dist(p, v)
        if d < 2 * r:
            continue
        seg_clear = point_segment_distance(v, away_from[0], away_from[1])
        if seg_clear < 2.5 * r:
            continue
        score = d - 0.1 * seg_clear
        if best is not None and score >= best[0]:
            continue
        if all(dist(v, o) >= 2 * r for o in others) and _free(p, v, w, r, others):
            best = (score, v)
    return None if best is None else best[1]


def scalar_string_pull(waypoints, w, r, others):
    out = [waypoints[0]]
    k = 0
    while k < len(waypoints) - 1:
        for j in range(len(waypoints) - 1, k, -1):
            if dist(out[-1], waypoints[j]) <= 1e-12 or _free(out[-1], waypoints[j], w, r, others):
                break
        else:
            return None
        out.append(waypoints[j])
        k = j
    return out


def _route_scene(rng):
    """A 20 x 14 room with up to three boxes, crowded by 4-12 parked agents."""
    boxes = []
    for _ in range(rng.randint(0, 3)):
        x0, y0 = rng.uniform(3, 15), rng.uniform(3, 9)
        x1, y1 = x0 + rng.uniform(1, 4), y0 + rng.uniform(1, 3)
        boxes.append(Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))))
    w = rectangle_workspace(20, 14, boxes)
    r = 1.0
    free = [Point2(*p) for p in _via_candidates(w, r, 1.3).tolist()]
    rng.shuffle(free)
    others = np.array(free[: rng.randint(4, 12)])
    return w, r, others, free


def _rows(points):
    """Points (a route, or one point) as nested lists of floats, or None."""
    return None if points is None else np.asarray(points, dtype=float).tolist()


def test_batched_via_loops_return_the_scalar_routes():
    rng = random.Random(21)
    found = {"detour": 0, "two_leg": 0, "sidestep": 0, "pull": 0}
    for _ in range(25):
        w, r, others, free = _route_scene(rng)
        vias = _via_candidates(w, r, 2.5 * r)
        points = [Point2(*v) for v in vias.tolist()]  # the scalar references' form
        for _ in range(4):
            a, b = rng.sample(free, 2)
            hints = rng.sample(free, 4) + [b]
            xa, xb, xhints = np.array(a), np.array(b), np.array(hints)
            got = _detour_route(xa, xb, w, r, others, vias)
            assert _rows(got) == _rows(scalar_detour(a, b, w, r, others, points))
            found["detour"] += got is not None
            got = _two_leg_route(xa, xb, w, r, others, xhints, vias)
            assert _rows(got) == _rows(scalar_two_leg(a, b, w, r, others, hints, points))
            found["two_leg"] += got is not None
            seg = (b, rng.choice(free))
            got = _free_sidestep(xa, np.array(seg), w, r, others, vias)
            assert _rows(got) == _rows(scalar_sidestep(a, seg, w, r, others, points))
            found["sidestep"] += got is not None
            # a jittered polyline with a repeated point, as a grid route would give
            line = [a] + rng.sample(free, rng.randint(1, 6)) + [b]
            line.insert(rng.randint(1, len(line) - 1), line[rng.randint(0, len(line) - 1)])
            got = _string_pull(np.array(line), w, r, others)
            assert _rows(got) == _rows(scalar_string_pull(line, w, r, others))
            found["pull"] += got is not None
    assert min(found.values()) >= 10, found


def scalar_clear_crowd(blocked, pos, targets, w, r, vias, sidestep):
    """`_clear_crowd` over a dict of positions, one scalar distance at a time:
    the agents within 2.2r of a blocked agent's direct route, nearest first
    and ties in the order of `pos` (the row order), waiting agents before
    parked ones."""
    for parked_ok in (False, True):
        for a in blocked:
            seg = (pos[a], targets[a])
            near = {x: point_segment_distance(p, *seg) for x, p in pos.items() if x != a}
            crowd = [x for x in near if near[x] < 2.2 * r]
            for b in sorted(crowd, key=lambda x: near[x]):
                if dist(pos[b], targets[b]) <= 1e-12 and not parked_ok:
                    continue
                others = np.array([p for x, p in pos.items() if x != b])
                spot = sidestep(pos[b], seg, w, r, others, vias)
                if spot is not None:
                    return b, spot
    return None


def test_clear_crowd_picks_the_scalar_crowd_in_order(monkeypatch):
    rng = random.Random(31)
    found = {"tried": 0, "parked_tried": 0, "ties": 0, "nudged": 0}
    for _ in range(30):
        w, r, _, free = _route_scene(rng)
        vias = _via_candidates(w, r, 2.5 * r)
        pts = []
        for p in free:
            if all(dist(p, q) >= 2 * r for q in pts):
                pts.append(p)
        pts = pts[: rng.randint(5, 14)]
        agents = rng.sample(range(40), len(pts))  # names in neither row nor repr order
        pos = dict(zip(agents, pts))
        targets = {}
        for x, p in pos.items():
            # targets in line with p, so that two crowding agents can tie on distance
            in_line = [q for q in free if q != p and (q.x == p.x or q.y == p.y)]
            kind = rng.random()
            targets[x] = p if kind < 0.3 else rng.choice(in_line if kind < 0.65 else free)
        moving = [x for x in agents if targets[x] != pos[x]]
        blocked = moving[: rng.randint(1, 3)]
        centres, goals = np.array(pts), np.array([targets[x] for x in agents])
        rows = [agents.index(x) for x in blocked]
        # with every sidestep failing, each crowding agent is tried, in order
        tried, expect = [], []
        with monkeypatch.context() as m:
            m.setattr(
                assignment, "_free_sidestep",
                lambda p, seg, *rest: tried.append((_rows(p), _rows(seg))),
            )
            assert _clear_crowd(rows, centres, goals, w, r, vias, None) is None
        scalar_clear_crowd(
            blocked, pos, targets, w, r, vias,
            lambda p, seg, *rest: expect.append((_rows(p), _rows(seg))),
        )
        assert tried == expect
        parked = {tuple(p) for x, p in pos.items() if targets[x] == p}
        found["tried"] += len(tried)
        found["parked_tried"] += sum(tuple(p) in parked for p, _ in tried)
        for a in blocked:
            near = [point_segment_distance(p, pos[a], targets[a]) for p in pos.values()]
            near = [d for d in near if 0 < d < 2.2 * r]
            found["ties"] += len(near) > len(set(near))  # the row breaks the tie
        # the nudge itself
        emitted = []
        got = _clear_crowd(
            rows, centres, goals, w, r, vias,
            lambda k, route: emitted.append((agents[k], _rows(route))),
        )
        want = scalar_clear_crowd(blocked, pos, targets, w, r, vias, scalar_sidestep)
        if want is None:
            assert got is None and emitted == []
        else:
            assert agents[got] == want[0]
            assert emitted == [(want[0], _rows([pos[want[0]], want[1]]))]
            found["nudged"] += 1
    assert min(found.values()) >= 3, found


def test_a_repeated_sidestep_ends_the_stall(monkeypatch):
    """obstacles_30's goal leg, as the pipeline first runs it, leaves agent 17
    stuck. Each sidestep of the parked agent 19 was undone by 19 moving
    straight back, 192 times until the budget ran out; a state that repeats
    after a sidestep now ends the stall at once, with the same stuck agents."""
    s = scenario_from_dict(load_json(SCENARIOS / "obstacles_30.json"))
    res = pipeline.convert_scenario(s)
    vids = res.graph.vertex_ids()
    asg = optimal_assignment(s.goals(), [res.graph.positions[v] for v in vids])
    legs = []
    monkeypatch.setattr(
        pipeline, "navigate", lambda *a, **k: legs.append((a, k)) or navigate(*a, **k)
    )
    ids = [a.id for a in s.agents]
    leg, _ = pipeline._navigate_with_retries(s, res, vids, ids, asg, s.goals())
    assert leg.ok and len(legs) == 2  # the spare-slot retry succeeds
    sidesteps = []
    clear_crowd = assignment._clear_crowd
    monkeypatch.setattr(
        assignment, "_clear_crowd", lambda *a: sidesteps.append(a) or clear_crowd(*a)
    )
    assert leg.counters["retries"] == 1
    args, kwargs = legs[0]
    first = navigate(*args, **kwargs)
    assert first.stuck_agents == [17]
    assert len(sidesteps) <= 3
    assert first.counters["sidesteps"] <= len(sidesteps)
    # the sums over both attempts
    second = navigate(*legs[1][0], **legs[1][1])
    for key, n in first.counters.items():
        assert leg.counters[key] == n + second.counters[key]


def _stamp_scene(rng, grid, r, n):
    """n centres: inside the grid, on and across its bounds, and some on a
    cell centre, whose reach of 2r ends on cell centres when 2r is a whole
    number of cells."""
    x0, x1, y0, y1 = grid.xs[0], grid.xs[-1], grid.ys[0], grid.ys[-1]
    hx = grid.xs[1] - grid.xs[0]
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            c = Point2(rng.uniform(x0, x1), rng.uniform(y0, y1))
        elif kind == 1:  # on the bounds, or partly outside the grid
            edge = rng.choice([x0 - hx / 2, x1 + hx / 2, x0 - 2 * r, x1 + 1.3 * r])
            c = Point2(edge, rng.uniform(y0 - 3 * r, y1 + 3 * r))
        elif kind == 2:
            edge = rng.choice([y0 - hx / 2, y1 + hx / 2, y0 - 2.5 * r, y1 + 0.7 * r])
            c = Point2(rng.uniform(x0 - 3 * r, x1 + 3 * r), edge)
        else:  # on a cell centre
            i, j = rng.randrange(len(grid.xs)), rng.randrange(len(grid.ys))
            c = Point2(float(grid.xs[i]), float(grid.ys[j]))
        out.append(c)
    return np.array(out, dtype=float).reshape(-1, 2)


@pytest.mark.parametrize("scene", ["rectangle", "whole_cells", "obstacles_30"])
def test_stamped_mask_matches_the_distance_array(scene):
    if scene == "rectangle":
        w, r = rectangle_workspace(23, 13), 0.9
    elif scene == "whole_cells":  # cells of exactly r / 2, so 2r is four cells
        w, r = rectangle_workspace(24, 13), 1.0
    else:
        s = scenario_from_dict(load_json(SCENARIOS / "obstacles_30.json"))
        w, r = s.workspace, s.r
    grid = distance_grid(w, r)
    ref = nav_grid_reference(w, r)
    if scene == "whole_cells":
        assert grid.xs[1] - grid.xs[0] == grid.ys[1] - grid.ys[0] == r / 2
    clearance = grid.clearance.copy()
    rng = random.Random(12)
    cleared = 0
    for n in [0, 1, 2, 5, 20, 60] * 5:
        others = _stamp_scene(rng, grid, r, n)
        got = _stamp_disks(grid, others, r)
        assert np.array_equal(got, free_mask_reference(ref, others, r))
        cleared += int(ref.free.sum() - got.sum())
    assert np.array_equal(grid.clearance, clearance)  # the distance grid is not touched
    assert cleared > 1000


def _mask_scenes(scene):
    """(workspace, r) pairs of a `test_static_mask_equals_the_router_grid_reference` case."""
    if scene == "tangent_box":  # cells of r / 2, centres at 0.25 + k / 2
        box = [(7.25, 4.25), (10.25, 4.25), (10.25, 8.25), (7.25, 8.25)]
        return [(rectangle_workspace(24, 13, [Polygon(tuple(Point2(*p) for p in box))]), 1.0)]
    if scene == "rectangle":  # 23 / 0.45 and 13 / 0.45 are not whole numbers
        return [(rectangle_workspace(23, 13), 0.9)]
    if scene.startswith("fuzz_small_"):
        scenes = bench_workloads().build(ROOT, "fuzz_small", int(scene[11:]))
        return [(sc.scenario.workspace, sc.scenario.r) for sc in scenes]
    s = scenario_from_dict(load_json(SCENARIOS / f"{scene}.json"))
    return [(s.workspace, s.r)]


@pytest.mark.parametrize(
    "scene",
    ["corridor_narrow_4", "grid_20", "maple_approx_24", "obstacles_30", "rect_100", "rect_12",
     "rect_50", "tangent_box", "rectangle", "fuzz_small_1", "fuzz_small_2"],
)
def test_static_mask_equals_the_router_grid_reference(scene):
    """The router reads its static mask off the medial axis's distance grid.
    It equals the mask of the router's former own grid, tested disk by disk
    with `disks_free`, on the same cell centres. In `tangent_box` the box's
    sides lie exactly r from rows and columns of cell centres, so the mask's
    threshold is tested at equality."""
    for w, r in _mask_scenes(scene):
        grid, ref = distance_grid(w, r), nav_grid_reference(w, r)
        assert np.array_equal(grid.xs, ref.xs) and np.array_equal(grid.ys, ref.ys)
        assert np.array_equal(_static_free(grid, r), ref.free)
        assert ref.free.any()
        if scene == "tangent_box":
            assert (grid.clearance == r).sum() > 20


class TestGridRoute:
    """A wall of touching disks across a 20 x 12 room at x = 10, open only
    where the disks at y = 5 and 7 are missing."""

    R = 1.0
    W = rectangle_workspace(20, 12)

    def wall(self, gap):
        return np.array([(10.0, y) for y in (1, 3, 5, 7, 9, 11) if y not in gap]).reshape(-1, 2)

    def test_routes_through_the_gap(self):
        a, b = Point2(3, 2), Point2(17, 2)
        others = self.wall(gap=(5, 7))
        assert not capsule_free_reference(a, b, self.R, self.W, others)
        route = _grid_route(np.array(a), np.array(b), self.W, self.R, others,
                            distance_grid(self.W, self.R))
        assert route is not None
        route = [Point2(*p) for p in route.tolist()]
        assert route[0] == a and route[-1] == b
        for p, q in zip(route, route[1:]):
            assert capsule_free_reference(p, q, self.R, self.W, others)
        crossing = [
            p.y + (q.y - p.y) * (10 - p.x) / (q.x - p.x)
            for p, q in zip(route, route[1:])
            if (p.x - 10) * (q.x - 10) < 0
        ]
        assert len(crossing) == 1 and 5 <= crossing[0] <= 7

    def test_none_once_the_gap_is_sealed(self):
        a, b = np.array([3.0, 2.0]), np.array([17.0, 2.0])
        grid = distance_grid(self.W, self.R)
        assert _grid_route(a, b, self.W, self.R, self.wall(gap=()), grid) is None
        # the grid is reused as is: sealing one call leaves the next open
        assert _grid_route(a, b, self.W, self.R, self.wall(gap=(5, 7)), grid) is not None


def test_grid_unreachable_names_the_sealed_agents_in_order():
    """The agents of `walled_pocket.json`: only a point in the sealed pocket
    has no grid path to a slot outside it."""
    s = scenario_from_dict(load_json(Path(__file__).parent / "data" / "walled_pocket.json"))
    w, r = s.workspace, s.r
    grid = distance_grid(w, r)
    slots = [Point2(15.0, 15.0), Point2(25.0, 5.0)]
    pocket, outside = Point2(6.5, 6.5), Point2(2.0, 2.0)
    assert grid_unreachable([outside, pocket, pocket], slots, w, r, grid) == [1, 2]
    assert grid_unreachable(np.array(s.starts()[1:]), slots, w, r, grid) == []
    assert grid_unreachable([outside], [pocket], w, r, grid) == [0]


@pytest.fixture(scope="module", params=["rect_12", "grid_20"])
def shipped_run(request):
    s = scenario_from_dict(load_json(SCENARIOS / f"{request.param}.json"))
    return s, pipeline.run_pipeline(s)[0]


@pytest.mark.parametrize("rename", ["plus_one", "reversed"])
def test_renaming_agents_does_not_change_the_plan(shipped_run, rename):
    """Assignment and navigation key an agent by its row, so new ids change
    no motion. Ids + 1 used to raise a KeyError, and reversed ids gave each
    agent another agent's slots (rect_12's horizon grew 1072 -> 1405)."""
    s, base = shipped_run
    ids = [a.id for a in s.agents]
    new = [i + 1 for i in ids] if rename == "plus_one" else ids[::-1]
    agents = [AgentSpec(i, a.start, a.goal) for i, a in zip(new, s.agents)]
    run, art = pipeline.run_pipeline(Scenario(s.name, s.workspace, s.r, agents, s.params))
    assert run.success and run.violations == 0
    ts = art.trajectory
    assert sorted(ts.segments) == sorted(new)
    for a in agents:
        assert dist(ts.position(a.id, 0.0), a.start) <= 1e-9 * s.r
        assert dist(ts.position(a.id, ts.horizon), a.goal) <= 1e-9 * s.r
    assert (run.op_count, run.horizon) == (base.op_count, base.horizon)


@pytest.mark.parametrize(
    "error, expect", [(TooFewSlots("3 agents but only 2 slots"), AssignmentFailure),
                      (ValueError("cost matrix has a non-finite entry"), AssignmentFailure),
                      (RuntimeError("a bug"), RuntimeError)],
    ids=["too_few_slots", "value_error", "bug"],
)
def test_only_assignment_errors_become_assignment_failures(monkeypatch, error, expect):
    """What `optimal_assignment` raises on its input is the stage's typed
    failure (exit 4); any other exception is a bug and propagates as is."""
    def fail(*args):
        raise error

    monkeypatch.setattr(pipeline, "optimal_assignment", fail)
    s = scenario_from_dict(load_json(SCENARIOS / "rect_12.json"))
    with pytest.raises(expect) as e:
        pipeline.run_pipeline(s)
    assert str(error) in str(e.value)
