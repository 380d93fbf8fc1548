import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from swapmotion.capacity import loop_capacity, port_gap, safe_layer_count, slot_pitch
from swapmotion.conversion import (
    GapCorridor,
    PathCorridor,
    RadialCorridor,
    corners,
    greedy_convert,
)
from swapmotion.errors import PreconditionViolated
from swapmotion.fileio import graph_to_dict, load_json, scenario_from_dict
from swapmotion.geometry import (
    Disk,
    Point2,
    Polygon,
    Rect,
    Workspace,
    boundary_distance_many,
    dist,
    point_segment_distances,
    rectangle_workspace,
)
from swapmotion.medial_axis import extract_medial_axis, sample_circles
from swapmotion.pipeline import convert_scenario

from conversion_reference import corridor_route_reference, mid_waypoints_reference
from graph_fixtures import circle_graph

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def pairwise_min_distance(res):
    g = res.graph
    pts = np.array([g.positions[v] for v in g.vertex_ids()])
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    return math.sqrt(d2.min())


class TestSingleCircle:
    def test_too_small_returns_none(self):
        assert circle_graph([Disk(Point2(0, 0), 1.9)]) is None
        assert circle_graph([Disk(Point2(0, 0), 4.5)]) is None

    def test_two_ring_circle(self):
        res = circle_graph([Disk(Point2(3, 4), 5.0)])
        assert res is not None
        assert res.graph.K == 2
        assert res.graph.num_vertices() == loop_capacity(1) + loop_capacity(2)
        assert res.graph.violations() == []
        assert len(res.graph.inter_edges) == 1
        assert pairwise_min_distance(res) >= 2.0 - 1e-9

    def test_layer_counts_match_capacity(self):
        res = circle_graph([Disk(Point2(0, 0), 9.0)])
        assert res is not None
        for li, (circle, ring) in enumerate(res.loop_layer):
            assert len(res.graph.loops[li]) == loop_capacity(ring)

    def test_vertices_inside_circle(self):
        c = Disk(Point2(0, 0), 7.0)
        res = circle_graph([c])
        for v in res.graph.vertex_ids():
            assert dist(res.graph.positions[v], c.center) <= c.radius - 1.0 + 1e-9

    def test_radial_ports_anchor_connectors(self):
        res = circle_graph([Disk(Point2(0, 0), 9.0)])
        radials = [
            k for k in res.inter_edge_kind.values() if isinstance(k, RadialCorridor)
        ]
        assert len(radials) == res.graph.K - 1
        assert_radials_anchored(res)


def _ring_on(res, v, circle):
    """The loop of `circle` that vertex v lies on, and its ring."""
    ((li, ring),) = [
        (li, res.loop_layer[li][1]) for li in res.graph.loops_of(v)
        if res.loop_layer[li][0] == circle
    ]
    return li, ring


def assert_radials_anchored(res):
    """Every radial corridor joins a slot of its outer ring to one of its
    inner ring, and the outer end is a port: its cycle neighbours are at
    least `port_gap(outer_ring)` away in angle, so the descent clears them.
    Realization takes the end on the outer ring for the corridor's outer end."""
    g = res.graph
    for e, kind in res.inter_edge_kind.items():
        if not isinstance(kind, RadialCorridor):
            continue
        on = {x: _ring_on(res, x, kind.circle) for x in e}
        assert sorted(ring for _, ring in on.values()) == [kind.inner_ring, kind.outer_ring]
        u = max(e, key=lambda x: on[x][1])
        li = on[u][0]
        angles, p = res.slot_angles[li], g.slot[li][u]
        for q in (p - 1, p + 1):
            gap = abs(angles[q % len(angles)] - angles[p]) % (2 * math.pi)
            assert min(gap, 2 * math.pi - gap) >= port_gap(kind.outer_ring) - 1e-9


def assert_slot_angles(res):
    """`slot_angles[li][p]` is the angle of slot `loops[li][p]` about the
    centre of ring `loop_layer[li]`'s circle, in [0, 2 pi], as `_build`
    computes it, and it grows strictly along the cycle."""
    g = res.graph
    assert len(res.slot_angles) == len(res.loop_layer) == g.K
    for cyc, (circle, ring), angles in zip(g.loops, res.loop_layer, res.slot_angles):
        assert len(angles) == len(cyc)
        c = res.circles[circle].center
        for v, a in zip(cyc, angles):
            p = g.positions[v]
            assert a == math.atan2(p.y - c.y, p.x - c.x) % (2 * math.pi)
        assert all(a < b for a, b in zip(angles, angles[1:]))
        # a slot just below angle 0 can come out at 2 pi exactly, after x % (2 pi)
        assert 0.0 <= angles[0] and angles[-1] <= 2 * math.pi


class TestSlotTable:
    """The slot angles and radial anchors realization reads without a check,
    on the shipped scenarios and on two seeds of the fuzz workload."""

    @staticmethod
    def check(res):
        assert_slot_angles(res)
        assert_radials_anchored(res)

    def test_shipped_scenarios(self):
        radials = 0
        for path in sorted(SCENARIOS.glob("*.json")):
            res = convert_scenario(scenario_from_dict(load_json(path)))
            self.check(res)
            radials += sum(isinstance(k, RadialCorridor) for k in res.inter_edge_kind.values())
        assert radials > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fuzz_small(self, seed):
        for scene in bench_workloads().build(ROOT, "fuzz_small", seed):
            self.check(convert_scenario(scene.scenario))

    def test_single_circles(self):
        for radius in (5.0, 7.0, 9.0):
            self.check(circle_graph([Disk(Point2(3, 4), radius)]))


class TestTwoCircles:
    def test_far_apart_disconnected(self):
        a = Disk(Point2(0, 0), 5.0)
        b = Disk(Point2(40, 0), 5.0)
        assert circle_graph([a, b]) is None

    def test_sharing_pair(self):
        a = Disk(Point2(0, 0), 5.0)
        b = Disk(Point2(7.5, 0), 5.0)
        res = circle_graph([a, b])
        assert res is not None
        shared = [v for v in res.graph.vertex_ids() if len(res.graph.loops_of(v)) > 1]
        assert len(shared) == 2
        assert res.graph.violations() == []
        assert pairwise_min_distance(res) >= 2.0 - 1e-7

    def test_shared_slot_in_graph_json(self):
        """graph.json lists a shared slot's two rings in loop order (circle
        0's before circle 1's), each with the slot's angle about its circle."""
        res = circle_graph([Disk(Point2(0, 0), 5.0), Disk(Point2(7.5, 0), 5.0)])
        rings = graph_to_dict(res)["vertex_rings"]
        shared = {int(v): entry for v, entry in rings.items() if len(entry) > 1}
        assert len(shared) == 2
        for v, entry in shared.items():
            assert [[c, k] for c, k, _ in entry] == [[0, 2], [1, 2]]
            p = res.graph.positions[v]
            for c, _, ang in entry:
                center = res.circles[c].center
                assert ang == math.atan2(p.y - center.y, p.x - center.x) % (2 * math.pi)

    def test_gap_corridor_pair(self):
        a = Disk(Point2(0, 0), 5.0)
        b = Disk(Point2(8.6, 0), 5.0)
        res = circle_graph([a, b])
        assert res is not None
        gaps = [k for k in res.inter_edge_kind.values() if isinstance(k, GapCorridor)]
        assert gaps
        assert res.graph.violations() == []
        assert assert_routes_match_reference(res) == {"GapCorridor"}

    def test_center_inside_violates_precondition(self):
        a = Disk(Point2(0, 0), 5.0)
        b = Disk(Point2(3.0, 0), 5.0)
        with pytest.raises(PreconditionViolated):
            circle_graph([a, b])
        # inside by far less than 1e-9 of the radius: the build rejects the set
        # by the test `classify_pair` raises CenterContained on
        with pytest.raises(PreconditionViolated):
            circle_graph([a, Disk(Point2(5 - 1e-10, 0), 3.0)])


def assert_routes_match_reference(res) -> set[str]:
    """Every gap and path connector has exactly the reference route, from
    slot e[0] to slot e[1]; returns the connector kinds seen."""
    connectors = {
        e: k for e, k in res.inter_edge_kind.items() if not isinstance(k, RadialCorridor)
    }
    assert set(res.routes) == set(connectors)
    for e in connectors:
        route = res.routes[e]
        assert route == tuple(corridor_route_reference(res, e))
        assert route[0] == res.graph.positions[e[0]]
        assert route[-1] == res.graph.positions[e[1]]
    return {type(k).__name__ for k in connectors.values()}


class TestConvertCircles:
    def test_single_circle_reduction(self):
        """A lone circle's graph depends on neither the room around it nor
        the skeleton of that room."""
        c = Disk(Point2(12, 8), 6.0)
        w = rectangle_workspace(30.0, 16.0)
        roomy = circle_graph([c], w=w, skeleton=extract_medial_axis(w, 0.5))
        tight = circle_graph([c])
        assert roomy.graph.num_vertices() == tight.graph.num_vertices()
        assert roomy.graph.positions == tight.graph.positions
        assert roomy.graph.loops == tight.graph.loops

    def test_triple_intersection_rejected(self):
        circles = [
            Disk(Point2(0, 0), 5.0),
            Disk(Point2(5.5, 0), 5.0),
            Disk(Point2(2.75, 4.5), 5.0),
        ]
        with pytest.raises(PreconditionViolated):
            circle_graph(circles)

    def test_corridor_connects_far_circles(self):
        w = rectangle_workspace(64.0, 12.0)
        skeleton = extract_medial_axis(w, 0.5)
        circles = sample_circles(skeleton, 20.0, 2, 1.0)
        assert len(circles) == 2
        res = circle_graph(circles, w=w, skeleton=skeleton)
        assert res is not None
        kinds = list(res.inter_edge_kind.values())
        assert any(isinstance(k, PathCorridor) for k in kinds)
        assert res.graph.violations() == []
        # the route runs from slot e[0] through the skeleton waypoints to e[1]
        assert assert_routes_match_reference(res) == {"PathCorridor"}
        e, kind = next(
            (e, k) for e, k in res.inter_edge_kind.items() if isinstance(k, PathCorridor)
        )
        route = np.array(res.routes[e])
        assert len(route) > 2
        # stored as corners, it still passes through every waypoint outside
        # both circles
        mid = np.array(mid_waypoints_reference(circles, kind))
        assert len(mid) > len(route)
        d = point_segment_distances(mid[:, None], route[None, :-1], route[None, 1:])
        assert d.min(axis=1).max() <= 1e-12


class TestWorkspaceChecks:
    """`_build` rejects slots near the boundary and routes through obstacles."""

    def test_slot_within_r_of_a_wall_rejects_the_set(self):
        c = Disk(Point2(0, 0), 5.0)
        assert circle_graph([c]) is not None  # its bounding box clears every slot
        # the top wall cuts to 0.7 above ring 2 (radius 4)
        assert circle_graph([c], w=Workspace(Rect(-5, -5, 5, 4.7))) is None

    def test_slot_within_r_of_an_obstacle_edge_rejects_the_set(self):
        c = Disk(Point2(0, 0), 5.0)
        res = circle_graph([c])
        assert Point2(4.0, 0.0) in res.graph.positions.values()  # ring 2's port
        pin = Polygon((Point2(4.5, -0.2), Point2(4.9, -0.2), Point2(4.9, 0.2), Point2(4.5, 0.2)))
        assert circle_graph([c], w=Workspace(Rect(-5, -5, 5, 5), (pin,))) is None

    def test_gap_connector_through_a_wall_is_dropped(self):
        """Three circles joined pairwise by gap connectors; a thin wall across
        the 0-2 connector's capsule, at least r from every slot, removes that
        connector alone."""
        h = 8.8 * math.sqrt(3) / 2
        circles = [Disk(Point2(0, 0), 5.0), Disk(Point2(4.4, h), 5.0), Disk(Point2(8.8, 0), 5.0)]
        open_ = circle_graph(circles)
        gaps = {
            (k.circle_a, k.circle_b): e
            for e, k in open_.inter_edge_kind.items()
            if isinstance(k, GapCorridor)
        }
        assert set(gaps) == {(0, 1), (0, 2), (1, 2)}
        wall = Polygon((Point2(4.35, -3.0), Point2(4.45, -3.0), Point2(4.45, -1.6),
                        Point2(4.35, -1.6)))
        w = Workspace(Rect(-5, -5, 13.8, h + 5), (wall,))
        slots = np.array(list(open_.graph.positions.values()))
        assert (boundary_distance_many(slots, w) >= 1.0 - w.tol).all()
        walled = circle_graph(circles, w=w)
        assert walled.graph.positions == open_.graph.positions
        assert walled.graph.loops == open_.graph.loops
        assert set(walled.graph.inter_edges) == set(open_.graph.inter_edges) - {gaps[(0, 2)]}
        assert gaps[(0, 2)] not in walled.routes


class TestRouteTable:
    """`ConversionResult.routes` equals the route rebuilt from each corridor
    (the 64 x 12 two-circle case is `test_corridor_connects_far_circles`)."""

    def test_shipped_scenarios(self):
        kinds = set()
        for path in sorted(SCENARIOS.glob("*.json")):
            s = scenario_from_dict(load_json(path))
            kinds |= assert_routes_match_reference(convert_scenario(s))
        assert kinds == {"GapCorridor", "PathCorridor"}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fuzz_small(self, seed):
        for scene in bench_workloads().build(ROOT, "fuzz_small", seed):
            assert_routes_match_reference(convert_scenario(scene.scenario))


def polyline(*xy):
    return [Point2(float(x), float(y)) for x, y in xy]


class TestCorners:
    """`corners` keeps a route's ends, turns and reversals, nothing else."""

    def test_straight_run_collapses_to_its_ends(self):
        assert corners(polyline((0, 0), (0.5, 0), (1, 0), (3, 0))) == polyline((0, 0), (3, 0))
        assert corners(polyline((2, 1), (2, 1.5), (2, 4))) == polyline((2, 1), (2, 4))

    def test_repeated_point_goes(self):
        route = polyline((0, 0), (1, 0), (1, 0), (1, 1))
        assert corners(route) == polyline((0, 0), (1, 0), (1, 1))
        assert corners(polyline((0, 0), (0, 0), (1, 1))) == polyline((0, 0), (1, 1))

    def test_turn_and_doubling_back_stay(self):
        route = polyline((0, 0), (1, 0), (1, 1), (1, 0.5))
        assert corners(route) == route
        assert corners(polyline((0, 0), (2, 0), (1, 0))) == polyline((0, 0), (2, 0), (1, 0))

    def test_reversed_route_has_reversed_corners(self):
        route = polyline((0, 0), (0.5, 0), (1, 0), (1, 0), (1, 0.5), (1, 2), (0.5, 2.5), (0, 3))
        assert corners(route) == polyline((0, 0), (1, 0), (1, 2), (0, 3))
        assert corners(route[::-1]) == corners(route)[::-1]

    def test_random_grid_polylines(self):
        """On a 0.5 grid every product is exact: the corners have no repeated
        or straight-on interior point, every dropped point lies on them, and
        the reversed route has the reversed corners."""
        rng = random.Random(23)
        steps = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        for _ in range(500):
            x, y = rng.randint(-4, 4), rng.randint(-4, 4)
            pts = [(x, y)]
            for _ in range(rng.randint(1, 12)):
                dx, dy = rng.choice(steps)
                for _ in range(rng.randint(1, 3)):  # straight runs
                    x, y = x + dx, y + dy
                    pts.append((x, y))
            route = polyline(*((0.5 * a, 0.5 * b) for a, b in pts))
            out = corners(route)
            assert (out[0], out[-1]) == (route[0], route[-1])
            for a, b, c in zip(out, out[1:], out[2:]):
                u, v = (b.x - a.x, b.y - a.y), (c.x - b.x, c.y - b.y)
                assert u[0] * v[1] - u[1] * v[0] != 0 or u[0] * v[0] + u[1] * v[1] < 0
            kept = np.array(out)
            d = point_segment_distances(
                np.array(route)[:, None], kept[None, :-1], kept[None, 1:]
            )
            assert d.min(axis=1).max() <= 1e-12
            assert corners(route[::-1]) == out[::-1]


def bench_workloads():
    """`bench/workloads.py`, which builds the benchmark's scenes."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


class TestGreedy:
    def test_square_reaches_threshold(self):
        w = rectangle_workspace(24.0, 24.0)
        res = greedy_convert(w, 1.0, threshold=46)
        assert res.graph.num_vertices() >= 46
        assert res.graph.violations() == []

    def test_narrow_corridor_yields_empty(self):
        w = rectangle_workspace(40.0, 4.0)
        res = greedy_convert(w, 1.0)
        assert res.graph.num_vertices() == 0

    def test_early_stop_at_threshold(self):
        w = rectangle_workspace(40.0, 24.0)
        res = greedy_convert(w, 1.0, threshold=20)
        assert res.graph.num_vertices() >= 20

    def test_deterministic(self):
        w = rectangle_workspace(26.0, 18.0)
        a = greedy_convert(w, 1.0, threshold=60)
        b = greedy_convert(w, 1.0, threshold=60)
        assert a.graph.positions == b.graph.positions
        assert a.graph.loops == b.graph.loops
        assert sorted(a.graph.inter_edges) == sorted(b.graph.inter_edges)

    def test_condition_one_by_construction(self):
        w = rectangle_workspace(30.0, 20.0)
        res = greedy_convert(w, 1.0, threshold=80)
        assert pairwise_min_distance(res) >= 2.0 * (1 - 1e-7)
        from swapmotion.geometry import boundary_distance_many

        pts = np.array([res.graph.positions[v] for v in res.graph.vertex_ids()])
        assert (boundary_distance_many(pts, w) >= 1.0 - 1e-7).all()

    def test_promotes_circles_containing_starts(self):
        w = rectangle_workspace(48.0, 16.0)
        starts = [Point2(40.0, 8.0)]
        res = greedy_convert(w, 1.0, threshold=19, starts=starts)
        assert res.circles
        first = res.circles[0]
        assert dist(first.center, starts[0]) <= first.radius


_FRESH = """
import json, sys
from swapmotion.conversion import greedy_convert
from swapmotion.fileio import graph_to_dict, workspace_from_dict
w = workspace_from_dict(json.loads(sys.argv[1]))
print(json.dumps(graph_to_dict(greedy_convert(w, 1.0)), sort_keys=True))
"""


def test_consecutive_conversions_equal_fresh_ones():
    """Per-conversion memos (skeleton paths, capsule checks) do not leak
    from one greedy_convert call into the next."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import swapmotion
    from swapmotion.fileio import graph_to_dict, workspace_to_dict
    from swapmotion.geometry import Polygon

    def box(x0, y0, x1, y1):
        return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))

    spaces = [
        rectangle_workspace(40.0, 20.0, [box(14, 6, 26, 14)]),
        rectangle_workspace(40.0, 20.0, [box(14, 6, 26, 14), box(30, 0.5, 33, 5)]),
    ]
    in_a_row = [json.dumps(graph_to_dict(greedy_convert(w, 1.0)), sort_keys=True) for w in spaces]
    env = dict(os.environ, PYTHONPATH=str(Path(swapmotion.__file__).resolve().parents[1]))
    for w, got in zip(spaces, in_a_row):
        arg = json.dumps(workspace_to_dict(w))
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH, arg], env=env, capture_output=True, text=True, check=True
        ).stdout.strip()
        assert got == fresh
    assert in_a_row[0] != in_a_row[1]
