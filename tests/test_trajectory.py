import math
import random

import numpy as np
import pytest

from swapmotion.conversion import convert_single_circle, convert_two_circles
from swapmotion.errors import UnrealizableOp
from swapmotion.geometry import Disk, Point2, dist, rectangle_workspace
from swapmotion.planner import (
    LoopRotation,
    Plan,
    VacancySwap,
    apply_op,
    plan_permutation,
)
from swapmotion.swap_graph import Occupancy
from swapmotion.trajectory import (
    Hold,
    Line,
    MotionSegment,
    TrajectorySet,
    realize_plan,
    realize_type1,
    realize_type2,
    verify_trajectories,
)


def single_circle_setup(radius=5.0, hole_index=0):
    res = convert_single_circle(Disk(Point2(10.0, 10.0), radius), 1.0)
    verts = res.graph.vertex_ids()
    hole = verts[hole_index]
    occ = Occupancy({v: (None if v == hole else 100 + v) for v in verts})
    return res, occ


def _tile(segs, occ, res):
    """Wrap one op's moving segments into a full TrajectorySet with holds."""
    from swapmotion.trajectory import _with_holds

    dur = max((s.t1 for s in segs), default=0.0)
    full = _with_holds(res, occ.mapping, segs, dur)
    by_agent = {}
    for s in sorted(full, key=lambda s: (repr(s.agent), s.t0)):
        by_agent.setdefault(s.agent, []).append(s)
    return TrajectorySet(by_agent, dur)


class TestRealizeType1:
    def test_zero_steps_all_hold(self):
        res, occ = single_circle_setup()
        segs = realize_type1(res, LoopRotation(0, 0), occ)
        assert segs
        assert all(isinstance(s.path, Hold) for s in segs)

    def test_six_agent_ring_one_step(self):
        res, occ = single_circle_setup(hole_index=10)
        li = next(k for k, (c, ring) in enumerate(res.loop_layer) if ring == 1)
        segs = realize_type1(res, LoopRotation(li, 1), occ)
        arcs = [s for s in segs if not isinstance(s.path, Hold)]
        assert len(arcs) == 6
        for s in arcs:
            assert abs(s.path.angle1 - s.path.angle0) == pytest.approx(math.pi / 3)

    def test_spacing_preserved_during_rotation(self):
        res, occ = single_circle_setup(hole_index=0)
        li = next(k for k, (c, ring) in enumerate(res.loop_layer) if ring == 2)
        segs = realize_type1(res, LoopRotation(li, 2), occ)
        movers = [s for s in segs if not isinstance(s.path, Hold)]
        t1 = max(s.t1 for s in movers)
        for f in [k / 20 for k in range(21)]:
            pts = [s.position(f * t1) for s in movers]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert dist(pts[i], pts[j]) >= 2.0 - 1e-9

    def test_endpoints_exact(self):
        res, occ = single_circle_setup(hole_index=3)
        op = LoopRotation(1, 3)
        segs = realize_type1(res, op, occ)
        after = apply_op(occ, res.graph, op)
        finals = {s.agent: s.end_position() for s in segs}
        for v, agent in after.mapping.items():
            if agent is None or agent not in finals:
                continue
            assert dist(finals[agent], res.graph.positions[v]) < 1e-9


class TestRealizeType2:
    def test_ring_edge_swap_is_single_arc(self):
        res, occ = single_circle_setup(hole_index=0)
        hole = occ.vacant_vertex()
        cyc = next(c for c in res.graph.loops if hole in c)
        nxt = cyc[(cyc.index(hole) + 1) % len(cyc)]
        segs = realize_type2(res, VacancySwap(hole, nxt), occ)
        moving = [s for s in segs if not isinstance(s.path, Hold)]
        assert len(moving) == 1
        assert moving[0].agent == occ.mapping[nxt]

    def test_radial_swap_three_phases(self):
        res, occ = single_circle_setup(radius=7.0, hole_index=0)
        # find the radial connector and put the hole at its inner endpoint
        e = sorted(res.inter_edge_kind)[0]
        u, v = e
        hole = occ.vacant_vertex()
        # rebuild occupancy with the hole at v
        verts = res.graph.vertex_ids()
        occ = Occupancy({x: (None if x == v else 100 + x) for x in verts})
        segs = realize_type2(res, VacancySwap(u, v), occ)
        mover_segs = [s for s in segs if s.agent == 100 + u]
        assert any(isinstance(s.path, Line) for s in mover_segs)
        end = mover_segs[-1].end_position()
        assert dist(end, res.graph.positions[v]) < 1e-9

    def test_gap_corridor_swap_verifies(self):
        from swapmotion.conversion import GapCorridor

        a = Disk(Point2(10.0, 10.0), 5.0)
        b = Disk(Point2(18.6, 10.0), 5.0)
        res = convert_two_circles(a, b, 1.0)
        edge = next(
            e for e, k in res.inter_edge_kind.items() if isinstance(k, GapCorridor)
        )
        u, v = edge
        verts = res.graph.vertex_ids()
        occ = Occupancy({x: (None if x == v else 100 + x) for x in verts})
        segs = realize_type2(res, VacancySwap(u, v), occ)
        ts = _tile(segs, occ, res)
        w = rectangle_workspace(30.0, 20.0)
        rep = verify_trajectories(ts, w, 1.0, 0.02)
        assert rep.ok, rep.violations[:3]
        mover = [s for s in segs if s.agent == 100 + u]
        assert dist(mover[-1].end_position(), res.graph.positions[v]) < 1e-9

    def test_path_corridor_swap_verifies(self):
        from swapmotion.conversion import PathCorridor, convert_circles
        from swapmotion.medial_axis import extract_medial_axis, sample_circles

        w = rectangle_workspace(64.0, 12.0)
        skeleton = extract_medial_axis(w, 0.5)
        circles = sample_circles(skeleton, 20.0, 2, 1.0)
        res = convert_circles(circles, skeleton, 1.0, w)
        edge = next(
            e for e, k in res.inter_edge_kind.items() if isinstance(k, PathCorridor)
        )
        u, v = edge
        verts = res.graph.vertex_ids()
        occ = Occupancy({x: (None if x == v else 100 + x) for x in verts})
        segs = realize_type2(res, VacancySwap(u, v), occ)
        ts = _tile(segs, occ, res)
        rep = verify_trajectories(ts, w, 1.0, 0.02)
        assert rep.ok, rep.violations[:3]

    def test_swap_without_vacancy_unrealizable(self):
        res, occ = single_circle_setup(hole_index=0)
        hole = occ.vacant_vertex()
        others = [v for v in res.graph.vertex_ids() if v != hole]
        cyc = next(c for c in res.graph.loops if others[0] in c)
        a = others[0]
        b = cyc[(cyc.index(a) + 1) % len(cyc)]
        if b == hole:
            b = cyc[(cyc.index(a) - 1) % len(cyc)]
        with pytest.raises(UnrealizableOp):
            realize_type2(res, VacancySwap(a, b), occ)


class TestRealizePlan:
    def test_empty_plan_holds(self):
        res, occ = single_circle_setup()
        from swapmotion.planner import Plan

        ts = realize_plan(res, Plan([], occ, occ.copy()))
        assert ts.horizon == 0.0
        for a in ts.agents():
            assert all(isinstance(s.path, Hold) for s in ts.segments[a])

    def test_full_shuffle_verifies(self):
        res, occ = single_circle_setup(radius=6.0)
        rng = random.Random(4)
        verts = res.graph.vertex_ids()
        contents = [occ.mapping[v] for v in verts]
        rng.shuffle(contents)
        goal = Occupancy(dict(zip(verts, contents)))
        plan = plan_permutation(res.graph, occ, goal)
        ts = realize_plan(res, plan)
        w = rectangle_workspace(20.0, 20.0)
        rep = verify_trajectories(ts, w, 1.0, 0.05)
        assert rep.ok, rep.violations[:3]
        assert rep.min_pairwise >= 2.0 - 1e-6
        # each track opens with a hold at t = 0 and its records follow in
        # time order (holds between them are implicit); the horizon equals
        # the sum of op durations, so the last record of the run ends on it
        for a in ts.agents():
            segs = list(ts.segments[a])
            assert segs[0].t0 == 0.0 and isinstance(segs[0].path, Hold)
            assert segs[-1].t1 <= ts.horizon
            for s1, s2 in zip(segs, segs[1:]):
                assert s1.t1 <= s2.t0 or s1.t1 == pytest.approx(s2.t0)
        assert max(ts.segments[a][-1].t1 for a in ts.agents()) == pytest.approx(ts.horizon)

    def test_two_circle_plan_verifies(self):
        a = Disk(Point2(10.0, 10.0), 5.0)
        b = Disk(Point2(17.5, 10.0), 5.0)
        res = convert_two_circles(a, b, 1.0)
        verts = res.graph.vertex_ids()
        occ = Occupancy({v: (None if v == verts[0] else v) for v in verts})
        rng = random.Random(5)
        contents = [occ.mapping[v] for v in verts]
        rng.shuffle(contents)
        goal = Occupancy(dict(zip(verts, contents)))
        plan = plan_permutation(res.graph, occ, goal)
        ts = realize_plan(res, plan)
        w = rectangle_workspace(28.0, 20.0)
        rep = verify_trajectories(ts, w, 1.0, 0.05)
        assert rep.ok, rep.violations[:3]


class TestVerifyTrajectories:
    def test_single_stationary_agent(self):
        w = rectangle_workspace(10, 10)
        ts = TrajectorySet(
            {"a": [MotionSegment("a", 0.0, 1.0, Hold(Point2(5, 5)))]}, 1.0
        )
        rep = verify_trajectories(ts, w, 1.0, 0.1)
        assert rep.ok
        assert rep.min_clearance == pytest.approx(5.0)

    def test_crossing_agents_flagged(self):
        w = rectangle_workspace(10, 10)
        ts = TrajectorySet(
            {
                "a": [MotionSegment("a", 0, 10, Line(Point2(2, 5), Point2(8, 5)))],
                "b": [MotionSegment("b", 0, 10, Line(Point2(8, 5), Point2(2, 5)))],
            },
            10.0,
        )
        rep = verify_trajectories(ts, w, 1.0, 0.05)
        assert not rep.ok
        assert any(v.kind == "pair" for v in rep.violations)

    def test_boundary_excursion_flagged(self):
        w = rectangle_workspace(10, 10)
        ts = TrajectorySet(
            {"a": [MotionSegment("a", 0, 5, Line(Point2(5, 5), Point2(9.9, 5)))]},
            5.0,
        )
        rep = verify_trajectories(ts, w, 1.0, 0.05)
        assert any(v.kind == "boundary" for v in rep.violations)

    def test_violation_interval_merging(self):
        w = rectangle_workspace(10, 10)
        ts = TrajectorySet(
            {
                "a": [MotionSegment("a", 0, 10, Line(Point2(2, 5), Point2(8, 5)))],
                "b": [MotionSegment("b", 0, 10, Hold(Point2(5, 5)))],
            },
            10.0,
        )
        rep = verify_trajectories(ts, w, 1.0, 0.05)
        pair = [v for v in rep.violations if v.kind == "pair"]
        assert len(pair) == 1
        assert pair[0].t_end > pair[0].t_start


class TestTrack:
    def test_sample_matches_record_positions(self):
        res, occ = single_circle_setup(radius=6.0)
        rng = random.Random(9)
        verts = res.graph.vertex_ids()
        contents = [occ.mapping[v] for v in verts]
        rng.shuffle(contents)
        plan = plan_permutation(res.graph, occ, Occupancy(dict(zip(verts, contents))))
        ts = realize_plan(res, plan)
        times = np.array(sorted(rng.uniform(0.0, ts.horizon) for _ in range(200)))
        for a in ts.agents():
            track = ts.segments[a]
            segs = list(track)
            pts = track.sample(times)
            for t, (x, y) in zip(times, pts):
                # the record in force is the last one starting at or before t;
                # before and between records the agent holds
                seg = [s for s in segs if s.t0 <= t][-1]
                p = seg.position(t)
                assert math.hypot(x - p.x, y - p.y) < 1e-9

    def test_holds_are_implicit(self):
        res, occ = single_circle_setup(radius=6.0)
        li = next(k for k, (c, ring) in enumerate(res.loop_layer) if ring == 1)
        plan = Plan([LoopRotation(li, 1), LoopRotation(li, 1)], occ,
                    apply_op(apply_op(occ, res.graph, LoopRotation(li, 1)),
                             res.graph, LoopRotation(li, 1)))
        ts = realize_plan(res, plan)
        for a in ts.agents():
            kinds = [type(s.path) for s in ts.segments[a]]
            assert kinds[0] is Hold and Hold not in kinds[1:]

    def test_segment_lists_are_packed(self):
        ts = TrajectorySet(
            {"a": [MotionSegment("a", 0.0, 2.0, Line(Point2(1, 1), Point2(3, 1)))]}, 4.0
        )
        assert len(ts.segments["a"]) == 1
        assert ts.position("a", 1.0) == Point2(2.0, 1.0)
        assert ts.position("a", 3.0) == Point2(3.0, 1.0)
        assert ts.segments["a"][-1].end_position() == Point2(3.0, 1.0)
