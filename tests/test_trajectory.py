import math
import random
from pathlib import Path

import numpy as np
import pytest

from swapmotion.assignment import navigate
from swapmotion.errors import IllegalOp, UnrealizableOp
from swapmotion.fileio import load_json, scenario_from_dict, trajectory_from_csv, trajectory_to_csv
from swapmotion.geometry import Disk, Point2, dist, rectangle_workspace
from swapmotion.medial_axis import extract_medial_axis
from swapmotion.pipeline import run_pipeline
from swapmotion.planner import (
    LoopRotation,
    Plan,
    VacancySwap,
    apply_ops,
    plan_permutation,
)
from swapmotion.swap_graph import Occupancy
from swapmotion.trajectory import (
    ARC,
    HOLD,
    LINE,
    SPEED,
    Track,
    TrajectorySet,
    hold_record,
    line_record,
    realize_plan,
    record_end,
    verify_trajectories,
)

from graph_fixtures import circle_graph
from record_fixtures import trajectory_set

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def single_circle_setup(radius=5.0, hole_index=0):
    res = circle_graph([Disk(Point2(10.0, 10.0), radius)])
    verts = res.graph.vertex_ids()
    hole = verts[hole_index]
    occ = Occupancy({v: (None if v == hole else 100 + v) for v in verts})
    return res, occ


def realize_one(res, occ, op):
    """`op` alone, realized from `occ` by `realize_plan` (which reads only the
    plan's start and ops)."""
    return realize_plan(res, Plan([op], occ, occ))


def moving_records(ts):
    """(agent, record index) of every line and arc."""
    return [
        (a, k) for a in ts.agents() for k in np.nonzero(ts.segments[a].kind != HOLD)[0]
    ]


def end_of(track):
    return record_end(track.kind[-1], track.par[-1])


class TestRealizeType1:
    def test_zero_steps_all_hold(self):
        res, occ = single_circle_setup()
        ts = realize_one(res, occ, LoopRotation(0, 0))
        assert ts.segments
        assert all((tr.kind == HOLD).all() for tr in ts.segments.values())

    def test_six_agent_ring_one_step(self):
        res, occ = single_circle_setup(hole_index=10)
        li = next(k for k, (c, ring) in enumerate(res.loop_layer) if ring == 1)
        ts = realize_one(res, occ, LoopRotation(li, 1))
        arcs = moving_records(ts)
        assert len(arcs) == 6
        for a, k in arcs:
            tr = ts.segments[a]
            assert tr.kind[k] == ARC
            assert abs(tr.par[k, 4] - tr.par[k, 3]) == pytest.approx(math.pi / 3)

    def test_spacing_preserved_during_rotation(self):
        res, occ = single_circle_setup(hole_index=0)
        li = next(k for k, (c, ring) in enumerate(res.loop_layer) if ring == 2)
        ts = realize_one(res, occ, LoopRotation(li, 2))
        movers = sorted({a for a, _ in moving_records(ts)})
        t1 = max(ts.segments[a].t1[-1] for a in movers)
        for f in [k / 20 for k in range(21)]:
            pts = [ts.position(a, f * t1) for a in movers]
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert dist(pts[i], pts[j]) >= 2.0 - 1e-9

    def test_endpoints_exact(self):
        res, occ = single_circle_setup(hole_index=3)
        op = LoopRotation(1, 3)
        ts = realize_one(res, occ, op)
        after = apply_ops(occ, res.graph, [op])
        finals = {a: end_of(tr) for a, tr in ts.segments.items()}
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
        ts = realize_one(res, occ, VacancySwap(hole, nxt))
        moving = moving_records(ts)
        assert len(moving) == 1
        a, k = moving[0]
        assert a == occ.mapping[nxt]
        assert ts.segments[a].kind[k] == ARC

    def test_radial_swap_three_phases(self):
        res, occ = single_circle_setup(radius=7.0, hole_index=0)
        # find the radial connector and put the hole at its inner endpoint
        e = sorted(res.inter_edge_kind)[0]
        u, v = e
        hole = occ.vacant_vertex()
        # rebuild occupancy with the hole at v
        verts = res.graph.vertex_ids()
        occ = Occupancy({x: (None if x == v else 100 + x) for x in verts})
        ts = realize_one(res, occ, VacancySwap(u, v))
        mover = ts.segments[100 + u]
        assert (mover.kind == LINE).any()
        assert dist(end_of(mover), res.graph.positions[v]) < 1e-9

    def test_gap_corridor_swap_verifies(self):
        from swapmotion.conversion import GapCorridor

        a = Disk(Point2(10.0, 10.0), 5.0)
        b = Disk(Point2(18.6, 10.0), 5.0)
        w = rectangle_workspace(30.0, 20.0)
        res = circle_graph([a, b], w=w)
        edge = next(
            e for e, k in res.inter_edge_kind.items() if isinstance(k, GapCorridor)
        )
        u, v = edge
        verts = res.graph.vertex_ids()
        occ = Occupancy({x: (None if x == v else 100 + x) for x in verts})
        ts = realize_one(res, occ, VacancySwap(u, v))
        rep = verify_trajectories(ts, w, 1.0)
        assert rep.ok, rep.violations[:3]
        assert dist(end_of(ts.segments[100 + u]), res.graph.positions[v]) < 1e-9

    def test_path_corridor_swap_verifies(self):
        from swapmotion.conversion import PathCorridor
        from swapmotion.medial_axis import extract_medial_axis, sample_circles

        w = rectangle_workspace(64.0, 12.0)
        skeleton = extract_medial_axis(w, 0.5)
        circles = sample_circles(skeleton, 20.0, 2, 1.0)
        res = circle_graph(circles, w=w, skeleton=skeleton)
        edge = next(
            e for e, k in res.inter_edge_kind.items() if isinstance(k, PathCorridor)
        )
        u, v = edge
        verts = res.graph.vertex_ids()
        occ = Occupancy({x: (None if x == v else 100 + x) for x in verts})
        ts = realize_one(res, occ, VacancySwap(u, v))
        rep = verify_trajectories(ts, w, 1.0)
        assert rep.ok, rep.violations[:3]
        # one line record per straight leg of the stored corner route
        assert (ts.segments[100 + u].kind == LINE).sum() == len(res.routes[edge]) - 1

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
            realize_one(res, occ, VacancySwap(a, b))


class TestUnknownOps:
    """An op naming a loop or an edge the conversion lacks is a typed error."""

    @pytest.mark.parametrize("loop", [-1, 2, 99])
    def test_rotation_of_missing_loop(self, loop):
        res, occ = single_circle_setup()
        assert res.graph.K == 2
        with pytest.raises(UnrealizableOp, match=f"loop {loop} "):
            realize_one(res, occ, LoopRotation(loop, 1))

    def test_swap_along_missing_edge(self):
        res, occ = single_circle_setup(hole_index=0)
        hole = occ.vacant_vertex()
        g = res.graph
        far = next(v for v in g.vertex_ids() if v != hole and not g.has_edge(v, hole))
        with pytest.raises(UnrealizableOp, match="not on any loop"):
            realize_one(res, occ, VacancySwap(far, hole))

    def test_swap_with_missing_vertex(self):
        res, occ = single_circle_setup(hole_index=0)
        with pytest.raises(IllegalOp):
            realize_one(res, occ, VacancySwap(10**6, occ.vacant_vertex()))


class TestRealizePlan:
    def test_empty_plan_holds(self):
        res, occ = single_circle_setup()
        ts = realize_plan(res, Plan([], occ, occ.copy()))
        assert ts.horizon == 0.0
        for a in ts.agents():
            assert (ts.segments[a].kind == HOLD).all()

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
        rep = verify_trajectories(ts, w, 1.0)
        assert rep.ok, rep.violations[:3]
        assert rep.min_pairwise >= 2.0 - 1e-6
        # each track opens with a hold at t = 0 and its records follow in
        # time order (holds between them are implicit); the horizon equals
        # the sum of op durations, so the last record of the run ends on it
        for a in ts.agents():
            tr = ts.segments[a]
            assert tr.t0[0] == 0.0 and tr.kind[0] == HOLD
            assert tr.t1[-1] <= ts.horizon
            for t1, t0 in zip(tr.t1[:-1], tr.t0[1:]):
                assert t1 <= t0 or t1 == pytest.approx(t0)
        assert max(ts.segments[a].t1[-1] for a in ts.agents()) == pytest.approx(ts.horizon)

    def test_two_circle_plan_verifies(self):
        ts, w = two_circle_run()
        rep = verify_trajectories(ts, w, 1.0)
        assert rep.ok, rep.violations[:3]

    def test_aligned_radial_swap_has_no_zero_length_arcs(self):
        # a radial swap between rings that are already aligned emits no
        # align or restore arc, so every record keeps the speed check
        ts, _ = two_circle_run()
        check_records(ts, 1.0)


def two_circle_run():
    """A shuffle of a two-circle graph, realized, and its workspace."""
    a = Disk(Point2(10.0, 10.0), 5.0)
    b = Disk(Point2(17.5, 10.0), 5.0)
    w = rectangle_workspace(28.0, 20.0)
    res = circle_graph([a, b], w=w)
    verts = res.graph.vertex_ids()
    occ = Occupancy({v: (None if v == verts[0] else v) for v in verts})
    rng = random.Random(5)
    contents = [occ.mapping[v] for v in verts]
    rng.shuffle(contents)
    goal = Occupancy(dict(zip(verts, contents)))
    plan = plan_permutation(res.graph, occ, goal)
    return realize_plan(res, plan), w


class TestVerifyTrajectories:
    def test_single_stationary_agent(self):
        w = rectangle_workspace(10, 10)
        ts = trajectory_set(1.0, a=[hold_record(0.0, Point2(5, 5))])
        rep = verify_trajectories(ts, w, 1.0)
        assert rep.ok
        assert rep.min_clearance == pytest.approx(5.0)

    def test_crossing_agents_flagged(self):
        w = rectangle_workspace(10, 10)
        ts = trajectory_set(
            10.0,
            a=[line_record(0, 10, Point2(2, 5), Point2(8, 5))],
            b=[line_record(0, 10, Point2(8, 5), Point2(2, 5))],
        )
        rep = verify_trajectories(ts, w, 1.0)
        assert not rep.ok
        assert any(v.kind == "pair" for v in rep.violations)

    def test_boundary_excursion_flagged(self):
        w = rectangle_workspace(10, 10)
        ts = trajectory_set(5.0, a=[line_record(0, 5, Point2(5, 5), Point2(9.9, 5))])
        rep = verify_trajectories(ts, w, 1.0)
        assert any(v.kind == "boundary" for v in rep.violations)

    def test_violation_interval_merging(self):
        w = rectangle_workspace(10, 10)
        ts = trajectory_set(
            10.0,
            a=[line_record(0, 10, Point2(2, 5), Point2(8, 5))],
            b=[hold_record(0, Point2(5, 5))],
        )
        rep = verify_trajectories(ts, w, 1.0)
        pair = [v for v in rep.violations if v.kind == "pair"]
        assert len(pair) == 1
        assert pair[0].t_end > pair[0].t_start


def record_position(t0, t1, kind, par, t):
    """Scalar position on one record at time t, clamped to its span."""
    s = min(1.0, max(0.0, (t - t0) / (t1 - t0))) if t1 > t0 else 1.0
    if kind == HOLD:
        return Point2(par[0], par[1])
    if kind == LINE:
        return Point2(par[0] + s * (par[2] - par[0]), par[1] + s * (par[3] - par[1]))
    ang = par[3] + s * (par[4] - par[3])
    return Point2(par[0] + par[2] * math.cos(ang), par[1] + par[2] * math.sin(ang))


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
            pts = track.sample(times)
            for t, (x, y) in zip(times, pts):
                # the record in force is the last one starting at or before t;
                # before and between records the agent holds
                k = np.nonzero(track.t0 <= t)[0][-1]
                p = record_position(track.t0[k], track.t1[k], track.kind[k], track.par[k], t)
                assert math.hypot(x - p.x, y - p.y) < 1e-9

    def test_holds_are_implicit(self):
        res, occ = single_circle_setup(radius=6.0)
        li = next(k for k, (c, ring) in enumerate(res.loop_layer) if ring == 1)
        ops = [LoopRotation(li, 1), LoopRotation(li, 1)]
        plan = Plan(ops, occ, apply_ops(occ, res.graph, ops))
        ts = realize_plan(res, plan)
        for a in ts.agents():
            kinds = ts.segments[a].kind.tolist()
            assert kinds[0] == HOLD and HOLD not in kinds[1:]

    def test_segment_lists_are_packed(self):
        ts = trajectory_set(4.0, a=[line_record(0.0, 2.0, Point2(1, 1), Point2(3, 1))])
        assert len(ts.segments["a"]) == 1
        assert ts.position("a", 1.0) == Point2(2.0, 1.0)
        assert ts.position("a", 3.0) == Point2(3.0, 1.0)
        assert end_of(ts.segments["a"]) == Point2(3.0, 1.0)

    def test_record_end_of_each_kind(self):
        ts = trajectory_set(10.0, a=[
            hold_record(0.0, Point2(5, 5)),
            line_record(1.0, 3.0, Point2(5, 5), Point2(7, 5)),
            (3.0, 3.0 + math.pi, ARC, 7.0, 7.0, 2.0, -math.pi / 2, math.pi / 2),
        ])
        tr = ts.segments["a"]
        ends = [record_end(k, p) for k, p in zip(tr.kind, tr.par)]
        assert ends[:2] == [Point2(5.0, 5.0), Point2(7.0, 5.0)]
        assert dist(ends[2], Point2(7.0, 9.0)) < 1e-12
        assert dist(ends[2], ts.position("a", 10.0)) < 1e-12


def record_ends(tr):
    """Start points, end points and path lengths of a track's records."""
    p, arc, line = tr.par, tr.kind == ARC, tr.kind == LINE

    def on_arc(col):
        ang = p[arc, col]
        return p[arc, :2] + p[arc, 2:3] * np.stack([np.cos(ang), np.sin(ang)], axis=1)

    start, end = p[:, :2].copy(), p[:, :2].copy()
    start[arc], end[arc] = on_arc(3), on_arc(4)
    end[line] = p[line, 2:4]
    length = np.zeros(len(tr))
    length[line] = np.hypot(p[line, 2] - p[line, 0], p[line, 3] - p[line, 1])
    length[arc] = np.abs(p[arc, 4] - p[arc, 3]) * p[arc, 2]
    return start, end, length


def check_records(ts, r):
    """Continuity, time order and speed of every track, from its records."""
    phases = []  # (t0, t1, speed) of every arc
    for a in ts.agents():
        tr = ts.segments[a]
        start, end, length = record_ends(tr)
        gap = np.hypot(*(start[1:] - end[:-1]).T)
        assert gap.max(initial=0.0) <= 1e-9 * r, (a, int(gap.argmax()))
        assert (tr.t0 <= tr.t1).all()
        assert (tr.t1[:-1] <= tr.t0[1:]).all(), a
        # a line runs at unit speed; riders of one arc phase share its
        # span, so an arc runs at unit speed or, with a shorter sweep
        # than the phase's longest, slower
        dur = tr.t1 - tr.t0
        line, arc = tr.kind == LINE, tr.kind == ARC
        want = length[line] / SPEED
        assert (np.abs(dur[line] - want) <= 1e-9 * want).all(), a
        assert (length[arc] / SPEED <= dur[arc] * (1 + 1e-9)).all(), a
        phases.append(np.stack([tr.t0[arc], tr.t1[arc], length[arc] / dur[arc]], axis=1))
    # the longest sweep of each arc phase runs at unit speed
    phases = np.concatenate(phases)
    _, which = np.unique(phases[:, :2], axis=0, return_inverse=True)
    lead = np.zeros(which.max() + 1)
    np.maximum.at(lead, which.ravel(), phases[:, 2])
    assert (np.abs(lead - SPEED) <= 1e-9 * SPEED).all()


def reversed_set(ts):
    return TrajectorySet({a: tr.reversed(ts.horizon) for a, tr in ts.segments.items()}, ts.horizon)


def check_mirrored(ts, tol=1e-9):
    """Each reversed track at t is the track at T - t, on a grid, and
    reversing twice gives the records back."""
    T = ts.horizon
    times = np.linspace(0.0, T, 4001)
    for a in ts.agents():
        tr = ts.segments[a]
        back = tr.reversed(T)
        assert back.kind[0] == HOLD and back.t1[0] == 0.0
        assert np.abs(back.sample(times) - tr.sample(T - times)).max() <= tol, a
        twice = back.reversed(T)
        assert np.array_equal(twice.kind, tr.kind), a
        for f in ("t0", "t1", "par"):
            assert np.abs(getattr(twice, f) - getattr(tr, f)).max() <= tol, (a, f)


class TestReversed:
    """`Track.reversed` plays a motion backwards: arcs, lines and holds."""

    def test_realized_plan(self):
        ts, w = two_circle_run()
        kinds = np.concatenate([tr.kind for tr in ts.segments.values()])
        assert (kinds == ARC).any() and (kinds == LINE).any()
        check_mirrored(ts)
        rep = verify_trajectories(reversed_set(ts), w, 1.0)
        assert rep.ok, rep.violations[:3]

    def test_navigation_leg(self):
        w = rectangle_workspace(16.0, 12.0)
        cur = [Point2(2, 6), Point2(14, 6), Point2(8, 2), Point2(8, 10)]
        tgt = [Point2(14, 6), Point2(2, 6), Point2(8, 10), Point2(8, 2)]
        out = navigate([0, 1, 2, 3], np.array(cur), np.array(tgt), w, 1.0,
                       [np.empty((0, 2))] * 4, [0] * 4, extract_medial_axis(w, 0.5).grid)
        assert out.ok
        ts = out.trajectory
        check_mirrored(ts)
        back = reversed_set(ts)
        for a in ts.agents():
            assert end_of(back.segments[a]) == cur[a]
            assert back.position(a, 0.0) == tgt[a]
        assert verify_trajectories(back, w, 1.0).ok

    def test_a_still_track_is_one_hold(self):
        tr = Track.from_records([hold_record(0.0, Point2(3, 4))])
        back = tr.reversed(7.0)
        assert back.kind.tolist() == [HOLD] and back.par[0, :2].tolist() == [3.0, 4.0]


PIPELINE_SCENARIOS = ["rect_12", "obstacles_30", "maple_approx_24", "grid_20"]


@pytest.fixture(scope="module", params=PIPELINE_SCENARIOS)
def pipeline_run(request):
    s = scenario_from_dict(load_json(SCENARIOS / f"{request.param}.json"))
    return s, run_pipeline(s)[1].trajectory


class TestPipelineTracks:
    """What the sampling verifier cannot see: a jump or a speed change
    between two samples. Checked on the records alone."""

    def test_continuous_and_at_unit_speed(self, pipeline_run):
        s, ts = pipeline_run
        check_records(ts, s.r)

    def test_reversed_tracks_keep_the_record_checks(self, pipeline_run):
        s, ts = pipeline_run
        check_records(reversed_set(ts), s.r)
        check_mirrored(ts)

    def test_last_record_ends_exactly_at_the_goal(self, pipeline_run):
        s, ts = pipeline_run
        for a in s.agents:
            assert end_of(ts.segments[a.id]) == a.goal, a.id

    def test_segment_table_reads_back(self, pipeline_run, tmp_path):
        _, ts = pipeline_run
        trajectory_to_csv(ts, tmp_path / "trajectory.csv")
        back = trajectory_from_csv(tmp_path / "trajectory.csv")
        assert back.horizon == ts.horizon and back.agents() == ts.agents()
        for a in ts.agents():
            x, y = back.segments[a], ts.segments[a]
            for f in ("t0", "t1", "kind", "par"):
                assert np.array_equal(getattr(x, f), getattr(y, f)), (a, f)
