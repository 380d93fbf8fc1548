"""The exact motion certificate `verify_trajectories`.

Its minima are exact, so on the shipped scenarios they are at most what the
sampling oracle finds at any step, and it sees what happens between two
grid times: a graze, a clipped corner, an overtake, a jump.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from swapmotion.cli import main
from swapmotion.errors import UnrealizableOp
from swapmotion.fileio import (
    dump_json,
    load_json,
    scenario_from_dict,
    scenario_to_dict,
    trajectory_from_csv,
    trajectory_to_csv,
)
from swapmotion.geometry import Point2, Polygon, rectangle_workspace
from swapmotion.pipeline import run_pipeline
from swapmotion.trajectory import (
    ARC,
    Track,
    track_jumps,
    verify_trajectories,
)

from record_fixtures import hold, line, trajectory_set
from sampling_oracle import sampled_verify
from test_acceptance import BENCH_NAMES, bench_runs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TOL = 1e-6
# the certificate and the sampler round differently: a minimum both reach
# at the same configuration may differ in the last bits
ROUNDING = 1e-12


def arc(t0, t1, c, radius, a0, a1):
    return (t0, t1, ARC, c[0], c[1], radius, a0, a1)


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_shipped_minima_are_exact(name):
    s, _, art, _ = bench_runs()[name]
    rep = verify_trajectories(art.trajectory, s.workspace, s.r)
    assert rep == art.verification
    assert rep.ok and rep.samples > 0 and rep.checks > 0
    assert rep.min_pairwise >= 2 * s.r - TOL * s.r
    assert rep.min_clearance >= s.r - TOL * s.r
    for dt in (0.25, 0.05 * s.r):
        sampled = sampled_verify(art.trajectory, s.workspace, s.r, dt)
        assert rep.min_pairwise <= sampled.min_pairwise + ROUNDING * s.r, dt
        assert rep.min_clearance <= sampled.min_clearance + ROUNDING * s.r, dt


def test_report_does_not_depend_on_the_scenario_dt():
    s = scenario_from_dict(load_json(SCENARIOS / "rect_12.json"))
    reports = []
    for dt in (0.25, 0.05, 3.0):
        s.params.dt = dt
        reports.append(run_pipeline(s)[1].verification)
    assert reports[0] == reports[1] == reports[2]


def test_graze_between_samples():
    """A fast line passes 1.9 from a still agent half-way between two
    samples at dt = 0.5."""
    w = rectangle_workspace(20.0, 10.0)
    ts = trajectory_set(
        3.0,
        a=[hold(0, (2, 6.9)), line(0.45, 2.05, (2, 6.9), (18, 6.9))],
        b=[hold(0, (10, 5))],
    )
    assert sampled_verify(ts, w, 1.0, 0.5).ok
    rep = verify_trajectories(ts, w, 1.0)
    (v,) = rep.violations
    assert (v.kind, v.agents) == ("pair", ("a", "b"))
    assert v.worst == pytest.approx(1.9, abs=1e-12)
    assert rep.min_pairwise == v.worst
    assert rep.worst_pair[:2] == ("a", "b")
    assert rep.worst_pair[2] == pytest.approx(1.25, abs=1e-12)


def test_arc_clips_a_corner_between_samples():
    """An arc about (10, 10) of radius 3 sweeps past the corner (10.5, 13.5)
    of an obstacle, sqrt(12.5) - 3 from it, between two samples."""
    box = Polygon((Point2(10.5, 13.5), Point2(12.5, 13.5), Point2(12.5, 15.5), Point2(10.5, 15.5)))
    w = rectangle_workspace(20.0, 20.0, [box])
    ts = trajectory_set(1.5, a=[hold(0, (13, 10)), arc(0.25, 1.25, (10, 10), 3.0, 0.0, math.pi)])
    assert sampled_verify(ts, w, 1.0, 0.5).ok
    rep = verify_trajectories(ts, w, 1.0)
    (v,) = rep.violations
    assert (v.kind, v.agents) == ("boundary", ("a",))
    assert v.worst == pytest.approx(math.sqrt(12.5) - 3.0, abs=1e-12)
    t = 0.25 + math.atan2(3.5, 0.5) / math.pi
    assert rep.worst_clearance == ("a", pytest.approx(t, abs=1e-12))


def test_riders_of_one_ring_overtake():
    """Over one span, a sweeps 0 -> pi and b pi/3 -> pi/2: they meet at
    0.4 of it, where their angular gap crosses 0."""
    w = rectangle_workspace(20.0, 20.0)
    ts = trajectory_set(
        1.0,
        a=[hold(0, (14, 10)), arc(0.0, 1.0, (10, 10), 4.0, 0.0, math.pi)],
        b=[
            hold(0, (12, 10 + 2 * math.sqrt(3))),
            arc(0.0, 1.0, (10, 10), 4.0, math.pi / 3, math.pi / 2),
        ],
    )
    rep = verify_trajectories(ts, w, 1.0)
    pairs = [v for v in rep.violations if v.kind == "pair"]
    assert [(v.agents, v.worst) for v in pairs] == [(("a", "b"), 0.0)]
    assert rep.worst_pair == ("a", "b", pytest.approx(0.4, abs=1e-12))


def test_a_record_cut_where_another_agent_starts_and_stops():
    """a's line spans the three intervals that b's move cuts it into; while
    both move, a - b runs along one line, closest at t*."""
    w = rectangle_workspace(22.0, 10.0)
    ts = trajectory_set(
        19.0,
        a=[hold(0, (1.5, 5)), line(0, 19, (1.5, 5), (20.5, 5))],
        b=[hold(0, (10, 8)), line(5, 15, (10, 8), (10, 6.5))],
    )
    # a - b = (t - 8.5, 0.15 t - 3.75) on [5, 15]
    t = (8.5 + 0.15 * 3.75) / (1 + 0.15**2)
    rep = verify_trajectories(ts, w, 1.0)
    assert rep.ok and rep.samples == 3
    assert rep.min_pairwise == pytest.approx(math.hypot(t - 8.5, 0.15 * t - 3.75), abs=1e-12)
    assert rep.worst_pair == ("a", "b", pytest.approx(t, abs=1e-9))


def jumping():
    """Agent a jumps 4 ahead at t = 4.2 and 1 ahead, in a record of zero
    duration, at t = 8; neither lands near b or the walls."""
    return trajectory_set(
        10.0,
        a=[
            hold(0, (3, 3)),
            line(1, 4, (3, 3), (6, 3)),
            line(4.2, 5.2, (10, 3), (11, 3)),
            line(8, 8, (11, 3), (12, 3)),
        ],
        b=[hold(0, (10, 8))],
    )


def test_jumps_are_violations():
    w = rectangle_workspace(20.0, 10.0)
    assert sampled_verify(jumping(), w, 1.0, 0.5).ok
    rep = verify_trajectories(jumping(), w, 1.0)
    got = [(v.kind, v.agents, v.t_start, v.worst) for v in rep.violations]
    assert got == [("jump", ("a",), 4.2, 4.0), ("jump", ("a",), 8.0, 1.0)]
    assert track_jumps(jumping().segments["b"]) == []


def test_table_with_a_jump_is_rejected(tmp_path):
    s = scenario_from_dict(load_json(SCENARIOS / "rect_12.json"))
    dump_json(scenario_to_dict(s), tmp_path / "scenario.json")
    trajectory_to_csv(jumping(), tmp_path / "trajectory.csv")
    with pytest.raises(ValueError, match="jumps"):
        trajectory_from_csv(tmp_path / "trajectory.csv")
    assert main(["render", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "b_record, when",
    [
        (arc(1.0, 2.0, (15, 5), 2.0, 0.0, 1.0), "1.0: arc against arc about another centre"),
        (line(1.5, 2.5, (15, 7), (15, 3)), "1.5: arc against line"),
    ],
)
def test_motion_without_a_closed_form_fails_closed(b_record, when):
    w = rectangle_workspace(20.0, 10.0)
    ts = trajectory_set(
        3.0,
        a=[hold(0, (7, 5)), arc(1.0, 2.0, (5, 5), 2.0, 0.0, 1.0)],
        b=[hold(0, tuple(Track.from_records([b_record]).sample(np.zeros(1))[0])), b_record],
    )
    with pytest.raises(UnrealizableOp) as err:
        verify_trajectories(ts, w, 1.0)
    assert str(err.value) == f"agents 'a' and 'b' move at once at t = {when} has no closed form"


def random_motion(seed):
    """Three agents in a 20 x 20 box with one obstacle: six moves, each a
    line, an arc, or two concentric arcs at once, all at most unit speed."""
    rng = np.random.default_rng(seed)
    pos = {a: rng.uniform(2, 18, 2) for a in "abc"}
    recs = {a: [hold(0, tuple(p))] for a, p in pos.items()}
    t = 0.0
    for _ in range(6):
        how = rng.integers(3)
        if how == 0:
            a = "abc"[rng.integers(3)]
            q = rng.uniform(2, 18, 2)
            d = float(np.hypot(*(q - pos[a])))
            recs[a].append(line(t, t + d, tuple(pos[a]), tuple(q)))
            pos[a], t = q, t + d
            continue
        riders = rng.choice(list("abc"), size=how, replace=False)
        c = rng.uniform(6, 14, 2)
        sweep = float(rng.uniform(-2.0, 2.0))
        radii = {a: float(np.hypot(*(pos[a] - c))) for a in riders}
        dur = abs(sweep) * max(radii.values())
        for a in riders:
            a0 = math.atan2(pos[a][1] - c[1], pos[a][0] - c[0])
            recs[a].append(arc(t, t + dur, tuple(c), radii[a], a0, a0 + sweep))
            pos[a] = c + radii[a] * np.array([math.cos(a0 + sweep), math.sin(a0 + sweep)])
        t += dur
    return trajectory_set(t, **recs)


@pytest.mark.parametrize("seed", range(20))
def test_random_motion_against_a_fine_sampler(seed):
    """The exact minima are at most the sampled ones, and at most 2 dt below
    them, since no two agents close in faster than 2; a sampled violation is
    a certified one."""
    box = Polygon((Point2(9, 9), Point2(11, 9), Point2(11, 11), Point2(9, 11)))
    w = rectangle_workspace(20.0, 20.0, [box])
    ts, dt = random_motion(seed), 0.01
    rep, sampled = verify_trajectories(ts, w, 1.0), sampled_verify(ts, w, 1.0, dt)
    for exact, seen in ((rep.min_pairwise, sampled.min_pairwise),
                        (rep.min_clearance, sampled.min_clearance)):
        assert seen - 2 * dt <= exact <= seen + ROUNDING
    assert rep.ok or not sampled.ok
    kinds = {v.kind for v in sampled.violations}
    assert kinds <= {v.kind for v in rep.violations}


def test_report_json_holds_the_verification_block(tmp_path):
    args = ["exec", "--scenario", str(SCENARIOS / "rect_12.json"), "--out", str(tmp_path)]
    assert main(args) == 0
    report = load_json(tmp_path / "report.json")
    block = report["verification"]
    assert block["intervals"] > 0 and block["checks"] > 0
    records = trajectory_from_csv(tmp_path / "trajectory.csv").segments.values()
    assert block["records"] == sum(len(tr) for tr in records)
    pair, clear = block["worst_pair"], block["worst_clearance"]
    assert len(pair["agents"]) == 2 and 0.0 <= pair["t"] <= report["horizon"]
    assert pair["distance"] == report["min_pairwise"] >= 2.0 - TOL
    assert 0.0 <= clear["t"] <= report["horizon"]
    assert clear["clearance"] == report["min_clearance"] >= 1.0 - TOL
    assert clear["agent"] in {a["id"] for a in load_json(tmp_path / "scenario.json")["agents"]}
