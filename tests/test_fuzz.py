"""End-to-end fuzzing over random box workspaces and two-room workspaces:
every run ends, within a per-run time cap, in either a plan that verifies and
ends at the goals or a typed `SwapMotionError`."""

import functools
import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from swapmotion.conversion import RadialCorridor
from swapmotion.errors import NavigationFailure, SwapMotionError
from swapmotion.fileio import AgentSpec, Scenario, ScenarioParams
from swapmotion.geometry import Point2, Polygon, dist, rectangle_workspace
from swapmotion.pipeline import run_pipeline, sample_free_positions
from swapmotion.planner import VacancySwap
from swapmotion.trajectory import record_end

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)
RUN_CAP_S = 5.0


def rect_obstacle(x0, y0, x1, y1) -> Polygon:
    return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


@st.composite
def box_scenes(draw):
    """A 24-40 x 14-24 rectangle with 0-3 box obstacles, kept two units
    apart so they stay disjoint, and 3-10 agents of radius 1 at random
    spaced starts and goals."""
    width = draw(st.integers(24, 40))
    height = draw(st.integers(14, 24))
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        bw, bh = draw(st.floats(2, 6)), draw(st.floats(2, 6))
        x0 = draw(st.floats(3, width - 3 - bw))
        y0 = draw(st.floats(3, height - 3 - bh))
        box = (x0, y0, x0 + bw, y0 + bh)
        if all(box[0] > b[2] + 2 or box[2] < b[0] - 2 or box[1] > b[3] + 2
               or box[3] < b[1] - 2 for b in boxes):
            boxes.append(box)
    w = rectangle_workspace(width, height, [rect_obstacle(*b) for b in boxes])
    n = draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = sample_free_positions(w, 1.0, n, rng, 2.0)
    goals = sample_free_positions(w, 1.0, n, rng, 2.0)
    agents = [AgentSpec(i, starts[i], goals[i]) for i in range(n)]
    return Scenario("fuzz", w, 1.0, agents, ScenarioParams(dt=0.25))


@SEEDED
@given(box_scenes())
def test_every_run_verifies_or_fails_typed(s):
    t0 = time.perf_counter()
    try:
        run, art = run_pipeline(s)
    except SwapMotionError as e:
        run = None
        event(type(e).__name__)
    assert time.perf_counter() - t0 <= RUN_CAP_S
    if run is None:
        return
    event("verified")
    assert_reaches_goals(s, run, art)


def assert_reaches_goals(s, run, art):
    assert run.success and run.violations == 0
    for a in s.agents:
        tr = art.trajectory.segments[a.id]
        assert record_end(tr.kind[-1], tr.par[-1]) == a.goal, a.id
        assert dist(art.trajectory.position(a.id, run.horizon), a.goal) <= 1e-9, a.id


TWO_ROOM_SEEDS = range(24)


def two_rooms(seed: int) -> Scenario:
    """A 28-40 x 14-22 rectangle split near its middle by a 0.5-1.5 thick
    wall with one door 1.5-6 wide, and 3-10 agents of radius 1 at random
    spaced starts and goals in either room. The threshold is above any
    graph's size, so conversion grows into the second room whenever the
    door lets a skeleton path through."""
    rng = np.random.default_rng([seed, 7])
    width, height = int(rng.integers(28, 41)), int(rng.integers(14, 23))
    x0 = float(rng.uniform(0.4, 0.6)) * width
    x1 = x0 + float(rng.uniform(0.5, 1.5))
    door = float(rng.uniform(1.5, 6.0))
    y0 = float(rng.uniform(1.5, height - 1.5 - door))
    wall = [rect_obstacle(x0, 0, x1, y0), rect_obstacle(x0, y0 + door, x1, height)]
    w = rectangle_workspace(width, height, wall)
    n = int(rng.integers(3, 11))
    starts = sample_free_positions(w, 1.0, n, rng, 2.0)
    goals = sample_free_positions(w, 1.0, n, rng, 2.0)
    agents = [AgentSpec(i, starts[i], goals[i]) for i in range(n)]
    return Scenario(f"two_rooms_{seed}", w, 1.0, agents, ScenarioParams(dt=0.25, threshold=10**6))


@functools.lru_cache(maxsize=None)
def two_room_run(seed: int):
    """(scenario, run and artifacts or the typed error, seconds) of one seed."""
    s = two_rooms(seed)
    t0 = time.perf_counter()
    try:
        out = run_pipeline(s)
    except SwapMotionError as e:
        out = e
    return s, out, time.perf_counter() - t0


@pytest.mark.parametrize("seed", TWO_ROOM_SEEDS)
def test_two_rooms_verify_or_fail_typed(seed):
    s, out, secs = two_room_run(seed)
    assert secs <= RUN_CAP_S
    if not isinstance(out, SwapMotionError):
        assert_reaches_goals(s, *out)


@pytest.mark.parametrize("seed", [4, 11, 12])
def test_a_door_narrower_than_two_r_is_named(seed):
    """Doors of 1.94, 1.68 and 1.60 leave agents in a room the graph never
    reaches; the failure names them as having no grid path to any slot."""
    _, out, _ = two_room_run(seed)
    assert isinstance(out, NavigationFailure)
    assert str(out).endswith(f"; no grid path to any slot for agents {out.stuck_agents}")


def test_two_rooms_swap_along_corridors():
    """The door puts gap or path connectors, and `_corridor_motion`, under
    fuzzing; box scenes convert to radial connectors only."""
    kinds = set()
    for seed in TWO_ROOM_SEEDS:
        _, out, _ = two_room_run(seed)
        if isinstance(out, SwapMotionError):
            continue
        res, plan = out[1].conversion, out[1].plan
        kinds |= {
            type(res.inter_edge_kind[op.edge]).__name__
            for op in plan.ops
            if isinstance(op, VacancySwap) and op.edge in res.inter_edge_kind
        }
    assert kinds - {RadialCorridor.__name__}
