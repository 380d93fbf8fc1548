"""End-to-end fuzzing over random box workspaces: every run ends, within a
per-run time cap, in either a plan that verifies and ends at the goals or a
typed `SwapMotionError`."""

import time

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from swapmotion.errors import SwapMotionError
from swapmotion.fileio import AgentSpec, Scenario, ScenarioParams
from swapmotion.geometry import Point2, Polygon, dist, rectangle_workspace
from swapmotion.pipeline import run_pipeline, sample_free_positions
from swapmotion.trajectory import record_end

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)
RUN_CAP_S = 5.0


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
    w = rectangle_workspace(width, height, [
        Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))
        for x0, y0, x1, y1 in boxes
    ])
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
    assert run.success and run.violations == 0
    for a in s.agents:
        tr = art.trajectory.segments[a.id]
        assert record_end(tr.kind[-1], tr.par[-1]) == a.goal, a.id
        assert dist(art.trajectory.position(a.id, run.horizon), a.goal) <= 1e-9, a.id
