"""The chunked sampling oracle against a plain all-agents sampler.

`all_agents_verify` samples every agent at every grid time and checks every
pair and every boundary distance, with no notion of movers or chunks.
`sampled_verify` samples only the agents whose records overlap each chunk
and checks the others once, so both must give the same report, field for
field.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from swapmotion.fileio import load_json, scenario_from_dict
from swapmotion.geometry import boundary_distance_many, rectangle_workspace
from swapmotion.pipeline import run_pipeline
from swapmotion.trajectory import VerificationReport, Violation

from record_fixtures import hold, line, trajectory_set
from sampling_oracle import sampled_verify

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def all_agents_verify(ts, w, r, dt):
    agents = ts.agents()
    n = len(agents)
    tol = 1e-6 * r
    lim2 = (2 * r - tol) ** 2
    times = np.arange(0.0, ts.horizon + 0.5 * dt, dt)
    if len(times) == 0 or times[-1] < ts.horizon:
        times = np.append(times, ts.horizon)
    iu, ju = np.triu_indices(n, 1)
    min_pair = min_clear = math.inf
    pair_bad, pair_worst, bound_bad, bound_worst = {}, {}, {}, {}
    for lo in range(0, len(times), 1024):
        tt = times[lo : lo + 1024]
        P = np.stack([ts.segments[a].sample(tt) for a in agents], axis=1)
        dx = P[:, iu, 0] - P[:, ju, 0]
        dy = P[:, iu, 1] - P[:, ju, 1]
        d2 = dx * dx + dy * dy
        if d2.size:
            min_pair = min(min_pair, math.sqrt(float(d2.min())))
        for t, k in zip(*np.nonzero(d2 < lim2)):
            key = (agents[iu[k]], agents[ju[k]])
            pair_bad.setdefault(key, set()).add(lo + int(t))
            pair_worst[key] = min(pair_worst.get(key, math.inf), math.sqrt(float(d2[t, k])))
        cl = boundary_distance_many(P.reshape(-1, 2), w).reshape(len(tt), n)
        min_clear = min(min_clear, float(cl.min()))
        for t, i in zip(*np.nonzero(cl < r - tol)):
            bound_bad.setdefault(agents[i], set()).add(lo + int(t))
            bound_worst[agents[i]] = min(bound_worst.get(agents[i], math.inf), float(cl[t, i]))

    def runs(idxs):
        idxs = sorted(idxs)
        start = prev = idxs[0]
        for i in idxs[1:] + [None]:
            if i is not None and i == prev + 1:
                prev = i
                continue
            yield float(times[start]), float(times[prev])
            start = prev = i

    violations = [
        Violation("pair", key, t0, t1, pair_worst[key])
        for key in sorted(pair_bad, key=repr)
        for t0, t1 in runs(pair_bad[key])
    ] + [
        Violation("boundary", (a,), t0, t1, bound_worst[a])
        for a in sorted(bound_bad, key=repr)
        for t0, t1 in runs(bound_bad[a])
    ]
    return VerificationReport(min_pair, min_clear, violations, len(times))


def head_on():
    """Two agents meet head-on mid-way through a run that spans several
    chunks; a third stands far off the whole time."""
    return trajectory_set(
        40.0,
        a=[hold(0, (2, 5)), line(13, 33, (2, 5), (18, 5))],
        b=[hold(0, (18, 5)), line(13, 33, (18, 5), (2, 5))],
        c=[hold(0, (10, 8.5))],
    )


def near_wall():
    """One agent grazes the wall and comes back; another hops to the wall
    between two samples and stays there."""
    return trajectory_set(
        25.0,
        a=[hold(0, (5, 5)), line(2, 6, (5, 5), (5, 9.5)), line(6, 10, (5, 9.5), (5, 5))],
        b=[hold(0, (15, 5)), line(9.55, 9.9, (15, 5), (19.4, 5))],
    )


def three_disks():
    """A mover passes between two still agents, under 2r from both at once."""
    return trajectory_set(
        40.0,
        a=[hold(0, (1, 5)), line(20, 38, (1, 5), (19, 5))],
        b=[hold(0, (10, 3.5))],
        c=[hold(0, (10, 6.5))],
    )


@pytest.mark.parametrize("make", [head_on, near_wall, three_disks])
@pytest.mark.parametrize("dt", [0.05, 0.3, 0.5])
def test_crafted_cases_match_oracle(make, dt):
    w = rectangle_workspace(20.0, 10.0)
    ts = make()
    rep = sampled_verify(ts, w, 1.0, dt)
    assert not rep.ok
    assert rep == all_agents_verify(ts, w, 1.0, dt)


def test_three_disks_reports_both_pairs():
    w = rectangle_workspace(20.0, 10.0)
    rep = sampled_verify(three_disks(), w, 1.0, 0.05)
    pairs = {v.agents: v for v in rep.violations if v.kind == "pair"}
    assert set(pairs) == {("a", "b"), ("a", "c")}
    # the mover is under 2r from both over the same stretch
    assert pairs["a", "b"].t_start == pairs["a", "c"].t_start
    assert pairs["a", "b"].worst == pytest.approx(1.5)
    assert pairs["a", "c"].worst == pytest.approx(1.5)


def test_near_wall_reports_hop_between_samples():
    w = rectangle_workspace(20.0, 10.0)
    rep = sampled_verify(near_wall(), w, 1.0, 0.5)
    bound = {v.agents: v for v in rep.violations if v.kind == "boundary"}
    assert bound["b",].t_start == 10.0 and bound["b",].t_end == 25.0
    assert rep.min_clearance == pytest.approx(0.5)


@pytest.mark.parametrize("name", ["rect_12", "obstacles_30"])
def test_pipeline_runs_match_oracle(name):
    s = scenario_from_dict(load_json(SCENARIOS / f"{name}.json"))
    run, art = run_pipeline(s)
    assert art.verification.ok
    oracle = all_agents_verify(art.trajectory, s.workspace, s.r, s.params.dt)
    assert sampled_verify(art.trajectory, s.workspace, s.r, s.params.dt) == oracle
