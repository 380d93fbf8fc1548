"""Acceptance suite: one test per shipped criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured numbers.
"""

import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from capsule_reference import point_segment_distance
from graph_fixtures import (
    circle_graph,
    four_loop_example,
    random_graph,
    random_occupancy,
    shuffled_goal,
)
from test_planner import loopwise_reversal_instance

from swapmotion.assignment import optimal_assignment
from swapmotion.capacity import loop_capacity, port_gap, slot_pitch
from swapmotion.conversion import RadialCorridor
from swapmotion.errors import SwapMotionError
from swapmotion.fileio import (
    AgentSpec,
    Scenario,
    ScenarioParams,
    dump_json,
    load_json,
    plan_to_dict,
    scenario_from_dict,
)
from swapmotion.geometry import Disk, Point2, dists, rectangle_workspace
from swapmotion.pipeline import run_pipeline, sample_free_positions
from swapmotion.planner import exchange, execute, plan_permutation, apply_ops
from swapmotion.swap_graph import (
    Occupancy,
    vertex_distance,
    vertex_loop_distance,
)

from sampling_oracle import sampled_verify

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# project-wide envelope constants, frozen from measured runs
PLAN_OPS_ENVELOPE_C = 12.0
VERIFY_TOL = 1e-6

BENCH_NAMES = [
    "rect_12",
    "rect_50",
    "rect_100",
    "obstacles_30",
    "maple_approx_24",
    "grid_20",
]

_cache: dict = {}


def bench_runs():
    """Run every shipped benchmark scenario once; cached across criteria."""
    if "runs" not in _cache:
        runs = {}
        for name in BENCH_NAMES:
            s = scenario_from_dict(load_json(SCENARIOS / f"{name}.json"))
            t0 = time.perf_counter()
            run, art = run_pipeline(s)
            wall = time.perf_counter() - t0
            runs[name] = (s, run, art, wall)
        _cache["runs"] = runs
    return _cache["runs"]


def random_plan_suite():
    """500 random valid swap graphs with single-vacancy goal permutations."""
    if "suite" not in _cache:
        rng = random.Random(2024)
        suite = []
        for _ in range(500):
            g = random_graph(rng, max_vertices=rng.randint(8, 40))
            start = random_occupancy(rng, g, n_vacant=1)
            goal = shuffled_goal(rng, g, start)
            suite.append((g, start, goal))
        _cache["suite"] = suite
    return _cache["suite"]


def test_criterion_1_golden_distances():
    g = four_loop_example()
    t0 = time.perf_counter()
    checks = [
        vertex_distance(g, 12, 14) == 1,
        vertex_distance(g, 11, 10) == 0,
        vertex_distance(g, 15, 5) == 1,
        vertex_loop_distance(g, 17, 0) == 1,
    ]
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    print(f"[criterion 1] {'PASS' if ok else 'FAIL'}: golden distances exact "
          f"({elapsed*1000:.2f} ms)")
    assert all(checks)
    assert elapsed < 1.0


def test_criterion_2_capacity_anchors():
    t0 = time.perf_counter()
    assert loop_capacity(0) == 0
    assert loop_capacity(1) == 6
    res = circle_graph([Disk(Point2(0.0, 0.0), 21.0)])
    rings = {ring: li for li, (_, ring) in enumerate(res.loop_layer)}
    assert max(rings) == 10
    g = res.graph
    pts = {v: g.positions[v] for v in g.vertex_ids()}
    # pairwise spacing of every placed vertex
    ids = sorted(pts)
    arr = np.array([pts[v] for v in ids])
    d2 = np.sum((arr[:, None, :] - arr[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    assert math.sqrt(d2.min()) >= 2.0 - 1e-9
    # each inter-ring capsule hosts exactly its two endpoints
    for e, kind in res.inter_edge_kind.items():
        assert isinstance(kind, RadialCorridor)
        u, v = e
        a, b = pts[u], pts[v]
        for x in ids:
            if x in (u, v):
                continue
            assert point_segment_distance(pts[x], a, b) >= 2.0 - 1e-9, (e, x)
    # packing oracle never fits fewer slots than the formula claims
    for i in range(2, 11):
        pitch = slot_pitch(i)
        gap = port_gap(i)
        n = loop_capacity(i)
        placed = [gap]
        while placed[-1] + pitch <= 2 * math.pi - gap + 1e-9:
            placed.append(placed[-1] + pitch)
        oracle = len(placed) + 1  # plus the port slot itself
        assert oracle >= n, (i, oracle, n)
        assert len(g.loops[rings[i]]) == n
    elapsed = time.perf_counter() - t0
    print(f"[criterion 2] PASS: capacity anchors and packing oracle "
          f"({elapsed:.2f} s)")
    assert elapsed < 1.0


def test_criterion_3_discrete_completeness():
    t0 = time.perf_counter()
    solved = 0
    for g, start, goal in random_plan_suite():
        plan = plan_permutation(g, start, goal)
        final = execute(plan, g)  # raises IllegalOp on any bad op
        assert final.mapping == goal.mapping
        solved += 1
    elapsed = time.perf_counter() - t0
    print(f"[criterion 3] PASS: {solved}/500 random instances planned and "
          f"executed ({elapsed:.1f} s)")
    assert solved == 500
    assert elapsed < 60.0


def test_criterion_4_quadratic_bound():
    t0 = time.perf_counter()
    worst = 0.0
    for g, start, goal in random_plan_suite():
        plan = plan_permutation(g, start, goal)
        n = g.num_vertices()
        worst = max(worst, len(plan.ops) / (n * n))
    assert worst <= PLAN_OPS_ENVELOPE_C
    xs, ys = [], []
    for q in (4, 8, 12, 16, 20):
        g, start, goal = loopwise_reversal_instance(q)
        plan = plan_permutation(g, start, goal)
        assert execute(plan, g).mapping == goal.mapping
        xs.append(math.log(3 * q))
        ys.append(math.log(len(plan.ops)))
    slope = float(np.polyfit(xs, ys, 1)[0])
    elapsed = time.perf_counter() - t0
    ok = worst <= PLAN_OPS_ENVELOPE_C and slope >= 1.8
    print(f"[criterion 4] {'PASS' if ok else 'FAIL'}: ops/|V|^2 <= "
          f"{worst:.2f} (C = {PLAN_OPS_ENVELOPE_C}), worst-case slope "
          f"{slope:.2f} >= 1.8 ({elapsed:.1f} s)")
    assert slope >= 1.8
    assert elapsed < 120.0


def test_criterion_5_exchange_locality():
    t0 = time.perf_counter()
    rng = random.Random(77)
    for _ in range(1000):
        g = random_graph(rng, max_vertices=rng.randint(8, 40))
        occ = random_occupancy(rng, g, n_vacant=1)
        occupied = [v for v in g.vertex_ids() if occ.mapping[v] is not None]
        v, v2 = rng.sample(occupied, 2)
        out = apply_ops(occ, g, exchange(g, occ, v, v2))
        diff = sorted(x for x in g.vertex_ids() if out.mapping[x] != occ.mapping[x])
        assert diff == sorted([v, v2])
        assert out.vacant_vertex() == occ.vacant_vertex()
    elapsed = time.perf_counter() - t0
    print(f"[criterion 5] PASS: 1000 exchanges touch exactly their two targets "
          f"({elapsed:.1f} s)")
    assert elapsed < 30.0


def test_criterion_6_continuous_safety():
    t0 = time.perf_counter()
    lines = []
    for name, (s, run, art, wall) in bench_runs().items():
        rep = sampled_verify(art.trajectory, s.workspace, s.r, 0.05 * s.r)
        assert rep.ok, (name, rep.violations[:3])
        assert rep.min_pairwise >= 2 * s.r - VERIFY_TOL * s.r
        assert rep.min_clearance >= s.r - VERIFY_TOL * s.r
        lines.append(f"{name}: min_pair={rep.min_pairwise:.7f} "
                     f"min_clear={rep.min_clearance:.4f} samples={rep.samples}")
    elapsed = time.perf_counter() - t0
    print(f"[criterion 6] PASS: all benchmark trajectories verified at dt=0.05r "
          f"({elapsed:.1f} s)")
    for line in lines:
        print("   ", line)
    assert elapsed < 120.0


def test_criterion_7_desk_scale_benchmarks():
    runs = bench_runs()
    for name in ("rect_50", "rect_100"):
        s, run, art, wall = runs[name]
        assert run.success
        bar = "meets 5 s target" if wall <= 5.0 else "exceeds 5 s target"
        print(f"[criterion 7] {name}: wall {wall:.1f} s ({bar}; hard bar 30 s), "
              f"|V|={run.num_vertices} ops={run.op_count}")
        assert wall <= 30.0
    # density sweep on an empty rectangle up to >= 25% occupancy
    w = rectangle_workspace(24.0, 24.0)
    area = w.free_area()
    for frac in (0.10, 0.18, 0.25):
        n = int(math.ceil(frac * area / math.pi))
        rng = np.random.default_rng(31)
        starts = sample_free_positions(w, 1.0, n, rng, 2.0)
        goals = sample_free_positions(w, 1.0, n, rng, 2.0)
        s = Scenario(
            f"sweep_{int(frac*100)}", w, 1.0,
            [AgentSpec(i, starts[i], goals[i]) for i in range(n)],
            ScenarioParams(dt=0.25, threshold=None),
        )
        t0 = time.perf_counter()
        run, art = run_pipeline(s)
        assert run.success, (frac, n)
        print(f"[criterion 7] density {frac:.0%} ({n} agents): success "
              f"({time.perf_counter()-t0:.1f} s)")
    print("[criterion 7] PASS")


# (op_count, horizon rounded up) of each shipped scenario before parked cores
# with one vacancy became one ring swap; no later plan may be longer
PLAN_CEILINGS = {
    "rect_12": (273, 1072),
    "rect_50": (4447, 21531),
    "rect_100": (12982, 58833),
    "obstacles_30": (2292, 12619),
    "maple_approx_24": (1069, 3303),
    "grid_20": (672, 3689),
}


def test_shipped_plans_stay_short():
    for name, (s, run, art, wall) in bench_runs().items():
        ops, horizon = PLAN_CEILINGS[name]
        assert run.op_count <= ops and run.horizon <= horizon, (name, run.op_count, run.horizon)


def test_criterion_8_assignment_optimality():
    t0 = time.perf_counter()
    rng = random.Random(88)
    perms = {}  # (m, n) -> every injection of n starts into m slots, one per row
    for _ in range(1000):
        n = rng.randint(1, 8)
        # keep the exhaustive oracle tractable: square up to 8, small overhang
        m = n if n >= 6 else rng.randint(n, n + 2)
        starts = [Point2(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(n)]
        slots = [Point2(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(m)]
        asg = optimal_assignment(starts, slots)
        if (m, n) not in perms:
            perms[(m, n)] = np.array(list(itertools.permutations(range(m), n)))
        cost = dists(np.array(starts)[:, None], np.array(slots)[None, :])
        best = cost[np.arange(n), perms[(m, n)]].sum(axis=1).min()
        assert asg.total_cost == pytest.approx(best, abs=1e-9)
    elapsed = time.perf_counter() - t0
    print(f"[criterion 8] PASS: 1000 assignments match the exhaustive optimum "
          f"({elapsed:.1f} s)")
    assert elapsed < 30.0


def test_criterion_9_determinism(tmp_path):
    s = scenario_from_dict(load_json(SCENARIOS / "rect_12.json"))
    blobs = []
    for k in range(2):
        run, art = run_pipeline(s)
        p = tmp_path / f"plan_{k}.json"
        dump_json(plan_to_dict(art.plan), p)
        blobs.append(p.read_bytes())
    ok = blobs[0] == blobs[1]
    print(f"[criterion 9] {'PASS' if ok else 'FAIL'}: plan files byte-identical "
          f"({len(blobs[0])} bytes)")
    assert ok
