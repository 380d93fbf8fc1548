"""End-to-end pipeline: convert, assign, navigate, plan, realize, verify.

`run_pipeline` is the one path from a scenario to a verified plan (and, with
an output directory, its artifacts); `convert_scenario` is its first stage,
shared with the CLI's `convert`.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .assignment import (
    grid_unreachable,
    navigate,
    optimal_assignment,
    radial_hints,
)
from .conversion import ConversionResult, greedy_convert, realization_edge_cost
from .errors import (
    AssignmentFailure,
    InsufficientCapacity,
    InvalidScenario,
    NavigationFailure,
    TooFewSlots,
)
from .fileio import (
    Scenario,
    dump_json,
    graph_to_dict,
    plan_to_dict,
    scenario_to_dict,
    trajectory_to_csv,
)
from .geometry import Point2, Workspace, dist, disk_in_free_space, Disk
from .planner import Plan, plan_permutation
from .render_svg import render_scene
from .swap_graph import Occupancy, VACANT
from .trajectory import (
    Track,
    TrajectorySet,
    VerificationReport,
    realize_plan,
    verify_trajectories,
)


@dataclass
class RunReport:
    scenario: str
    n_agents: int
    num_vertices: int
    op_count: int
    horizon: float
    density: float
    timings: dict[str, float]
    min_pairwise: float
    min_clearance: float
    violations: int
    success: bool
    verification: dict  # what the certificate checked, and where the minima are
    plan: dict  # the planner's counters (Plan.counters)
    navigate: dict  # per leg: assignment.NAV_COUNTERS summed over retries, and the retries
    convert: dict  # conversion.CONVERT_COUNTERS


@dataclass
class RunArtifacts:
    conversion: ConversionResult
    plan: Plan  # its `start` and `goal` are the occupancies the navigation legs reach
    trajectory: TrajectorySet
    verification: VerificationReport


def concat_trajectories(parts: list[TrajectorySet]) -> TrajectorySet:
    """Stitch trajectory sets end to end; an agent missing from a part holds."""
    pieces: dict[object, list] = {}
    t = 0.0
    for p in parts:
        for a, track in p.segments.items():
            pieces.setdefault(a, []).append((track, t))
        t += p.horizon
    return TrajectorySet({a: Track.joined(ps) for a, ps in pieces.items()}, t)


def scenario_density(s: Scenario) -> float:
    return len(s.agents) * math.pi * s.r**2 / s.workspace.free_area()


def convert_scenario(s: Scenario) -> ConversionResult:
    """Check `s`, then convert its free space into a swap graph.

    Raises InvalidScenario, naming the first broken invariant, before any
    conversion work. The graph stops growing at the scenario's threshold,
    which defaults to N + 1 vertices.
    """
    problems = s.validate()
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        raise InvalidScenario(f"scenario: {problems[0]}{more}")
    n = len(s.agents)
    return greedy_convert(
        s.workspace,
        s.r,
        threshold=s.params.threshold if s.params.threshold is not None else n + 1,
        starts=s.starts(),
        epsilon=s.params.epsilon,
        k_max=s.params.k_max,
    )


def run_pipeline(
    s: Scenario, out_dir: Optional[str] = None
) -> tuple[RunReport, RunArtifacts]:
    """Full run: convert -> assign -> plan -> realize -> verify (+ artifacts).

    Raises InvalidScenario before any work, and InsufficientCapacity /
    AssignmentFailure / NavigationFailure with the failing stage; any
    violation found by the final verification also fails the run (reflected
    in the report's success flag).
    """
    w = s.workspace
    n = len(s.agents)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    res = convert_scenario(s)
    timings["convert"] = time.perf_counter() - t0
    g = res.graph
    if g.num_vertices() < n + 1:
        raise InsufficientCapacity(
            f"convert: graph has {g.num_vertices()} vertices for {n} agents"
        )

    t0 = time.perf_counter()
    vids = g.vertex_ids()
    slots = [g.positions[v] for v in vids]
    try:
        asg_start = optimal_assignment(s.starts(), slots)
        asg_goal = optimal_assignment(s.goals(), slots)
    except (TooFewSlots, ValueError) as e:
        raise AssignmentFailure(f"assign: {e}") from e
    timings["assign"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # assignment and navigation key an agent by its row; from here on, its id
    ids = [a.id for a in s.agents]
    # navigate both endpoints before planning; a stuck agent is retried on a
    # spare slot (the graph always has at least one more vertex than agents)
    prologue, start_slots = _navigate_with_retries(s, res, vids, ids, asg_start, s.starts())
    if not prologue.ok:
        raise _stuck(s, "start", ids, prologue.stuck_agents, s.starts(), slots, res.grid)
    inbound, goal_slots = _navigate_with_retries(s, res, vids, ids, asg_goal, s.goals())
    if not inbound.ok:
        raise _stuck(s, "goal", ids, inbound.stuck_agents, s.goals(), slots, res.grid)
    start = _occupancy_from_slots(vids, ids, start_slots)
    goal = _occupancy_from_slots(vids, ids, goal_slots)
    timings["navigate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan = plan_permutation(g, start, goal, realization_edge_cost(res))
    timings["plan"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    main = realize_plan(res, plan)
    # the goal leg ran from the goals onto the slots; time reversal keeps it
    # collision-free and makes it run from the slots to the goals
    h = inbound.trajectory.horizon
    epilogue = TrajectorySet(
        {a: tr.reversed(h) for a, tr in inbound.trajectory.segments.items()}, h
    )
    full = concat_trajectories([prologue.trajectory, main, epilogue])
    timings["realize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = verify_trajectories(full, w, s.r)
    timings["verify"] = time.perf_counter() - t0

    run = RunReport(
        scenario=s.name,
        n_agents=n,
        num_vertices=g.num_vertices(),
        op_count=len(plan.ops),
        horizon=full.horizon,
        density=scenario_density(s),
        timings={k: round(v, 4) for k, v in timings.items()},
        min_pairwise=report.min_pairwise,
        min_clearance=report.min_clearance,
        violations=len(report.violations),
        success=report.ok,
        verification=_verification_block(report),
        plan=plan.counters,
        navigate={"start": prologue.counters, "goal": inbound.counters},
        convert=res.counters,
    )
    artifacts = RunArtifacts(res, plan, full, report)
    if out_dir is not None:
        _write_artifacts(out_dir, s, run, artifacts)
    return run, artifacts


def _verification_block(rep: VerificationReport) -> dict:
    (a, b, t), (c, tc) = rep.worst_pair or (None, None, None), rep.worst_clearance or (None, None)
    return {
        "intervals": rep.samples,
        "records": rep.records,
        "checks": rep.checks,
        "worst_pair": {"agents": [a, b], "t": t, "distance": rep.min_pairwise},
        "worst_clearance": {"agent": c, "t": tc, "clearance": rep.min_clearance},
    }


def _occupancy_from_slots(vids, ids, slot_of) -> Occupancy:
    mapping = {v: VACANT for v in vids}
    for agent, slot in zip(ids, slot_of):
        mapping[vids[slot]] = agent
    return Occupancy(mapping)


def _navigate_with_retries(s: Scenario, res, vids, ids, asg, leg_points):
    """Run one navigation leg, moving stuck agents onto spare slots.

    A leg moves the agents from `leg_points` (the scenario's starts or goals,
    in row order) onto their slots `asg.slot_of`, inner rings first, and
    names their tracks by `ids`. The goal leg is this same motion played
    backwards. On a stall each stuck row's slot is swapped for the nearest
    free spare that row has not tried in this leg, and the leg is retried;
    it stops when no stuck row can move. Returns the last result, its
    counters summed over the attempts plus the `retries`, and the slot of
    each row.
    """
    g = res.graph
    slot_of = list(asg.slot_of)
    tried = [{j} for j in slot_of]
    counters = Counter()
    for attempt in range(4):
        target_vids = [vids[j] for j in slot_of]
        result = navigate(
            ids,
            np.asarray(leg_points, dtype=float),
            np.array([g.positions[v] for v in target_vids], dtype=float),
            s.workspace,
            s.r,
            [radial_hints(res, v, s.r) for v in target_vids],
            [min(res.loop_layer[li][1] for li in g.loops_of(v)) for v in target_vids],
            res.grid,
        )
        counters.update(result.counters)
        if result.ok:
            break
        used = set(slot_of)
        spares = [j for j in range(len(vids)) if j not in used]
        moved = False
        for k in result.stuck_agents:
            p = leg_points[k]
            spares.sort(key=lambda j: dist(p, g.positions[vids[j]]))
            slot = next((j for j in spares if j not in tried[k]), None)
            if slot is not None:
                spares.remove(slot)
                slot_of[k] = slot
                tried[k].add(slot)
                moved = True
        if not moved:
            break
    result.counters = dict(counters, retries=attempt)
    return result, slot_of


def _stuck(s: Scenario, leg: str, ids, stuck: list, leg_points, slots, grid) -> NavigationFailure:
    """The failure of a leg whose `stuck` rows could not move from their
    `leg_points` (in row order): it names their agents by id, and those with
    no path to any slot on the navigation grid `grid`."""
    names = [ids[k] for k in stuck]
    message = f"navigate: {leg} leg stuck for agents {names}"
    cut = grid_unreachable([leg_points[k] for k in stuck], slots, s.workspace, s.r, grid)
    if cut:
        message += f"; no grid path to any slot for agents {[names[i] for i in cut]}"
    return NavigationFailure(names, message)


def _write_artifacts(out_dir, s: Scenario, run: RunReport, art: RunArtifacts):
    """Write every artifact, then `report.json` with the time they took."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(scenario_to_dict(s), out / "scenario.json")
    dump_json(graph_to_dict(art.conversion), out / "graph.json")
    dump_json(plan_to_dict(art.plan), out / "plan.json")
    trajectory_to_csv(art.trajectory, out / "trajectory.csv")
    svg = render_scene(
        s.workspace,
        res=art.conversion,
        trajectories=art.trajectory,
        agents={a.id: a.start for a in s.agents},
        goals={a.id: a.goal for a in s.agents},
        r=s.r,
    )
    (out / "scene.svg").write_text(svg)
    run.timings["artifacts"] = round(time.perf_counter() - t0, 4)
    dump_json(asdict(run), out / "report.json")


def sample_free_positions(
    w: Workspace, r: float, n: int, rng: np.random.Generator, min_sep: float
) -> list[Point2]:
    """Rejection-sample n positions with disks in free space, pairwise spaced."""
    out: list[Point2] = []
    b = w.bounds
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 20000 * n:
            raise ValueError(f"could not sample {n} positions (placed {len(out)})")
        x = rng.uniform(b.xmin + r, b.xmax - r)
        y = rng.uniform(b.ymin + r, b.ymax - r)
        p = Point2(float(x), float(y))
        if not disk_in_free_space(Disk(p, r), w):
            continue
        if any(dist(p, q) < min_sep for q in out):
            continue
        out.append(p)
    return out

