"""Scenario / graph / plan / trajectory file formats.

Structured text (JSON with sorted keys) for scenario, graph, and plan files
so artifacts stay human-diffable and byte-deterministic. Trajectories are an
exact CSV segment table: one row per motion record of each agent's track,
floats written with `repr`, which the writer computes once per distinct
64-bit pattern in each block of agents. `scenario.json` and `trajectory.csv`
have readers that round-trip exactly; `graph.json`, `plan.json` and
`report.json` are write-only outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .conversion import (
    ConversionResult,
    GapCorridor,
    PathCorridor,
    RadialCorridor,
)
from .geometry import Disk, Point2, Polygon, Rect, Workspace, disk_in_free_space, dist
from .planner import LoopRotation, Plan, VacancySwap
from .trajectory import HOLD, KIND_NAMES, Track, TrajectorySet, track_jumps


# cells a scenario's distance grid may have: over 100x the largest shipped
# grid (rect_100, 9,152 cells), and 8 MB per float64 array of them
MAX_GRID_CELLS = 2**20


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _numbers(xs, n: int) -> bool:
    """Whether `xs` is a list of n numbers."""
    return isinstance(xs, (list, tuple)) and len(xs) == n and all(map(_is_number, xs))


@dataclass
class AgentSpec:
    id: int
    start: Point2
    goal: Point2


@dataclass
class ScenarioParams:
    epsilon: Optional[float] = None
    k_max: int = 64
    threshold: Optional[int] = None
    dt: float = 0.1
    seed: int = 0


@dataclass
class Scenario:
    name: str
    workspace: Workspace
    r: float
    agents: list[AgentSpec]
    params: ScenarioParams = field(default_factory=ScenarioParams)

    def starts(self) -> list[Point2]:
        return [a.start for a in self.agents]

    def goals(self) -> list[Point2]:
        return [a.goal for a in self.agents]

    def validate(self) -> list[str]:
        """Broken scenario invariants, by name (empty list = valid)."""
        out = []
        p = self.params
        for name in ("dt", "epsilon"):
            value = getattr(p, name)
            if value is None and name != "dt":
                continue
            if not _is_number(value):
                out.append(f"{name} {value!r} not a number")
            elif not value > 0:
                out.append(f"{name} {value} not positive")
            elif name == "dt" and not math.isfinite(value):
                # render samples frames dt apart, so it refuses an infinite dt
                out.append(f"dt {value} not finite")
        if not (_is_number(p.k_max) and p.k_max >= 1 and p.k_max % 1 == 0):
            out.append(f"k_max {p.k_max} not an integer >= 1")
        if p.threshold is not None and not _is_number(p.threshold):
            out.append(f"threshold {p.threshold!r} not a number")
        elif p.threshold is not None and not p.threshold >= 1:
            out.append(f"threshold {p.threshold} below 1")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            out.append("agent ids not distinct")
        if not (self.r > 0 and math.isfinite(self.r)):
            out.append(f"r {self.r} not {'finite' if self.r > 0 else 'positive'}")
            return out  # every check below places disks of radius r
        b = self.workspace.bounds
        cells = (b.width / (0.5 * self.r)) * (b.height / (0.5 * self.r))
        if cells > MAX_GRID_CELLS:
            out.append(f"medial-axis grid of {cells:.0f} cells above {MAX_GRID_CELLS}")
        starts = self.starts()
        goals = self.goals()
        for k, p in enumerate(starts):
            if not disk_in_free_space(Disk(p, self.r), self.workspace):
                out.append(f"start of agent {ids[k]} not in free space")
        for k, p in enumerate(goals):
            if not disk_in_free_space(Disk(p, self.r), self.workspace):
                out.append(f"goal of agent {ids[k]} not in free space")
        for i in range(len(starts)):
            for j in range(i + 1, len(starts)):
                if dist(starts[i], starts[j]) < 2 * self.r - self.workspace.tol:
                    out.append(f"starts of agents {ids[i]},{ids[j]} closer than 2r")
                if dist(goals[i], goals[j]) < 2 * self.r - self.workspace.tol:
                    out.append(f"goals of agents {ids[i]},{ids[j]} closer than 2r")
        return out


def workspace_to_dict(w: Workspace) -> dict:
    return {
        "bounds": [w.bounds.xmin, w.bounds.ymin, w.bounds.xmax, w.bounds.ymax],
        "obstacles": [[[p.x, p.y] for p in poly.vertices] for poly in w.obstacles],
    }


def workspace_from_dict(d: dict) -> Workspace:
    """The workspace of `d`; ValueError on bounds that are not four numbers
    or an obstacle vertex that is not two."""
    if not _numbers(d["bounds"], 4):
        raise ValueError(f"bounds {d['bounds']!r} not four numbers")
    for k, ring in enumerate(d["obstacles"]):
        for p in ring:
            if not _numbers(p, 2):
                raise ValueError(f"obstacle {k} vertex {p!r} not two numbers")
    return Workspace(
        Rect(*d["bounds"]),
        tuple(Polygon(tuple(Point2(*p) for p in ring)) for ring in d["obstacles"]),
    )


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "workspace": workspace_to_dict(s.workspace),
        "r": s.r,
        "agents": [
            {"id": a.id, "start": [a.start.x, a.start.y], "goal": [a.goal.x, a.goal.y]}
            for a in s.agents
        ],
        "params": asdict(s.params),
    }


def _agent_from_dict(a: dict) -> AgentSpec:
    aid = a["id"]  # int() alone would turn true into 1 and 2.5 into 2
    if isinstance(aid, bool) or (isinstance(aid, float) and not aid.is_integer()):
        raise ValueError(f"agent id {aid!r} not an integer")
    aid = int(aid)
    for key in ("start", "goal"):
        xy = a[key]
        if not _numbers(xy, 2):
            raise ValueError(f"agent {aid} {key} {xy!r} not two numbers")
    return AgentSpec(aid, Point2(*a["start"]), Point2(*a["goal"]))


def scenario_from_dict(d: dict) -> Scenario:
    """The scenario of `d`. Raises ValueError on a top-level key that no
    `Scenario` field reads or a params key that no `ScenarioParams` field
    reads, unless its value is null, and on an `r`, a bound or a coordinate
    that is not a number (`float` would take "1.0" and true as 1.0)."""
    keys = {f.name for f in fields(Scenario)}
    unknown = [k for k, v in d.items() if k not in keys and v is not None]
    if unknown:
        raise ValueError(f"unknown scenario key {unknown[0]!r}")
    p = d.get("params", {})
    if not isinstance(p, dict):
        raise ValueError(f"params {p!r} not an object")
    names = {f.name for f in fields(ScenarioParams)}
    unknown = [k for k, v in p.items() if k not in names and v is not None]
    if unknown:
        raise ValueError(f"unknown params key {unknown[0]!r}")
    if not _is_number(d["r"]):
        raise ValueError(f"r {d['r']!r} not a number")
    return Scenario(
        name=d.get("name", "scenario"),
        workspace=workspace_from_dict(d["workspace"]),
        r=float(d["r"]),
        agents=[_agent_from_dict(a) for a in d["agents"]],
        params=ScenarioParams(**{k: v for k, v in p.items() if k in names}),
    )


# JSON names of the corridor kinds and plan ops; each is written as its
# dataclass fields plus its name
_NAME = {
    RadialCorridor: "radial",
    GapCorridor: "gap",
    PathCorridor: "path",
    LoopRotation: "rot",
    VacancySwap: "swap",
}


def graph_to_dict(res: ConversionResult) -> dict:
    g = res.graph
    return {
        "r": res.r,
        "circles": [
            {"center": [c.center.x, c.center.y], "radius": c.radius}
            for c in res.circles
        ],
        "vertices": [
            {"id": v, "pos": [g.positions[v].x, g.positions[v].y]}
            for v in g.vertex_ids()
        ],
        "loops": [list(c) for c in g.loops],
        "loop_layer": [list(x) for x in res.loop_layer],
        "inter_edges": [list(e) for e in sorted(g.inter_edges)],
        # each vertex's (circle, ring, slot angle) per loop through it, in loop order
        "vertex_rings": {
            str(v): [
                [*res.loop_layer[li], res.slot_angles[li][g.slot[li][v]]] for li in g.loops_of(v)
            ]
            for v in g.vertex_ids()
        },
        "edge_kinds": [
            {"edge": list(e), "kind": _NAME[type(k)], **asdict(k)}
            for e, k in sorted(res.inter_edge_kind.items())
        ],
    }


def plan_to_dict(plan: Plan) -> dict:
    return {
        "ops": [{"op": _NAME[type(op)], **vars(op)} for op in plan.ops],
        "start": {str(v): a for v, a in sorted(plan.start.mapping.items())},
        "goal": {str(v): a for v, a in sorted(plan.goal.mapping.items())},
    }


def dump_json(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, sort_keys=True) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


TRAJECTORY_HEADER = "agent,t0,t1,kind,p0,p1,p2,p3,p4"


# agents per block of rows that `trajectory_to_csv` builds at once; with 8
# its transient arrays (about 4 MB on rect_50) stay under the peak memory
# of the certificate, which runs before it
_CSV_BLOCK = 8


def trajectory_to_csv(ts: TrajectorySet, path) -> None:
    """Exact segment table: a `# horizon=` line, the header, then one row per
    motion record (see `trajectory.Track`), agents in `ts.agents()` order.

    Each float is written as its `repr`. A block of agents shares many values
    (the riders of one rotation share its times; slot coordinates, radii and
    angles repeat), so `repr` runs once per distinct 64-bit pattern, which
    keeps -0.0 apart from 0.0, and the rows index into those strings.
    """
    agents = ts.agents()
    kinds = np.array(KIND_NAMES, dtype=object)
    with open(path, "w") as f:  # one block of agents at a time, to keep memory flat
        f.write(f"# horizon={ts.horizon!r}\n{TRAJECTORY_HEADER}\n")
        for lo in range(0, len(agents), _CSV_BLOCK):
            block = agents[lo : lo + _CSV_BLOCK]
            tracks = [ts.segments[a] for a in block]
            floats = np.concatenate([np.column_stack([tr.t0, tr.t1, tr.par]) for tr in tracks])
            bits, index = np.unique(floats.view(np.int64), return_inverse=True)
            text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
            cells = np.empty((len(floats), 9), dtype=object)
            names = np.array([str(a) for a in block], dtype=object)
            cells[:, 0] = np.repeat(names, [len(tr) for tr in tracks])
            cells[:, [1, 2, 4, 5, 6, 7, 8]] = text[index.reshape(floats.shape)]
            cells[:, 3] = kinds[np.concatenate([tr.kind for tr in tracks])]
            f.write("\n".join(map(",".join, cells.tolist())) + "\n")


def trajectory_from_csv(path) -> TrajectorySet:
    """The `TrajectorySet` written by `trajectory_to_csv`; integer agent ids
    come back as ints.

    Raises ValueError unless the horizon is finite and non-negative and each
    agent's records open with a hold, end no earlier than they start, follow
    one another in time without overlap, end by the horizon, and never jump
    (`track_jumps`).
    """
    rows = Path(path).read_text().splitlines()
    if rows[1:2] != [TRAJECTORY_HEADER] or not rows[0].startswith("# horizon="):
        raise ValueError(f"{path}: not a trajectory segment table")
    kinds = {name: code for code, name in enumerate(KIND_NAMES)}
    records: dict = {}
    for row in rows[2:]:
        a, t0, t1, kind, *par = row.split(",")
        agent = int(a) if a.lstrip("-").isdigit() else a
        records.setdefault(agent, []).append(
            (float(t0), float(t1), kinds[kind], *map(float, par))
        )
    horizon = float(rows[0].split("=", 1)[1])
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"{path}: horizon {horizon!r} is not a finite time >= 0")
    tracks = {a: Track.from_records(recs) for a, recs in records.items()}
    for a, tr in tracks.items():
        if tr.kind[0] != HOLD:
            raise ValueError(f"{path}: agent {a!r} does not open with a hold")
        if not (tr.t0 <= tr.t1).all():
            raise ValueError(f"{path}: agent {a!r} has a record ending before it starts")
        if not (tr.t1[:-1] <= tr.t0[1:]).all():
            raise ValueError(f"{path}: records of agent {a!r} are not in time order")
        if tr.t1[-1] > horizon:
            raise ValueError(f"{path}: records of agent {a!r} run past the horizon")
        jumps = track_jumps(tr)
        if jumps:
            t, d = jumps[0]
            raise ValueError(f"{path}: agent {a!r} jumps by {d!r} at t = {t!r}")
    return TrajectorySet(tracks, horizon)
