"""Closest-assignment of agents to graph slots, and local navigation.

Assignment solves the min-total-distance matching exactly (the LP relaxation
of the matching program is integral, so a combinatorial solver returns the
optimum). Navigation moves agents one at a time, in assignment-cost order,
along straight free segments, falling back to via-point detours and last to
a grid router; making it sequential keeps verification trivial and failures
honest. The router routes on the medial axis's distance grid, whose cells
with clearance r are its static free mask.

Both key an agent by its row k, its place in the scenario, never by its id,
so renaming agents cannot change a plan. Every point is a row of a float
array: points, targets, vias, radial hints, routes and sidestep spots are
(k, 2) arrays, so the capsule checks take them as they are. Distances that
rank a candidate or time a record use `dist`/`dists` (math.hypot), never
np.hypot, which can differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import TooFewSlots
from .geometry import (
    Point2,
    Workspace,
    capsule_free,
    capsules_free,
    disks_free,
    dist,
    dists,
    point_segment_distances,
)
from .medial_axis import DistanceGrid, _fragments
from .trajectory import SPEED, Track, TrajectorySet, hold_record, line_record


@dataclass
class Assignment:
    """The slot index of each agent row (no two alike), with the total cost."""

    slot_of: list[int]
    total_cost: float


def optimal_assignment(starts: Sequence[Point2], slots: Sequence[Point2]) -> Assignment:
    """Minimum-total-Euclidean-distance assignment of starts into slots."""
    if len(starts) > len(slots):
        raise TooFewSlots(f"{len(starts)} agents but only {len(slots)} slots")
    if not starts:
        return Assignment([], 0.0)
    S = np.asarray(starts, dtype=float)
    T = np.asarray(slots, dtype=float)
    cost = np.linalg.norm(S[:, None, :] - T[None, :, :], axis=2)
    cols = _min_cost_columns(cost)
    return Assignment(cols.tolist(), float(cost[np.arange(len(cols)), cols].sum()))


def _min_cost_columns(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of an nr x nc matrix,
    nr <= nc.

    The shortest augmenting path algorithm of Crouse, "On implementing 2D
    rectangular assignment algorithms" (IEEE TAES 2016), a variant of Jonker
    and Volgenant, with the column order and tie-breaking of scipy's
    `linear_sum_assignment`, so the two return the same columns. Rows join
    in order, one augmenting path each; every search step is vectorised over
    the columns the path has not reached.
    """
    cost = np.asarray(cost, dtype=float)
    nr, nc = cost.shape
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix has a non-finite entry")
    u = np.zeros(nr)
    v = np.zeros(nc)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)
    path = np.full(nc, -1, dtype=np.intp)
    for cur in range(nr):
        spc = np.full(nc, np.inf)  # shortest path cost to each column
        in_sr = np.zeros(nr, dtype=bool)
        in_sc = np.zeros(nc, dtype=bool)
        # reverse order, so a constant matrix gives the identity; a column
        # leaves by moving the last remaining one into its index
        remaining = np.arange(nc - 1, -1, -1)
        n = nc
        i = cur
        min_val = 0.0
        while True:
            in_sr[i] = True
            rem = remaining[:n]
            reduced = min_val + cost[i, rem] - u[i] - v[rem]
            shorter = reduced < spc[rem]
            path[rem[shorter]] = i
            spc[rem[shorter]] = reduced[shorter]
            costs = spc[rem]
            min_val = costs.min()
            # the first minimum, unless a later tied column is unassigned
            ties = np.flatnonzero(costs == min_val)
            free = ties[row4col[rem[ties]] == -1]
            index = free[-1] if len(free) else ties[0]
            j = rem[index]
            in_sc[j] = True
            n -= 1
            remaining[index] = remaining[n]
            if row4col[j] == -1:
                break
            i = row4col[j]
        u[cur] += min_val
        in_sr[cur] = False
        rows = np.flatnonzero(in_sr)
        u[rows] += min_val - spc[col4row[rows]]
        v[in_sc] -= min_val - spc[in_sc]
        while True:  # augment along the path back to `cur`
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


# navigation counters: routes by tier, grid routes tried, crowd sidesteps
NAV_COUNTERS = (
    "direct", "hint_detour", "via_detour", "two_leg", "grid", "grid_tried", "sidesteps"
)


@dataclass
class NavigationResult:
    trajectory: TrajectorySet
    stuck_agents: list  # rows
    counters: dict  # NAV_COUNTERS by name

    @property
    def ok(self) -> bool:
        return not self.stuck_agents


def _via_candidates(w: Workspace, r: float, spacing: float) -> np.ndarray:
    b = w.bounds
    xs = np.arange(b.xmin + 2 * r, b.xmax - 2 * r + 1e-9, spacing)
    ys = np.arange(b.ymin + 2 * r, b.ymax - 2 * r + 1e-9, spacing)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts[disks_free(pts, w, r)]


def navigate(
    agents: Sequence,
    points: np.ndarray,
    targets: np.ndarray,
    w: Workspace,
    r: float,
    hints: Sequence[np.ndarray],
    phases: Sequence[int],
    grid: DistanceGrid,
) -> NavigationResult:
    """Move each agent row from its point to its target, one at a time.

    Row k of `points` and `targets` ((N, 2) arrays), `hints[k]` (staging
    points, (m, 2), possibly empty) and `phases[k]` are agent k's; `agents[k]`
    only names its track, and `stuck_agents` are rows. The last resort routes
    on `grid`, the medial axis's distance grid of `w`. Both navigation legs
    of the pipeline run here in one mode, from scenario points (starts, or
    goals for the goal leg, which is played backwards) onto slots. Agents
    are grouped into phases (e.g. inner rings first); a phase must finish
    before the next starts, so earlier arrivals never seal off later
    targets. Within a phase agents go nearest first and are retried over
    multiple passes; on a stall, an agent crowding a blocked route is
    sidestepped to a free spot, and a state that repeats after a sidestep
    ends the leg with the phase's agents stuck.
    """
    n = len(agents)
    # row k: where agent k is (written only by emit) and its target
    centres = np.array(points, dtype=float).reshape(-1, 2)
    goals = np.array(targets, dtype=float).reshape(-1, 2)
    if not len(centres) == len(goals) == len(hints) == len(phases) == n:
        rows = f"{len(centres)} points, {len(goals)} targets, {len(hints)} hints"
        raise ValueError(f"navigate: {n} agents but {rows}, {len(phases)} phases")
    rank = [(phases[k], dist(centres[k], goals[k]), k) for k in range(n)]
    vias = None
    counters = dict.fromkeys(NAV_COUNTERS, 0)
    t = 0.0
    records = [[hold_record(0.0, p)] for p in centres.tolist()]
    stuck: list = []
    budget = 6 * n + 12

    def emit(k, route):
        nonlocal t
        route = route.tolist()
        for p, q in zip(route, route[1:]):
            d = dist(p, q) / SPEED
            if d > 0:
                records[k].append(line_record(t, t + d, p, q))
                t += d
        centres[k] = route[-1]

    thorough_budget = [8] * n

    def try_move(k, thorough=False) -> bool:
        nonlocal vias
        here, goal, others = centres[k], goals[k], np.delete(centres, k, axis=0)
        tier = "direct"
        route = _find_route(here, goal, w, r, others)
        if route is None:
            tier = "hint_detour"
            route = _detour_route(here, goal, w, r, others, hints[k])
        if route is None:
            tier = "via_detour"
            if vias is None:
                vias = _via_candidates(w, r, max(2.5 * r, w.bounds.diameter() / 24))
            route = _detour_route(here, goal, w, r, others, vias)
        if route is None:
            tier = "two_leg"
            route = _two_leg_route(here, goal, w, r, others, hints[k], vias)
        if route is None and thorough and thorough_budget[k] > 0:
            tier = "grid"
            thorough_budget[k] -= 1
            counters["grid_tried"] += 1
            route = _grid_route(here, goal, w, r, others, grid)
        if route is None:
            return False
        counters[tier] += 1
        emit(k, route)
        return True

    remaining_all = [k for k in sorted(range(n), key=rank.__getitem__) if rank[k][1] > 1e-12]
    seen = set()  # (positions, queue) after each nudge
    while remaining_all:
        min_phase = min(rank[k][0] for k in remaining_all)
        active = [k for k in remaining_all if rank[k][0] == min_phase]
        moved = [k for k in active if try_move(k)]
        if not moved:
            moved = [k for k in active if try_move(k, thorough=True)]
        if moved:
            remaining_all = [k for k in remaining_all if k not in moved]
            continue
        nudged = None
        if budget > 0:
            # every active agent failed the via tier, so `vias` is set
            nudged = _clear_crowd(active, centres, goals, w, r, vias, emit)
            budget -= 1
            counters["sidesteps"] += nudged is not None
        if nudged is not None and nudged not in remaining_all:
            remaining_all.append(nudged)
            remaining_all.sort(key=rank.__getitem__)
        # routes depend only on the positions, so a repeated state is a livelock
        state = (tuple(centres.ravel().tolist()), tuple(remaining_all))
        if nudged is None or state in seen:
            stuck = active
            break
        seen.add(state)
    tracks = {a: Track.from_records(recs) for a, recs in zip(agents, records)}
    return NavigationResult(TrajectorySet(tracks, t), stuck, counters)


def _find_route(a: np.ndarray, b: np.ndarray, w, r, others) -> Optional[np.ndarray]:
    if dist(a, b) <= 1e-12 or capsule_free(a, b, r, w, others):
        return np.array([a, b])
    return None


def _static_free(grid: DistanceGrid, r: float) -> np.ndarray:
    """The router's static mask: the cells whose disk of radius r lies in the
    free space, ignoring the agents."""
    return grid.clearance >= r - 1e-9


def _stamp_disks(grid: DistanceGrid, others: np.ndarray, r: float) -> np.ndarray:
    """The static mask with every cell closer than 2r to one of the `others`
    centres cleared; only the window that reach can touch is tested."""
    free = _static_free(grid, r)
    xs, ys = grid.xs, grid.ys
    nx, ny = free.shape
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    reach = 2 * r * (1 - 1e-9)
    for cx, cy in others.tolist():
        # cells outside the window lie a full cell beyond the reach
        i0 = max(0, int((cx - reach - xs[0]) / hx))
        i1 = min(nx, int((cx + reach - xs[0]) / hx) + 2)
        j0 = max(0, int((cy - reach - ys[0]) / hy))
        j1 = min(ny, int((cy + reach - ys[0]) / hy) + 2)
        dx = xs[i0:i1, None] - cx
        dy = ys[None, j0:j1] - cy
        free[i0:i1, j0:j1] &= np.sqrt(dx * dx + dy * dy) >= reach
    return free


def _near_free(grid: DistanceGrid, free: np.ndarray, w: Workspace, p) -> Optional[tuple[int, int]]:
    """The cell set in `free` nearest p among the 7 x 7 cells about p's
    cell, or None."""
    nx, ny = free.shape
    bx = w.bounds
    i0 = int(np.clip((p[0] - bx.xmin) / (bx.width / nx), 0, nx - 1))
    j0 = int(np.clip((p[1] - bx.ymin) / (bx.height / ny), 0, ny - 1))
    best = None
    for di in range(-3, 4):
        for dj in range(-3, 4):
            i, j = i0 + di, j0 + dj
            if 0 <= i < nx and 0 <= j < ny and free[i, j]:
                d = (grid.xs[i] - p[0]) ** 2 + (grid.ys[j] - p[1]) ** 2
                if best is None or d < best[0]:
                    best = (d, (i, j))
    return None if best is None else best[1]


def grid_unreachable(points, slots, w: Workspace, r: float, grid: DistanceGrid) -> list:
    """The rows of `points` that have no path to any slot on the router's
    static mask of `grid` (no agents stamped): their point lies in a free
    component that no slot is in."""
    free = _static_free(grid, r)
    row = free.shape[1] + 2
    label = _fragments(np.pad(free, 1).ravel().tolist(), row)

    def component(p) -> int:
        cell = _near_free(grid, free, w, p)
        return 0 if cell is None else label[(cell[0] + 1) * row + cell[1] + 1]

    reached = {component(q) for q in slots} - {0}
    return [k for k, p in enumerate(points) if component(p) not in reached]


# the BFS's neighbour order, as (di, dj); it fixes the BFS tree, so the route
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _grid_route(a: np.ndarray, b: np.ndarray, w, r, others, grid) -> Optional[np.ndarray]:
    """Complete single-agent router: BFS over `grid` with the other agents
    stamped in as obstacles, then string-pulled into a short polyline."""
    from collections import deque

    xs, ys = grid.xs, grid.ys
    free = _stamp_disks(grid, others, r)
    nx, ny = free.shape
    src = _near_free(grid, free, w, a)
    dst = _near_free(grid, free, w, b)
    if src is None or dst is None:
        return None
    # flat indices into the grid padded by one blocked cell on every side
    stride = ny + 2
    padded = np.zeros((nx + 2, stride), dtype=bool)
    padded[1:-1, 1:-1] = free
    is_free = padded.ravel().tolist()
    steps = [di * stride + dj for di, dj in _STEPS]
    src = (src[0] + 1) * stride + src[1] + 1
    dst = (dst[0] + 1) * stride + dst[1] + 1
    prev = [-1] * len(is_free)
    prev[src] = src
    q = deque([src])
    while q:
        cur = q.popleft()
        if cur == dst:
            break
        for step in steps:
            k = cur + step
            if is_free[k] and prev[k] < 0:
                prev[k] = cur
                q.append(k)
    if prev[dst] < 0:
        return None
    chain = [dst]
    while chain[-1] != src:
        chain.append(prev[chain[-1]])
    chain = np.array(chain[::-1])
    cells = np.stack([xs[chain // stride - 1], ys[chain % stride - 1]], axis=1)
    return _string_pull(np.concatenate([[a], cells, [b]]), w, r, others)


def _string_pull(waypoints: np.ndarray, w, r, others) -> Optional[np.ndarray]:
    """Shortcut the (m, 2) polyline: from each kept point jump to the farthest
    waypoint it reaches by a free (or zero-length) segment."""
    keep = [0]
    while keep[-1] < len(waypoints) - 1:
        p, rest = waypoints[keep[-1]], waypoints[keep[-1] + 1 :]
        ok = capsules_free(p, rest, r, w, others) | (dists(rest, p) <= 1e-12)
        hits = np.flatnonzero(ok)
        if not len(hits):
            return None
        keep.append(keep[-1] + 1 + int(hits[-1]))
    return waypoints[keep]


def _free_sidestep(p, away_from, w, r, others, vias) -> Optional[np.ndarray]:
    """Nearest reachable via spot that steps clear of the segment `away_from`
    (a (2, 2) array) and of every one of the `others`."""
    d = dists(vias, p)
    clear = point_segment_distances(vias, away_from[0], away_from[1])
    keep = (d >= 2 * r) & (clear >= 2.5 * r)
    cands = vias[keep]
    scores = d[keep] - 0.1 * clear[keep]
    ok = capsules_free(p, cands, r, w, others)
    ok[ok] = (dists(cands[ok, None], others) >= 2 * r).all(axis=1)
    if not ok.any():
        return None
    # the first candidate of minimum score wins ties
    k = np.flatnonzero(ok)
    return cands[k[np.argmin(scores[k])]]


def _clear_crowd(blocked, centres, goals, w, r, vias, emit):
    """Sidestep one agent crowding a blocked agent's direct route.

    `blocked` are rows of `centres` and `goals`, where each agent is and
    where it is going. Prefers agents still waiting to move; a parked agent
    is nudged only as a last resort (the caller re-queues it). Crowding
    agents are tried nearest first, the lower row on ties. Returns the
    nudged agent's row or None.
    """
    for parked_ok in (False, True):
        for i in blocked:
            seg = np.stack([centres[i], goals[i]])
            near = point_segment_distances(centres, seg[0], seg[1])
            near[i] = np.inf
            crowd = np.flatnonzero(near < 2.2 * r).tolist()
            for k in sorted(crowd, key=lambda k: near[k]):
                if dist(centres[k], goals[k]) <= 1e-12 and not parked_ok:
                    continue
                spot = _free_sidestep(centres[k], seg, w, r, np.delete(centres, k, axis=0), vias)
                if spot is not None:
                    emit(k, np.stack([centres[k], spot]))
                    return k
    return None


def _detour_route(a, b, w, r, others, vias) -> Optional[np.ndarray]:
    """a -> v -> b through the free via v of least extra length (first on ties)."""
    da, db = dists(vias, a), dists(vias, b)
    keep = (da >= 1e-12) & (db >= 1e-12)
    cands = vias[keep]
    ok = capsules_free(a, cands, r, w, others)
    ok[ok] = capsules_free(cands[ok], b, r, w, others)
    free = np.flatnonzero(ok)
    if not len(free):
        return None
    extra = (da + db)[keep][free]  # the first least wins ties
    return np.array([a, cands[free[np.argmin(extra)]], b])


def _two_leg_route(a, b, w, r, others, hints, vias) -> Optional[np.ndarray]:
    """Route a -> grid via -> hint -> b for targets needing a staged approach."""
    to_b = (dists(hints, b) >= 1e-12) & capsules_free(hints, b, r, w, others)
    from_a = capsules_free(a, hints, r, w, others)
    first_legs = None  # vias reachable from a, computed on first need
    for k in np.flatnonzero(to_b).tolist():
        h = hints[k]
        if from_a[k]:
            return np.array([a, h, b])
        if first_legs is None:
            vs = vias[dists(vias, a) >= 1e-12]
            first_legs = vs[capsules_free(a, vs, r, w, others)]
        cands = first_legs[dists(first_legs, h) >= 1e-12]
        hits = np.flatnonzero(capsules_free(cands, h, r, w, others))
        if len(hits):
            return np.array([a, cands[hits[0]], h, b])
    return None


def radial_hints(res, vid: int, r: float) -> np.ndarray:
    """Staging points on the outward radial of a slot, for threading into a
    ring whose neighboring slots are already occupied; a (k, 2) array."""
    out = []
    for li in res.graph.loops_of(vid):
        circle, ring = res.loop_layer[li]
        ang = res.slot_angles[li][res.graph.slot[li][vid]]
        c = res.circles[circle].center
        ux, uy = math.cos(ang), math.sin(ang)
        for extra in (2.5, 4.5, 7.0):
            rad = 2.0 * r * ring + extra * r
            out.append((c.x + rad * ux, c.y + rad * uy))
    return np.array(out, dtype=float).reshape(-1, 2)
