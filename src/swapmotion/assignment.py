"""Closest-assignment of agents to graph slots, and local navigation.

Assignment solves the min-total-distance matching exactly (the LP relaxation
of the matching program is integral, so a combinatorial solver returns the
optimum). Navigation moves agents one at a time, in assignment-cost order,
along straight free segments, falling back to via-point detours and last to
a grid router; making it sequential keeps verification trivial and failures
honest.
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
    point_segment_distances,
)
from .medial_axis import _fragments
from .trajectory import SPEED, Track, TrajectorySet, hold_record, line_record


@dataclass
class Assignment:
    """Bijection from agent index into slot indices, with its total cost."""

    agent_to_slot: dict[int, int]
    total_cost: float


def optimal_assignment(starts: Sequence[Point2], slots: Sequence[Point2]) -> Assignment:
    """Minimum-total-Euclidean-distance assignment of starts into slots."""
    if len(starts) > len(slots):
        raise TooFewSlots(f"{len(starts)} agents but only {len(slots)} slots")
    if not starts:
        return Assignment({}, 0.0)
    S = np.asarray(starts, dtype=float)
    T = np.asarray(slots, dtype=float)
    cost = np.linalg.norm(S[:, None, :] - T[None, :, :], axis=2)
    cols = _min_cost_columns(cost)
    mapping = {i: int(j) for i, j in enumerate(cols)}
    return Assignment(mapping, float(cost[np.arange(len(cols)), cols].sum()))


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
    stuck_agents: list
    counters: dict  # NAV_COUNTERS by name

    @property
    def ok(self) -> bool:
        return not self.stuck_agents


def _via_candidates(w: Workspace, r: float, spacing: float) -> list[Point2]:
    b = w.bounds
    xs = np.arange(b.xmin + 2 * r, b.xmax - 2 * r + 1e-9, spacing)
    ys = np.arange(b.ymin + 2 * r, b.ymax - 2 * r + 1e-9, spacing)
    if len(xs) == 0 or len(ys) == 0:
        return []
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return [Point2(float(x), float(y)) for x, y in pts[disks_free(pts, w, r)]]


def navigate(
    current: dict[object, Point2],
    targets: dict[object, Point2],
    w: Workspace,
    r: float,
    via_hints: Optional[dict[object, list[Point2]]] = None,
    phases: Optional[dict[object, int]] = None,
) -> NavigationResult:
    """Move each agent from its current point to its target, one at a time.

    Both navigation legs of the pipeline run here in one mode, from scenario
    points (starts, or goals for the goal leg, which is played backwards)
    onto slots. Agents are grouped into phases (e.g. inner rings first); a
    phase must finish before the next starts, so earlier arrivals never seal
    off later targets. Within a phase agents go nearest first and are retried
    over multiple passes; on a stall, an agent crowding a blocked route is
    sidestepped to a free spot, and a state that repeats after a sidestep
    ends the leg with the phase's agents stuck. `via_hints` supplies
    agent-specific staging points.
    """
    # one row per agent, written only by emit; a's others are every row but a's
    agents = list(current)
    row = {a: k for k, a in enumerate(agents)}
    centres = np.array(list(current.values()), dtype=float).reshape(-1, 2)
    if phases is None:
        phases = {a: 0 for a in targets}
    rank = {a: (phases[a], dist(current[a], targets[a]), repr(a)) for a in targets}
    via_hints = via_hints or {}
    vias = grid = None
    counters = dict.fromkeys(NAV_COUNTERS, 0)
    t = 0.0
    records = {a: [hold_record(0.0, p)] for a, p in current.items()}
    stuck: list = []
    budget = 6 * len(targets) + 12

    def emit(a, route):
        nonlocal t
        for p, q in zip(route, route[1:]):
            d = dist(p, q) / SPEED
            if d > 0:
                records[a].append(line_record(t, t + d, p, q))
                t += d
        centres[row[a]] = route[-1]

    thorough_budget = {a: 8 for a in targets}

    def try_move(a, thorough=False) -> bool:
        nonlocal vias, grid
        here, others = Point2(*centres[row[a]].tolist()), np.delete(centres, row[a], axis=0)
        tier = "direct"
        route = _find_route(here, targets[a], w, r, others)
        if route is None and a in via_hints:
            tier = "hint_detour"
            route = _detour_route(here, targets[a], w, r, others, via_hints[a])
        if route is None:
            tier = "via_detour"
            if vias is None:
                vias = _via_candidates(w, r, max(2.5 * r, w.bounds.diameter() / 24))
            route = _detour_route(here, targets[a], w, r, others, vias)
        if route is None and a in via_hints:
            tier = "two_leg"
            route = _two_leg_route(here, targets[a], w, r, others, via_hints[a], vias)
        if route is None and thorough and thorough_budget[a] > 0:
            tier = "grid"
            thorough_budget[a] -= 1
            counters["grid_tried"] += 1
            if grid is None:
                grid = _nav_grid(w, r)
            route = _grid_route(here, targets[a], w, r, others, grid)
        if route is None:
            return False
        counters[tier] += 1
        emit(a, route)
        return True

    remaining_all = [a for a in sorted(targets, key=rank.get) if rank[a][1] > 1e-12]
    seen = set()  # (positions, queue) after each nudge
    while remaining_all:
        min_phase = min(phases[a] for a in remaining_all)
        active = [a for a in remaining_all if phases[a] == min_phase]
        moved = [a for a in active if try_move(a)]
        if not moved:
            moved = [a for a in active if try_move(a, thorough=True)]
        if moved:
            remaining_all = [a for a in remaining_all if a not in moved]
            continue
        nudged = None
        if budget > 0:
            nudged = _clear_crowd(active, agents, centres, targets, w, r, vias or [], emit)
            budget -= 1
            counters["sidesteps"] += nudged is not None
        if nudged is not None and nudged not in remaining_all:
            remaining_all.append(nudged)
            remaining_all.sort(key=rank.get)
        # routes depend only on the positions, so a repeated state is a livelock
        state = (tuple(centres.ravel().tolist()), tuple(remaining_all))
        if nudged is None or state in seen:
            stuck = active
            break
        seen.add(state)
    tracks = {a: Track.from_records(a, recs) for a, recs in records.items()}
    return NavigationResult(TrajectorySet(tracks, t), stuck, counters)


def _find_route(a: Point2, b: Point2, w, r, others) -> Optional[list[Point2]]:
    if dist(a, b) <= 1e-12 or capsule_free(a, b, r, w, others):
        return [a, b]
    return None


@dataclass
class NavGrid:
    """Cell centres of the router's grid and its static free mask: the cells
    whose disk of radius r lies in the free space, ignoring the agents."""

    xs: np.ndarray
    ys: np.ndarray
    free: np.ndarray  # bool[len(xs), len(ys)]


def _nav_grid(w: Workspace, r: float) -> NavGrid:
    cell = 0.5 * r
    bx = w.bounds
    nx = max(2, int(bx.width / cell))
    ny = max(2, int(bx.height / cell))
    xs = bx.xmin + (np.arange(nx) + 0.5) * (bx.width / nx)
    ys = bx.ymin + (np.arange(ny) + 0.5) * (bx.height / ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return NavGrid(xs, ys, disks_free(pts, w, r - 1e-9).reshape(nx, ny))


def _stamp_disks(grid: NavGrid, others: np.ndarray, r: float) -> np.ndarray:
    """Copy of the static mask with every cell closer than 2r to one of the
    `others` centres cleared; only the window that reach can touch is tested."""
    free = grid.free.copy()
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


def _near_free(grid: NavGrid, free: np.ndarray, w: Workspace, p) -> Optional[tuple[int, int]]:
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


def grid_unreachable(points: dict, slots: Sequence[Point2], w: Workspace, r: float) -> list:
    """The agents whose point has no path to any slot on the static mask of
    the navigation grid (`NavGrid.free`, no agents stamped), in the order of
    `points`: their point lies in a free component that no slot is in."""
    grid = _nav_grid(w, r)
    row = grid.free.shape[1] + 2
    label = _fragments(np.pad(grid.free, 1).ravel().tolist(), row)

    def component(p) -> int:
        cell = _near_free(grid, grid.free, w, p)
        return 0 if cell is None else label[(cell[0] + 1) * row + cell[1] + 1]

    reached = {component(q) for q in slots} - {0}
    return [a for a, p in points.items() if component(p) not in reached]


# the BFS's neighbour order, as (di, dj); it fixes the BFS tree, so the route
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _grid_route(a: Point2, b: Point2, w, r, others, grid: NavGrid) -> Optional[list[Point2]]:
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
    chain.reverse()
    waypoints = [a] + [
        Point2(float(xs[k // stride - 1]), float(ys[k % stride - 1])) for k in chain
    ] + [b]
    return _string_pull(waypoints, w, r, others)


def _string_pull(waypoints, w, r, others) -> Optional[list[Point2]]:
    """Shortcut the polyline: from each kept point jump to the farthest
    waypoint it reaches by a free (or zero-length) segment."""
    out = [waypoints[0]]
    k = 0
    while k < len(waypoints) - 1:
        rest = waypoints[k + 1 :]
        ok = capsules_free(out[-1], rest, r, w, others)
        ok |= np.array([dist(out[-1], q) <= 1e-12 for q in rest])
        hits = np.flatnonzero(ok)
        if not len(hits):
            return None
        k += 1 + int(hits[-1])
        out.append(waypoints[k])
    return out


def _free_sidestep(p, away_from, w, r, others, vias) -> Optional[Point2]:
    """Nearest reachable via spot that steps clear of the given segment."""
    a, b = np.array(away_from, dtype=float)
    clear = point_segment_distances(np.asarray(vias, dtype=float).reshape(-1, 2), a, b)
    cands, scores = [], []
    for v, seg_clear in zip(vias, clear.tolist()):
        d = dist(p, v)
        if d < 2 * r or seg_clear < 2.5 * r:
            continue
        cands.append(v)
        scores.append(d - 0.1 * seg_clear)
    free = capsules_free(p, cands, r, w, others)
    # stable order: the first candidate of minimum score wins ties
    for k in sorted(range(len(cands)), key=scores.__getitem__):
        if free[k] and all(dist(cands[k], o) >= 2 * r for o in others):
            return cands[k]
    return None


def _clear_crowd(blocked, agents, centres, targets, w, r, vias, emit):
    """Sidestep one agent crowding a blocked agent's direct route.

    Row k of `centres` is where agents[k] is. Prefers agents still waiting
    to move; a parked agent is nudged only as a last resort (the caller
    re-queues it). Returns the nudged agent or None.
    """
    for parked_ok in (False, True):
        for a in blocked:
            i = agents.index(a)
            seg = (Point2(*centres[i].tolist()), targets[a])
            near = point_segment_distances(centres, *np.array(seg, dtype=float))
            near[i] = np.inf
            crowd = np.flatnonzero(near < 2.2 * r).tolist()
            for k in sorted(crowd, key=lambda k: (near[k], repr(agents[k]))):
                b, p = agents[k], Point2(*centres[k].tolist())
                if dist(p, targets.get(b, p)) <= 1e-12 and not parked_ok:
                    continue
                spot = _free_sidestep(p, seg, w, r, np.delete(centres, k, axis=0), vias)
                if spot is not None:
                    emit(b, [p, spot])
                    return b
    return None


def _detour_route(a, b, w, r, others, vias) -> Optional[list[Point2]]:
    """a -> v -> b through the free via v of least extra length (first on ties)."""
    cands = [v for v in vias if dist(a, v) >= 1e-12 and dist(v, b) >= 1e-12]
    n = len(cands)
    ok = capsules_free([a] * n + cands, cands + [b] * n, r, w, others)
    best = None
    for v, free in zip(cands, ok[:n] & ok[n:]):
        extra = dist(a, v) + dist(v, b)
        if free and (best is None or extra < best[0]):
            best = (extra, v)
    if best is None:
        return None
    return [a, best[1], b]


def _two_leg_route(a, b, w, r, others, hints, vias) -> Optional[list[Point2]]:
    """Route a -> grid via -> hint -> b for targets needing a staged approach."""
    n = len(hints)
    ok = capsules_free(list(hints) + [a] * n, [b] * n + list(hints), r, w, others)
    first_legs = None  # vias reachable from a, computed on first need
    for h, to_b, from_a in zip(hints, ok[:n], ok[n:]):
        if dist(h, b) < 1e-12 or not to_b:
            continue
        if from_a:
            return [a, h, b]
        if first_legs is None:
            vs = [v for v in vias or [] if dist(a, v) >= 1e-12]
            first_legs = [v for v, f in zip(vs, capsules_free(a, vs, r, w, others)) if f]
        cands = [v for v in first_legs if dist(v, h) >= 1e-12]
        hits = np.flatnonzero(capsules_free(cands, h, r, w, others))
        if len(hits):
            return [a, cands[hits[0]], h, b]
    return None


def radial_hints(res, vid: int, r: float) -> list[Point2]:
    """Staging points on the outward radial of a slot, for threading into a
    ring whose neighboring slots are already occupied."""
    out = []
    for circle, ring, ang in res.vertex_rings[vid]:
        c = res.circles[circle].center
        ux, uy = math.cos(ang), math.sin(ang)
        for extra in (2.5, 4.5, 7.0):
            rad = 2.0 * r * ring + extra * r
            out.append(Point2(c.x + rad * ux, c.y + rad * uy))
    return out
