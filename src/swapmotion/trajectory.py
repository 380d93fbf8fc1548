"""Continuous realization of discrete swap operations, plus verification.

Every discrete op becomes timestamped unit-speed motion: loop rotations are
simultaneous arcs along the ring centerline (angular gaps interpolate
linearly between two legal configurations, so spacing is preserved), vacancy
swaps along ring edges are single arcs into the empty slot, and connector
swaps run in align / traverse / restore phases that rigidly rotate the rings
involved, send the mover through the corridor, and rotate back. Ops execute
strictly one after another.

A trajectory has one form: a `Track` per agent, the agent's motion records
`(t0, t1, kind, p0..p4)` packed into parallel arrays `t0, t1, kind, par`.
Each track opens with a zero-length hold at the agent's start; after that
only lines and arcs are recorded. Holds are implicit: between records an
agent stays where its previous record ended.

`verify_trajectories` is the independent oracle: it checks every agent on a
fixed time grid and reports minimum pairwise distance, minimum boundary
clearance, and all violation intervals. Because ops are sequential, it cuts
the grid into chunks, samples only the agents whose records overlap a chunk,
and checks every other agent once at its fixed position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conversion import (
    ConversionResult,
    GapCorridor,
    PathCorridor,
    RadialCorridor,
    _signed_angle,
    corridor_polyline,
)
from .errors import UnrealizableOp
from .geometry import Point2, Workspace, boundary_distance_many, dist
from .planner import LoopRotation, Plan, VacancySwap, _apply_inplace
from .swap_graph import VACANT, edge_key

SPEED = 1.0

# record kinds; a record is (t0, t1, kind, p0, p1, p2, p3, p4) with params
# hold (x, y), line (ax, ay, bx, by) or arc (cx, cy, radius, angle0, angle1)
HOLD, LINE, ARC = 0, 1, 2
KIND_NAMES = ("hold", "line", "arc")


def hold_record(t: float, p: Point2) -> tuple:
    return (t, t, HOLD, p.x, p.y, 0.0, 0.0, 0.0)


def line_record(t0: float, t1: float, a: Point2, b: Point2) -> tuple:
    return (t0, t1, LINE, a.x, a.y, b.x, b.y, 0.0)


def record_end(kind: int, par) -> Point2:
    """Where a record of shape `kind` with parameters `par` ends."""
    if kind == HOLD:
        return Point2(par[0], par[1])
    if kind == LINE:
        return Point2(par[2], par[3])
    return Point2(par[0] + par[2] * math.cos(par[4]), par[1] + par[2] * math.sin(par[4]))


class Track:
    """One agent's motion records, packed into parallel arrays.

    Record k runs over [t0[k], t1[k]] with shape kind[k] and parameters
    par[k] (see `HOLD`, `LINE`, `ARC`). Records are time-ordered and do not
    overlap. Between records the agent holds where the previous one ended;
    before the first it stands at that record's start.
    """

    __slots__ = ("agent", "t0", "t1", "kind", "par")

    def __init__(self, agent, t0, t1, kind, par):
        if len(t0) == 0:
            raise ValueError(f"track of agent {agent!r} has no records")
        self.agent = agent
        self.t0 = np.ascontiguousarray(t0, dtype=float)
        self.t1 = np.ascontiguousarray(t1, dtype=float)
        self.kind = np.ascontiguousarray(kind, dtype=np.int8)
        self.par = np.ascontiguousarray(par, dtype=float)

    @classmethod
    def from_records(cls, agent, records: list[tuple]) -> "Track":
        a = np.array(records, dtype=float).reshape(-1, 8)
        return cls(agent, a[:, 0], a[:, 1], a[:, 2], a[:, 3:])

    @classmethod
    def joined(cls, agent, parts: list[tuple["Track", float]]) -> "Track":
        """Tracks shifted by their offsets, end to end. Holds after the
        first part are dropped, since holds are implicit."""
        keep = [np.ones(len(parts[0][0]), bool)]
        keep += [tr.kind != HOLD for tr, _ in parts[1:]]
        return cls(
            agent,
            np.concatenate([tr.t0[k] + dt for (tr, dt), k in zip(parts, keep)]),
            np.concatenate([tr.t1[k] + dt for (tr, dt), k in zip(parts, keep)]),
            np.concatenate([tr.kind[k] for (tr, _), k in zip(parts, keep)]),
            np.concatenate([tr.par[k] for (tr, _), k in zip(parts, keep)]),
        )

    def reversed(self, horizon: float) -> "Track":
        """This motion played backwards over [0, horizon]: the position at t
        is this track's at horizon - t. Opens with a hold where it ends."""
        keep = np.flatnonzero(self.kind != HOLD)[::-1]
        kind, par = self.kind[keep], self.par[keep]
        par[kind == LINE, :4] = par[kind == LINE][:, [2, 3, 0, 1]]
        par[kind == ARC, 3:] = par[kind == ARC][:, [4, 3]]
        end = record_end(self.kind[-1], self.par[-1])
        return Track(
            self.agent,
            np.r_[0.0, horizon - self.t1[keep]],
            np.r_[0.0, horizon - self.t0[keep]],
            np.r_[HOLD, kind],
            np.vstack([(end.x, end.y, 0.0, 0.0, 0.0), par]),
        )

    def __len__(self) -> int:
        return len(self.t0)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Positions at `times`, shape (len(times), 2)."""
        idx = np.clip(
            np.searchsorted(self.t0, times, side="right") - 1, 0, len(self.t0) - 1
        )
        t0 = self.t0[idx]
        dur = self.t1[idx] - t0
        frac = np.where(dur > 0, np.clip((times - t0) / np.where(dur > 0, dur, 1.0), 0.0, 1.0), 1.0)
        par = self.par[idx]
        code = self.kind[idx]
        out = np.empty((len(times), 2))
        m = code == HOLD
        out[m] = par[m, :2]
        m = code == LINE
        if m.any():
            out[m, 0] = par[m, 0] + frac[m] * (par[m, 2] - par[m, 0])
            out[m, 1] = par[m, 1] + frac[m] * (par[m, 3] - par[m, 1])
        m = code == ARC
        if m.any():
            ang = par[m, 3] + frac[m] * (par[m, 4] - par[m, 3])
            out[m, 0] = par[m, 0] + par[m, 2] * np.cos(ang)
            out[m, 1] = par[m, 1] + par[m, 2] * np.sin(ang)
        return out


@dataclass
class TrajectorySet:
    """One `Track` per agent over [0, horizon]."""

    segments: dict[object, Track]
    horizon: float

    def position(self, agent, t: float) -> Point2:
        x, y = self.segments[agent].sample(np.array([float(t)]))[0]
        return Point2(float(x), float(y))

    def agents(self) -> list:
        return sorted(self.segments, key=repr)


def _slot_point(res: ConversionResult, circle: int, ring: int, angle: float) -> Point2:
    c = res.circles[circle].center
    rad = 2.0 * res.r * ring
    return Point2(c.x + rad * math.cos(angle), c.y + rad * math.sin(angle))


# Motion builders append (agent, record) through `emit` and return the op's
# duration; records of one agent come out in time order.


def _arc_phase(res, li, t0, riders, emit) -> float:
    """Simultaneous arcs on one ring; riders = (agent, start_angle, sweep)."""
    circle, ring = res.loop_layer[li]
    rad = 2.0 * res.r * ring
    sweep = max((abs(s) for _, _, s in riders), default=0.0)
    if sweep == 0.0:
        return 0.0
    dur = sweep * rad / SPEED
    c = res.circles[circle].center
    for agent, a0, s in riders:
        if s != 0.0:
            emit(agent, (t0, t0 + dur, ARC, c.x, c.y, rad, a0, a0 + s))
    return dur


def _ring_riders(res, occ_map, li, sweep):
    """Riders for every occupied slot of a loop, starting at slot angles."""
    circle, ring = res.loop_layer[li]
    out = []
    for x in res.graph.loops[li]:
        if occ_map[x] is VACANT:
            continue
        out.append((occ_map[x], res.angle_in(x, circle, ring), sweep))
    return out


def _slot_angles(res: ConversionResult) -> list[list[float]]:
    """Slot angles of every loop with ring metadata, in loop order."""
    return [
        [res.angle_in(v, circle, ring) for v in cyc]
        for cyc, (circle, ring) in zip(res.graph.loops, res.loop_layer)
    ]


def _type1_motion(res, op: LoopRotation, occ_map, t0, emit, slot_angles) -> float:
    """All loop agents sweep to their target slots simultaneously."""
    li = op.loop
    if li >= len(res.loop_layer):
        raise UnrealizableOp(f"loop {li} has no ring metadata")
    circle, ring = res.loop_layer[li]
    cyc = res.graph.loops[li]
    m = len(cyc)
    k = op.steps % m
    if k == 0:
        return 0.0
    signed = k if k <= m - k else k - m
    angles = slot_angles[li]
    riders = []
    for p, v in enumerate(cyc):
        if occ_map[v] is VACANT:
            continue
        tgt = angles[(p + k) % m]
        if signed > 0:
            dlt = (tgt - angles[p]) % (2 * math.pi)
        else:
            dlt = -((angles[p] - tgt) % (2 * math.pi))
        riders.append((occ_map[v], angles[p], dlt))
    return _arc_phase(res, li, t0, riders, emit)


def _type2_motion(res, op: VacancySwap, occ_map, t0, emit) -> float:
    """The mover's motion into the vacant endpoint: a ring arc, a corridor
    traverse, or a radial align / traverse / restore."""
    u, v = op.u, op.v
    if occ_map.get(u) is VACANT and occ_map.get(v) is VACANT:
        return 0.0
    if occ_map.get(u) is VACANT:
        u, v = v, u  # u = mover side, v = vacant side
    if occ_map.get(v) is not VACANT:
        raise UnrealizableOp(f"swap ({op.u},{op.v}) has no vacant endpoint")
    mover = occ_map[u]
    e = edge_key(op.u, op.v)
    kind = res.inter_edge_kind.get(e)
    if kind is None:
        return _ring_edge_motion(res, u, v, mover, t0, emit)
    if isinstance(kind, RadialCorridor):
        return _radial_motion(res, occ_map, kind, u, v, mover, t0, emit)
    if isinstance(kind, (GapCorridor, PathCorridor)):
        return _corridor_motion(res, u, v, mover, t0, emit)
    raise UnrealizableOp(f"edge ({u},{v}) has unknown kind {kind!r}")


def _ring_edge_motion(res, u, v, mover, t0, emit) -> float:
    """Slide one agent along the ring arc into the adjacent vacant slot."""
    lis = res.graph.loops_containing_edge(u, v)
    if not lis:
        raise UnrealizableOp(f"edge ({u},{v}) not on any loop")
    li = lis[0]
    circle, ring = res.loop_layer[li]
    cyc = res.graph.loops[li]
    m = len(cyc)
    pu, pv = cyc.index(u), cyc.index(v)
    au = res.angle_in(u, circle, ring)
    av = res.angle_in(v, circle, ring)
    if (pu + 1) % m == pv:
        dlt = (av - au) % (2 * math.pi)
    else:
        dlt = -((au - av) % (2 * math.pi))
    rad = 2.0 * res.r * ring
    dur = abs(dlt) * rad / SPEED
    c = res.circles[circle].center
    emit(mover, (t0, t0 + dur, ARC, c.x, c.y, rad, au, au + dlt))
    return dur


def _radial_motion(res, occ_map, kind: RadialCorridor, u, v, mover, t0, emit) -> float:
    """Align the vacant ring under the mover, move radially, rotate back."""
    circle = kind.circle
    ring_u = _ring_on_circle(res, u, circle)
    ring_v = _ring_on_circle(res, v, circle)
    li_v = res.loop_index_of(circle, ring_v)
    ang_u = res.angle_in(u, circle, ring_u)
    ang_v = res.angle_in(v, circle, ring_v)
    delta = _signed_angle(ang_u - ang_v)
    if abs(delta) < 1e-12:
        delta = 0.0  # rings already aligned: no align or restore arcs
    t = t0
    riders = _ring_riders(res, occ_map, li_v, delta)
    t += _arc_phase(res, li_v, t, riders, emit)
    a = _slot_point(res, circle, ring_u, ang_u)
    b = _slot_point(res, circle, ring_v, ang_u)
    d = dist(a, b) / SPEED
    emit(mover, line_record(t, t + d, a, b))
    t += d
    back = [(agent, a0 + delta, -delta) for agent, a0, _ in riders]
    back.append((mover, ang_u, -delta))
    t += _arc_phase(res, li_v, t, back, emit)
    return t - t0


def _ring_on_circle(res, vid, circle):
    for c, k, _ in res.vertex_rings[vid]:
        if c == circle:
            return k
    raise UnrealizableOp(f"vertex {vid} not on circle {circle}")


def _corridor_motion(res, u, v, mover, t0, emit) -> float:
    """Send the mover alone through a gap or skeleton-path corridor.

    Connector endpoints are reserved port slots (or wedge-boundary slots for
    gap crossings), so the straight legs clear every parked agent; nobody
    else has to move.
    """
    route = corridor_polyline(res, edge_key(u, v))
    if route is None:
        raise UnrealizableOp(f"edge ({u},{v}) has no corridor route")
    (ru, rv), polyline = route
    if ru != u:
        polyline = list(reversed(polyline))
    t = t0
    for a, b in zip(polyline, polyline[1:]):
        d = dist(a, b) / SPEED
        if d > 0:
            emit(mover, line_record(t, t + d, a, b))
            t += d
    return t - t0


def _positions_of(res, occ_map) -> dict[object, Point2]:
    return {
        a: res.graph.positions[v] for v, a in occ_map.items() if a is not VACANT
    }


def realize_plan(res: ConversionResult, plan: Plan) -> TrajectorySet:
    """Realize all plan ops strictly in sequence from the start occupancy."""
    occ = plan.start.copy()
    records = {a: [hold_record(0.0, p)] for a, p in _positions_of(res, occ.mapping).items()}

    def emit(agent, rec):
        records[agent].append(rec)

    t = 0.0
    slot_angles = _slot_angles(res)
    for op in plan.ops:
        if isinstance(op, LoopRotation):
            t += _type1_motion(res, op, occ.mapping, t, emit, slot_angles)
        else:
            t += _type2_motion(res, op, occ.mapping, t, emit)
        _apply_inplace(occ.mapping, res.graph, op)
    # exact endpoint check against the final occupancy
    for a, tgt in _positions_of(res, occ.mapping).items():
        last = records[a][-1]
        end = record_end(last[2], last[3:])
        if dist(end, tgt) > 1e-6 * res.r:
            raise UnrealizableOp(
                f"agent {a!r} ends {dist(end, tgt):.2e} away from its vertex"
            )
        records[a][-1] = _snap(last, tgt)
    tracks = {a: Track.from_records(a, recs) for a, recs in records.items()}
    return TrajectorySet(tracks, t)


def _snap(rec: tuple, tgt: Point2) -> tuple:
    """The record with its end moved exactly onto `tgt` (arcs stay as is)."""
    if rec[2] == HOLD:
        return rec[:3] + (tgt.x, tgt.y, 0.0, 0.0, 0.0)
    if rec[2] == LINE:
        return rec[:5] + (tgt.x, tgt.y, 0.0)
    return rec


@dataclass
class Violation:
    kind: str  # "pair" or "boundary"
    agents: tuple
    t_start: float
    t_end: float
    worst: float


@dataclass
class VerificationReport:
    min_pairwise: float
    min_clearance: float
    violations: list[Violation]
    samples: int
    dt: float

    @property
    def ok(self) -> bool:
        return not self.violations


def sample_times(horizon: float, dt: float) -> np.ndarray:
    """The verification grid: every `dt` from 0, plus the horizon itself."""
    times = np.arange(0.0, horizon + 0.5 * dt, dt)
    if len(times) == 0 or times[-1] < horizon:
        times = np.append(times, horizon)
    return times


def _moving_mask(tracks: list[Track], first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """(chunks, agents) mask of the agents with a record overlapping each
    chunk's closed time span [first, last]. Outside it, an agent's sampled
    position is constant over the chunk."""
    cover = np.zeros((len(first) + 1, len(tracks)), dtype=np.int32)
    for i, tr in enumerate(tracks):
        lo = np.searchsorted(last, tr.t0, side="left")
        hi = np.searchsorted(first, tr.t1, side="right")
        keep = lo < hi
        np.add.at(cover[:, i], lo[keep], 1)
        np.add.at(cover[:, i], hi[keep], -1)
    return np.cumsum(cover, axis=0)[:-1] > 0


class _Check:
    """One verification: its grid and chunks, its limits, and what it found."""

    def __init__(self, agents: list, w: Workspace, r: float, dt: float, horizon: float):
        self.agents = agents
        self.w = w
        tol = 1e-6 * r
        self.pair_lim2 = (2 * r - tol) ** 2
        self.clear_lim = r - tol
        self.times = sample_times(horizon, dt)
        self.chunk = max(16, int(round(10.0 / dt)))
        self.first = np.arange(0, len(self.times), self.chunk)  # first sample of each chunk
        self.stop = np.minimum(self.first + self.chunk, len(self.times))
        self.min_pair = math.inf
        self.min_clear = math.inf
        self.pair_bad: dict[tuple, list[int]] = {}
        self.pair_worst: dict[tuple, float] = {}
        self.bound_bad: dict[object, list[int]] = {}
        self.bound_worst: dict[object, float] = {}

    def pair(self, i: int, j: int, samples, d2: float):
        key = tuple(sorted((self.agents[i], self.agents[j]), key=repr))
        self.pair_bad.setdefault(key, []).extend(samples)
        self.pair_worst[key] = min(self.pair_worst.get(key, math.inf), math.sqrt(d2))

    def boundary(self, i: int, samples, d: float):
        a = self.agents[i]
        self.bound_bad.setdefault(a, []).extend(samples)
        self.bound_worst[a] = min(self.bound_worst.get(a, math.inf), d)

    def violations(self) -> list[Violation]:
        out = []
        for key, idxs in sorted(self.pair_bad.items(), key=lambda kv: repr(kv[0])):
            for t0, t1 in _merge_runs(sorted(set(idxs)), self.times):
                out.append(Violation("pair", key, t0, t1, self.pair_worst[key]))
        for a, idxs in sorted(self.bound_bad.items(), key=lambda kv: repr(kv[0])):
            for t0, t1 in _merge_runs(sorted(set(idxs)), self.times):
                out.append(Violation("boundary", (a,), t0, t1, self.bound_worst[a]))
        return out


def verify_trajectories(
    ts: TrajectorySet, w: Workspace, r: float, dt: float
) -> VerificationReport:
    """Independent sampling oracle for agent-agent and boundary safety.

    Positions are checked every `dt`; a pair violates when center distance
    drops below 2r - 1e-6 r, an agent violates the boundary when its disk
    leaves the free space by more than the same tolerance. Every pair under
    the limit is reported. The grid is cut into chunks of about 10 time
    units. In each chunk only the agents whose records overlap it are
    sampled, at every grid time, and checked against all agents; every other
    agent stands still over the chunk and is checked once, at the chunk's
    first sample, against the other still agents and the boundary.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    agents = ts.agents()
    chk = _Check(agents, w, r, dt, ts.horizon)
    tracks = [ts.segments[a] for a in agents]
    first_t = chk.times[chk.first]
    moving = _moving_mask(tracks, first_t, chk.times[chk.stop - 1])
    fixed = np.stack([tr.sample(first_t) for tr in tracks], axis=1)
    _check_still(chk, fixed, ~moving)
    per_block = max(1, (1 << 18) // (chk.chunk * max(len(agents), 1)))
    for c0 in range(0, len(chk.first), per_block):
        _check_movers(chk, tracks, fixed, moving, c0, min(c0 + per_block, len(chk.first)))
    return VerificationReport(
        min_pairwise=chk.min_pair,
        min_clearance=chk.min_clear,
        violations=chk.violations(),
        samples=len(chk.times),
        dt=dt,
    )


def _check_still(chk: _Check, fixed: np.ndarray, still: np.ndarray):
    """Pairs of still agents and their boundary clearance, once per chunk."""
    n_chunks, n = still.shape
    cl = boundary_distance_many(fixed.reshape(-1, 2), chk.w).reshape(n_chunks, n)
    cl = np.where(still, cl, np.inf)
    if cl.size:
        chk.min_clear = min(chk.min_clear, float(cl.min()))
    for c, i in zip(*np.nonzero(cl < chk.clear_lim)):
        chk.boundary(i, range(chk.first[c], chk.stop[c]), float(cl[c, i]))
    if n < 2:
        return
    iu, ju = np.triu_indices(n, 1)
    per_block = max(1, (1 << 16) // len(iu))
    for c0 in range(0, n_chunks, per_block):
        F = fixed[c0 : c0 + per_block]
        dx = F[:, iu, 0] - F[:, ju, 0]
        dy = F[:, iu, 1] - F[:, ju, 1]
        S = still[c0 : c0 + per_block]
        d2 = np.where(S[:, iu] & S[:, ju], dx * dx + dy * dy, np.inf)
        chk.min_pair = min(chk.min_pair, math.sqrt(float(d2.min())))
        for c, k in zip(*np.nonzero(d2 < chk.pair_lim2)):
            span = range(chk.first[c0 + c], chk.stop[c0 + c])
            chk.pair(iu[k], ju[k], span, float(d2[c, k]))


def _check_movers(chk: _Check, tracks: list[Track], fixed, moving, c0: int, c1: int):
    """Chunks c0..c1-1: every moving agent at every sample, against the
    boundary and against all agents (still ones sit at `fixed`)."""
    first, stop, n = chk.first, chk.stop, len(tracks)
    lo = first[c0]
    P = np.repeat(fixed[c0:c1], stop[c0:c1] - first[c0:c1], axis=0)
    idx_of, pts_of = [], []
    for i in np.nonzero(moving[c0:c1].any(axis=0))[0]:
        cs = np.nonzero(moving[c0:c1, i])[0] + c0
        idx = (first[cs][:, None] + np.arange(chk.chunk)).ravel()
        idx = idx[idx < stop[cs[-1]]]
        pts = tracks[i].sample(chk.times[idx])
        P[idx - lo, i] = pts
        idx_of.append((i, idx))
        pts_of.append(pts)
    if not idx_of:
        return
    cl = boundary_distance_many(np.concatenate(pts_of), chk.w)
    chk.min_clear = min(chk.min_clear, float(cl.min()))
    k = 0
    for i, idx in idx_of:
        mine = cl[k : k + len(idx)]
        k += len(idx)
        bad = mine < chk.clear_lim
        if bad.any():
            chk.boundary(i, idx[bad].tolist(), float(mine[bad].min()))
    if n < 2:
        return
    for c in range(c0, c1):
        movers = np.nonzero(moving[c])[0]
        if not len(movers):
            continue
        Pc = P[first[c] - lo : stop[c] - lo]
        Q = Pc[:, movers]
        dx = Q[:, :, None, 0] - Pc[:, None, :, 0]
        dy = Q[:, :, None, 1] - Pc[:, None, :, 1]
        d2 = dx * dx + dy * dy
        d2[:, np.arange(len(movers)), movers] = np.inf
        low = float(d2.min())
        chk.min_pair = min(chk.min_pair, math.sqrt(low))
        if low < chk.pair_lim2:
            for t_, m_, j in zip(*np.nonzero(d2 < chk.pair_lim2)):
                chk.pair(movers[m_], j, [first[c] + int(t_)], float(d2[t_, m_, j]))


def _merge_runs(idxs: list[int], times: np.ndarray):
    out = []
    if not idxs:
        return out
    start = prev = idxs[0]
    for i in idxs[1:]:
        if i == prev + 1:
            prev = i
            continue
        out.append((float(times[start]), float(times[prev])))
        start = prev = i
    out.append((float(times[start]), float(times[prev])))
    return out
