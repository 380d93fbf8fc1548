"""Continuous realization of discrete swap operations, plus verification.

Every discrete op becomes timestamped unit-speed motion: loop rotations are
simultaneous arcs along the ring centerline (angular gaps interpolate
linearly between two legal configurations, so spacing is preserved), vacancy
swaps along ring edges are single arcs into the empty slot, and connector
swaps run in align / traverse / restore phases that rigidly rotate the rings
involved, send the mover through the corridor, and rotate back. Ops execute
strictly one after another. Ring motion indexes the conversion's slot table:
`SwapGraph.slot` for a vertex's place in its loop and
`ConversionResult.slot_angles` for the angle of each place.

A trajectory has one form: a `Track` per agent, the agent's motion records
`(t0, t1, kind, p0..p4)` packed into parallel arrays `t0, t1, kind, par`.
Each track opens with a zero-length hold at the agent's start; after that
only lines and arcs are recorded. Holds are implicit: between records an
agent stays where its previous record ended.

`verify_trajectories` certifies a trajectory from its records alone, in
closed form: it cuts time at every record boundary and checks each
interval's movers against everyone else and the boundary, so its minima are
exact and no time step is involved. `track_jumps` is the continuity check it
shares with the segment-table reader.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .conversion import ConversionResult, RadialCorridor, _signed_angle
from .errors import UnrealizableOp
from .geometry import (
    Point2,
    Workspace,
    arc_points,
    arc_segment_distances,
    boundary_distance_many,
    bounds_distances,
    closest_of,
    dist,
    point_arc_distances,
    point_segment_projections,
    segment_distances,
    sweep_fractions,
)
from .planner import LoopRotation, Plan, VacancySwap, _apply_inplace
from .swap_graph import VACANT, edge_key

SPEED = 1.0

# record kinds; a record is (t0, t1, kind, p0, p1, p2, p3, p4) with params
# hold (x, y), line (ax, ay, bx, by) or arc (cx, cy, radius, angle0, angle1)
HOLD, LINE, ARC = 0, 1, 2
KIND_NAMES = ("hold", "line", "arc")


def hold_record(t: float, p: Point2) -> tuple:
    return (t, t, HOLD, p[0], p[1], 0.0, 0.0, 0.0)


def line_record(t0: float, t1: float, a: Point2, b: Point2) -> tuple:
    return (t0, t1, LINE, a[0], a[1], b[0], b[1], 0.0)


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
    before the first it stands at that record's start. The key of a
    `TrajectorySet` names the agent.
    """

    __slots__ = ("t0", "t1", "kind", "par")

    def __init__(self, t0, t1, kind, par):
        if len(t0) == 0:
            raise ValueError("a track needs at least one record")
        self.t0 = np.ascontiguousarray(t0, dtype=float)
        self.t1 = np.ascontiguousarray(t1, dtype=float)
        self.kind = np.ascontiguousarray(kind, dtype=np.int8)
        self.par = np.ascontiguousarray(par, dtype=float)

    @classmethod
    def from_records(cls, records: list[tuple]) -> "Track":
        a = np.array(records, dtype=float).reshape(-1, 8)
        return cls(a[:, 0], a[:, 1], a[:, 2], a[:, 3:])

    @classmethod
    def joined(cls, parts: list[tuple["Track", float]]) -> "Track":
        """Tracks shifted by their offsets, end to end. Holds after the
        first part are dropped, since holds are implicit."""
        keep = [np.ones(len(parts[0][0]), bool)]
        keep += [tr.kind != HOLD for tr, _ in parts[1:]]
        return cls(
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
        return _points(self.kind[idx], self.par[idx], frac)


def _points(kind: np.ndarray, par: np.ndarray, frac) -> np.ndarray:
    """Positions on records of shapes `kind` and parameters `par` at fractions
    `frac` of their spans, shape (len(kind), 2)."""
    f = np.where(kind == HOLD, 0.0, frac)
    ang = par[:, 3] + f * (par[:, 4] - par[:, 3])
    arc = kind == ARC
    x = np.where(arc, par[:, 0] + par[:, 2] * np.cos(ang), par[:, 0] + f * (par[:, 2] - par[:, 0]))
    y = np.where(arc, par[:, 1] + par[:, 2] * np.sin(ang), par[:, 1] + f * (par[:, 3] - par[:, 1]))
    return np.stack([x, y], axis=1)


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


def _ring_step(res, li, steps, positions, occ_map, t0, emit) -> float:
    """The agents at slots `positions` of loop li sweep `steps` slots along
    it, all the short way round, simultaneously."""
    cyc = res.graph.loops[li]
    m = len(cyc)
    k = steps % m
    if k == 0:
        return 0.0
    signed = k if k <= m - k else k - m
    angles = res.slot_angles[li]
    riders = []
    for p in positions:
        agent = occ_map[cyc[p]]
        if agent is VACANT:
            continue
        tgt = angles[(p + k) % m]
        if signed > 0:
            dlt = (tgt - angles[p]) % (2 * math.pi)
        else:
            dlt = -((angles[p] - tgt) % (2 * math.pi))
        riders.append((agent, angles[p], dlt))
    return _arc_phase(res, li, t0, riders, emit)


def _swap_motion(res, op: VacancySwap, occ_map, t0, emit) -> float:
    """The mover's motion into the vacant endpoint: a one-slot ring step, a
    corridor traverse, or a radial align / traverse / restore."""
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
        lis = res.graph.loops_containing_edge(u, v)
        if not lis:
            raise UnrealizableOp(f"edge ({u},{v}) not on any loop")
        li = lis[0]
        cyc, pu = res.graph.loops[li], res.graph.slot[li][u]
        step = 1 if cyc[(pu + 1) % len(cyc)] == v else -1
        return _ring_step(res, li, step, [pu], occ_map, t0, emit)
    if isinstance(kind, RadialCorridor):
        return _radial_motion(res, occ_map, kind, u, v, mover, t0, emit)
    return _corridor_motion(res, u, v, mover, t0, emit)


def _radial_motion(res, occ_map, kind: RadialCorridor, u, v, mover, t0, emit) -> float:
    """Align the vacant ring under the mover, move radially, rotate back.
    The corridor's outer end is its endpoint on ring `(circle, outer_ring)`."""
    circle, g = kind.circle, res.graph

    def on_ring(x, ring):
        """The loop of `ring` through x and x's slot angle on it, or None."""
        li = next((li for li in g.loops_of(x) if res.loop_layer[li] == (circle, ring)), None)
        return None if li is None else (li, res.slot_angles[li][g.slot[li][x]])

    rings = (kind.outer_ring, kind.inner_ring)
    ring_u, ring_v = rings if on_ring(u, kind.outer_ring) else rings[::-1]
    _, ang_u = on_ring(u, ring_u)
    li_v, ang_v = on_ring(v, ring_v)
    delta = _signed_angle(ang_u - ang_v)
    if abs(delta) < 1e-12:
        delta = 0.0  # rings already aligned: no align or restore arcs
    t = t0
    riders = [
        (occ_map[x], a0, delta)
        for x, a0 in zip(g.loops[li_v], res.slot_angles[li_v])
        if occ_map[x] is not VACANT
    ]
    t += _arc_phase(res, li_v, t, riders, emit)
    c, rad = res.circles[circle].center, 2.0 * res.r
    cos, sin = math.cos(ang_u), math.sin(ang_u)
    a = Point2(c.x + rad * ring_u * cos, c.y + rad * ring_u * sin)
    b = Point2(c.x + rad * ring_v * cos, c.y + rad * ring_v * sin)
    d = dist(a, b) / SPEED
    emit(mover, line_record(t, t + d, a, b))
    t += d
    back = [(agent, a0 + delta, -delta) for agent, a0, _ in riders]
    back.append((mover, ang_u, -delta))
    t += _arc_phase(res, li_v, t, back, emit)
    return t - t0


def _corridor_motion(res, u, v, mover, t0, emit) -> float:
    """Send the mover alone through a gap or skeleton-path corridor.

    Connector endpoints are reserved port slots (or wedge-boundary slots for
    gap crossings), so the straight legs clear every parked agent; nobody
    else has to move.
    """
    polyline = res.routes[edge_key(u, v)]
    if u > v:
        polyline = polyline[::-1]
    t = t0
    for a, b in zip(polyline, polyline[1:]):
        d = dist(a, b) / SPEED
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
    # each agent's record fields, flat, eight per record
    fields = {
        a: array("d", hold_record(0.0, p)) for a, p in _positions_of(res, occ.mapping).items()
    }

    def emit(agent, rec):
        fields[agent].extend(rec)

    t = 0.0
    for op in plan.ops:
        if isinstance(op, LoopRotation):
            # every agent of the loop sweeps to its target slot at once
            if not 0 <= op.loop < len(res.slot_angles):
                raise UnrealizableOp(f"loop {op.loop} has no ring metadata")
            loop = range(len(res.slot_angles[op.loop]))
            t += _ring_step(res, op.loop, op.steps, loop, occ.mapping, t, emit)
        else:
            t += _swap_motion(res, op, occ.mapping, t, emit)
        _apply_inplace(occ.mapping, res.graph, op)
    tracks = {}
    for a, flat in fields.items():
        rows = np.frombuffer(flat, dtype=float).reshape(-1, 8)
        tracks[a] = Track(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3:])
    # exact endpoint check against the final occupancy
    for a, tgt in _positions_of(res, occ.mapping).items():
        tr = tracks[a]
        end = record_end(tr.kind[-1], tr.par[-1])
        if dist(end, tgt) > 1e-6 * res.r:
            raise UnrealizableOp(
                f"agent {a!r} ends {dist(end, tgt):.2e} away from its vertex"
            )
        _snap(tr, tgt)
    return TrajectorySet(tracks, t)


def _snap(tr: Track, tgt: Point2) -> None:
    """Move the end of the track's last record exactly onto `tgt` (arcs stay
    as is)."""
    if tr.kind[-1] == HOLD:
        tr.par[-1] = (tgt.x, tgt.y, 0.0, 0.0, 0.0)
    elif tr.kind[-1] == LINE:
        tr.par[-1, 2:] = (tgt.x, tgt.y, 0.0)


@dataclass
class Violation:
    kind: str  # "pair", "boundary" or "jump"
    agents: tuple
    t_start: float
    t_end: float
    worst: float  # the least distance found, or the length of a jump


@dataclass
class VerificationReport:
    min_pairwise: float
    min_clearance: float
    violations: list[Violation]
    samples: int  # time intervals certified
    records: int = 0  # motion records certified, over all tracks
    checks: int = 0  # exact motion-to-agent and motion-to-edge distances taken
    worst_pair: tuple = ()  # (agent, agent, t) where min_pairwise is reached
    worst_clearance: tuple = ()  # (agent, t) where min_clearance is reached

    @property
    def ok(self) -> bool:
        return not self.violations


def track_jumps(tr: Track) -> list[tuple[float, float]]:
    """(time, length) of every jump in a track: a record that starts away from
    where the previous one ended, or a record of zero duration that moves.
    Away means farther than 1e-9 of the track's coordinate scale."""
    start, end = _points(tr.kind, tr.par, 0.0), _points(tr.kind, tr.par, 1.0)
    jump = np.r_[0.0, np.hypot(*(start[1:] - end[:-1]).T)]
    jump = np.maximum(jump, np.where(tr.t1 > tr.t0, 0.0, np.hypot(*(end - start).T)))
    tol = 1e-9 * max(1.0, float(np.abs(start).max()))
    return [(float(tr.t0[k]), float(jump[k])) for k in np.flatnonzero(jump > tol)]


class _Certificate:
    """What one certification found: the least pair and boundary distances,
    where they are reached, and every distance under its limit."""

    def __init__(self, agents: list, r: float):
        tol = 1e-6 * r
        self.agents = agents
        self.limit = {"pair": 2 * r - tol, "boundary": r - tol}
        self.least = {"pair": (math.inf, ()), "boundary": (math.inf, ())}
        self.found: list[tuple] = []
        self.checks = 0

    def bound(self, kind: str) -> float:
        """A check whose lower bound is at least this cannot change the report."""
        return max(self.limit[kind], self.least[kind][0])

    def record(self, kind: str, d, f, t0, t1, *who):
        """Distances `d`, reached at fractions `f` of [t0, t1], between the
        agents at indices `who` (one array per agent)."""
        if not len(d):
            return
        k = int(d.argmin())
        if d[k] < self.least[kind][0]:
            at = float(t0[k] + f[k] * (t1[k] - t0[k]))
            self.least[kind] = (float(d[k]), self._key(who, k) + (at,))
        for k in np.flatnonzero(d < self.limit[kind]):
            self.found.append((kind, self._key(who, k), float(t0[k]), float(t1[k]), float(d[k])))

    def _key(self, who, k) -> tuple:
        return tuple(sorted((self.agents[i[k]] for i in who), key=repr))

    def violations(self) -> list[Violation]:
        """Everything found, one violation per run of touching intervals."""
        order = {"pair": 0, "boundary": 1, "jump": 2}
        out: list[Violation] = []
        for kind, key, t0, t1, d in sorted(
            self.found, key=lambda v: (order[v[0]], repr(v[1]), v[2])
        ):
            if out and (out[-1].kind, out[-1].agents) == (kind, key) and t0 <= out[-1].t_end:
                out[-1].t_end, out[-1].worst = max(out[-1].t_end, t1), min(out[-1].worst, d)
            else:
                out.append(Violation(kind, key, t0, t1, d))
        return out


def verify_trajectories(ts: TrajectorySet, w: Workspace, r: float) -> VerificationReport:
    """Exact safety certificate of `ts`, from its motion records alone.

    Time is cut at every record boundary into intervals. The configuration
    at t = 0 is checked once, every pair and every boundary distance; after
    that only each interval's movers are checked, against everyone else and
    the boundary, since two still agents keep their distance. Every check is
    a closed form: a line or an arc against a still agent is a point-segment
    or point-arc distance, two lines at once are one line in relative
    motion, and two arcs about one centre have a linear angular gap, so they
    come closest at an interval end unless the gap crosses a multiple of
    2 pi. Other simultaneous motion raises UnrealizableOp. A pair violates
    under 2r - 1e-6 r, an agent the boundary under r - 1e-6 r, and every
    jump of a track (`track_jumps`) is a violation. The minima are exact: the
    prefilters drop only checks that could neither lower them nor violate.
    """
    agents = ts.agents()
    tracks = [ts.segments[a] for a in agents]
    n = len(agents)
    cert = _Certificate(agents, r)
    for a, tr in zip(agents, tracks):
        cert.found += [("jump", (a,), t, t, d) for t, d in track_jumps(tr)]
    rest = np.array([tr.sample(np.zeros(1))[0] for tr in tracks]).reshape(-1, 2)
    iu, ju = np.triu_indices(n, 1)
    z = np.zeros(max(n, len(iu)))
    cert.record("pair", np.hypot(*(rest[iu] - rest[ju]).T), z, z, z, iu, ju)
    cert.record("boundary", boundary_distance_many(rest, w), z, z, z, np.arange(n))
    rec = _Records(tracks)
    p0 = 0
    while p0 < len(rec.k):
        # a block is whole intervals, about 2^12 pieces or at most 2^17 / n
        # intervals, which bounds its arrays and so the peak memory of a run
        k0 = rec.k[p0]
        k1 = min(rec.k[min(p0 + (1 << 12), len(rec.k)) - 1] + 1, k0 + max(1, (1 << 17) // n))
        p1 = int(np.searchsorted(rec.k, k1))
        pc = rec.pieces(p0, p1)
        # where each agent stands at the start of intervals k0 .. k1 - 1, as
        # an index into `ends`: the end of a piece, or where it stood before
        ends = np.concatenate([pc.end, rest])
        at = np.full((k1 - k0 + 1, n), -1, dtype=np.int32)
        at[0] = len(pc.k) + np.arange(n)
        at[pc.k - k0 + 1, pc.agent] = np.arange(len(pc.k))
        fill = np.where(at >= 0, np.arange(k1 - k0 + 1, dtype=np.int32)[:, None], 0)
        at = np.take_along_axis(at, np.maximum.accumulate(fill, axis=0), 0)
        rest = ends[at[-1]]
        _certify_boundary(cert, w, pc)
        _certify_against_still(cert, pc, ends, at, k0)
        _certify_movers(cert, pc)
        p0 = p1
    return VerificationReport(
        min_pairwise=cert.least["pair"][0],
        min_clearance=cert.least["boundary"][0],
        violations=cert.violations(),
        samples=len(np.unique(rec.k)),
        records=len(rec.rec),
        checks=cert.checks,
        worst_pair=cert.least["pair"][1],
        worst_clearance=cert.least["boundary"][1],
    )


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs starts[i], ..., starts[i] + counts[i] - 1, one after another."""
    runs = np.arange(counts.sum(), dtype=counts.dtype)
    return runs + np.repeat(starts - (np.cumsum(counts, dtype=counts.dtype) - counts), counts)


class _Records:
    """The records of all tracks end to end, one row (t0, t1, kind, agent,
    p0..p4) each, and their moving pieces: every line and arc of positive
    duration, cut at every record boundary of every track. Piece p runs over
    interval k[p], from cuts[k[p]] to cuts[k[p] + 1], along record row[p];
    pieces are in interval order."""

    def __init__(self, tracks: list[Track]):
        self.rec = np.empty((sum(len(tr) for tr in tracks), 9))
        o = 0
        for i, tr in enumerate(tracks):
            self.rec[o : o + len(tr)] = np.c_[tr.t0, tr.t1, tr.kind, np.full(len(tr), i), tr.par]
            o += len(tr)
        t0, t1, kind = self.rec[:, 0], self.rec[:, 1], self.rec[:, 2]
        moving = np.flatnonzero((kind != HOLD) & (t1 > t0)).astype(np.int32)
        self.cuts = np.union1d(np.unique(t0[moving]), np.unique(t1[moving]))
        lo = np.searchsorted(self.cuts, t0[moving]).astype(np.int32)
        parts = np.searchsorted(self.cuts, t1[moving]).astype(np.int32) - lo
        k = _ranges(lo, parts)
        order = np.argsort(k, kind="stable")  # records are in agent order
        self.k, self.row = k[order], np.repeat(moving, parts)[order]

    def pieces(self, p0: int, p1: int) -> "_Pieces":
        """Pieces p0 .. p1 - 1: their records, cut at the interval ends."""
        rec, k = self.rec[self.row[p0:p1]], self.k[p0:p1]
        t0, kind, par = rec[:, 0], rec[:, 2].astype(np.int8), rec[:, 4:]
        dur = (rec[:, 1] - t0)[:, None]
        f0, f1 = (self.cuts[k] - t0)[:, None] / dur, (self.cuts[k + 1] - t0)[:, None] / dur
        # a line's end points, or an arc's end angles, at the interval ends
        line = (kind == LINE)[:, None]
        a = np.where(line, par[:, [0, 1]], par[:, [3, 3]])
        b = np.where(line, par[:, [2, 3]], par[:, [4, 4]])
        a, b = a * (1 - f0) + b * f0, a * (1 - f1) + b * f1
        arcs = np.hstack([par[:, :3], a[:, :1], b[:, :1]])
        par = np.where(line, np.hstack([a, b, par[:, 4:]]), arcs)
        return _Pieces(self.cuts, k, rec[:, 3].astype(np.int32), kind, par)


class _Pieces:
    """A run of pieces (see `_Records`) with their shapes, parameters, and
    start and end points."""

    def __init__(self, cuts, k, agent, kind, par):
        self.cuts, self.k, self.agent, self.kind, self.par = cuts, k, agent, kind, par
        self.start, self.end = _points(kind, par, 0.0), _points(kind, par, 1.0)
        # riders of one ring in one interval share a group; any other piece is alone
        same = (np.diff(k) == 0) & (kind[1:] == ARC) & (kind[:-1] == ARC)
        same &= (par[1:, :3] == par[:-1, :3]).all(axis=1)
        self.group = np.cumsum(np.concatenate([[0], ~same]))

    def span(self, p):
        return self.cuts[self.k[p]], self.cuts[self.k[p] + 1]


def _certify_boundary(cert: _Certificate, w: Workspace, pc: _Pieces):
    """Every piece against the bounds, and against every obstacle edge that
    its bounding box does not rule out."""
    arc, par, start, end = pc.kind == ARC, pc.par, pc.start, pc.end
    d, f = closest_of((bounds_distances(start, w), 0.0), (bounds_distances(end, w), 1.0))
    # an arc whose whole circle keeps off the bounds is least off them at an end
    a = np.flatnonzero(arc & (bounds_distances(par[:, :2], w) - par[:, 2] < cert.bound("boundary")))
    for phi in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        fa = sweep_fractions(phi, par[a, 3], par[a, 4])
        da = bounds_distances(arc_points(par[a, :2], par[a, 2], phi), w)
        da[np.isnan(fa)] = np.inf
        d[a], f[a] = np.minimum(d[a], da), np.where(da < d[a], fa, f[a])
    cert.record("boundary", d, f, *pc.span(np.arange(len(d))), pc.agent)
    ea, eb = w._edges_a, w._edges_b
    lo = np.where(arc[:, None], par[:, :2] - par[:, 2:3], np.minimum(start, end))
    hi = np.where(arc[:, None], par[:, :2] + par[:, 2:3], np.maximum(start, end))
    elo, ehi = np.minimum(ea, eb), np.maximum(ea, eb)
    step = max(1, (1 << 15) // max(1, len(ea)))  # bounds the piece x edge temporaries
    for s in range(0, len(pc.k) if len(ea) else 0, step):
        gap = np.maximum(elo - hi[s : s + step, None], lo[s : s + step, None] - ehi)
        gap = np.maximum(gap, 0.0)
        p, e = np.nonzero(np.hypot(gap[..., 0], gap[..., 1]) < cert.bound("boundary"))
        p += s
        d, f = np.empty(len(p)), np.empty(len(p))
        a = arc[p]
        q, ql = p[a], p[~a]
        d[~a], f[~a] = segment_distances(start[ql], end[ql], ea[e[~a]], eb[e[~a]])
        d[a], f[a] = arc_segment_distances(
            par[q, :2], par[q, 2], par[q, 3], par[q, 4], ea[e[a]], eb[e[a]]
        )
        cert.checks += len(d)
        cert.record("boundary", d, f, *pc.span(p), pc.agent[p])


def _certify_against_still(cert, pc: _Pieces, ends, at, k0: int):
    """Every piece against every agent that stands still over its interval;
    `at[k - k0, j]` indexes where agent j stands in `ends` at the start of
    interval k, so j stands still over it when `at` does not change. The
    riders of one ring share one ring-distance bound per agent."""
    b = cert.bound("pair")
    still = at[1:] == at[:-1]
    size = np.bincount(pc.group)
    heads = np.cumsum(size) - size
    for shape in (LINE, ARC):
        mine = pc.kind[heads] == shape
        h, rows = heads[mine], pc.k[heads[mine]] - k0
        idx = at[rows]
        X, Y = ends[idx, 0], ends[idx, 1]
        if shape == LINE:
            lo, hi = np.minimum(pc.start[h], pc.end[h]), np.maximum(pc.start[h], pc.end[h])
            gx = np.maximum(np.maximum(lo[:, :1] - X, X - hi[:, :1]), 0.0)
            gy = np.maximum(np.maximum(lo[:, 1:] - Y, Y - hi[:, 1:]), 0.0)
            near = gx * gx + gy * gy < b * b
        else:
            c, R = pc.par[h, :2], pc.par[h, 2:3]
            rho2 = (X - c[:, :1]) ** 2 + (Y - c[:, 1:]) ** 2
            near = (rho2 < (R + b) ** 2) & (rho2 >= np.maximum(R - b, 0.0) ** 2)
        g, j = np.nonzero(near & still[rows])
        sz = size[mine][g]
        P = np.repeat(np.stack([X[g, j], Y[g, j]], axis=1), sz, axis=0)
        p, j = _ranges(h[g], sz), np.repeat(j, sz)
        if shape == LINE:
            d, f = point_segment_projections(P, pc.start[p], pc.end[p])
        else:
            d, f = point_arc_distances(P, pc.par[p, :2], pc.par[p, 2], pc.par[p, 3], pc.par[p, 4])
        cert.checks += len(d)
        cert.record("pair", d, f, *pc.span(p), pc.agent[p], j)


def _certify_movers(cert: _Certificate, pc: _Pieces):
    """The pieces of each interval against each other.

    Riders of one ring keep their cyclic order until two neighbours in it
    meet, and the closest two riders are always neighbours, so among them
    only neighbours are checked (and named in a violation)."""
    k, kind, par, start, end, group = pc.k, pc.kind, pc.par, pc.start, pc.end, pc.group
    # every two pieces of different groups in one interval
    idx = np.flatnonzero(np.isin(k, k[1:][(np.diff(k) == 0) & (np.diff(group) != 0)]))
    after = np.searchsorted(k[idx], k[idx], side="right") - np.arange(len(idx)) - 1
    p, q = idx[np.repeat(np.arange(len(idx)), after)], idx[_ranges(np.arange(len(idx)) + 1, after)]
    p, q = p[group[p] != group[q]], q[group[p] != group[q]]
    # neighbours by start angle within a group, the last and first too
    order = np.lexsort((np.mod(par[:, 3], 2 * math.pi), group))
    g = group[order]
    size = np.bincount(g)
    first = np.cumsum(size) - size
    wrap, twin = first[size >= 3], g[1:] == g[:-1]
    p = np.concatenate([p, order[:-1][twin], order[wrap + size[size >= 3] - 1]])
    q = np.concatenate([q, order[1:][twin], order[wrap]])
    lines = (kind[p] == LINE) & (kind[q] == LINE)
    rings = (kind[p] == ARC) & (kind[q] == ARC) & (par[p, :2] == par[q, :2]).all(axis=1)
    odd = np.flatnonzero(~(lines | rings))
    if len(odd):
        i, j = p[odd[0]], q[odd[0]]
        raise UnrealizableOp(
            f"agents {cert.agents[pc.agent[i]]!r} and {cert.agents[pc.agent[j]]!r} move at "
            f"once at t = {float(pc.cuts[k[i]])!r}: {KIND_NAMES[kind[i]]} against "
            f"{KIND_NAMES[kind[j]]}{' about another centre' if kind[i] == kind[j] else ''}"
            " has no closed form"
        )
    i, j = p[lines], q[lines]
    d, f = point_segment_projections(np.zeros(2), start[i] - start[j], end[i] - end[j])
    cert.checks += len(d)
    cert.record("pair", d, f, *pc.span(i), pc.agent[i], pc.agent[j])
    # the angular gap between two riders about one centre is linear in time,
    # and at the interval's start they stand where an earlier check saw them
    i, j = p[rings], q[rings]
    g0, g1 = par[i, 3] - par[j, 3], par[i, 4] - par[j, 4]
    turn = 2 * math.pi * np.ceil(np.minimum(g0, g1) / (2 * math.pi))
    cross = np.divide(turn - g0, g1 - g0, out=np.zeros_like(g0), where=g1 != g0)
    d, f = closest_of(
        (np.hypot(*(end[i] - end[j]).T), 1.0),
        (np.where(turn <= np.maximum(g0, g1), np.abs(par[i, 2] - par[j, 2]), np.inf), cross),
    )
    cert.checks += len(d)
    cert.record("pair", d, f, *pc.span(i), pc.agent[i], pc.agent[j])
