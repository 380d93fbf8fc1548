"""Build swap graphs from inscribed circles of the free space.

Each accepted circle contributes its concentric agent rings as loops. Ring
slots are packed into the angular intervals left free by neighboring circles,
crossing rings of two circles contribute shared slots at the centerline
intersection points, and three kinds of connector edges are added: radial
corridors between consecutive rings of one circle, gap corridors between the
outermost rings of two nearby circles, and skeleton-path corridors between
far circles. A greedy driver admits sampled circles one at a time, keeping a
tentative circle only when the resulting graph is valid and strictly larger.
Every graph is built one way, by `_build` with the run's `SkeletonPaths`
query: it adds skeleton-path connectors, keeps every slot r clear of the
workspace boundary, and checks every gap or path route against the query's
capsule cache.

Conversion does no work whose answer is already known. Each crossing point
of two rings is numbered once, where the pair of circles is classified, so
its one shared slot is placed on both rings by construction. Once the slots
are placed, `_build` lists every connector the set could have; when the
loops and all of them together leave the graph disconnected
(`SwapGraph.connected`, the test `violations()` uses) it gives the set up
before any slot or route check, since the connectors it admits are some of
them. The skeleton-path query answers a pair it was asked about in an
earlier set without a search only where that is the search's own answer
(`medial_axis.SkeletonPaths`).

Conversion decides each gap or skeleton-path connector's route once, when it
admits the edge: `ConversionResult.routes[e]` is the mover's polyline from
slot `e[0]` to slot `e[1]`, the one checked clear of the workspace and of
every other slot. A route is stored as its corners (`corners`): a skeleton
waypoint that a path connector runs straight on through, or that repeats
its neighbour, is dropped, so no leg has zero length. Realization, the
planner's edge costs, the certificate and `trajectory.csv` see one line
record per leg.

`_build` records each slot's angle on a ring as it places the slot there,
and orders every ring by it:
`ConversionResult.slot_angles[li]` is loop li's angles in cycle order, the
table realization reads ring motion from. It is the one record of a slot's
rings: `graph.loops_of(v)` and `loop_layer` name them, and a radial
corridor's outer end is its endpoint on ring `(circle, outer_ring)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .capacity import (
    PairClass,
    center_contained,
    classify_pair,
    free_intervals,
    loop_capacity,
    neighbor_reach,
    pack_arc,
    port_gap,
    widen_gaps,
    safe_layer_count,
    slot_pitch,
)
from .errors import InvalidGraph
from .geometry import (
    CapsuleCache,
    Disk,
    Point2,
    Workspace,
    boundary_distance_many,
    capsule_free,  # noqa: F401  (looked up here by bench/tracing.py)
    circle_circle_intersections,
    dist,
)
from .medial_axis import (
    BRIDGE_COUNTERS,
    DistanceGrid,
    SkeletonPaths,
    extract_medial_axis,
    sample_circles,
)
from .swap_graph import SwapGraph, edge_key


# medial-axis fragments, bridges and bridge-search heap pops; sampled circles,
# `_build` calls, those cut before their slot and route checks, and circles
# kept; skeleton paths searched, reused and answered None without a search
CONVERT_COUNTERS = (
    *BRIDGE_COUNTERS, "candidates", "builds", "builds_cut", "circles_kept",
    "paths_searched", "paths_reused", "paths_skipped",
)


@dataclass(frozen=True)
class RadialCorridor:
    """Connector between consecutive rings of one circle."""

    circle: int
    outer_ring: int
    inner_ring: int


@dataclass(frozen=True)
class GapCorridor:
    """Connector across the gap between outermost rings of two circles."""

    circle_a: int
    ring_a: int
    circle_b: int
    ring_b: int


@dataclass(frozen=True)
class PathCorridor:
    """Connector along a skeleton sub-path between two far circles."""

    circle_a: int
    ring_a: int
    circle_b: int
    ring_b: int
    waypoints: tuple[Point2, ...]


EdgeKind = RadialCorridor | GapCorridor | PathCorridor


@dataclass
class ConversionResult:
    graph: SwapGraph
    circles: list[Disk]
    r: float
    loop_layer: list[tuple[int, int]]  # loop index -> (circle index, ring index)
    inter_edge_kind: dict[tuple[int, int], EdgeKind]
    # gap or path connector -> mover polyline from slot e[0] to slot e[1]
    routes: dict[tuple[int, int], tuple[Point2, ...]] = field(default_factory=dict)
    # what `greedy_convert` did, under the keys of CONVERT_COUNTERS
    counters: dict = field(default_factory=dict, compare=False)
    # the medial axis's distance grid, on which navigation routes
    grid: DistanceGrid | None = field(default=None, compare=False)
    # loop index -> angle of each slot on ring loop_layer[li], in cycle order
    slot_angles: list[list[float]] = field(default_factory=list)


def _circle_angle(center: Point2, p: Point2) -> float:
    return math.atan2(p.y - center.y, p.x - center.x)


def _signed_angle(x: float) -> float:
    return (x + math.pi) % (2 * math.pi) - math.pi


def realization_edge_cost(res: "ConversionResult") -> dict[tuple[int, int], float]:
    """Relative cost of swapping along each connector, in ring-step units.

    Used by the planner to keep vacancy traffic off long corridors."""
    out: dict[tuple[int, int], float] = {}
    for e, kind in res.inter_edge_kind.items():
        if isinstance(kind, RadialCorridor):
            out[e] = max(1.0, float(kind.outer_ring - kind.inner_ring))
        else:
            route = res.routes[e]
            length = sum(dist(p, q) for p, q in zip(route, route[1:]))
            out[e] = max(1.0, length / (2.0 * res.r))
    return out


def corners(route: Sequence[Point2]) -> list[Point2]:
    """`route` without the interior points it runs straight on through.

    An interior point b goes when, with a the last point kept and c the next
    point, (b - a) x (c - b) == 0 and (b - a) . (c - b) >= 0 exactly: b then
    repeats a or c, or lies on the leg from a on to c. Turns, and points where
    the route doubles back, stay, as do the two ends."""
    out = [route[0]]
    for b, c in zip(route[1:-1], route[2:]):
        a = out[-1]
        ux, uy, vx, vy = b.x - a.x, b.y - a.y, c.x - b.x, c.y - b.y
        if ux * vy - uy * vx != 0.0 or ux * vx + uy * vy < 0.0:
            out.append(b)
    out.append(route[-1])
    return out


def _pairwise_center_check(circles: list[Disk]) -> bool:
    """No circle centre lies inside another, by `classify_pair`'s own test."""
    for a in range(len(circles)):
        for b in range(a + 1, len(circles)):
            D = dist(circles[a].center, circles[b].center)
            if center_contained(circles[a], circles[b], D):
                return False
    return True


def _triple_intersection_empty(circles: list[Disk], tol: float) -> bool:
    n = len(circles)
    for a in range(n):
        for b in range(a + 1, n):
            pts = circle_circle_intersections(
                circles[a].center, circles[a].radius, circles[b].center, circles[b].radius
            )
            if not pts:
                continue
            for c in range(n):
                if c in (a, b):
                    continue
                for p in pts:
                    if dist(p, circles[c].center) < circles[c].radius - tol:
                        return False
    return True


def _build(circles: list[Disk], r: float, paths: SkeletonPaths) -> Optional[ConversionResult]:
    """Assemble the swap graph for a fixed circle set in the workspace
    `paths.capsules.w`; None when the set is invalid, also when a circle
    centre lies inside another circle or three circles share a point.

    Far circle pairs get connectors along the skeleton paths of `paths`;
    every slot is checked against the workspace boundary, and every gap or
    path route against `paths.capsules` and the other slots. The one set
    refused by raising is the cut: InvalidGraph, before any slot or route
    check, when the loops and every candidate connector together leave the
    graph disconnected (`greedy_convert` counts it as `builds_cut`)."""
    tol = 1e-9 * max([c.radius for c in circles] + [r])
    if not _pairwise_center_check(circles) or not _triple_intersection_empty(circles, tol):
        return None

    layer_count = [safe_layer_count(c.radius, r) for c in circles]

    # per circle pair: shared slots where rings cross (classes III and IV),
    # and a gap corridor when the outermost rings are in the gap class. Each
    # crossing point is numbered once and listed on both of its rings
    crossings: list[Point2] = []
    shared: dict[tuple[int, int], list[int]] = {}  # (circle, ring) -> its crossings
    linked: set[tuple[int, int]] = set()
    gap_pairs: list[tuple[int, int]] = []
    for a in range(len(circles)):
        for b in range(a + 1, len(circles)):
            D = dist(circles[a].center, circles[b].center)
            for i in range(1, layer_count[a] + 1):
                for j in range(1, layer_count[b] + 1):
                    cls = classify_pair(circles[a], i, circles[b], j, D, r)
                    if cls not in (PairClass.CASE_III, PairClass.CASE_IV):
                        continue
                    pts = circle_circle_intersections(
                        circles[a].center, 2 * r * i, circles[b].center, 2 * r * j
                    )
                    if len(pts) != 2:
                        return None
                    ks = range(len(crossings), len(crossings) + 2)
                    crossings.extend(sorted(pts))
                    shared.setdefault((a, i), []).extend(ks)
                    shared.setdefault((b, j), []).extend(ks)
                    linked.add((a, b))
            if layer_count[a] >= 1 and layer_count[b] >= 1 and classify_pair(
                circles[a], layer_count[a], circles[b], layer_count[b], D, r
            ) is PairClass.CASE_II:
                gap_pairs.append((a, b))
                linked.add((a, b))

    # skeleton paths for pairs with no direct link, with the waypoints outside
    # both circles and the angles they leave them at; those exits become
    # ports
    taus: dict[tuple[int, int], tuple[PathCorridor, list[Point2], float, float]] = {}
    corridor_ports: dict[tuple[int, int], list[float]] = {}
    for a in range(len(circles)):
        for b in range(a + 1, len(circles)):
            if (a, b) in linked:
                continue
            if layer_count[a] < 1 or layer_count[b] < 1:
                continue
            tau = paths.path(circles, a, b)
            if tau is None:
                continue
            ca, cb = circles[a], circles[b]
            mid = [
                p
                for p in tau
                if dist(p, ca.center) > ca.radius and dist(p, cb.center) > cb.radius
            ]
            if not mid:
                continue
            kind = PathCorridor(a, layer_count[a], b, layer_count[b], tau)
            ang_a = _circle_angle(ca.center, mid[0])
            ang_b = _circle_angle(cb.center, mid[-1])
            taus[(a, b)] = (kind, mid, ang_a, ang_b)
            corridor_ports.setdefault((a, layer_count[a]), []).append(ang_a)
            corridor_ports.setdefault((b, layer_count[b]), []).append(ang_b)

    # slot placement per ring, vertex ids in order of first placement: a
    # crossing's one vertex is placed on both of its rings, every ring-layout
    # slot is a new vertex
    positions: dict[int, Point2] = {}
    owners: dict[int, set[int]] = {}  # vid -> the circles it has a ring on
    ring_angle: dict[tuple[int, int], dict[int, float]] = {}  # (circle, ring) -> vid -> angle
    crossing_vid: dict[int, int] = {}

    def place(v: int, circle: int, ring: int) -> int:
        """Put vertex v on ring `ring` of `circle`, at its own angle there."""
        p, c = positions[v], circles[circle].center
        owners[v].add(circle)
        ang = math.atan2(p.y - c.y, p.x - c.x) % (2 * math.pi)
        ring_angle.setdefault((circle, ring), {})[v] = ang
        return v

    def new_vertex(p: Point2) -> int:
        v = len(positions)
        positions[v] = p
        owners[v] = set()
        return v

    # (circle, ring, requested exit angle, or None for the radial port) -> vid
    port: dict[tuple[int, int, Optional[float]], int] = {}
    for a, c in enumerate(circles):
        others = [circles[x] for x in range(len(circles)) if x != a]
        for i in range(1, layer_count[a] + 1):
            for k in shared.get((a, i), ()):
                if k not in crossing_vid:
                    crossing_vid[k] = new_vertex(crossings[k])
                place(crossing_vid[k], a, i)
            rad = 2.0 * r * i
            if others:
                intervals = widen_gaps(
                    free_intervals(c.center, rad, others, r), slot_pitch(i)
                )
            else:
                intervals = [(0.0, 2.0 * math.pi)]
            angles, port_slots = _ring_layout(i, intervals, corridor_ports.get((a, i), ()))
            vids = []
            for t in angles:
                p = Point2(c.center.x + rad * math.cos(t), c.center.y + rad * math.sin(t))
                vids.append(place(new_vertex(p), a, i))
            for key, k in port_slots.items():
                port[(a, i, key)] = vids[k]
    ring_members = {key: sorted(angle, key=angle.get) for key, angle in ring_angle.items()}

    # reject rings too small to form a loop
    for key, members in ring_members.items():
        if len(members) < 3:
            return None
    if not ring_members:
        return None
    loop_layer = sorted(ring_members)
    loops = [ring_members[key] for key in loop_layer]

    # every connector the set could have, each once, with the mover's route
    # from u to v that it is admitted on (a radial corridor has none)
    candidates: list[tuple[int, int, EdgeKind, list[Point2]]] = []
    # radial corridors between consecutive kept rings, anchored at the outer
    # ring's port slot so the descent clears its flanking agents
    for a in range(len(circles)):
        kept = sorted(i for (x, i) in ring_members if x == a)
        for lo, hi in zip(kept, kept[1:]):
            u = port.get((a, hi, None))
            if u is None:
                continue
            ang, below = ring_angle[(a, hi)][u], ring_angle[(a, lo)]
            v = min(below, key=lambda x: (abs(_signed_angle(below[x] - ang)), x))
            candidates.append((u, v, RadialCorridor(a, hi, lo), []))
    # gap corridors: nearest wedge-boundary slots joined by a straight lens
    # crossing, admitted only when the whole segment clears every other slot
    for a, b in gap_pairs:
        ia = max((i for (x, i) in ring_members if x == a), default=0)
        jb = max((i for (x, i) in ring_members if x == b), default=0)
        if ia < 1 or jb < 1:
            continue
        u, v = _nearest_pair(positions, ring_members[(a, ia)], ring_members[(b, jb)])
        candidates.append((u, v, GapCorridor(a, ia, b, jb), [positions[u], positions[v]]))
    # skeleton-path corridors attach at their reserved ports
    for (a, b), (kind, mid, ang_a, ang_b) in sorted(taus.items()):
        u = port.get((a, kind.ring_a, ang_a))
        v = port.get((b, kind.ring_b, ang_b))
        if u is None or v is None:
            continue
        candidates.append((u, v, kind, corners([positions[u], *mid, positions[v]])))
    # the admitted connectors are some of these, so a set they leave
    # disconnected fails `graph.violations()` whatever the checks below decide
    if not SwapGraph(positions, loops, [(u, v) for u, v, _, _ in candidates]).connected():
        raise InvalidGraph(["connectivity: disconnected by every candidate connector"])

    # collision-freeness of the whole slot set
    slot_xy = np.array([positions[v] for v in sorted(positions)], dtype=float)  # row v: slot v
    if len(slot_xy) > 1:
        d2 = np.sum((slot_xy[:, None, :] - slot_xy[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        if d2.min() < (2 * r * (1 - 1e-7)) ** 2:
            return None
    reach = [neighbor_reach(cx.radius, r) - 1e-7 * r for cx in circles]
    for v in sorted(positions):
        for x, cx in enumerate(circles):
            if x not in owners[v] and dist(positions[v], cx.center) < reach[x]:
                return None
    w = paths.capsules.w
    if (boundary_distance_many(slot_xy, w) < r - w.tol).any():
        return None

    inter_edges: list[tuple[int, int]] = []
    edge_kind: dict[tuple[int, int], EdgeKind] = {}
    routes: dict[tuple[int, int], tuple[Point2, ...]] = {}

    def add_inter(u: int, v: int, kind: EdgeKind, route: Sequence[Point2] = ()) -> None:
        """Admit connector u-v with the mover's route from u to v, if any."""
        e = edge_key(u, v)
        if e in edge_kind or u == v:
            return
        inter_edges.append(e)
        edge_kind[e] = kind
        if route:
            routes[e] = tuple(route if e[0] == u else reversed(route))

    def route_ok(route: list[Point2], u: int, v: int) -> bool:
        ends = np.array(route, dtype=float)
        spines = np.stack([ends[:-1], ends[1:]], axis=1)
        return paths.capsules.route_clear(
            spines, r, np.delete(slot_xy, [u, v], axis=0), 2 * r * (1 - 1e-7)
        )

    # a gap or path route must clear the workspace and every other slot
    for u, v, kind, route in candidates:
        if not route or route_ok(route, u, v):
            add_inter(u, v, kind, route)

    graph = SwapGraph(positions=positions, loops=loops, inter_edges=inter_edges)
    if graph.violations():
        return None
    return ConversionResult(
        graph=graph,
        circles=list(circles),
        r=r,
        loop_layer=loop_layer,
        inter_edge_kind=edge_kind,
        routes=routes,
        slot_angles=[[ring_angle[key][v] for v in cyc] for key, cyc in zip(loop_layer, loops)],
    )


def _ring_layout(
    i: int, intervals, corridor_angles=()
) -> tuple[list[float], dict[Optional[float], int]]:
    """Slot angles for ring i within its free intervals, and its ports.

    Returns (angles, port_slots), where port_slots maps each placed port to
    its index in `angles`: a corridor port under the exit angle requested
    for it, the radial port under None. Ports are slots flanked by an
    extra-wide gap so a radial departure at their angle clears the
    neighboring agents: every requested corridor exit gets one when it fits,
    and rings >= 2 get one more for the corridor to the ring below, placed
    as far from the other ports as possible.
    """
    pitch = slot_pitch(i)
    g = port_gap(i)
    two_pi = 2.0 * math.pi
    full = len(intervals) == 1 and intervals[0][1] - intervals[0][0] >= two_pi - 1e-12
    ports: dict[float, Optional[float]] = {}  # port angle -> its key in port_slots

    def fits(base):
        """A port at `base` keeps off the other ports and, unless the ring
        is free all round, off the ends of its interval."""
        if any(abs(_signed_angle(base - q)) < 2 * g for q in ports):
            return False
        return full or any(lo + g <= base <= hi - g for lo, hi in intervals)

    # corridor ports first: their angles are dictated by the route exits
    for ca in sorted(set(corridor_angles)):
        a_ = ca % two_pi
        base = next((x for x in (a_, a_ + two_pi, a_ - two_pi) if fits(x)), None)
        if base is not None:
            ports[base] = ca

    # radial port in the largest remaining gap
    if i >= 2:
        cands = []
        if full:
            if not ports:
                cands = [0.0]
            else:
                ps = sorted(p % two_pi for p in ports)
                for k, p in enumerate(ps):
                    q = ps[(k + 1) % len(ps)] + (two_pi if k == len(ps) - 1 else 0.0)
                    cands.append((0.5 * (p + q)) % two_pi)
        else:
            for lo, hi in sorted(intervals, key=lambda iv: (-(iv[1] - iv[0]), iv[0])):
                inside = sorted([p for p in ports if lo <= p <= hi])
                edges = [lo] + inside + [hi]
                for a_, b_ in zip(edges, edges[1:]):
                    cands.append(0.5 * (a_ + b_))
        for cand in sorted(
            cands,
            key=lambda x: -min(
                (abs(_signed_angle(x - q)) for q in ports), default=two_pi
            ),
        ):
            if fits(cand):
                ports[cand] = None
                break

    if full:
        if not ports:
            n = loop_capacity(i)
            return [two_pi * k / n for k in range(n)], {}
        order = sorted(ports, key=lambda p: p % two_pi)
        ps = [p % two_pi for p in order]
        angles = list(ps)
        for k, p in enumerate(ps):
            q = ps[(k + 1) % len(ps)] + (two_pi if k == len(ps) - 1 else 0.0)
            angles.extend(_pack_interval(p + g, q - g, pitch))
        return angles, {ports[p]: k for k, p in enumerate(order)}

    angles: list[float] = []
    slot: dict[float, int] = {}  # port angle -> its index in angles
    for lo, hi in intervals:
        inside = sorted(
            p for p in ports if lo - 1e-12 <= p <= hi + 1e-12
        )
        slot.update((p, len(angles) + k) for k, p in enumerate(inside))
        angles.extend(inside)
        cur = lo
        for p in inside:
            angles.extend(_pack_interval(cur, p - g, pitch))
            cur = p + g
        angles.extend(_pack_interval(cur, hi, pitch))
    return angles, {ports[p]: k for p, k in slot.items()}


def _pack_interval(lo: float, hi: float, pitch: float) -> list[float]:
    n = pack_arc(hi - lo, pitch)
    if n <= 0:
        return []
    if n == 1:
        return [0.5 * (lo + hi)]
    return [lo + k * (hi - lo) / (n - 1) for k in range(n)]


def _nearest_pair(positions, group_a: list[int], group_b: list[int]) -> tuple[int, int]:
    best = None
    for u in group_a:
        for v in group_b:
            d = dist(positions[u], positions[v])
            if best is None or (d, u, v) < best:
                best = (d, u, v)
    return best[1], best[2]


def greedy_convert(
    w: Workspace,
    r: float,
    threshold: Optional[int] = None,
    starts: list[Point2] = (),
    *,
    epsilon: Optional[float] = None,
    k_max: int = 64,
) -> ConversionResult:
    """Grow a swap graph circle by circle until no circle adds vertices.

    The medial axis is read from a grid of 0.5r cells, whose distance grid
    the result keeps (`grid`). Sampled circles are tried largest first, after
    promoting circles that contain an agent start position. A tentative
    circle is kept only when the assumptions hold, the resulting graph is
    valid, and the vertex count strictly increases. Stops early once
    `threshold` vertices are reached.
    """
    eps = epsilon if epsilon is not None else 0.5 * r
    limit = threshold if threshold is not None else math.inf
    counters = dict.fromkeys(CONVERT_COUNTERS, 0)
    empty = ConversionResult(
        graph=SwapGraph(positions={}, loops=[], inter_edges=[]),
        circles=[],
        r=r,
        loop_layer=[],
        inter_edge_kind={},
        counters=counters,
    )
    skeleton = extract_medial_axis(w, 0.5 * r)
    counters.update(skeleton.counters)
    candidates = sample_circles(skeleton, eps, k_max, r)
    counters["candidates"] = len(candidates)

    def contains_start(c: Disk) -> bool:
        return any(dist(c.center, p) <= c.radius for p in starts)

    ordered = [c for c in candidates if contains_start(c)] + [
        c for c in candidates if not contains_start(c)
    ]
    paths = SkeletonPaths(skeleton, r, CapsuleCache(w))
    chosen: list[Disk] = []
    best = empty
    while best.graph.num_vertices() < limit:
        progressed = False
        for c in ordered:
            if c in chosen:
                continue
            tentative = chosen + [c]
            counters["builds"] += 1
            try:
                res = _build(tentative, r, paths)
            except InvalidGraph:
                counters["builds_cut"] += 1
                continue
            if res is None or res.graph.num_vertices() <= best.graph.num_vertices():
                continue
            chosen = tentative
            best = res
            progressed = True
            if best.graph.num_vertices() >= limit:
                break
        if not progressed:
            break
    counters.update(
        circles_kept=len(best.circles),
        paths_searched=paths.searched,
        paths_reused=paths.reused,
        paths_skipped=paths.skipped,
    )
    best.counters = counters
    best.grid = skeleton.grid
    return best
