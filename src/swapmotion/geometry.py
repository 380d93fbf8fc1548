"""2D primitives: points, disks, polygons, capsules, arcs, and distance queries.

All comparisons use an absolute tolerance scaled by the workspace diameter.
Boundary semantics: the free-space boundary itself is not free, while
tangency (distance exactly equal to a radius sum) counts as non-penetrating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

TOL_SCALE = 1e-9


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Disk:
    center: Point2
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Polygon:
    """Simple polygon ring; counter-clockwise = solid, clockwise = hole."""

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        object.__setattr__(
            self, "vertices", tuple(Point2(float(x), float(y)) for x, y in self.vertices)
        )

    def signed_area(self) -> float:
        s = 0.0
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            s += x1 * y2 - x2 * y1
        return 0.5 * s

    def is_ccw(self) -> bool:
        return self.signed_area() > 0.0

    def edges(self):
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]


@dataclass(frozen=True)
class Rect:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("degenerate rectangle")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def diameter(self) -> float:
        return math.hypot(self.width, self.height)


@dataclass(frozen=True)
class Workspace:
    """Bounded rectangle minus polygonal obstacle interiors."""

    bounds: Rect
    obstacles: tuple[Polygon, ...] = ()
    # cached obstacle edge endpoints, shape (E, 2) each, ring after ring
    _edges_a: np.ndarray = field(init=False, repr=False, compare=False)
    _edges_b: np.ndarray = field(init=False, repr=False, compare=False)
    # per ring: index of its first edge, and +1 (CCW, solid) or -1 (CW, hole)
    _ring_start: np.ndarray = field(init=False, repr=False, compare=False)
    _ring_sign: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        a, b = [], []
        for poly in self.obstacles:
            for p, q in poly.edges():
                a.append(p)
                b.append(q)
        ea = np.asarray(a, dtype=float).reshape(-1, 2)
        eb = np.asarray(b, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "_edges_a", ea)
        object.__setattr__(self, "_edges_b", eb)
        sizes = [len(poly.vertices) for poly in self.obstacles]
        object.__setattr__(self, "_ring_start", np.cumsum([0] + sizes, dtype=np.intp)[:-1])
        signs = [1 if poly.is_ccw() else -1 for poly in self.obstacles]
        object.__setattr__(self, "_ring_sign", np.array(signs, dtype=int))

    @cached_property
    def tol(self) -> float:
        return TOL_SCALE * self.bounds.diameter()

    def free_area(self) -> float:
        area = self.bounds.width * self.bounds.height
        for poly in self.obstacles:
            area -= poly.signed_area()
        return area


def dist(p: Point2, q: Point2) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def dists(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """`dist` elementwise over broadcast (..., 2) arrays, bit for bit: math.hypot,
    which np.hypot can differ from in the last bit."""
    d = np.subtract(p, q)
    x, y = d[..., 0].ravel().tolist(), d[..., 1].ravel().tolist()
    return np.array(list(map(math.hypot, x, y)), dtype=float).reshape(d.shape[:-1])


def point_segment_projections(p: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Elementwise distance from p to segment ab over broadcast (..., 2)
    arrays, and the fraction along ab of the closest point."""
    px, py = p[..., 0], p[..., 1]
    ax, ay = a[..., 0], a[..., 1]
    dx, dy = b[..., 0] - ax, b[..., 1] - ay
    seg2 = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / np.where(seg2 == 0.0, 1.0, seg2)
    t = np.clip(t, 0.0, 1.0)
    ex, ey = px - (ax + t * dx), py - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey), t


def point_segment_distances(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise distance from p to segment ab over broadcast (..., 2) arrays."""
    return point_segment_projections(p, a, b)[0]


def closest_of(*candidates):
    """Elementwise the (distance, fraction) candidate with the least distance."""
    both = np.broadcast_arrays(*(x for c in candidates for x in c))
    d, f = np.stack(both[::2]), np.stack(both[1::2])
    k = d.argmin(axis=0)
    return np.choose(k, d), np.choose(k, f)


def _orient(p, q, s):
    return (q[..., 0] - p[..., 0]) * (s[..., 1] - p[..., 1]) - (q[..., 1] - p[..., 1]) * (
        s[..., 0] - p[..., 0]
    )


def segment_distances(a, b, c, d):
    """Elementwise distance between segments ab and cd over broadcast (..., 2)
    arrays, 0 where they cross properly, and the fraction along ab of a
    closest point."""
    dist_, frac = closest_of(
        (point_segment_distances(a, c, d), 0.0),
        (point_segment_distances(b, c, d), 1.0),
        point_segment_projections(c, a, b),
        point_segment_projections(d, a, b),
    )
    # proper crossing: each segment's ends lie strictly on both sides of the other
    oa, ob = _orient(c, d, a), _orient(c, d, b)
    crossing = ((oa > 0) != (ob > 0)) & ((_orient(a, b, c) > 0) != (_orient(a, b, d) > 0))
    at = np.divide(oa, oa - ob, out=np.zeros_like(frac), where=crossing)
    return np.where(crossing, 0.0, dist_), np.where(crossing, at, frac)


def sweep_fractions(phi, a0, a1):
    """Elementwise the fraction of the sweep from angle a0 to a1 at which the
    direction phi is first reached; nan where it is not."""
    s = np.abs(a1 - a0)
    u = np.mod((phi - a0) * np.where(a1 < a0, -1.0, 1.0), 2 * math.pi)
    return np.divide(u, s, out=np.full(np.shape(u), np.nan), where=(u <= s) & (s > 0))


def arc_points(c, radius, angle):
    """Elementwise the point at `angle` on the circle of `radius` about c."""
    return np.stack([c[..., 0] + radius * np.cos(angle), c[..., 1] + radius * np.sin(angle)], -1)


def point_arc_distances(p, c, radius, a0, a1):
    """Elementwise distance from p to the arc of `radius` about c swept from
    angle a0 to a1, over broadcast arrays, and the fraction of the sweep at a
    closest point."""
    v, ends = p - c, [arc_points(c, radius, a) - p for a in (a0, a1)]
    f = sweep_fractions(np.arctan2(v[..., 1], v[..., 0]), a0, a1)
    return closest_of(
        (np.where(np.isnan(f), np.inf, np.abs(np.hypot(v[..., 0], v[..., 1]) - radius)), f),
        (np.hypot(ends[0][..., 0], ends[0][..., 1]), 0.0),
        (np.hypot(ends[1][..., 0], ends[1][..., 1]), 1.0),
    )


def arc_segment_distances(c, radius, a0, a1, e0, e1):
    """Elementwise distance from the arc of `radius` about c swept from a0 to
    a1 to the segment e0e1, over broadcast arrays, and the fraction of the
    sweep at a closest point.

    Past the ends of either curve, two curves come closest where the segment
    meets the circle, or on the ray from c square onto the segment's line."""
    e = e1 - e0
    e2 = np.maximum((e * e).sum(-1), 1e-300)
    t = ((c - e0) * e).sum(-1) / e2  # the foot of c on the line
    h = np.sqrt(np.maximum(radius**2 - ((e0 + t[..., None] * e - c) ** 2).sum(-1), 0.0) / e2)
    inner = [e0 + np.clip(s, 0.0, 1.0)[..., None] * e for s in (t, t - h, t + h)]
    return closest_of(
        (point_segment_distances(arc_points(c, radius, a0), e0, e1), 0.0),
        (point_segment_distances(arc_points(c, radius, a1), e0, e1), 1.0),
        *(point_arc_distances(q, c, radius, a0, a1) for q in [e0, e1] + inner),
    )


def _ring_depths(pts: np.ndarray, w: Workspace) -> np.ndarray:
    """Material depth of each point: CCW rings containing it minus CW ones.

    Even-odd crossing test against every obstacle edge at once; the parity
    of each ring is reduced over its slice of the edge arrays."""
    ax, ay = w._edges_a[:, 0], w._edges_a[:, 1]
    bx, by = w._edges_b[:, 0], w._edges_b[:, 1]
    x, y = pts[:, 0, None], pts[:, 1, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = (ax - bx) * (y - by) / (ay - by) + bx
    crossing = ((by > y) != (ay > y)) & (x < xcross)
    parity = np.logical_xor.reduceat(crossing, w._ring_start, axis=1)
    return parity.astype(int) @ w._ring_sign


def _edge_distances(pts: np.ndarray, w: Workspace) -> np.ndarray:
    """Min distance from each point to any obstacle edge (inf if none)."""
    if len(w._edges_a) == 0:
        return np.full(len(pts), np.inf)
    return point_segment_distances(pts[:, None, :], w._edges_a, w._edges_b).min(axis=1)


def boundary_distance_many(pts: np.ndarray, w: Workspace) -> np.ndarray:
    """Distance from each point to the free-space boundary curves."""
    step = (1 << 16) // max(1, len(w._edges_a))  # bounds the per-edge temporaries
    if len(pts) > step:
        return np.concatenate(
            [boundary_distance_many(pts[k : k + step], w) for k in range(0, len(pts), step)]
        )
    return np.minimum(bounds_distances(pts, w), _edge_distances(pts, w))


def bounds_distances(pts: np.ndarray, w: Workspace) -> np.ndarray:
    """Signed distance from each point (..., 2) to the sides of the bounds."""
    b = w.bounds
    x, y = pts[..., 0], pts[..., 1]
    return np.minimum(np.minimum(x - b.xmin, b.xmax - x), np.minimum(y - b.ymin, b.ymax - y))


def nearest_boundary(
    pts: np.ndarray, w: Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point: distance to the obstacle edges (inf if none), distance to the
    free-space boundary, and the boundary point at that distance.

    Distances equal `_edge_distances` and `boundary_distance_many`. Ties go to
    the first of the sides xmin, xmax, ymin, ymax, then the first nearest edge."""
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    edge_d, edge_p = np.full(n, np.inf), np.zeros((n, 2))
    ea, eb = w._edges_a, w._edges_b
    step = max(1, (1 << 16) // max(1, len(ea)))  # bounds the per-edge temporaries
    for lo in range(0, n if len(ea) else 0, step):
        d, t = point_segment_projections(pts[lo : lo + step, None], ea, eb)
        rows, k = np.arange(len(d)), d.argmin(axis=1)
        edge_d[lo : lo + step] = d[rows, k]
        edge_p[lo : lo + step] = ea[k] + t[rows, k, None] * (eb - ea)[k]
    b = w.bounds
    cand = np.stack([x - b.xmin, b.xmax - x, y - b.ymin, b.ymax - y, edge_d])
    k = cand.argmin(axis=0)
    near = np.where((k == 4)[:, None], edge_p, pts)
    near[k == 0, 0] = b.xmin
    near[k == 1, 0] = b.xmax
    near[k == 2, 1] = b.ymin
    near[k == 3, 1] = b.ymax
    return edge_d, cand[k, np.arange(n)], near


def points_in_free_space(pts: np.ndarray, w: Workspace, edge_d=None) -> np.ndarray:
    """Which points lie strictly inside the bounds and outside obstacle material.

    Orientation-aware containment: CCW rings add material, CW rings carve
    holes, so overlapping solids stay solid and holes stay free. Points on
    any obstacle edge, hole edges included, are boundary and not free.
    `edge_d`, when given, is each point's distance to the obstacle edges."""
    b = w.bounds
    inside = (
        (pts[:, 0] > b.xmin) & (pts[:, 0] < b.xmax) & (pts[:, 1] > b.ymin) & (pts[:, 1] < b.ymax)
    )
    if w.obstacles:
        edge_d = _edge_distances(pts, w) if edge_d is None else edge_d
        inside &= (_ring_depths(pts, w) <= 0) & (edge_d > w.tol)
    return inside


def disk_in_free_space(d: Disk, w: Workspace) -> bool:
    """True iff the disk lies in free space; boundary tangency is allowed."""
    return bool(disks_free(np.array([d.center], dtype=float), w, d.radius - w.tol)[0])


def disks_free(pts: np.ndarray, w: Workspace, reach: float) -> np.ndarray:
    """Per point: in free space, with the free-space boundary at least `reach`
    away; equal to `points_in_free_space(pts, w) & (boundary_distance_many(pts,
    w) >= reach)`. Each stage measures only the points still in play."""
    step = (1 << 16) // max(1, len(w._edges_a))  # bounds the per-edge temporaries
    if len(pts) > step:
        return np.concatenate(
            [disks_free(pts[k : k + step], w, reach) for k in range(0, len(pts), step)]
        )
    ok = bounds_distances(pts, w) >= reach
    k = np.flatnonzero(ok)
    edge_d = _edge_distances(pts[k], w)
    clear = edge_d >= reach
    ok[k] = clear
    k = k[clear]
    ok[k] = points_in_free_space(pts[k], w, edge_d[clear])
    return ok


def _spines_clear_of_edges(a: np.ndarray, b: np.ndarray, r: float, w: Workspace) -> np.ndarray:
    """Per spine ab: no obstacle edge within r, and neither end buried in material.

    Only the spine-edge pairs whose bounding boxes come within `reach` of each
    other on both axes are measured: boxes `reach` apart on one axis hold
    segments at least that far apart, and an edge that far away changes no
    answer. A spine kept by the distance test lies more than tol from every
    edge, so it crosses none and both its ends lie at the same ring depth:
    one end is tested. When r <= 2 tol the bounds test can pass an end on or
    just past the bounds, so both are.
    """
    tol = w.tol
    ea, eb = w._edges_a, w._edges_b
    # a spine is rejected by an edge nearer than r - tol, an end by one at most tol away
    reach = max(r, 2 * tol)
    lo, hi = np.minimum(a, b)[:, None, :], np.maximum(a, b)[:, None, :]
    gap = np.maximum(np.minimum(ea, eb) - hi, lo - np.maximum(ea, eb)).max(axis=2)
    k, e = np.nonzero(gap < reach)
    near = np.full(len(a), np.inf)
    if len(k):
        np.minimum.at(near, k, segment_distances(a[k], b[k], ea[e], eb[e])[0])
    ok = ~(near < r - tol)
    k = np.flatnonzero(ok)
    # every edge is at least near[k] from the spine, so from either end
    for ends in (a,) if r > 2 * tol else (a, b):
        ok[k] &= points_in_free_space(ends[k], w, near[k])
    return ok


def capsules_free(
    a: np.ndarray, b: np.ndarray, r: float, w: Workspace, others: np.ndarray = ()
) -> np.ndarray:
    """Batched `capsule_free`: bool[K] for the K spines a[k]-b[k] of radius r.

    `a` and `b` are (K, 2) arrays or single points, which broadcast. Each
    capsule is checked against the bounds, then the disks of radius r about
    the (D, 2) centres `others`, then every obstacle edge; each stage sees
    only the spines that passed the ones before.
    """
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=float).reshape(-1, 2), np.asarray(b, dtype=float).reshape(-1, 2)
    )
    step = (1 << 14) // max(1, len(w._edges_a), len(others))  # bounds the K x E temporaries
    if len(a) > step:
        return np.concatenate(
            [capsules_free(a[k : k + step], b[k : k + step], r, w, others)
             for k in range(0, len(a), step)]
        )
    tol = w.tol
    bd = w.bounds
    ok = np.ones(len(a), dtype=bool)
    for p in (a, b):
        ok &= (bd.xmin + r - tol <= p[:, 0]) & (p[:, 0] <= bd.xmax - r + tol)
        ok &= (bd.ymin + r - tol <= p[:, 1]) & (p[:, 1] <= bd.ymax - r + tol)
    if len(others) and ok.any():
        k = np.flatnonzero(ok)
        d = point_segment_distances(np.asarray(others, dtype=float), a[k, None], b[k, None])
        ok[k] = ~(d < 2 * r - tol).any(axis=1)
    if len(w._edges_a) and ok.any():
        k = np.flatnonzero(ok)
        ok[k] = _spines_clear_of_edges(a[k], b[k], r, w)
    return ok


def capsule_free(a: Point2, b: Point2, r: float, w: Workspace, others: np.ndarray = ()) -> bool:
    """True iff the disk of radius r swept along ab stays in the free space and
    clear of the disks of radius r about the `others` (tangency is allowed)."""
    return bool(capsules_free(a, b, r, w, others)[0])


class CapsuleCache:
    """Workspace-only capsule results, keyed by the exact spine ends and radius.

    Meant to live as long as one computation on one workspace (e.g. one
    conversion), never process-wide."""

    def __init__(self, w: Workspace):
        self.w = w
        self.known: dict[tuple, bool] = {}

    def all_free(self, spines: np.ndarray, r: float) -> bool:
        """True iff every capsule (spines[s], r) of the (S, 2, 2) `spines` lies
        in the free space."""
        keys = [(*k, r) for k in spines.reshape(-1, 4).tolist()]
        todo = {k: s for s, k in enumerate(keys) if k not in self.known}
        if todo:
            ends = spines[list(todo.values())]
            self.known.update(zip(todo, capsules_free(ends[:, 0], ends[:, 1], r, self.w).tolist()))
        return all(self.known[k] for k in keys)

    def route_clear(self, spines: np.ndarray, r: float, centres: np.ndarray, reach) -> bool:
        """True iff every capsule (spines[s], r) of the (S, 2, 2) `spines` lies
        in the free space and no spine comes nearer than `reach` (a scalar, or
        one per centre) to one of the (C, 2) `centres`."""
        if not self.all_free(spines, r):
            return False
        d = point_segment_distances(centres, spines[:, None, 0], spines[:, None, 1])
        return not (d < reach).any()


def circle_circle_intersections(
    c1: Point2, r1: float, c2: Point2, r2: float
) -> list[Point2]:
    """Intersection points of two circles (0, 1, or 2 points)."""
    d = dist(c1, c2)
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0.0:
        return []
    h = math.sqrt(max(0.0, h2))
    ux, uy = (c2[0] - c1[0]) / d, (c2[1] - c1[1]) / d
    mx, my = c1[0] + a * ux, c1[1] + a * uy
    if h == 0.0:
        return [Point2(mx, my)]
    return [
        Point2(mx - h * uy, my + h * ux),
        Point2(mx + h * uy, my - h * ux),
    ]


def rectangle_workspace(width: float, height: float, obstacles=()) -> Workspace:
    """Axis-aligned workspace anchored at the origin."""
    return Workspace(Rect(0.0, 0.0, float(width), float(height)), tuple(obstacles))
