"""2D primitives: points, disks, polygons, capsules, and clearance queries.

All comparisons use an absolute tolerance scaled by the workspace diameter.
Boundary semantics: the free-space boundary itself is not free, while
tangency (distance exactly equal to a radius sum) counts as non-penetrating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotInFreeSpace

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
class Capsule:
    """Minkowski sum of segment ab with a disk of the given radius."""

    a: Point2
    b: Point2
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"capsule radius must be positive, got {self.radius}")


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
    # cached obstacle edge endpoints, shape (E, 2) each
    _edges_a: np.ndarray = field(init=False, repr=False, compare=False)
    _edges_b: np.ndarray = field(init=False, repr=False, compare=False)

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

    @property
    def tol(self) -> float:
        return TOL_SCALE * self.bounds.diameter()

    def free_area(self) -> float:
        area = self.bounds.width * self.bounds.height
        for poly in self.obstacles:
            area -= poly.signed_area()
        return area


def dist(p: Point2, q: Point2) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _segment_segment_distance(a: Point2, b: Point2, c: Point2, d: Point2) -> float:
    if _segments_intersect(a, b, c, d):
        return 0.0
    return min(
        _point_segment_distance(a, c, d),
        _point_segment_distance(b, c, d),
        _point_segment_distance(c, a, b),
        _point_segment_distance(d, a, b),
    )


def _orient(a: Point2, b: Point2, c: Point2) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def _point_in_ring(p: Point2, poly: Polygon) -> bool:
    """Even-odd crossing test for a single simple ring."""
    px, py = p
    inside = False
    verts = poly.vertices
    n = len(verts)
    j = n - 1
    for i in range(n):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi > py) != (yj > py) and px < (xj - xi) * (py - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def point_in_free_space(p: Point2, w: Workspace) -> bool:
    """True iff p lies strictly inside bounds and outside obstacle material.

    Orientation-aware containment: CCW rings add material, CW rings carve
    holes, so overlapping solids stay solid and holes stay free.
    """
    x, y = p
    b = w.bounds
    if not (b.xmin < x < b.xmax and b.ymin < y < b.ymax):
        return False
    depth = 0
    for poly in w.obstacles:
        if _point_in_ring(p, poly):
            depth += 1 if poly.is_ccw() else -1
    if depth > 0:
        return False
    if len(w._edges_a) and depth == 0:
        # points exactly on an obstacle edge belong to the boundary, not to free space
        d = _edge_distances(np.array([[x, y]]), w)[0]
        if d <= w.tol:
            return False
    return True


def _edge_distances(pts: np.ndarray, w: Workspace) -> np.ndarray:
    """Min distance from each point to any obstacle edge (inf if none)."""
    if len(w._edges_a) == 0:
        return np.full(len(pts), np.inf)
    a = w._edges_a[None, :, :]  # (1, E, 2)
    b = w._edges_b[None, :, :]
    p = pts[:, None, :]  # (P, 1, 2)
    ab = b - a
    seg2 = np.einsum("pez,pez->pe", ab, ab)
    seg2 = np.where(seg2 == 0.0, 1.0, seg2)
    t = np.einsum("pez,pez->pe", p - a, ab) / seg2
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, :, None] * ab
    d = np.linalg.norm(p - proj, axis=2)
    return d.min(axis=1)


def boundary_distance_many(pts: np.ndarray, w: Workspace) -> np.ndarray:
    """Distance from each point to the free-space boundary curves."""
    step = (1 << 16) // max(1, len(w._edges_a))  # bounds the per-edge temporaries
    if len(pts) > step:
        return np.concatenate(
            [boundary_distance_many(pts[k : k + step], w) for k in range(0, len(pts), step)]
        )
    b = w.bounds
    d = np.minimum.reduce(
        [pts[:, 0] - b.xmin, b.xmax - pts[:, 0], pts[:, 1] - b.ymin, b.ymax - pts[:, 1]]
    )
    return np.minimum(d, _edge_distances(pts, w))


def points_in_free_space(pts: np.ndarray, w: Workspace) -> np.ndarray:
    """Vectorized free-space membership (boundary treated as not free)."""
    b = w.bounds
    inside = (
        (pts[:, 0] > b.xmin) & (pts[:, 0] < b.xmax) & (pts[:, 1] > b.ymin) & (pts[:, 1] < b.ymax)
    )
    if w.obstacles:
        depth = np.zeros(len(pts), dtype=int)
        for poly in w.obstacles:
            sign = 1 if poly.is_ccw() else -1
            depth += sign * _ring_contains_many(pts, poly)
        inside &= depth <= 0
        inside &= _edge_distances(pts, w) > w.tol
    return inside


def _ring_contains_many(pts: np.ndarray, poly: Polygon) -> np.ndarray:
    verts = np.asarray(poly.vertices, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(verts)
    j = n - 1
    for i in range(n):
        xi, yi = verts[i]
        xj, yj = verts[j]
        cond = (yi > y) != (yj > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = (xj - xi) * (y - yi) / (yj - yi) + xi
        inside ^= cond & (x < xcross)
        j = i
    return inside.astype(int)


def clearance(p: Point2, w: Workspace) -> float:
    """Distance from a free point to the free-space boundary."""
    if not point_in_free_space(p, w):
        raise NotInFreeSpace(f"point {tuple(p)} is not in free space")
    return float(boundary_distance_many(np.array([p], dtype=float), w)[0])


def disk_in_free_space(d: Disk, w: Workspace) -> bool:
    """True iff the disk lies in free space; boundary tangency is allowed."""
    if not point_in_free_space(d.center, w):
        return False
    c = boundary_distance_many(np.array([d.center], dtype=float), w)[0]
    return bool(c >= d.radius - w.tol)


def capsule_free(c: Capsule, w: Workspace, excluded: Sequence[Disk] = ()) -> bool:
    """True iff the swept disk of segment ab stays inside the free space and
    does not penetrate any of the `excluded` disks (tangency is allowed)."""
    tol = w.tol
    b = w.bounds
    r = c.radius
    for px, py in (c.a, c.b):
        if not (
            b.xmin + r - tol <= px <= b.xmax - r + tol
            and b.ymin + r - tol <= py <= b.ymax - r + tol
        ):
            return False
    if w.obstacles:
        # spine endpoints inside obstacle material (covers capsule-in-obstacle);
        # spine crossing an edge is caught by the distance test below
        for p in (c.a, c.b):
            if not point_in_free_space(p, w) and _edge_distances(
                np.array([p], dtype=float), w
            )[0] >= r - tol:
                return False
        for pa, pb in zip(w._edges_a, w._edges_b):
            if _segment_segment_distance(c.a, c.b, Point2(*pa), Point2(*pb)) < r - tol:
                return False
    for d in excluded:
        if _point_segment_distance(d.center, c.a, c.b) < r + d.radius - tol:
            return False
    return True


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


def regular_polygon(center: Point2, radius: float, n: int, ccw: bool = True) -> Polygon:
    angles = [2.0 * math.pi * k / n for k in range(n)]
    if not ccw:
        angles.reverse()
    return Polygon(
        tuple(
            Point2(center[0] + radius * math.cos(t), center[1] + radius * math.sin(t))
            for t in angles
        )
    )
