"""Scalar reference for `geometry.capsules_free`: one capsule, one edge and
one excluded disk at a time, in plain Python."""

from __future__ import annotations

import math

import numpy as np

from swapmotion.geometry import Capsule, Point2, _edge_distances, point_in_free_space


def _point_segment_distance(p, a, b) -> float:
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


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(a, b, c, d) -> bool:
    d1 = _orient(c, d, a)
    d2 = _orient(c, d, b)
    d3 = _orient(a, b, c)
    d4 = _orient(a, b, d)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _segment_segment_distance(a, b, c, d) -> float:
    if _segments_intersect(a, b, c, d):
        return 0.0
    return min(
        _point_segment_distance(a, c, d),
        _point_segment_distance(b, c, d),
        _point_segment_distance(c, a, b),
        _point_segment_distance(d, a, b),
    )


def capsule_free_reference(c: Capsule, w, excluded=()) -> bool:
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
