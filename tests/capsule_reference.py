"""Scalar reference for `geometry.capsules_free`: one capsule, one edge and
one other agent at a time, in plain Python, with the one scalar point-segment
distance of the tests."""

from __future__ import annotations

import math

import numpy as np

from swapmotion.geometry import Point2, _edge_distances, points_in_free_space


def point_segment_distance(p, a, b) -> float:
    """Distance from point p to segment ab."""
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
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def capsule_free_reference(a, b, r, w, others=()) -> bool:
    """True iff the disk of radius r swept along segment ab stays inside the
    free space and does not penetrate the disk of radius r about any of the
    `others` centres (tangency is allowed)."""
    tol = w.tol
    bd = w.bounds
    for px, py in (a, b):
        if not (
            bd.xmin + r - tol <= px <= bd.xmax - r + tol
            and bd.ymin + r - tol <= py <= bd.ymax - r + tol
        ):
            return False
    if w.obstacles:
        # spine endpoints inside obstacle material (covers capsule-in-obstacle);
        # spine crossing an edge is caught by the distance test below
        for p in (a, b):
            row = np.array([p], dtype=float)
            if not points_in_free_space(row, w)[0] and _edge_distances(row, w)[0] >= r - tol:
                return False
        for pa, pb in zip(w._edges_a, w._edges_b):
            if _segment_segment_distance(a, b, Point2(*pa), Point2(*pb)) < r - tol:
                return False
    for o in others:
        if point_segment_distance(o, a, b) < 2 * r - tol:
            return False
    return True
