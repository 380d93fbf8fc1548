"""The batched capsule kernel, and the batched disk check, against the scalar
reference in capsule_reference.py and the point predicates."""

import math
import random

import numpy as np

from capsule_reference import capsule_free_reference
from swapmotion import geometry
from swapmotion.geometry import (
    CapsuleCache,
    Point2,
    Polygon,
    boundary_distance_many,
    capsule_free,
    capsules_free,
    disks_free,
    points_in_free_space,
    rectangle_workspace,
)


def random_ring(rng, ccw: bool) -> Polygon:
    cx, cy = rng.uniform(2, 8), rng.uniform(2, 8)
    n = rng.randint(3, 7)
    pts = []
    for k in range(n):
        t = 2 * math.pi * k / n + rng.uniform(-0.2, 0.2)
        rr = rng.uniform(0.5, 1.8)
        pts.append(Point2(cx + rr * math.cos(t), cy + rr * math.sin(t)))
    poly = Polygon(tuple(pts))
    if poly.is_ccw() != ccw:
        poly = Polygon(tuple(reversed(poly.vertices)))
    return poly


def random_workspace(rng):
    """Up to four rings, each solid (CCW) or a hole (CW) with even odds."""
    rings = [random_ring(rng, rng.random() < 0.5) for _ in range(rng.randint(0, 4))]
    return rectangle_workspace(10, 10, rings)


def random_batch(rng, k: int):
    a = np.array([[rng.uniform(-0.5, 10.5), rng.uniform(-0.5, 10.5)] for _ in range(k)])
    b = a + np.array([[rng.uniform(-4, 4), rng.uniform(-4, 4)] for _ in range(k)])
    b[: k // 5] = a[: k // 5]  # degenerate capsules: a == b
    return a, b


def reference(a, b, r, w, others):
    return [capsule_free_reference(Point2(*p), Point2(*q), r, w, others) for p, q in zip(a, b)]


def check(a, b, r, w, others=()):
    got = capsules_free(a, b, r, w, np.array(others, dtype=float).reshape(-1, 2))
    assert got.dtype == bool and got.shape == (len(a),)
    assert got.tolist() == reference(a, b, r, w, others)
    return got


def test_matches_reference_on_random_scenes_with_solids_and_holes():
    rng = random.Random(11)
    free = total = holes = 0
    for _ in range(150):
        w = random_workspace(rng)
        holes += sum(not p.is_ccw() for p in w.obstacles)
        others = [
            Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(rng.randint(0, 4))
        ]
        a, b = random_batch(rng, 40)
        got = check(a, b, rng.uniform(0.05, 1.2), w, others)
        free += int(got.sum())
        total += len(got)
    # both answers occur often, and holes are covered
    assert 0.1 * total < free < 0.9 * total
    assert holes > 50


def test_tangent_and_overlapping_excluded_disks():
    w = rectangle_workspace(10, 10)
    a, b = np.array([[2.0, 5.0]] * 4), np.array([[8.0, 5.0]] * 4)
    for others, expect in (
        ([Point2(5.0, 7.0)], True),  # tangent to the side
        ([Point2(10.0, 5.0)], True),  # tangent to the end cap
        ([Point2(5.0, 6.9)], False),
        ([Point2(5.0, 7.0), Point2(8.5, 5.5)], False),
    ):
        assert check(a, b, 1.0, w, others).tolist() == [expect] * 4
    # tangent to a diagonal spine, where the computed distance rounds below 2
    s = math.sqrt(2)
    a, b = np.array([[2.0, 2.0]]), np.array([[8.0, 8.0]])
    assert check(a, b, 1.0, w, [Point2(5 - s, 5 + s)]).tolist() == [True]
    assert check(a, b, 1.01, w, [Point2(5 - s, 5 + s)]).tolist() == [False]


def test_workspace_without_obstacles():
    rng = random.Random(12)
    w = rectangle_workspace(10, 10)
    a, b = random_batch(rng, 200)
    got = check(a, b, 0.7, w)
    assert got.any() and not got.all()


def test_empty_batch():
    rng = random.Random(13)
    w = random_workspace(rng)
    assert check(np.empty((0, 2)), np.empty((0, 2)), 0.5, w, [Point2(5, 5)]).shape == (0,)
    assert capsules_free(Point2(1, 1), [], 0.5, w).shape == (0,)


def test_single_point_broadcasts_and_matches_the_one_capsule_call():
    rng = random.Random(14)
    for _ in range(20):
        w = random_workspace(rng)
        p = Point2(rng.uniform(1, 9), rng.uniform(1, 9))
        _, b = random_batch(rng, 30)
        others = np.array([[rng.uniform(0, 10), rng.uniform(0, 10)]])
        got = capsules_free(p, b, 0.4, w, others)
        back = capsules_free(b, p, 0.4, w, others)
        one = [capsule_free(p, Point2(*q), 0.4, w, others) for q in b]
        assert got.tolist() == back.tolist() == one


def test_large_batches_are_split_without_changing_answers():
    rng = random.Random(15)
    w = rectangle_workspace(10, 10, [random_ring(rng, True) for _ in range(4)])
    a, b = random_batch(rng, 3000)
    got = capsules_free(a, b, 0.5, w)
    parts = [capsules_free(a[k : k + 7], b[k : k + 7], 0.5, w) for k in range(0, 3000, 7)]
    assert got.tolist() == np.concatenate(parts).tolist()


def test_capsule_cache_is_scoped_to_its_workspace():
    wall = Polygon((Point2(4, 0.5), Point2(6, 0.5), Point2(6, 9.5), Point2(4, 9.5)))
    open_w, walled = rectangle_workspace(10, 10), rectangle_workspace(10, 10, [wall])
    spine = np.array([[(2.0, 5.0), (8.0, 5.0)]])
    assert CapsuleCache(open_w).all_free(spine, 0.5)
    assert not CapsuleCache(walled).all_free(spine, 0.5)
    cache = CapsuleCache(walled)
    assert cache.all_free(np.empty((0, 2, 2)), 0.5)
    assert not cache.all_free(np.concatenate([spine] * 3), 0.5) and len(cache.known) == 1


def box(x0, y0, x1, y1, ccw=True) -> Polygon:
    ring = (Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1))
    return Polygon(ring if ccw else ring[::-1])


def test_boxes_exactly_r_apart():
    """A pair whose bounding boxes are exactly r apart on one axis is not
    measured; its distance is at least r, which is tangency and free."""
    w = rectangle_workspace(10, 10, [box(5.0, 2.0, 6.0, 8.0)])
    r = 0.5
    a = np.array([[2.0, 5.0], [2.0, 1.0], [2.0, 5.0], [2.0, 5.0]])
    b = np.array([[4.5, 5.0], [4.5, 1.5], [4.5 + 2 * w.tol, 5.0], [4.5, 6.0]])
    assert check(a, b, r, w).tolist() == [True, True, False, True]


def test_long_spines_across_a_field_of_small_boxes(monkeypatch):
    """grid_20-like: long spines over a lattice of small boxes far apart, so
    almost every spine-edge pair is dropped by its bounding box."""
    boxes = [box(4 + 8 * i, 4 + 8 * j, 5 + 8 * i, 5 + 8 * j) for i in range(5) for j in range(5)]
    w = rectangle_workspace(40, 40, boxes)
    rng = random.Random(16)
    a = np.array([[rng.uniform(1, 39), rng.uniform(1, 39)] for _ in range(150)])
    b = a + np.array([[rng.uniform(-8, 8), rng.uniform(-1, 1)] for _ in range(150)])
    b[:50, 0] = a[:50, 0]  # vertical spines too
    b[:50, 1] = a[:50, 1] + np.array([rng.uniform(-12, 12) for _ in range(50)])
    measured = []
    seg = geometry.segment_distances

    def counted(p, q, c, d):
        measured.append(len(p))
        return seg(p, q, c, d)

    monkeypatch.setattr(geometry, "segment_distances", counted)
    got = check(a, b, 0.5, w)
    assert got.any() and not got.all()
    assert sum(measured) < 0.1 * len(a) * len(w._edges_a)


def test_spine_buried_in_a_large_solid():
    """No edge within r of the spine, yet it lies in material."""
    w = rectangle_workspace(10, 10, [box(1, 1, 9, 9)])
    a, b = np.array([[4.0, 5.0], [5.0, 5.0]]), np.array([[6.0, 5.0], [5.0, 5.0]])
    assert check(a, b, 0.5, w).tolist() == [False, False]


def test_spine_inside_a_cw_hole():
    """A hole carved from a solid is free space; the solid around it is not."""
    w = rectangle_workspace(10, 10, [box(1, 1, 9, 9), box(3, 3, 7, 7, ccw=False)])
    a = np.array([[4.0, 5.0], [3.2, 5.0], [2.0, 2.0], [4.0, 4.0]])
    b = np.array([[6.0, 5.0], [6.0, 5.0], [2.0, 8.0], [4.0, 4.0]])
    assert check(a, b, 0.5, w).tolist() == [True, False, False, True]


def test_spine_crossing_an_edge_far_from_both_ends():
    """Both ends lie in free space far from the thin wall the spine crosses."""
    w = rectangle_workspace(20, 10, [box(9.9, 1, 10.1, 9), box(15, 4, 16, 6, ccw=False)])
    a, b = np.array([[2.0, 5.0], [2.0, 5.0]]), np.array([[18.0, 5.0], [8.0, 5.0]])
    assert check(a, b, 0.5, w).tolist() == [False, True]


def test_radius_at_most_two_tolerances():
    """With r <= 2 tol an edge beyond the spine's reach can still make an end
    not free, and the bounds test admits ends on or just past the bounds."""
    w = rectangle_workspace(10, 10, [box(4, 4, 6, 6)])
    tol = w.tol
    rng = random.Random(17)
    for r in (0.25 * tol, 0.5 * tol, tol, 1.5 * tol, 2 * tol, 2.5 * tol):
        ends = []
        for _ in range(200):
            # on, just inside or just outside an edge of the box or the bounds
            x = rng.choice([0.0, 4.0, 6.0, 10.0, rng.uniform(0, 10)])
            y = rng.choice([0.0, 4.0, 6.0, 10.0, rng.uniform(0, 10)])
            ends.append([x + rng.choice([-3, -1, 0, 1, 3]) * tol / 2,
                         y + rng.choice([-3, -1, 0, 1, 3]) * tol / 2])
        a = np.array(ends)
        b = a + np.array([[rng.choice([0.0, rng.uniform(-1, 1)]), 0.0] for _ in range(200)])
        check(a, b, r, w)
        check(b, a, r, w)
        check(a, a, r, w)


def test_batches_larger_than_step_match_the_reference():
    rng = random.Random(18)
    w = rectangle_workspace(10, 10, [random_ring(rng, rng.random() < 0.5) for _ in range(4)])
    others = [Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(3)]
    step = (1 << 14) // len(w._edges_a)
    a, b = random_batch(rng, step + 150)
    got = check(a, b, 0.4, w, others)
    assert got.any() and not got.all()


def test_disks_free_equals_the_point_predicates():
    """On grids larger than one chunk, with reaches about 0, tol and r."""
    rng = random.Random(19)
    for _ in range(4):
        w = random_workspace(rng)
        chunk = (1 << 16) // max(1, len(w._edges_a))
        n = int(math.sqrt(chunk)) + 8
        xs = np.linspace(-0.3, 10.3, n)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        assert len(pts) > chunk
        for reach in (-0.1, 0.0, w.tol, 0.5, 1.0 - 1e-9):
            want = points_in_free_space(pts, w) & (boundary_distance_many(pts, w) >= reach)
            assert disks_free(pts, w, reach).tolist() == want.tolist()
    assert disks_free(np.empty((0, 2)), w, 0.5).shape == (0,)
