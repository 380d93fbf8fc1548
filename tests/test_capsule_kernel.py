"""The batched capsule kernel against the scalar reference in capsule_reference.py."""

import math
import random

import numpy as np

from capsule_reference import capsule_free_reference
from swapmotion.geometry import (
    CapsuleCache,
    Point2,
    Polygon,
    capsule_free,
    capsules_free,
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
    spine = [(Point2(2.0, 5.0), Point2(8.0, 5.0))]
    assert CapsuleCache(open_w).all_free(spine, 0.5)
    assert not CapsuleCache(walled).all_free(spine, 0.5)
    cache = CapsuleCache(walled)
    assert cache.all_free([], 0.5)
    assert not cache.all_free(spine * 3, 0.5) and len(cache.known) == 1
