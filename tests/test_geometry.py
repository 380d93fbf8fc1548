import math
import random

import numpy as np
import pytest

from swapmotion.geometry import (
    Disk,
    Point2,
    Polygon,
    Rect,
    Workspace,
    boundary_distance_many,
    capsule_free,
    disk_in_free_space,
    dist,
    dists,
    points_in_free_space,
    rectangle_workspace,
)


def unit_square():
    return rectangle_workspace(1.0, 1.0)


def square10():
    return rectangle_workspace(10.0, 10.0)


def rows(*pts):
    """The points `pts` as an (n, 2) array."""
    return np.array(pts, dtype=float).reshape(-1, 2)


def triangle_scene():
    tri = Polygon((Point2(4.0, 4.0), Point2(7.0, 4.0), Point2(5.5, 7.0)))
    return rectangle_workspace(10.0, 10.0, [tri]), tri


class TestPointInFreeSpace:
    def test_center_of_empty_square(self):
        assert points_in_free_space(rows((5.0, 5.0)), square10()).all()

    def test_point_inside_obstacle(self):
        w, _ = triangle_scene()
        assert not points_in_free_space(rows((5.5, 4.5)), w).any()

    def test_point_on_bounds_edge_is_not_free(self):
        assert not points_in_free_space(rows((0.0, 5.0), (10.0, 10.0)), square10()).any()

    def test_hole_inside_obstacle_is_free(self):
        outer = Polygon((Point2(2, 2), Point2(8, 2), Point2(8, 8), Point2(2, 8)))
        hole = Polygon((Point2(4, 4), Point2(4, 6), Point2(6, 6), Point2(6, 4)))  # CW
        w = rectangle_workspace(10, 10, [outer, hole])
        assert points_in_free_space(rows((3.0, 3.0), (5.0, 5.0)), w).tolist() == [False, True]

    def test_point_on_hole_edge_is_not_free(self):
        hole = Polygon((Point2(2, 2), Point2(2, 6), Point2(6, 6), Point2(6, 2)))  # CW
        w = rectangle_workspace(10, 10, [hole])
        edge_pts = rows((2.0, 4.0), (4.0, 2.0), (6.0, 4.0), (4.0, 6.0))
        assert not points_in_free_space(edge_pts, w).any()
        assert points_in_free_space(rows((4.0, 4.0)), w).all()

    def test_agrees_with_raycast_oracle(self):
        w, tri = triangle_scene()
        rng = random.Random(0)

        def oracle(p):
            # independent ray cast along +x against the triangle only
            hits = 0
            verts = tri.vertices
            for k in range(3):
                a, b = verts[k], verts[(k + 1) % 3]
                if (a.y > p.y) != (b.y > p.y):
                    x = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
                    if x > p.x:
                        hits += 1
            inside_tri = hits % 2 == 1
            in_bounds = 0 < p.x < 10 and 0 < p.y < 10
            return in_bounds and not inside_tri

        pts = rows(*[(rng.uniform(-1, 11), rng.uniform(-1, 11)) for _ in range(400)])
        # skip razor-thin boundary cases
        pts = pts[np.abs(boundary_distance_many(pts, w)) >= 1e-6]
        for p, free in zip(pts, points_in_free_space(pts, w)):
            assert free == oracle(Point2(*p)), p


class TestClearance:
    """`boundary_distance_many`: a free point's distance to the boundary."""

    def test_center_of_unit_square(self):
        assert boundary_distance_many(rows((0.5, 0.5)), unit_square())[0] == pytest.approx(0.5)

    def test_near_wall(self):
        assert boundary_distance_many(rows((1.0, 1.0)), square10())[0] == pytest.approx(1.0)

    def test_matches_dense_sampling_oracle(self):
        w, tri = triangle_scene()
        p = Point2(3.0, 6.0)
        # brute force: min distance over bounds walls and obstacle edge samples
        best = min(p.x, 10 - p.x, p.y, 10 - p.y)
        verts = tri.vertices
        for k in range(3):
            a, b = verts[k], verts[(k + 1) % 3]
            for t in np.linspace(0.0, 1.0, 20001):
                q = (a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                best = min(best, math.hypot(p.x - q[0], p.y - q[1]))
        assert boundary_distance_many(rows(p), w)[0] == pytest.approx(best, abs=1e-9)

    def test_lipschitz(self):
        w, _ = triangle_scene()
        rng = random.Random(1)
        pts = []
        while len(pts) < 60:
            p = Point2(rng.uniform(0.2, 9.8), rng.uniform(0.2, 9.8))
            if points_in_free_space(rows(p), w)[0]:
                pts.append(p)
        c = boundary_distance_many(rows(*pts), w)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert abs(c[i] - c[j]) <= dist(pts[i], pts[j]) + 1e-12


class TestDiskInFreeSpace:
    def test_small_disk_fits(self):
        assert disk_in_free_space(Disk(Point2(0.5, 0.5), 0.4), unit_square())

    def test_big_disk_does_not(self):
        assert not disk_in_free_space(Disk(Point2(0.5, 0.5), 0.6), unit_square())

    def test_tangency_is_legal(self):
        # disk touching the left wall exactly
        w = square10()
        assert disk_in_free_space(Disk(Point2(2.0, 5.0), 2.0), w)

    def test_inscribed_from_clearance(self):
        w, _ = triangle_scene()
        rng = random.Random(2)
        for _ in range(50):
            p = Point2(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5))
            if not points_in_free_space(rows(p), w)[0]:
                continue
            c = boundary_distance_many(rows(p), w)[0]
            assert disk_in_free_space(Disk(p, max(c - 1e-9, 1e-12)), w)


class TestCapsuleFree:
    def test_inside_large_square(self):
        assert capsule_free(Point2(3, 5), Point2(7, 5), 1.0, square10())

    def test_crossing_obstacle(self):
        w, _ = triangle_scene()
        assert not capsule_free(Point2(2, 5), Point2(8, 5), 0.5, w)

    def test_grazing_excluded_disk_is_legal(self):
        w = square10()
        a, b = Point2(2, 5), Point2(8, 5)
        graze = [Point2(5.0, 7.0)]  # distance to spine exactly 2.0
        assert capsule_free(a, b, 1.0, w, graze)
        overlap = [Point2(5.0, 6.9)]
        assert not capsule_free(a, b, 1.0, w, overlap)

    def test_zero_length_reduces_to_disk(self):
        w, _ = triangle_scene()
        rng = random.Random(3)
        for _ in range(100):
            p = Point2(rng.uniform(0.5, 9.5), rng.uniform(0.5, 9.5))
            r = rng.uniform(0.1, 1.5)
            assert capsule_free(p, p, r, w) == disk_in_free_space(Disk(p, r), w)

    def test_capsule_wholly_inside_obstacle(self):
        big = Polygon((Point2(1, 1), Point2(9, 1), Point2(9, 9), Point2(1, 9)))
        w = rectangle_workspace(10, 10, [big])
        assert not capsule_free(Point2(4, 5), Point2(6, 5), 0.5, w)


def test_dists_is_dist_bit_for_bit():
    """`dists` ranks navigation candidates, so it must give `dist`'s value
    exactly, also where np.hypot differs from math.hypot in the last bit."""
    rng = np.random.default_rng(4)
    p = rng.normal(size=(20000, 2)) * rng.choice([1e-7, 1.0, 1e5], size=(20000, 1))
    q = rng.normal(size=2)
    want = [dist(a, q) for a in p.tolist()]
    assert dists(p, q).tolist() == want
    assert np.hypot(*(p - q).T).tolist() != want  # the case that matters occurs
    assert dists(p[:3, None], p[None, :4]).tolist() == [
        [dist(a, b) for b in p[:4].tolist()] for a in p[:3].tolist()
    ]
    assert dists(np.empty((0, 2)), q).shape == (0,)
