import math
from collections import deque

import pytest

from swapmotion.errors import EmptyFreeSpace
from swapmotion.geometry import (
    CapsuleCache,
    Point2,
    Polygon,
    Rect,
    Workspace,
    dist,
    disk_in_free_space,
    Disk,
    rectangle_workspace,
)
from swapmotion.medial_axis import extract_medial_axis, sample_circles, skeleton_path


def is_connected(s):
    if not s.nodes:
        return True
    seen = {0}
    dq = deque([0])
    while dq:
        u = dq.popleft()
        for v, _ in s.neighbors(u):
            if v not in seen:
                seen.add(v)
                dq.append(v)
    return len(seen) == len(s.nodes)


class TestExtractMedialAxis:
    def test_empty_square_diagonals_and_center(self):
        w = rectangle_workspace(20.0, 20.0)
        s = extract_medial_axis(w, 0.5)
        assert s.nodes
        best = max(s.nodes, key=lambda n: n.clearance)
        assert dist(best.position, Point2(10, 10)) <= 0.5
        assert best.clearance == pytest.approx(10.0, abs=0.5)
        for corner_diag in [(5, 5), (15, 15), (5, 15), (15, 5)]:
            assert any(dist(n.position, Point2(*corner_diag)) <= 0.9 for n in s.nodes)
        assert is_connected(s)

    def test_every_node_disk_is_inscribed(self):
        tri = Polygon((Point2(8, 8), Point2(13, 9), Point2(10, 13)))
        w = rectangle_workspace(20.0, 20.0, [tri])
        s = extract_medial_axis(w, 0.4)
        for n in s.nodes:
            assert disk_in_free_space(Disk(n.position, max(n.clearance - 1e-9, 1e-9)), w)

    def test_disk_shaped_free_space_collapses_to_center(self):
        pts = []
        n = 48
        for k in range(n):
            t = 2 * math.pi * k / n
            pts.append(Point2(10 + 8 * math.cos(t), 10 + 8 * math.sin(t)))
        outer = Polygon((Point2(0.5, 0.5), Point2(19.5, 0.5), Point2(19.5, 19.5),
                         Point2(0.5, 19.5)))
        hole = Polygon(tuple(reversed(pts)))
        w = rectangle_workspace(20.0, 20.0, [outer, hole])
        s = extract_medial_axis(w, 0.4)
        apothem = 8 * math.cos(math.pi / 48)
        # near-maximal-clearance nodes concentrate at the disk center
        top = [n_ for n_ in s.nodes if n_.clearance >= apothem - 1.0]
        assert top
        for n_ in top:
            assert dist(n_.position, Point2(10, 10)) <= 1.3
        assert all(n_.clearance <= apothem + 0.4 for n_ in s.nodes)

    def test_sliver_raises_or_is_empty(self):
        w = Workspace(Rect(0, 0, 10, 0.4), ())
        try:
            s = extract_medial_axis(w, 0.5)
            assert not s.nodes
        except EmptyFreeSpace:
            pass

    def test_refinement_converges(self):
        w = rectangle_workspace(16.0, 12.0)
        coarse = extract_medial_axis(w, 0.8)
        fine = extract_medial_axis(w, 0.4)
        best_c = max(n.clearance for n in coarse.nodes)
        best_f = max(n.clearance for n in fine.nodes)
        assert abs(best_f - best_c) <= 0.8


class TestSampleCircles:
    def test_single_central_circle_in_square(self):
        w = rectangle_workspace(20.0, 20.0)
        s = extract_medial_axis(w, 0.5)
        picks = sample_circles(s, 0.5, 1, 1.0)
        assert len(picks) == 1
        assert dist(picks[0].center, Point2(10, 10)) <= 0.6
        assert picks[0].radius == pytest.approx(10.0, abs=0.6)

    def test_low_clearance_skeleton_gives_nothing(self):
        w = rectangle_workspace(30.0, 5.0)
        s = extract_medial_axis(w, 0.5)
        assert sample_circles(s, 1.0, 8, 1.0) == []

    def test_corridor_spacing_and_ordering(self):
        w = rectangle_workspace(40.0, 8.0)
        s = extract_medial_axis(w, 0.5)
        picks = sample_circles(s, 4.0, 3, 1.0)
        assert len(picks) == 3
        for c in picks:
            assert c.radius == pytest.approx(4.0, abs=0.5)
        radii = [c.radius for c in picks]
        assert radii == sorted(radii, reverse=True)
        for a, b in [(0, 1), (0, 2), (1, 2)]:
            assert dist(picks[a].center, picks[b].center) >= 4.0 - 1e-9

    def test_deterministic(self):
        w = rectangle_workspace(25.0, 14.0)
        s = extract_medial_axis(w, 0.5)
        a = sample_circles(s, 1.5, 6, 1.0)
        b = sample_circles(s, 1.5, 6, 1.0)
        assert a == b


class TestSkeletonPath:
    def test_overlapping_circles_trivial_path(self):
        w = rectangle_workspace(40.0, 8.0)
        s = extract_medial_axis(w, 0.5)
        picks = sample_circles(s, 1.0, 2, 1.0)
        tau = skeleton_path(s, picks, 0, 1, 1.0, CapsuleCache(w))
        assert tau is not None

    def test_far_circles_joined_by_corridor(self):
        w = rectangle_workspace(60.0, 8.0)
        s = extract_medial_axis(w, 0.5)
        picks = sample_circles(s, 20.0, 3, 1.0)
        two = picks[:2]
        tau = skeleton_path(s, two, 0, 1, 1.0, CapsuleCache(w))
        assert tau is not None
        assert sum(dist(p, q) for p, q in zip(tau, tau[1:])) > 10.0

    def test_narrow_gap_blocks_path(self):
        lower = Polygon((Point2(14, 0.0), Point2(15.8, 0.0), Point2(15.8, 4.2),
                         Point2(14, 4.2)))
        upper = Polygon((Point2(14, 5.8), Point2(15.8, 5.8), Point2(15.8, 10.0),
                         Point2(14, 10.0)))
        w = Workspace(Rect(0, 0, 30, 10), (lower, upper))
        s = extract_medial_axis(w, 0.25)
        picks = sample_circles(s, 6.0, 8, 1.0)
        left = [c for c in picks if c.center.x < 14]
        right = [c for c in picks if c.center.x > 16]
        assert left and right
        assert skeleton_path(s, [left[0], right[0]], 0, 1, 1.0, CapsuleCache(w)) is None

    def test_other_circle_blocks_path(self):
        w = rectangle_workspace(60.0, 8.0)
        s = extract_medial_axis(w, 0.5)
        picks = sample_circles(s, 20.0, 3, 1.0)
        # middle circle occupies the only corridor between the outer two
        ends = sorted(picks, key=lambda c: c.center.x)
        tau = skeleton_path(s, ends, 0, 2, 1.0, CapsuleCache(w))
        assert tau is None
