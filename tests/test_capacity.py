import math
import random

import pytest

from capacity_reference import exclusion_half_angle, residual_capacity
from swapmotion.capacity import (
    PairClass,
    classify_pair,
    free_intervals,
    loop_capacity,
    neighbor_reach,
    ring_packing_max,
    safe_layer_count,
    slot_pitch,
)
from swapmotion.errors import CenterContained
from swapmotion.geometry import Disk, Point2


def greedy_packing_oracle(intervals, pitch):
    """Most points with angular spacing >= pitch inside the free intervals."""
    total = 0
    for lo, hi in intervals:
        if hi - lo < -1e-12:
            continue
        total += int(math.floor((hi - lo) / pitch + 1e-9)) + 1
    return total


def cyclic_packing_oracle(intervals, pitch):
    """Greedy circular packing honoring the wrap-around spacing as well."""
    best = 0
    for start_iv in range(len(intervals)):
        first = intervals[start_iv][0]
        placed = [first]
        cur = first
        for k in range(start_iv, start_iv + len(intervals)):
            lo, hi = intervals[k % len(intervals)]
            off = 2 * math.pi if k >= len(intervals) else 0.0
            lo, hi = lo + off, hi + off
            cur = max(cur + pitch, lo) if placed else lo
            if k % len(intervals) == start_iv and off == 0.0:
                cur = first + pitch
            while cur <= hi + 1e-12:
                if cur - first >= 2 * math.pi - pitch + 1e-12:
                    break
                placed.append(cur)
                cur += pitch
        best = max(best, len(placed))
    return best


class TestLoopCapacity:
    def test_anchors(self):
        assert loop_capacity(0) == 0
        assert loop_capacity(1) == 6

    def test_monotone(self):
        caps = [loop_capacity(i) for i in range(1, 12)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))

    def test_value_table(self):
        # frozen regression values: port-gap formula capped at angular packing
        assert [loop_capacity(i) for i in range(8)] == [0, 6, 12, 18, 25, 31, 37, 43]

    @pytest.mark.parametrize("i", range(2, 11))
    def test_never_exceeds_angular_packing(self, i):
        assert loop_capacity(i) <= ring_packing_max(i)

    @pytest.mark.parametrize("i", range(2, 11))
    def test_fits_with_port_gap(self, i):
        # one port slot with gaps asin(1/i) on both sides, rest at pitch
        n = loop_capacity(i)
        g = math.asin(1.0 / i)
        pitch = slot_pitch(i)
        assert (n - 1 - 1) * pitch + 2 * g <= 2 * math.pi + 1e-9


class TestClassifyPair:
    def disk(self, R):
        return Disk(Point2(0, 0), R)

    def test_case_boundaries_i2_j2(self):
        a = self.disk(5.0)
        assert classify_pair(a, 2, a, 2, 10.0, 1.0) is PairClass.CASE_I
        assert classify_pair(a, 2, a, 2, 8.5, 1.0) is PairClass.CASE_II
        assert classify_pair(a, 2, a, 2, 7.0, 1.0) is PairClass.CASE_III
        a4 = self.disk(4.0)
        assert classify_pair(a4, 2, a4, 2, 5.0, 1.0) is PairClass.CASE_IV

    def test_center_contained_raises(self):
        a = self.disk(5.0)
        with pytest.raises(CenterContained):
            classify_pair(a, 2, a, 2, 4.0, 1.0)

    def test_partition_over_distance_sweep(self):
        # the four classes tile [max radii, inf) without gaps
        for i, j, R in [(1, 1, 2.5), (2, 2, 4.5), (3, 2, 6.5), (4, 4, 8.5)]:
            a = self.disk(R)
            prev = None
            for D in [R + 0.001 * k for k in range(0, 20000, 7)]:
                cls = classify_pair(a, i, a, j, D, 1.0)
                order = [
                    PairClass.CASE_IV,
                    PairClass.CASE_III,
                    PairClass.CASE_II,
                    PairClass.CASE_I,
                ]
                if prev is not None:
                    assert order.index(cls) >= order.index(prev)
                prev = cls
            assert prev is PairClass.CASE_I


class TestResidualCapacity:
    def test_no_neighbors_equals_loop_capacity(self):
        a = Disk(Point2(0, 0), 7.0)
        assert residual_capacity(a, 3, [], 1.0) == loop_capacity(3)

    def test_single_far_neighbor_equals_loop_capacity(self):
        a = Disk(Point2(0, 0), 7.0)
        nb = Disk(Point2(100.0, 0.0), 7.0)
        assert residual_capacity(a, 3, [nb], 1.0) == loop_capacity(3)

    def test_single_neighbor_within_one_of_cyclic_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            i = rng.randint(2, 5)
            Ra = 2 * i + 1.5
            Rb = rng.uniform(3.0, 9.0)
            D = rng.uniform(max(Ra, Rb) + 0.1, Ra + Rb + 6)
            a = Disk(Point2(0, 0), Ra)
            nb = Disk(Point2(D, 0.0), Rb)
            res = residual_capacity(a, i, [nb], 1.0)
            phi = exclusion_half_angle(i, D, 1.0, neighbor_reach(Rb, 1.0))
            if phi <= 0:
                oracle = loop_capacity(i)
            elif phi >= math.pi:
                oracle = 0
            else:
                oracle = cyclic_packing_oracle([(phi, 2 * math.pi - phi)], slot_pitch(i))
                oracle = min(oracle, loop_capacity(i))
            # conservative floors: the oracle never fits fewer slots
            assert oracle >= res, (i, Ra, Rb, D)
            assert oracle - res <= 1, (i, Ra, Rb, D)

    def test_two_symmetric_neighbors(self):
        a = Disk(Point2(0, 0), 7.0)
        nb1 = Disk(Point2(11.0, 0.0), 5.0)
        nb2 = Disk(Point2(-11.0, 0.0), 5.0)
        res = residual_capacity(a, 3, [nb1, nb2], 1.0)
        ivs = free_intervals(Point2(0, 0), 6.0, [nb1, nb2], 1.0)
        assert len(ivs) == 2
        widths = sorted(round(hi - lo, 9) for lo, hi in ivs)
        assert widths[0] == pytest.approx(widths[1])
        oracle = greedy_packing_oracle(ivs, slot_pitch(3))
        assert res == oracle
        assert res < loop_capacity(3)
