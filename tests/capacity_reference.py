"""Closed-form slot count of one ring against neighbor circles.

`residual_capacity` counts with the same steps `conversion` places slots
with (`free_intervals`, `widen_gaps`, `pack_arc`); the tests compare it with
a cyclic packing oracle. `exclusion_half_angle` is the half-angle of the
wedge one neighbor blots out of a ring.
"""

from __future__ import annotations

import math

from swapmotion.capacity import free_intervals, loop_capacity, pack_arc, slot_pitch, widen_gaps
from swapmotion.geometry import Disk

_EPS = 1e-12


def exclusion_half_angle(i: int, D: float, r: float, reach: float) -> float:
    """Half-angle of ring i blotted out by a neighbor of influence `reach`.

    Computed by the triangle relation between the two centers and a ring
    point at distance `reach` from the neighbor center; the argument is
    clamped so boundary geometry stays finite.
    """
    if D <= 0:
        return math.pi
    denom = 2.0 * (2.0 * i * r) * D
    arg = (D * D + (2.0 * i * r) ** 2 - reach * reach) / denom
    return math.acos(min(1.0, max(-1.0, arg)))


def residual_capacity(circle: Disk, i: int, neighbors: list[Disk], r: float) -> int:
    """Slots left on ring i of `circle` against all neighbor circles.

    Tangent positions against each neighbor bound the free gaps; each gap of
    angle theta packs ``floor(theta / pitch) + 1`` slots. With no neighbors
    this equals ``loop_capacity``.
    """
    if i < 1:
        return 0
    if not neighbors:
        return loop_capacity(i)
    intervals = free_intervals(circle.center, 2.0 * r * i, neighbors, r)
    if not intervals:
        return 0
    if len(intervals) == 1 and intervals[0][1] - intervals[0][0] >= 2.0 * math.pi - _EPS:
        return loop_capacity(i)
    pitch = slot_pitch(i)
    intervals = widen_gaps(intervals, pitch)
    return sum(pack_arc(hi - lo, pitch) for lo, hi in intervals)
