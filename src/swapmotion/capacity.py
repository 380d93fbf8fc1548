"""Slot-capacity formulas for concentric agent rings inside inscribed circles.

Ring ``i`` of a circle is the centerline of radius ``2*r*i`` around the circle
center (ring 0 is the degenerate center point). Capacities count agent slots
that keep every pair of agent centers at least ``2r`` apart, with the radial
corridor between consecutive rings kept passable for vacancy swaps.

``loop_capacity`` counts the slots of an unobstructed ring, capped at the
angular-packing maximum. Against neighbor circles, ``free_intervals`` gives
the arcs of a ring that no neighbor ring reaches, ``widen_gaps`` keeps the
slots flanking each excluded gap 2r apart and ``pack_arc`` counts what an arc
holds; ``conversion`` places its slots with exactly these. ``classify_pair``
tells which rings of two circles cross (shared slots) or leave a gap corridor.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import CenterContained
from .geometry import Disk

_EPS = 1e-12


class PairClass(Enum):
    CASE_I = "I"  # rings too separated to interact beyond slot loss
    CASE_II = "II"  # disjoint rings with a traversable gap between them
    CASE_III = "III"  # rings cross shallowly: two shared slots, shared edge
    CASE_IV = "IV"  # rings cross deeply: two shared slots, no shared edge


def safe_layer_count(circle_radius: float, r: float) -> int:
    """Largest ring index whose agents stay inside the circle (2ri + r <= R)."""
    if circle_radius <= 0 or r <= 0:
        raise ValueError("radii must be positive")
    return max(0, int(math.floor((circle_radius - r) / (2.0 * r) + _EPS)))


def slot_pitch(i: int) -> float:
    """Minimum angular spacing between slots on ring i (chord of 2r)."""
    if i < 1:
        raise ValueError("pitch defined for ring index >= 1")
    return 2.0 * math.asin(1.0 / (2.0 * i))


def ring_packing_max(i: int) -> int:
    """Most slots a full ring can hold with pairwise chords >= 2r."""
    return int(math.floor(2.0 * math.pi / slot_pitch(i) + _EPS))


def port_gap(i: int) -> float:
    """Angular clearance each side of a ring's corridor port slot.

    An agent moving radially at the port's angle passes its ring-i flankers
    at perpendicular distance 2ri sin(gap); the gap makes that exactly 2r.
    """
    if i < 1:
        raise ValueError("port gap defined for ring index >= 1")
    return math.asin(1.0 / i)


def loop_capacity(i: int) -> int:
    """Slot count for ring i of an isolated circle.

    Ring 0 holds nothing (a loop needs at least 3 vertices) and ring 1 holds
    the classic 6-around-1 packing. Ring i >= 2 reserves an extra-wide gap
    around one port slot so the radial swap corridor to the ring below stays
    clear of flanking agents: the port plus the packed remainder of the
    circle, capped at the plain angular-packing maximum.
    """
    if i < 0:
        raise ValueError("ring index must be non-negative")
    if i == 0:
        return 0
    if i == 1:
        return 6
    reserved = 2.0 * port_gap(i)
    formula = int(math.floor((2.0 * math.pi - reserved) / slot_pitch(i) + _EPS)) + 2
    return min(formula, ring_packing_max(i))


def center_contained(a: Disk, b: Disk, D: float) -> bool:
    """True iff, with centres D apart, one circle's centre lies inside the other."""
    max_radius = max(a.radius, b.radius)
    return D < max_radius - _EPS * max(1.0, max_radius)


def classify_pair(a: Disk, i: int, b: Disk, j: int, D: float, r: float) -> PairClass:
    """Classify the interaction between ring i of circle a and ring j of b.

    Thresholds are evaluated in order I -> II -> III -> IV; the first that
    holds wins. Requires both circle centers outside the other circle.
    """
    if i < 1 or j < 1:
        raise ValueError("classification defined for ring indices >= 1")
    if center_contained(a, b, D):
        raise CenterContained(
            f"center distance {D} smaller than max circle radius {max(a.radius, b.radius)}"
        )
    t1 = (
        max(
            math.sqrt(i * i - 1.0) + math.sqrt((j + 1.0) ** 2 - 1.0),
            math.sqrt(j * j - 1.0) + math.sqrt((i + 1.0) ** 2 - 1.0),
        )
        * 2.0
        * r
    )
    if D > t1:
        return PairClass.CASE_I
    if D > (2.0 * i + 2.0 * j) * r:
        return PairClass.CASE_II
    if D > (2.0 * i + 2.0 * j - 2.0) * r:
        return PairClass.CASE_III
    return PairClass.CASE_IV


def neighbor_reach(neighbor_radius: float, r: float) -> float:
    """Distance from a neighbor circle center within which ring slots clash.

    Any point closer than this to the neighbor center is within 2r of one of
    the neighbor's ring centerlines, hence unsafe while that ring rotates.
    """
    return 2.0 * r * (safe_layer_count(neighbor_radius, r) + 1)


def free_intervals(
    center, ring_radius: float, neighbors: list[Disk], r: float
) -> list[tuple[float, float]]:
    """Angular intervals of a ring centerline clear of all neighbor circles.

    Returns a list of (start, end) angle pairs with end > start, measured at
    the ring's own center; an unobstructed ring yields [(0, 2*pi)].
    """
    wedges = []
    for nb in neighbors:
        D = math.hypot(nb.center[0] - center[0], nb.center[1] - center[1])
        reach = neighbor_reach(nb.radius, r)
        denom = 2.0 * ring_radius * D
        if denom <= 0:
            continue
        arg = (D * D + ring_radius * ring_radius - reach * reach) / denom
        if arg >= 1.0:
            continue  # neighbor too far to matter
        axis = math.atan2(nb.center[1] - center[1], nb.center[0] - center[0])
        if arg <= -1.0:
            return []  # whole ring inside the neighbor's influence
        phi = math.acos(arg)
        wedges.append((axis - phi, axis + phi))
    if not wedges:
        return [(0.0, 2.0 * math.pi)]
    return _complement_of_wedges(wedges)


def _complement_of_wedges(wedges: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Complement of angular wedges on the circle, as (start, end) arcs."""
    two_pi = 2.0 * math.pi
    segs = []
    for lo, hi in wedges:
        width = hi - lo
        if width >= two_pi:
            return []
        lo %= two_pi
        segs.append((lo, lo + width))
    segs.sort()
    merged: list[list[float]] = []
    for lo, hi in segs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # merge wrap-around overlap
    while len(merged) > 1 and merged[-1][1] >= merged[0][0] + two_pi:
        merged[0][0] = merged[-1][0] - two_pi
        merged[0][1] = max(merged[0][1], merged[-1][1] - two_pi)
        merged.pop()
    if len(merged) == 1 and merged[0][1] - merged[0][0] >= two_pi:
        return []
    free = []
    for k, (lo, hi) in enumerate(merged):
        nxt = merged[(k + 1) % len(merged)][0] + (two_pi if k == len(merged) - 1 else 0.0)
        if nxt - hi > 0.0:
            free.append((hi, nxt))
    return free


def pack_arc(arc: float, pitch: float) -> int:
    """Slots on an inclusive arc with angular spacing >= pitch."""
    if arc < -_EPS:
        return 0
    return int(math.floor(arc / pitch + 1e-9)) + 1


def widen_gaps(intervals: list[tuple[float, float]], pitch: float):
    """Shrink free intervals so every excluded gap between them is >= pitch.

    Interval endpoints host slots; if the cyclic gap between two consecutive
    intervals were narrower than the pitch, the flanking slots would sit
    closer than 2r. Collapsed intervals are dropped.
    """
    two_pi = 2.0 * math.pi
    if not intervals:
        return []
    if len(intervals) == 1 and intervals[0][1] - intervals[0][0] >= two_pi - _EPS:
        return list(intervals)
    ivs = [[lo, hi] for lo, hi in sorted(intervals)]
    n = len(ivs)
    for k in range(n):
        nxt = (k + 1) % n
        gap = ivs[nxt][0] + (two_pi if nxt == 0 else 0.0) - ivs[k][1]
        if gap < pitch:
            need = 0.5 * (pitch - gap)
            ivs[k][1] -= need
            ivs[nxt][0] += need
    return [(lo, hi) for lo, hi in ivs if hi - lo >= -_EPS]
