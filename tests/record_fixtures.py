"""Shared motion-record fixtures: hold and line records from plain
coordinate pairs, and a `TrajectorySet` packed from records per agent."""

from swapmotion.geometry import Point2
from swapmotion.trajectory import Track, TrajectorySet, hold_record, line_record


def hold(t, p):
    return hold_record(t, Point2(*p))


def line(t0, t1, a, b):
    return line_record(t0, t1, Point2(*a), Point2(*b))


def trajectory_set(horizon, **records):
    """A `TrajectorySet` with one track per keyword, packed from its records."""
    return TrajectorySet({a: Track.from_records(recs) for a, recs in records.items()}, horizon)
