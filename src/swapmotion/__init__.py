"""Multi-agent disk motion planning via inscribed-circle swap graphs."""

from .errors import (
    AssignmentFailure,
    AssignmentMismatch,
    CenterContained,
    EmptyFreeSpace,
    IllegalOp,
    InsufficientCapacity,
    InvalidGraph,
    InvalidScenario,
    NavigationFailure,
    PlannerError,
    PreconditionViolated,
    SwapMotionError,
    TooFewSlots,
    UnrealizableOp,
)
from .geometry import Disk, Point2, Polygon, Rect, Workspace
from .swap_graph import Occupancy, SwapGraph, VACANT

__all__ = [
    "AssignmentFailure",
    "AssignmentMismatch",
    "CenterContained",
    "Disk",
    "EmptyFreeSpace",
    "IllegalOp",
    "InsufficientCapacity",
    "InvalidGraph",
    "InvalidScenario",
    "NavigationFailure",
    "Occupancy",
    "PlannerError",
    "Point2",
    "Polygon",
    "PreconditionViolated",
    "Rect",
    "SwapGraph",
    "SwapMotionError",
    "TooFewSlots",
    "UnrealizableOp",
    "VACANT",
    "Workspace",
]

__version__ = "0.1.0"
