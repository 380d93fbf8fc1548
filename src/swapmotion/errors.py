"""Exception types shared across the package."""


class SwapMotionError(Exception):
    """Base class for all package errors."""


class InvalidScenario(SwapMotionError):
    """A scenario breaks an input invariant (see `Scenario.validate`)."""


class CenterContained(SwapMotionError):
    """Two circles are too close: one center lies inside the other circle."""


class InvalidGraph(SwapMotionError):
    """A graph does not satisfy the swap-graph structural rules."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class IllegalOp(SwapMotionError):
    """A swap operation cannot be applied to the current occupancy."""


class PlannerError(SwapMotionError):
    """Internal planner contract violation (should not occur on valid graphs)."""


class AssignmentMismatch(SwapMotionError):
    """Start and goal occupancies disagree on the agent set."""


class UnrealizableOp(SwapMotionError):
    """A discrete operation has no continuous realization recipe."""


class TooFewSlots(SwapMotionError):
    """Fewer candidate slots than agents to assign."""


class InsufficientCapacity(SwapMotionError):
    """The converted graph has fewer than N+1 vertices."""


class AssignmentFailure(SwapMotionError):
    """The start/goal-to-vertex assignment stage failed."""


class NavigationFailure(SwapMotionError):
    """Local navigation could not move every agent to its assigned slot."""

    def __init__(self, stuck_agents, message=""):
        self.stuck_agents = list(stuck_agents)
        super().__init__(message or f"navigation stuck for agents {self.stuck_agents}")
