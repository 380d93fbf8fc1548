"""Reference for `ConversionResult.routes`: each connector's mover route
rebuilt from its corridor kind, the way realization once derived it on every
swap. The skeleton-path waypoints outside both circles sit between the two
endpoint slots, and the route runs from the slot on `circle_a` to the other;
it is returned here as its corners, oriented from e[0] to e[1]."""

from __future__ import annotations

from swapmotion.conversion import ConversionResult, PathCorridor
from swapmotion.geometry import Point2, dist


def mid_waypoints_reference(circles, kind: PathCorridor) -> list[Point2]:
    a = circles[kind.circle_a]
    b = circles[kind.circle_b]
    return [
        p
        for p in kind.waypoints
        if dist(p, a.center) > a.radius and dist(p, b.center) > b.radius
    ]


def corridor_route_reference(res: ConversionResult, e: tuple[int, int]) -> list[Point2]:
    """Mover polyline of gap or path connector e, from slot e[0] to slot e[1]."""
    kind = res.inter_edge_kind[e]
    u, v = e
    if not any(res.loop_layer[li][0] == kind.circle_a for li in res.graph.loops_of(u)):
        u, v = v, u
    mid = mid_waypoints_reference(res.circles, kind) if isinstance(kind, PathCorridor) else []
    route = [res.graph.positions[u], *mid, res.graph.positions[v]]
    # drop each interior point that repeats the last corner or the next point,
    # or that the route runs straight on through
    kept = [route[0]]
    for i in range(1, len(route) - 1):
        (ax, ay), (bx, by), (cx, cy) = kept[-1], route[i], route[i + 1]
        parallel = (bx - ax) * (cy - by) == (by - ay) * (cx - bx)
        onward = (bx - ax) * (cx - bx) + (by - ay) * (cy - by) >= 0.0
        if not (parallel and onward):
            kept.append(route[i])
    kept.append(route[-1])
    return kept if u == e[0] else kept[::-1]
