"""Grid-based medial axis of the free space with per-node clearance.

A uniform grid of cell centers is classified free/occupied, each free cell
gets its exact distance to the free-space boundary plus the boundary point
realizing it, and medial cells are detected two ways: jumps in the nearest
boundary point between neighboring cells (different walls) and local ridges
of the clearance field. The union is thinned to one-cell-wide polylines and
reconnected per free component, then exposed as a small geometric graph.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFreeSpace
from .geometry import (
    CapsuleCache,
    Disk,
    Point2,
    Workspace,
    boundary_distance_many,
    capsule_free,  # noqa: F401  (looked up here by bench/tracing.py)
    dist,
    point_segment_distances,
    points_in_free_space,
)


@dataclass(frozen=True)
class SkeletonNode:
    position: Point2
    clearance: float


@dataclass
class SkeletonGraph:
    """Piecewise-linear medial-axis approximation embedded in the free space."""

    nodes: list[SkeletonNode]
    edges: list[tuple[int, int]]
    sample_interval: float

    def __post_init__(self):
        self._adj: dict[int, list[tuple[int, float]]] = {
            i: [] for i in range(len(self.nodes))
        }
        for i, j in self.edges:
            w = dist(self.nodes[i].position, self.nodes[j].position)
            self._adj[i].append((j, w))
            self._adj[j].append((i, w))
        for i in self._adj:
            self._adj[i].sort()

    def neighbors(self, i: int) -> list[tuple[int, float]]:
        return self._adj[i]


@dataclass
class SkeletonPath:
    waypoints: list[Point2]
    start_circle: int
    end_circle: int

    def length(self) -> float:
        return sum(dist(a, b) for a, b in zip(self.waypoints, self.waypoints[1:]))


def _grid_points(w: Workspace, res: float):
    b = w.bounds
    nx = max(1, int(math.floor(b.width / res)))
    ny = max(1, int(math.floor(b.height / res)))
    xs = b.xmin + (np.arange(nx) + 0.5) * (b.width / nx)
    ys = b.ymin + (np.arange(ny) + 0.5) * (b.height / ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts, nx, ny


def _nearest_boundary_points(pts: np.ndarray, w: Workspace) -> np.ndarray:
    """Closest point of the free-space boundary for each query point."""
    b = w.bounds
    n = len(pts)
    best_d = np.full(n, np.inf)
    best_p = np.zeros((n, 2))
    sides = [
        (pts[:, 0] - b.xmin, np.stack([np.full(n, b.xmin), pts[:, 1]], axis=1)),
        (b.xmax - pts[:, 0], np.stack([np.full(n, b.xmax), pts[:, 1]], axis=1)),
        (pts[:, 1] - b.ymin, np.stack([pts[:, 0], np.full(n, b.ymin)], axis=1)),
        (b.ymax - pts[:, 1], np.stack([pts[:, 0], np.full(n, b.ymax)], axis=1)),
    ]
    for d, p in sides:
        better = d < best_d
        best_d = np.where(better, d, best_d)
        best_p[better] = p[better]
    if len(w._edges_a):
        chunk = max(1, int(4e6 // max(1, len(w._edges_a))))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            p = pts[lo:hi, None, :]
            a = w._edges_a[None, :, :]
            ab = (w._edges_b - w._edges_a)[None, :, :]
            seg2 = np.einsum("pez,pez->pe", ab, ab)
            seg2 = np.where(seg2 == 0.0, 1.0, seg2)
            t = np.clip(np.einsum("pez,pez->pe", p - a, ab) / seg2, 0.0, 1.0)
            proj = a + t[:, :, None] * ab
            d = np.linalg.norm(p - proj, axis=2)
            idx = d.argmin(axis=1)
            dmin = d[np.arange(hi - lo), idx]
            better = dmin < best_d[lo:hi]
            rows = np.nonzero(better)[0]
            best_d[lo:hi][better] = dmin[better]
            best_p[lo:hi][rows] = proj[rows, idx[rows]]
    return best_p


_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _thin(mask: np.ndarray, priority: np.ndarray | None = None) -> np.ndarray:
    """Sequential simple-point thinning to one-cell-wide 8-connected curves.

    Cells are peeled one at a time (lowest priority first) whenever removal
    keeps the local neighborhood connected, so the result can never split a
    component; branch endpoints are preserved.
    """
    m = mask.copy()
    nx, ny = m.shape
    cells = list(zip(*np.nonzero(m)))
    if priority is not None:
        cells.sort(key=lambda c: (priority[c], c))
    else:
        cells.sort()

    def ring(i, j):
        out = []
        for dx, dy in _RING:
            u, v = i + dx, j + dy
            out.append(bool(m[u, v]) if 0 <= u < nx and 0 <= v < ny else False)
        return out

    changed = True
    while changed:
        changed = False
        for i, j in cells:
            if not m[i, j]:
                continue
            rg = ring(i, j)
            b = sum(rg)
            if b < 2 or b > 6:
                continue
            a = sum(1 for k in range(8) if not rg[k] and rg[(k + 1) % 8])
            if a != 1:
                continue
            m[i, j] = False
            changed = True
    return m


def _components(mask: np.ndarray, diag: bool = True) -> np.ndarray:
    """Label connected components; 0 = background."""
    nx, ny = mask.shape
    labels = np.zeros(mask.shape, dtype=int)
    nbrs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if diag:
        nbrs += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    cur = 0
    for i in range(nx):
        for j in range(ny):
            if mask[i, j] and labels[i, j] == 0:
                cur += 1
                stack = [(i, j)]
                labels[i, j] = cur
                while stack:
                    x, y = stack.pop()
                    for dx, dy in nbrs:
                        u, v = x + dx, y + dy
                        if 0 <= u < nx and 0 <= v < ny and mask[u, v] and labels[u, v] == 0:
                            labels[u, v] = cur
                            stack.append((u, v))
    return labels


def extract_medial_axis(w: Workspace, grid_resolution: float) -> SkeletonGraph:
    """Medial-axis approximation of the free space at the given cell size."""
    if grid_resolution <= 0:
        raise ValueError("grid_resolution must be positive")
    pts, nx, ny = _grid_points(w, grid_resolution)
    free = points_in_free_space(pts, w)
    if not free.any():
        raise EmptyFreeSpace("no free cells at this resolution")
    D = np.where(free, boundary_distance_many(pts, w), 0.0).reshape(nx, ny)
    free2 = free.reshape(nx, ny)
    feat = _nearest_boundary_points(pts, w).reshape(nx, ny, 2)

    # nearest-boundary-point jumps between 4-neighbors mark medial cells;
    # of each straddling pair only the wider side is kept, and a dedupe pass
    # drops leftover two-wide bands so thinning cannot unravel them
    sep = 2.5 * grid_resolution
    mask = np.zeros((nx, ny), dtype=bool)
    jumps = []
    for axis in (0, 1):
        b = np.roll(feat, -1, axis=axis)
        jump = np.linalg.norm(feat - b, axis=2) > sep
        ok = free2 & np.roll(free2, -1, axis=axis)
        if axis == 0:
            jump[-1, :] = False
            ok[-1, :] = False
        else:
            jump[:, -1] = False
            ok[:, -1] = False
        both = jump & ok
        jumps.append(both)
        d_next = np.roll(D, -1, axis=axis)
        take_here = both & (D >= d_next)
        take_next = both & (D < d_next)
        mask |= take_here
        mask |= np.roll(take_next, 1, axis=axis)
    for axis in (0, 1):
        pair = mask & np.roll(mask, -1, axis=axis) & jumps[axis]
        d_next = np.roll(D, -1, axis=axis)
        drop_here = pair & (D < d_next)
        drop_next = pair & (D >= d_next)
        mask &= ~drop_here
        mask &= ~np.roll(drop_next, 1, axis=axis)
    # clearance ridges and peaks (centers of near-circular pockets)
    pad = np.pad(D, 1)
    is_peak = free2.copy()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == dy == 0:
                continue
            is_peak &= D >= pad[1 + dx : 1 + dx + nx, 1 + dy : 1 + dy + ny]
    mask |= is_peak
    mask &= free2
    mask &= D > 0.75 * grid_resolution

    if not mask.any():
        return SkeletonGraph(nodes=[], edges=[], sample_interval=grid_resolution)

    mask = _thin(mask)
    mask = _reconnect(mask, free2, D)
    mask = _thin(mask)

    idx = -np.ones((nx, ny), dtype=int)
    nodes = []
    pts2 = pts.reshape(nx, ny, 2)
    for i, j in zip(*np.nonzero(mask)):
        idx[i, j] = len(nodes)
        nodes.append(SkeletonNode(Point2(*pts2[i, j]), float(D[i, j])))
    edges = []
    for i, j in zip(*np.nonzero(mask)):
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            u, v = i + dx, j + dy
            if 0 <= u < nx and 0 <= v < ny and mask[u, v]:
                edges.append((int(idx[i, j]), int(idx[u, v])))
    return SkeletonGraph(nodes=nodes, edges=edges, sample_interval=grid_resolution)


def _reconnect(mask: np.ndarray, free: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Bridge skeleton fragments of one free component along wide paths."""
    out = mask.copy()
    while True:
        labels = _components(out)
        n = labels.max()
        if n <= 1:
            return out
        # widest-path Dijkstra from fragment 1 over free cells to another fragment
        nx, ny = out.shape
        width = np.full(out.shape, -1.0)
        heap = []
        for i, j in zip(*np.nonzero(labels == 1)):
            width[i, j] = D[i, j]
            heapq.heappush(heap, (-D[i, j], int(i), int(j)))
        prev = {}
        hit = None
        while heap:
            negw, i, j = heapq.heappop(heap)
            if -negw < width[i, j]:
                continue
            if labels[i, j] > 1:
                hit = (i, j)
                break
            for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                u, v = i + dx, j + dy
                if 0 <= u < nx and 0 <= v < ny and free[u, v]:
                    cand = min(-negw, D[u, v])
                    if cand > width[u, v]:
                        width[u, v] = cand
                        prev[(u, v)] = (i, j)
                        heapq.heappush(heap, (-cand, u, v))
        if hit is None:
            # free component with no reachable second fragment: keep as is
            return out
        cur = hit
        while cur in prev:
            out[cur] = True
            cur = prev[cur]
    return out


def sample_circles(
    s: SkeletonGraph, epsilon: float, k_max: int, r: float
) -> list[Disk]:
    """Inscribed-circle candidates spaced >= epsilon apart along the skeleton.

    Nodes are taken in order of decreasing clearance; circles below radius 3r
    are dropped since they cannot host two concentric agent rings.
    """
    if epsilon <= 0 or k_max < 1:
        raise ValueError("epsilon must be positive and k_max >= 1")
    order = sorted(
        range(len(s.nodes)),
        key=lambda i: (-s.nodes[i].clearance, s.nodes[i].position.y, s.nodes[i].position.x),
    )
    blocked = set()
    picked = []
    for i in order:
        if len(picked) >= k_max:
            break
        if i in blocked or s.nodes[i].clearance < 3.0 * r:
            continue
        picked.append(i)
        # block everything within arc length epsilon of the pick
        seen = {i: 0.0}
        heap = [(0.0, i)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > seen.get(u, np.inf):
                continue
            blocked.add(u)
            for v, wgt in s.neighbors(u):
                nd = d + wgt
                if nd < epsilon and nd < seen.get(v, np.inf):
                    seen[v] = nd
                    heapq.heappush(heap, (nd, v))
    return [Disk(s.nodes[i].position, s.nodes[i].clearance) for i in picked]


def skeleton_path(
    s: SkeletonGraph,
    a: Disk,
    b: Disk,
    all_circles: list[Disk],
    r: float,
    w: Workspace,
    capsules: CapsuleCache | None = None,
) -> SkeletonPath | None:
    """Shortest skeleton polyline from circle a to circle b whose r-inflation,
    outside the two endpoint circles, avoids every obstacle and circle.

    `capsules` memoizes the workspace checks; it must belong to `w`."""
    ia = _circle_index(all_circles, a)
    ib = _circle_index(all_circles, b)
    others = [c for k, c in enumerate(all_circles) if k not in (ia, ib)]

    def inside(c: Disk, p: Point2) -> bool:
        return dist(c.center, p) <= c.radius

    def node_ok(i: int) -> bool:
        nd = s.nodes[i]
        if inside(a, nd.position) or inside(b, nd.position):
            return True
        if nd.clearance < r - w.tol:
            return False
        for c in others:
            if dist(c.center, nd.position) < c.radius + r - w.tol:
                return False
        return True

    sources = [i for i in range(len(s.nodes)) if inside(a, s.nodes[i].position)]
    targets = {i for i in range(len(s.nodes)) if inside(b, s.nodes[i].position)}
    if not sources or not targets:
        return None
    best = {i: 0.0 for i in sources}
    prev: dict[int, int] = {}
    heap = [(0.0, i) for i in sources]
    heapq.heapify(heap)
    goal = None
    while heap:
        d, u = heapq.heappop(heap)
        if d > best.get(u, np.inf):
            continue
        if u in targets:
            goal = u
            break
        for v, wgt in s.neighbors(u):
            if not node_ok(v):
                continue
            nd = d + wgt
            if nd < best.get(v, np.inf):
                best[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if goal is None:
        return None
    chain = [goal]
    while chain[-1] in prev:
        chain.append(prev[chain[-1]])
    chain.reverse()
    waypoints = [s.nodes[i].position for i in chain]
    path = SkeletonPath(waypoints, ia, ib)
    if not _path_clear(path, a, b, others, r, w, capsules):
        return None
    return path


def _circle_index(circles: list[Disk], c: Disk) -> int:
    for k, d in enumerate(circles):
        if d == c:
            return k
    return -1


def _path_clear(
    path: SkeletonPath,
    a: Disk,
    b: Disk,
    others: list[Disk],
    r: float,
    w: Workspace,
    capsules: CapsuleCache | None = None,
) -> bool:
    """Inflated-path condition for every segment not well inside a or b."""

    def well_inside(c: Disk, p: Point2) -> bool:
        return dist(c.center, p) + r <= c.radius + w.tol

    spines = [
        (p, q)
        for p, q in zip(path.waypoints, path.waypoints[1:])
        if not (well_inside(a, p) and well_inside(a, q))
        and not (well_inside(b, p) and well_inside(b, q))
    ]
    if not spines:
        return True
    if not (capsules or CapsuleCache(w)).all_free(spines, r):
        return False
    if not others:
        return True
    ends = np.array(spines, dtype=float)  # (S, 2 ends, 2)
    centers = np.array([c.center for c in others], dtype=float)
    radii = np.array([c.radius for c in others], dtype=float)
    lo = point_segment_distances(centers, ends[:, None, 0], ends[:, None, 1])
    return not (lo < radii + r - w.tol).any()
