"""Reference for the array code in `swapmotion.medial_axis`: the medial-axis
extraction with three grid distance passes, the cell-by-cell component
labeling and resumed widest-path reconnect over numpy scalars, the widest
bridge searched from scratch as a width oracle, and the skeleton Dijkstra
that checks each node with `dist` as it is reached."""

from __future__ import annotations

import heapq

import numpy as np

from swapmotion.errors import EmptyFreeSpace
from swapmotion.geometry import (
    CapsuleCache,
    Disk,
    Point2,
    Workspace,
    boundary_distance_many,
    dist,
    points_in_free_space,
)
from swapmotion.medial_axis import (
    SkeletonGraph,
    SkeletonNode,
    _grid_points,
    _path_clear,
    _thin,
)


def nearest_boundary_points_reference(pts: np.ndarray, w: Workspace) -> np.ndarray:
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



def components_reference(mask: np.ndarray, diag: bool = True) -> np.ndarray:
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



def extract_medial_axis_reference(w: Workspace, grid_resolution: float) -> SkeletonGraph:
    """`medial_axis.extract_medial_axis` with the three distance passes and the
    reference reconnect."""
    if grid_resolution <= 0:
        raise ValueError("grid_resolution must be positive")
    pts, nx, ny = _grid_points(w, grid_resolution)
    free = points_in_free_space(pts, w)
    if not free.any():
        raise EmptyFreeSpace("no free cells at this resolution")
    D = np.where(free, boundary_distance_many(pts, w), 0.0).reshape(nx, ny)
    free2 = free.reshape(nx, ny)
    feat = nearest_boundary_points_reference(pts, w).reshape(nx, ny, 2)

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
        return SkeletonGraph(nodes=[], edges=[])

    mask = _thin(mask)
    mask = reconnect_reference(mask, free2, D)
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
    return SkeletonGraph(nodes=nodes, edges=edges)


def reconnect_reference(
    mask: np.ndarray, free: np.ndarray, D: np.ndarray, bridges: list | None = None
) -> np.ndarray:
    """Bridge skeleton fragments of one free component along wide paths.

    Fragment 1 grows with one widest-path Dijkstra over 4-connected free
    cells: after each bridge, every cell that joined fragment 1 becomes a
    source at its own depth and the search goes on. Each bridge's added
    cells, hit cell first, are appended to `bridges` when it is a list.
    Stops once fragment 1 reaches no other fragment."""
    out = mask.copy()
    nx, ny = out.shape
    labels = components_reference(out)
    grown = np.zeros(out.shape, dtype=bool)
    width = np.full(out.shape, -1.0)
    prev = {}
    heap = []
    while labels.max() > 1:
        for i, j in zip(*np.nonzero((labels == 1) & ~grown)):
            i, j = int(i), int(j)
            width[i, j] = D[i, j]
            prev.pop((i, j), None)
            heapq.heappush(heap, (-D[i, j], i, j))
        grown = labels == 1
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
        added = []
        while cur in prev:
            out[cur] = True
            added.append(cur)
            cur = prev[cur]
        if bridges is not None:
            bridges.append(added)
        labels = components_reference(out)
    return out


def widest_bridge_reference(
    own: np.ndarray, other: np.ndarray, free: np.ndarray, D: np.ndarray
) -> float | None:
    """Width of the widest 4-connected path over free cells from a cell of
    `own` to a cell of `other`, searched from scratch (None: none reaches).

    The width of a path is the least depth of its cells."""
    nx, ny = own.shape
    width = np.where(own, D, -1.0)
    heap = [(-D[i, j], int(i), int(j)) for i, j in zip(*np.nonzero(own))]
    heapq.heapify(heap)
    while heap:
        negw, i, j = heapq.heappop(heap)
        if -negw < width[i, j]:
            continue
        if other[i, j]:
            return -negw
        for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            u, v = i + dx, j + dy
            if 0 <= u < nx and 0 <= v < ny and free[u, v]:
                cand = min(-negw, D[u, v])
                if cand > width[u, v]:
                    width[u, v] = cand
                    heapq.heappush(heap, (-cand, u, v))
    return None


def skeleton_path_reference(
    s: SkeletonGraph, circles: list[Disk], ia: int, ib: int, r: float, capsules: CapsuleCache
) -> tuple[Point2, ...] | None:
    """`medial_axis.skeleton_path` with a per-node `node_ok` and `dist` calls."""
    w = capsules.w
    a, b = circles[ia], circles[ib]
    others = [c for k, c in enumerate(circles) if k not in (ia, ib)]

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
    waypoints = tuple(s.nodes[i].position for i in chain)
    if not _path_clear(waypoints, a, b, others, r, capsules):
        return None
    return waypoints
