"""Grid-based medial axis of the free space with per-node clearance.

A uniform grid of cell centers is classified free/occupied, and each cell
gets its exact distance to the free-space boundary plus the boundary point
realizing it, all from one pass over the obstacle edges
(`geometry.nearest_boundary`). The skeleton keeps them as a `DistanceGrid`,
which navigation's grid router also routes on. Medial cells are detected
two ways: jumps in the nearest boundary point between neighboring cells
(different walls) and local ridges of the clearance field. The union is
thinned to one-cell-wide polylines, and the fragments of every free
component are joined by widest-path bridges: one resumed widest-path search
per growing fragment, over flat cell indices in plain lists. The result is a
small geometric graph that also keeps its node positions and clearances as
arrays, so `skeleton_path` checks all nodes of a query with numpy masks
before its Dijkstra over the skeleton; the graph computes each circle's
masks once. A query names its two circles by their indices in the circle
set, and a skeleton path is the plain tuple of its waypoints.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import EmptyFreeSpace
from .geometry import (
    CapsuleCache,
    Disk,
    Point2,
    Workspace,
    capsule_free,  # noqa: F401  (looked up here by bench/tracing.py)
    dist,
    nearest_boundary,
    points_in_free_space,
)


@dataclass(frozen=True)
class SkeletonNode:
    position: Point2
    clearance: float


@dataclass(frozen=True)
class DistanceGrid:
    """The grid the medial axis is read from: cell centres `xs` and `ys`, and
    each cell's `clearance`, its distance to the free-space boundary where the
    cell is free and 0 elsewhere (float[len(xs), len(ys)])."""

    xs: np.ndarray
    ys: np.ndarray
    clearance: np.ndarray


@dataclass
class SkeletonGraph:
    """Piecewise-linear medial-axis approximation embedded in the free space."""

    nodes: list[SkeletonNode]
    edges: list[tuple[int, int]]
    # what the bridging did: fragments, bridges, bridge_pops
    counters: dict = field(default_factory=dict, repr=False, compare=False)
    # the distance grid the skeleton was read from
    grid: DistanceGrid | None = field(default=None, repr=False, compare=False)
    # node positions (n, 2) and clearances (n,) as arrays
    xy: np.ndarray = field(init=False, repr=False, compare=False)
    clearances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.xy = np.array([n.position for n in self.nodes], dtype=float).reshape(-1, 2)
        self.clearances = np.array([n.clearance for n in self.nodes], dtype=float)
        self._adj: dict[int, list[tuple[int, float]]] = {
            i: [] for i in range(len(self.nodes))
        }
        for i, j in self.edges:
            w = dist(self.nodes[i].position, self.nodes[j].position)
            self._adj[i].append((j, w))
            self._adj[j].append((i, w))
        for i in self._adj:
            self._adj[i].sort()
        self._within: dict[tuple, np.ndarray] = {}

    def neighbors(self, i: int) -> list[tuple[int, float]]:
        return self._adj[i]

    def within(self, center: Point2, bound: float, strict: bool) -> np.ndarray:
        """Which nodes lie within `bound` of `center`, strictly if `strict`;
        memoized per graph, so one conversion computes each circle's mask once."""
        key = (tuple(center), bound, strict)
        if key not in self._within:
            op = operator.lt if strict else operator.le
            dx, dy = center[0] - self.xy[:, 0], center[1] - self.xy[:, 1]
            self._within[key] = _hypot_cmp(op, dx, dy, bound)
        return self._within[key]


def _grid_points(w: Workspace, res: float):
    b = w.bounds
    nx = max(1, int(math.floor(b.width / res)))
    ny = max(1, int(math.floor(b.height / res)))
    xs = b.xmin + (np.arange(nx) + 0.5) * (b.width / nx)
    ys = b.ymin + (np.arange(ny) + 0.5) * (b.height / ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return pts, nx, ny


BRIDGE_COUNTERS = ("fragments", "bridges", "bridge_pops")

_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _thin(mask: np.ndarray) -> np.ndarray:
    """Sequential simple-point thinning to one-cell-wide 8-connected curves.

    Cells are peeled one at a time (in raster order) whenever removal
    keeps the local neighborhood connected, so the result can never split a
    component; branch endpoints are preserved.
    """
    m = mask.copy()
    nx, ny = m.shape
    cells = sorted(zip(*np.nonzero(m)))

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


def extract_medial_axis(w: Workspace, grid_resolution: float) -> SkeletonGraph:
    """Medial-axis approximation of the free space at the given cell size."""
    if grid_resolution <= 0:
        raise ValueError("grid_resolution must be positive")
    pts, nx, ny = _grid_points(w, grid_resolution)
    pts2 = pts.reshape(nx, ny, 2)
    edge_d, bd, feat = nearest_boundary(pts, w)
    free = points_in_free_space(pts, w, edge_d)
    if not free.any():
        raise EmptyFreeSpace("no free cells at this resolution")
    D = np.where(free, bd, 0.0).reshape(nx, ny)
    grid = DistanceGrid(pts2[:, 0, 0], pts2[0, :, 1], D)
    free2 = free.reshape(nx, ny)
    feat = feat.reshape(nx, ny, 2)

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
        return SkeletonGraph([], [], dict.fromkeys(BRIDGE_COUNTERS, 0), grid)

    mask = _thin(mask)
    bridges, counters = _bridges(mask, free2, D)
    for cells in bridges:
        mask[tuple(zip(*cells))] = True
    mask = _thin(mask)

    idx = -np.ones((nx, ny), dtype=int)
    nodes = []
    for i, j in zip(*np.nonzero(mask)):
        idx[i, j] = len(nodes)
        nodes.append(SkeletonNode(Point2(*pts2[i, j]), float(D[i, j])))
    edges = []
    for i, j in zip(*np.nonzero(mask)):
        for dx, dy in ((1, 0), (0, 1), (1, 1), (1, -1)):
            u, v = i + dx, j + dy
            if 0 <= u < nx and 0 <= v < ny and mask[u, v]:
                edges.append((int(idx[i, j]), int(idx[u, v])))
    return SkeletonGraph(nodes, edges, counters, grid)


def _steps8(row: int) -> tuple[int, ...]:
    """Flat offsets of the 8 neighbors in a grid with rows of length `row`."""
    return (-row - 1, -row, -row + 1, -1, 1, row - 1, row, row + 1)


def _fragments(on: list[bool], row: int) -> list[int]:
    """8-connected labels of the set cells of a flat grid with rows of length
    `row` and an unset border; 0 = unset, fragments numbered in raster order."""
    steps = _steps8(row)
    label = [0] * len(on)
    cur = 0
    for c in compress(range(len(on)), on):
        if label[c]:
            continue
        cur += 1
        label[c] = cur
        stack = [c]
        while stack:
            x = stack.pop()
            for s in steps:
                u = x + s
                if on[u] and not label[u]:
                    label[u] = cur
                    stack.append(u)
    return label


def _bridges(
    mask: np.ndarray, free: np.ndarray, D: np.ndarray
) -> tuple[list[list[tuple[int, int]]], dict]:
    """The widest-path bridges between the skeleton fragments of each free
    component, each as the cells it adds, the hit fragment's cell first, and
    the counters `fragments`, `bridges` and `bridge_pops`.

    The fragment holding the first cell in raster order grows by a bridge to
    the widest-reachable other fragment until it reaches none; then the next
    fragment that still may is taken. Each growing fragment keeps one
    widest-path Dijkstra over 4-connected free cells (Prim's one tree, one
    queue): after a bridge, the cells it added and every fragment it merged
    become sources at their own depth and the search resumes. Widths only
    grow as sources are added, so each bridge is as wide as a search
    restarted from the grown fragment would find; only the choice among
    equally wide bridges can differ. Heap entries are
    (-width, cell); grids are padded by one unset cell and flattened, so
    neighbors need no bounds checks and flat cells keep the raster tie order
    of (-width, i, j)."""
    row = mask.shape[1] + 2
    on = np.pad(mask, 1).ravel().tolist()
    label = _fragments(on, row)
    members: dict[int, list[int]] = {}
    for c in compress(range(len(on)), on):
        members.setdefault(label[c], []).append(c)
    open_ = np.pad(free, 1).ravel().tolist()
    depth = np.pad(D, 1).ravel().tolist()
    steps4 = (-row, row, -1, 1)
    steps8 = _steps8(row)
    push, pop = heapq.heappush, heapq.heappop
    fragments = len(members)
    out: list[list[tuple[int, int]]] = []
    stuck: set[int] = set()
    own = 0
    pops = 0
    while len(members) > 1:
        live = [k for k in members if k not in stuck]
        if not live:
            break
        if min(live) != own:
            own = min(live)
            width = [-1.0] * len(depth)
            prev: dict[int, int] = {}
            heap: list[tuple[float, int]] = []
            sources = members[own]
        for c in sources:
            width[c] = depth[c]
            prev.pop(c, None)
            push(heap, (-depth[c], c))
        hit = None
        while heap:
            negw, c = pop(heap)
            pops += 1
            wc = -negw
            if wc < width[c]:
                continue
            if label[c] and label[c] != own:
                hit = c
                break
            for s in steps4:
                u = c + s
                if open_[u]:
                    cand = depth[u] if depth[u] < wc else wc
                    if cand > width[u]:
                        width[u] = cand
                        prev[u] = c
                        push(heap, (-cand, u))
        if hit is None:
            stuck.add(own)
            continue
        path = []
        cur = prev[hit]
        while cur in prev:
            path.append(cur)
            cur = prev[cur]
        for c in path:
            label[c] = own
        sources = list(path)
        # the bridge joins the hit fragment and any fragment touching it
        for k in sorted({label[hit]} | {label[c + s] for c in path for s in steps8} - {0, own}):
            cells = members.pop(k)
            for c in cells:
                label[c] = own
            stuck.discard(k)
            sources.extend(cells)
        members[own].extend(sources)
        out.append([(c // row - 1, c % row - 1) for c in (hit, *path)])
    return out, dict(zip(BRIDGE_COUNTERS, (fragments, len(out), pops)))


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
    s: SkeletonGraph, circles: list[Disk], ia: int, ib: int, r: float, capsules: CapsuleCache
) -> tuple[Point2, ...] | None:
    """Waypoints of the shortest skeleton polyline from circle `circles[ia]`
    to `circles[ib]` whose r-inflation, outside those two circles, avoids
    every obstacle and every other circle of the set.

    The workspace is `capsules.w`, whose capsule checks `capsules` memoizes."""
    w = capsules.w
    a, b = circles[ia], circles[ib]
    others = [c for k, c in enumerate(circles) if k not in (ia, ib)]
    in_a, in_b = (s.within(c.center, c.radius, False) for c in (a, b))
    sources = np.flatnonzero(in_a).tolist()
    if not sources or not in_b.any():
        return None
    # a node is admissible inside a or b, or with clearance r and clear of the others
    ok = ~(s.clearances < r - w.tol)
    for c in others:
        ok &= ~s.within(c.center, c.radius + r - w.tol, True)
    node_ok = (ok | in_a | in_b).tolist()
    targets = in_b.tolist()
    best = [math.inf] * len(s.nodes)
    for i in sources:
        best[i] = 0.0
    prev: dict[int, int] = {}
    heap = [(0.0, i) for i in sources]
    heapq.heapify(heap)
    goal = None
    while heap:
        d, u = heapq.heappop(heap)
        if d > best[u]:
            continue
        if targets[u]:
            goal = u
            break
        for v, wgt in s.neighbors(u):
            if not node_ok[v]:
                continue
            nd = d + wgt
            if nd < best[v]:
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


def _hypot_cmp(op, dx: np.ndarray, dy: np.ndarray, bound) -> np.ndarray:
    """`op(math.hypot(dx, dy), bound)` elementwise over broadcast arrays.

    np.hypot can differ from math.hypot in the last bit, so the entries within
    a few ulps of `bound` are decided with math.hypot."""
    dx, dy, bound = np.broadcast_arrays(dx, dy, bound)
    h = np.hypot(dx, dy)
    out = op(h, bound)
    close = np.nonzero(np.abs(h - bound) <= 4 * np.finfo(float).eps * h)
    for at, x, y, lim in zip(
        zip(*close), dx[close].tolist(), dy[close].tolist(), bound[close].tolist()
    ):
        out[at] = op(math.hypot(x, y), lim)
    return out


def _path_clear(
    waypoints: tuple[Point2, ...],
    a: Disk,
    b: Disk,
    others: list[Disk],
    r: float,
    capsules: CapsuleCache,
) -> bool:
    """Inflated-path condition for every segment not well inside a or b, in
    the workspace `capsules.w`."""
    tol = capsules.w.tol
    # inside[k]: waypoint k is well inside (a, b); a segment is when both its ends are
    inside = np.array(
        [[dist(c.center, p) + r <= c.radius + tol for c in (a, b)] for p in waypoints]
    )
    pts = np.array(waypoints, dtype=float)
    spines = np.stack([pts[:-1], pts[1:]], axis=1)[~(inside[:-1] & inside[1:]).any(axis=1)]
    centers = np.array([c.center for c in others], dtype=float).reshape(-1, 2)
    radii = np.array([c.radius for c in others], dtype=float)
    return capsules.route_clear(spines, r, centers, radii + r - tol)
