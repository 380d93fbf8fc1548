"""Shared graph fixtures: a hand-transcribed 4-loop example, random graphs,
and swap graphs converted from hand-picked circles."""

import math
import random

from swapmotion.conversion import _build, _TauCache
from swapmotion.geometry import Point2, Rect, Workspace
from swapmotion.medial_axis import SkeletonGraph
from swapmotion.swap_graph import Occupancy, SwapGraph


def circle_graph(circles, r=1.0, w=None, skeleton=None):
    """`conversion._build` of a hand-picked circle set, called the way
    `greedy_convert` calls it: in workspace `w` (default: the circles'
    bounding box, with no obstacle) and with path connectors along
    `skeleton` (default: an empty skeleton, so none)."""
    if w is None:
        w = Workspace(Rect(
            min(c.center.x - c.radius for c in circles),
            min(c.center.y - c.radius for c in circles),
            max(c.center.x + c.radius for c in circles),
            max(c.center.y + c.radius for c in circles),
        ))
    if skeleton is None:
        skeleton = SkeletonGraph([], [])
    return _build(list(circles), r, _TauCache(skeleton, r, w))


def four_loop_example() -> SwapGraph:
    """17-vertex graph with 4 loops used for golden distance checks.

    Loop 1 = [1,2,3,4], loop 2 = [5,6,7,8,9], loop 3 = [10,11,12,13,6,5]
    (shares vertices 5,6 and the edge 5-6 with loop 2), loop 4 =
    [11,15,16,17,13,14] (shares vertices 11,13 with loop 3, no edge).
    A single inter-loop edge joins loop 1 to loop 4 at (4, 14).
    """
    loops = [
        [1, 2, 3, 4],
        [5, 6, 7, 8, 9],
        [10, 11, 12, 13, 6, 5],
        [11, 15, 16, 17, 13, 14],
    ]
    pos = {}
    centers = [(-6.0, 0.0), (6.0, 0.0), (2.0, 0.0), (-2.0, 0.0)]
    for li, cyc in enumerate(loops):
        cx, cy = centers[li]
        for k, v in enumerate(cyc):
            if v not in pos:
                t = 2 * math.pi * k / len(cyc)
                pos[v] = Point2(cx + 1.5 * math.cos(t), cy + 1.5 * math.sin(t))
    return SwapGraph(positions=pos, loops=loops, inter_edges=[(4, 14)])


def two_triangles() -> SwapGraph:
    """Minimal swap graph: two 3-loops joined by one inter-loop edge."""
    loops = [[1, 2, 3], [4, 5, 6]]
    pos = {
        1: Point2(0, 0),
        2: Point2(1, 0),
        3: Point2(0.5, 1),
        4: Point2(2.5, 1),
        5: Point2(3, 0),
        6: Point2(3.5, 1),
    }
    return SwapGraph(positions=pos, loops=loops, inter_edges=[(3, 4)])


def loop_chain(n_loops: int, loop_size: int = 3) -> SwapGraph:
    """Chain of disjoint loops linked by inter-loop edges."""
    loops = []
    pos = {}
    inter = []
    vid = 0
    prev_last = None
    for li in range(n_loops):
        cyc = list(range(vid, vid + loop_size))
        vid += loop_size
        loops.append(cyc)
        for k, v in enumerate(cyc):
            t = 2 * math.pi * k / loop_size
            pos[v] = Point2(3.0 * li + math.cos(t), math.sin(t))
        if prev_last is not None:
            inter.append((prev_last, cyc[0]))
        prev_last = cyc[1]
    return SwapGraph(positions=pos, loops=loops, inter_edges=inter)


def random_graph(rng: random.Random, max_vertices: int = 40) -> SwapGraph:
    """Random valid swap graph grown loop by loop.

    Each new loop either hangs off an existing one through an inter-loop edge
    or shares exactly two vertices with one existing loop (with or without a
    shared edge).
    """
    loops = []
    pos = {}
    vid = 0

    def fresh(n):
        nonlocal vid
        ids = list(range(vid, vid + n))
        vid += n
        base_x = 4.0 * len(loops)
        for k, v in enumerate(ids):
            t = 2 * math.pi * k / n
            pos[v] = Point2(base_x + math.cos(t), math.sin(t))
        return ids

    inter = []
    loops.append(fresh(rng.randint(3, 7)))
    shared_used = set()  # loops already sharing vertices, to keep overlaps pairwise
    while vid < max_vertices - 7 or len(loops) < 2:
        mode = rng.random()
        host_idx = rng.randrange(len(loops))
        host = loops[host_idx]
        size = rng.randint(3, 7)
        if mode < 0.55 or host_idx in shared_used:
            cyc = fresh(size)
            u = rng.choice(host)
            w = rng.choice(cyc)
            inter.append((u, w))
        else:
            # share two host vertices, adjacent (shared edge) or not
            k = rng.randrange(len(host))
            if rng.random() < 0.5:
                s1, s2 = host[k], host[(k + 1) % len(host)]
                body = fresh(max(1, size - 2))
                cyc = [s1, s2] + body
            else:
                k2 = (k + 2) % len(host)
                if k2 == k:
                    continue
                s1, s2 = host[k], host[k2]
                body = fresh(max(2, size - 2))
                half = max(1, len(body) // 2)
                cyc = [s1] + body[:half] + [s2] + body[half:]
            loops.append(cyc)
            shared_used.add(host_idx)
            shared_used.add(len(loops) - 1)
            continue
        loops.append(cyc)
        if vid >= max_vertices:
            break
    g = SwapGraph(positions=pos, loops=loops, inter_edges=inter)
    assert not g.violations(), g.violations()
    return g


def random_occupancy(rng: random.Random, g: SwapGraph, n_vacant: int = 1) -> Occupancy:
    verts = g.vertex_ids()
    vacant = set(rng.sample(verts, n_vacant))
    mapping = {}
    agent = 0
    for v in verts:
        if v in vacant:
            mapping[v] = None
        else:
            mapping[v] = agent
            agent += 1
    return Occupancy(mapping)


def shuffled_goal(rng: random.Random, g: SwapGraph, start: Occupancy) -> Occupancy:
    verts = g.vertex_ids()
    contents = [start.mapping[v] for v in verts]
    rng.shuffle(contents)
    return Occupancy(dict(zip(verts, contents)))
