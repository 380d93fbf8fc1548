"""Swap graph data structure, slot table, validity checks, and loop-hop distances.

A swap graph partitions its vertices into K > 1 loops (unique simple cycles
of >= 3 vertices). Two loops may share exactly 2 vertices and at most 1 edge.
Remaining edges connect loops and are kept in a separate inter-loop set.
Agents occupy vertices; one vertex stays vacant so positions can be permuted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidGraph
from .geometry import Point2

VACANT = None


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass
class SwapGraph:
    """Vertices with positions, loop cycles, and inter-loop edges.

    ``loops[i]`` lists vertex ids in cycle order; consecutive entries (and the
    wrap-around pair) are the loop's edges, and ``slot[i]`` maps each vertex
    of loop i to its place in that order. ``inter_edges`` holds the
    loop-to-loop connector edges, disjoint from every loop's cycle edges.
    """

    positions: dict[int, Point2]
    loops: list[list[int]]
    inter_edges: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.inter_edges = [edge_key(*e) for e in self.inter_edges]
        self._build_caches()

    def _build_caches(self):
        self.slot: list[dict[int, int]] = [{v: p for p, v in enumerate(c)} for c in self.loops]
        self._loops_of: dict[int, list[int]] = {v: [] for v in self.positions}
        for li, cyc in enumerate(self.loops):
            for v in cyc:
                if v in self._loops_of:
                    self._loops_of[v].append(li)
        self._loop_edges: list[set[tuple[int, int]]] = []
        for cyc in self.loops:
            es = set()
            m = len(cyc)
            for k in range(m):
                es.add(edge_key(cyc[k], cyc[(k + 1) % m]))
            self._loop_edges.append(es)
        self._edges: set[tuple[int, int]] = set(self.inter_edges)
        for es in self._loop_edges:
            self._edges |= es
        self._adj: dict[int, list[int]] = {v: [] for v in self.positions}
        for u, v in self._edges:
            if u in self._adj and v in self._adj:
                self._adj[u].append(v)
                self._adj[v].append(u)
        for v in self._adj:
            self._adj[v].sort()

    # --- basic accessors -------------------------------------------------

    @property
    def K(self) -> int:
        return len(self.loops)

    def vertex_ids(self) -> list[int]:
        return sorted(self.positions)

    def num_vertices(self) -> int:
        return len(self.positions)

    def edges(self) -> set[tuple[int, int]]:
        return set(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self._edges

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def loops_of(self, v: int) -> list[int]:
        return self._loops_of[v]

    def loops_containing_edge(self, u: int, v: int) -> list[int]:
        e = edge_key(u, v)
        return [li for li, es in enumerate(self._loop_edges) if e in es]

    def common_loops(self, u: int, v: int) -> list[int]:
        return sorted(set(self._loops_of.get(u, ())) & set(self._loops_of.get(v, ())))

    # --- validation -------------------------------------------------------

    def violations(self) -> list[str]:
        """Every broken structural rule, by name; empty means valid."""
        out = []
        if self.K <= 1:
            out.append("K>1: graph needs more than one loop")
        seen = set(self.positions)
        for li, cyc in enumerate(self.loops):
            if len(cyc) < 3:
                out.append(f"loop {li}: fewer than 3 vertices")
            if len(set(cyc)) != len(cyc):
                out.append(f"loop {li}: repeated vertex in cycle")
            for v in cyc:
                if v not in seen:
                    out.append(f"loop {li}: unknown vertex {v}")
        covered = set()
        for cyc in self.loops:
            covered |= set(cyc)
        missing = set(self.positions) - covered
        if missing:
            out.append(f"vertex partition: vertices {sorted(missing)} in no loop")
        for li in range(self.K):
            for lj in range(li + 1, self.K):
                shared_v = set(self.loops[li]) & set(self.loops[lj])
                if len(shared_v) not in (0, 2):
                    out.append(
                        f"overlap ∈ {{0,2}}: loops {li},{lj} share {len(shared_v)} vertices"
                    )
                shared_e = self._loop_edges[li] & self._loop_edges[lj]
                if len(shared_e) > 1:
                    out.append(
                        f"edge overlap ∈ {{0,1}}: loops {li},{lj} share {len(shared_e)} edges"
                    )
        inter = set(self.inter_edges)
        if len(inter) != len(self.inter_edges):
            out.append("inter-loop edges: duplicates")
        for li, es in enumerate(self._loop_edges):
            dup = es & inter
            if dup:
                out.append(f"loop/inter edge disjointness: loop {li} shares {sorted(dup)}")
        for u, v in self.inter_edges:
            if u == v:
                out.append(f"simple graph: self-loop at {u}")
            if u not in self.positions or v not in self.positions:
                out.append(f"inter edge ({u},{v}): unknown endpoint")
        if self.positions and not self._connected():
            out.append("connectivity: graph is not connected")
        return out

    def _connected(self) -> bool:
        start = next(iter(self.positions))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.positions)

    def require_valid(self):
        v = self.violations()
        if v:
            raise InvalidGraph(v)


@dataclass
class Occupancy:
    """Mapping from vertex id to agent id, with vacant vertices set to None."""

    mapping: dict[int, Optional[int]]

    def copy(self) -> "Occupancy":
        return Occupancy(dict(self.mapping))

    def vacant_vertices(self) -> list[int]:
        return sorted(v for v, a in self.mapping.items() if a is VACANT)

    def vacant_vertex(self) -> int:
        vac = self.vacant_vertices()
        if len(vac) != 1:
            raise ValueError(f"expected exactly one vacancy, found {len(vac)}")
        return vac[0]

    def agents(self) -> set:
        return {a for a in self.mapping.values() if a is not VACANT}

    def check(self, g: SwapGraph):
        if set(self.mapping) != set(g.positions):
            raise ValueError("occupancy does not cover the graph's vertex set")
        agents = [a for a in self.mapping.values() if a is not VACANT]
        if len(agents) != len(set(agents)):
            raise ValueError("duplicate agent ids in occupancy")


# --- loop-hop distances ---------------------------------------------------


def _hop_states(g: SwapGraph, v: int):
    return [(v, li) for li in g.loops_of(v)]


def _hop_search(g: SwapGraph, v: int):
    """0-1 BFS over (vertex, loop-assignment) states from vertex v.

    Returns dict state -> minimal number of loop-assignment changes along
    any path from v reaching that state.
    """
    INF = float("inf")
    dist: dict[tuple[int, int], float] = {}
    from collections import deque

    dq = deque()
    for s in _hop_states(g, v):
        dist[s] = 0
        dq.append(s)
    while dq:
        s = dq.popleft()
        d = dist[s]
        u, li = s
        for w in g.neighbors(u):
            for lj in g.loops_of(w):
                cost = 0 if lj == li else 1
                t = (w, lj)
                nd = d + cost
                if nd < dist.get(t, INF):
                    dist[t] = nd
                    if cost == 0:
                        dq.appendleft(t)
                    else:
                        dq.append(t)
        # switching assignment at the same vertex costs nothing extra here:
        # a path may re-enter the vertex list with a different loop only via
        # an edge, so no same-vertex transition is added.
    return dist


def vertex_distance(g: SwapGraph, v: int, v2: int) -> int:
    """Minimal number of loop-assignment changes over paths from v to v2."""
    if v == v2:
        return 0
    dist = _hop_search(g, v)
    best = min(
        (dist.get((v2, lj), float("inf")) for lj in g.loops_of(v2)), default=float("inf")
    )
    if best == float("inf"):
        raise InvalidGraph(["connectivity: no path between query vertices"])
    return int(best)


def vertex_loop_distance(g: SwapGraph, v: int, loop: int) -> int:
    """Minimal loop-assignment changes to end assigned to the given loop."""
    if loop in g.loops_of(v):
        return 0
    dist = _hop_search(g, v)
    best = min(
        (dist.get((u, loop), float("inf")) for u in g.loops[loop]), default=float("inf")
    )
    if best == float("inf"):
        raise InvalidGraph(["connectivity: no path from vertex to loop"])
    return int(best)

