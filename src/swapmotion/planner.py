"""Constructive discrete planner: loop rotations, vacancy swaps, exchanges.

Two operation kinds rearrange agents on a swap graph: rotating every agent
of one loop along its cycle, and swapping an agent with the adjacent vacant
vertex. Vacancies carry no label, so any vacant vertex may be the vacant
endpoint of a swap. Pairwise exchanges that restore every other vertex
(including the vacancy) are built from small verified op patterns:

* parked core: with the vacancy parked just outside a loop, two consecutive
  slots of that loop are swapped in 6 ops (rotate, 3 vacancy swaps through
  the portal edge, rotate back). Their net effect is only that the two slots'
  contents trade places, every other vertex and the parked vacancy restored,
  so the planner's machine emits the 6 ops and applies that effect directly
  instead of replaying three rotations of the whole loop. When one of the
  two slots holds another vacancy, the same effect is one swap along their
  ring edge; it goes just before a trailing rotation of the loop, so that
  rotation still merges with the next core's,
* cross core: two endpoints of a loop-to-loop edge are swapped in 5 ops with
  the vacancy staged on a cycle neighbor,
* bubble chains of parked cores handle arbitrary same-loop pairs, and
* a conjugation chain along a shortest path handles arbitrary pairs.

A full permutation plan moves one vacancy (the hole) to a vertex the goal
leaves vacant, closes every chain of misplaced agents that ends on another
vacancy into a cycle, and realizes each cycle as a chain of exchanges,
giving the quadratic worst-case op bound. An exchange of an agent with an
adjacent vacancy is a single swap.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import inf as math_inf
from typing import Optional, Union

from .errors import AssignmentMismatch, IllegalOp, PlannerError
from .swap_graph import VACANT, Occupancy, SwapGraph, edge_key

_MAX_RESTAGE_DEPTH = 8


@dataclass(frozen=True)
class LoopRotation:
    """Cyclic shift of all agents in one loop by `steps` slots."""

    loop: int
    steps: int


@dataclass(frozen=True)
class VacancySwap:
    """Exchange along one edge; one endpoint must be vacant."""

    u: int
    v: int

    @property
    def edge(self) -> tuple[int, int]:
        return edge_key(self.u, self.v)


SwapOp = Union[LoopRotation, VacancySwap]


@dataclass
class Plan:
    ops: list[SwapOp]
    start: Occupancy
    goal: Occupancy
    # what plan_permutation did: cycles, exchanges, vacancy_swaps, idle_swaps,
    # core_swaps (parked cores as one ring-edge swap), ops_emitted, ops
    counters: dict = field(default_factory=dict, compare=False)


def _short_steps(steps: int, m: int) -> int:
    """`steps` slots around a loop of m, taken the shorter way (0: no move)."""
    k = steps % m
    return k - m if k > m - k else k


def _apply_inplace(mapping: dict, g: SwapGraph, op: SwapOp):
    if isinstance(op, LoopRotation):
        if not 0 <= op.loop < g.K:
            raise IllegalOp(f"no loop {op.loop}")
        cyc = g.loops[op.loop]
        m = len(cyc)
        k = op.steps % m
        if k == 0:
            return
        old = [mapping[v] for v in cyc]
        for p in range(m):
            mapping[cyc[(p + k) % m]] = old[p]
    elif isinstance(op, VacancySwap):
        if not g.has_edge(op.u, op.v):
            raise IllegalOp(f"edge ({op.u},{op.v}) not in graph")
        if mapping[op.u] is not VACANT and mapping[op.v] is not VACANT:
            raise IllegalOp(f"swap ({op.u},{op.v}): neither endpoint vacant")
        mapping[op.u], mapping[op.v] = mapping[op.v], mapping[op.u]
    else:
        raise IllegalOp(f"unknown op {op!r}")


def apply_ops(occ: Occupancy, g: SwapGraph, ops) -> Occupancy:
    """The occupancy after applying `ops` in order; `occ` is left as is."""
    cur = occ.copy()
    for op in ops:
        _apply_inplace(cur.mapping, g, op)
    return cur


def reverse_ops(ops) -> list[SwapOp]:
    """Ops undoing a sequence: rotations negated, swaps repeated, reversed."""
    out = []
    for op in reversed(list(ops)):
        if isinstance(op, LoopRotation):
            out.append(LoopRotation(op.loop, -op.steps))
        else:
            out.append(op)
    return out


class _Phantom:
    """Internal label of a surplus vacancy: routing moves it like an inert
    agent, and a swap may use it as the vacant endpoint. Each is made once
    per machine, so it hashes and compares by identity."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def __repr__(self) -> str:
        return f"_Phantom({self.k})"


class _Machine:
    """Builds op sequences against a live occupancy with legality checks.

    Internally every vacancy except one designated hole is relabeled as a
    phantom agent, so the routing routines can assume a unique hole. A swap
    may use a phantom as its vacant endpoint as well as the hole: emitted ops
    stay legal on the real occupancy because phantom vertices really are
    vacant. A swap with both endpoints vacant (the hole stepping over a
    phantom) moves no agent; `idle` lists the indices of those ops.
    """

    def __init__(self, g: SwapGraph, occ: Occupancy, edge_cost=None):
        self.g = g
        self.edges = g.edges()
        self.edge_cost = edge_cost or {}
        # (neighbour, edge cost) of each vertex, in `g.neighbors` order
        self.neighbor_costs = {
            u: [(v, self.cost(u, v)) for v in g.neighbors(u)] for u in g.vertex_ids()
        }
        occ.check(g)
        vacants = occ.vacant_vertices()
        if not vacants:
            raise PlannerError("occupancy has no vacancy")
        self.hole = vacants[0]
        self.state: dict[int, object] = {}
        self.pos: dict[object, int] = {}
        for k, v in enumerate(vacants[1:]):
            self.state[v] = _Phantom(k)
        for v, a in occ.mapping.items():
            if a is not VACANT:
                self.state[v] = a
        self.state[self.hole] = None
        for v, c in self.state.items():
            if c is not None:
                self.pos[c] = v
        self.ops: list[SwapOp] = []
        self.idle: list[int] = []
        self.core_swaps = 0

    # --- primitive emission ----------------------------------------------

    def _emit_rot(self, li: int, steps: int) -> int:
        """Append loop li's rotation by `steps`, taken the shorter way; the
        steps appended (0: none). The state is the caller's to update."""
        k = _short_steps(steps, len(self.g.loops[li]))
        if k:
            self.ops.append(LoopRotation(li, k))
        return k

    def rot(self, li: int, steps: int):
        k = self._emit_rot(li, steps)
        if k == 0:
            return
        cyc = self.g.loops[li]
        state, pos = self.state, self.pos
        old = [state[v] for v in cyc]
        for c, tgt in zip(old, cyc[k:] + cyc[:k]):
            state[tgt] = c
            if c is None:
                self.hole = tgt
            else:
                pos[c] = tgt

    def swap(self, u: int, v: int):
        if ((u, v) if u <= v else (v, u)) not in self.edges:
            raise PlannerError(f"machine swap on non-edge ({u},{v})")
        state = self.state
        cu, cv = state[u], state[v]
        u_vacant = cu is None or type(cu) is _Phantom
        v_vacant = cv is None or type(cv) is _Phantom
        if not (u_vacant or v_vacant):
            raise PlannerError(f"machine swap ({u},{v}) without a vacancy")
        if u_vacant and v_vacant:
            self.idle.append(len(self.ops))
        state[u], state[v] = cv, cu
        for c, tgt in ((cu, v), (cv, u)):
            if c is None:
                self.hole = tgt
            else:
                self.pos[c] = tgt
        self.ops.append(VacancySwap(u, v))

    def vacant(self, v: int) -> bool:
        return self.state[v] is None or isinstance(self.state[v], _Phantom)

    def walk(self, path: list[int]):
        for a, b in zip(path, path[1:]):
            self.swap(a, b)

    def emit_reverse(self, ops: list[SwapOp]):
        for op in reverse_ops(ops):
            if isinstance(op, LoopRotation):
                self.rot(op.loop, op.steps)
            else:
                self.swap(op.u, op.v)

    def tail(self, mark: int) -> list[SwapOp]:
        return self.ops[mark:]

    # --- hole routing ------------------------------------------------------

    def cost(self, u: int, v: int) -> float:
        return self.edge_cost.get(edge_key(u, v), 1.0)

    def hole_path(self, targets, avoid=frozenset()) -> Optional[list[int]]:
        """Cheapest hole walk to any target vertex, skipping `avoid`."""
        targets = set(targets)
        if self.hole in targets:
            return [self.hole]
        if not targets:
            return None
        dists = self._walk_distances(targets, avoid=avoid)
        if not dists:
            return None
        best = min(dists, key=lambda w: (dists[w][0], w))
        return dists[best][1]

    # --- parked core and friends -------------------------------------------

    def ring_portals(self, li: int) -> list[tuple[int, int]]:
        """Every edge (u, w) from a vertex u of loop li to a w off it, in
        cycle order of u and then `g.neighbors` order of w."""
        ring = self.g.slot[li]
        return [(u, w) for u in self.g.loops[li] for w in self.g.neighbors(u) if w not in ring]

    def park_hole(self, li: int, near: int | None = None) -> tuple[int, int, list[SwapOp]]:
        """Move the hole to a seat just outside loop li; returns (u, w, ops).

        `near` is a preferred ring vertex: portals close to it are favored so
        the core's alignment rotations stay short.
        """
        cyc = self.g.loops[li]
        slot = self.g.slot[li]
        m = len(cyc)
        mark = len(self.ops)
        portals = self.ring_portals(li)

        def ring_gap(u, v):
            d = (slot[u] - slot[v]) % m
            return min(d, m - d)

        if self.hole in slot:
            if not portals:
                raise PlannerError(f"loop {li} has no edge leaving it")

            def rot_cost(portal):
                # the park rotation drags the ring contents along, so portal
                # choice does not change the later core alignment; the cost is
                # the rotation to reach the portal plus the portal edge itself
                # (crossed multiple times by the core)
                return (ring_gap(portal[0], self.hole) + 4 * self.cost(*portal), portal)

            u, w = min(portals, key=rot_cost)
            self.rot(li, slot[u] - slot[self.hole])
            self.swap(u, w)
        else:
            # walk through the complement of the ring to a seat bordering it
            seats: dict[int, int] = {}
            pref = cyc[0] if near is None else near
            for u, w in portals:
                if w not in seats or ring_gap(u, pref) < ring_gap(seats[w], pref):
                    seats[w] = u
            dists = self._walk_distances(set(seats), avoid=slot)
            if not dists:
                raise PlannerError(f"hole cannot reach loop {li} from outside")

            def seat_cost(w):
                cost = dists[w][0] + 4 * self.cost(seats[w], w)
                if near is not None:
                    cost += 2 * ring_gap(seats[w], near)
                return (cost, w)

            w = min(dists, key=seat_cost)
            self.walk(dists[w][1])
            u = seats[w]
        return u, w, self.tail(mark)

    def _walk_distances(self, targets: set, avoid=frozenset()):
        """Cheapest walk paths from the hole to each reachable target vertex.

        Edge costs from `edge_cost` capture realization expense, so routing
        prefers short ring steps over long connector corridors.
        """
        import heapq

        prev: dict[int, Optional[int]] = {}
        best = {self.hole: 0.0}
        heap = [(0.0, self.hole)]
        found: dict[int, tuple[float, list[int]]] = {}
        while heap:
            d, u = heapq.heappop(heap)
            if d > best.get(u, math_inf):
                continue
            if u in targets and u not in found:
                path = [u]
                while path[-1] != self.hole:
                    path.append(prev[path[-1]])
                path.reverse()
                found[u] = (d, path)
                if len(found) == len(targets):
                    break
                continue
            if u in avoid and u != self.hole:
                continue
            for v, c in self.neighbor_costs[u]:
                if v in avoid and v not in targets:
                    continue
                nd = d + c
                if nd < best.get(v, math_inf):
                    best[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        return found

    def core_consecutive(self, li: int, u: int, w: int, p: int):
        """Swap contents of cycle slots (p, p+1) with the hole parked at w.

        When the contents X of slot p and Y of slot p+1 are both agents, the
        ops are rot(-d) (slot p to the portal vertex u), swap(u, w),
        swap(u, nxt), rot(-1), swap(u, w), rot(d + 1). Their net effect is
        that X and Y trade places and every other vertex, the hole at w too,
        is restored, so that is applied directly.

        A phantom's vertex is vacant, so when exactly one of X and Y is a
        phantom the same effect is one swap along the ring edge of the two
        slots. When the last op is a rotation of this loop (the previous
        core's rotation back), the swap goes just before it, on the slots
        that rotation moves to p and p+1: the rotation then still merges with
        the next core's rot(-d), and a bubble chain stays short. When both
        are phantoms, no agent moves and no op is emitted.
        """
        cyc = self.g.loops[li]
        slot = self.g.slot[li]
        if self.hole != w or w in slot:
            raise PlannerError(f"core on loop {li}: hole not parked at {w} off the loop")
        if ((u, w) if u <= w else (w, u)) not in self.edges:
            raise PlannerError(f"machine swap on non-edge ({u},{w})")
        m = len(cyc)
        vx, vy = cyc[p % m], cyc[(p + 1) % m]
        state, ops = self.state, self.ops
        x, y = state[vx], state[vy]
        x_phantom, y_phantom = type(x) is _Phantom, type(y) is _Phantom
        if x_phantom != y_phantom:
            self.core_swaps += 1
            last = ops[-1] if ops else None
            if type(last) is LoopRotation and last.loop == li:
                s = last.steps
                ops.insert(-1, VacancySwap(cyc[(p - s) % m], cyc[(p + 1 - s) % m]))
            else:
                ops.append(VacancySwap(vx, vy))
        elif not x_phantom:
            a0 = slot[u]
            d = (p - a0) % m
            self._emit_rot(li, -d)
            ops.append(VacancySwap(u, w))
            ops.append(VacancySwap(u, cyc[(a0 + 1) % m]))
            self._emit_rot(li, -1)
            ops.append(VacancySwap(u, w))
            self._emit_rot(li, d + 1)
        state[vx], state[vy] = y, x
        self.pos[x], self.pos[y] = vy, vx

    def bubble(self, li: int, u: int, w: int, pa: int, pb: int):
        """Swap contents of cycle slots pa, pb via consecutive parked cores."""
        cyc = self.g.loops[li]
        m = len(cyc)
        gap_fwd = (pb - pa) % m
        if gap_fwd <= m - gap_fwd:
            step, gap = 1, gap_fwd
        else:
            step, gap = -1, m - gap_fwd
        pairs = []
        for k in range(gap):
            s = (pa + step * k) % m
            pairs.append(s if step == 1 else (s - 1) % m)
        chain = pairs + pairs[-2::-1]
        for p in chain:
            self.core_consecutive(li, u, w, p)


def _exchange_vertices(m: _Machine, u: int, v: int, depth: int = 0):
    """Swap contents of vertices u, v, restoring every other vertex."""
    if depth > _MAX_RESTAGE_DEPTH:
        raise PlannerError("exchange restaging exceeded depth bound")
    if u == v:
        return
    g = m.g
    if g.has_edge(u, v) and (m.vacant(u) or m.vacant(v)):
        m.swap(u, v)
        return
    if m.hole in (u, v):
        raise PlannerError("non-adjacent exchange with the vacancy")
    common = g.common_loops(u, v)
    consec = [li for li in g.loops_containing_edge(u, v) if li in common]
    if consec:
        _ring_pair_exchange(m, consec[0], u, v)
    elif common:
        _ring_pair_exchange(m, common[0], u, v)
    elif g.has_edge(u, v):
        _cross_exchange(m, u, v, depth)
    else:
        _chain_exchange(m, u, v, depth)


def _ring_pair_exchange(m: _Machine, li: int, u: int, v: int):
    cu, cv = m.state[u], m.state[v]
    pu, pw, park = m.park_hole(li, near=u)
    slot = m.g.slot[li]
    m.bubble(li, pu, pw, slot[m.pos[cu]], slot[m.pos[cv]])
    m.emit_reverse(park)


def _cross_exchange(m: _Machine, u: int, v: int, depth: int):
    """Swap across a loop-to-loop edge, staging the hole on a cycle neighbor."""
    g = m.g
    cu, cv = m.state[u], m.state[v]
    cands = {}
    for anchor, other in ((u, v), (v, u)):
        for li in g.loops_of(anchor):
            cyc = g.loops[li]
            k = g.slot[li][anchor]
            for sigma in (1, -1):
                n = cyc[(k + sigma) % len(cyc)]
                if n not in (u, v):
                    cands.setdefault(n, (anchor, other, li, sigma))
    path = m.hole_path(cands.keys(), avoid={u, v})
    if path is None:
        # rare: the pair separates the hole from every staging seat (both
        # endpoints are connector hubs). Rotate each endpoint's ring so its
        # content steps off the walk path, walk the hole straight through to
        # a seat, redo the exchange on the shifted homes, and unwind.
        path = m.hole_path(cands.keys())
        if path is None:
            raise PlannerError("no staging seat for cross exchange")
        mark = len(m.ops)
        for p in (u, v):
            if p not in path[1:]:
                continue
            li = g.loops_of(p)[0]
            cyc = g.loops[li]
            pos = g.slot[li][p]
            on_path = set(path)
            for k in range(1, len(cyc)):
                for signed in (k, -k):
                    if cyc[(pos + signed) % len(cyc)] not in on_path:
                        m.rot(li, signed)
                        break
                else:
                    continue
                break
            else:
                raise PlannerError("cannot shield cross-exchange content")
        m.walk(path)
        shield = m.tail(mark)
        _exchange_vertices(m, m.pos[cu], m.pos[cv], depth + 1)
        m.emit_reverse(shield)
        return
    mark = len(m.ops)
    m.walk(path)
    staged = m.tail(mark)
    anchor, other, li, sigma = cands[path[-1]]
    m.swap(anchor, path[-1])
    m.swap(anchor, other)
    m.rot(li, -sigma)
    m.swap(anchor, other)
    m.rot(li, sigma)
    m.emit_reverse(staged)


def _chain_exchange(m: _Machine, u: int, v: int, depth: int):
    """Swap distant vertices via a chain of directly exchangeable waypoints.

    The shortest path is compressed so each hop is one same-loop exchange or
    one connector-edge exchange; the first hop is exchanged, the rest handled
    recursively with the vacancy advanced along, and the first hop exchanged
    again, which nets out to the endpoint transposition.
    """
    path = _shortest_path(m.g, u, v)
    if path is None:
        raise PlannerError("graph not connected")
    way = _compress_waypoints(m, path)
    step = way[1]
    _exchange_vertices(m, way[0], step, depth)
    # keep the hole near the moving frontier so later steps stay local
    mark = len(m.ops)
    if m.hole not in m.g.neighbors(step) and m.hole != step:
        adv = m.hole_path(
            [x for x in m.g.neighbors(step) if x not in (step, way[-1])],
            avoid={step, way[-1]},
        )
        if adv is not None:
            m.walk(adv)
    advance = m.tail(mark)
    _exchange_vertices(m, step, way[-1], depth)
    m.emit_reverse(advance)
    _exchange_vertices(m, way[0], step, depth)


def _compress_waypoints(m: _Machine, path: list[int]) -> list[int]:
    """Waypoints along a path such that consecutive ones are exchangeable in
    one unit (sharing a loop or an edge); vacancy endpoints stay adjacent."""
    g = m.g
    way = [path[0]]
    k = 0
    n = len(path)
    while k < n - 1:
        if way[-1] == m.hole:
            way.append(path[k + 1])
            k += 1
            continue
        best = k + 1
        j = k + 2
        while j < n:
            if g.common_loops(way[-1], path[j]) or g.has_edge(way[-1], path[j]):
                best = j
                j += 1
            else:
                break
        while (
            path[best] == m.hole
            and best > k + 1
            and not g.has_edge(way[-1], path[best])
        ):
            best -= 1
        way.append(path[best])
        k = best
    return way


def _shortest_path(g: SwapGraph, u: int, v: int) -> Optional[list[int]]:
    if u == v:
        return [u]
    prev = {u: None}
    q = deque([u])
    while q:
        x = q.popleft()
        for w in g.neighbors(x):
            if w in prev:
                continue
            prev[w] = x
            if w == v:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            q.append(w)
    return None


def _check_exchange_contract(before: dict, after: dict, v: int, v2: int):
    for x, c in after.items():
        want = before[x]
        if x == v:
            want = before[v2]
        elif x == v2:
            want = before[v]
        if c != want:
            raise PlannerError(f"exchange contract broken at vertex {x}")


def exchange(
    g: SwapGraph, occ: Occupancy, v: int, v2: int, edge_cost=None
) -> list[SwapOp]:
    """Ops exchanging the agents at v and v2; all other vertices restored."""
    if v == v2:
        return []
    occ.check(g)
    if occ.mapping[v] is VACANT or occ.mapping[v2] is VACANT:
        raise PlannerError("exchange endpoints must be occupied")
    m = _Machine(g, occ, edge_cost)
    before = dict(m.state)
    _exchange_vertices(m, v, v2)
    _check_exchange_contract(before, m.state, v, v2)
    return simplify_ops(m.ops, g)


def simplify_ops(ops, g: SwapGraph) -> list[SwapOp]:
    """Merge adjacent rotations of one loop and cancel repeated swaps, in one
    pass: each op meets the top of the output, so no two adjacent ops reduce."""
    out: list[SwapOp] = []
    for op in ops:
        if isinstance(op, LoopRotation):
            m = len(g.loops[op.loop])
            k = _short_steps(op.steps, m)
            if k == 0:
                continue
            if out and isinstance(out[-1], LoopRotation) and out[-1].loop == op.loop:
                k2 = _short_steps(out[-1].steps + k, m)
                out.pop()
                if k2 != 0:
                    out.append(LoopRotation(op.loop, k2))
                continue
            out.append(LoopRotation(op.loop, k))
        else:
            if out and isinstance(out[-1], VacancySwap) and out[-1].edge == op.edge:
                out.pop()
                continue
            out.append(op)
    return out


def plan_permutation(
    g: SwapGraph, start: Occupancy, goal: Occupancy, edge_cost=None
) -> Plan:
    """Plan reaching `goal` from `start` via exchanges along permutation cycles.

    Vacancies are interchangeable: only agents have targets. The hole is
    first routed to a vertex the goal leaves vacant, so no agent targets it.
    A chain of misplaced agents that ends on another vacancy is closed into a
    cycle back to its first vertex. Each cycle is realized with pairwise
    exchanges of consecutive vertices and skips its longest pair.
    """
    g.require_valid()
    start.check(g)
    goal.check(g)
    if start.agents() != goal.agents():
        raise AssignmentMismatch(
            f"start agents {sorted(start.agents(), key=repr)} != goal agents "
            f"{sorted(goal.agents(), key=repr)}"
        )
    if not start.vacant_vertices():
        raise AssignmentMismatch("occupancy leaves no vertex vacant")

    m = _Machine(g, start, edge_cost)
    goal_hole = goal.vacant_vertices()[0]
    if m.hole != goal_hole:
        path = _shortest_path(g, m.hole, goal_hole)
        if path is None:
            raise PlannerError("graph not connected")
        m.walk(path)

    target_of = {a: vtx for vtx, a in goal.mapping.items() if a is not VACANT}
    perm = {m.pos[a]: tgt for a, tgt in target_of.items() if m.pos[a] != tgt}
    for head in sorted(set(perm) - set(perm.values())):
        end = perm[head]
        while end in perm:
            end = perm[end]
        perm[end] = head  # `end` holds a phantom: the chain closes on it
    cycles = []
    for cyc in _permutation_cycles(perm):
        pairs = zip(cyc, cyc[1:] + cyc[:1])
        hops = [len(_shortest_path(g, a, b)) for a, b in pairs]
        k = hops.index(max(hops)) + 1
        cycles.append(cyc[k:] + cyc[:k])
    cycles.sort(key=lambda c: (-len(c), min(c)))
    vacancy_swaps = 0
    for cyc in cycles:
        for k in range(len(cyc) - 1, 0, -1):
            mark = len(m.ops)
            _exchange_vertices(m, cyc[k], cyc[k - 1])
            vacancy_swaps += len(m.ops) == mark + 1

    for a, tgt in target_of.items():
        if m.pos[a] != tgt:
            raise PlannerError("plan failed to reach the goal occupancy")
    # a swap between two vacant vertices moves no agent: drop it
    idle = set(m.idle)
    moving = [op for k, op in enumerate(m.ops) if k not in idle]
    ops = simplify_ops(moving, g)
    final = apply_ops(start, g, ops)
    if final.mapping != goal.mapping:
        raise PlannerError("simplified plan does not reach the goal")
    counters = {
        "cycles": len(cycles),
        "exchanges": sum(len(c) - 1 for c in cycles),
        "vacancy_swaps": vacancy_swaps,
        "idle_swaps": len(m.ops) - len(moving),
        "core_swaps": m.core_swaps,
        "ops_emitted": len(m.ops),
        "ops": len(ops),
    }
    return Plan(ops=ops, start=start.copy(), goal=goal.copy(), counters=counters)


def _permutation_cycles(perm: dict[int, int]) -> list[list[int]]:
    seen = set()
    out = []
    for v in sorted(perm):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        nxt = perm[v]
        while nxt != v:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        out.append(cyc)
    return out


def execute(plan: Plan, g: SwapGraph) -> Occupancy:
    """Run a plan from its start occupancy; raises IllegalOp on bad plans."""
    return apply_ops(plan.start, g, plan.ops)
