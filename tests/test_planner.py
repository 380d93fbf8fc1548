import itertools
import math
import random

import pytest

from graph_fixtures import (
    four_loop_example,
    loop_chain,
    random_graph,
    random_occupancy,
    shuffled_goal,
    two_triangles,
)
from planner_reference import core_by_replay, drop_idle_swaps_by_replay
from swapmotion import planner
from swapmotion.conversion import realization_edge_cost
from swapmotion.errors import AssignmentMismatch, IllegalOp, PlannerError
from swapmotion.planner import (
    LoopRotation,
    VacancySwap,
    apply_ops,
    exchange,
    execute,
    plan_permutation,
    reverse_ops,
    simplify_ops,
)
from swapmotion.geometry import Point2
from swapmotion.swap_graph import Occupancy, SwapGraph, vertex_distance


def occupancy_with_hole(g, hole):
    return Occupancy({v: (None if v == hole else 100 + v) for v in g.vertex_ids()})


class TestApplyOp:
    def test_full_rotation_is_identity(self):
        g = four_loop_example()
        occ = occupancy_with_hole(g, 1)
        out = apply_ops(occ, g, [LoopRotation(0, 4)])
        assert out.mapping == occ.mapping

    def test_swap_with_vacancy(self):
        g = four_loop_example()
        occ = occupancy_with_hole(g, 1)
        out = apply_ops(occ, g, [VacancySwap(1, 2)])
        assert out.mapping[1] == 102 and out.mapping[2] is None

    def test_swap_two_occupied_is_illegal(self):
        g = four_loop_example()
        occ = occupancy_with_hole(g, 1)
        with pytest.raises(IllegalOp):
            apply_ops(occ, g, [VacancySwap(2, 3)])

    def test_swap_missing_edge_is_illegal(self):
        g = four_loop_example()
        occ = occupancy_with_hole(g, 1)
        with pytest.raises(IllegalOp):
            apply_ops(occ, g, [VacancySwap(1, 17)])


class TestExchanges:
    def test_exchange_self_is_empty(self):
        g = two_triangles()
        occ = occupancy_with_hole(g, 4)
        assert exchange(g, occ, 1, 1) == []

    def test_exhaustive_small_graphs(self):
        for g in (two_triangles(), loop_chain(3)):
            verts = g.vertex_ids()
            for hole in verts:
                occ = occupancy_with_hole(g, hole)
                for v, v2 in itertools.combinations(
                    [x for x in verts if x != hole], 2
                ):
                    out = apply_ops(occ, g, exchange(g, occ, v, v2))
                    expect = dict(occ.mapping)
                    expect[v], expect[v2] = expect[v2], expect[v]
                    assert out.mapping == expect

    def test_same_loop_contract(self):
        g = four_loop_example()
        occ = occupancy_with_hole(g, 16)
        assert g.common_loops(6, 8)
        out = apply_ops(occ, g, exchange(g, occ, 6, 8))
        expect = dict(occ.mapping)
        expect[6], expect[8] = expect[8], expect[6]
        assert out.mapping == expect

    def test_connected_loops_contract(self):
        g = four_loop_example()
        occ = occupancy_with_hole(g, 2)
        assert vertex_distance(g, 12, 15) == 1
        out = apply_ops(occ, g, exchange(g, occ, 12, 15))
        expect = dict(occ.mapping)
        expect[12], expect[15] = expect[15], expect[12]
        assert out.mapping == expect

    def test_far_pair_on_figure_graph(self):
        g = four_loop_example()
        occ = occupancy_with_hole(g, 11)
        out = apply_ops(occ, g, exchange(g, occ, 2, 16))
        expect = dict(occ.mapping)
        expect[2], expect[16] = expect[16], expect[2]
        assert out.mapping == expect

    def test_random_locality_and_envelope(self):
        rng = random.Random(10)
        worst = 0.0
        for _ in range(200):
            g = random_graph(rng, max_vertices=rng.randint(8, 40))
            occ = random_occupancy(rng, g)
            occupied = [v for v in g.vertex_ids() if occ.mapping[v] is not None]
            v, v2 = rng.sample(occupied, 2)
            ops = exchange(g, occ, v, v2)
            out = apply_ops(occ, g, ops)
            diff = [x for x in g.vertex_ids() if out.mapping[x] != occ.mapping[x]]
            assert sorted(diff) == sorted([v, v2])
            worst = max(worst, len(ops) / g.num_vertices())
        # measured envelope constant for exchange op counts (with margin)
        assert worst <= 40.0

    def test_hub_pair_separating_the_vacancy(self):
        # three loops pairwise joined at single hub vertices: exchanging the
        # two hubs of an edge separates the vacancy from every staging seat
        from swapmotion.geometry import Point2
        from swapmotion.swap_graph import SwapGraph

        loops = [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11], [12, 13, 14, 15, 16, 17]]
        pos = {}
        centers = [(0.0, 0.0), (10.0, 0.0), (5.0, 9.0)]
        for li, cyc in enumerate(loops):
            for k, v in enumerate(cyc):
                t = 2 * math.pi * k / 6
                pos[v] = Point2(
                    centers[li][0] + 2 * math.cos(t), centers[li][1] + 2 * math.sin(t)
                )
        g = SwapGraph(positions=pos, loops=loops,
                      inter_edges=[(0, 6), (0, 12), (6, 12)])
        assert not g.violations()
        for hole in (14, 15, 3, 9):
            occ = occupancy_with_hole(g, hole)
            for v, v2 in [(0, 6), (6, 12), (0, 12)]:
                if hole in (v, v2):
                    continue
                out = apply_ops(occ, g, exchange(g, occ, v, v2))
                expect = dict(occ.mapping)
                expect[v], expect[v2] = expect[v2], expect[v]
                assert out.mapping == expect, (hole, v, v2)

    def test_multi_vacancy_locality(self):
        # the criterion-5 contract with several vacancies: a phantom swap
        # inside the exchange must leave every vacancy where it was
        rng = random.Random(77)
        for _ in range(1000):
            g = random_graph(rng, max_vertices=rng.randint(8, 40))
            occ = random_occupancy(rng, g, n_vacant=rng.randint(2, 5))
            occupied = [v for v in g.vertex_ids() if occ.mapping[v] is not None]
            if len(occupied) < 2:
                continue
            v, v2 = rng.sample(occupied, 2)
            out = apply_ops(occ, g, exchange(g, occ, v, v2))
            diff = [x for x in g.vertex_ids() if out.mapping[x] != occ.mapping[x]]
            assert sorted(diff) == sorted([v, v2])
            assert out.vacant_vertices() == occ.vacant_vertices()

    def test_vacant_endpoint_rejected(self):
        g = two_triangles()
        occ = occupancy_with_hole(g, 4)
        with pytest.raises(PlannerError):
            exchange(g, occ, 4, 1)


class TestPlanPermutation:
    def test_identity_plan(self):
        g = four_loop_example()
        occ = occupancy_with_hole(g, 1)
        plan = plan_permutation(g, occ, occ.copy())
        assert execute(plan, g).mapping == occ.mapping

    def test_transposition_on_minimal_graph(self):
        g = two_triangles()
        start = occupancy_with_hole(g, 4)
        goal = start.copy()
        goal.mapping[1], goal.mapping[2] = goal.mapping[2], goal.mapping[1]
        plan = plan_permutation(g, start, goal)
        assert execute(plan, g).mapping == goal.mapping

    def test_mismatched_agents_rejected(self):
        g = two_triangles()
        start = occupancy_with_hole(g, 4)
        goal = Occupancy({v: (None if v == 4 else 900 + v) for v in g.vertex_ids()})
        with pytest.raises(AssignmentMismatch):
            plan_permutation(g, start, goal)

    def test_reversibility(self):
        rng = random.Random(12)
        for _ in range(25):
            g = random_graph(rng, max_vertices=24)
            start = random_occupancy(rng, g)
            goal = shuffled_goal(rng, g, start)
            plan = plan_permutation(g, start, goal)
            back = apply_ops(
                execute(plan, g), g, reverse_ops(plan.ops)
            )
            assert back.mapping == start.mapping

    def test_multi_vacancy_reduction(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, max_vertices=20)
            start = random_occupancy(rng, g, n_vacant=rng.randint(2, 4))
            goal = shuffled_goal(rng, g, start)
            plan = plan_permutation(g, start, goal)
            assert execute(plan, g).mapping == goal.mapping
            assert plan_permutation(g, start, goal).ops == plan.ops

    def test_no_swap_between_two_vacancies(self):
        # the hole walking over another vacancy moves no agent, so no plan
        # op may swap two vacant vertices
        rng = random.Random(29)
        for _ in range(25):
            g = random_graph(rng, max_vertices=20)
            start = random_occupancy(rng, g, n_vacant=rng.randint(2, 4))
            goal = shuffled_goal(rng, g, start)
            plan = plan_permutation(g, start, goal)
            occ = start.copy()
            for k, op in enumerate(plan.ops):
                if isinstance(op, VacancySwap):
                    ends = (occ.mapping[op.u], occ.mapping[op.v])
                    assert ends != (None, None), f"op {k} {op} swaps two vacancies"
                occ = apply_ops(occ, g, [op])
            assert occ.mapping == goal.mapping

    def test_idle_swaps_match_the_replay_filter(self, monkeypatch):
        # the swaps the machine marks idle as it emits them are exactly those
        # a replay of its raw ops on the real occupancy finds between two
        # vacant vertices, on seeded multi-vacancy plans and shipped scenes
        from test_acceptance import bench_runs

        machines = []

        class Recording(planner._Machine):
            def __init__(self, *args):
                super().__init__(*args)
                machines.append(self)

        monkeypatch.setattr(planner, "_Machine", Recording)
        rng = random.Random(31)
        cases = []
        for _ in range(40):
            g = random_graph(rng, max_vertices=24)
            start = random_occupancy(rng, g, n_vacant=rng.randint(2, 5))
            cases.append((g, start, shuffled_goal(rng, g, start), None))
        for name in ("rect_12", "obstacles_30", "rect_50", "rect_100"):
            art = bench_runs()[name][2]
            cost = realization_edge_cost(art.conversion)
            cases.append((art.conversion.graph, art.plan.start, art.plan.goal, cost))
        idle_total = 0
        for g, start, goal, cost in cases:
            machines.clear()
            plan = plan_permutation(g, start, goal, cost)
            (m,) = machines
            moving = drop_idle_swaps_by_replay(start, g, m.ops)
            assert plan.ops == simplify_ops(moving, g)
            counters = {
                "idle_swaps": len(m.ops) - len(moving), "ops_emitted": len(m.ops), "ops": len(plan.ops)
            }
            assert {k: plan.counters[k] for k in counters} == counters
            idle_total += counters["idle_swaps"]
        assert idle_total > 0

    def test_move_into_adjacent_vacancy_is_one_swap(self):
        # vacancies are interchangeable: moving an agent onto a neighboring
        # vacant vertex needs no other vacancy to move
        g = loop_chain(6)
        start = Occupancy({v: (v if v % 2 else None) for v in g.vertex_ids()})
        goal = start.copy()
        goal.mapping[16], goal.mapping[17] = 17, None
        plan = plan_permutation(g, start, goal)
        assert plan.ops == [VacancySwap(16, 17)]
        assert plan.counters == {
            "cycles": 1, "exchanges": 1, "vacancy_swaps": 1, "idle_swaps": 0,
            "core_swaps": 0, "ops_emitted": 1, "ops": 1,
        }


def real_occupancy(g, vacant):
    """Agent 100 + v on every vertex v not in `vacant`."""
    return Occupancy({v: (None if v in vacant else 100 + v) for v in g.vertex_ids()})


def machine_with_hole(g, vacant, hole):
    """A machine on g with `vacant` vertices, the hole at `hole` and a
    phantom on every other vacancy."""
    m = planner._Machine(g, real_occupancy(g, vacant))
    if m.hole != hole:
        ph = m.state[hole]
        m.state[m.hole], m.pos[ph] = ph, m.hole
        m.state[hole], m.hole = None, hole
    return m


def machine_view(m):
    """state, pos, hole, ops and idle of a machine, each phantom by its number."""

    def name(c):
        return ("phantom", c.k) if isinstance(c, planner._Phantom) else c

    state = {v: name(c) for v, c in m.state.items()}
    pos = {name(c): v for c, v in m.pos.items()}
    return state, pos, m.hole, m.ops, m.idle


class TestParkedCore:
    """`_Machine.core_consecutive` applies the parked core's net effect
    directly; it leaves the machine's state, positions and hole where a
    replay of its six ops through `rot` and `swap` leaves them, and its ops
    take the real occupancy where the replay's take it. A core with one
    phantom is one ring-edge swap, placed before a trailing rotation of the
    loop; a core with two emits nothing."""

    def test_matches_the_replay(self):
        rng = random.Random(41)
        graphs = [random_graph(rng, max_vertices=rng.randint(10, 24)) for _ in range(10)]
        graphs += [two_triangles(), loop_chain(3)]
        seen = set()
        for g in graphs:
            verts = g.vertex_ids()
            for li, cyc in enumerate(g.loops):
                n = len(cyc)
                portals = planner._Machine(g, occupancy_with_hole(g, cyc[0])).ring_portals(li)
                for (u, w), p in itertools.product(portals, range(n)):
                    for x_ph, y_ph, turned in itertools.product((False, True), repeat=3):
                        # a trailing rotation by k brings slots p - k, p + 1 - k to p, p + 1
                        k = planner._short_steps(rng.randrange(1, n), n) if turned else 0
                        vx, vy = cyc[(p - k) % n], cyc[(p + 1 - k) % n]
                        rest = [v for v in verts if v not in (vx, vy, w)]
                        vacant = {w} | {v for v, ph in ((vx, x_ph), (vy, y_ph)) if ph}
                        vacant |= set(rng.sample(rest, rng.randint(0, min(2, len(rest) - 1))))
                        fast, slow = (machine_with_hole(g, vacant, w) for _ in range(2))
                        for mach in (fast, slow):
                            mach.rot(li, k)
                        fast.core_consecutive(li, u, w, p)
                        core_by_replay(slow, li, u, w, p)
                        case = (li, u, w, p, k)
                        assert machine_view(fast)[:3] == machine_view(slow)[:3], case
                        real = real_occupancy(g, vacant)
                        assert (
                            apply_ops(real, g, fast.ops).mapping
                            == apply_ops(real, g, slow.ops).mapping
                        ), case
                        turn = [LoopRotation(li, k)] if k else []
                        if x_ph != y_ph:
                            assert fast.ops == [VacancySwap(vx, vy)] + turn, case
                            assert fast.core_swaps == 1
                        elif x_ph:
                            assert fast.ops == turn, case
                        d = (p - cyc.index(u)) % n
                        seen.add((x_ph, y_ph, d == 0, p == n - 1, n == 3, turned))
        what = ("X phantom", "Y phantom", "d = 0", "p = m - 1", "3-slot ring", "trailing rotation")
        for i, name in enumerate(what):
            assert any(flags[i] for flags in seen), name
        assert (True, True) in {flags[:2] for flags in seen}
        for x_ph, y_ph in ((True, False), (False, True)):
            assert (x_ph, y_ph, True) in {flags[:2] + flags[5:] for flags in seen}

    def test_unparked_hole_raises(self):
        g = four_loop_example()  # loop 0 = [1, 2, 3, 4], portal (4, 14)
        for vacant, hole in (({2, 14}, 2), ({14, 16}, 16), ({16}, 16)):
            m = machine_with_hole(g, vacant, hole)
            before = machine_view(m)
            with pytest.raises(PlannerError):
                m.core_consecutive(0, 4, 14, 1)
            assert machine_view(m) == before
        m = machine_with_hole(g, {14}, 14)
        with pytest.raises(PlannerError):
            m.core_consecutive(0, 3, 14, 1)  # (3, 14) is not an edge


def test_park_hole_prefers_vertex_zero():
    """A preferred ring vertex with id 0 is a preference, not "none": seat 20
    borders ring vertices 11 and 0, and `near=0` picks 0 although 11 is the
    nearer one to the ring's first vertex 10."""
    loops = [[10, 11, 12, 0, 13, 14], [11, 20, 0, 21]]
    pos = {v: Point2(math.cos(k), math.sin(k)) for k, v in enumerate(loops[0])}
    pos[20], pos[21] = Point2(2.0, 0.5), Point2(2.0, -0.5)
    g = SwapGraph(positions=pos, loops=loops, inter_edges=[])
    assert not g.violations()
    for near, seat in ((0, 0), (None, 11), (13, 0)):
        m = planner._Machine(g, occupancy_with_hole(g, 20))
        assert m.park_hole(0, near=near) == (seat, 20, []), near


def loopwise_reversal_instance(q):
    """Chain of q 3-loops; every agent mirrors to the opposite loop."""
    g = loop_chain(q)
    verts = g.vertex_ids()
    mapping = {v: (None if v == 0 else v) for v in verts}
    start = Occupancy(mapping)
    goal_map = {}
    for li in range(q):
        for s in range(3):
            goal_map[3 * (q - 1 - li) + s] = mapping[3 * li + s]
    return g, start, Occupancy(goal_map)


class TestWorstCaseFamily:
    def test_loopwise_reversal_grows_quadratically(self):
        import numpy as np

        xs, ys = [], []
        for q in (4, 8, 12, 16, 20):
            g, start, goal = loopwise_reversal_instance(q)
            plan = plan_permutation(g, start, goal)
            assert execute(plan, g).mapping == goal.mapping
            xs.append(math.log(3 * q))
            ys.append(math.log(len(plan.ops)))
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope >= 1.8


def test_simplified_ops_are_irreducible():
    """Random op sequences over the four-loop example, some followed by their
    own inverse so that reductions cascade (to nothing): the result has no
    zero rotation, no two adjacent rotations of one loop and no two adjacent
    swaps on one edge, and simplifying it again changes nothing."""
    g = four_loop_example()
    rng = random.Random(7)
    pairs = [(1, 2), (2, 1), (4, 14), (5, 6), (6, 5), (11, 13)]
    reduced = 0
    for _ in range(2000):
        ops = []
        for _ in range(rng.randint(0, 14)):
            if rng.random() < 0.5:
                ops.append(LoopRotation(rng.randrange(4), rng.randint(-7, 7)))
            else:
                ops.append(VacancySwap(*rng.choice(pairs)))
        undone = rng.random() < 0.5
        if undone:
            ops += reverse_ops(ops)
        out = simplify_ops(ops, g)
        assert not undone or out == []
        for op in out:
            assert not isinstance(op, LoopRotation) or op.steps % len(g.loops[op.loop]), out
        for x, y in zip(out, out[1:]):
            assert not (isinstance(x, LoopRotation) and isinstance(y, LoopRotation)
                        and x.loop == y.loop), out
            assert not (isinstance(x, VacancySwap) and isinstance(y, VacancySwap)
                        and x.edge == y.edge), out
        assert simplify_ops(out, g) == out
        reduced += len(out) < len(ops)
    assert reduced > 1000
