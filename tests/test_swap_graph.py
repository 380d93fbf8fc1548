import random

import pytest

from graph_fixtures import four_loop_example, loop_chain, random_graph, two_triangles
from swapmotion.geometry import Point2
from swapmotion.swap_graph import (
    Occupancy,
    SwapGraph,
    vertex_distance,
    vertex_loop_distance,
)


class TestValidate:
    def test_four_loop_example_is_valid(self):
        assert four_loop_example().violations() == []

    def test_single_loop_violates_k(self):
        g = SwapGraph(
            positions={v: Point2(v, 0) for v in (1, 2, 3)},
            loops=[[1, 2, 3]],
        )
        assert any("K>1" in v for v in g.violations())

    def test_three_shared_vertices_violate_overlap(self):
        pos = {v: Point2(v % 4, v // 4) for v in range(1, 8)}
        g = SwapGraph(
            positions=pos,
            loops=[[1, 2, 3, 4], [2, 3, 4, 5, 6, 7]],
        )
        assert any("overlap" in v for v in g.violations())

    def test_short_loop_reported(self):
        g = SwapGraph(
            positions={v: Point2(v, 0) for v in (1, 2, 3, 4, 5)},
            loops=[[1, 2, 3], [4, 5]],
            inter_edges=[(3, 4)],
        )
        assert any("fewer than 3" in v for v in g.violations())

    def test_disconnected_reported(self):
        g = SwapGraph(
            positions={v: Point2(v, 0) for v in range(1, 7)},
            loops=[[1, 2, 3], [4, 5, 6]],
        )
        assert any("connect" in v for v in g.violations())

    def test_loop_inter_edge_disjointness(self):
        g = SwapGraph(
            positions={v: Point2(v, 0) for v in range(1, 7)},
            loops=[[1, 2, 3], [4, 5, 6]],
            inter_edges=[(1, 2), (3, 4)],
        )
        assert any("disjoint" in v for v in g.violations())


class TestSlotTable:
    """`slot[li]` maps each vertex of loop li to its place in `loops[li]`."""

    @staticmethod
    def assert_inverts_loops(g):
        assert len(g.slot) == g.K
        for cyc, slot in zip(g.loops, g.slot):
            assert sorted(slot) == sorted(cyc)
            assert all(cyc[slot[v]] == v for v in cyc)

    def test_fixture_graphs(self):
        for g in (four_loop_example(), two_triangles(), loop_chain(4), loop_chain(3, 5)):
            self.assert_inverts_loops(g)

    def test_random_graphs(self):
        rng = random.Random(26)
        for _ in range(50):
            self.assert_inverts_loops(random_graph(rng))


class TestDistances:
    def test_golden_distances(self):
        g = four_loop_example()
        assert vertex_distance(g, 12, 14) == 1
        assert vertex_distance(g, 11, 10) == 0
        assert vertex_distance(g, 15, 5) == 1
        assert vertex_loop_distance(g, 17, 0) == 1

    def test_self_distance(self):
        g = four_loop_example()
        assert vertex_distance(g, 7, 7) == 0

    def test_loop_containing_vertex(self):
        g = four_loop_example()
        assert vertex_loop_distance(g, 6, 1) == 0
        assert vertex_loop_distance(g, 6, 2) == 0

    def test_vertex_loop_consistent_with_vertex_pair(self):
        g = four_loop_example()
        # vertex 5 sits in loops 1 and 2; reaching either from 15 costs one hop
        assert vertex_distance(g, 15, 5) == 1
        assert vertex_loop_distance(g, 15, 1) == 1
        assert vertex_loop_distance(g, 15, 2) == 1

    def test_symmetry_and_triangle_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, max_vertices=24)
            verts = g.vertex_ids()
            sample = rng.sample(verts, min(6, len(verts)))
            for v in sample:
                assert vertex_distance(g, v, v) == 0
            for a in sample:
                for b in sample:
                    assert vertex_distance(g, a, b) == vertex_distance(g, b, a)
            for a in sample[:4]:
                for b in sample[:4]:
                    for c in sample[:4]:
                        assert vertex_distance(g, a, c) <= vertex_distance(
                            g, a, b
                        ) + vertex_distance(g, b, c)


class TestOccupancy:
    def test_vacancy_helpers(self):
        g = two_triangles()
        occ = Occupancy({v: (None if v == 4 else v * 10) for v in g.vertex_ids()})
        occ.check(g)
        assert occ.vacant_vertex() == 4
        assert [v for v, a in occ.mapping.items() if a == 10] == [1]

    def test_duplicate_agents_rejected(self):
        g = two_triangles()
        occ = Occupancy({v: 5 for v in g.vertex_ids()})
        with pytest.raises(ValueError):
            occ.check(g)
