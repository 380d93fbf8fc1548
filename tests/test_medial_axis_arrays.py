"""The flat-index reconnect, the lookup-table thinning, the skeleton-path
query (array node checks and answers kept between circle sets) and the
single grid distance pass against the reference in medial_axis_reference.py."""

import itertools
import json
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from medial_axis_reference import (
    components_reference,
    extract_medial_axis_reference,
    nearest_boundary_points_reference,
    reconnect_reference,
    skeleton_path_reference,
    thin_reference,
    widest_bridge_reference,
)
from swapmotion import conversion, medial_axis
from swapmotion.fileio import graph_to_dict, scenario_from_dict
from swapmotion.geometry import (
    CapsuleCache,
    Disk,
    Point2,
    Polygon,
    _edge_distances,
    boundary_distance_many,
    nearest_boundary,
    rectangle_workspace,
)
from swapmotion.medial_axis import (
    SkeletonGraph,
    SkeletonNode,
    SkeletonPaths,
    _bridges,
    _fragments,
    _grid_points,
    _hypot_cmp,
    _thin,
    extract_medial_axis,
    sample_circles,
)
from swapmotion.pipeline import convert_scenario

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def grids(draw):
    """A free field (3 in 4 cells free), a skeleton mask inside it (1 in 5 free
    cells) and a clearance field from few values, so width ties are common."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    free = draw(arrays(bool, shape, elements=st.integers(0, 3).map(bool)))
    mask = free & draw(arrays(bool, shape, elements=st.integers(0, 4).map(lambda k: k == 0)))
    depth = draw(arrays(float, shape, elements=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])))
    return mask, free, np.where(free, depth, 0.0)


def _reconnect(mask, free, depth):
    """`mask` plus every cell of `_bridges`, as `extract_medial_axis` adds them."""
    out = mask.copy()
    for cells in _bridges(mask, free, depth)[0]:
        out[tuple(zip(*cells))] = True
    return out


class TestReconnect:
    @SEEDED
    @given(grids())
    def test_labels_equal_reference(self, g):
        mask = g[0]
        nx, ny = mask.shape
        flat = _fragments(np.pad(mask, 1).ravel().tolist(), ny + 2)
        labels = np.array(flat).reshape(nx + 2, ny + 2)[1:-1, 1:-1]
        assert np.array_equal(labels, components_reference(mask))

    @SEEDED
    @given(grids())
    def test_bridges_extend_reference(self, g):
        """Every bridge the reference adds, in order and cell for cell; after the
        reference stops (its fragment 1 reaches no other), only more bridges."""
        mask, free, depth = g
        ref: list = []
        ref_out = reconnect_reference(mask, free, depth, ref)
        new, _ = _bridges(mask, free, depth)
        assert new[: len(ref)] == ref
        for cells in new[len(ref):]:
            ref_out[tuple(zip(*cells))] = True
        assert np.array_equal(_reconnect(mask, free, depth), ref_out)

    @SEEDED
    @given(grids())
    def test_each_bridge_is_widest(self, g):
        """Before each bridge, a search restarted from the growing fragment
        finds a bridge exactly as wide as the one the resumed search took."""
        mask, free, depth = g
        bridges, counters = _bridges(mask, free, depth)
        labels = components_reference(mask)
        groups = {k: labels == k for k in range(1, labels.max() + 1)}
        assert (counters["fragments"], counters["bridges"]) == (len(groups), len(bridges))
        stuck: set = set()
        for hit, *path in bridges:
            while True:  # the least fragment that still reaches another one
                own = min(k for k in groups if k not in stuck)
                others = np.zeros_like(mask)
                for k, m in groups.items():
                    if k != own:
                        others |= m
                widest = widest_bridge_reference(groups[own], others, free, depth)
                if widest is not None:
                    break
                stuck.add(own)
            # the bridge: hit cell in another fragment, then free cells in no
            # fragment, 4-connected, the last one next to the growing fragment
            assert others[hit] and path
            for a, b in zip([hit, *path], path):
                assert free[b] and not (others | groups[own])[b]
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            (i, j), nx, ny = path[-1], *mask.shape
            roots = [
                depth[u, v]
                for u, v in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                if 0 <= u < nx and 0 <= v < ny and groups[own][u, v]
            ]
            assert roots, "the bridge does not start next to the growing fragment"
            assert min(min(depth[c] for c in (hit, *path)), max(roots)) == widest
            # the bridge joins the hit fragment and any fragment touching it
            near = np.zeros_like(mask)
            for i, j in path:
                near[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2] = True
            for k in [k for k, m in groups.items() if k != own and (m[hit] or (m & near).any())]:
                groups[own] |= groups.pop(k)
                stuck.discard(k)
            groups[own][tuple(zip(*path))] = True

    @SEEDED
    @given(grids())
    def test_one_fragment_per_free_component(self, g):
        mask, free, depth = g
        labels = components_reference(_reconnect(mask, free, depth))
        regions, n = ndimage.label(free)  # 4-connected, as the bridges walk
        for k in range(1, n + 1):
            assert len(set(labels[(regions == k) & (labels > 0)].tolist())) <= 1

    def test_second_free_component_is_bridged(self):
        """Two strips split by a blocked column, two fragments in each: the
        reference stops after the first strip, every strip ends in one piece."""
        free = np.ones((20, 9), dtype=bool)
        free[4, :] = False
        mask = np.zeros_like(free)
        for i, j in ((1, 1), (2, 7), (8, 2), (16, 6)):
            mask[i, j] = True
        depth = np.where(free, 1.0, 0.0)
        assert components_reference(reconnect_reference(mask, free, depth)).max() == 3
        labels = components_reference(_reconnect(mask, free, depth))
        assert labels.max() == 2
        assert set(labels[:4][mask[:4]].tolist()) == {1}
        assert set(labels[5:][mask[5:]].tolist()) == {2}


class TestThin:
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_random_masks_equal_reference(self, density):
        """Masks from 1 x 1 to 24 x 24, the border cells set as often as any."""
        rng = np.random.default_rng(int(density * 10))
        for _ in range(150):
            mask = rng.random((int(rng.integers(1, 25)), int(rng.integers(1, 25)))) < density
            got = _thin(mask)
            assert got.dtype == bool and np.array_equal(got, thin_reference(mask))

    def test_masks_of_a_cluttered_pass_equal_reference(self, monkeypatch):
        """Both thinning calls of grid_20 and of maple_approx_24."""
        masks = []

        def spy(mask):
            masks.append(mask.copy())
            return _thin(mask)

        monkeypatch.setattr(medial_axis, "_thin", spy)
        for name in ("grid_20", "maple_approx_24"):
            s = _load(SCENARIOS[0].parent / f"{name}.json")
            extract_medial_axis(s.workspace, 0.5 * s.r)
        assert len(masks) == 4
        for mask in masks:
            assert np.array_equal(_thin(mask), thin_reference(mask))


class TestHypotCmp:
    def test_equals_math_hypot_at_ties(self):
        """np.hypot and math.hypot differ in the last bit for some inputs; a
        bound equal to math.hypot (or one ulp off) is decided as math.hypot."""
        rng = np.random.default_rng(3)
        dx, dy = rng.normal(size=(2, 20000)) * 30.0
        exact = np.array([math.hypot(x, y) for x, y in zip(dx.tolist(), dy.tolist())])
        for bound in (exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)):
            for op in (operator.le, operator.lt):
                want = [op(h, b) for h, b in zip(exact.tolist(), bound.tolist())]
                assert _hypot_cmp(op, dx, dy, bound).tolist() == want

    def test_broadcasts(self):
        xs = np.array([0.0, 3.0, 6.0])
        got = _hypot_cmp(operator.le, np.array([[0.0], [3.0]]) - xs, np.full(3, 4.0), 5.0)
        assert got.tolist() == [[True, True, False], [True, True, True]]


@st.composite
def skeleton_queries(draw):
    """A skeleton-like graph (a random lattice walk, 8-neighbors joined) and
    circles spread along it whose radii are often exact node distances, so
    the `<=` and `<` node checks meet ties."""
    x, y = 1, draw(st.integers(1, 14))
    xy = [(x, y)]
    steps = st.tuples(st.sampled_from([1, 1, 0, -1]), st.integers(-1, 1))
    for dx, dy in draw(st.lists(steps, min_size=10, max_size=40)):
        x, y = min(max(x + dx, 1), 14), min(max(y + dy, 1), 14)
        if (x, y) not in xy:
            xy.append((x, y))
    clear = st.sampled_from([0.5, 1.0, 2.0])
    nodes = [SkeletonNode(Point2(float(x), float(y)), draw(clear)) for x, y in xy]
    edges = [
        (i, j)
        for i, p in enumerate(xy)
        for j, q in enumerate(xy)
        if i < j and max(abs(p[0] - q[0]), abs(p[1] - q[1])) == 1
    ]
    circles = []
    m = draw(st.integers(2, 5))
    for k in range(m):
        cx, cy = xy[k * (len(xy) - 1) // (m - 1)]
        dx, dy = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        radius = math.hypot(dx, dy) + draw(st.sampled_from([0.0, 0.0, 0.5]))
        circles.append(Disk(Point2(float(cx), float(cy)), max(radius, 0.5)))
    ia = draw(st.integers(0, len(circles) - 1))
    ib = draw(st.sampled_from([k for k, c in enumerate(circles) if c != circles[ia]] or [ia]))
    r = draw(st.sampled_from([0.5, 1.0]))
    return SkeletonGraph(nodes, edges), circles, ia, ib, r


class TestSkeletonPath:
    @SEEDED
    @given(skeleton_queries())
    def test_equals_reference(self, q):
        s, circles, ia, ib, r = q
        w = rectangle_workspace(16.0, 16.0)
        got = SkeletonPaths(s, r, CapsuleCache(w)).path(circles, ia, ib)
        assert got == skeleton_path_reference(s, circles, ia, ib, r, CapsuleCache(w))
        # every pair, without one other circle and then in the whole set,
        # which may reuse the last answer, through one query per radius
        for r2 in (0.5, 1.0):
            paths = SkeletonPaths(s, r2, CapsuleCache(w))
            for i, j in itertools.permutations(range(len(circles)), 2):
                for drop in (*(k for k in range(len(circles)) if k not in (i, j)), None):
                    subset = [c for k, c in enumerate(circles) if k != drop]
                    i2, j2 = subset.index(circles[i]), subset.index(circles[j])
                    got = paths.path(subset, i2, j2)
                    assert got == skeleton_path_reference(s, subset, i2, j2, r2, CapsuleCache(w))

    def test_many_circle_sets_through_one_skeleton(self):
        """Circle subsets of a real skeleton share one query per radius, its
        node masks and stored answers, and every request still equals the
        reference."""
        boxes = [(8, 4, 12, 9), (20, 10, 24, 16), (30, 3, 33, 8)]
        w = rectangle_workspace(40.0, 20.0, [
            Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))
            for x0, y0, x1, y1 in boxes
        ])
        s = extract_medial_axis(w, 0.5)
        circles = sample_circles(s, 2.0, 16, 0.5)
        rng = np.random.default_rng(8)
        cache = CapsuleCache(w)
        queries = {r: SkeletonPaths(s, r, cache) for r in (0.5, 1.0)}
        found = 0
        for _ in range(80):
            subset = [circles[k] for k in sorted(rng.choice(len(circles), 4, replace=False))]
            i, j = (int(k) for k in rng.choice(4, 2, replace=False))
            r = float(rng.choice([0.5, 1.0]))
            got = queries[r].path(subset, i, j)
            assert got == skeleton_path_reference(s, subset, i, j, r, cache)
            found += got is not None
        assert 0 < found < 80
        assert all(len(q.masks) <= 2 * len(circles) for q in queries.values())

    def test_masks_are_kept_per_radius(self):
        """A circle 3 off a straight skeleton blocks it for r = 2.5 but not
        for r = 0.5, asked in that order of one graph."""
        nodes = [SkeletonNode(Point2(float(x), 10.0), 5.0) for x in range(4, 37)]
        s = SkeletonGraph(nodes, [(k, k + 1) for k in range(len(nodes) - 1)])
        w = rectangle_workspace(40.0, 20.0)
        circles = [Disk(Point2(5.0, 10.0), 1.0), Disk(Point2(35.0, 10.0), 1.0),
                   Disk(Point2(20.0, 13.0), 1.0)]
        for r, found in ((2.5, False), (0.5, True)):
            got = SkeletonPaths(s, r, CapsuleCache(w)).path(circles, 0, 1)
            assert got == skeleton_path_reference(s, circles, 0, 1, r, CapsuleCache(w))
            assert (got is not None) == found

    def test_stored_path_needs_every_circle_it_was_searched_among(self):
        """Between a and b run a short upper arc (y = 28) and a long lower one
        (y = 10). c0 blocks the upper arc, c1 and c2 block nothing. Asked
        with c0, the query finds the lower arc; asked next with c1 instead, a
        search finds the upper arc, which a store that only re-checked the
        lower arc against c1 would miss."""
        upper = [(x, 28) for x in range(10, 51)]
        lower = [(10, y) for y in range(28, 10, -1)] + [(x, 10) for x in range(10, 51)]
        lower += [(50, y) for y in range(11, 29)]
        xy = list(dict.fromkeys(upper + lower))
        s = SkeletonGraph(
            [SkeletonNode(Point2(float(x), float(y)), 5.0) for x, y in xy],
            [(xy.index(p), xy.index(q)) for arc in (upper, lower) for p, q in zip(arc, arc[1:])],
        )
        w = rectangle_workspace(60.0, 40.0)
        a, b = Disk(Point2(10.0, 28.0), 3.0), Disk(Point2(50.0, 28.0), 3.0)
        c0, c1, c2 = (
            Disk(Point2(30.0, y), rad) for y, rad in ((26.5, 2.0), (36.5, 2.5), (2.0, 1.0))
        )
        paths = SkeletonPaths(s, 1.0, CapsuleCache(w))
        expected = [
            ([a, b, c0], "lower", (1, 0)),
            ([a, b, c1], "upper", (2, 0)),  # c0 has left the set: a new search
            ([a, b, c1, c2], "upper", (2, 1)),  # only c2 joined, and it blocks nothing
            ([a, b, c1, c0], "lower", (3, 1)),  # c0 joined and blocks the stored path
        ]
        for circles, arc, counts in expected:
            got = paths.path(circles, 0, 1)
            assert got == skeleton_path_reference(s, circles, 0, 1, 1.0, CapsuleCache(w))
            assert (min(p.y for p in got) == 28.0) == (arc == "upper")
            assert (paths.searched, paths.reused) == counts

    def test_node_arrays(self):
        s = SkeletonGraph([SkeletonNode(Point2(1.0, 2.0), 0.5)], [])
        assert s.xy.tolist() == [[1.0, 2.0]] and s.clearances.tolist() == [0.5]
        assert SkeletonGraph([], []).xy.shape == (0, 2)


def _load(path):
    return scenario_from_dict(json.loads(path.read_text()))


@pytest.mark.parametrize("name,bridges,pops", [("grid_20", 31, 1777), ("maple_approx_24", 62, 5286)])
def test_bridge_counters(name, bridges, pops):
    """One resumed search per growing fragment: grid_20 took 24,031 heap pops
    and maple_approx_24 102,004 when each bridge restarted its search."""
    c = convert_scenario(_load(SCENARIOS[0].parent / f"{name}.json")).counters
    assert (c["bridges"], c["bridge_pops"]) == (bridges, pops)


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
class TestShippedScenarios:
    def test_one_distance_pass_equals_three(self, path):
        s = _load(path)
        pts, _, _ = _grid_points(s.workspace, 0.5 * s.r)
        edge_d, bd, near = nearest_boundary(pts, s.workspace)
        assert np.array_equal(edge_d, _edge_distances(pts, s.workspace))
        assert np.array_equal(bd, boundary_distance_many(pts, s.workspace))
        assert np.array_equal(near, nearest_boundary_points_reference(pts, s.workspace))

    def test_skeleton_and_graph_equal_reference(self, path, monkeypatch):
        s = _load(path)
        new = extract_medial_axis(s.workspace, 0.5 * s.r)
        ref = extract_medial_axis_reference(s.workspace, 0.5 * s.r)
        assert new.nodes == ref.nodes
        assert new.edges == ref.edges
        graph = graph_to_dict(convert_scenario(s))
        monkeypatch.setattr(conversion, "extract_medial_axis", extract_medial_axis_reference)
        # every request a new reference search: no answer kept between circle sets
        monkeypatch.setattr(SkeletonPaths, "path", lambda paths, circles, ia, ib: (
            skeleton_path_reference(paths.skeleton, circles, ia, ib, paths.r, paths.capsules)
        ))
        assert graph == graph_to_dict(convert_scenario(s))
