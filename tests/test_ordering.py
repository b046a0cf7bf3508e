import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toolpath_aa import geometry, ordering
from toolpath_aa.gcode import (DELTA, X, Z, Layer, Move, PrintProgram,
                               PrinterProfile, Toolpath)
from toolpath_aa.ordering import (ConstraintGraph, SubPath,
                                  build_constraint_graph, find_neighbors,
                                  gap_cost, interference_threshold,
                                  order_paths, relink_travels, split_paths)
from toolpath_aa.pipeline import PipelineConfig, order_program, run_pipeline
import fixtures
import scenes
from scenes import evaluate_order, nested_loops_gcode, signed_area

EPS_GAP = 3.2   # 4 * w for w = 0.8


def line_path(y, z=0.6, x0=0.0, x1=10.0, modified=True, delta=0.01, n=14):
    """A straight path along x at height z; a modified one's rows carry
    the displacement `delta`, an unmodified one's 0."""
    verts = []
    for k in range(n):
        x = x0 + (x1 - x0) * k / (n - 1)
        verts.append((x, y, z, 0.0 if k == 0 else 0.1, 20.0,
                      delta if modified else 0.0))
    return Toolpath(vertices=verts)


def test_threshold_paper_constants():
    p = PrinterProfile()   # tau 1.25, d 0.8, h 0.6, alpha 45 deg
    assert interference_threshold(p) == pytest.approx(1.625)
    p90 = PrinterProfile(alpha=math.pi / 2)
    assert interference_threshold(p90) == pytest.approx(1.025, abs=1e-12)


def test_find_neighbors_by_distance():
    a = line_path(0.0)
    b = line_path(0.8)
    c = line_path(5.8)
    pairs = find_neighbors([a, b, c], 1.625)
    assert (0, 1) in pairs
    assert (0, 2) not in pairs
    assert all(i != j for i, j in pairs)


def order_layer(paths):
    """`order_program` on a one-layer program of `paths`: (the layer, its
    ordering report)."""
    layer = Layer(base_z=0.6, events=list(paths))
    report = order_program(PrintProgram(layers=[layer]), PrinterProfile(),
                           weighted=False)
    return layer, report["layers"][0]


def test_find_neighbors_skips_unmodified_pairs():
    # unmodified paths never reach the ordering stage: two of them within
    # the interference radius of each other and of the modified c make no
    # neighbour pair
    a = line_path(0.0, modified=False)
    b = line_path(0.8, modified=False)
    c = line_path(1.6, modified=True)
    _, rep = order_layer([a, b, c])
    assert (rep["unmodified_paths"], rep["subpaths"]) == (2, 1)
    assert rep["neighbor_pairs"] == rep["edges"] == 0
    assert list(find_neighbors([a, b, c], 1.625)) == [(0, 1), (0, 2), (1, 2)]


def test_empty_and_one_sided_layers():
    a = line_path(0.0)
    assert list(find_neighbors([a], 1.625)) == []    # one modified path
    b = line_path(0.8)
    subs = split_paths([a, b], {}, 1.625)            # close, but no pairs
    assert [len(sp) for sp in subs] == [len(a), len(b)]
    assert not any(sp.first_is_cut or sp.last_is_cut for sp in subs)
    # no candidate pairs: nothing to compare, no edges
    far = split_paths([a, line_path(30.0)], {}, 1.625)
    graph = build_constraint_graph(far, 1.625)
    assert graph.edges == [] and graph.dropped == []
    assert ordering.compare_heights([], 1.625) == {}


def test_one_row_path_meets_a_neighbour_through_its_segments():
    # the lone vertex is 5 mm from b's vertices but 0.5 mm from its segment
    dot = Toolpath(vertices=[(5.0, 0.5, 0.6, 0.0, 20.0, 0.0)])
    b = line_path(0.0, n=2)
    assert list(find_neighbors([dot, b], 1.625)) == [(0, 1)]
    assert list(find_neighbors([dot, dot], 1.625)) == []


def test_height_adds_left_to_right():
    # a compensated sum (builtin sum() from Python 3.12) would give 1/3
    verts = [(0.0, 0.0, z, 0.0, 20.0, 0.0) for z in (1e16, 1.0, -1e16)]
    sp = SubPath(parent_id=0, vertices=np.array(verts),
                 first_is_cut=False, last_is_cut=False)
    assert sp.height == 0.0


def test_split_isolated_path_returned_whole():
    a = line_path(0.0)
    subs = split_paths([a], {}, 1.625)
    assert len(subs) == 1
    assert len(subs[0].vertices) == len(a.vertices)


def test_split_constant_offset_no_cuts():
    a = line_path(0.0, z=0.65, delta=0.05)
    b = line_path(0.8, z=0.6)
    subs = split_paths([a, b], find_neighbors([a, b], 1.625), 1.625)
    assert len(subs) == 2


def test_split_sign_flip_cuts_at_new_sign():
    # path a rises above b halfway along
    a = line_path(0.0, n=11)
    a.vertices[:, Z] = np.where(a.vertices[:, X] < 5.0, 0.5, 0.7)
    a.vertices[:, DELTA] = a.vertices[:, Z] - 0.6
    b = line_path(0.8, z=0.6)
    subs = split_paths([a, b], find_neighbors([a, b], 1.625), 1.625)
    pieces_a = [sp for sp in subs if sp.parent_id == 0]
    assert len(pieces_a) == 2
    cut = pieces_a[1].vertices[0]
    assert cut[Z] == pytest.approx(0.7)
    # both pieces hold the one cut vertex row
    assert np.shares_memory(pieces_a[0].vertices[-1], cut)


def test_three_paths_partition_and_graph():
    paths = scenes.three_paths_scene()
    profile = PrinterProfile()
    eps = interference_threshold(profile)
    pairs = find_neighbors(paths, eps)
    assert list(pairs) == [(0, 1), (1, 2)]
    subs = split_paths(paths, pairs, eps)
    assert len(subs) == 7
    labels = scenes.label_scene_subpaths(subs)
    assert {k: labels[k].parent_id for k in "ABCDEFG"} == {
        "A": 0, "B": 0, "C": 1, "D": 1, "E": 1, "F": 2, "G": 2}
    graph = build_constraint_graph(subs, eps)
    idx = {id(sp): name for name, sp in labels.items()}
    named = {(idx[id(graph.nodes[u])], idx[id(graph.nodes[v])])
             for u, v in graph.edges}
    assert named == {("A", "C"), ("E", "B"), ("F", "E"), ("D", "G")}


def test_graph_ties_are_independent():
    a = line_path(0.0, z=0.6)
    b = line_path(0.8, z=0.6 + 5e-7)
    subs = split_paths([a, b], find_neighbors([a, b], 1.625), 1.625)
    graph = build_constraint_graph(subs, 1.625)
    assert graph.edges == []


def test_cycle_detection_drops_the_weakest_edge(monkeypatch):
    # force a rock-paper-scissors height relation between three mutually
    # close paths: the cycle loses one edge and the graph comes out acyclic
    a = line_path(0.0)
    b = line_path(0.6)
    c = line_path(1.2)
    subs = split_paths([a, b, c], find_neighbors([a, b, c], 1.625), 1.625)
    assert len(subs) == 3

    def cyclic(subpaths, eps):
        below = {(0, 1), (1, 2), (2, 0)}
        return {(i, j): -1.0 if (subpaths[i].parent_id,
                                 subpaths[j].parent_id) in below else 1.0
                for i, j in itertools.combinations(range(len(subpaths)), 2)}

    monkeypatch.setattr(ordering, "compare_heights", cyclic)
    graph = build_constraint_graph(subs, 1.625)
    assert ordering._find_cycle(graph) is None
    assert len(graph.dropped) == 1
    u, v, mean = graph.dropped[0]
    assert abs(mean) == 1.0
    assert len(graph.edges) == 2 and (u, v) not in graph.edges


def test_cycle_loses_its_smallest_height_difference(monkeypatch):
    # the same cycle with one weak edge (1 -> 2): that edge goes, whatever
    # its place in the cycle
    paths = [line_path(0.0), line_path(0.6), line_path(1.2)]
    subs = split_paths(paths, find_neighbors(paths, 1.625), 1.625)
    below = {(0, 1): 0.2, (1, 2): 0.01, (2, 0): 0.1}

    def cyclic(subpaths, eps):
        keys = {(i, j): (subpaths[i].parent_id, subpaths[j].parent_id)
                for i, j in itertools.combinations(range(len(subpaths)), 2)}
        return {pair: -below[key] if key in below else below[key[::-1]]
                for pair, key in keys.items()}

    monkeypatch.setattr(ordering, "compare_heights", cyclic)
    graph = build_constraint_graph(subs, 1.625)
    assert graph.dropped == [(1, 2, -0.01)]
    assert sorted(graph.edges) == [(0, 1), (2, 0)]


def cycle_edges(cycle):
    return list(zip(cycle, cycle[1:]))


def test_find_cycle_ignores_nodes_downstream_of_a_cycle():
    # node 0 cannot be sorted only because it hangs off the 1 <-> 2
    # cycle; it lies on no cycle itself
    graph = ConstraintGraph(nodes=[0, 1, 2], edges=[(1, 2), (2, 1), (2, 0)])
    cycle = ordering._find_cycle(graph)
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {1, 2}
    assert all(e in graph.edges for e in cycle_edges(cycle))


def test_dome_cycles_name_real_cycle_nodes(monkeypatch):
    # every cycle the graph breaks, as found, runs along edges it has then
    found = []

    def spy(graph):
        cycle = find_cycle(graph)
        if cycle is not None:
            found.append((cycle, list(graph.edges)))
        return cycle

    find_cycle = ordering._find_cycle
    monkeypatch.setattr(ordering, "_find_cycle", spy)
    eps = interference_threshold(PrinterProfile())
    for paths in displaced_layers(fixtures.dome_fixture()):
        build_constraint_graph(
            split_paths(paths, find_neighbors(paths, eps), eps), eps)
    assert found
    for cycle, edges in found:
        assert len(cycle) > 2 and cycle[0] == cycle[-1]
        assert all(e in edges for e in cycle_edges(cycle))


def test_gap_cost_formula():
    assert gap_cost(0.0) == pytest.approx(1.0)
    assert gap_cost(math.pi) == pytest.approx(1.5)
    assert gap_cost(2 * math.pi) == pytest.approx(2.0)


def square_loop(side=4.0, reverse=False):
    pts = [(0, 0), (side, 0), (side, side), (0, side), (0, 0)]
    if reverse:
        pts = pts[::-1]
    verts = [(x, y, 0.6, 0.0 if k == 0 else 1.0, 20.0, 0.0)
             for k, (x, y) in enumerate(pts)]
    return Toolpath(vertices=verts)


def exterior_angle(path, i):
    """The exterior angle at row i of the path's unique vertex rows, the
    path oriented as `split_paths` orients its parents."""
    cycle = ordering._unique_cycle(path)
    ccw = not path.closed or signed_area(cycle[:, :2].tolist()) >= 0
    return ordering._exterior_angle_at(cycle, i, path.closed, ccw)


def test_exterior_angle_square():
    sq = square_loop()
    # convex corner of a CCW square: opening 3*pi/2
    assert exterior_angle(sq, 1) == pytest.approx(3 * math.pi / 2)
    sq_cw = square_loop(reverse=True)
    assert exterior_angle(sq_cw, 1) == pytest.approx(3 * math.pi / 2)


def test_exterior_angle_straight_and_notch():
    pts = [(0, 0), (4, 0), (4, 1), (5, 1), (5, 0), (9, 0), (9, 9), (0, 9),
           (0, 0)]
    verts = [(x, y, 0.6, 0.0 if k == 0 else 1.0, 20.0, 0.0)
             for k, (x, y) in enumerate(pts)]
    loop = Toolpath(vertices=verts)
    mid = (2, 0, 0.6, 1.0, 20.0, 0.0)
    loop.vertices = np.insert(loop.vertices, 1, mid, axis=0)
    assert exterior_angle(loop, 1) == pytest.approx(math.pi)       # straight
    assert exterior_angle(loop, 3) == pytest.approx(math.pi / 2)   # notch in
    out = Toolpath(vertices=[(0, 0, 0.6, 0, 20, 0),
                             (1, 0, 0.6, 1, 20, 0),
                             (2, 0, 0.6, 1, 20, 0)])
    assert exterior_angle(out, 0) == pytest.approx(math.pi)        # endpoint


# ---------------------------------------------------------------------------
# order_paths on the constructed seven-subpath scene

def ordering_scene_fixture():
    return scenes.ordering_scene()


def seq(labels, s):
    return [labels[c] for c in s]


def node_ids(graph, order):
    """The graph's node indices of an order's subpaths."""
    return [graph.nodes.index(sp) for sp in order]


def test_ordering_scene_fixture_costs():
    graph, labels = ordering_scene_fixture()
    for order, expected in [("AFDEBCG", 3), ("FAECDBG", 3), ("ADFCEBG", 7)]:
        cost, locs = evaluate_order(graph, seq(labels, order), EPS_GAP)
        assert cost == pytest.approx(expected), order


def test_ordering_scene_fixture_order1_gap_locations():
    graph, labels = ordering_scene_fixture()
    cost, locs = evaluate_order(graph, seq(labels, "AFDEBCG"), EPS_GAP)
    assert cost == 3
    expected = {scenes.ORDERING_SCENE_POINTS[k] for k in ("BA", "AB", "GF")}
    got = {tuple(round(c, 6) for c in p) for p in locs}
    assert got == {tuple(round(c, 6) for c in p) for p in expected}


def test_ordering_scene_fixture_optimal_search():
    graph, labels = ordering_scene_fixture()
    res = order_paths(graph, EPS_GAP)
    assert res.cost == pytest.approx(3)
    assert not res.suboptimal


def test_cap_below_first_order_keeps_the_first_order(monkeypatch):
    # the cap takes effect only once a complete order exists, which the
    # search reaches in n + 1 expansions
    graph, labels = ordering_scene_fixture()
    monkeypatch.setattr(ordering, "EXPANSION_CAP", 1)
    res = order_paths(graph, EPS_GAP)
    order = node_ids(graph, res.order)
    assert res.suboptimal
    assert res.root_bound <= res.cost
    assert res.expansions == len(graph.nodes) + 2
    pos = {i: k for k, i in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in graph.edges)
    cost, gaps = evaluate_order(graph, order, EPS_GAP)
    assert res.cost == cost
    assert len(res.gap_locations) == len(gaps)


def test_ordering_scene_fixture_weighted_ordinal():
    graph, labels = ordering_scene_fixture()
    a_start, _ = evaluate_order(graph, seq(labels, "AFDECGB"), EPS_GAP,
                                weighted=True)
    f_start, _ = evaluate_order(graph, seq(labels, "FEABCDG"), EPS_GAP,
                                weighted=True)
    assert f_start < a_start


def test_search_and_evaluate_share_seam_identity():
    # A's and C's exits lie 2e-7 mm apart, within MATCH_TOL but on two
    # sides of a 6-decimal rounding boundary: one gap location, so every
    # order costs 5 seams, and the search and evaluate_order agree
    ends = [((0.0, 0.0, 0.6), (10.0000004, 0.0, 0.6)),
            ((30.0, 0.0, 0.6), (40.0, 0.0, 0.6)),
            ((20.0, 0.0, 0.6), (10.0000006, 0.0, 0.6))]
    nodes = []
    for i, (entry, exit_) in enumerate(ends):
        verts = np.array([(*entry, 0.0, 20.0, 0.0), (*exit_, 0.1, 20.0, 0.0)])
        nodes.append(SubPath(parent_id=i, vertices=verts,
                             first_is_cut=False, last_is_cut=False))
    graph = ConstraintGraph(nodes=nodes)
    res = order_paths(graph, EPS_GAP)
    order = node_ids(graph, res.order)
    cost, gaps = evaluate_order(graph, order, EPS_GAP)
    assert (res.cost, len(res.gap_locations)) == (5.0, 5)
    assert (cost, len(gaps)) == (5.0, 5)


def test_layer_without_modified_nodes_costs_nothing():
    # the layer is skipped and left as it was; an empty graph, all that
    # such a layer could hand the search, costs nothing
    a, b = line_path(0.0, modified=False), line_path(12.0, modified=False)
    layer, rep = order_layer([a, b])
    assert rep == {"layer": 0, "skipped": True}
    assert layer.events == [a, b] and layer.events[0] is a
    graph = ConstraintGraph(nodes=[])
    for weighted in (False, True):
        res = order_paths(graph, EPS_GAP, weighted=weighted)
        assert res.order == []
        assert (res.cost, res.gap_locations, res.root_bound) == (0.0, [], 0.0)
        assert not res.suboptimal
        assert evaluate_order(graph, [], EPS_GAP, weighted) == (0.0, [])


def test_search_orders_a_layer_of_more_than_1000_subpaths():
    # a chain of 1,100 pieces along a row, each 1 mm long and 1 mm from
    # the next: its one order pays only the first entry and the last exit,
    # which the root bound proves at the first leaf, 1,100 levels deep
    n = 1100
    nodes = [SubPath(parent_id=i,
                     vertices=np.array([(2.0 * i, 0.0, 0.6, 0.0, 20.0, 0.0),
                                        (2.0 * i + 1, 0.0, 0.6, 0.1, 20.0,
                                         0.0)]),
                     first_is_cut=True, last_is_cut=True) for i in range(n)]
    graph = ConstraintGraph(nodes=nodes,
                            edges=[(i, i + 1) for i in range(n - 1)])
    res = order_paths(graph, EPS_GAP)
    assert res.order == nodes
    assert (res.cost, res.root_bound, res.expansions) == (2.0, 2.0, n + 1)
    # priced after the search took back every node it placed
    assert res.gap_locations == [nodes[0].entry, nodes[-1].exit]
    assert not res.suboptimal


def test_evaluate_order_rejects_invalid():
    graph, labels = ordering_scene_fixture()
    with pytest.raises(ValueError):
        evaluate_order(graph, seq(labels, "DAFCEBG"), EPS_GAP)  # D before A


def test_unmodified_emitted_first():
    # the unmodified paths lead the relinked layer, whole and in input
    # order, however the modified ones around them are ordered
    mod1, mod2 = line_path(0.0), line_path(30.0)
    un1 = line_path(50.0, modified=False)
    un2 = line_path(40.0, modified=False)
    layer, rep = order_layer([mod1, un1, mod2, un2])
    paths = layer.toolpaths()
    assert paths[:2] == [un1, un2] and paths[0] is un1 and paths[1] is un2
    assert all(tp.modified for tp in paths[2:])
    assert (rep["unmodified_paths"], rep["subpaths"]) == (2, 2)


def unmodified_loop_scene():
    """An unmodified closed 10 mm square at z 0.6, counter-clockwise from
    (0, 0) with 0.5 mm between vertices, and a modified open path 0.8 mm
    below its lower side, 0.15 mm higher than the square for x < 5 and
    0.15 mm lower from x = 5 on."""
    sides = [((0.0, 0.0), (0.5, 0.0)), ((10.0, 0.0), (0.0, 0.5)),
             ((10.0, 10.0), (-0.5, 0.0)), ((0.0, 10.0), (0.0, -0.5))]
    pts = [(x + k * dx, y + k * dy) for (x, y), (dx, dy) in sides
           for k in range(20)]
    loop = Toolpath(vertices=[(x, y, 0.6, 0.05 if k else 0.0, 20.0, 0.0)
                              for k, (x, y) in enumerate(pts + pts[:1])])
    rows = []
    for k in range(21):
        dz = 0.15 if 0.5 * k < 5.0 else -0.15
        rows.append((0.5 * k, -0.8, 0.6 + dz, 0.05 if k else 0.0, 20.0, dz))
    return loop, Toolpath(vertices=rows)


def test_unmodified_loop_is_neither_cut_nor_cuts():
    # the path's height flips beside the loop, but no constraint links an
    # unmodified path: the loop prints first with its input vertices, and
    # the path is not cut against it
    loop, path = unmodified_loop_scene()
    inputs = loop.vertices.copy(), path.vertices.copy()
    layer, rep = order_layer([path, loop])
    out = layer.toolpaths()
    assert len(out) == 2 and out[0] is loop
    assert np.array_equal(out[0].vertices, inputs[0])
    assert np.array_equal(out[1].vertices, inputs[1]) and out[1].modified
    assert (rep["unmodified_paths"], rep["subpaths"]) == (1, 1)


def test_weighted_cost_dominance():
    # making any gap location more concave (smaller theta) never raises E(S)
    graph, labels = ordering_scene_fixture()
    base, _ = evaluate_order(graph, seq(labels, "ADFCEBG"), EPS_GAP,
                             weighted=True)
    for node in graph.nodes:
        for attr in ("entry_weight", "exit_weight"):
            old = getattr(node, attr)
            setattr(node, attr, gap_cost(0.0))      # deepest crease
            lowered, _ = evaluate_order(graph, seq(labels, "ADFCEBG"),
                                        EPS_GAP, weighted=True)
            assert lowered <= base + 1e-12
            setattr(node, attr, old)


def test_split_soundness_constant_sign():
    # after splitting, each subpath's height relation to each neighbouring
    # parent never flips sign along its extent
    paths = scenes.three_paths_scene()
    profile = PrinterProfile()
    eps = interference_threshold(profile)
    pairs = find_neighbors(paths, eps)
    neighbor_map = {}
    for i, j in pairs:
        neighbor_map.setdefault(i, []).append(j)
        neighbor_map.setdefault(j, []).append(i)
    subs = split_paths(paths, pairs, eps)
    for sp in subs:
        verts = sp.vertices
        if sp.first_is_cut:          # shared cut vertices carry the
            verts = verts[1:]        # neighbouring piece's sign
        if sp.last_is_cut:
            verts = verts[:-1]
        for q in neighbor_map.get(sp.parent_id, ()):
            row, line, _, z, _ = geometry.nearest_rows(
                [verts, paths[q].vertices], eps)
            dz = verts[row[line == 1], Z] - z[line == 1]
            strict = dz[np.abs(dz) > ordering.TIE_TOL] > 0
            assert len(set(strict.tolist())) <= 1, (sp.parent_id, q)


# ---------------------------------------------------------------------------
# brute-force equivalence on random instances

def brute_min(nodes, edges, eps_gap, weighted):
    succ = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    seams = ordering._Seams(nodes, eps_gap, weighted)
    best = math.inf
    for perm in itertools.permutations(range(len(nodes))):
        pos = {n: k for k, n in enumerate(perm)}
        if any(pos.get(u, -1) > pos.get(v, 10 ** 9)
               for u in succ for v in succ[u]):
            continue
        cost, _ = seams.cost(list(perm))
        best = min(best, cost)
    return best


def random_instance(rng, n):
    pts = []
    nodes = []
    for i in range(n):
        # entry/exit points on a coarse grid so coincidences happen
        def pt():
            return (float(rng.integers(0, 6)) * 2.0,
                    float(rng.integers(0, 6)) * 2.0,
                    0.6)
        entry, exit_ = pt(), pt()
        verts = np.array([(*entry, 0.0, 20.0, 0.0), (*exit_, 0.1, 20.0, 0.0)])
        sp = SubPath(parent_id=i, vertices=verts,
                     first_is_cut=True, last_is_cut=True)
        sp.entry_weight = 1.0 + float(rng.integers(0, 4)) / 4.0
        sp.exit_weight = 1.0 + float(rng.integers(0, 4)) / 4.0
        nodes.append(sp)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                edges.append((i, j))
    return ConstraintGraph(nodes=nodes, edges=edges)


@pytest.mark.parametrize("weighted", [False, True])
def test_order_paths_matches_brute_force(weighted):
    import numpy as np

    rng = np.random.default_rng(42 if weighted else 24)
    for trial in range(40):
        n = int(rng.integers(2, 8))
        graph = random_instance(rng, n)
        res = order_paths(graph, EPS_GAP, weighted=weighted)
        ref = brute_min(graph.nodes, graph.edges, EPS_GAP, weighted)
        assert res.cost == pytest.approx(ref), f"trial {trial}"
        # validity
        pos = {id(sp): k for k, sp in enumerate(res.order)}
        for u, v in graph.edges:
            assert pos[id(graph.nodes[u])] < pos[id(graph.nodes[v])]


@st.composite
def search_instances(draw):
    """0-8 nodes whose endpoints sit on a 2 mm grid, so locations
    coincide and fall within EPS_GAP; no edges, or a random DAG over a
    random ranking of the nodes. Seam weights are multiples of 0.25, whose
    sums are exact, or the `gap_cost` of an angle, whose sums round."""
    n = draw(st.integers(0, 8))
    point = st.tuples(st.integers(0, 5), st.integers(0, 5))
    weight = st.one_of(st.sampled_from([1.0, 1.25, 1.5, 1.75]),
                       st.floats(0.0, 2 * math.pi).map(gap_cost))
    nodes = []
    for i in range(n):
        (ex, ey), (xx, xy) = draw(point), draw(point)
        verts = np.array([(ex * 2.0, ey * 2.0, 0.6, 0.0, 20.0, 0.0),
                          (xx * 2.0, xy * 2.0, 0.6, 0.1, 20.0, 0.0)])
        nodes.append(SubPath(parent_id=i, vertices=verts,
                             first_is_cut=True, last_is_cut=True,
                             entry_weight=draw(weight),
                             exit_weight=draw(weight)))
    edges = []
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        edges = [(rank[a], rank[b]) for a in range(n) for b in range(a + 1, n)
                 if draw(st.booleans())]
    return ConstraintGraph(nodes=nodes, edges=edges)


@settings(max_examples=60, deadline=None)
@given(search_instances(), st.booleans(), st.sampled_from([1, 5, 50_000]))
def test_search_agrees_with_its_cost_rule(graph, weighted, cap):
    with mock.patch.object(ordering, "EXPANSION_CAP", cap):
        res = order_paths(graph, EPS_GAP, weighted=weighted)
    order = node_ids(graph, res.order)
    pos = {i: k for k, i in enumerate(order)}
    assert all(pos[u] < pos[v] for u, v in graph.edges)
    # the search's cost and gaps are the cost rule's, bit for bit
    assert (res.cost, res.gap_locations) == evaluate_order(
        graph, order, EPS_GAP, weighted=weighted)
    best = brute_min(graph.nodes, graph.edges, EPS_GAP, weighted)
    # the bound and the other orders add their weights in other orders, so
    # on gap_cost weights they can round a last bit off the search's cost;
    # on multiples of 0.25 distinct costs lie at least 0.25 apart
    assert res.root_bound <= best + 1e-9
    # 8 free nodes can take over 40,000 expansions, so a 50,000 cap is
    # not always enough to prove the optimum
    if not res.suboptimal:
        assert res.cost == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# gap locations and seam weights against all-pairs references

def locations_reference(nodes, eps_gap):
    """(endpoint ids, location points, near sets) by testing every pair:
    each endpoint takes the id of the first earlier endpoint within
    MATCH_TOL, and a location is near every location within eps_gap."""
    ends = [p for sp in nodes for p in (sp.entry, sp.exit)]
    ids, points = [], []
    for j, p in enumerate(ends):
        loc = next((ids[i] for i in range(j)
                    if math.dist(ends[i], p) <= ordering.MATCH_TOL), None)
        if loc is None:
            loc = len(points)
            points.append(p)
        ids.append(loc)
    near = [{b for b, q in enumerate(points) if math.dist(p, q) <= eps_gap}
            for p in points]
    return ids, points, near


def assert_locations_match_reference(nodes, eps_gap):
    seams = ordering._Seams(nodes, eps_gap, False)
    ids, points, near = locations_reference(nodes, eps_gap)
    assert [loc for entry, exit_ in zip(seams.entry, seams.exit)
            for loc, _ in (entry, exit_)] == ids
    assert seams.points == points
    assert seams.near == near
    ends = [p for sp in nodes for p in (sp.entry, sp.exit)]
    # endpoints that joined a location at a different point
    return sum(p != points[loc] for p, loc in zip(ends, ids))


@pytest.mark.parametrize("eps_gap", [2.0, EPS_GAP])
def test_locations_match_all_pairs_reference(eps_gap):
    # endpoints on a 2 mm grid coincide, and some are nudged by multiples
    # of 4e-7 mm: chains within MATCH_TOL of a neighbour but not of the
    # neighbour's neighbour; 2 mm grid steps sit exactly at eps_gap = 2
    rng = np.random.default_rng(11)
    nudged = 0
    for _ in range(60):
        nodes = []
        for i in range(int(rng.integers(1, 30))):
            ends = []
            for _ in range(2):
                p = rng.integers(0, 5, 3) * np.array([2.0, 2.0, 0.0]) + 0.6
                p += rng.integers(-3, 4, 3) * 4e-7 * (rng.random() < 0.5)
                ends.append(tuple(p.tolist()))
            verts = np.array([(*ends[0], 0.0, 20.0, 0.0),
                              (*ends[1], 0.1, 20.0, 0.0)])
            nodes.append(SubPath(parent_id=i, vertices=verts,
                                 first_is_cut=True, last_is_cut=True))
        # a subset of the nodes, as a layer's ordered subpaths are
        subset = [sp for sp in nodes if rng.random() < 0.8]
        nudged += assert_locations_match_reference(subset, eps_gap)
    assert nudged > 0


@pytest.mark.parametrize("cross_hatch", [False, True])
def test_locations_match_all_pairs_reference_on_wedge_layers(cross_hatch):
    eps = interference_threshold(PrinterProfile())
    for paths in displaced_layers(fixtures.wedge_fixture(cross_hatch=cross_hatch)):
        subs = split_paths(paths, find_neighbors(paths, eps), eps)
        assert_locations_match_reference(subs, EPS_GAP)


def assert_seam_weights_at_ends(subpaths, parents):
    """Each subpath's weights are gap_cost of its parent's exterior angle
    at the parent vertex its first and last rows come from; `parents` are
    the split paths, indexed by parent_id."""
    for sp in subpaths:
        parent = parents[sp.parent_id]
        cycle = ordering._unique_cycle(parent)
        for row, weight in ((sp.vertices[0], sp.entry_weight),
                            (sp.vertices[-1], sp.exit_weight)):
            k, = np.flatnonzero((cycle[:, :3] == row[:3]).all(axis=1))
            assert weight == gap_cost(exterior_angle(parent, int(k)))


def test_seam_weights_on_three_paths_scene():
    paths = scenes.three_paths_scene()
    eps = interference_threshold(PrinterProfile())
    subs = split_paths(paths, find_neighbors(paths, eps), eps)
    assert len(subs) == 7 and all(sp.first_is_cut for sp in subs)
    assert_seam_weights_at_ends(subs, paths)
    assert {sp.entry_weight for sp in subs} == {1.5, 1.75}


def square_path(clockwise):
    corners = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
    pts = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        pts += [(x0, y0), ((x0 + x1) / 2, (y0 + y1) / 2)]
    if clockwise:
        pts = pts[:1] + pts[:0:-1]
    rows = [(x, y, 0.6, 0.1, 20.0, 0.1) for x, y in pts + pts[:1]]
    return Toolpath(vertices=rows)


@pytest.mark.parametrize("clockwise", [False, True])
@pytest.mark.parametrize("cuts", [[], [2], [2, 5]])
def test_seam_weights_on_a_closed_square(clockwise, cuts):
    # vertices alternate corner and side midpoint, starting at a corner;
    # cut at corner 2 (and at midpoint 5): every corner is convex, 3pi/2,
    # whichever way the loop runs
    square = square_path(clockwise)
    cycle = ordering._unique_cycle(square)
    subs = ordering._materialise(square, 0, cycle, cuts)
    assert len(subs) == max(len(cuts), 1)
    assert_seam_weights_at_ends(subs, [square])
    assert subs[0].entry_weight == subs[-1].exit_weight == gap_cost(1.5 * math.pi)
    if len(cuts) == 2:
        assert subs[0].exit_weight == subs[1].entry_weight == gap_cost(math.pi)


@pytest.mark.parametrize("cuts", [[], [3], [3, 5]])
def test_seam_weights_on_an_open_path(cuts):
    # an L: right along y = 0, a left turn at vertex 3, then up along x = 3
    rows = [(float(min(k, 3)), float(max(k - 3, 0)), 0.6, 0.1, 20.0, 0.1)
            for k in range(7)]
    path = Toolpath(vertices=rows)
    subs = ordering._materialise(path, 0, path.vertices, cuts)
    assert len(subs) == len(cuts) + 1
    assert_seam_weights_at_ends(subs, [path])
    assert subs[0].entry_weight == subs[-1].exit_weight == gap_cost(math.pi)
    if cuts:
        assert subs[0].exit_weight == gap_cost(1.5 * math.pi)


# ---------------------------------------------------------------------------
# relink

def test_relink_travels():
    a = line_path(0.0)
    b = line_path(12.0)          # entry 12 mm away from a's exit
    layer = Layer(base_z=0.6, events=[a, b])
    relink_travels(layer, [a, b], EPS_GAP, travel_f=120.0)
    travels = [ev for ev in layer.events if isinstance(ev, Move)]
    assert len(travels) == 2                      # lead-in + 12 mm gap
    assert travels[1].rapid
    assert travels[1].z is not None
    paths = layer.toolpaths()
    assert len(paths) == 2


def test_relink_near_transition_is_continuous():
    a = line_path(0.0, x0=0, x1=10)
    b = line_path(1.0, x0=10, x1=20)   # entry 1 mm from a's exit (< eps_gap)
    layer = Layer(base_z=0.6, events=[a, b])
    relink_travels(layer, [a, b], EPS_GAP, travel_f=120.0)
    travels = [ev for ev in layer.events if isinstance(ev, Move)]
    assert len(travels) == 2
    assert travels[0].rapid            # lead-in
    assert not travels[1].rapid        # continuous deposition-speed link


# ---------------------------------------------------------------------------
# numpy distances against the scalar reference
#
# The scalar XY loops below are the reference for the batched distances in
# `geometry`, which must return bitwise the same values.


def _seg_point_dist2(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 < 1e-18:
        t = 0.0
    else:
        t = ((px - ax) * dx + (py - ay) * dy) / L2
        t = min(max(t, 0.0), 1.0)
    cx, cy = ax + t * dx, ay + t * dy
    return (px - cx) ** 2 + (py - cy) ** 2, t


def _seg_seg_dist(a1, a2, b1, b2):
    best = math.inf
    for p, (s1, s2) in ((a1, (b1, b2)), (a2, (b1, b2)),
                        (b1, (a1, a2)), (b2, (a1, a2))):
        d2, _ = _seg_point_dist2(p[0], p[1], s1[0], s1[1], s2[0], s2[1])
        best = min(best, d2)
    return math.sqrt(best)


def polyline_min_distance_brute(verts_a, verts_b):
    """Closest XY approach between two polylines (vertex arrays) of two
    rows or more."""
    xy_a = verts_a[:, :2].tolist()
    xy_b = verts_b[:, :2].tolist()
    best = math.inf
    for i in range(len(xy_a) - 1):
        a1, a2 = xy_a[i], xy_a[i + 1]
        for j in range(len(xy_b) - 1):
            best = min(best, _seg_seg_dist(a1, a2, xy_b[j], xy_b[j + 1]))
            if best == 0.0:
                return 0.0
    return best


def nearest_on_polyline_brute(x, y, verts):
    """Nearest point on the polyline (a vertex array): (dist, z at point,
    (px, py), endpoint_hit) where endpoint_hit is 0/-1/+1 for
    interior/first/last."""
    best = (math.inf, 0.0, (0.0, 0.0), 0)
    pts = verts[:, :3].tolist()
    n = len(pts)
    for i in range(n - 1):
        (ax, ay, az), (bx, by, bz) = pts[i], pts[i + 1]
        d2, t = _seg_point_dist2(x, y, ax, ay, bx, by)
        if d2 < best[0]:
            z = az + (bz - az) * t
            px = ax + (bx - ax) * t
            py = ay + (by - ay) * t
            endpoint = 0
            if i == 0 and t <= 0.0:
                endpoint = -1
            elif i == n - 2 and t >= 1.0:
                endpoint = +1
            best = (d2, z, (px, py), endpoint)
    return math.sqrt(best[0]), best[1], best[2], best[3]


coord = st.one_of(st.integers(-4, 4).map(lambda k: k * 0.5),
                  st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))
vertex = st.tuples(coord, coord, st.floats(0.0, 1.0))


@st.composite
def polyline(draw, shared=()):
    """1-8 vertices, some repeated in place (zero-length segments), some
    taken from another polyline (shared or coincident vertices)."""
    pts = draw(st.lists(vertex, min_size=1, max_size=8))
    if shared:
        for _ in range(draw(st.integers(0, 2))):
            pts.insert(draw(st.integers(0, len(pts))),
                       draw(st.sampled_from(shared)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(pts) - 1))
        pts.insert(k, pts[k])
    return pts


@st.composite
def polyline_pair(draw):
    a = draw(polyline())
    return a, draw(polyline(shared=a))


def as_verts(pts):
    return np.array(pts, dtype=float).reshape(-1, 3)


FAR = 1e6   # mm, an eps beyond the extent of every polyline tested here


def nearest_rows_brute(polylines, eps):
    """`geometry.nearest_rows` by the scalar loop: every row against every
    other polyline, kept when it comes nearer than eps."""
    found = []
    rows = [(x, y) for p in polylines for x, y in p[:, :2].tolist()]
    owner = [i for i, p in enumerate(polylines) for _ in range(len(p))]
    for row, ((x, y), i) in enumerate(zip(rows, owner)):
        for j, line in enumerate(polylines):
            if j != i:
                dist, z, _pt, endpoint = nearest_on_polyline_brute(x, y, line)
                if dist < eps:
                    found.append((row, j, dist, z, endpoint))
    columns = list(zip(*found)) or [()] * 5
    return tuple(np.array(c, dtype=t) for c, t in zip(
        columns, (np.int64, np.int64, np.float64, np.float64, np.int64)))


def rows_as_lists(rows):
    """nearest_rows' arrays as (row, line, dist, z, endpoint) tuples, the
    floats as hex, so that equality is bitwise."""
    row, line, dist, z, endpoint = (c.tolist() for c in rows)
    return list(zip(row, line, map(float.hex, dist), map(float.hex, z),
                    endpoint))


def assert_matches_brute(a, b):
    """With an eps beyond their extent, the batched nearest points of a
    against b and of b against a, in one call, hold every row whose other
    polyline has a segment, and equal the scalar reference bit for bit; so
    does their least distance, the polylines' closest approach, which the
    neighbour test reads."""
    va, vb = as_verts(a), as_verts(b)
    got = geometry.nearest_rows([va, vb], FAR)
    other = [len(b)] * len(a) + [len(a)] * len(b)
    assert got[0].tolist() == [r for r, n in enumerate(other) if n > 1]
    assert rows_as_lists(got) == rows_as_lists(nearest_rows_brute([va, vb], FAR))
    if len(a) > 1 and len(b) > 1:
        assert (float(got[2].min()).hex()
                == polyline_min_distance_brute(va, vb).hex())


@settings(max_examples=300, deadline=None)
@given(polyline_pair())
def test_numpy_distances_match_scalar_bitwise(pair):
    assert_matches_brute(*pair)


@settings(max_examples=200, deadline=None)
@given(st.lists(polyline(), max_size=4), st.sampled_from([0.25, 1.0, 3.0]))
def test_nearest_rows_keep_exactly_the_rows_within_eps(lines, eps):
    polylines = [as_verts(p) for p in lines]
    assert (rows_as_lists(geometry.nearest_rows(polylines, eps))
            == rows_as_lists(nearest_rows_brute(polylines, eps)))


def test_numpy_distances_span_several_blocks():
    rng = np.random.default_rng(7)
    # a 120-vertex zigzag against a 150-vertex one: 120 x 149 pairs, many
    # rows of points per block
    zig = [(0.05 * k, float(k % 2), 0.6 + 0.01 * k) for k in range(120)]
    wig = [(0.04 * k, 1.5 + rng.random(), 0.6) for k in range(150)]
    # out along the x axis and back over the same line: more segments than
    # one block holds, and equally near segments at both ends of a row
    n = geometry.PAIR_BLOCK // 2 + 100
    line = ([(float(k), 0.0, 0.6) for k in range(n)]
            + [(float(k), 0.0, 0.7) for k in range(n - 1, -1, -1)])
    probe = [(10.3, 1.0, 0.6), (2000.5, -0.5, 0.6), (-3.0, 0.2, 0.6)]
    assert len(zig) * (len(wig) - 1) > 2 * geometry.PAIR_BLOCK
    assert len(line) - 1 > geometry.PAIR_BLOCK    # a row is a block alone
    assert_matches_brute(zig, wig)
    assert_matches_brute(probe, line)


def test_numpy_distances_match_scalar_on_random_floats():
    # a Python float's `** 2` (libm pow) differs from x * x in the last
    # bit for about one value in a thousand; thousands of rows of random
    # coordinates make sure the numpy path squares the same way
    rng = np.random.default_rng(3)
    points = [tuple(p) for p in rng.uniform(-5.0, 5.0, (3000, 3)).tolist()]
    line = [tuple(p) for p in rng.uniform(-5.0, 5.0, (30, 3)).tolist()]
    assert_matches_brute(points, line)


def test_nearest_rows_at_the_edge_of_eps():
    eps = 0.5
    line = as_verts([(0.0, 0.0, 0.6), (4.0, 0.0, 0.8)])
    # exactly eps from the segment (absent), an ulp closer (present)
    at = as_verts([(1.0, eps, 0.6), (2.0, np.nextafter(eps, 0.0), 0.6)])
    dot = as_verts([(3.0, 0.1, 0.7)])     # one row: no segment to meet
    got = geometry.nearest_rows([line, at, dot], eps)
    assert rows_as_lists(got) == rows_as_lists(
        nearest_rows_brute([line, at, dot], eps))
    assert [(r, j) for r, j, *_ in rows_as_lists(got)] == [(3, 0), (4, 0)]
    assert got[2][0] == np.nextafter(eps, 0.0)
    # no polylines, and a layer with no candidate pair
    for polylines in ([], [line], [line, line + [0.0, 3.0, 0.0]], [dot, dot]):
        got = geometry.nearest_rows(polylines, eps)
        assert [len(c) for c in got] == [0] * 5
        assert [c.dtype.kind for c in got] == ["i", "i", "f", "f", "i"]


def test_nearest_rows_meet_only_segments_whose_grown_box_holds_them(
        monkeypatch):
    # every point-segment pair evaluated has the point inside the
    # segment's XY box grown by eps (with BOX_SLACK's margin, and 1e-9 mm
    # for the segment's end rebuilt from its start and direction): a scan
    # of all segments would evaluate pairs millimetres outside
    eps = interference_threshold(PrinterProfile())
    reach = eps * (1.0 + geometry.BOX_SLACK) + 1e-9
    layers = displaced_layers(fixtures.dome_fixture())
    evaluated = []

    def spy(px, py, ax, ay, dx, dy):
        evaluated.append((px, py, ax, ay, ax + dx, ay + dy))
        return segment_param(px, py, ax, ay, dx, dy)

    segment_param = geometry.segment_param
    monkeypatch.setattr(geometry, "segment_param", spy)
    for paths in layers:
        geometry.nearest_rows([p.vertices for p in paths], eps)
    px, py, ax, ay, bx, by = (np.concatenate(c) for c in zip(*evaluated))
    assert len(px) > 1000
    assert (np.minimum(ax, bx) - reach <= px).all()
    assert (px <= np.maximum(ax, bx) + reach).all()
    assert (np.minimum(ay, by) - reach <= py).all()
    assert (py <= np.maximum(ay, by) + reach).all()


def compare_heights_brute(sa, sb, eps):
    """`ordering.compare_heights` of one pair by the scalar loop."""
    total = 0.0
    count = 0
    for src, dst, sign in ((sa, sb, +1.0), (sb, sa, -1.0)):
        rows = src.vertices[:, :3].tolist()
        for vi, (x, y, vz) in enumerate(rows):
            dist, z, _pt, endpoint = nearest_on_polyline_brute(x, y,
                                                               dst.vertices)
            if vi == 0 and src.first_is_cut:
                continue
            if vi == len(rows) - 1 and src.last_is_cut:
                continue
            if dist >= eps:
                continue
            if endpoint == -1 and dst.first_is_cut:
                continue
            if endpoint == +1 and dst.last_is_cut:
                continue
            total += sign * (vz - z)
            count += 1
    if count == 0:
        return None
    return total / count


def neighbors_brute(paths, eps, pairs):
    """`ordering.find_neighbors`' rows for the given pairs by the scalar
    loop, each side's rows those of its path's unique cycle."""
    out = {}
    for pair in pairs:
        sides = []
        for i, j in (pair, pair[::-1]):
            rows = ordering._unique_cycle(paths[i])[:, :3].tolist()
            near = [(r, vz, nearest_on_polyline_brute(x, y, paths[j].vertices))
                    for r, (x, y, vz) in enumerate(rows)]
            sides.append([(r, vz - z) for r, vz, (d, z, _, _) in near if d < eps])
        out[pair] = tuple(sides)
    return out


def scalar_reference(monkeypatch):
    """Route the ordering stage through the scalar reference: nearest rows
    by the brute loop over every row and every other polyline, and height
    means by `compare_heights_brute`, one subpath pair at a time. The
    split's rows are each cycle's own, not the first rows of its path's."""
    monkeypatch.setattr(ordering, "nearest_rows", nearest_rows_brute)
    find_neighbors = ordering.find_neighbors
    monkeypatch.setattr(ordering, "find_neighbors", lambda paths, eps:
                        neighbors_brute(paths, eps, find_neighbors(paths, eps)))
    monkeypatch.setattr(ordering, "compare_heights", lambda subpaths, eps: {
        (i, j): mean
        for i, j in itertools.combinations(range(len(subpaths)), 2)
        if subpaths[i].parent_id != subpaths[j].parent_id
        and (mean := compare_heights_brute(subpaths[i], subpaths[j], eps))
        is not None})


def test_height_means_add_in_scalar_order():
    # hundreds of terms spread over ten decades, so that their sums round:
    # a pairwise sum (np.sum) rounds differently from the scalar loop's
    # left-to-right one
    rng = np.random.default_rng(5)
    a = line_path(0.0, n=200)
    a.vertices[:, Z] = (rng.uniform(0.0, 1.0, 200)
                        * 10.0 ** rng.integers(-8, 3, 200))
    sa, sb = split_paths([a, line_path(0.5, n=150)], {}, 1.625)
    means = [ordering.compare_heights(pair, 1.625)[(0, 1)]
             for pair in ([sa, sb], [sb, sa])]
    assert [m.hex() for m in means] == [
        compare_heights_brute(sa, sb, 1.625).hex(),
        compare_heights_brute(sb, sa, 1.625).hex()]
    terms = np.concatenate([
        src.vertices[:, Z] - [nearest_on_polyline_brute(x, y, dst.vertices)[1]
                              for x, y in src.vertices[:, :2].tolist()]
        for src, dst in ((sa, sb), (sb, sa))]) * np.repeat([1.0, -1.0], [200, 150])
    assert float(np.sum(terms)) / len(terms) != means[0]


def ordering_structure(layers, eps):
    """Per layer: neighbour pairs, subpath boundaries, graph edges, and the
    edges cycles lost, with their means as hex."""
    out = []
    for paths in layers:
        pairs = ordering.find_neighbors(paths, eps)
        subs = split_paths(paths, pairs, eps)
        graph = build_constraint_graph(subs, eps)
        out.append((list(pairs), [(sp.parent_id, sp.vertices.tobytes(),
                                   sp.first_is_cut, sp.last_is_cut)
                                  for sp in graph.nodes], graph.edges,
                    [(u, v, mean.hex()) for u, v, mean in graph.dropped]))
    return out


def displaced_layers(fixture):
    """The modified paths of each layer of a (mesh, gcode) fixture that
    has some, displaced: what the pipeline hands to the ordering stage."""
    mesh, gcode = fixture
    config = PipelineConfig(ordering_enabled=False)
    program, _, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    layers = [[p for p in layer.toolpaths() if p.modified]
              for layer in program.layers]
    return [paths for paths in layers if paths]


@pytest.mark.parametrize("scene", ["wedge", "wedge_hatch", "three_paths",
                                   "dome_cycles", "nested_loops"])
def test_ordering_structure_matches_scalar_reference(scene, monkeypatch):
    eps = interference_threshold(PrinterProfile())
    if scene == "three_paths":
        layers = [scenes.three_paths_scene()]
    elif scene == "nested_loops":
        # closed paths: of each loop's neighbour rows the split reads
        # those before its closing vertex
        layers = displaced_layers((fixtures.wedge_mesh(),
                                   nested_loops_gcode()))
        assert all(p.closed for paths in layers for p in paths)
    elif scene == "dome_cycles":
        # the dome's second modified layer: 16 paths, 4 edges lost to
        # cycles, two of whose means differ in the last hex digit only
        layers = displaced_layers(fixtures.dome_fixture())[1:2]
    else:
        layers = displaced_layers(
            fixtures.wedge_fixture(cross_hatch=(scene == "wedge_hatch")))
    fast = ordering_structure(layers, eps)
    scalar_reference(monkeypatch)
    assert fast == ordering_structure(layers, eps)
    assert sum(len(pairs) for pairs, *_ in fast) > 0
    if scene == "dome_cycles":
        assert len(layers[0]) == 16 and len(fast[0][3]) == 4
