"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured values (run with -s to see them)."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from toolpath_aa import antialias, evaluate, geometry, ordering, pipeline
from toolpath_aa.gcode import (DELTA, PrinterProfile, parse_gcode,
                               emit_gcode, total_extrusion)
from toolpath_aa.ordering import ConstraintGraph, SubPath
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
import fixtures
import scenes

PROFILE = PrinterProfile()          # w=0.8 tau=1.25 alpha=45deg h=0.6
EPS_GAP = 4.0 * PROFILE.w


def _prepared(fixture_fn, **kw):
    mesh, gcode = fixture_fn(PROFILE, **kw)
    program = parse_gcode(gcode)
    for layer in program.layers:
        for p in layer.toolpaths():
            antialias.resample_path(p, PROFILE.w)
    index = geometry.build_vertical_index(mesh)
    return mesh, program, index


def _all_deltas(program):
    return [d for layer in program.layers
            for tp in layer.toolpaths() for d in tp.vertices[:, DELTA].tolist()]


def test_c01_displacement_bound():
    """All applied displacements stay inside [s-h, s] on every fixture."""
    t0 = time.perf_counter()
    fixture_fns = [
        ("wedge", fixtures.wedge_fixture),
        ("dome", fixtures.dome_fixture),
        ("flat_box", scenes.flat_box_fixture),
    ]
    violations = 0
    for name, fn in fixture_fns:
        for s in (0.06, 0.2, PROFILE.h / 2):
            mesh, program, index = _prepared(fn)
            profile = replace(PROFILE, s=s)
            for layer in program.layers:
                antialias.displace_layer(layer.toolpaths(), index, profile)
            lo, hi = s - PROFILE.h, s
            for d in _all_deltas(program):
                if not (lo <= d <= hi):
                    violations += 1
                if s == PROFILE.h / 2 and abs(d) > 0.3:
                    violations += 1
    assert violations == 0
    print(f"\nACCEPTANCE 1 PASS displacement bound: 0 violations over "
          f"3 fixtures x 3 slicing planes ({time.perf_counter()-t0:.1f}s)")


def test_c02_wedge_snap_accuracy(monkeypatch):
    """Displaced wedge vertices sit on the plane; error map max drops >10x."""
    monkeypatch.setattr(ordering, "EXPANSION_CAP", 20_000)
    t0 = time.perf_counter()
    mesh, gcode = fixtures.wedge_fixture(PROFILE)
    config = PipelineConfig(profile=PROFILE)
    program, report, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    slope = math.tan(math.radians(10.0))
    worst = 0.0
    for layer in program.layers:
        for tp in layer.toolpaths():
            for x, _y, z, _e, _f, delta in tp.vertices.tolist():
                if delta != 0.0:
                    worst = max(worst, abs(z - x * slope))
    assert worst < 1e-6

    def top_face_max(prog):
        tracks = evaluate.tracks_from_program(prog, PROFILE)
        em = evaluate.error_map(mesh, tracks, samples_per_mm2=20, seed=1)
        on_slope = (em.normals[:, 2] > 0.1) & (np.abs(em.normals[:, 0]) > 0.05)
        pts = em.points[on_slope]
        dist = em.distances[on_slope]
        keep = ((pts[:, 0] > 2.5) & (pts[:, 0] < 19.5)
                & (pts[:, 1] > 0.5) & (pts[:, 1] < 9.5))
        return float(dist[keep].max())

    aa_max = top_face_max(program)
    flat = parse_gcode(gcode)
    for layer in flat.layers:
        for p in layer.toolpaths():
            antialias.resample_path(p, PROFILE.w)
    flat_max = top_face_max(flat)
    analytic = (PROFILE.h / 2) * math.cos(math.radians(10.0))
    assert abs(analytic - 0.2954) < 1e-4
    assert flat_max == pytest.approx(analytic, abs=0.05)
    assert aa_max < 0.02
    assert aa_max * 10.0 < flat_max
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"\nACCEPTANCE 2 PASS wedge snap: plane residual {worst:.2e} mm, "
          f"error map {flat_max:.4f} -> {aa_max:.4f} mm "
          f"(analytic flat {analytic:.4f}; {dt:.1f}s)")


def test_c03_three_paths_15_combinatorics():
    """Seven-way split, acyclic graph, and the scene's exact order costs."""
    t0 = time.perf_counter()
    # geometric half: neighbour relations, splitting, constraint graph
    paths = scenes.three_paths_scene()
    eps = ordering.interference_threshold(PROFILE)
    pairs = ordering.find_neighbors(paths, eps)
    assert list(pairs) == [(0, 1), (1, 2)]    # path1-path3 independent
    subs = ordering.split_paths(paths, pairs, eps)
    assert len(subs) == 7
    labels = scenes.label_scene_subpaths(subs)
    partition = {name: labels[name].parent_id for name in "ABCDEFG"}
    assert partition == {"A": 0, "B": 0, "C": 1, "D": 1, "E": 1,
                         "F": 2, "G": 2}
    graph_geo = ordering.build_constraint_graph(subs, eps)
    assert len(graph_geo.nodes) == 7
    assert ordering._find_cycle(graph_geo) is None

    # combinatorial half: exact seam counts on the seven-node scene
    graph, lab = scenes.ordering_scene()

    def seq(s):
        return [lab[c] for c in s]

    cost1, locs1 = scenes.evaluate_order(graph, seq("AFDEBCG"), EPS_GAP)
    cost2, _ = scenes.evaluate_order(graph, seq("FAECDBG"), EPS_GAP)
    cost3, _ = scenes.evaluate_order(graph, seq("ADFCEBG"), EPS_GAP)
    assert (cost1, cost2, cost3) == (3, 3, 7)
    res = ordering.order_paths(graph, EPS_GAP)
    assert res.cost == 3 and not res.suboptimal
    got = {tuple(round(c, 6) for c in p) for p in locs1}
    want = {tuple(round(c, 6) for c in scenes.ORDERING_SCENE_POINTS[k])
            for k in ("AB", "BA", "GF")}
    assert got == want
    a_start, _ = scenes.evaluate_order(graph, seq("AFDECGB"), EPS_GAP,
                                       weighted=True)
    f_start, _ = scenes.evaluate_order(graph, seq("FEABCDG"), EPS_GAP,
                                       weighted=True)
    assert f_start < a_start
    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"\nACCEPTANCE 3 PASS combinatorics: 7 subpaths {{A,B|C,D,E|F,G}}, "
          f"acyclic graph, costs 3/3/7, order-1 gaps at AB,BA,GF, weighted "
          f"F-start {f_start:.2f} < A-start {a_start:.2f} ({dt:.2f}s)")


def _random_graph(rng, n):
    nodes = []
    for i in range(n):
        def pt():
            return (float(rng.integers(0, 6)) * 2.0,
                    float(rng.integers(0, 6)) * 2.0, 0.6)
        verts = np.array([(*pt(), 0.0, 20.0, 0.0), (*pt(), 0.1, 20.0, 0.0)])
        sp = SubPath(parent_id=i, vertices=verts,
                     first_is_cut=True, last_is_cut=True)
        sp.entry_weight = 1.0 + float(rng.integers(0, 4)) / 4.0
        sp.exit_weight = 1.0 + float(rng.integers(0, 4)) / 4.0
        nodes.append(sp)
    p_edge = 0.25 if n < 8 else 0.5
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p_edge]
    return ConstraintGraph(nodes=nodes, edges=edges)


def _brute_min(graph, eps_gap, weighted):
    nodes = graph.nodes
    succ = {}
    indeg = {i: 0 for i in range(len(nodes))}
    for u, v in graph.edges:
        succ.setdefault(u, []).append(v)
        indeg[v] += 1
    seams = ordering._Seams(nodes, eps_gap, weighted)
    best = [math.inf]
    order = []

    def rec():
        if len(order) == len(nodes):
            cost, _ = seams.cost(order)
            best[0] = min(best[0], cost)
            return
        for i in range(len(nodes)):
            if indeg[i] == 0 and i not in order:
                order.append(i)
                for v in succ.get(i, ()):
                    indeg[v] -= 1
                rec()
                for v in succ.get(i, ()):
                    indeg[v] += 1
                order.pop()

    rec()
    return best[0]


def test_c04_ordering_oracle_equivalence():
    """Branch and bound equals brute force on 200 random DAG instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 10))
        graph = _random_graph(rng, n)
        for weighted in (False, True):
            res = ordering.order_paths(graph, EPS_GAP, weighted=weighted)
            assert not res.suboptimal
            ref = _brute_min(graph, EPS_GAP, weighted)
            assert res.cost == pytest.approx(ref), (trial, weighted)
            checked += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"\nACCEPTANCE 4 PASS ordering oracle: {checked} searches over "
          f"200 instances match brute force ({dt:.1f}s)")


def test_c05_volume_conservation():
    """Deposited volume after rescale + overlap compensation ~ mesh volume."""
    t0 = time.perf_counter()
    mesh, gcode = fixtures.wedge_fixture(PROFILE)
    config = PipelineConfig(profile=PROFILE, ordering_enabled=False)
    program, report, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    deposited = total_extrusion(program) * PROFILE.filament_area
    volume = scenes.mesh_volume(mesh)
    ratio = deposited / volume
    assert abs(ratio - 1.0) < 0.02
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"\nACCEPTANCE 5 PASS volume: deposited {deposited:.1f} mm^3 vs "
          f"mesh {volume:.1f} mm^3 (ratio {ratio:.4f}; {dt:.1f}s)")


def test_c06_feedrate_endpoints():
    """Exact speeds at zero and full-height displacement jumps."""
    f_same = antialias.adjust_feedrate(0.12, 0.12, PROFILE.h,
                                       PROFILE.f_ini, PROFILE.f_min)
    f_full = antialias.adjust_feedrate(0.3, -0.3, PROFILE.h,
                                       PROFILE.f_ini, PROFILE.f_min)
    assert f_same == 20.0
    assert f_full == 13.0
    print("\nACCEPTANCE 6 PASS feedrate endpoints: 20 mm/s at equal "
          "displacement, 13 mm/s at a full-layer jump")


def test_c07_print_time_neutrality(monkeypatch):
    """Anti-aliased wedge prints within 10% of the flat estimate."""
    monkeypatch.setattr(ordering, "EXPANSION_CAP", 20_000)
    t0 = time.perf_counter()
    mesh, gcode = fixtures.wedge_fixture(PROFILE)
    flat_time = evaluate.estimate_print_time(parse_gcode(gcode))
    config = PipelineConfig(profile=PROFILE)
    program, _, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    aa_time = evaluate.estimate_print_time(program)
    ratio = aa_time / flat_time
    assert ratio <= 1.10
    dt = time.perf_counter() - t0
    assert dt < 10.0   # budget covers the full pipeline incl. ordering
    print(f"\nACCEPTANCE 7 PASS print time: flat {flat_time:.1f}s -> "
          f"aa {aa_time:.1f}s (ratio {ratio:.3f} <= 1.10; {dt:.1f}s)")


def test_c08_slicing_plane_sweep_trend():
    """Overlap volume grows with s and vanishes at s = 0 on the wedge."""
    t0 = time.perf_counter()
    mesh, program, index = _prepared(fixtures.wedge_fixture, cross_hatch=True)
    rows = antialias.sweep_slicing_plane(program, index, PROFILE,
                                         [0.0, 0.06, 0.2, 0.3])
    vols = dict(rows)
    assert vols[0.0] == 0.0
    assert vols[0.06] <= vols[0.2] <= vols[0.3]
    assert vols[0.3] > 0.0
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"\nACCEPTANCE 8 PASS sweep: overlap mm^3 "
          f"{[(s, round(v, 3)) for s, v in rows]} ({dt:.1f}s)")


def test_c09_critical_angle():
    deg = math.degrees(fixtures.critical_angle(0.6, 0.8))
    assert abs(deg - 36.87) <= 0.01
    print(f"\nACCEPTANCE 9 PASS critical angle: {deg:.4f} deg")


def test_c10_throughput():
    """Displacement + extrusion rescale over 100k+ vertices in under 5 s."""
    mesh, gcode = fixtures.wedge_fixture(PROFILE, base=40.0, depth=40.0)
    program = parse_gcode(gcode)
    pitch = 0.11
    for layer in program.layers:
        for p in layer.toolpaths():
            antialias.resample_path(p, pitch)
    n = program.vertex_count()
    assert n >= 100_000
    index = geometry.build_vertical_index(mesh)
    t0 = time.perf_counter()
    stats = antialias.DisplacementStats()
    for layer in program.layers:
        paths = layer.toolpaths()
        antialias.displace_layer(paths, index, PROFILE, stats=stats)
        antialias.rescale_paths(paths, PROFILE)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"\nACCEPTANCE 10 PASS throughput: {n} vertices displaced+rescaled "
          f"in {dt:.2f}s ({stats.displaced} moved)")


def test_c11_topological_validity(monkeypatch):
    """Every produced order respects its edges; unmodified paths lead."""
    t0 = time.perf_counter()
    checked_orders = 0

    def check(graph, result):
        nonlocal checked_orders
        pos = {id(sp): k for k, sp in enumerate(result.order)}
        for u, v in graph.edges:
            assert pos[id(graph.nodes[u])] < pos[id(graph.nodes[v])]
        checked_orders += 1

    # wedge end-to-end layers: their modified paths, which are all that
    # the pipeline hands to the ordering stage
    mesh, program, index = _prepared(fixtures.wedge_fixture)
    for layer in program.layers:
        antialias.displace_layer(layer.toolpaths(), index, PROFILE)
    eps = ordering.interference_threshold(PROFILE)
    monkeypatch.setattr(ordering, "EXPANSION_CAP", 10_000)
    for layer in program.layers:
        paths = [p for p in layer.toolpaths() if p.modified]
        pairs = ordering.find_neighbors(paths, eps)
        subs = ordering.split_paths(paths, pairs, eps)
        graph = ordering.build_constraint_graph(subs, eps)
        check(graph, ordering.order_paths(graph, EPS_GAP))
    # three_paths geometric scene
    paths = scenes.three_paths_scene()
    pairs = ordering.find_neighbors(paths, eps)
    subs = ordering.split_paths(paths, pairs, eps)
    graph = ordering.build_constraint_graph(subs, eps)
    check(graph, ordering.order_paths(graph, EPS_GAP))
    # seven-node scene
    graph, _ = scenes.ordering_scene()
    check(graph, ordering.order_paths(graph, EPS_GAP))
    # relinked wedge layers: the unmodified paths print first
    pipeline.order_program(program, PROFILE, weighted=False)
    for layer in program.layers:
        mods = [tp.modified for tp in layer.toolpaths()]
        assert mods == sorted(mods)      # all False before all True
    print(f"\nACCEPTANCE 11 PASS topological validity: {checked_orders} "
          f"orders, zero violations ({time.perf_counter()-t0:.1f}s)")


def _corpus():
    """A >=10k-line corpus: fixtures plus hand-written oddities."""
    parts = []
    _, g1 = fixtures.wedge_fixture(PROFILE, base=30.0, depth=20.0)
    parts.append(g1)
    _, g1b = fixtures.wedge_fixture(PROFILE, base=40.0, depth=25.0,
                                    cross_hatch=True)
    parts.append(g1b)
    _, g2 = fixtures.dome_fixture(PROFILE)
    parts.append(g2)
    _, g2b = fixtures.dome_fixture(PROFILE, radius=16.0, cap_height=4.0,
                                   extent=22.0)
    parts.append(g2b)
    _, g3 = scenes.flat_box_fixture(PROFILE)
    parts.append(g3)
    extras = [
        "; handcrafted section",
        "M117 Printing...",
        "M106 S255",
        "G92 E0",
        "G0 X1 Y1 Z50.0 F7200",
        "G1 X5 Y1 E0.2 F1200",
        "G1 E-1.2 F1800",
        "G0 X9 Y9",
        "G1 E0.0 F1800",
        "G1 X9 Y5 E0.4 F1200",
        "M107",
    ]
    parts.append("\n".join(extras) + "\n")
    text = "".join(parts)
    return text


def test_c12_roundtrip_fidelity():
    """parse -> emit keeps motion values and non-motion bytes."""
    text = _corpus()
    lines = text.split("\n")
    assert len(lines) >= 10_000
    prog1 = parse_gcode(text)
    out = emit_gcode(prog1)
    prog2 = parse_gcode(out)

    def motion(prog):
        rows = []
        for layer in prog.layers:
            for tp in layer.toolpaths():
                rows += tp.vertices[:, :5].tolist()
        return rows

    m1, m2 = motion(prog1), motion(prog2)
    assert len(m1) == len(m2)
    for a, b in zip(m1, m2):
        for va, vb in zip(a, b):
            assert abs(va - vb) < 1e-6
    assert total_extrusion(prog1) == pytest.approx(total_extrusion(prog2),
                                                   abs=1e-6)

    def is_motion(line):
        s = line.strip().upper()
        return s.startswith(("G0", "G1"))

    in_nonmotion = [l for l in lines if l and not is_motion(l)]
    out_lines = out.split("\n")
    out_nonmotion = [l for l in out_lines if l and not is_motion(l)]
    assert in_nonmotion == out_nonmotion
    print(f"\nACCEPTANCE 12 PASS round trip: {len(lines)} lines, "
          f"{len(m1)} motion vertices within 1e-6, "
          f"{len(in_nonmotion)} non-motion lines byte-identical")
