import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toolpath_aa import antialias
from toolpath_aa.antialias import (DisplacementWindow, adjust_extrusion,
                                   adjust_feedrate, detect_overlaps,
                                   displace_layer, displace_program,
                                   reduce_overlap_flow, rescale_paths,
                                   resample_path, sweep_slicing_plane)
from toolpath_aa.gcode import (DELTA, E, F, X, Y, Z, Layer, PrinterProfile,
                               PrintProgram, Toolpath, deposition_segments,
                               parse_gcode)
from toolpath_aa.geometry import build_vertical_index, cast_vertical_batch
from fixtures import dome_fixture, wedge_fixture, wedge_mesh
from scenes import flat_box_fixture, signed_area, three_paths_scene


def straight_path(length, e_total=2.0, n=2, z=0.6):
    verts = [(0, 0, z, 0.0, 20.0, 0.0)]
    for k in range(1, n):
        verts.append((length * k / (n - 1), 0, z, e_total / (n - 1), 20.0,
                      0.0))
    return Toolpath(vertices=verts)


def _segment_lengths(verts, axes=2):
    pts = verts[:, :axes].tolist()
    return [math.dist(a, b) for a, b in zip(pts, pts[1:])]


def test_resample_splits_into_equal_pieces():
    path = straight_path(2.0, e_total=2.0)
    resample_path(path, 0.8)
    segs = _segment_lengths(path.vertices)
    assert len(segs) == 3
    assert all(s == pytest.approx(2.0 / 3.0) for s in segs)
    assert all(e == pytest.approx(2.0 / 3.0) for e in path.vertices[1:, E])


def test_resample_short_segment_unchanged():
    path = straight_path(0.5)
    before = path.vertices[:, :3].tolist()
    resample_path(path, 0.8)
    assert path.vertices[:, :3].tolist() == before


def test_resample_splits_a_segment_longer_than_w_by_one_ulp():
    # -29.2 - (-30.0) is 0.8000000000000007 in floating point
    over = Toolpath(vertices=[(-30.0, 0, 0.6, 0.0, 20.0, 0.0),
                              (-29.2, 0, 0.6, 1.0, 20.0, 0.0)])
    assert len(resample_path(over, 0.8)) == 3
    exact = Toolpath(vertices=[(0.0, 0, 0.6, 0.0, 20.0, 0.0),
                               (0.8, 0, 0.6, 1.0, 20.0, 0.0)])
    assert len(resample_path(exact, 0.8)) == 2


def test_resample_closed_square():
    pts = [(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)]
    verts = [(x, y, 0.6, 0.0 if i == 0 else 1.0, 20.0, 0.0)
             for i, (x, y) in enumerate(pts)]
    path = Toolpath(vertices=verts)
    resample_path(path, 0.8)
    assert path.closed
    segs = _segment_lengths(path.vertices)
    assert len(segs) == 20                 # ceil(4/0.8) = 5 per side
    assert path.vertices[0, :3].tolist() == path.vertices[-1, :3].tolist()
    assert path.total_e() == pytest.approx(4.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
                min_size=2, max_size=8, unique=True),
       st.floats(0.1, 3.0, allow_nan=False))
def test_resample_properties(points, w):
    verts = np.array([(x / 10.0, y / 10.0, 0.6,
                       0.0 if i == 0 else 1.0, 20.0, 0.0)
                      for i, (x, y) in enumerate(points)])
    path = Toolpath(vertices=verts)
    total_len = sum(_segment_lengths(path.vertices))
    total_e = path.total_e()
    resample_path(path, w)
    assert sum(_segment_lengths(path.vertices)) == pytest.approx(total_len,
                                                                 abs=1e-9)
    assert path.total_e() == pytest.approx(total_e, abs=1e-9)
    for seg in _segment_lengths(path.vertices, axes=3):
        assert seg <= w + 1e-9
    assert path.vertices[0, :3].tolist() == verts[0, :3].tolist()
    assert path.vertices[-1, :3].tolist() == verts[-1, :3].tolist()


def resample_reference(verts, w):
    """The per-vertex loop that `resample_path` replaced, on vertex rows."""
    rows = verts.tolist()
    out = rows[:1]
    for prev, cur in zip(rows, rows[1:]):
        seg = math.dist(prev[:3], cur[:3])
        if seg <= w or seg == 0.0:
            out.append(cur)
            continue
        n = math.ceil(seg / w)
        for k in range(1, n):
            t = k / n
            out.append([prev[X] + (cur[X] - prev[X]) * t,
                        prev[Y] + (cur[Y] - prev[Y]) * t,
                        prev[Z] + (cur[Z] - prev[Z]) * t,
                        cur[E] / n,
                        cur[F],
                        prev[DELTA] + (cur[DELTA] - prev[DELTA]) * t])
        out.append([cur[X], cur[Y], cur[Z], cur[E] / n, cur[F], cur[DELTA]])
    return np.array(out)


def _fixture_paths():
    profile = PrinterProfile()
    paths = three_paths_scene()
    for _mesh, gcode in (wedge_fixture(profile),
                         wedge_fixture(profile, cross_hatch=True),
                         flat_box_fixture(profile),
                         dome_fixture(profile)):
        paths += parse_gcode(gcode).all_toolpaths()
    return paths


@pytest.mark.parametrize("w", [0.8, 0.3])
def test_resample_matches_per_vertex_reference(w):
    # bit for bit, on every toolpath of every fixture; the scene's loops
    # carry nonzero deltas
    resampled = 0
    for path in _fixture_paths():
        expected = resample_reference(path.vertices, w)
        resample_path(path, w)
        assert path.vertices.shape == expected.shape
        assert path.vertices.tobytes() == expected.tobytes()
        resampled += len(expected)
    assert resampled > 1000


def test_window_default_and_general():
    p = PrinterProfile()
    win = DisplacementWindow.for_profile(p)
    assert (win.lo, win.hi) == (pytest.approx(-0.3), pytest.approx(0.3))
    win2 = DisplacementWindow.for_profile(replace(p, s=0.06))
    assert (win2.lo, win2.hi) == (pytest.approx(-0.54), pytest.approx(0.06))


def test_adjust_extrusion_examples():
    assert adjust_extrusion(2.0, 0.6, 0.0) == pytest.approx(2.0)
    assert adjust_extrusion(2.0, 0.6, +0.3) == pytest.approx(3.0)
    assert adjust_extrusion(2.0, 0.6, -0.3) == pytest.approx(1.0)


def test_adjust_feedrate_examples():
    assert adjust_feedrate(0.1, 0.1, 0.6, 20, 13) == pytest.approx(20.0)
    assert adjust_feedrate(0.3, -0.3, 0.6, 20, 13) == pytest.approx(13.0)
    assert adjust_feedrate(0.0, 0.3, 0.6, 20, 13) == pytest.approx(16.5)
    # over-range clamps
    assert adjust_feedrate(0.0, 1.2, 0.6, 20, 13) == pytest.approx(13.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
def test_feedrate_monotone_in_delta_jump(d1, d2, d3):
    f_small = adjust_feedrate(d1, d2, 0.6, 20, 13)
    wider = d2 + math.copysign(abs(d3), d2 - d1) if d2 != d1 else d2
    f_large = adjust_feedrate(d1, wider, 0.6, 20, 13)
    if abs(d1 - wider) >= abs(d1 - d2):
        assert f_large <= f_small + 1e-12


class WedgeEnv:
    def __init__(self, cross=False):
        self.profile = PrinterProfile()
        self.mesh, gcode = wedge_fixture(self.profile, cross_hatch=cross)
        self.program = parse_gcode(gcode)
        for layer in self.program.layers:
            for p in layer.toolpaths():
                antialias.resample_path(p, self.profile.w)
        self.index = build_vertical_index(self.mesh)

    def displace_all(self):
        stats = antialias.DisplacementStats()
        for layer in self.program.layers:
            displace_layer(layer.toolpaths(), self.index, self.profile,
                           stats=stats)
        return stats


def test_displace_wedge_window_and_snap():
    env = WedgeEnv()
    stats = env.displace_all()
    assert stats.displaced > 0
    slope = math.tan(math.radians(10.0))
    for layer in env.program.layers:
        for tp in layer.toolpaths():
            for x, _y, z, _e, _f, delta in tp.vertices.tolist():
                assert -0.3 - 1e-12 <= delta <= 0.3 + 1e-12
                if delta != 0.0:
                    assert abs(z - x * slope) < 1e-6
                    assert tp.modified


def test_displace_untouched_vertex_keeps_flat_z():
    env = WedgeEnv()
    env.displace_all()
    # interior vertices (surface more than h/2 above) keep the flat top
    found = False
    for layer in env.program.layers:
        for tp in layer.toolpaths():
            for _x, _y, z, e, _f, delta in tp.vertices.tolist():
                if delta == 0.0 and e > 0:
                    assert z == pytest.approx(layer.base_z)
                    found = True
    assert found


def test_displace_idempotent():
    # a second pass may add vertices where a segment crosses the window's
    # edge, but moves none: every vertex of the first pass comes back, in
    # order, among the second pass's vertices
    env = WedgeEnv()
    env.displace_all()
    paths = list(env.program.all_toolpaths())
    before = [tp.vertices[:, :3].tolist() for tp in paths]
    env.displace_all()
    for rows, tp in zip(before, paths):
        after = iter(tp.vertices[:, :3].tolist())
        for a in rows:
            # consumes the second pass's rows up to the match
            assert any(math.dist(a, b) < 1e-9 for b in after)


def test_displace_extreme_half_layer():
    # a vertex whose surface sits exactly h/2 above moves by exactly +h/2
    profile = PrinterProfile()
    mesh = wedge_mesh()
    index = build_vertical_index(mesh)
    slope = math.tan(math.radians(10.0))
    x = (0.6 + 0.3) / slope          # surface z = 0.9, vertex z = 0.6
    path = Toolpath(vertices=[(x - 0.5, 5.0, 0.6, 0.0, 20.0, 0.0),
                              (x, 5.0, 0.6, 0.1, 20.0, 0.0)])
    displace_layer([path], index, profile)
    assert path.vertices[1, DELTA] == pytest.approx(+0.3, abs=1e-9)
    assert path.vertices[1, Z] == pytest.approx(0.9, abs=1e-9)


def test_displace_zero_offset_untouched():
    profile = PrinterProfile()
    mesh = wedge_mesh()
    index = build_vertical_index(mesh)
    slope = math.tan(math.radians(10.0))
    x = 0.6 / slope                   # surface exactly at the vertex
    path = Toolpath(vertices=[(x - 0.5, 5.0, 0.6, 0.0, 20.0, 0.0),
                              (x, 5.0, 0.6, 0.1, 20.0, 0.0)])
    displace_layer([path], index, profile)
    assert path.vertices[1, DELTA] == 0.0
    assert path.vertices[1, Z] == pytest.approx(0.6)


def test_stats_range_of_raised_only_layer():
    # both vertices sit below the surface: the range must not include 0
    profile = PrinterProfile()
    mesh = wedge_mesh()
    index = build_vertical_index(mesh)
    slope = math.tan(math.radians(10.0))
    path = Toolpath(vertices=[((0.6 + 0.1) / slope, 5.0, 0.6, 0.0, 20.0, 0.0),
                              ((0.6 + 0.2) / slope, 5.0, 0.6, 0.1, 20.0, 0.0)])
    _, stats = displace_layer([path], index, profile)
    assert stats.displaced == 2
    assert stats.min_delta == pytest.approx(0.1, abs=1e-9)
    assert stats.max_delta == pytest.approx(0.2, abs=1e-9)
    report = stats.as_dict(profile.h)
    assert report["delta_range_mm"] == [stats.min_delta, stats.max_delta]
    assert report["achieved_thickness_range_mm"] == pytest.approx([0.7, 0.8])
    # nothing displaced: no range, and the report stays valid JSON
    empty = antialias.DisplacementStats().as_dict(profile.h)
    assert empty["delta_range_mm"] is None
    assert empty["achieved_thickness_range_mm"] is None
    json.dumps(empty, allow_nan=False)


def test_bottom_facing_untouched():
    profile = PrinterProfile()
    mesh = wedge_mesh()
    index = build_vertical_index(mesh)
    # vertex just above the wedge bottom plane: closest surface is the
    # bottom (facing down), so it must stay untouched
    path = Toolpath(vertices=[(9.5, 5.0, 0.2, 0.0, 20.0, 0.0),
                              (10.0, 5.0, 0.2, 0.1, 20.0, 0.0)])
    _, stats = displace_layer([path], index, profile)
    assert path.vertices[1, Z] == pytest.approx(0.2)
    assert stats.skipped_bottom_facing >= 1


def _synthetic_overlap_program(raise_by=0.2, upper_e=5.0):
    profile = PrinterProfile()
    p = PrintProgram()
    low = Toolpath(vertices=[(0, 0, 0.6 + raise_by, 0.0, 20, raise_by),
                             (10, 0, 0.6 + raise_by, 5.0, 20, raise_by)])
    up = Toolpath(vertices=[(0, 0, 1.2, 0.0, 20, 0.0),
                            (10, 0, 1.2, upper_e, 20, 0.0)])
    l0 = Layer(base_z=0.6, events=[low])
    l1 = Layer(base_z=1.2, events=[up])
    p.layers = [l0, l1]
    return p, profile


def test_overlap_volume_box_oracle():
    # raised by 0.2 into a track of width 0.8 over length 10 -> 1.6 mm^3
    program, profile = _synthetic_overlap_program()
    records, report = detect_overlaps(program, profile)
    assert len(records) == 1
    assert report["overlap_volume_mm3"] == pytest.approx(1.6, abs=1e-9)


def test_overlap_flow_reduction_and_reports():
    program, profile = _synthetic_overlap_program()
    upper = program.layers[1].toolpaths()[0]
    e_before = upper.total_e()
    records, report = reduce_overlap_flow(program, profile)
    de = 1.6 / profile.filament_area
    assert upper.total_e() == pytest.approx(e_before - de)
    assert report["upper_segments_clamped_to_zero"] == 0


def test_overlap_clamps_to_zero():
    program, profile = _synthetic_overlap_program(upper_e=0.1)
    upper = program.layers[1].toolpaths()[0]
    _, report = reduce_overlap_flow(program, profile)
    assert upper.total_e() == pytest.approx(0.0)
    assert report["upper_segments_clamped_to_zero"] == 1


def test_no_displacement_no_overlaps():
    program, profile = _synthetic_overlap_program(raise_by=0.0)
    records, report = detect_overlaps(program, profile)
    assert records.size == 0
    assert report["overlap_volume_mm3"] == 0


def test_refine_window_boundaries_keeps_input_vertices():
    env = WedgeEnv()
    window = DisplacementWindow.for_profile(env.profile)
    inserted = 0
    for layer in env.program.layers:
        paths = layer.toolpaths()
        before = [p.vertices.copy() for p in paths]
        verts = np.concatenate([p.vertices for p in paths])
        ends = np.cumsum([len(p) for p in paths])
        cast = antialias._cast(env.index, verts)
        verts, ends, cast = antialias._refine_window_boundaries(
            verts, ends, env.index, window, cast)
        inserted += len(verts) - sum(len(v) for v in before)
        assert all(np.array_equal(p.vertices, v)
                   for p, v in zip(paths, before))
        assert ends[-1] == len(verts)
        # the batched rows equal a cast of each vertex on its own
        rows = list(zip(*(c.tolist() for c in cast)))
        assert rows == [_cast_alone(env.index, v) for v in verts]
    assert inserted > 0


def _cast_alone(index, v):
    delta, top, hit = cast_vertical_batch(
        index, np.array([v[X]]), np.array([v[Y]]), np.array([v[Z]]))
    return float(delta[0]), bool(top[0]), bool(hit[0])


class AllPairsGrid:
    """Stands in for `BoxGrid` in `detect_overlaps`: every (upper, lower)
    pair whose padded boxes overlap, computed all-pairs. The boxes grow by
    a further millimetre, so the reference does not rest on the pad that
    `detect_overlaps` chose."""

    def __init__(self, lo, hi, cell=None):
        self.lo, self.hi = lo - 1.0, hi + 1.0

    def pairs(self, lo, hi):
        return np.nonzero(((lo[:, None] - 1.0 <= self.hi[None])
                           & (hi[:, None] + 1.0 >= self.lo[None])).all(axis=2))


def test_modified_is_a_displaced_row():
    # after the displacement a path is modified exactly when one of its
    # rows moved off its parsed height, which its DELTA records; a path the
    # rays miss stays unmodified, and a layer where nothing moved gets its
    # parsed rows back
    profile = PrinterProfile()
    mesh, gcode = wedge_fixture(profile)
    program = parse_gcode(gcode)
    off_mesh = [straight_path(5.0, z=z) for z in (0.6, 4.2)]
    for path in off_mesh:
        path.vertices[:, Y] += 50.0
    program.layers[0].events.append(off_mesh[0])
    program.layers.append(Layer(4.2, [off_mesh[1]]))
    parsed = [[p.vertices for p in layer.toolpaths()]
              for layer in program.layers]
    displace_program(program, build_vertical_index(mesh), profile)
    for layer, rows in zip(program.layers, parsed):
        for path, before in zip(layer.toolpaths(), rows):
            moved = bool((path.vertices[:, Z] != before[0, Z]).any())
            assert path.modified == moved
            assert path.modified == bool((path.vertices[:, DELTA] != 0).any())
    assert [p.modified for p in program.layers[0].toolpaths()][-2:] == [
        True, False]
    reverted = program.layers[-1].toolpaths()
    assert reverted[0].vertices is parsed[-1][0]
    assert not any(p.modified for p in reverted)


def displaced_and_rescaled(gcode, mesh, profile):
    """The program as a run hands it to the overlap compensation."""
    program = parse_gcode(gcode)
    displace_program(program, build_vertical_index(mesh), profile)
    for layer in program.layers:
        rescale_paths(layer.toolpaths(), profile)
    return program


@pytest.mark.parametrize("scene", ["wedge", "wedge_hatch", "dome"])
def test_overlaps_match_all_pairs_reference(scene, monkeypatch):
    profile = PrinterProfile(s=0.3)
    if scene == "dome":
        mesh, gcode = dome_fixture(profile)
    else:
        mesh, gcode = wedge_fixture(profile, cross_hatch=(scene == "wedge_hatch"))
    program = displaced_and_rescaled(gcode, mesh, profile)
    fast, _ = detect_overlaps(program, profile)
    monkeypatch.setattr(antialias, "BoxGrid", AllPairsGrid)
    reference, _ = detect_overlaps(program, profile)
    assert len(fast) > 0
    assert record_keys(fast) == record_keys(reference)


# ---------------------------------------------------------------------------
# Scalar reference for the batched overlap clip: one pair at a time

def _segment_rect(p1, p2, half_width):
    """Corners of the XY rectangle swept by a segment of width 2*half_width."""
    dx = p2[0] - p1[0]
    dy = p2[1] - p1[1]
    length = math.hypot(dx, dy)
    if length < 1e-12:
        nx, ny = half_width, 0.0
    else:
        nx = -dy / length * half_width
        ny = dx / length * half_width
    return [
        (p1[0] + nx, p1[1] + ny),
        (p2[0] + nx, p2[1] + ny),
        (p2[0] - nx, p2[1] - ny),
        (p1[0] - nx, p1[1] - ny),
    ]


def _inside(p, a, b):
    ex, ey = b[0] - a[0], b[1] - a[1]
    return ex * (p[1] - a[1]) - ey * (p[0] - a[0]) >= -1e-12


def _clip_polygon(subject, clip):
    """Sutherland-Hodgman clipping of a convex polygon by a convex polygon."""
    if signed_area(clip) < 0:
        clip = clip[::-1]
    output = subject
    n = len(clip)
    for i in range(n):
        if not output:
            return []
        a = clip[i]
        b = clip[(i + 1) % n]
        inputs = output
        output = []
        prev = inputs[-1]
        prev_in = _inside(prev, a, b)
        for cur in inputs:
            cur_in = _inside(cur, a, b)
            if cur_in:
                if not prev_in:
                    output.append(_intersect(prev, cur, a, b))
                output.append(cur)
            elif prev_in:
                output.append(_intersect(prev, cur, a, b))
            prev, prev_in = cur, cur_in
    return output


def _den(p, q, a, b):
    return (p[0] - q[0]) * (a[1] - b[1]) - (p[1] - q[1]) * (a[0] - b[0])


def _intersect(p, q, a, b):
    x1, y1 = p
    x2, y2 = q
    x3, y3 = a
    x4, y4 = b
    den = _den(p, q, a, b)
    if abs(den) < 1e-30:
        return q
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def _polygon_centroid(poly):
    # the additions in order, as sum() made them before Python 3.12
    cx = cy = 0.0
    for x, y in poly:
        cx += x
        cy += y
    return cx / len(poly), cy / len(poly)


def _penetration_at(la, lb, cx, cy, upper_bottom):
    """Lower-track top above the upper track's bottom at (cx, cy); la and
    lb are the segment's vertex rows."""
    dx = lb[X] - la[X]
    dy = lb[Y] - la[Y]
    L2 = dx * dx + dy * dy
    if L2 < 1e-18:
        t = 0.0
    else:
        t = ((cx - la[X]) * dx + (cy - la[Y]) * dy) / L2
        t = min(max(t, 0.0), 1.0)
    top = la[Z] + (lb[Z] - la[Z]) * t
    return top - upper_bottom


def overlaps_pair_by_pair(program, profile):
    """Reference for `detect_overlaps`: every raised lower segment against
    every upper segment whose padded box lies within 1 mm of its own, one
    pair at a time, in (layer pair, upper, lower) order."""
    half = profile.d / 2.0
    records = []
    layers = [layer.toolpaths() for layer in program.layers]
    for li in range(len(layers) - 1):
        lpath, lrow, la, lb = deposition_segments(layers[li])
        upath, urow, ua, ub = deposition_segments(layers[li + 1])
        raised = np.flatnonzero((la[:, DELTA] > 0) | (lb[:, DELTA] > 0))
        llo = np.minimum(la[raised, :2], lb[raised, :2]) - half - 1.0
        lhi = np.maximum(la[raised, :2], lb[raised, :2]) + half + 1.0
        ulo = np.minimum(ua[:, :2], ub[:, :2]) - half
        uhi = np.maximum(ua[:, :2], ub[:, :2]) + half
        near = ((ulo[:, None] <= lhi[None]) & (uhi[:, None] >= llo[None])).all(axis=2)
        for u, j in zip(*np.nonzero(near)):
            k = raised[j]
            poly = _clip_polygon(_segment_rect(la[k].tolist(), lb[k].tolist(), half),
                                 _segment_rect(ua[u].tolist(), ub[u].tolist(), half))
            if len(poly) < 3:
                continue
            area = abs(signed_area(poly))
            if area <= 1e-12:
                continue
            cx, cy = _polygon_centroid(poly)
            pen = _penetration_at(la[k].tolist(), lb[k].tolist(), cx, cy,
                                  program.layers[li].base_z)
            if pen <= 0:
                continue
            records.append(((li, int(lpath[k]), int(lrow[k])),
                            (li + 1, int(upath[u]), int(urow[u])),
                            (area * pen).hex()))
    return records


def record_keys(records):
    """Each record as ((layer, path, row) of the lower segment, the same
    of the upper one, the volume's hex), as `overlaps_pair_by_pair` lists
    them."""
    return [((li, lp, lr), (li + 1, up, ur), v.hex())
            for li, lp, lr, up, ur, v in records.tolist()]


@pytest.mark.parametrize("s", [0.3, 0.5])
@pytest.mark.parametrize("scene", ["wedge", "wedge_hatch", "dome"])
def test_overlaps_match_scalar_clip_bitwise(scene, s):
    profile = PrinterProfile(s=s)
    if scene == "dome":
        mesh, gcode = dome_fixture(profile)
    else:
        mesh, gcode = wedge_fixture(profile, cross_hatch=(scene == "wedge_hatch"))
    program = displaced_and_rescaled(gcode, mesh, profile)
    records, report = detect_overlaps(program, profile)
    assert len(records) > 50
    assert record_keys(records) == overlaps_pair_by_pair(program, profile)
    assert report["overlap_volume_mm3"] == sum(r.volume for r in records)


def two_layers(lower, upper, raise_by=0.2):
    """A program of one layer of raised lower segments and one of flat
    upper segments, each given as ((x1, y1), (x2, y2))."""
    def layer(segments, z, delta):
        return [Toolpath(vertices=[(x1, y1, z + delta, 0.0, 20.0, delta),
                                   (x2, y2, z + delta, 0.1, 20.0, delta)])
                for (x1, y1), (x2, y2) in segments]
    return PrintProgram(layers=[Layer(0.6, layer(lower, 0.6, raise_by)),
                                Layer(1.2, layer(upper, 1.2, 0.0))])


# touching rectangles: 0.8 mm tracks whose centre lines lie 0.8 mm apart,
# then 1e-13 mm further and 1e-13 mm nearer, along x and along a diagonal
TOUCHING = [([((0.0, y), (2.0, y))], [((0.5, 0.0), (2.5, 0.0))])
            for y in (0.8, 0.8 + 1e-13, 0.8 - 1e-13)] + [
    ([((0.0, 0.0), (2.0, 2.0))],
     [((c, -c), (2.0 + c, 2.0 - c))])
    for c in (0.4 * math.sqrt(2.0), 0.4 * math.sqrt(2.0) + 1e-13)]


@pytest.mark.parametrize("lower, upper", [
    # a zero-length lower segment, then a zero-length upper segment, each
    # inside the other track
    ([((1.0, 0.0), (1.0, 0.0))], [((0.0, 0.0), (2.0, 0.0))]),
    ([((0.0, 0.0), (2.0, 0.0))], [((1.0, 0.1), (1.0, 0.1))]),
    ([((1.0, 0.0), (1.0, 0.0))], [((1.0, 0.0), (1.0, 0.0))]),
] + TOUCHING + [
    # no upper box meets a lower one
    ([((0.0, 0.0), (2.0, 0.0))], [((0.0, 5.0), (2.0, 5.0))]),
], ids=["zero_length_lower", "zero_length_upper", "zero_length_both",
        "touching", "apart_1e-13", "overlapping_1e-13", "touching_diagonal",
        "apart_1e-13_diagonal", "no_meeting_boxes"])
def test_overlaps_match_scalar_clip_on_hand_built_pairs(lower, upper):
    program = two_layers(lower, upper)
    profile = PrinterProfile()
    records, report = detect_overlaps(program, profile)
    assert record_keys(records) == overlaps_pair_by_pair(program, profile)
    assert report["overlap_records"] == len(records)
    # the clipped polygons themselves, slivers and empty ones included
    half = profile.d / 2.0
    for (a, b), (c, d) in itertools.product(lower, upper):
        want = _clip_polygon(_segment_rect(a, b, half), _segment_rect(c, d, half))
        rects = [antialias._segment_rects(np.array([p]), np.array([q]), half)
                 for p, q in ((a, b), (c, d))]
        xs, ys, n = antialias._clip_rects(*rects[0], *rects[1])
        got = list(zip(xs[0, :n[0]].tolist(), ys[0, :n[0]].tolist()))
        assert [(x.hex(), y.hex()) for x, y in got] == [
            (x.hex(), y.hex()) for x, y in want]


def test_hand_built_overlaps_are_what_the_geometry_says():
    profile = PrinterProfile()
    # a zero-length lower segment is a 0.8 mm line, not an area
    assert detect_overlaps(two_layers(*[[((1.0, 0.0), (1.0, 0.0))],
                                        [((0.0, 0.0), (2.0, 0.0))]]),
                           profile)[0].size == 0
    # touching tracks and tracks apart by a box give nothing
    for lower, upper in TOUCHING + [([((0.0, 0.0), (2.0, 0.0))],
                                     [((0.0, 5.0), (2.0, 5.0))])]:
        assert detect_overlaps(two_layers(lower, upper), profile)[0].size == 0
    # 1.5 mm of common length, raised 0.2 mm, 0.8 mm wide: 0.24 mm^3
    (rec,), _ = detect_overlaps(two_layers([((0.0, 0.0), (2.0, 0.0))],
                                           [((0.5, 0.0), (2.5, 0.0))]), profile)
    assert rec.volume == pytest.approx(0.24, abs=1e-12)


def test_clip_keeps_the_end_vertex_of_a_parallel_crossing():
    # a subject edge P -> Q parallel to the clip edge (0, 0) -> (3, 1), on
    # the 1e-12 tolerance line, where rounding puts P inside and Q outside:
    # the scalar clip's |den| < 1e-30 case returns Q as the crossing
    y1 = 0.1 + 2e-5
    p = (3 * y1 + 1e-12, y1)
    q = (p[0] + 0.75, p[1] + 0.25)
    clip = [(0.0, 0.0), (3.0, 1.0), (2.0, 4.0), (-1.0, 3.0)]
    assert _den(p, q, clip[0], clip[1]) == 0.0
    assert _inside(p, clip[0], clip[1]) and not _inside(q, clip[0], clip[1])
    subject = [p, q, (q[0] - 1.0, q[1] + 3.0), (p[0] - 1.0, p[1] + 3.0)]
    # walked backwards, Q -> P crosses inwards and P comes out twice
    for sub, cl, end in ((subject, clip, [q]), (subject[::-1], clip[::-1], [p, p])):
        want = _clip_polygon(sub, cl)
        xs, ys, n = antialias._clip_rects(*(np.array([c]) for c in zip(*sub)),
                                          *(np.array([c]) for c in zip(*cl)))
        got = list(zip(xs[0, :n[0]].tolist(), ys[0, :n[0]].tolist()))
        assert [v for v in want if v == end[0]] == end
        assert [(x.hex(), y.hex()) for x, y in got] == [
            (x.hex(), y.hex()) for x, y in want]


def test_sweep_zero_at_s0_and_monotone():
    env = WedgeEnv(cross=True)
    rows = sweep_slicing_plane(env.program, env.index, env.profile,
                               [0.0, 0.06, 0.2, 0.3])
    vols = [v for _s, v in rows]
    assert vols[0] == 0.0
    assert vols[0] <= vols[1] <= vols[2] <= vols[3]
    assert vols[3] > 0.0


def test_sweep_does_not_mutate_input():
    # the sweep shares the parsed arrays: every byte of all six columns
    # must come back as it was
    env = WedgeEnv(cross=True)
    before = [tp.vertices.tobytes() for layer in env.program.layers
              for tp in layer.toolpaths()]
    sweep_slicing_plane(env.program, env.index, env.profile, [0.3])
    after = [tp.vertices.tobytes() for layer in env.program.layers
             for tp in layer.toolpaths()]
    assert before == after


def test_rescale_paths_adjusts_e_and_f():
    env = WedgeEnv()
    env.displace_all()
    profile = env.profile
    # record pre-scale segment extrusions
    pre = {}
    for li, layer in enumerate(env.program.layers):
        for pi, tp in enumerate(layer.toolpaths()):
            for si, e in enumerate(tp.vertices[:, E].tolist()):
                pre[(li, pi, si)] = e
    for layer in env.program.layers:
        antialias.rescale_paths(layer.toolpaths(), profile)
    checked = 0
    for li, layer in enumerate(env.program.layers):
        for pi, tp in enumerate(layer.toolpaths()):
            rows = tp.vertices.tolist()
            for si, v in enumerate(rows):
                if si == 0:
                    continue
                expected = pre[(li, pi, si)]
                if v[DELTA] != 0.0 and tp.modified:
                    expected = expected * (profile.h + v[DELTA]) / profile.h
                    prev = rows[si - 1]
                    f_exp = adjust_feedrate(prev[DELTA], v[DELTA], profile.h,
                                            profile.f_ini, profile.f_min)
                    assert v[F] == pytest.approx(f_exp)
                    checked += 1
                assert v[E] == pytest.approx(expected)
                assert v[E] >= 0
    assert checked > 0
