import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toolpath_aa import antialias
from toolpath_aa.evaluate import (ErrorMap, EvaluationError, _percentiles,
                                  _TrackGrid, critical_angle, error_map,
                                  estimate_print_time, sample_mesh_surface,
                                  tracks_from_program)
from toolpath_aa.files import replace_atomically
from toolpath_aa.fixtures import dome_fixture, wedge_fixture
from toolpath_aa.gcode import (DELTA, E, X, Y, Z, Layer, Move,
                               PrinterProfile, PrintProgram, Toolpath,
                               parse_gcode)
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
from scenes import flat_box_fixture, flat_box_mesh


def test_critical_angle_paper_value():
    assert math.degrees(critical_angle(0.6, 0.8)) == pytest.approx(36.8699,
                                                                   abs=1e-3)
    assert critical_angle(1.0, 1.0) == pytest.approx(math.pi / 4)
    assert critical_angle(1e-9, 1.0) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        critical_angle(0.0, 1.0)


def test_estimate_single_move():
    prog = parse_gcode("G0 X0 Y0 Z0.6 F1200\nG1 X20 Y0 E1 F1200\n")
    # travel from unknown position counts 0; the 20 mm move at 20 mm/s
    assert estimate_print_time(prog) == pytest.approx(1.0)


def test_estimate_empty_program():
    prog = parse_gcode("; nothing\n")
    assert estimate_print_time(prog) == 0.0


def test_estimate_zero_feed_errors():
    prog = parse_gcode("G0 X0 Y0 Z0.6\nG1 X20 Y0 E1\n")
    with pytest.raises(EvaluationError):
        estimate_print_time(prog)


def test_estimate_linearity():
    text = ("G0 X0 Y0 Z0.6 F3000\nG1 X20 Y5 E1 F1200\nG1 X0 Y5 E2 F900\n")
    t1 = estimate_print_time(parse_gcode(text))
    doubled = text.replace("F3000", "F6000").replace("F1200", "F2400") \
                  .replace("F900", "F1800")
    t2 = estimate_print_time(parse_gcode(doubled))
    assert t2 == pytest.approx(t1 / 2.0)


def print_time_reference(program):
    """Move by move: each move's length / feedrate added to the total as it
    comes, a travel's missing axes and a first move from nowhere counting
    0, a move that goes nowhere counting its |E|, and a zero or unset feed
    raising once a move needs it."""
    total = 0.0
    x = y = z = None
    modal_f = None

    def axis_len(nx, ny, nz):
        nonlocal x, y, z
        dx = 0.0 if (nx is None or x is None) else nx - x
        dy = 0.0 if (ny is None or y is None) else ny - y
        dz = 0.0 if (nz is None or z is None) else nz - z
        x, y, z = (x if nx is None else nx, y if ny is None else ny,
                   z if nz is None else nz)
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def feed(f):
        nonlocal modal_f
        if f is not None:
            modal_f = f
        if not modal_f:
            raise EvaluationError("move with zero or unset feedrate")
        return modal_f

    for ev in program.events():
        if isinstance(ev, Move):
            # its XYZ length, or its |E| when it moves nowhere
            dist = axis_len(ev.x, ev.y, ev.z) or abs(ev.e or 0.0)
            if dist > 0:
                total += dist / feed(ev.f)
            elif ev.f is not None:
                modal_f = ev.f
        elif isinstance(ev, Toolpath):
            rows = ev.vertices[:, :5].tolist()
            dist = axis_len(*rows[0][:3])
            if dist > 0:
                total += dist / feed(None)
            for vx, vy, vz, _e, vf in rows[1:]:
                total += axis_len(vx, vy, vz) / feed(vf)
    return total


RETRACTS = ("G90\nM83\nG0 X1 Y1 Z0.6 F3000\nG1 X5 Y1 E0.2 F1200\n"
            "G1 E-0.8 F2400\nG0 Z1.0\nG0 X9 F6000\nG1 E0.8 F2400\n"
            "G1 X9 Y4 E0.1 F900\nG1 X2 Y4 E0.2\nG1 E0 F1800\n"
            "G0 X2 Y2\nG1 X2 Y3 E0.1 F600\n")


@pytest.mark.parametrize("name", ["wedge", "hatch", "dome", "retracts"])
def test_print_time_matches_move_by_move_reference(name):
    if name == "retracts":
        programs = [parse_gcode(RETRACTS)]
    else:
        mesh, gcode = {"wedge": wedge_fixture, "dome": dome_fixture,
                       "hatch": functools.partial(wedge_fixture,
                                                  cross_hatch=True)}[name]()
        programs = [parse_gcode(gcode),
                    run_pipeline(PipelineConfig(order_expansion_cap=2_000),
                                 gcode_text=gcode, mesh=mesh)[0]]
    for program in programs:
        assert (estimate_print_time(program).hex()
                == print_time_reference(program).hex())


def test_print_time_times_a_hop_and_retract_by_its_hop():
    # as in Marlin, a move that goes somewhere takes its XYZ length, and
    # its E counts only when it goes nowhere: a Z hop that retracts on the
    # way up takes the hop's time, and a separate retraction adds its own
    head = "G0 X0 Y0 Z0.6 F600\n"
    tail = "G0 Z0.6\nG1 X10 Y0 E1 F600\n"
    together = parse_gcode(head + "G1 Z10.6 E-0.8 F600\n" + tail)
    apart = parse_gcode(head + "G1 Z10.6 F600\nG1 E-0.8\n" + tail)
    assert estimate_print_time(together) == pytest.approx(3.0)
    assert estimate_print_time(apart) == pytest.approx(3.08)
    for program in (together, apart):
        assert (estimate_print_time(program).hex()
                == print_time_reference(program).hex())


def track_distance(track, px, py, pz):
    """Distance from a point to the box of one track row (0 inside): the
    scalar reference for `_TrackGrid`, which takes the same operations in
    the same order."""
    x1, y1, x2, y2, top1, top2, bot1, bot2, width = track
    ux = x2 - x1
    uy = y2 - y1
    length = math.hypot(ux, uy)
    if length < 1e-12:
        s = 0.0
        ux, uy = 1.0, 0.0
    else:
        ux /= length
        uy /= length
        s = (px - x1) * ux + (py - y1) * uy
    s_star = min(max(s, 0.0), length)
    t = (px - x1) * (-uy) + (py - y1) * ux
    t_star = min(max(t, -width / 2.0), width / 2.0)
    frac = s_star / length if length > 1e-12 else 0.0
    top = top1 + (top2 - top1) * frac
    bot = bot1 + (bot2 - bot1) * frac
    z_star = min(max(pz, bot), top)
    dx = px - (x1 + ux * s_star + (-uy) * t_star)
    dy = py - (y1 + uy * s_star + ux * t_star)
    dz = pz - z_star
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def error_map_brute(mesh, tracks, samples_per_mm2, seed):
    """Reference for the distances of `error_map`: every surface sample
    against every track by `track_distance`."""
    points, _ = sample_mesh_surface(mesh, samples_per_mm2, seed)
    rows = tracks.tolist()
    return np.array([min(track_distance(tr, *p) for tr in rows)
                     for p in points.tolist()])


def export(em, path):
    """Write the map as `run_pipeline` does: CSV by the suffix, else PLY."""
    with replace_atomically(path) as fh:
        (em.write_csv if str(path).endswith(".csv") else em.write_ply)(fh)


def test_track_distance_inside_and_outside():
    # x1, y1, x2, y2, top1, top2, bot1, bot2, width
    tr = (0, 0, 10, 0, 0.6, 0.6, 0.0, 0.0, 0.8)
    assert track_distance(tr, 5, 0, 0.3) == 0.0
    assert track_distance(tr, 5, 0.4, 0.3) == 0.0         # on the side
    assert track_distance(tr, 5, 1.4, 0.3) == pytest.approx(1.0)
    assert track_distance(tr, 5, 0, 1.6) == pytest.approx(1.0)
    assert track_distance(tr, 12, 0, 0.3) == pytest.approx(2.0)


def test_track_distance_sloped_top():
    tr = (0, 0, 10, 0, 0.6, 1.6, 0.0, 0.0, 0.8)
    # above the midpoint the top is 1.1
    assert track_distance(tr, 5, 0, 1.1) == pytest.approx(0.0, abs=1e-12)
    assert track_distance(tr, 5, 0, 1.6) == pytest.approx(0.5)


def box_program_tracks():
    profile = PrinterProfile()
    mesh, gcode = flat_box_fixture(profile)
    prog = parse_gcode(gcode)
    for layer in prog.layers:
        for p in layer.toolpaths():
            antialias.resample_path(p, profile.w)
    return mesh, tracks_from_program(prog, profile)


def test_error_map_flat_box_top_zero():
    mesh, tracks = box_program_tracks()
    em = error_map(mesh, tracks, samples_per_mm2=10, seed=0)
    top = em.normals[:, 2] > 0.9
    interior = top & (np.abs(em.points[:, 0] - 5.0) < 4.0) \
                   & (np.abs(em.points[:, 1] - 5.0) < 4.0)
    assert em.distances[interior].max() < 1e-9


def test_error_map_monotone_under_union():
    mesh, tracks = box_program_tracks()
    em_all = error_map(mesh, tracks, samples_per_mm2=5, seed=3)
    em_half = error_map(mesh, tracks[: len(tracks) // 2],
                        samples_per_mm2=5, seed=3)
    assert np.all(em_all.distances <= em_half.distances + 1e-12)


def test_error_map_grid_matches_brute():
    mesh, tracks = box_program_tracks()
    em_grid = error_map(mesh, tracks, samples_per_mm2=3, seed=5)
    brute = error_map_brute(mesh, tracks, samples_per_mm2=3, seed=5)
    assert np.array_equal(em_grid.distances, brute)


def test_error_map_far_samples_match_brute():
    # tracks in two opposite corners only: many samples lie more than a
    # grid cell from every track, so their search rings grow past the
    # first, and a ring can hold a farther track than the next one does
    mesh, tracks = box_program_tracks()
    x1, y1, x2, y2 = tracks[:, :4].T
    corners = tracks[((np.maximum(x1, x2) < 3.0) & (np.maximum(y1, y2) < 3.0))
                     | ((np.minimum(x1, x2) > 8.0) & (np.minimum(y1, y2) > 5.0))]
    em_grid = error_map(mesh, corners, samples_per_mm2=3, seed=5)
    brute = error_map_brute(mesh, corners, samples_per_mm2=3, seed=5)
    assert np.sum(brute > 2.0) > len(brute) // 3
    assert np.array_equal(em_grid.distances, brute)


def test_track_grid_off_the_origin_matches_brute():
    # thin short tracks and points off any multiple of the cell size, so
    # the grid's origin is not on the lattice of its cells: a stop rule
    # that measured the cell border from another origin settles some
    # points on a farther track
    rng = np.random.default_rng(11)
    tracks = np.array([(x, y, x + dx, y + dy, 1.0, 1.0, 0.5, 0.5, 0.05)
                       for (x, y), (dx, dy) in zip(rng.uniform(0.37, 30.0, (25, 2)),
                                                   rng.normal(0.0, 1.0, (25, 2)))])
    points = np.column_stack([rng.uniform(-5.0, 35.0, (3000, 2)),
                              rng.uniform(0.0, 1.5, 3000)])
    got = _TrackGrid(tracks).nearest_distances(points)
    want = [min(track_distance(tr, *p) for tr in tracks) for p in points.tolist()]
    assert np.array_equal(got, want)


def test_error_map_zero_length_track_matches_brute():
    mesh, tracks = box_program_tracks()
    dot = np.array([[5.0, 5.0, 5.0, 5.0, 1.2, 1.2, 0.6, 0.6, 0.8]])
    assert track_distance(dot[0], 5.0, 5.4, 1.0) == 0.0
    assert track_distance(dot[0], 5.0, 6.4, 1.0) == pytest.approx(1.0)
    for subset in (dot, np.vstack([tracks[:20], dot])):
        em_grid = error_map(mesh, subset, samples_per_mm2=3, seed=5)
        brute = error_map_brute(mesh, subset, samples_per_mm2=3, seed=5)
        assert np.array_equal(em_grid.distances, brute)


def nearest_all_pairs(grid, points, pairs=1 << 16):
    """Reference for `_TrackGrid.nearest_distances`: the grid's per-pair
    kernel from every point to every track, without the grid's cells, the
    minimum taken over all tracks, a block of points at a time."""
    tracks = np.arange(len(grid.x1))
    step = max(1, pairs // len(tracks))
    best = np.empty(len(points))
    for a in range(0, len(points), step):
        block = points[a:a + step]
        p = np.repeat(np.arange(len(block)), len(tracks))
        d = grid._distances(block[p, 0], block[p, 1], block[p, 2],
                            np.tile(tracks, len(block)))
        best[a:a + step] = d.reshape(len(block), len(tracks)).min(axis=1)
    return best


@functools.lru_cache(maxsize=None)
def scene_tracks_and_samples(scene):
    """The printed tracks of a fixture run without ordering, and the error
    map's samples of its mesh at the default density."""
    if scene == "dome":
        mesh, gcode = dome_fixture()
    else:
        mesh, gcode = wedge_fixture(cross_hatch=(scene == "wedge_hatch"))
    program, _, _ = run_pipeline(PipelineConfig(ordering_enabled=False),
                                 gcode_text=gcode, mesh=mesh)
    points, _ = sample_mesh_surface(mesh, 50.0, seed=0)
    return tracks_from_program(program, PrinterProfile()), points


@pytest.mark.parametrize("tracks_kept", ["all", "every_5th", "every_5th_thin"])
@pytest.mark.parametrize("scene", ["wedge", "wedge_hatch", "dome"])
def test_track_grid_matches_all_pairs_at_full_density(scene, tracks_kept):
    # every sample the error map takes at its default density. With every
    # 5th track, more samples lie rings away from their nearest track, so a
    # stop rule that counted the footprint's inset twice settles some on a
    # farther one. A track 0.05 mm wide is binned in few cells, so a ring
    # short of a cell misses some nearest tracks too; a wide track's box
    # reaches the ring's neighbouring cells as well.
    tracks, points = scene_tracks_and_samples(scene)
    if tracks_kept != "all":
        tracks = tracks[::5].copy()
    if tracks_kept == "every_5th_thin":
        tracks[:, 8] = 0.05
    grid = _TrackGrid(tracks)
    got = grid.nearest_distances(points)
    want = nearest_all_pairs(grid, points)
    assert len(points) > 25000
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_error_map_requires_tracks():
    mesh = flat_box_mesh()
    with pytest.raises(EvaluationError):
        error_map(mesh, [])


def test_sampling_deterministic():
    mesh = flat_box_mesh()
    p1, n1 = sample_mesh_surface(mesh, 7, seed=9)
    p2, n2 = sample_mesh_surface(mesh, 7, seed=9)
    assert np.array_equal(p1, p2)
    assert np.array_equal(n1, n2)


def sample_per_triangle(mesh, samples_per_mm2, seed):
    """Reference for `sample_mesh_surface`: one triangle at a time, two
    draws each."""
    rng = np.random.default_rng(seed)
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    counts = np.maximum(1, np.round(areas * samples_per_mm2)).astype(int)
    pts = []
    nrms = []
    for i, n in enumerate(counts):
        r1 = rng.random(n)
        r2 = rng.random(n)
        flip = r1 + r2 > 1.0
        r1[flip] = 1.0 - r1[flip]
        r2[flip] = 1.0 - r2[flip]
        pts.append(a[i] + np.outer(r1, b[i] - a[i]) + np.outer(r2, c[i] - a[i]))
        nrms.append(np.repeat(mesh.normals[i][None, :], n, axis=0))
    return np.vstack(pts), np.vstack(nrms)


@pytest.mark.parametrize("density", [0.01, 7.0, 50.0])
def test_sampling_matches_per_triangle_loop_bitwise(density):
    mesh = dome_fixture()[0]
    p, n = sample_mesh_surface(mesh, density, seed=3)
    p_ref, n_ref = sample_per_triangle(mesh, density, seed=3)
    assert p.shape == p_ref.shape and n.shape == n_ref.shape
    assert np.array_equal(p.view(np.uint8), p_ref.view(np.uint8))
    assert np.array_equal(n.view(np.uint8), n_ref.view(np.uint8))


def test_exports(tmp_path):
    mesh, tracks = box_program_tracks()
    em = error_map(mesh, tracks, samples_per_mm2=2, seed=1)
    csv = tmp_path / "map.csv"
    ply = tmp_path / "map.ply"
    export(em, csv)
    export(em, ply)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,distance_mm"
    assert len(lines) == len(em.points) + 1
    header = ply.read_text().split("end_header")[0]
    assert "blue->red" in header
    assert f"element vertex {len(em.points)}" in header
    summary = em.summary()
    assert summary["samples"] == len(em.points)
    assert 0 <= summary["mean_mm"] <= summary["max_mm"]


@pytest.mark.parametrize("n", list(range(1, 40)) + [1000, 26888, 26889])
def test_percentiles_match_numpy_bitwise(n):
    rng = np.random.default_rng(n)
    for rep in range(60):
        if rep % 4 == 0:
            d = rng.random(n)
        elif rep % 4 == 1:
            d = rng.exponential(0.1, n)
        elif rep % 4 == 2:
            d = np.round(rng.random(n), 2)      # ties
        else:
            d = rng.random(n) * 10.0 ** rng.integers(-8, 3, n)
        got = _percentiles(d, (50, 95, 99))
        want = [float(np.percentile(d, q)) for q in (50, 95, 99)]
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_error_map_run_leaves_numpy_ma_unimported(tmp_path):
    # np.percentile imports numpy.ma on its first call; the summary does not
    # need it
    code = ("import sys\n"
            "from toolpath_aa.fixtures import wedge_fixture\n"
            "from toolpath_aa.pipeline import PipelineConfig, run_pipeline\n"
            "mesh, gcode = wedge_fixture()\n"
            "_, report, _ = run_pipeline(PipelineConfig(\n"
            f"    error_map_path={str(tmp_path / 'map.csv')!r}),\n"
            "    gcode_text=gcode, mesh=mesh)\n"
            "assert report['error_map']['p99_mm'] > 0\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


# four hand-picked samples: a signed zero, a distance exactly at the clamp,
# one above it, and one that rounds to zero in the CSV and is not quite
# zero in the colour ramp
FORMAT_POINTS = [[0.0, -0.0, 0.6], [12.345678, -3.2, 1.05],
                 [-1e-7, 2.5, 100.25], [7.0, 0.125, 0.3]]
FORMAT_DISTANCES = [-0.0, 0.3, 0.45, 1e-7]
CSV_ROWS = ("0.00000,-0.00000,0.60000,-0.000000\n"
            "12.34568,-3.20000,1.05000,0.300000\n"
            "-0.00000,2.50000,100.25000,0.450000\n"
            "7.00000,0.12500,0.30000,0.000000\n")
PLY_HEADER = ("ply\nformat ascii 1.0\n"
              "comment colormap linear blue->red over 0.0..0.3 mm\n"
              "comment seed 7 density 2.5\n"
              "element vertex {n}\n"
              "property float x\nproperty float y\nproperty float z\n"
              "property uchar red\nproperty uchar green\nproperty uchar blue\n"
              "end_header\n")
PLY_ROWS = ("0.00000 -0.00000 0.60000 0 0 255\n"
            "12.34568 -3.20000 1.05000 255 0 0\n"
            "-0.00000 2.50000 100.25000 255 0 0\n"
            "7.00000 0.12500 0.30000 0 0 254\n")


@pytest.mark.parametrize("repeats", [1, 1025])
def test_export_text_is_pinned(tmp_path, repeats):
    # 1,025 repeats make 4,100 rows, more than one block of formatted rows
    em = ErrorMap(points=np.tile(FORMAT_POINTS, (repeats, 1)),
                  normals=np.tile([0.0, 0.0, 1.0], (4 * repeats, 1)),
                  distances=np.tile(FORMAT_DISTANCES, repeats),
                  samples_per_mm2=2.5, seed=7)
    export(em, tmp_path / "map.csv")
    export(em, tmp_path / "map.ply")
    assert ((tmp_path / "map.csv").read_bytes().decode()
            == "x,y,z,distance_mm\n" + CSV_ROWS * repeats)
    assert ((tmp_path / "map.ply").read_bytes().decode()
            == PLY_HEADER.format(n=4 * repeats) + PLY_ROWS * repeats)


def tracks_per_segment(program, profile):
    """Reference for `tracks_from_program`: the per-segment loop over each
    path's rows that it replaced, one track row per deposition segment."""
    tracks = []
    for path in program.all_toolpaths():
        rows = path.vertices.tolist()
        for a, b in zip(rows, rows[1:]):
            if b[E] <= 0:
                continue
            tracks.append((a[X], a[Y], b[X], b[Y], a[Z], b[Z],
                           (a[Z] - a[DELTA]) - profile.h,
                           (b[Z] - b[DELTA]) - profile.h, profile.d))
    return np.array(tracks, dtype=float).reshape(-1, 9)


@pytest.mark.parametrize("make", [wedge_fixture, dome_fixture])
def test_tracks_match_per_segment_loop_bitwise(make):
    profile = PrinterProfile()
    mesh, gcode = make()
    program, _, _ = run_pipeline(PipelineConfig(ordering_enabled=False),
                                 gcode_text=gcode, mesh=mesh)
    got = tracks_from_program(program, profile)
    want = tracks_per_segment(program, profile)
    assert got.shape == want.shape and len(got) > 100
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def two_layer_line(e_mid):
    """Two layers of one three-segment line along x, the lower one raised
    by 0.2 mm; the middle segment of each deposits e_mid."""
    def line(z, delta):
        return Toolpath(vertices=[
            (x, 0.0, z + delta, 0.0 if x == 0 else (e_mid if x == 2 else 0.1),
             20.0, delta) for x in range(4)])
    return PrintProgram(layers=[Layer(0.6, [line(0.6, 0.2)]),
                                Layer(1.2, [line(1.2, 0.0)])])


def test_zero_e_segment_is_no_track_and_no_overlap():
    # overlap compensation can clamp an interior segment's E to 0; it then
    # deposits nothing, so it is neither a track nor an overlapping segment
    profile = PrinterProfile()
    full, gap = two_layer_line(0.1), two_layer_line(0.0)
    assert len(tracks_from_program(full, profile)) == 6
    tracks = tracks_from_program(gap, profile)
    assert tracks[:, [0, 2]].tolist() == [[0, 1], [2, 3]] * 2
    records, _ = antialias.detect_overlaps(full, profile)
    assert [(r.lower, r.upper) for r in records] == [
        ((0, 0, k), (1, 0, k)) for k in (1, 2, 3)]
    records, _ = antialias.detect_overlaps(gap, profile)
    assert [(r.lower, r.upper) for r in records] == [
        ((0, 0, 1), (1, 0, 1)), ((0, 0, 3), (1, 0, 3))]
