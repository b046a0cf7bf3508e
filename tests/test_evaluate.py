import math

import numpy as np
import pytest

from toolpath_aa import antialias
from toolpath_aa.evaluate import (EvaluationError, PrintedTrack, _TrackGrid,
                                  critical_angle, error_map,
                                  estimate_print_time, sample_mesh_surface,
                                  track_distance, tracks_from_program)
from toolpath_aa.fixtures import dome_fixture, flat_box_fixture, flat_box_mesh
from toolpath_aa.gcode import PrinterProfile, parse_gcode


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


def test_track_distance_inside_and_outside():
    tr = PrintedTrack(x1=0, y1=0, x2=10, y2=0, top1=0.6, top2=0.6,
                      bot1=0.0, bot2=0.0, width=0.8)
    assert track_distance(tr, 5, 0, 0.3) == 0.0
    assert track_distance(tr, 5, 0.4, 0.3) == 0.0         # on the side
    assert track_distance(tr, 5, 1.4, 0.3) == pytest.approx(1.0)
    assert track_distance(tr, 5, 0, 1.6) == pytest.approx(1.0)
    assert track_distance(tr, 12, 0, 0.3) == pytest.approx(2.0)


def test_track_distance_sloped_top():
    tr = PrintedTrack(x1=0, y1=0, x2=10, y2=0, top1=0.6, top2=1.6,
                      bot1=0.0, bot2=0.0, width=0.8)
    # above the midpoint the top is 1.1
    assert track_distance(tr, 5, 0, 1.1) == pytest.approx(0.0, abs=1e-12)
    assert track_distance(tr, 5, 0, 1.6) == pytest.approx(0.5)


def test_invalid_track_rejected():
    with pytest.raises(ValueError):
        PrintedTrack(x1=0, y1=0, x2=1, y2=0, top1=0.0, top2=0.5,
                     bot1=0.5, bot2=0.0, width=0.8)


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
    em_brute = error_map(mesh, tracks, samples_per_mm2=3, seed=5, brute=True)
    assert np.allclose(em_grid.distances, em_brute.distances, atol=1e-12)


def test_error_map_far_samples_match_brute():
    # tracks in two opposite corners only: many samples lie more than a
    # grid cell from every track, so their search rings grow past the
    # first, and a ring can hold a farther track than the next one does
    mesh, tracks = box_program_tracks()
    corners = [tr for tr in tracks
               if (max(tr.x1, tr.x2) < 3.0 and max(tr.y1, tr.y2) < 3.0)
               or (min(tr.x1, tr.x2) > 8.0 and min(tr.y1, tr.y2) > 5.0)]
    em_grid = error_map(mesh, corners, samples_per_mm2=3, seed=5)
    em_brute = error_map(mesh, corners, samples_per_mm2=3, seed=5,
                         brute=True)
    assert np.sum(em_brute.distances > 2.0) > len(em_brute.distances) // 3
    assert np.allclose(em_grid.distances, em_brute.distances, atol=1e-12)


def test_track_grid_off_the_origin_matches_brute():
    # thin short tracks and points off any multiple of the cell size, so
    # the grid's origin is not on the lattice of its cells: a stop rule
    # that measured the cell border from another origin settles some
    # points on a farther track
    rng = np.random.default_rng(11)
    tracks = [PrintedTrack(x1=x, y1=y, x2=x + dx, y2=y + dy, top1=1.0,
                           top2=1.0, bot1=0.5, bot2=0.5, width=0.05)
              for (x, y), (dx, dy) in zip(rng.uniform(0.37, 30.0, (25, 2)),
                                          rng.normal(0.0, 1.0, (25, 2)))]
    points = np.column_stack([rng.uniform(-5.0, 35.0, (3000, 2)),
                              rng.uniform(0.0, 1.5, 3000)])
    got = _TrackGrid(tracks).nearest_distances(points)
    want = [min(track_distance(tr, *p) for tr in tracks) for p in points.tolist()]
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_error_map_zero_length_track_matches_brute():
    mesh, tracks = box_program_tracks()
    dot = PrintedTrack(x1=5.0, y1=5.0, x2=5.0, y2=5.0, top1=1.2, top2=1.2,
                       bot1=0.6, bot2=0.6, width=0.8)
    assert track_distance(dot, 5.0, 5.4, 1.0) == 0.0
    assert track_distance(dot, 5.0, 6.4, 1.0) == pytest.approx(1.0)
    for subset in ([dot], tracks[:20] + [dot]):
        em_grid = error_map(mesh, subset, samples_per_mm2=3, seed=5)
        em_brute = error_map(mesh, subset, samples_per_mm2=3, seed=5,
                             brute=True)
        assert np.allclose(em_grid.distances, em_brute.distances, atol=1e-12)


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
    em.export_csv(csv)
    em.export_ply(ply)
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,distance_mm"
    assert len(lines) == len(em.points) + 1
    header = ply.read_text().split("end_header")[0]
    assert "blue->red" in header
    assert f"element vertex {len(em.points)}" in header
    summary = em.summary()
    assert summary["samples"] == len(em.points)
    assert 0 <= summary["mean_mm"] <= summary["max_mm"]
