import math
import struct

import numpy as np
import pytest

from toolpath_aa import antialias, geometry
from toolpath_aa.geometry import (BELOW_BIAS, BOX_SLACK, DEGENERATE_AREA,
                                  PAIR_BLOCK, BoxGrid, EmptyMeshError,
                                  StlParseError, VerticalRayIndex, box_pairs,
                                  build_mesh, build_vertical_index,
                                  cast_vertical_batch, load_mesh, ragged)
from toolpath_aa.gcode import PrinterProfile, parse_gcode
import fixtures
from fixtures import mesh_to_stl_binary, wedge_mesh
from scenes import flat_box_fixture, flat_box_mesh, mesh_volume

ASCII_ONE_FACET = """solid one
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid one
"""


def cube_mesh():
    return flat_box_mesh(1.0, 1.0, 1.0)


def mesh_to_stl_ascii(mesh, name="mesh"):
    lines = [f"solid {name}"]
    for i in range(mesh.triangle_count):
        n = mesh.normals[i]
        lines.append(f"  facet normal {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}")
        lines.append("    outer loop")
        for p in mesh.corners[i]:
            lines.append(f"      vertex {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}")
    return "\n".join(lines) + "\n"


def cast_one(index, query):
    """One ray of `cast_vertical_batch`: (delta, facing_top, hit), delta
    being surface z minus query z, 0 on a miss."""
    delta, top, hit = cast_vertical_batch(index, [query[0]], [query[1]],
                                          [query[2]])
    return delta[0], top[0], hit[0]


def cast_vertical_brute(mesh, query):
    """Grid-free oracle for `cast_one`: the ray meets every triangle at
    once and keeps the first minimum of the batch's key."""
    dz, dist, key = geometry._ray_keys(
        *geometry.triangle_terms(mesh.corners),
        float(query[0]), float(query[1]), float(query[2]))
    best = int(np.argmin(key))     # a NaN key is its own minimum: no hit
    hit = bool(np.isfinite(dist[best]))
    return (dz[best] if hit else np.float64(0.0),
            hit and bool(mesh.normals[best, 2] > 0), hit)


def test_ascii_single_facet():
    mesh = load_mesh(ASCII_ONE_FACET)
    assert mesh.triangle_count == 1
    assert np.allclose(mesh.normals[0], [0, 0, 1])


def test_binary_cube_roundtrip():
    cube = cube_mesh()
    assert cube.triangle_count == 12
    data = mesh_to_stl_binary(cube)
    again = load_mesh(data)
    assert again.triangle_count == 12
    assert abs(mesh_volume(again) - 1.0) < 1e-9


def test_ascii_roundtrip():
    cube = cube_mesh()
    text = mesh_to_stl_ascii(cube)
    again = load_mesh(text.encode())
    assert again.triangle_count == 12


def test_degenerate_dropped_and_counted():
    cube = cube_mesh()
    zero_area = [[[0, 0, 0], [1, 1, 1], [2, 2, 2]]]
    mesh = build_mesh(np.concatenate([cube.corners[:6], zero_area,
                                      cube.corners[6:]]))
    assert mesh.triangle_count == 12
    assert np.array_equal(mesh.corners, cube.corners)
    assert np.array_equal(mesh.normals, cube.normals)
    assert mesh.degenerate_dropped == 1


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
def test_ascii_non_finite_vertex_names_its_line(word):
    text = ASCII_ONE_FACET.replace("vertex 1 0 0", f"vertex 1 {word} 0")
    with pytest.raises(StlParseError) as err:
        load_mesh(text)
    assert err.value.line == 5


def test_ascii_vertex_outside_a_loop_names_its_line():
    # three vertex lines before any outer loop made a second triangle
    stray = "  vertex 0 0 1\n  vertex 1 0 1\n  vertex 0 1 1\n"
    with pytest.raises(StlParseError, match="outside an outer loop") as err:
        load_mesh(ASCII_ONE_FACET.replace("solid one\n", "solid one\n" + stray))
    assert err.value.line == 2


_OPEN_LOOP = ASCII_ONE_FACET.replace("    endloop\n", "")


@pytest.mark.parametrize("text, line", [
    (_OPEN_LOOP, 8),                                         # at endsolid
    (_OPEN_LOOP.replace("endsolid one\n", ""), 7),           # at the end
    (_OPEN_LOOP.replace("endsolid one\n", ASCII_ONE_FACET.split("\n", 1)[1]),
     8),                                                     # at facet
    (ASCII_ONE_FACET.replace("    endloop\n", "    outer loop\n"), 7),  # at outer
], ids=["endsolid", "end_of_file", "facet", "outer"])
def test_ascii_loop_without_endloop_names_its_line(text, line):
    with pytest.raises(StlParseError, match="line 3 has no endloop") as err:
        load_mesh(text)
    assert err.value.line == line


def test_truncated_binary_reports_offset():
    cube = cube_mesh()
    data = mesh_to_stl_binary(cube)
    with pytest.raises(StlParseError):
        load_mesh(data[:100])


def test_zero_triangles_is_empty_mesh_error():
    header = b"\0" * 80 + struct.pack("<I", 0)
    with pytest.raises(EmptyMeshError):
        load_mesh(header)


def test_normals_unit_length():
    mesh = wedge_mesh()
    lens = np.linalg.norm(mesh.normals, axis=1)
    assert np.allclose(lens, 1.0, atol=1e-9)


def test_cast_wedge_analytic():
    mesh = wedge_mesh(angle_deg=10.0, base=20.0, depth=10.0)
    index = build_vertical_index(mesh)
    delta, top, hit = cast_one(index, (10.0, 5.0, 1.0))
    expected_z = 10.0 * math.tan(math.radians(10.0))
    assert hit and top
    assert abs(1.0 + delta - expected_z) < 1e-9
    assert abs(delta - (expected_z - 1.0)) < 1e-9


def test_cast_on_surface_zero_delta():
    cube = cube_mesh()
    index = build_vertical_index(cube)
    delta, top, hit = cast_one(index, (0.5, 0.5, 1.0))
    assert hit and top
    assert abs(delta) < 1e-12


def test_cast_outside_silhouette_misses():
    cube = cube_mesh()
    index = build_vertical_index(cube)
    assert cast_one(index, (5.0, 5.0, 0.5)) == (0.0, False, False)


def test_tie_prefers_hit_above():
    cube = cube_mesh()  # faces at z=0 and z=1
    index = build_vertical_index(cube)
    delta, top, hit = cast_one(index, (0.5, 0.5, 0.5))
    assert hit and delta == pytest.approx(+0.5)
    assert top


def test_index_matches_brute_force_cube():
    cube = cube_mesh()
    index = build_vertical_index(cube)
    delta_a, _, hit_a = cast_one(index, (0.5, 0.5, 2.0))
    delta_b, _, hit_b = cast_vertical_brute(cube, (0.5, 0.5, 2.0))
    assert hit_a and hit_b
    assert abs(delta_a - delta_b) < 1e-9


def _random_mesh(n_triangles, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 50, size=(n_triangles, 3))
    offsets = rng.uniform(-1.5, 1.5, size=(n_triangles, 3, 3))
    return build_mesh(centers[:, None, :] + offsets)


def test_oracle_equivalence_random_mesh():
    mesh = _random_mesh(10_000, seed=7)
    assert mesh.triangle_count == 10_000
    index = build_vertical_index(mesh)
    rng = np.random.default_rng(11)
    queries = rng.uniform(-2, 52, size=(1000, 3))
    for q in queries:
        delta_a, _, hit_a = cast_one(index, q)
        delta_b, _, hit_b = cast_vertical_brute(mesh, q)
        assert hit_a == hit_b
        if hit_a:
            assert abs(delta_a - delta_b) < 1e-9


def assert_batch_matches_brute(mesh, index, q):
    """The batch equals the grid-free oracle ray by ray, bit for bit."""
    delta, top, hit = cast_vertical_batch(index, q[:, 0], q[:, 1], q[:, 2])
    for k in range(len(q)):
        ref_delta, ref_top, ref_hit = cast_vertical_brute(mesh, q[k])
        assert hit[k] == ref_hit
        if ref_hit:
            assert delta[k].tobytes() == ref_delta.tobytes()
            assert top[k] == ref_top
    return hit


def test_batch_matches_scalar():
    mesh = _random_mesh(500, seed=3)
    index = build_vertical_index(mesh)
    q = np.random.default_rng(5).uniform(-2, 52, size=(300, 3))
    hit = assert_batch_matches_brute(mesh, index, q)
    assert hit.any() and not hit.all()
    for k in range(len(q)):
        assert cast_one(index, q[k]) == cast_vertical_brute(mesh, q[k])


def fixture_rays(name):
    """A fixture's mesh and the (n, 3) rays through its resampled vertices."""
    profile = PrinterProfile()
    if name == "flat_box":
        mesh, gcode = flat_box_fixture(profile)
    elif name == "dome":
        mesh, gcode = fixtures.dome_fixture(profile)
    else:
        mesh, gcode = fixtures.wedge_fixture(
            profile, cross_hatch=(name == "wedge_hatch"))
    program = parse_gcode(gcode)
    return mesh, np.concatenate([
        antialias.resample_path(path, profile.w).vertices[:, :3]
        for path in program.all_toolpaths()])


@pytest.mark.parametrize("name", ["wedge", "wedge_hatch", "flat_box", "dome"])
def test_batch_matches_brute_on_fixture_vertices(name):
    # every resampled vertex, among them the dome's rays through shared
    # triangle edges, where two triangles give hits a few ulps apart
    mesh, q = fixture_rays(name)
    hit = assert_batch_matches_brute(mesh, build_vertical_index(mesh), q)
    assert hit.any()


@pytest.mark.parametrize("name", ["wedge", "dome"])
def test_cast_does_not_depend_on_the_cell_size(name):
    # every triangle that holds a ray is among its cell's candidates, and
    # a tie goes to the lowest id, so the cells cannot change a result
    mesh, q = fixture_rays(name)
    grids, casts = set(), []
    for target in (4.0, 2.0, 1.0, 0.5):
        index = VerticalRayIndex(mesh, target_per_cell=target)
        grids.add((index.nx, index.ny))
        casts.append(cast_vertical_batch(index, q[:, 0], q[:, 1], q[:, 2]))
    assert len(grids) == 4 and casts[0][2].any()
    for cast in casts[1:]:
        for got, ref in zip(cast, casts[0]):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_determinism():
    mesh = _random_mesh(300, seed=1)
    i1 = build_vertical_index(mesh)
    i2 = build_vertical_index(mesh)
    q = (25.0, 25.0, 10.0)
    assert cast_one(i1, q) == cast_one(i2, q)


def cast_per_cell(mesh, index, xs, ys, qzs):
    """Reference for `cast_vertical_batch` over `mesh`'s index: rays grouped
    by grid cell, each cell's rays tested against the cell's CSR slice in
    one broadcast from the raw triangles, and `argmin` per ray."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    qzs = np.asarray(qzs, dtype=np.float64)
    n = len(xs)
    delta = np.zeros(n)
    facing_top = np.zeros(n, dtype=bool)
    hit = np.zeros(n, dtype=bool)
    inb = ((xs >= index.xy_min[0]) & (xs <= index.xy_max[0])
           & (ys >= index.xy_min[1]) & (ys <= index.xy_max[1]))
    if not inb.any():
        return delta, facing_top, hit
    ix = np.clip(((xs - index.xy_min[0]) / index.cell[0]).astype(np.int64),
                 0, index.nx - 1)
    iy = np.clip(((ys - index.xy_min[1]) / index.cell[1]).astype(np.int64),
                 0, index.ny - 1)
    cell_id = np.where(inb, ix * index.ny + iy, -1)
    order = np.argsort(cell_id, kind="stable")
    tri_pts = mesh.corners
    eps = 1e-12
    start = 0
    while start < n:
        cid = cell_id[order[start]]
        end = start
        while end < n and cell_id[order[end]] == cid:
            end += 1
        if cid >= 0:
            pts = order[start:end]
            cand = index.items[index.offsets[cid]:index.offsets[cid + 1]]
            if len(cand):
                t = tri_pts[cand]
                px = xs[pts][:, None]
                py = ys[pts][:, None]
                ax, ay = t[None, :, 0, 0], t[None, :, 0, 1]
                bx, by = t[None, :, 1, 0], t[None, :, 1, 1]
                cx, cy = t[None, :, 2, 0], t[None, :, 2, 1]
                d = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
                okd = np.abs(d) > 1e-30
                safe = np.where(okd, d, 1.0)
                w0 = ((by - cy) * (px - cx) + (cx - bx) * (py - cy)) / safe
                w1 = ((cy - ay) * (px - cx) + (ax - cx) * (py - cy)) / safe
                w2 = 1.0 - w0 - w1
                inside = okd & (w0 >= -eps) & (w1 >= -eps) & (w2 >= -eps)
                z = (w0 * t[None, :, 0, 2] + w1 * t[None, :, 1, 2]
                     + w2 * t[None, :, 2, 2])
                dz = z - qzs[pts][:, None]
                dist = np.where(inside, np.abs(dz), np.inf)
                above_bias = np.where(dz >= 0, 0.0, BELOW_BIAS)
                best = np.argmin(dist + above_bias, axis=1)
                rows = np.arange(len(pts))
                got = np.isfinite(dist[rows, best])
                sel = pts[got]
                bsel = best[got]
                delta[sel] = dz[rows[got], bsel]
                facing_top[sel] = index._nz[cand[bsel]] > 0
                hit[sel] = True
        start = end
    return delta, facing_top, hit


def assert_cast_matches_reference(mesh, index, xs, ys, qzs):
    got = cast_vertical_batch(index, xs, ys, qzs)
    ref = cast_per_cell(mesh, index, xs, ys, qzs)
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        # bitwise: signed zeros and the last bit must agree
        assert np.array_equal(g.view(np.uint8), r.view(np.uint8))
    return got


def test_csr_slices_list_covering_triangles_in_order():
    mesh = _random_mesh(500, seed=4)
    index = build_vertical_index(mesh)
    tris = mesh.corners
    ilo = index._cell_of(tris[:, :, :2].min(axis=1))
    ihi = index._cell_of(tris[:, :, :2].max(axis=1))
    assert index.offsets[0] == 0 and index.offsets[-1] == len(index.items)
    for cx in range(index.nx):
        for cy in range(index.ny):
            c = cx * index.ny + cy
            covering = np.flatnonzero((ilo[:, 0] <= cx) & (cx <= ihi[:, 0])
                                      & (ilo[:, 1] <= cy) & (cy <= ihi[:, 1]))
            got = index.items[index.offsets[c]:index.offsets[c + 1]]
            assert got.tolist() == covering.tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_cast_matches_per_cell_on_random_meshes(seed):
    mesh = _random_mesh(2_000, seed=seed)
    index = build_vertical_index(mesh)
    q = np.random.default_rng(100 + seed).uniform(-2, 52, size=(5_000, 3))
    _, _, hit = assert_cast_matches_reference(mesh, index,
                                              q[:, 0], q[:, 1], q[:, 2])
    assert hit.any() and not hit.all()


def test_flat_cast_matches_per_cell_outside_bounds_and_on_borders():
    mesh = _random_mesh(300, seed=8)
    index = build_vertical_index(mesh)
    (x0, y0), (x1, y1) = index.xy_min, index.xy_max
    # every cell border line, the bounds themselves and one ulp beyond
    bx = np.concatenate([x0 + np.arange(index.nx + 1) * index.cell[0],
                         [x0, x1, np.nextafter(x0, -np.inf), np.nextafter(x1, np.inf)]])
    by = np.concatenate([y0 + np.arange(index.ny + 1) * index.cell[1],
                         [y0, y1, np.nextafter(y0, -np.inf), np.nextafter(y1, np.inf)]])
    gx, gy = np.meshgrid(bx, by)
    xs, ys = gx.ravel(), gy.ravel()
    for qz in (-5.0, 25.0, 60.0):
        assert_cast_matches_reference(mesh, index, xs, ys, np.full(len(xs), qz))
    far = np.array([x0 - 10.0, x1 + 10.0, (x0 + x1) / 2, np.nan])
    _, _, hit = assert_cast_matches_reference(
        mesh, index, far, np.array([y0, y1, y1 + 10.0, y0]), np.zeros(4))
    assert not hit.any()


def test_flat_cast_matches_per_cell_in_empty_cells():
    # two small triangles in opposite corners leave the cells between empty
    pts = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 1],
                    [49, 49, 2], [50, 49, 2], [50, 50, 2]], dtype=float)
    mesh = build_mesh(pts.reshape(2, 3, 3))
    index = VerticalRayIndex(mesh, target_per_cell=0.01)
    assert (np.diff(index.offsets) == 0).any()
    q = np.random.default_rng(3).uniform(0, 50, size=(2_000, 3))
    _, _, hit = assert_cast_matches_reference(mesh, index,
                                              q[:, 0], q[:, 1], q[:, 2])
    assert hit.sum() < 100


def test_flat_cast_matches_per_cell_with_vertical_triangles():
    cube = cube_mesh()   # four vertical walls
    verticals = np.flatnonzero(np.abs(cube.normals[:, 2]) < 1e-12)
    assert len(verticals) == 8
    index = build_vertical_index(cube)
    edge = np.array([0.0, 0.25, 0.5, 1.0])
    gx, gy = np.meshgrid(edge, edge)
    xs, ys = gx.ravel(), gy.ravel()
    for qz in (-1.0, 0.5, 2.0):
        _, _, hit = assert_cast_matches_reference(cube, index, xs, ys,
                                                    np.full(len(xs), qz))
        assert hit.all()
    mesh = _random_mesh(400, seed=9)
    walls = mesh.corners[:40].copy()
    walls[:, 2, :2] = walls[:, 0, :2]          # third vertex above the first
    walls[:, 2, 2] += 2.0
    mixed = build_mesh(np.concatenate([mesh.corners, walls]))
    index = build_vertical_index(mixed)
    # rays through the walls' own vertices and along their edges
    on_walls = np.vstack([walls[:, 0], (walls[:, 0] + walls[:, 1]) / 2])
    q = np.vstack([on_walls,
                   np.random.default_rng(2).uniform(-2, 52, size=(2_000, 3))])
    assert_cast_matches_reference(mixed, index, q[:, 0], q[:, 1], q[:, 2])


def test_flat_cast_matches_per_cell_across_several_blocks():
    # a stack of coplanar and mirrored flat triangles over one footprint:
    # every cell holds more than PAIR_BLOCK candidates, and equal keys make
    # the first minimum decide which triangle (and so which facing) wins
    n = PAIR_BLOCK + 500
    rng = np.random.default_rng(6)
    z = np.repeat(rng.choice([1.0, 2.0, 3.0], n // 2), 2)[:n]
    tris = np.zeros((n, 3, 3))
    tris[:, :, 0] = [0.0, 10.0, 0.0]
    tris[:, :, 1] = [0.0, 0.0, 10.0]
    tris[1::2] = tris[1::2, ::-1]              # every other one faces down
    tris[:, :, 2] = z[:, None]
    mesh = build_mesh(tris)
    index = VerticalRayIndex(mesh, target_per_cell=float(n))   # one cell
    q = rng.uniform(0, 10, size=(40, 3))
    q[:, 2] = rng.choice([0.0, 1.5, 2.0, 2.5, 4.0], len(q))
    assert_cast_matches_reference(mesh, index, q[:, 0], q[:, 1], q[:, 2])
    # many rays over a small mesh: the pairs fill several blocks
    mesh = _random_mesh(300, seed=12)
    index = build_vertical_index(mesh)
    q = np.random.default_rng(13).uniform(0, 50, size=(20_000, 3))
    ix, iy = index._cell_of(q[:, :2]).T
    assert np.diff(index.offsets)[ix * index.ny + iy].sum() > 5 * PAIR_BLOCK
    assert_cast_matches_reference(mesh, index, q[:, 0], q[:, 1], q[:, 2])


# ---------------------------------------------------------------------------
# BoxGrid and the polyline box prefilter, against all-pairs references

def overlapping(alo, ahi, blo, bhi):
    """All (a, b) index pairs of closed boxes that overlap, in numpy."""
    return ((alo[:, None] <= bhi[None]) & (ahi[:, None] >= blo[None])).all(axis=2)


def random_boxes(rng, n, lo=0.0, hi=50.0, size=6.0, snap=None):
    corner = rng.uniform(lo, hi, (n, 2))
    extent = rng.uniform(0.0, size, (n, 2)) * (rng.random((n, 1)) > 0.1)
    if snap:   # corners on cell borders, some boxes touching others
        corner, extent = np.round(corner / snap) * snap, np.round(extent / snap) * snap
    return corner, corner + extent


@pytest.mark.parametrize("cell", [None, 0.7, 1.0, 4.0, 100.0])
def test_box_grid_pairs_match_all_pairs(cell):
    rng = np.random.default_rng(21)
    for trial in range(6):
        snap = 1.0 if trial % 2 else None
        glo, ghi = random_boxes(rng, 150, snap=snap)
        qlo, qhi = random_boxes(rng, 120, lo=-15.0, hi=65.0, snap=snap)
        grid = BoxGrid(glo, ghi, cell=cell)
        q, b = grid.pairs(qlo, qhi)
        key = q * len(glo) + b
        assert (np.diff(key) > 0).all()           # sorted and distinct
        got = set(zip(q.tolist(), b.tolist()))
        # every overlapping pair is there ...
        assert set(zip(*np.nonzero(overlapping(qlo, qhi, glo, ghi)))) <= got
        # ... and exactly the pairs sharing a cell, queries outside excluded
        inside = ((qlo <= grid.xy_max) & (qhi >= grid.xy_min)).all(axis=1)
        share = overlapping(grid._cell_of(qlo), grid._cell_of(qhi),
                            grid._cell_of(glo), grid._cell_of(ghi))
        assert got == set(zip(*np.nonzero(share & inside[:, None])))


def test_box_grid_queries_outside_the_extent_give_no_pairs():
    glo, ghi = random_boxes(np.random.default_rng(4), 40, hi=10.0, size=2.0)
    for cell in (None, 1.0):
        grid = BoxGrid(glo, ghi, cell=cell)
        (x0, y0), (x1, y1) = grid.xy_min, grid.xy_max
        far = np.array([[x0 - 3, y0], [x1 + 1, y0], [x0, y1 + 1], [x0, y0 - 3],
                        [x1 + 1, y1 + 1], [x0 - 50, y0 - 50]])
        q, b = grid.pairs(far, far + 2.0)
        assert q.size == 0 and b.size == 0
        # a box touching the extent's right edge meets the boxes there
        _, b = grid.pairs(np.array([[x1, y0]]), np.array([[x1 + 1, y1]]))
        assert np.argmax(ghi[:, 0]) in b.tolist()
    empty = BoxGrid(np.zeros((0, 2)), np.zeros((0, 2)))
    assert empty.pairs(glo, ghi)[0].size == 0


def reference_box_pairs(points, eps):
    reach = eps * (1.0 + BOX_SLACK)
    xy = points[:, :2]
    gap = np.abs(xy[None] - xy[:, None]).max(axis=2)
    return [(i, j) for i, j in zip(*np.nonzero(gap <= reach)) if i < j]


def test_ragged_names_each_items_run_and_place():
    owner, position = ragged([3, 0, 2, 1])
    assert owner.tolist() == [0, 0, 0, 2, 2, 3]
    assert position.tolist() == [0, 1, 2, 0, 1, 0]
    assert owner.dtype == position.dtype == np.int64
    assert [a.tolist() for a in ragged([])] == [[], []]


def test_box_pairs_match_all_pairs_gap_filter():
    eps = 2.0
    reach = eps * (1.0 + BOX_SLACK)
    # exactly reach apart on x (kept), one ulp further (dropped), and
    # 1 + reach less 1 on y (kept)
    edge = np.array([[0.0, 1.0, 0.0], [reach, 0.5, 0.0],
                     [-np.nextafter(reach, np.inf), 0.0, 0.0],
                     [0.0, 1.0 + reach, 0.0]])
    assert box_pairs(edge, eps) == reference_box_pairs(edge, eps) == [
        (0, 1), (0, 3)]
    assert box_pairs(np.empty((0, 3)), eps) == []
    rng = np.random.default_rng(8)
    for n in (1, 2, 30, 200):
        points = np.column_stack([rng.uniform(0, 40, n), rng.uniform(0, 40, n),
                                  np.zeros(n)])
        points[n // 2:, :2] = points[:n - n // 2, :2] + rng.normal(0, 2, (n - n // 2, 2))
        assert box_pairs(points, eps) == reference_box_pairs(points, eps)


# ---------------------------------------------------------------------------
# STL loads: the facets' points, rounded, in facet order

# rounded to 1e-9 mm, the near values become 0.0, -0.0 or 1.0
_ROUND_POOL = np.array([0.0, -0.0, 3e-10, -3e-10, 1.0, 1.0 + 4e-10,
                        1.0 - 4e-10, -2.5, 7.25, 1e-3, -1e-3])


def _stl_points(points, fmt):
    """STL bytes of a triangle soup, and the points its loader reads."""
    if fmt == "stl_binary":
        rec = np.zeros(len(points) // 3, dtype=[("n", "<f4", 3),
                                                ("p", "<f4", 9), ("a", "<u2")])
        rec["p"] = points.reshape(-1, 9)
        data = b"w".ljust(80, b"\0") + struct.pack("<I", len(rec)) + rec.tobytes()
        return data, points.astype(np.float32).astype(np.float64)
    lines = ["solid w"]
    for tri in points.reshape(-1, 3, 3):
        lines += ["facet normal 0 0 1", "outer loop"]
        lines += ["vertex " + " ".join(map(repr, p.tolist())) for p in tri]
        lines += ["endloop", "endfacet"]
    return ("\n".join(lines + ["endsolid w"]) + "\n").encode(), points


@pytest.mark.parametrize("fmt", ["stl_binary", "stl_ascii"])
@pytest.mark.parametrize("seed", range(4))
def test_load_gives_the_facets_rounded_points(fmt, seed):
    rng = np.random.default_rng(seed)
    points = rng.choice(_ROUND_POOL, size=(3 * 150, 3))
    points[:30] = rng.uniform(-5.0, 5.0, size=(30, 3))
    points[30:60] = points[:30]                  # exact duplicate rows
    points[60:90] = points[:30] + rng.uniform(-4e-10, 4e-10, size=(30, 3))
    # facet 30 is under 1e-9 mm across: degenerate
    points[90:93] = points[90] + rng.uniform(-4e-10, 4e-10, size=(3, 3))
    data, read = _stl_points(points, fmt)
    rounded = read.round(9).reshape(-1, 3, 3)
    assert np.signbit(rounded[rounded == 0]).any()    # -0.0 reaches the rounding
    a, b, c = rounded.transpose(1, 0, 2)
    keep = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1) > DEGENERATE_AREA
    assert not keep[30] and keep.sum() > 100

    mesh = load_mesh(data)
    assert mesh.degenerate_dropped == (~keep).sum()
    assert mesh.corners.shape == rounded[keep].shape
    assert (mesh.corners == rounded[keep]).all()
    assert not np.signbit(mesh.corners[mesh.corners == 0]).any()


def test_load_keeps_near_points_apart_and_zeros_positive():
    # 2e-9 mm apart stays apart, 4e-10 mm rounds away
    points = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 2e-9], [1.0, 5.0, 3.0 + 4e-10],
                       [-0.0, 0.0, 1.0], [1.0, -0.0, 1.0], [0.0, 1.0, -3e-10]])
    mesh = load_mesh(_stl_points(points, "stl_ascii")[0])
    assert not np.signbit(mesh.corners).any()
    assert mesh.corners.tolist() == [[[1.0, 2.0, 3.0], [1.0, 2.0, 3.000000002],
                                      [1.0, 5.0, 3.0]],
                                     [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                                      [0.0, 1.0, 0.0]]]
