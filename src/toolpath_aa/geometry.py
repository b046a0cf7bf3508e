"""Triangle mesh loading, the XY box grid, vertical ray casting, and
batched XY distances between toolpath polylines.

All coordinates are millimeters. The mesh is the reference surface that
toolpath vertices are snapped towards; queries are always vertical lines,
so the acceleration structure is a uniform 2D grid over the XY footprint
of the triangles. The same box grid finds overlapping tracks, the tracks
near a surface sample and the polylines near each other.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

DEGENERATE_AREA = 1e-9  # mm^2, triangles below this are dropped at load
BELOW_BIAS = 5e-10      # mm, added to a hit below's distance: ties go above
PAIR_BLOCK = 4096       # ray-triangle or point-segment pairs per numpy call:
                        # bounds the temporaries


class MeshError(Exception):
    pass


class StlParseError(MeshError):
    def __init__(self, message, offset=None, line=None):
        self.offset = offset
        self.line = line
        where = ""
        if offset is not None:
            where = f" (byte offset {offset})"
        elif line is not None:
            where = f" (line {line})"
        super().__init__(message + where)


class EmptyMeshError(MeshError):
    pass


@dataclass
class TriangleMesh:
    """Indexed triangle soup with per-triangle unit normals.

    Normals are always recomputed from the right-hand winding of each
    triangle; normals stored in STL files are ignored.
    """

    vertices: np.ndarray          # (n, 3) float64
    triangles: np.ndarray         # (m, 3) int64
    normals: np.ndarray = field(default=None)  # (m, 3) float64, unit length
    degenerate_dropped: int = 0

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.normals is None:
            self.normals = _face_normals(self.vertices, self.triangles)

    @property
    def triangle_count(self):
        return len(self.triangles)


def _face_normals(vertices, triangles):
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    n = np.cross(b - a, c - a)
    lens = np.linalg.norm(n, axis=1)
    lens[lens == 0] = 1.0
    return n / lens[:, None]


def _triangle_areas(vertices, triangles):
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def build_mesh(vertices, triangles):
    """Build a mesh from raw arrays, dropping degenerate triangles."""
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if len(triangles) == 0:
        raise EmptyMeshError("mesh has no triangles")
    areas = _triangle_areas(vertices, triangles)
    keep = areas > DEGENERATE_AREA
    dropped = int((~keep).sum())
    triangles = triangles[keep]
    if len(triangles) == 0:
        raise EmptyMeshError("mesh has no non-degenerate triangles")
    mesh = TriangleMesh(vertices, triangles)
    mesh.degenerate_dropped = dropped
    return mesh


# ---------------------------------------------------------------------------
# STL input

def load_mesh(data):
    """Parse STL bytes, ASCII or binary as detected, into a TriangleMesh.

    Degenerate triangles are dropped and counted in mesh.degenerate_dropped.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if _is_ascii_stl(data):
        return _load_stl_ascii(data)
    return _load_stl_binary(data)


def load_mesh_file(path):
    with open(path, "rb") as f:
        return load_mesh(f.read())


def _is_ascii_stl(data):
    # a binary file may still start with 'solid'; check for 'facet'
    return (data[:512].lstrip().startswith(b"solid")
            and (b"facet" in data[:1024] or len(data) < 84))


def _load_stl_binary(data):
    if len(data) < 84:
        raise StlParseError("binary STL shorter than 84-byte header", offset=len(data))
    (count,) = struct.unpack_from("<I", data, 80)
    need = 84 + 50 * count
    if len(data) < need:
        raise StlParseError(
            f"binary STL truncated: {count} triangles declared, body ends early",
            offset=len(data),
        )
    if count == 0:
        raise EmptyMeshError("binary STL declares zero triangles")
    raw = np.frombuffer(data, dtype=np.uint8, count=50 * count, offset=84)
    rec = raw.reshape(count, 50)
    floats = rec[:, :48].copy().view("<f4").reshape(count, 12).astype(np.float64)
    tris_pts = floats[:, 3:12].reshape(count * 3, 3)
    if not np.isfinite(tris_pts).all():
        bad = int(np.argwhere(~np.isfinite(tris_pts).all(axis=1))[0][0] // 3)
        raise StlParseError("non-finite vertex in binary STL", offset=84 + 50 * bad)
    vertices, triangles = _weld(tris_pts)
    return build_mesh(vertices, triangles)


def _load_stl_ascii(data):
    text = data.decode("utf-8", errors="replace")
    pts = []
    nvert_in_facet = 0
    in_loop = False
    for lineno, line in enumerate(text.splitlines(), 1):
        words = line.split()
        if not words:
            continue
        key = words[0].lower()
        if key == "vertex":
            if len(words) != 4:
                raise StlParseError("vertex needs 3 coordinates", line=lineno)
            try:
                pts.append([float(w) for w in words[1:4]])
            except ValueError:
                raise StlParseError("non-numeric vertex coordinate", line=lineno)
            if not all(map(math.isfinite, pts[-1])):
                raise StlParseError("non-finite vertex in ASCII STL", line=lineno)
            nvert_in_facet += 1
        elif key == "outer":
            in_loop = True
            nvert_in_facet = 0
        elif key == "endloop":
            if not in_loop or nvert_in_facet != 3:
                raise StlParseError(
                    f"facet has {nvert_in_facet} vertices, expected 3", line=lineno
                )
            in_loop = False
    if len(pts) % 3 != 0:
        raise StlParseError("dangling vertices outside a complete facet")
    if not pts:
        raise EmptyMeshError("ASCII STL contains no facets")
    vertices, triangles = _weld(np.asarray(pts, dtype=np.float64))
    return build_mesh(vertices, triangles)


def _weld(tri_points):
    """Merge vertices that are equal after rounding to 1e-9 mm; returns
    (vertices, triangles), the vertices sorted by x, then y, then z, as
    `np.unique(axis=0)` gives them. Every zero coordinate comes out as
    +0.0 (rounding keeps the sign, adding 0.0 clears it), so -0.0 and
    +0.0 weld into one vertex."""
    flat = np.asarray(tri_points).round(9) + 0.0
    order = np.lexsort(flat.T[::-1])
    rows = flat[order]
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse.reshape(-1, 3)


# ---------------------------------------------------------------------------
# STL output (the scripts write their fixture meshes with it)

def mesh_to_stl_binary(mesh):
    count = mesh.triangle_count
    out = bytearray(b"toolpath-aa".ljust(80, b"\0"))
    out += struct.pack("<I", count)
    tris = mesh.vertices[mesh.triangles]  # (m, 3, 3)
    for i in range(count):
        rec = struct.pack(
            "<12fH",
            *mesh.normals[i].astype(np.float32),
            *tris[i].reshape(9).astype(np.float32),
            0,
        )
        out += rec
    return bytes(out)


# ---------------------------------------------------------------------------
# XY box grid

def ragged(count):
    """(owner, position) int64 arrays over the items of consecutive runs,
    run r holding count[r] items: the run each item belongs to, and its
    place in that run."""
    count = np.asarray(count, dtype=np.int64)
    owner = np.repeat(np.arange(len(count), dtype=np.int64), count)
    start = np.cumsum(count) - count
    return owner, np.arange(len(owner)) - np.repeat(start, count)


class BoxGrid:
    """Uniform XY grid binning axis-aligned boxes, given as (n, 2) arrays
    of lower and upper corners, by the cells they cover.

    With a `cell` size the cells are squares of that size; without one the
    grid has about `target_per_cell` boxes per cell, shaped to the extent.
    The bins are stored in compressed sparse row (CSR) form: the ids of the
    boxes binned in cell c are items[offsets[c]:offsets[c + 1]], in
    ascending order. Cell (ix, iy) has id ix * ny + iy and starts at
    xy_min + (ix, iy) * cell.
    """

    def __init__(self, lo, hi, cell=None, target_per_cell=4.0):
        self.size = len(lo)
        self.xy_min = lo.min(axis=0, initial=np.inf)
        self.xy_max = hi.max(axis=0, initial=-np.inf)
        span = np.maximum(self.xy_max - self.xy_min, 1e-9)
        if cell is None:
            cell_count = max(1, int(self.size / target_per_cell))
            aspect = span[0] / span[1]
            self.nx = max(1, int(round(math.sqrt(cell_count * aspect))))
            self.ny = max(1, int(round(cell_count / max(self.nx, 1))))
            self.cell = span / np.array([self.nx, self.ny])
        else:
            self.nx, self.ny = (np.floor(span / cell).astype(np.int64) + 1).tolist()
            self.cell = np.array([cell, cell], dtype=np.float64)
        # a stable sort by cell keeps each cell's boxes in id order
        box, cell_id = self._box_cells(lo, hi)
        self.items = box[np.argsort(cell_id, kind="stable")]
        self.offsets = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell_id, minlength=self.nx * self.ny),
                  out=self.offsets[1:])

    def _cell_of(self, xy):
        xy = np.asarray(xy, dtype=np.float64)
        idx = np.floor((xy - self.xy_min) / self.cell).astype(np.int64)
        idx = np.clip(idx, 0, [self.nx - 1, self.ny - 1])
        return idx.reshape(-1, 2) if xy.ndim > 1 else idx

    def _box_cells(self, lo, hi):
        """(box, cell id) for every cell each box covers, box by box."""
        ilo = self._cell_of(lo)
        ihi = self._cell_of(hi)
        ny_b = ihi[:, 1] - ilo[:, 1] + 1
        box, k = ragged((ihi[:, 0] - ilo[:, 0] + 1) * ny_b)
        cx = ilo[box, 0] + k // ny_b[box]
        return box, cx * self.ny + ilo[box, 1] + k % ny_b[box]

    def pairs(self, lo, hi):
        """Sorted, distinct (query, box) index arrays for every query box
        that shares a cell with a binned box. A query box wholly outside
        the grid's extent touches no cell."""
        near = np.flatnonzero(((lo <= self.xy_max) & (hi >= self.xy_min)).all(axis=1))
        query, cell_id = self._box_cells(lo[near], hi[near])
        count, box = self.cell_items(cell_id)
        # keys come in runs by query, each cell's boxes ascending, which a
        # stable sort merges; np.unique's first quicksort raised a job's
        # peak RSS by about 1 MB
        key = np.sort(np.repeat(near[query], count) * self.size + box, kind="stable")
        key = key[np.diff(key, prepend=-1) != 0]
        return np.divmod(key, max(self.size, 1))

    def cell_items(self, cells):
        """(box count per cell, the cells' box ids concatenated in order)."""
        first = self.offsets[cells]
        count = self.offsets[cells + 1] - first
        cell, k = ragged(count)
        return count, self.items[first[cell] + k]


# ---------------------------------------------------------------------------
# Vertical ray index

class VerticalRayIndex(BoxGrid):
    """A `BoxGrid` of the mesh's triangles by their XY bounding boxes.

    Immutable after construction; safe for concurrent read-only queries.
    Query results match brute-force intersection over all triangles.
    """

    def __init__(self, mesh, target_per_cell=4.0):
        tris = mesh.vertices[mesh.triangles]
        self._tri_pts = np.ascontiguousarray(tris)
        self._nz = mesh.normals[:, 2].copy()
        super().__init__(tris[:, :, :2].min(axis=1), tris[:, :, :2].max(axis=1),
                         target_per_cell=target_per_cell)


def build_vertical_index(mesh):
    return VerticalRayIndex(mesh)


def _ray_keys(t, px, py, qz):
    """(dz, dist, key) for vertical rays through (px, py) at height qz
    against triangles t, pair by pair. dz is surface z minus qz; dist is
    |dz|, or inf where the ray misses (boundary hits count); key adds
    BELOW_BIAS to a hit below, so that a tie goes to the hit above. Each
    ray keeps the first minimum of its key."""
    ax, ay = t[:, 0, 0], t[:, 0, 1]
    bx, by = t[:, 1, 0], t[:, 1, 1]
    cx, cy = t[:, 2, 0], t[:, 2, 1]
    d = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
    okd = np.abs(d) > 1e-30  # vertical triangles: no vertical ray hits them
    safe = np.where(okd, d, 1.0)
    w0 = ((by - cy) * (px - cx) + (cx - bx) * (py - cy)) / safe
    w1 = ((cy - ay) * (px - cx) + (ax - cx) * (py - cy)) / safe
    w2 = 1.0 - w0 - w1
    eps = 1e-12
    inside = okd & (w0 >= -eps) & (w1 >= -eps) & (w2 >= -eps)
    z = w0 * t[:, 0, 2] + w1 * t[:, 1, 2] + w2 * t[:, 2, 2]
    dz = z - qz
    dist = np.where(inside, np.abs(dz), np.inf)
    return dz, dist, dist + np.where(dz >= 0, 0.0, BELOW_BIAS)


def first_minima(count, pair_values):
    """Each row's first minimum over its candidate pairs, as `argmin` over
    them in order would pick it. Row r has count[r] pairs; pair_values(rows)
    returns arrays over the pairs of those rows, row by row, the first of
    them the key. The pairs are evaluated in blocks of whole rows and at
    most PAIR_BLOCK pairs (a row with more forms one block on its own).
    Returns (hit, values): a row has no hit when it has no pairs or its
    minimum key is not finite (a NaN key is its row's minimum); `values`
    hold each array's value at a hit row's first minimum, 0 elsewhere."""
    count = np.asarray(count, dtype=np.int64)
    rows = np.flatnonzero(count)
    hit = np.zeros(len(count), dtype=bool)
    out = []

    def zeros(values):
        return [np.zeros(len(hit), dtype=v.dtype) for v in values]

    count = count[rows]
    through = np.cumsum(count)
    r0 = 0
    while r0 < len(rows):
        base = through[r0] - count[r0]
        r1 = max(r0 + 1, int(np.searchsorted(through, base + PAIR_BLOCK,
                                             side="right")))
        values = pair_values(rows[r0:r1])
        out = out or zeros(values)
        key = values[0]
        starts = through[r0:r1] - count[r0:r1] - base   # each row's first pair
        low = np.minimum.reduceat(key, starts)
        at_min = key == np.repeat(low, count[r0:r1])
        best = np.minimum.reduceat(np.where(at_min, np.arange(len(key)),
                                            len(key)), starts)
        got = np.isfinite(low)
        sel = rows[r0:r1][got]
        hit[sel] = True
        for o, v in zip(out, values):
            o[sel] = v[best[got]]
        r0 = r1
    # with no pairs at all, a call on no rows gives the values' dtypes
    return hit, out or zeros(pair_values(rows))


def cast_vertical_batch(index, xs, ys, qzs):
    """Vectorised casting for many query points.

    Returns (delta, facing_top, hit) arrays. Every in-bounds ray is paired
    with each candidate triangle of its grid cell, in id order, and keeps
    the first minimum of its key (`first_minima`).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    qzs = np.asarray(qzs, dtype=np.float64)
    cell_id = np.zeros(len(xs), dtype=np.int64)
    count = np.zeros(len(xs), dtype=np.int64)
    rays = np.flatnonzero((xs >= index.xy_min[0]) & (xs <= index.xy_max[0])
                          & (ys >= index.xy_min[1]) & (ys <= index.xy_max[1]))
    ix, iy = index._cell_of(np.column_stack([xs[rays], ys[rays]])).T
    cell_id[rays] = ix * index.ny + iy
    count[rays] = np.diff(index.offsets)[cell_id[rays]]

    def pair_values(rays):
        c, cand = index.cell_items(cell_id[rays])
        dz, _, key = _ray_keys(index._tri_pts[cand], np.repeat(xs[rays], c),
                               np.repeat(ys[rays], c), np.repeat(qzs[rays], c))
        return key, dz, cand

    hit, (_, delta, tri) = first_minima(count, pair_values)
    return delta, hit & (index._nz[tri] > 0), hit


# ---------------------------------------------------------------------------
# XY polyline distances, batched
#
# Polylines are arrays whose first three columns are x, y, z, such as a
# toolpath's vertex array. `nearest_points` is the numpy twin of the
# scalar reference loops in the ordering tests (`_seg_point_dist2`,
# `nearest_on_polyline_brute`): the same operations in the same order, so
# it returns bitwise the same values.

BOX_SLACK = 1e-6     # relative margin on eps before a box gap rules a pair out


def segment_param(px, py, ax, ay, dx, dy):
    """Parameter in [0, 1] of the point (px, py) projected onto the segment
    from (ax, ay) along (dx, dy), clamped to it; 0 on a segment shorter
    than 1e-9. Arguments broadcast."""
    L2 = dx * dx + dy * dy
    flat = L2 < 1e-18
    t = ((px - ax) * dx + (py - ay) * dy) / np.where(flat, 1.0, L2)
    return np.where(flat, 0.0, np.minimum(np.maximum(t, 0.0), 1.0))


def nearest_points(points, lines):
    """`nearest_on_polyline_brute` for every row of points[k] against the
    polyline lines[k], job by job: (distance, z, endpoint flag) arrays over
    all the jobs' rows in order. A row keeps its first nearest segment, as
    the scalar strict `<` has it; against a polyline of one row it gets
    (inf, 0, 0)."""
    lengths = np.array([len(s) for s in lines], dtype=np.int64)
    xy = np.concatenate([p[:, :2] for p in points] + [np.empty((0, 2))])
    line = np.concatenate([s[:, :3] for s in lines] + [np.empty((0, 3))])
    job, _ = ragged([len(p) for p in points])
    first = (np.cumsum(lengths) - lengths)[job]  # each row's line, in `line`
    count = np.maximum(lengths - 1, 0)[job]
    ax, ay = line[:, 0], line[:, 1]
    dx, dy = np.diff(ax), np.diff(ay)

    def pair_values(rows):
        c = count[rows]
        px, py = np.repeat(xy[rows, 0], c), np.repeat(xy[rows, 1], c)
        row, k = ragged(c)
        a = first[rows][row] + k
        sx, sy, sdx, sdy = ax[a], ay[a], dx[a], dy[a]
        t = segment_param(px, py, sx, sy, sdx, sdy)
        # a Python float's `** 2` is libm pow, which can differ from x * x
        # in the last bit; float_power calls the same pow
        d2 = (np.float_power(px - (sx + t * sdx), 2.0)
              + np.float_power(py - (sy + t * sdy), 2.0))
        return d2, t, a

    hit, (d2, t, a) = first_minima(count, pair_values)
    za, zb = line[a[hit], 2], line[a[hit] + 1, 2]
    z = np.zeros(len(hit))
    z[hit] = za + (zb - za) * t[hit]
    seg = a - first
    endpoint = np.where(hit & (seg == 0) & (t <= 0.0), -1,
                        np.where(hit & (seg == count - 1) & (t >= 1.0), 1, 0))
    return np.sqrt(np.where(hit, d2, math.inf)), z, endpoint


def box_pairs(coords, eps):
    """Index pairs i < j, in order, whose XY bounding boxes come within eps
    on both axes: every pair of polylines closer than eps is among them."""
    lo = np.array([c[:, :2].min(axis=0) for c in coords]).reshape(-1, 2)
    hi = np.array([c[:, :2].max(axis=0) for c in coords]).reshape(-1, 2)
    reach = eps * (1.0 + BOX_SLACK)
    # boxes within reach of each other overlap, with room for rounding,
    # once both grow by reach
    i, j = BoxGrid(lo - reach, hi + reach).pairs(lo - reach, hi + reach)
    i, j = i[i < j], j[i < j]
    gap = np.maximum(lo[j] - hi[i], lo[i] - hi[j]).max(axis=1)
    return list(zip(i[gap <= reach].tolist(), j[gap <= reach].tolist()))


def signed_area(xy):
    """Shoelace area of a polygon given as (x, y) pairs, positive when it
    runs counter-clockwise."""
    area = 0.0
    n = len(xy)
    for i in range(n):
        x1, y1 = xy[i]
        x2, y2 = xy[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0
