"""Triangle mesh loading, the XY box grid, vertical ray casting, and the
XY nearest points between a layer's toolpath polylines.

All coordinates are millimeters. The mesh is the reference surface that
toolpath vertices are snapped towards; queries are always vertical lines,
so the acceleration structure is a uniform 2D grid over the XY footprint
of the triangles. The same box grid pairs overlapping tracks, tracks with
surface samples, polyline vertices with near segments, and seam locations.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

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
    """Triangle soup as its corners, with per-triangle unit normals and
    areas; build one with `build_mesh`.

    Normals follow the right-hand winding of each triangle's corners;
    normals stored in STL files are ignored.
    """

    corners: np.ndarray           # (m, 3, 3) float64, triangle by corner
    normals: np.ndarray           # (m, 3) float64, unit length
    areas: np.ndarray             # (m,) float64, mm^2
    degenerate_dropped: int = 0

    @property
    def triangle_count(self):
        return len(self.corners)


def build_mesh(corners):
    """The mesh of (m, 3, 3) triangle corners, the triangles of area at most
    DEGENERATE_AREA dropped and counted in `degenerate_dropped`. Normals and
    areas come from one cross product per triangle."""
    corners = np.asarray(corners, dtype=np.float64).reshape(-1, 3, 3)
    a, b, c = corners.transpose(1, 0, 2)
    cross = np.cross(b - a, c - a)
    lens = np.linalg.norm(cross, axis=1)
    keep = 0.5 * lens > DEGENERATE_AREA
    if not keep.any():
        raise EmptyMeshError("mesh has no non-degenerate triangles")
    lens = lens[keep]
    return TriangleMesh(corners[keep], cross[keep] / lens[:, None], 0.5 * lens,
                        int((~keep).sum()))


# ---------------------------------------------------------------------------
# STL input

def load_mesh(data):
    """Parse STL bytes, ASCII or binary as detected, into a TriangleMesh.

    The facets' points are rounded to 1e-9 mm, and every zero comes out as
    +0.0 (rounding keeps the sign, adding 0.0 clears it). Degenerate
    triangles are dropped and counted in mesh.degenerate_dropped.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    load = _load_stl_ascii if _is_ascii_stl(data) else _load_stl_binary
    return build_mesh(load(data).round(9) + 0.0)


def load_mesh_file(path):
    with open(path, "rb") as f:
        return load_mesh(f.read())


def _is_ascii_stl(data):
    # a binary file may still start with 'solid'; check for 'facet'
    return (data[:512].lstrip().startswith(b"solid")
            and (b"facet" in data[:1024] or len(data) < 84))


def _load_stl_binary(data):
    """The (m, 3, 3) points of a binary STL's facets."""
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
    corners = floats[:, 3:12].reshape(count, 3, 3)
    if not np.isfinite(corners).all():
        bad = int(np.flatnonzero(~np.isfinite(corners).all(axis=(1, 2)))[0])
        raise StlParseError("non-finite vertex in binary STL", offset=84 + 50 * bad)
    return corners


def _load_stl_ascii(data):
    """The (m, 3, 3) points of an ASCII STL's facets. Each `vertex` must lie
    in an `outer loop` that `endloop` closes after three of them."""
    text = data.decode("utf-8", errors="replace")
    pts = []
    loop, opened = None, 0      # the open outer loop's points, and its line
    for lineno, line in enumerate(text.splitlines(), 1):
        words = line.split()
        if not words:
            continue
        key = words[0].lower()
        if loop is not None and key in ("facet", "outer", "endsolid"):
            raise StlParseError(f"outer loop of line {opened} has no endloop",
                                line=lineno)
        if key == "vertex":
            if loop is None:
                raise StlParseError("vertex outside an outer loop", line=lineno)
            if len(words) != 4:
                raise StlParseError("vertex needs 3 coordinates", line=lineno)
            try:
                loop.append([float(w) for w in words[1:4]])
            except ValueError:
                raise StlParseError("non-numeric vertex coordinate", line=lineno)
            if not all(map(math.isfinite, loop[-1])):
                raise StlParseError("non-finite vertex in ASCII STL", line=lineno)
        elif key == "outer":
            loop, opened = [], lineno
        elif key == "endloop":
            if loop is None or len(loop) != 3:
                raise StlParseError(
                    f"facet has {len(loop or ())} vertices, expected 3", line=lineno)
            pts += loop
            loop = None
    if loop is not None:
        raise StlParseError(f"outer loop of line {opened} has no endloop",
                            line=lineno)
    if not pts:
        raise EmptyMeshError("ASCII STL contains no facets")
    return np.asarray(pts, dtype=np.float64).reshape(-1, 3, 3)


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


def row_blocks(count, size):
    """(r0, r1) bounds of consecutive blocks of whole rows, row r holding
    count[r] items: each block takes as many rows as hold at most `size`
    items together, and a row with more forms a block of its own."""
    through = np.cumsum(count)
    r0 = 0
    while r0 < len(through):
        base = through[r0] - count[r0]
        r1 = max(r0 + 1, int(np.searchsorted(through, base + size, side="right")))
        yield r0, r1
        r0 = r1


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

    def point_cells(self, xs, ys):
        """(cell id, box count) of each point (xs, ys): 0 and 0 outside the
        grid's extent, whose edges are inside."""
        inside = np.flatnonzero((xs >= self.xy_min[0]) & (xs <= self.xy_max[0])
                                & (ys >= self.xy_min[1]) & (ys <= self.xy_max[1]))
        cell, count = np.zeros((2, len(xs)), dtype=np.int64)
        ix, iy = self._cell_of(np.column_stack([xs[inside], ys[inside]])).T
        cell[inside] = ix * self.ny + iy
        count[inside] = np.diff(self.offsets)[cell[inside]]
        return cell, count

    def cell_items(self, cells):
        """(box count per cell, the cells' box ids concatenated in order)."""
        first = self.offsets[cells]
        count = self.offsets[cells + 1] - first
        cell, k = ragged(count)
        return count, self.items[first[cell] + k]


# ---------------------------------------------------------------------------
# Vertical ray index

class VerticalRayIndex(BoxGrid):
    """A `BoxGrid` of the mesh's triangles by their XY bounding boxes, with
    their `triangle_terms`.

    Immutable after construction; safe for concurrent read-only queries.
    Query results match brute-force intersection over all triangles.
    """

    def __init__(self, mesh, target_per_cell=2.0):
        tris = mesh.corners
        self._terms, self._okd = triangle_terms(tris)
        self._nz = mesh.normals[:, 2].copy()
        # a ray within `_ray_keys`' tolerance of a triangle can pass just
        # outside its box, and across a cell border: grown boxes keep it
        pad = 1e-9 * (1.0 + np.abs(tris[:, :, :2]).max(initial=0.0))
        lo = tris[:, :, :2].min(axis=1) - pad
        hi = tris[:, :, :2].max(axis=1) + pad
        super().__init__(lo, hi, target_per_cell=target_per_cell)


def build_vertical_index(mesh):
    return VerticalRayIndex(mesh)


def triangle_terms(tris):
    """What `_ray_keys` reads of (m, 3, 3) triangles a, b, c: a (10, m)
    array of by-cy, cx-bx, cy-ay, ax-cx, cx, cy, the determinant (1.0
    where it is too small), az, bz and cz, and the mask `okd` of the
    determinants that are not. A vertical triangle's is too small: no
    vertical ray hits it."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = tris.transpose(1, 2, 0)
    d = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
    okd = np.abs(d) > 1e-30
    return np.array([by - cy, cx - bx, cy - ay, ax - cx, cx, cy,
                     np.where(okd, d, 1.0), az, bz, cz]), okd


def _ray_keys(terms, okd, px, py, qz):
    """(dz, dist, key) for vertical rays through (px, py) at height qz
    against triangles of `triangle_terms`, pair by pair. dz is surface z
    minus qz; dist is |dz|, or inf where the ray misses (boundary hits
    count); key adds BELOW_BIAS to a hit below, so that a tie goes to the
    hit above. Each ray keeps the first minimum of its key."""
    b_c, c_b, c_a, a_c, cx, cy, d, az, bz, cz = terms
    dx, dy = px - cx, py - cy
    w0 = (b_c * dx + c_b * dy) / d
    w1 = (c_a * dx + a_c * dy) / d
    w2 = 1.0 - w0 - w1
    eps = 1e-12
    inside = okd & (w0 >= -eps) & (w1 >= -eps) & (w2 >= -eps)
    z = w0 * az + w1 * bz + w2 * cz
    dz = z - qz
    dist = np.where(inside, np.abs(dz), np.inf)
    return dz, dist, dist + np.where(dz >= 0, 0.0, BELOW_BIAS)


def first_minima(count, pair_values):
    """Each row's first minimum over its candidate pairs, as `argmin` over
    them in order would pick it. Row r has count[r] pairs; pair_values(rows)
    returns arrays over the pairs of those rows, row by row, the first of
    them the key. The pairs are evaluated in blocks of whole rows and at
    most PAIR_BLOCK pairs (`row_blocks`).
    Returns (hit, values): a row has no hit when it has no pairs or its
    minimum key is not finite (a NaN key is its row's minimum); `values`
    hold a hit row's least key, then each other array's value at its first
    minimum (located only for those), 0 elsewhere."""
    count = np.asarray(count, dtype=np.int64)
    rows = np.flatnonzero(count)
    hit = np.zeros(len(count), dtype=bool)
    out = []

    def zeros(values):
        return [np.zeros(len(hit), dtype=v.dtype) for v in values]

    count = count[rows]
    for r0, r1 in row_blocks(count, PAIR_BLOCK):
        block = count[r0:r1]
        values = pair_values(rows[r0:r1])
        out = out or zeros(values)
        key = values[0]
        starts = np.cumsum(block) - block    # each row's first pair
        low = np.minimum.reduceat(key, starts)
        got = np.isfinite(low)
        sel = rows[r0:r1][got]
        hit[sel] = True
        out[0][sel] = low[got]
        if len(values) > 1:
            at_min = key == np.repeat(low, block)
            best = np.minimum.reduceat(np.where(at_min, np.arange(len(key)),
                                                len(key)), starts)
            for o, v in zip(out[1:], values[1:]):
                o[sel] = v[best[got]]
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
    cell_id, count = index.point_cells(xs, ys)

    def pair_values(rays):
        c, cand = index.cell_items(cell_id[rays])
        terms = np.take(index._terms, cand, axis=1)
        dz, _, key = _ray_keys(terms, index._okd[cand], np.repeat(xs[rays], c),
                               np.repeat(ys[rays], c), np.repeat(qzs[rays], c))
        return key, dz, cand

    hit, (_, delta, tri) = first_minima(count, pair_values)
    return delta, hit & (index._nz[tri] > 0), hit


# ---------------------------------------------------------------------------
# XY polyline distances
#
# Polylines are arrays whose first three columns are x, y, z, such as a
# toolpath's vertex array. `nearest_rows` is the numpy twin of the scalar
# reference loops in the ordering tests (`_seg_point_dist2`,
# `nearest_on_polyline_brute`): the same operations in the same order, so
# every row it keeps has bitwise the same values.

BOX_SLACK = 1e-6     # relative margin on eps before a box gap rules a pair out


def segment_param(px, py, ax, ay, dx, dy):
    """Parameter in [0, 1] of the point (px, py) projected onto the segment
    from (ax, ay) along (dx, dy), clamped to it; 0 on a segment shorter
    than 1e-9. Arguments broadcast."""
    L2 = dx * dx + dy * dy
    flat = L2 < 1e-18
    t = ((px - ax) * dx + (py - ay) * dy) / np.where(flat, 1.0, L2)
    return np.where(flat, 0.0, np.minimum(np.maximum(t, 0.0), 1.0))


def nearest_rows(polylines, eps):
    """`nearest_on_polyline_brute` of every row against every other polyline
    that comes within eps of it: (row, line, dist, z, endpoint flag) arrays,
    sorted by row, then line, with `row` numbering the rows of all the
    polylines in order. A row meets only the segments whose XY box, grown
    by eps, holds it, in ascending order, and keeps the first nearest
    (`first_minima`): every segment at a minimum below eps is among them,
    so each row kept equals the scalar loop's bitwise. Candidates are
    listed for blocks of rows of at most PAIR_BLOCK pairs (`row_blocks`)."""
    line, _ = ragged([len(p) for p in polylines])
    x, y, z = np.concatenate([p[:, :3] for p in polylines]
                             + [np.empty((0, 3))]).T.copy()
    # edge[r]: a polyline starts at row r; edge[r + 1]: one ends at row r
    edge = np.diff(line, prepend=-1, append=-1) != 0
    a = np.flatnonzero(~edge[1:-1])        # each segment's first row
    ax, ay, own = x[a], y[a], line[a]
    dx, dy = x[a + 1] - ax, y[a + 1] - ay
    reach = eps * (1.0 + BOX_SLACK)
    lx, hx = np.minimum(ax, x[a + 1]) - reach, np.maximum(ax, x[a + 1]) + reach
    ly, hy = np.minimum(ay, y[a + 1]) - reach, np.maximum(ay, y[a + 1]) + reach
    grid = BoxGrid(np.column_stack([lx, ly]), np.column_stack([hx, hy]))
    cells, count = grid.point_cells(x, y)
    rows = np.flatnonzero(count)
    found = [(np.empty(0, np.int64),) * 2 + (np.empty(0),) * 2]
    for r0, r1 in row_blocks(count[rows], PAIR_BLOCK):
        per_row, s = grid.cell_items(cells[rows[r0:r1]])
        row = np.repeat(rows[r0:r1], per_row)
        px, py = x[row], y[row]
        near = ((own[s] != line[row]) & (lx[s] <= px) & (px <= hx[s])
                & (ly[s] <= py) & (py <= hy[s]))
        row, s = row[near], s[near]
        # groups: the runs of a row's pairs with one other polyline
        first = np.flatnonzero(np.diff(row * len(polylines) + own[s], prepend=-1))
        size = np.diff(first, append=len(row))

        def pair_values(groups):
            g, k = ragged(size[groups])
            p = first[groups][g] + k
            px, py, seg = x[row[p]], y[row[p]], s[p]
            sx, sy, sdx, sdy = ax[seg], ay[seg], dx[seg], dy[seg]
            t = segment_param(px, py, sx, sy, sdx, sdy)
            # a Python float's `** 2` is libm pow, which can differ from
            # x * x in the last bit; float_power calls the same pow
            d2 = (np.float_power(px - (sx + t * sdx), 2.0)
                  + np.float_power(py - (sy + t * sdy), 2.0))
            return d2, a[seg], t

        hit, (d2, b, t) = first_minima(size, pair_values)
        dist = np.sqrt(d2)
        kept = hit & (dist < eps)
        found.append((row[first[kept]], b[kept], dist[kept], t[kept]))
    row, b, dist, t = (np.concatenate(column) for column in zip(*found))
    return (row, line[b], dist, z[b] + (z[b + 1] - z[b]) * t,
            np.where(edge[b] & (t <= 0.0), -1,
                     np.where(edge[b + 2] & (t >= 1.0), 1, 0)))


def box_pairs(points, eps):
    """Index pairs i < j, in order, of (n, 2+) points that lie within eps
    of each other on both XY axes."""
    xy = points[:, :2]
    reach = eps * (1.0 + BOX_SLACK)
    # boxes within reach of each other overlap, with room for rounding,
    # once both grow by reach
    i, j = BoxGrid(xy - reach, xy + reach).pairs(xy - reach, xy + reach)
    i, j = i[i < j], j[i < j]
    near = np.abs(xy[j] - xy[i]).max(axis=1) <= reach
    return list(zip(i[near].tolist(), j[near].tolist()))


def signed_areas(xs, ys, n):
    """Shoelace area of each row's polygon, its first n corners given as
    (m, k) x and y arrays, positive when it runs counter-clockwise: the
    terms are added from the first corner's on, as a scalar loop adds
    them."""
    j = np.arange(xs.shape[1])
    nxt = np.where(j + 1 < n[:, None], j + 1, 0)
    xn = np.take_along_axis(xs, nxt, axis=1)
    yn = np.take_along_axis(ys, nxt, axis=1)
    terms = np.where(j < n[:, None], xs * yn - xn * ys, 0.0)
    # accumulate adds in order, where a reduce may add pairs first; the
    # row of zeros gives the loop's signed zeros
    area = np.add.accumulate(np.vstack([np.zeros(len(xs)), terms.T]))[-1]
    return area / 2.0
