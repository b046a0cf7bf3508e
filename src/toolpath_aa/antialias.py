"""The core transformation: resampling, vertical displacement towards the
surface, extrusion/feedrate rescaling, and cross-layer overlap flow
compensation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (BoxGrid, cast_vertical_batch, ragged, segment_param,
                       signed_areas)
from .gcode import (DELTA, E, F, VERTEX_COLUMNS, X, Y, Z, Layer, PrintProgram,
                    Toolpath, deposition_segments, fold_sum)

WINDOW_EPS = 1e-12   # float guard at the displacement window boundary
SNAP_EPS = 1e-9      # displacements below this are treated as zero


@dataclass(frozen=True)
class DisplacementWindow:
    """Allowed vertical displacement range for slicing plane position s:
    [s - h, s]. The default mid-layer plane s = h/2 gives [-h/2, +h/2]."""

    lo: float
    hi: float

    @classmethod
    def for_profile(cls, profile):
        return cls(lo=profile.s - profile.h, hi=profile.s)

    def contains(self, delta):
        """Elementwise on an array of offsets."""
        return (self.lo - WINDOW_EPS <= delta) & (delta <= self.hi + WINDOW_EPS)

    def clamp(self, delta):
        return np.minimum(np.maximum(delta, self.lo), self.hi)


@dataclass
class DisplacementStats:
    total: int = 0
    displaced: int = 0
    skipped_bottom_facing: int = 0
    skipped_out_of_window: int = 0
    missed: int = 0
    min_delta: float = math.inf     # over displaced vertices only
    max_delta: float = -math.inf
    per_layer_histogram: dict = field(default_factory=dict)

    def as_dict(self, h):
        """Report fields; the ranges are None when nothing was displaced.
        The achieved local thickness range, for layer thickness h, is
        reported, never enforced."""
        moved = self.displaced > 0
        return {
            "vertices_total": self.total,
            "vertices_displaced": self.displaced,
            "skipped_bottom_facing": self.skipped_bottom_facing,
            "skipped_out_of_window": self.skipped_out_of_window,
            "missed": self.missed,
            "delta_range_mm": [self.min_delta, self.max_delta] if moved else None,
            "per_layer_delta_histogram": self.per_layer_histogram,
            "achieved_thickness_range_mm": ([h + self.min_delta, h + self.max_delta]
                                            if moved else None),
        }


# ---------------------------------------------------------------------------
# Resampling

def resample_path(path, w):
    """Insert vertices until every segment is at most w long.

    Split segments get equal-length pieces; x, y, z (and delta) are
    interpolated linearly and e is divided proportionally. Endpoints are
    untouched, so a closed path stays closed.
    """
    verts = path.vertices
    if len(verts) < 2:
        return path
    xyz = verts[:, :3].tolist()
    # pieces per segment; math.dist is the length the split rule was
    # written against, and a segment of length <= w keeps one piece. The
    # rule is exact: a segment longer than w by one ulp splits in two. On
    # the seed-0 `bulk` benchmark input, 27,012 of 57,336 segments exceed
    # w = 0.8 only by rounding and split; reading them as w long
    # (ceil(seg / w - 1e-9)) made this stage about a third faster, but
    # raised `bulk`'s volume error by 11.7%, past its 10% bound.
    seg = np.fromiter(map(math.dist, xyz, xyz[1:]), np.float64, len(xyz) - 1)
    pieces = np.maximum(np.ceil(seg / w), 1.0).astype(np.int64)
    if (pieces == 1).all():
        return path
    # piece k of a segment prev -> cur ends at t = k / n, the last at cur
    of, k = ragged(pieces)
    n = pieces[of]
    k += 1
    prev, cur = verts[of], verts[of + 1]
    out = prev + (cur - prev) * (k / n)[:, None]
    last = k == n
    out[last] = cur[last]
    out[:, E] = cur[:, E] / n
    out[:, F] = cur[:, F]
    path.vertices = np.concatenate([verts[:1], out])
    return path


# ---------------------------------------------------------------------------
# Displacement

def displace_program(program, index, profile):
    """Resample every path to segments at most w long, then displace each
    layer with `displace_layer`. A layer where no vertex moved gets its
    parsed rows back, so a run that displaces nothing emits the input's
    values. Returns the DisplacementStats, whose histogram counts each
    layer's nonzero DELTA rows by their value to 0.01 mm."""
    stats = DisplacementStats()
    for li, layer in enumerate(program.layers):
        paths = layer.toolpaths()
        parsed = [path.vertices for path in paths]
        displaced = stats.displaced
        for path in paths:
            resample_path(path, profile.w)
        displace_layer(paths, index, profile, stats=stats)
        if stats.displaced == displaced:
            for path, verts in zip(paths, parsed):
                path.vertices = verts
        if paths:
            delta = np.concatenate([path.vertices[:, DELTA] for path in paths])
            stats.per_layer_histogram[li] = dict(Counter(
                round(dv, 2) for dv in delta[delta != 0].tolist()))
    return stats


def displace_layer(paths, index, profile, stats=None):
    """Snap top-facing vertices onto the surface within the displacement
    window. Vertices with no hit, a bottom-facing hit, or an out-of-window
    offset stay untouched (and are counted in the stats report).

    The displacement field is discontinuous where the surface offset
    leaves the window; segments straddling that boundary get an extra
    vertex at the (linearly estimated) crossing so the displaced band
    reaches the window edge instead of sagging over a whole segment.
    """
    window = DisplacementWindow.for_profile(profile)
    if stats is None:
        stats = DisplacementStats()
    if not paths:
        return paths, stats

    # the layer's vertices as one new array: the paths' old arrays, which
    # the caller may keep, are never written
    verts = np.concatenate([path.vertices for path in paths])
    ends = np.cumsum([len(path) for path in paths])
    verts, ends, cast = _refine_window_boundaries(verts, ends, index, window,
                                                  _cast(index, verts))
    delta, top, hit = cast
    inside = window.contains(delta)
    snap = hit & top & inside
    d = window.clamp(delta)
    moved = snap & (np.abs(d) > SNAP_EPS)
    verts[moved, Z] += d[moved]
    verts[snap, DELTA] = np.where(moved[snap], d[snap], 0.0)

    stats.total += len(verts)
    stats.missed += int(np.count_nonzero(~hit))
    stats.skipped_bottom_facing += int(np.count_nonzero(hit & ~top))
    stats.skipped_out_of_window += int(np.count_nonzero(hit & top & ~inside))
    shifts = d[moved].tolist()
    if shifts:
        stats.displaced += len(shifts)
        stats.min_delta = min(stats.min_delta, min(shifts))
        stats.max_delta = max(stats.max_delta, max(shifts))
    for path, rows in zip(paths, np.split(verts, ends[:-1])):
        path.vertices = rows
    return paths, stats


def _cast(index, verts):
    """(delta, facing_top, hit) arrays for every vertex row."""
    return cast_vertical_batch(index, verts[:, X], verts[:, Y], verts[:, Z])


def _refine_window_boundaries(verts, ends, index, window, cast):
    """Insert a vertex where a segment's surface offset crosses the
    window boundary (one endpoint displaceable, the other out of window
    on the same top-facing surface). `verts` holds the rows of paths that
    end at the row counts `ends`, and `cast` their cast arrays; returns
    all three with the new rows in place. The E of each split segment's
    end row is rescaled in `verts` itself. The new vertices are cast in
    one batch; each ray is cast on its own, so this gives the rows that
    one cast per vertex would."""
    delta, top, hit = cast
    ok = hit & top
    inside = window.contains(delta)
    within_path = np.ones(max(len(verts) - 1, 0), dtype=bool)
    within_path[ends[:-1] - 1] = False
    k = np.flatnonzero(within_path & ok[:-1] & ok[1:]
                       & (inside[:-1] != inside[1:]))
    d0, d1 = delta[k], delta[k + 1]
    steep = np.abs(d1 - d0) >= 1e-12
    k, d0, d1 = k[steep], d0[steep], d1[steep]
    edge = np.where(np.maximum(d0, d1) > window.hi, window.hi, window.lo)
    t = (edge - d0) / (d1 - d0)
    interior = (1e-6 < t) & (t < 1.0 - 1e-6)
    k, t = k[interior], t[interior]
    if not len(k):
        return verts, ends, cast
    a, b = verts[k], verts[k + 1]
    new = np.zeros((len(k), VERTEX_COLUMNS))
    new[:, :3] = a[:, :3] + (b[:, :3] - a[:, :3]) * t[:, None]
    new[:, E] = b[:, E] * t
    new[:, F] = b[:, F]
    verts[k + 1, E] = b[:, E] * (1.0 - t)
    new_cast = _cast(index, new)
    verts = np.insert(verts, k + 1, new, axis=0)
    cast = tuple(np.insert(c, k + 1, nc) for c, nc in zip(cast, new_cast))
    return verts, ends + np.searchsorted(k, ends), cast


# ---------------------------------------------------------------------------
# Extrusion and feedrate rescaling

def adjust_extrusion(e, z, delta):
    """Filament length for a track whose thickness z changed by delta:
    e' = e * (z + delta) / z. Elementwise on arrays of e and delta."""
    return e * (z + delta) / z


def adjust_feedrate(delta1, delta2, h, f_ini, f_min):
    """Linear slowdown with the height change across a segment, clamped
    to [f_min, f_ini]. Elementwise on arrays of deltas."""
    f = f_ini + abs(delta1 - delta2) / h * (f_min - f_ini)
    return np.minimum(np.maximum(f, f_min), f_ini)


def rescale_paths(paths, profile):
    """Apply per-segment extrusion and feedrate adjustment after
    displacement. The segment is scaled by its endpoint's delta (each G1
    word controls the segment it terminates); feedrate is only touched on
    segments whose displacement actually changes thickness."""
    for path in paths:
        if not path.modified:
            continue
        verts = path.vertices
        prev, cur = verts[:-1, DELTA], verts[1:, DELTA]
        thick = np.flatnonzero(cur != 0.0) + 1
        slow = np.flatnonzero((cur != prev) | (cur != 0.0)) + 1
        verts[thick, E] = adjust_extrusion(verts[thick, E], profile.h,
                                           verts[thick, DELTA])
        verts[slow, F] = adjust_feedrate(verts[slow - 1, DELTA],
                                         verts[slow, DELTA], profile.h,
                                         profile.f_ini, profile.f_min)
    return paths


# ---------------------------------------------------------------------------
# Overlap detection and flow compensation

def _segment_rects(a, b, half_width):
    """Corners a + n, b + n, b - n, a - n of the XY rectangles swept by the
    segments a -> b of width 2 * half_width, as (m, 4) x and y arrays."""
    dx = b[:, X] - a[:, X]
    dy = b[:, Y] - a[:, Y]
    # np.hypot can differ from math.hypot in the last bit
    length = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()),
                         np.float64, len(dx))
    short = length < 1e-12
    safe = np.where(short, 1.0, length)
    nx = np.where(short, half_width, -dy / safe * half_width)
    ny = np.where(short, 0.0, dx / safe * half_width)
    return (np.column_stack([a[:, X] + nx, b[:, X] + nx, b[:, X] - nx, a[:, X] - nx]),
            np.column_stack([a[:, Y] + ny, b[:, Y] + ny, b[:, Y] - ny, a[:, Y] - ny]))


def _clip_rects(xs, ys, cxs, cys):
    """Sutherland-Hodgman clipping of each row's subject quadrilateral
    (xs, ys) by its convex clip quadrilateral (cxs, cys), with the scalar
    algorithm's float operations: a vertex is inside an edge within 1e-12,
    and an edge crossing nearly parallel to the clip edge (|den| < 1e-30)
    yields its end vertex. Returns the clipped polygons as zero-padded
    (m, k) x and y arrays and each one's vertex count."""
    clockwise = (signed_areas(cxs, cys, np.full(len(cxs), 4)) < 0)[:, None]
    cxs = np.where(clockwise, cxs[:, ::-1], cxs)
    cys = np.where(clockwise, cys[:, ::-1], cys)
    n = np.full(len(xs), 4)
    for i in range(4):
        ax, ay = cxs[:, i, None], cys[:, i, None]
        bx, by = cxs[:, (i + 1) % 4, None], cys[:, (i + 1) % 4, None]
        ex, ey = bx - ax, by - ay
        j = np.arange(xs.shape[1])
        valid = j < n[:, None]
        inside = ex * (ys - ay) - ey * (xs - ax) >= -1e-12
        prev = np.where(j == 0, n[:, None] - 1, j - 1) % xs.shape[1]
        px = np.take_along_axis(xs, prev, axis=1)
        py = np.take_along_axis(ys, prev, axis=1)
        # where prev -> cur crosses the edge's line, prev first
        cross = valid & (inside != np.take_along_axis(inside, prev, axis=1))
        keep = valid & inside
        den = (px - xs) * (ay - by) - (py - ys) * (ax - bx)
        parallel = np.abs(den) < 1e-30
        t = (((px - ax) * (ay - by) - (py - ay) * (ax - bx))
             / np.where(parallel, 1.0, den))
        hx = np.where(parallel, xs, px + t * (xs - px))
        hy = np.where(parallel, ys, py + t * (ys - py))
        count = cross.astype(np.int64) + keep
        at = np.cumsum(count, axis=1) - count
        n = count.sum(axis=1)
        out_x = np.zeros((len(xs), max(int(n.max(initial=0)), 1)))
        out_y = np.zeros_like(out_x)
        r, c = np.nonzero(cross)
        out_x[r, at[r, c]] = hx[r, c]
        out_y[r, at[r, c]] = hy[r, c]
        r, c = np.nonzero(keep)
        out_x[r, at[r, c] + cross[r, c]] = xs[r, c]
        out_y[r, at[r, c] + cross[r, c]] = ys[r, c]
        xs, ys = out_x, out_y
    return xs, ys, n


def _padded_boxes(a, b, pad):
    """(lo, hi) XY boxes of the segments a -> b, grown by pad on every side."""
    ends = np.stack([a[:, :2], b[:, :2]], axis=1)
    return ends.min(axis=1) - pad, ends.max(axis=1) + pad


def detect_overlaps(program, profile):
    """Find raised lower tracks intersecting the track above.

    The upper track's bottom is the lower layer's flat top (base_z), so
    the penetration is the lower track's positive displacement, sampled
    at the centroid of the XY intersection of the two swept rectangles.
    The candidate pairs of every layer pair are gathered first and then
    clipped in one batch. Does not touch extrusion. Returns (records,
    report). The records are one record array, a row per hit: the lower
    segment's `layer`, `lower_path` and `lower_row` (the row that ends
    it, as `deposition_segments` numbers them), the upper segment's
    `upper_path` and `upper_row` in layer + 1, and the `volume` in mm^3
    (> 0). They come by layer pair and then sorted by (upper, lower), as
    the grid's pairs do.
    """
    half = profile.d / 2.0
    found = [(np.empty(0, np.int64),) * 5 + (np.empty((0, VERTEX_COLUMNS)),) * 4
             + (np.empty(0),)]
    layers = [layer.toolpaths() for layer in program.layers]
    for li in range(len(layers) - 1):
        lpath, lrow, la, lb = deposition_segments(layers[li])
        raised = np.flatnonzero((la[:, DELTA] > 0) | (lb[:, DELTA] > 0))
        if not raised.size:
            continue
        upath, urow, ua, ub = deposition_segments(layers[li + 1])
        if not urow.size:
            continue
        llo, lhi = _padded_boxes(la[raised], lb[raised], half)
        ulo, uhi = _padded_boxes(ua, ub, half)
        grid = BoxGrid(llo, lhi, cell=max(profile.d, profile.w))
        uq, lq = grid.pairs(ulo, uhi)
        # only boxes that meet can clip to an area; the margin keeps every
        # pair within the clip's own 1e-12 tolerance
        meet = ((ulo[uq] - 1e-9 <= lhi[lq] + 1e-9)
                & (llo[lq] - 1e-9 <= uhi[uq] + 1e-9)).all(axis=1)
        uq, k = uq[meet], raised[lq[meet]]
        found.append((np.full(len(k), li), lpath[k], lrow[k], upath[uq],
                      urow[uq], la[k], lb[k], ua[uq], ub[uq],
                      np.full(len(k), program.layers[li].base_z)))
    li, lpath, lrow, upath, urow, la, lb, ua, ub, upper_bottom = (
        np.concatenate(column) for column in zip(*found))
    xs, ys, n = _clip_rects(*_segment_rects(la, lb, half),
                            *_segment_rects(ua, ub, half))
    area = np.abs(signed_areas(xs, ys, n))
    # sum over the polygon's vertices, in order, over its vertex count
    used = np.arange(xs.shape[1]) < n[:, None]
    cx = cy = np.zeros(len(xs))
    for x, y, u in zip(xs.T, ys.T, used.T):
        cx = cx + np.where(u, x, 0.0)
        cy = cy + np.where(u, y, 0.0)
    cx, cy = cx / np.maximum(n, 1), cy / np.maximum(n, 1)
    pen = _tops_at(la, lb, cx, cy) - upper_bottom
    hit = np.flatnonzero((n >= 3) & (area > 1e-12) & (pen > 0))
    records = np.rec.fromarrays(
        [c[hit] for c in (li, lpath, lrow, upath, urow)] + [area[hit] * pen[hit]],
        names="layer,lower_path,lower_row,upper_path,upper_row,volume")
    return records, {"overlap_records": len(records),
                     "overlap_volume_mm3": fold_sum(records.volume)}


def _tops_at(la, lb, cx, cy):
    """Track top over the point (cx, cy) projected onto each segment
    la -> lb (rows of vertex arrays) and clamped to it."""
    t = segment_param(cx, cy, la[:, X], la[:, Y],
                      lb[:, X] - la[:, X], lb[:, Y] - la[:, Y])
    return la[:, Z] + (lb[:, Z] - la[:, Z]) * t


def reduce_overlap_flow(program, profile):
    """Apply detect_overlaps and subtract each intersection volume from
    the upper segment's extrusion (converted to filament length), never
    reducing e below zero. Returns (records, report)."""
    records, report = detect_overlaps(program, profile)
    layers = [layer.toolpaths() for layer in program.layers]
    clamped = 0
    for li, pi, si, volume in records[["layer", "upper_path", "upper_row",
                                       "volume"]].tolist():
        verts = layers[li + 1][pi].vertices
        e = float(verts[si, E])
        de = volume / profile.filament_area
        if e - de < 0:
            de = e
            clamped += 1
        verts[si, E] = e - de
    report = dict(report)
    report["upper_segments_clamped_to_zero"] = clamped
    return records, report


# ---------------------------------------------------------------------------
# Slicing plane sweep

def sweep_slicing_plane(program, index, profile, s_values):
    """Total overlap volume as a function of the slicing plane position.

    Each s runs `displace_program` at that s on new toolpaths over the
    parsed arrays, which no stage writes, so the input is never mutated.
    No flow is rescaled: rescaling moves no vertex and keeps every
    deposition segment, so the volume is the one the run itself detects.
    """
    rows = []
    for s in s_values:
        scratch = PrintProgram(layers=[
            Layer(layer.base_z, [Toolpath(path.vertices)
                                 for path in layer.toolpaths()])
            for layer in program.layers])
        displace_program(scratch, index, replace(profile, s=s))
        _, report = detect_overlaps(scratch, profile)
        rows.append((s, report["overlap_volume_mm3"]))
    return rows
