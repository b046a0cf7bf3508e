"""The core transformation: resampling, vertical displacement towards the
surface, extrusion/feedrate rescaling, and cross-layer overlap flow
compensation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import BoxGrid, cast_vertical_batch, signed_area
from .gcode import (DELTA, E, F, VERTEX_COLUMNS, X, Y, Z, Layer, PrintProgram,
                    deposition_segments)

WINDOW_EPS = 1e-12   # float guard at the displacement window boundary
SNAP_EPS = 1e-9      # displacements below this are treated as zero


class ThicknessError(Exception):
    pass


@dataclass(frozen=True)
class DisplacementWindow:
    """Allowed vertical displacement range for slicing plane position s:
    [s - h, s]. The default mid-layer plane s = h/2 gives [-h/2, +h/2]."""

    lo: float
    hi: float

    @classmethod
    def for_profile(cls, profile, s=None):
        s = profile.s if s is None else s
        if not (0 <= s <= profile.h):
            raise ValueError(f"s={s} outside [0, h={profile.h}]")
        return cls(lo=s - profile.h, hi=s)

    def contains(self, delta):
        """Elementwise on an array of offsets."""
        return (self.lo - WINDOW_EPS <= delta) & (delta <= self.hi + WINDOW_EPS)

    def clamp(self, delta):
        return np.minimum(np.maximum(delta, self.lo), self.hi)


@dataclass
class OverlapRecord:
    lower: tuple      # (layer, path, segment) indices
    upper: tuple
    volume: float     # mm^3, > 0


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

    def thickness_range(self, h):
        """Achieved local thickness range (reported, never enforced)."""
        return (h + self.min_delta, h + self.max_delta)

    def as_dict(self, h=None):
        """Report fields; the ranges are None when nothing was displaced."""
        moved = self.displaced > 0
        out = {
            "vertices_total": self.total,
            "vertices_displaced": self.displaced,
            "skipped_bottom_facing": self.skipped_bottom_facing,
            "skipped_out_of_window": self.skipped_out_of_window,
            "missed": self.missed,
            "delta_range_mm": [self.min_delta, self.max_delta] if moved else None,
            "per_layer_delta_histogram": self.per_layer_histogram,
        }
        if h is not None:
            out["achieved_thickness_range_mm"] = (
                list(self.thickness_range(h)) if moved else None)
        return out


# ---------------------------------------------------------------------------
# Resampling

def resample_path(path, w):
    """Insert vertices until every segment is at most w long.

    Split segments get equal-length pieces; x, y, z (and delta) are
    interpolated linearly and e is divided proportionally. Endpoints are
    untouched and the closed flag survives.
    """
    if w <= 0:
        raise ValueError("resampling length must be positive")
    verts = path.vertices
    if len(verts) < 2:
        return path
    xyz = verts[:, :3].tolist()
    # pieces per segment; math.dist is the length the split rule was
    # written against, and a segment of length <= w keeps one piece
    seg = np.fromiter(map(math.dist, xyz, xyz[1:]), np.float64, len(xyz) - 1)
    pieces = np.maximum(np.ceil(seg / w), 1.0).astype(np.int64)
    if (pieces == 1).all():
        return path
    # piece k of a segment prev -> cur ends at t = k / n, the last at cur
    of = np.repeat(np.arange(len(pieces)), pieces)
    n = pieces[of]
    k = np.arange(len(of)) - np.repeat(np.cumsum(pieces) - pieces, pieces) + 1
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

def displace_layer(paths, index, profile, s=None, stats=None,
                   refine_boundaries=True):
    """Snap top-facing vertices onto the surface within the displacement
    window. Vertices with no hit, a bottom-facing hit, or an out-of-window
    offset stay untouched (and are counted in the stats report).

    The displacement field is discontinuous where the surface offset
    leaves the window; segments straddling that boundary get an extra
    vertex at the (linearly estimated) crossing so the displaced band
    reaches the window edge instead of sagging over a whole segment.
    """
    window = DisplacementWindow.for_profile(profile, s)
    if stats is None:
        stats = DisplacementStats()
    if not paths:
        return paths, stats

    # the layer's vertices as one new array: the paths' old arrays, which
    # the caller may keep, are never written
    verts = np.concatenate([path.vertices for path in paths])
    ends = np.cumsum([len(path) for path in paths])
    cast = _cast(index, verts)
    if refine_boundaries:
        verts, ends, cast = _refine_window_boundaries(verts, ends, index,
                                                      window, cast)
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
    hist = {}
    shifts = d[moved].tolist()
    for dv in shifts:
        bucket = round(dv, 2)
        hist[bucket] = hist.get(bucket, 0) + 1
    if shifts:
        stats.displaced += len(shifts)
        stats.min_delta = min(stats.min_delta, min(shifts))
        stats.max_delta = max(stats.max_delta, max(shifts))
    stats.per_layer_histogram[paths[0].layer_index] = hist

    for path, rows, path_moved in zip(paths, np.split(verts, ends[:-1]),
                                      np.split(moved, ends[:-1])):
        path.vertices = rows
        if path_moved.any():
            path.modified = True
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
    if z <= 0:
        raise ThicknessError(f"non-positive base thickness {z}")
    if np.any(z + delta <= 0):
        raise ThicknessError(f"displaced thickness {np.min(z + delta)} <= 0")
    return e * (z + delta) / z


def adjust_feedrate(delta1, delta2, h, f_ini, f_min):
    """Linear slowdown with the height change across a segment, clamped
    to [f_min, f_ini]. Elementwise on arrays of deltas."""
    if h <= 0:
        raise ValueError("layer thickness must be positive")
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
        ex, ey = b[0] - a[0], b[1] - a[1]
        inputs = output
        output = []
        prev = inputs[-1]
        prev_in = ex * (prev[1] - a[1]) - ey * (prev[0] - a[0]) >= -1e-12
        for cur in inputs:
            cur_in = ex * (cur[1] - a[1]) - ey * (cur[0] - a[0]) >= -1e-12
            if cur_in:
                if not prev_in:
                    output.append(_intersect(prev, cur, a, b))
                output.append(cur)
            elif prev_in:
                output.append(_intersect(prev, cur, a, b))
            prev, prev_in = cur, cur_in
    return output


def _intersect(p, q, a, b):
    x1, y1 = p
    x2, y2 = q
    x3, y3 = a
    x4, y4 = b
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if abs(den) < 1e-30:
        return q
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def _polygon_centroid(poly):
    cx = sum(p[0] for p in poly) / len(poly)
    cy = sum(p[1] for p in poly) / len(poly)
    return cx, cy


def _padded_boxes(a, b, pad):
    """(lo, hi) XY boxes of the segments a -> b, grown by pad on every side."""
    ends = np.stack([a[:, :2], b[:, :2]], axis=1)
    return ends.min(axis=1) - pad, ends.max(axis=1) + pad


def detect_overlaps(program, profile):
    """Find raised lower tracks intersecting the track above.

    The upper track's bottom is the lower layer's flat top (base_z), so
    the penetration is the lower track's positive displacement, sampled
    at the centroid of the XY intersection of the two swept rectangles.
    Does not touch extrusion. Returns (records, report); the records come
    sorted by (upper, lower), as the grid's pairs do.
    """
    half = profile.d / 2.0
    records = []
    layers = [layer.toolpaths() for layer in program.layers]
    for li in range(len(layers) - 1):
        lpath, lrow, la, lb = deposition_segments(layers[li])
        raised = np.flatnonzero((la[:, DELTA] > 0) | (lb[:, DELTA] > 0))
        if not raised.size:
            continue
        upath, urow, ua, ub = deposition_segments(layers[li + 1])
        if not urow.size:
            continue
        la, lb = la[raised], lb[raised]
        llo, lhi = _padded_boxes(la, lb, half)
        ulo, uhi = _padded_boxes(ua, ub, half)
        grid = BoxGrid(llo, lhi, cell=max(profile.d, profile.w))
        upper_bottom = program.layers[li].base_z
        uq, lq = grid.pairs(ulo, uhi)
        # only boxes that meet can clip to an area; the margin keeps every
        # pair within the clip's own 1e-12 tolerance
        meet = ((ulo[uq] - 1e-9 <= lhi[lq] + 1e-9)
                & (llo[lq] - 1e-9 <= uhi[uq] + 1e-9)).all(axis=1)
        uq, lq = uq[meet], lq[meet]
        lrefs = [(li, p, k) for p, k in zip(lpath[raised].tolist(),
                                            lrow[raised].tolist())]
        urefs = [(li + 1, p, k) for p, k in zip(upath.tolist(), urow.tolist())]
        la, lb, ua, ub = la.tolist(), lb.tolist(), ua.tolist(), ub.tolist()
        for u, k in zip(uq.tolist(), lq.tolist()):
            poly = _clip_polygon(_segment_rect(la[k], lb[k], half),
                                 _segment_rect(ua[u], ub[u], half))
            if len(poly) < 3:
                continue
            area = abs(signed_area(poly))
            if area <= 1e-12:
                continue
            cx, cy = _polygon_centroid(poly)
            pen = _penetration_at(la[k], lb[k], cx, cy, upper_bottom)
            if pen <= 0:
                continue
            records.append(OverlapRecord(lower=lrefs[k], upper=urefs[u],
                                         volume=area * pen))
    return records, {"overlap_records": len(records),
                     "overlap_volume_mm3": sum(r.volume for r in records)}


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


def reduce_overlap_flow(program, profile):
    """Apply detect_overlaps and subtract each intersection volume from
    the upper segment's extrusion (converted to filament length), never
    reducing e below zero. Returns (records, report)."""
    records, report = detect_overlaps(program, profile)
    layers = [layer.toolpaths() for layer in program.layers]
    clamped = 0
    for rec in records:
        li, pi, si = rec.upper
        verts = layers[li][pi].vertices
        e = float(verts[si, E])
        de = rec.volume / profile.filament_area
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

    Each s is evaluated on scratch copies of the program's toolpaths as
    parsed, which are resampled and then displaced; the input is never
    mutated.
    """
    rows = []
    for s in s_values:
        if not (0 <= s <= profile.h):
            raise ValueError(f"s={s} outside [0, {profile.h}]")
        scratch = PrintProgram(layers=[
            Layer(layer.base_z, [
                replace(path, vertices=path.vertices.copy())
                for path in layer.toolpaths()])
            for layer in program.layers])
        stats = DisplacementStats()
        for layer in scratch.layers:
            paths = layer.toolpaths()
            for path in paths:
                resample_path(path, profile.w)
            displace_layer(paths, index, profile, s=s, stats=stats)
        _, report = detect_overlaps(scratch, profile)
        rows.append((s, report["overlap_volume_mm3"]))
    return rows
