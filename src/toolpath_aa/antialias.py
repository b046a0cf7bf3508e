"""The core transformation: resampling, vertical displacement towards the
surface, extrusion/feedrate rescaling, and cross-layer overlap flow
compensation."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoxGrid, cast_vertical_batch
from .gcode import PathVertex

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
        return self.lo - WINDOW_EPS <= delta <= self.hi + WINDOW_EPS

    def clamp(self, delta):
        return min(max(delta, self.lo), self.hi)


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
    out = [verts[0]]
    for prev, cur in zip(verts, verts[1:]):
        seg = math.dist(prev.xyz(), cur.xyz())
        if seg <= w or seg == 0.0:
            out.append(cur)
            continue
        n = math.ceil(seg / w)
        for k in range(1, n):
            t = k / n
            out.append(PathVertex(
                x=prev.x + (cur.x - prev.x) * t,
                y=prev.y + (cur.y - prev.y) * t,
                z=prev.z + (cur.z - prev.z) * t,
                e=cur.e / n,
                f=cur.f,
                delta=prev.delta + (cur.delta - prev.delta) * t,
            ))
        out.append(PathVertex(cur.x, cur.y, cur.z, cur.e / n, cur.f, cur.delta))
    path.vertices = out
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

    cand = _candidates(paths, index)
    if refine_boundaries:
        cand = _refine_window_boundaries(paths, index, window, cand)

    hist = {}
    for path, rows in zip(paths, cand):
        moved = False
        for v, (delta, top, hit) in zip(path.vertices, rows):
            stats.total += 1
            if not hit:
                stats.missed += 1
            elif not top:
                stats.skipped_bottom_facing += 1
            elif not window.contains(delta):
                stats.skipped_out_of_window += 1
            else:
                d = window.clamp(float(delta))
                if abs(d) > SNAP_EPS:
                    v.z += d
                    v.delta = d
                    moved = True
                    stats.displaced += 1
                    stats.min_delta = min(stats.min_delta, d)
                    stats.max_delta = max(stats.max_delta, d)
                    bucket = round(d, 2)
                    hist[bucket] = hist.get(bucket, 0) + 1
                else:
                    v.delta = 0.0
        if moved:
            path.modified = True
    if paths:
        key = paths[0].layer_index
        stats.per_layer_histogram[key] = hist
    return paths, stats


def _candidates(paths, index):
    """Per-path list of (delta, facing_top, hit) rows for every vertex."""
    all_verts = [v for path in paths for v in path.vertices]
    if not all_verts:
        return [[] for _ in paths]
    xs = np.fromiter((v.x for v in all_verts), dtype=np.float64)
    ys = np.fromiter((v.y for v in all_verts), dtype=np.float64)
    zs = np.fromiter((v.z for v in all_verts), dtype=np.float64)
    delta, facing_top, hit = cast_vertical_batch(index, xs, ys, zs)
    out = []
    i = 0
    for path in paths:
        n = len(path.vertices)
        out.append([(float(delta[k]), bool(facing_top[k]), bool(hit[k]))
                    for k in range(i, i + n)])
        i += n
    return out


def _refine_window_boundaries(paths, index, window, cand):
    """Insert a vertex where a segment's surface offset crosses the
    window boundary (one endpoint displaceable, the other out of window
    on the same top-facing surface). The new vertices of all paths are
    cast in one batch; each ray is cast on its own, so this gives the
    rows that one cast per vertex would."""
    inserts = []
    for pi, (path, rows) in enumerate(zip(paths, cand)):
        verts = path.vertices
        for k in range(len(verts) - 1):
            (d0, top0, hit0) = rows[k]
            (d1, top1, hit1) = rows[k + 1]
            if not (hit0 and hit1 and top0 and top1):
                continue
            in0 = window.contains(d0)
            in1 = window.contains(d1)
            if in0 == in1:
                continue
            lo, hi = window.lo, window.hi
            edge = hi if max(d0, d1) > hi else lo
            if abs(d1 - d0) < 1e-12:
                continue
            t = (edge - d0) / (d1 - d0)
            if not (1e-6 < t < 1.0 - 1e-6):
                continue
            a, b = verts[k], verts[k + 1]
            nv = PathVertex(
                x=a.x + (b.x - a.x) * t,
                y=a.y + (b.y - a.y) * t,
                z=a.z + (b.z - a.z) * t,
                e=b.e * t,
                f=b.f,
            )
            inserts.append((pi, k, t, nv))
    if not inserts:
        return cand
    new = [nv for _, _, _, nv in inserts]
    delta, top, hit = cast_vertical_batch(
        index, np.array([v.x for v in new]), np.array([v.y for v in new]),
        np.array([v.z for v in new]))
    # back to front, so that each path's earlier split points keep their k
    for i in range(len(inserts) - 1, -1, -1):
        pi, k, t, nv = inserts[i]
        verts = paths[pi].vertices
        # a new end vertex: the caller may keep the old one
        b = verts[k + 1]
        verts[k + 1] = PathVertex(b.x, b.y, b.z, b.e * (1.0 - t), b.f, b.delta)
        verts.insert(k + 1, nv)
        cand[pi].insert(k + 1, (float(delta[i]), bool(top[i]), bool(hit[i])))
    return cand


# ---------------------------------------------------------------------------
# Extrusion and feedrate rescaling

def adjust_extrusion(e, z, delta):
    """Filament length for a track whose thickness z changed by delta:
    e' = e * (z + delta) / z."""
    if z <= 0:
        raise ThicknessError(f"non-positive base thickness {z}")
    if z + delta <= 0:
        raise ThicknessError(f"displaced thickness {z + delta} <= 0")
    return e * (z + delta) / z


def adjust_feedrate(delta1, delta2, h, f_ini, f_min):
    """Linear slowdown with the height change across a segment, clamped
    to [f_min, f_ini]."""
    if h <= 0:
        raise ValueError("layer thickness must be positive")
    f = f_ini + abs(delta1 - delta2) / h * (f_min - f_ini)
    return min(max(f, f_min), f_ini)


def rescale_paths(paths, profile):
    """Apply per-segment extrusion and feedrate adjustment after
    displacement. The segment is scaled by its endpoint's delta (each G1
    word controls the segment it terminates); feedrate is only touched on
    segments whose displacement actually changes thickness."""
    for path in paths:
        if not path.modified:
            continue
        verts = path.vertices
        for prev, v in zip(verts, verts[1:]):
            if v.delta != 0.0:
                v.e = adjust_extrusion(v.e, profile.h, v.delta)
            if v.delta != prev.delta or v.delta != 0.0:
                v.f = adjust_feedrate(prev.delta, v.delta, profile.h,
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


def _signed_area(poly):
    """Shoelace area, positive for a counter-clockwise polygon."""
    area = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def _clip_polygon(subject, clip):
    """Sutherland-Hodgman clipping of a convex polygon by a convex polygon."""
    if _signed_area(clip) < 0:
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


def _segments_of(paths, layer_idx):
    """(ref, a, b) for every deposition segment a -> b."""
    segs = []
    for pi, path in enumerate(paths):
        verts = path.vertices
        for si in range(1, len(verts)):
            a, b = verts[si - 1], verts[si]
            if b.e <= 0:
                continue
            segs.append(((layer_idx, pi, si), a, b))
    return segs


def _padded_boxes(segs, pad):
    """(lo, hi) XY boxes of the segments, grown by pad on every side."""
    ends = np.array([(a.x, a.y, b.x, b.y) for _ref, a, b in segs])
    ends = ends.reshape(-1, 2, 2)
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
        lower_segs = [
            s for s in _segments_of(layers[li], li)
            if s[1].delta > 0 or s[2].delta > 0
        ]
        if not lower_segs:
            continue
        upper_segs = _segments_of(layers[li + 1], li + 1)
        if not upper_segs:
            continue
        grid = BoxGrid(*_padded_boxes(lower_segs, half),
                       cell=max(profile.d, profile.w))
        upper_bottom = program.layers[li].base_z
        uq, lq = grid.pairs(*_padded_boxes(upper_segs, half))
        for u, k in zip(uq.tolist(), lq.tolist()):
            uref, ua, ub = upper_segs[u]
            lref, la, lb = lower_segs[k]
            poly = _clip_polygon(_segment_rect(la.xy(), lb.xy(), half),
                                 _segment_rect(ua.xy(), ub.xy(), half))
            if len(poly) < 3:
                continue
            area = abs(_signed_area(poly))
            if area <= 1e-12:
                continue
            cx, cy = _polygon_centroid(poly)
            pen = _penetration_at(la, lb, cx, cy, upper_bottom)
            if pen <= 0:
                continue
            records.append(OverlapRecord(lower=lref, upper=uref,
                                         volume=area * pen))
    return records, {"overlap_records": len(records),
                     "overlap_volume_mm3": sum(r.volume for r in records)}


def _penetration_at(la, lb, cx, cy, upper_bottom):
    """Lower-track top above the upper track's bottom at (cx, cy)."""
    dx = lb.x - la.x
    dy = lb.y - la.y
    L2 = dx * dx + dy * dy
    if L2 < 1e-18:
        t = 0.0
    else:
        t = ((cx - la.x) * dx + (cy - la.y) * dy) / L2
        t = min(max(t, 0.0), 1.0)
    top = la.z + (lb.z - la.z) * t
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
        vertex = layers[li][pi].vertices[si]
        de = rec.volume / profile.filament_area
        if vertex.e - de < 0:
            de = vertex.e
            clamped += 1
        vertex.e -= de
    report = dict(report)
    report["upper_segments_clamped_to_zero"] = clamped
    return records, report


# ---------------------------------------------------------------------------
# Slicing plane sweep

def sweep_slicing_plane(program, index, profile, s_values):
    """Total overlap volume as a function of the slicing plane position.

    Each s is evaluated on a scratch copy of the program as parsed, which
    is resampled and then displaced; the input is never mutated.
    """
    rows = []
    for s in s_values:
        if not (0 <= s <= profile.h):
            raise ValueError(f"s={s} outside [0, {profile.h}]")
        scratch = copy.deepcopy(program)
        stats = DisplacementStats()
        for layer in scratch.layers:
            paths = layer.toolpaths()
            for path in paths:
                resample_path(path, profile.w)
            displace_layer(paths, index, profile, s=s, stats=stats)
        _, report = detect_overlaps(scratch, profile)
        rows.append((s, report["overlap_volume_mm3"]))
    return rows
