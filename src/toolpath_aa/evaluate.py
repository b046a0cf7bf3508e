"""Quantitative evaluation: surface error maps against the input mesh,
constant-feedrate print time estimates, and the critical surface angle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .gcode import (DELTA, VERTEX_COLUMNS, F, Move, Toolpath, X, Y, Z,
                    deposition_segments, fold_sum)
from .geometry import BoxGrid, _triangle_areas, ragged

VIS_CLAMP = 0.3   # mm, error map colour scale end
EXPORT_BLOCK = 4096   # rows formatted per template in the error map exports
GRID_CELL = 0.6       # mm, cell of the error map's track grid
CHUNK = 1024          # samples per nearest-track pass
BLOCK = 4096          # sample-track pairs per distance evaluation


class EvaluationError(Exception):
    pass


def critical_angle(h, w):
    """Steepest surface slope (radians) the anti-aliasing can still track
    with track spacing w and layer thickness h: arctan(h / w)."""
    if h <= 0 or w <= 0:
        raise ValueError("h and w must be positive")
    return math.atan2(h, w)


# ---------------------------------------------------------------------------
# Print time

def estimate_print_time(program):
    """Constant-feedrate kinematics: move length / feedrate over deposition,
    travel and retraction moves, added left to right. As in Marlin, a
    move's length is its XYZ length, or its |E| when it moves nowhere. No
    acceleration model, so estimates skew slightly fast on short segments.
    The paths' segment terms come from one array pass, by a single move's
    operations."""
    events = [ev for ev in program.events()
              if isinstance(ev, (Toolpath, Move))]
    paths = [ev.vertices for ev in events if isinstance(ev, Toolpath)]
    rows = np.concatenate(paths + [np.empty((0, VERTEX_COLUMNS))])
    inner = np.ones(len(rows), dtype=bool)      # rows after a path's first
    inner[np.cumsum([0] + [len(v) for v in paths])[:-1]] = False
    feeds = rows[inner, F]
    if not feeds.all():
        raise EvaluationError("move with zero or unset feedrate")
    dx, dy, dz = np.diff(rows[:, :3], axis=0)[inner[1:]].T
    segments = iter((np.sqrt(dx * dx + dy * dy + dz * dz) / feeds).tolist())
    terms = []
    pos = (None, None, None)
    modal_f = None
    for ev in events:
        if isinstance(ev, Toolpath):
            target, f = ev.vertices[0, :3].tolist(), None
        else:
            target, f = (ev.x, ev.y, ev.z), ev.f
        dx, dy, dz = (0.0 if a is None or b is None else a - b
                      for a, b in zip(target, pos))
        pos = tuple(b if a is None else a for a, b in zip(target, pos))
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        if not length and isinstance(ev, Move) and ev.e:
            length = abs(ev.e)      # a retraction or prime in place
        if f is not None:
            modal_f = f
        if length > 0:
            if not modal_f:
                raise EvaluationError("move with zero or unset feedrate")
            terms.append(length / modal_f)
        if isinstance(ev, Toolpath) and len(ev.vertices) > 1:
            terms.extend(islice(segments, len(ev.vertices) - 1))
            pos = tuple(ev.vertices[-1, :3].tolist())
            modal_f = float(ev.vertices[-1, F])
    return fold_sum(terms)


# ---------------------------------------------------------------------------
# Printed track model
#
# Tracks are one (n, 9) float array, a row per deposition segment: x1, y1,
# x2, y2, top1, top2, bot1, bot2, width. A track is a box with vertical
# sides, width wide, swept along the segment; its top and bottom
# interpolate linearly between the endpoints.

def tracks_from_program(program, profile):
    """Track rows of every deposition segment. Bottoms are the undisplaced
    flat tops minus the layer thickness (displacement never moves track
    bottoms)."""
    _, _, a, b = deposition_segments(list(program.all_toolpaths()))
    top1, top2 = a[:, Z], b[:, Z]
    bot1 = (top1 - a[:, DELTA]) - profile.h
    bot2 = (top2 - b[:, DELTA]) - profile.h
    return np.column_stack([a[:, X], a[:, Y], b[:, X], b[:, Y], top1, top2,
                            bot1, bot2, np.full(len(a), profile.d)])


class _TrackGrid:
    """Tracks binned in a `BoxGrid` of GRID_CELL cells by their XY box padded
    by a track width, with the per-track terms of the point-to-box distance
    held as arrays. The scalar reference, `track_distance` in
    tests/test_evaluate.py, takes one track row and the same operations in
    the same order."""

    def __init__(self, tracks):
        self.x1, self.y1, x2, y2, self.top1, top2, self.bot1, bot2, width = tracks.T
        # np.hypot can differ from math.hypot in the last bit
        self.length = np.fromiter(
            map(math.hypot, (x2 - self.x1).tolist(), (y2 - self.y1).tolist()),
            np.float64, len(tracks))
        self.degenerate = self.length < 1e-12
        self.along = self.length > 1e-12
        safe = np.where(self.degenerate, 1.0, self.length)
        self.ux = np.where(self.degenerate, 1.0, (x2 - self.x1) / safe)
        self.uy = np.where(self.degenerate, 0.0, (y2 - self.y1) / safe)
        self.half = width / 2.0
        self.dtop = top2 - self.top1
        self.dbot = bot2 - self.bot1
        # a track's footprint lies at least half its width inside the box
        # it is binned by
        self.inset = float(self.half.min())
        pad = width[:, None]
        self.grid = BoxGrid(np.minimum(tracks[:, 0:2], tracks[:, 2:4]) - pad,
                            np.maximum(tracks[:, 0:2], tracks[:, 2:4]) + pad,
                            GRID_CELL)

    def nearest_distances(self, points):
        """Distance from each point to its nearest track. Each pass pairs
        every undecided point with the tracks binned in the ring of cells
        one step further out around its cell, a chunk of points at a time;
        a point is decided once no unseen track can be closer. Cells count
        from the grid's origin."""
        px, py, pz = points.T
        best = np.full(len(points), math.inf)
        g = self.grid
        x0, y0 = g.xy_min
        cx = np.floor((px - x0) / GRID_CELL).astype(np.int64)
        cy = np.floor((py - y0) / GRID_CELL).astype(np.int64)
        max_ring = np.max([cx, g.nx - 1 - cx, cy, g.ny - 1 - cy], axis=0)
        # a track binned in no cell of rings 0..r has its box farther than
        # the point's own cell border plus r cells, and its footprint a
        # further inset away
        bx, by = x0 + cx * GRID_CELL, y0 + cy * GRID_CELL
        border = np.maximum(np.min([px - bx, bx + GRID_CELL - px,
                                    py - by, by + GRID_CELL - py], axis=0), 0.0)
        todo = np.arange(len(points))
        ring = 0
        while todo.size:
            dx, dy = _ring_offsets(ring)
            for a in range(0, todo.size, CHUNK):
                chunk = todo[a:a + CHUNK]
                ix = (cx[chunk, None] + dx).ravel()
                iy = (cy[chunk, None] + dy).ravel()
                inside = (ix >= 0) & (ix < g.nx) & (iy >= 0) & (iy < g.ny)
                count, track = g.cell_items((ix * g.ny + iy)[inside])
                # (point, track) pairs, point-major
                point = np.repeat(np.repeat(chunk, len(dx))[inside], count)
                if not point.size:
                    continue
                d = np.empty(point.size)
                for b in range(0, point.size, BLOCK):
                    p = point[b:b + BLOCK]
                    d[b:b + BLOCK] = self._distances(px[p], py[p], pz[p],
                                                     track[b:b + BLOCK])
                first = np.flatnonzero(np.diff(point, prepend=-1))
                seen = point[first]
                best[seen] = np.minimum(best[seen], np.minimum.reduceat(d, first))
            done = ((best[todo] <= border[todo] + (ring * GRID_CELL + self.inset))
                    | (max_ring[todo] <= ring))
            todo = todo[~done]
            ring += 1
        return best

    def _distances(self, px, py, pz, k):
        """Distance from each point to the box of track k (0 inside), pair
        by pair."""
        x1, y1, ux, uy = self.x1[k], self.y1[k], self.ux[k], self.uy[k]
        length, along, half = self.length[k], self.along[k], self.half[k]
        rx = px - x1
        ry = py - y1
        s = np.where(self.degenerate[k], 0.0, rx * ux + ry * uy)
        s_star = np.minimum(np.maximum(s, 0.0), length)
        t = rx * (-uy) + ry * ux
        t_star = np.minimum(np.maximum(t, -half), half)
        frac = np.where(along, s_star / np.where(along, length, 1.0), 0.0)
        top = self.top1[k] + self.dtop[k] * frac
        bot = self.bot1[k] + self.dbot[k] * frac
        dz = pz - np.minimum(np.maximum(pz, bot), top)
        dx = px - (x1 + ux * s_star + (-uy) * t_star)
        dy = py - (y1 + uy * s_star + ux * t_star)
        return np.sqrt(dx * dx + dy * dy + dz * dz)


def _ring_offsets(ring):
    """(dx, dy) offsets of the 8 * ring cells (1 for ring 0) at Chebyshev
    distance `ring`, walking round the square's four sides."""
    if ring == 0:
        return np.zeros(1, np.int64), np.zeros(1, np.int64)
    side = np.arange(-ring, ring)
    edge = np.full(2 * ring, ring)
    return (np.concatenate([side, edge, -side, -edge]),
            np.concatenate([-edge, side, edge, -side]))


@dataclass
class ErrorMap:
    points: np.ndarray            # (n, 3) sample points on the mesh
    normals: np.ndarray           # (n, 3) triangle normal per sample
    distances: np.ndarray         # (n,) unclamped distance to nearest track
    samples_per_mm2: float
    seed: int
    clamp: float = VIS_CLAMP

    def summary(self):
        d = self.distances
        p50, p95, p99 = _percentiles(d, (50, 95, 99))
        return {
            "samples": int(len(d)),
            "mean_mm": float(d.mean()),
            "max_mm": float(d.max()),
            "p50_mm": p50,
            "p95_mm": p95,
            "p99_mm": p99,
            "samples_per_mm2": self.samples_per_mm2,
            "seed": self.seed,
            "clamp_mm": self.clamp,
        }

    def write_csv(self, f):
        f.write("x,y,z,distance_mm\n")
        _write_rows(f, "%.5f,%.5f,%.5f,%.6f\n", self.points, self.distances)

    def write_ply(self, f):
        """Point cloud with a linear blue (0.0) to red (0.3 mm) ramp."""
        t = np.clip(self.distances / self.clamp, 0.0, 1.0)
        red = (t * 255).astype(np.uint8)
        blue = ((1.0 - t) * 255).astype(np.uint8)
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"comment colormap linear blue->red over 0.0..{self.clamp} mm\n")
        f.write(f"comment seed {self.seed} density {self.samples_per_mm2}\n")
        f.write(f"element vertex {len(self.points)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        f.write("end_header\n")
        _write_rows(f, "%.5f %.5f %.5f %d 0 %d\n", self.points, red, blue)


def _percentiles(values, percents):
    """`np.percentile(values, q)` for each q, by numpy's default linear
    rule on one partition: index v = (n - 1) q, then a + (b - a) t, or
    b - (b - a) (1 - t) when t >= 0.5, between the values a and b at
    floor(v) and the next index. np.percentile itself imports numpy.ma."""
    n = len(values)
    at = [(n - 1) * (q / 100) for q in percents]
    lo = [min(math.floor(v), n - 1) for v in at]
    hi = [min(i + 1, n - 1) for i in lo]
    part = np.partition(values, sorted(set(lo + hi)))
    out = []
    for v, i, j in zip(at, lo, hi):
        a, b, t = float(part[i]), float(part[j]), v - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def _write_rows(f, row_format, *columns):
    """Write one `row_format` line per row of the columns side by side,
    formatting each block of EXPORT_BLOCK rows with one %-template. The
    block is stacked as floats; `%d` prints a whole one as an integer."""
    for a in range(0, len(columns[0]), EXPORT_BLOCK):
        block = np.column_stack([c[a:a + EXPORT_BLOCK] for c in columns])
        f.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def sample_mesh_surface(mesh, samples_per_mm2=50.0, seed=0):
    """Stratified per-triangle area sampling; returns (points, normals).

    Triangle i with n_i samples takes the next 2 * n_i values of one
    random stream: n_i for r1, then n_i for r2.
    """
    rng = np.random.default_rng(seed)
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    areas = _triangle_areas(mesh.vertices, mesh.triangles)
    counts = np.maximum(1, np.round(areas * samples_per_mm2)).astype(int)
    tri, k = ragged(counts)
    before = np.cumsum(counts) - counts       # samples of earlier triangles
    # triangle i's draws start at 2 * before[i]: its sample k takes r1 from
    # 2 * before[i] + k, and r2 n_i further on
    r1_at = 2 * before[tri] + k
    draws = rng.random(2 * int(counts.sum()))
    r1 = draws[r1_at]
    r2 = draws[r1_at + counts[tri]]
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    pts = a[tri] + r1[:, None] * (b - a)[tri] + r2[:, None] * (c - a)[tri]
    return pts, mesh.normals[tri]


def error_map(mesh, tracks, samples_per_mm2=50.0, seed=0):
    """Distance from surface samples to the nearest printed track."""
    if not len(tracks):
        raise EvaluationError("no printed tracks to evaluate")
    points, normals = sample_mesh_surface(mesh, samples_per_mm2, seed)
    dists = _TrackGrid(tracks).nearest_distances(points)
    return ErrorMap(points=points, normals=normals, distances=dists,
                    samples_per_mm2=samples_per_mm2, seed=seed)
