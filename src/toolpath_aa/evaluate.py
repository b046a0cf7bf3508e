"""Quantitative evaluation: surface error maps against the input mesh and
constant-feedrate print time estimates."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .fixedtext import fixed_point, table, text_rows
from .gcode import (DELTA, DEPOSIT, MOVE, E, F, X, Y, Z, deposition_segments,
                    fold_sum, forward_fill, motion_rows)
from .geometry import BoxGrid, first_minima, ragged, row_blocks

VIS_CLAMP = 0.3   # mm, error map colour scale end
SAMPLE_BLOCK = 8192   # error map samples drawn, measured and exported at once
GRID_CELL = 0.6       # mm, cell of the error map's track grid


class EvaluationError(Exception):
    pass


# ---------------------------------------------------------------------------
# Print time

def estimate_print_time(program):
    """Constant-feedrate kinematics over the rows of `gcode.motion_rows`,
    written or not: each row's length / the last F at or before it, added
    left to right. As in Marlin, a length is the XYZ step from the rows
    before (an axis unknown at either end counts 0), or a Move's |E| when
    it goes nowhere. Every path segment is timed, and a zero or unset
    feedrate raises. No acceleration model, so estimates skew slightly
    fast."""
    rows, kind, _, _, _ = motion_rows(program)
    first = np.arange(len(rows)) == 0
    dx, dy, dz = (np.nan_to_num(np.diff(forward_fill(c, first), prepend=np.nan))
                  for c in rows[:, :3].T)
    length = np.sqrt(dx * dx + dy * dy + dz * dz)
    idle = (kind == MOVE) & (length == 0)
    length[idle] = np.abs(np.nan_to_num(rows[idle, E]))
    timed = (kind == DEPOSIT) | (length > 0)
    feeds = forward_fill(rows[:, F], first)[timed]
    if np.isnan(feeds).any() or not feeds.all():
        raise EvaluationError("move with zero or unset feedrate")
    return fold_sum(length[timed] / feeds)


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
    held as arrays, and a summed-area table of the per-cell track counts.
    The scalar reference, `track_distance` in tests/test_evaluate.py, takes
    one track row and the same operations in the same order."""

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
        # binned[i, j] counts the tracks binned in the cells [0, i) x [0, j),
        # so a ring's pairs are counted without listing its cells, which only
        # the rows of a block do
        g = self.grid
        self.binned = np.zeros((g.nx + 1, g.ny + 1), np.int64)
        self.binned[1:, 1:] = (np.diff(g.offsets).reshape(g.nx, g.ny)
                               .cumsum(0).cumsum(1))

    def nearest_distances(self, points):
        """Distance from each point to its nearest track. Each pass pairs
        every undecided point with the tracks binned in the ring of cells
        one step further out around its cell, and keeps the nearest
        (`first_minima`); a point is decided once no unseen track can be
        closer. Cells count from the grid's origin. A point's distance does
        not depend on the other points of the call."""
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
        binned = self.binned
        todo = np.arange(len(points))
        ring = 0
        while todo.size:
            dx, dy = _ring_offsets(ring)
            count = (_square_pairs(binned, cx[todo], cy[todo], ring)
                     - _square_pairs(binned, cx[todo], cy[todo], ring - 1))

            def pair_values(rows):
                at = todo[rows]
                ix, iy = cx[at, None] + dx, cy[at, None] + dy
                inside = (ix >= 0) & (ix < g.nx) & (iy >= 0) & (iy < g.ny)
                _, track = g.cell_items((ix * g.ny + iy)[inside])
                p = np.repeat(at, count[rows])
                return (self._distances(px[p], py[p], pz[p], track),)

            hit, (d,) = first_minima(count, pair_values)
            seen = todo[hit]
            best[seen] = np.minimum(best[seen], d[hit])
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


def _square_pairs(binned, cx, cy, ring):
    """Tracks binned in the in-grid cells of rings 0..ring around the cells
    (cx, cy), none for ring -1; binned[i, j] sums the cells [0, i) x [0, j)."""
    nx, ny = binned.shape[0] - 1, binned.shape[1] - 1
    lx, ly = np.clip(cx - ring, 0, nx), np.clip(cy - ring, 0, ny)
    hx, hy = np.clip(cx + ring + 1, lx, nx), np.clip(cy + ring + 1, ly, ny)
    return binned[hx, hy] - binned[lx, hy] - binned[hx, ly] + binned[lx, ly]


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
            "clamp_mm": VIS_CLAMP,
        }

    def write_csv(self, f):
        f.write("x,y,z,distance_mm\n")
        _write_rows(f, len(self.points), lambda s: [
            *_coordinates(self.points[s], b","),
            fixed_point(self.distances[s], 6), b"\n"])

    def write_ply(self, f):
        """Point cloud with a linear blue (0.0) to red (0.3 mm) ramp."""
        colours = table([b"%d" % i for i in range(256)])

        def pieces(s):
            t = np.clip(self.distances[s] / VIS_CLAMP, 0.0, 1.0)
            return [*_coordinates(self.points[s], b" "),
                    colours[(t * 255).astype(np.uint8)], b" 0 ",
                    colours[((1.0 - t) * 255).astype(np.uint8)], b"\n"]

        f.write("ply\nformat ascii 1.0\n")
        f.write(f"comment colormap linear blue->red over 0.0..{VIS_CLAMP} mm\n")
        f.write(f"comment seed {self.seed} density {self.samples_per_mm2}\n")
        f.write(f"element vertex {len(self.points)}\n")
        f.write("property float x\nproperty float y\nproperty float z\n")
        f.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        f.write("end_header\n")
        _write_rows(f, len(self.points), pieces)


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


def _coordinates(points, separator):
    """The `text_rows` pieces of an (n, 3) array's x, y and z at 5
    decimals, each followed by `separator`."""
    return [piece for column in points.T
            for piece in (fixed_point(column, 5), separator)]


def _write_rows(f, n, pieces):
    """Write the text of n rows, SAMPLE_BLOCK rows at a time: pieces(s)
    gives the `text_rows` pieces of the rows in slice s."""
    for a in range(0, n, SAMPLE_BLOCK):
        f.write(text_rows(pieces(slice(a, a + SAMPLE_BLOCK))))


def sample_mesh_surface(mesh, samples_per_mm2=50.0, seed=0):
    """Stratified per-triangle area sampling; returns (points, normals).

    Triangle i with n_i samples takes the next 2 * n_i values of one
    random stream: n_i for r1, then n_i for r2.
    """
    points, normals, _ = _sample(mesh, samples_per_mm2, seed)
    return points, normals


def error_map(mesh, tracks, samples_per_mm2=50.0, seed=0):
    """Distance from surface samples to the nearest printed track."""
    if not len(tracks):
        raise EvaluationError("no printed tracks to evaluate")
    points, normals, dists = _sample(mesh, samples_per_mm2, seed,
                                     _TrackGrid(tracks).nearest_distances)
    return ErrorMap(points=points, normals=normals, distances=dists,
                    samples_per_mm2=samples_per_mm2, seed=seed)


def _sample(mesh, samples_per_mm2, seed, measure=None):
    """(points, normals, distances) of `sample_mesh_surface`'s samples, the
    distances by measure(points), or None without it. The outputs are
    allocated first, then filled and measured a block of at most
    SAMPLE_BLOCK samples at a time (`_fill`)."""
    counts = np.maximum(1, np.round(mesh.areas * samples_per_mm2)).astype(int)
    n = int(counts.sum())
    points, normals = np.empty((n, 3)), np.empty((n, 3))
    dists = None if measure is None else np.empty(n)
    for s in _fill(mesh, counts, np.random.default_rng(seed), points, normals):
        if measure is not None:
            dists[s] = measure(points[s])
    return points, normals, dists


def _fill(mesh, counts, rng, points, normals):
    """Write the samples into points and normals block by block, yielding
    each block's slice once it is written. Triangle i with n_i samples
    takes the next 2 * n_i values of rng, n_i for r1, then n_i for r2;
    successive calls continue the stream, so the blocks do not change the
    samples. A block of whole triangles (`row_blocks`) draws its values
    with one call. A triangle with more samples than a block is drawn a
    block at a time, r1 from rng and r2 from a copy of it advanced by n_i,
    which the blocks after it continue."""
    a = 0
    for t0, t1 in row_blocks(counts, SAMPLE_BLOCK):
        n = int(counts[t0:t1].sum())
        if n <= SAMPLE_BLOCK:
            s = slice(a, a + n)
            _place(mesh, t0, t1, *_block_draws(counts[t0:t1], rng),
                   points[s], normals[s])
            yield s
            a += n
            continue
        second = copy.deepcopy(rng)
        second.bit_generator.advance(n)
        for k in range(0, n, SAMPLE_BLOCK):
            m = min(SAMPLE_BLOCK, n - k)
            s = slice(a, a + m)
            _place(mesh, t0, t1, np.zeros(m, np.int64), rng.random(m),
                   second.random(m), points[s], normals[s])
            yield s
            a += m
        rng = second


def _block_draws(count, rng):
    """(triangle, r1, r2) over the samples of consecutive triangles holding
    count[i] samples each, from one call on rng: triangle i's values start
    at twice the samples of the triangles before it, its sample k takes r1
    from there + k, and r2 count[i] further on."""
    tri, k = ragged(count)
    r1_at = 2 * (np.cumsum(count) - count)[tri] + k
    draws = rng.random(2 * len(tri))
    return tri, draws[r1_at], draws[r1_at + count[tri]]


def _place(mesh, t0, t1, tri, r1, r2, points, normals):
    """Write the samples (r1, r2) of triangles t0 + tri, tri < t1 - t0,
    into points and normals."""
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    a, b, c = mesh.corners[t0:t1].transpose(1, 0, 2)
    points[:] = a[tri] + r1[:, None] * (b - a)[tri] + r2[:, None] * (c - a)[tri]
    normals[:] = mesh.normals[t0:t1][tri]
