"""Seeded benchmark inputs: flat-sliced G-code and binary STL for each part.

Written from scratch so that no change to the package under test can change
the inputs. Seed 0 reproduces the package's shipped wedge and dome fixtures
byte for byte (G-code text and binary STL); other seeds shift each part
rigidly by an XY offset in [0, w), and the bulk part also gets seeded bump
heights and positions. The slicer matches the package fixture slicer: rows on
a global w-grid, contours at the slicing plane, serpentine order, absolute E.

Every part carries its analytic heightfield `surface(x, y)` in printer
coordinates, which the output checker uses as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# printer profile the benchmark runs with: the CLI defaults
W = 0.8            # nozzle diameter / track width, mm
H = 0.6            # layer thickness, mm
S = H / 2.0        # slicing plane offset, mm
F_INI = 20.0       # deposition speed, mm/s
TRAVEL_F = 120.0   # travel speed, mm/s
FILAMENT_AREA = math.pi * (2.85 / 2.0) ** 2
SCAN_STEP = 0.02   # mm, contour sampling step along a row
STL_HEADER = b"toolpath-aa"


@dataclass
class Part:
    gcode: str
    stl: bytes
    surface: object        # f(x, y) -> top z, numpy-vectorised, printer coords
    max_slope: float       # bound on |grad surface| over the top surface
    triangles: int


# ---------------------------------------------------------------------------
# heightfields (part-local coordinates; -1 outside the footprint)

# the shipped fixtures: a 20x10 mm wedge rising at 10 degrees along x, and a
# spherical cap (radius 12, 3 mm tall) over a 16 mm square
WEDGE_BASE, WEDGE_DEPTH, WEDGE_SLOPE = 20.0, 10.0, math.tan(math.radians(10.0))
DOME_RADIUS, DOME_CAP, DOME_HALF = 12.0, 3.0, 8.0


def wedge_height(x, y):
    out = (x < 0) | (x > WEDGE_BASE) | (y < 0) | (y > WEDGE_DEPTH)
    return np.where(out, -1.0, x * WEDGE_SLOPE)


def _cap(x, y, radius, cap_height):
    r2 = x * x + y * y
    inside = r2 < radius * radius
    z = np.sqrt(np.where(inside, radius * radius - r2, 0.0)) - (radius - cap_height)
    return np.where(inside, np.maximum(0.0, z), 0.0)


def dome_height(x, y):
    out = (np.abs(x) > DOME_HALF) | (np.abs(y) > DOME_HALF)
    return np.where(out, -1.0, _cap(x, y, DOME_RADIUS, DOME_CAP))


# steepest slope of the dome: the cap's rim
DOME_SLOPE = (math.sqrt(DOME_RADIUS ** 2 - (DOME_RADIUS - DOME_CAP) ** 2)
              / (DOME_RADIUS - DOME_CAP))


# bulk part: a spherical cap of base radius CAP_BASE and height CAP_H on a
# square plinth PLINTH_H tall, plus BUMPS separate compact bumps on the
# plinth top around the cap. Bumps stay lower than S, so they move surface
# points of the plinth's top layer but never add slice contours: the sliced
# paths, and so the input size, are the same for every seed.
BULK_EXTENT = 60.0
PLINTH_H = 4.8
CAP_BASE = 28.0
CAP_H = 3.6
BUMPS = 4
BUMP_RADIUS = 5.0
BUMP_MAX = 0.28


def bulk_height(rng):
    half = BULK_EXTENT / 2.0
    radius = (CAP_BASE ** 2 + CAP_H ** 2) / (2.0 * CAP_H)
    bumps = []
    while len(bumps) < BUMPS:
        bx, by = rng.uniform(-half, half, 2)
        if (math.hypot(bx, by) >= CAP_BASE + BUMP_RADIUS
                and all(math.hypot(bx - cx, by - cy) >= 2 * BUMP_RADIUS
                        for cx, cy, _ in bumps)):
            bumps.append((bx, by, rng.uniform(0.1, BUMP_MAX)))

    def zf(x, y):
        out = (np.abs(x) > half) | (np.abs(y) > half)
        z = PLINTH_H + _cap(x, y, radius, CAP_H)
        for bx, by, amp in bumps:
            q = ((x - bx) ** 2 + (y - by) ** 2) / BUMP_RADIUS ** 2
            z = z + np.where(q < 1.0, amp * (1.0 - q) ** 2, 0.0)
        return np.where(out, -1.0, z)
    # steeper of the cap rim and a bump flank (8 / (3 sqrt 3) amp / radius)
    slope = max(CAP_BASE / (radius - CAP_H), 1.54 * BUMP_MAX / BUMP_RADIUS)
    return zf, slope


# ---------------------------------------------------------------------------
# meshes: (vertices, triangles) in part-local coordinates

def wedge_mesh():
    base, depth = WEDGE_BASE, WEDGE_DEPTH
    top = base * WEDGE_SLOPE
    v = np.array([(0, 0, 0), (base, 0, 0), (base, 0, top),
                  (0, depth, 0), (base, depth, 0), (base, depth, top)], dtype=float)
    t = [(0, 2, 5), (0, 5, 3), (0, 3, 4), (0, 4, 1), (1, 4, 5), (1, 5, 2),
         (0, 1, 2), (3, 5, 4)]
    return v, np.array(t, dtype=np.int64)


def grid_solid(zf, half, n, walls):
    """Closed heightfield solid over [-half, half]^2: an (n+1)^2 top grid,
    optional vertical side walls down to z = 0, and a two-triangle base."""
    xs = np.linspace(-half, half, n + 1)
    gx, gy = np.meshgrid(xs, xs)                  # row j = y, column i = x
    top = np.stack([gx.ravel(), gy.ravel(), zf(gx, gy).ravel()], axis=1)
    nb = len(top)
    corners = np.array([(-half, -half, 0), (half, -half, 0), (half, half, 0),
                        (-half, half, 0)], dtype=float)
    idx = np.arange(nb).reshape(n + 1, n + 1)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, 1:].ravel(), idx[1:, :-1].ravel()
    quads = np.stack([np.stack([a, b, c], 1), np.stack([a, c, d], 1)], 1)
    tris = [quads.reshape(-1, 3)]
    verts = [top, corners]
    if walls:
        bottom = top.copy()
        bottom[:, 2] = 0.0
        verts.append(bottom)
        off = nb + 4
        # boundary loop, counter-clockwise seen from above
        ring = np.concatenate([idx[0, :-1], idx[:-1, -1], idx[-1, :0:-1], idx[:0:-1, 0]])
        p, q = ring, np.roll(ring, -1)
        tris.append(np.stack([p, p + off, q + off], 1))
        tris.append(np.stack([p, q + off, q], 1))
    tris.append(np.array([(nb, nb + 2, nb + 1), (nb, nb + 3, nb + 2)]))
    return np.concatenate(verts), np.concatenate(tris).astype(np.int64)


def stl_binary(vertices, triangles):
    """Binary STL with per-facet unit normals from the right-hand winding."""
    tri = vertices[triangles]
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    lens = np.linalg.norm(n, axis=1)
    lens[lens == 0] = 1.0
    rec = np.zeros(len(tri), dtype=[("n", "<f4", 3), ("v", "<f4", 9), ("a", "<u2")])
    rec["n"] = n / lens[:, None]
    rec["v"] = tri.reshape(-1, 9)
    return (STL_HEADER.ljust(80, b"\0") + np.uint32(len(tri)).astype("<u4").tobytes()
            + rec.tobytes())


# ---------------------------------------------------------------------------
# flat slicer

def _grid_rows(lo, hi):
    """Global w-grid row positions and covered widths within [lo, hi]."""
    rows = []
    c = (math.floor(lo / W) + 0.5) * W
    while c < hi + W / 2.0 - 1e-9:
        clo, chi = max(c - W / 2.0, lo), min(c + W / 2.0, hi)
        if chi - clo > 1e-6:
            rows.append((min(max(c, lo + 1e-6), hi - 1e-6), chi - clo))
        c += W
    return rows


def _spans(inside, ts):
    """Maximal runs of `inside` as (first t, last t) pairs."""
    edges = np.diff(np.concatenate(([0], inside.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return [(ts[a], ts[b]) for a, b in zip(starts, ends) if ts[b] - ts[a] > 1e-9]


def slice_heightfield(zf, bounds, name, cross_hatch=False, shift=(0.0, 0.0)):
    """Serpentine flat slicing of a heightfield solid; coordinates are
    written shifted by `shift`."""
    (x0, x1), (y0, y1) = bounds
    dx, dy = shift
    lines = [f"; {name} flat-sliced for anti-aliasing fixtures",
             f"; layer thickness {H} slicing plane offset {S}",
             "G90", "M82", "G92 E0"]
    e_accum = 0.0
    feed_word = None

    def move(cmd, x, y, z=None, e=None, f=None):
        nonlocal feed_word
        parts = [cmd, f"X{x + dx if dx else x:.5f}", f"Y{y + dy if dy else y:.5f}"]
        if z is not None:
            parts.append(f"Z{z:.5f}")
        if e is not None:
            parts.append(f"E{e:.5f}")
        word = f"F{f * 60:.1f}"
        if word != feed_word:
            parts.append(word)
            feed_word = word
        return " ".join(parts)

    layer = 0
    while True:
        z_plane = layer * H + S
        z_top = (layer + 1) * H
        along_y = cross_hatch and layer % 2 == 1
        first = True
        direction = 1
        for cc, wid in _grid_rows(x0, x1) if along_y else _grid_rows(y0, y1):
            lo, hi = (y0, y1) if along_y else (x0, x1)
            ts = np.arange(lo, hi + SCAN_STEP, SCAN_STEP)
            zs = zf(cc, ts) if along_y else zf(ts, cc)
            spans = _spans(zs >= z_plane, ts)
            for a, b in spans:
                if first:
                    lines += [f";LAYER:{layer}", ";TYPE:FILL"]
                    first = False
                pts = list(np.linspace(a, b, max(2, math.ceil((b - a) / W) + 1)))
                if direction < 0:
                    pts = pts[::-1]
                xy = (lambda t: (cc, t)) if along_y else (lambda t: (t, cc))
                lines.append(move("G0", *xy(pts[0]), z=z_top, f=TRAVEL_F))
                prev = pts[0]
                for t in pts[1:]:
                    e_accum += abs(t - prev) * wid * H / FILAMENT_AREA
                    lines.append(move("G1", *xy(t), e=e_accum, f=F_INI))
                    prev = t
            if spans:
                direction *= -1
        if first:
            break
        layer += 1
    lines.append("; end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the benchmark's parts

def _shift_surface(zf, dx, dy):
    return lambda x, y: zf(np.asarray(x) - dx, np.asarray(y) - dy)


def _part(name, zf, slope, bounds, verts, tris, shift, cross_hatch=False):
    dx, dy = shift
    gcode = slice_heightfield(zf, bounds, name, cross_hatch, shift)
    moved = verts + np.array([dx, dy, 0.0]) if (dx or dy) else verts
    return Part(gcode=gcode, stl=stl_binary(moved, tris),
                surface=_shift_surface(zf, dx, dy), max_slope=slope,
                triangles=len(tris))


def offset(seed):
    """Seeded XY shift in [0, w); seed 0 leaves the part in place."""
    if seed == 0:
        return (0.0, 0.0)
    return tuple(np.random.default_rng([seed, 1]).uniform(0.0, W, 2))


def wedge(shift, cross_hatch=False):
    v, t = wedge_mesh()
    return _part("wedge", wedge_height, WEDGE_SLOPE, ((0.0, WEDGE_BASE), (0.0, WEDGE_DEPTH)),
                 v, t, shift, cross_hatch)


def dome(shift):
    v, t = grid_solid(dome_height, DOME_HALF, 40, walls=False)
    return _part("dome", dome_height, DOME_SLOPE, ((-DOME_HALF, DOME_HALF),) * 2, v, t, shift)


def bulk(seed, shift):
    zf, slope = bulk_height(np.random.default_rng([seed, 2]))
    half = BULK_EXTENT / 2.0
    v, t = grid_solid(zf, half, 150, walls=True)
    return _part("bulk", zf, slope, ((-half, half), (-half, half)), v, t, shift)
