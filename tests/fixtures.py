"""Deterministic synthetic fixtures: the wedge and dome meshes and their
flat-sliced G-code, from a heightfield slicer; a binary STL writer for
them; and the critical surface angle."""

from __future__ import annotations

import math
import struct

import numpy as np

from toolpath_aa.gcode import PrinterProfile
from toolpath_aa.geometry import build_mesh

DOME_GRID = 40        # dome mesh cells per side
TRAVEL_F = 120.0      # mm/s, the fixture slicer's travel feed
MAX_LAYERS = 200      # the fixture slicer's guard against a runaway height


# ---------------------------------------------------------------------------
# Meshes

def wedge_mesh(angle_deg=10.0, base=20.0, depth=10.0):
    """Right triangular prism: top plane z = x * tan(angle), knife edge at
    x = 0, vertical back face at x = base."""
    if angle_deg <= 0 or base <= 0 or depth <= 0:
        raise ValueError("wedge parameters must be positive")
    H = base * math.tan(math.radians(angle_deg))
    vertices = np.array([
        (0, 0, 0), (base, 0, 0), (base, 0, H),
        (0, depth, 0), (base, depth, 0), (base, depth, H),
    ], dtype=float)
    triangles = []

    def quad(a, b, c, d):
        triangles.append((a, b, c))
        triangles.append((a, c, d))

    quad(0, 2, 5, 3)                   # slope face
    quad(0, 3, 4, 1)                   # bottom z = 0
    quad(1, 4, 5, 2)                   # back face x = base
    triangles.append((0, 1, 2))        # side y = 0
    triangles.append((3, 5, 4))        # side y = depth
    return build_mesh(vertices[triangles])


def dome_height(radius, cap_height, extent):
    """The dome's heightfield z(x, y): a spherical cap of the given radius
    standing cap_height above z = 0, 0 outside it, and -1 (no solid)
    outside the square of side `extent` centred on the apex."""
    half = extent / 2.0
    base_z = radius - cap_height

    def zf(x, y):
        if abs(x) > half or abs(y) > half:
            return -1.0
        r2 = x * x + y * y
        if r2 >= radius * radius:
            return 0.0
        return max(0.0, math.sqrt(radius * radius - r2) - base_z)

    return zf


def dome_mesh(radius=12.0, cap_height=3.0, extent=16.0):
    """Spherical-cap heightfield on a square base, closed underneath.

    z(x, y) = max(0, sqrt(R^2 - r^2) - (R - cap_height)) over a square of
    side `extent` centred on the cap apex, on a DOME_GRID square grid.
    """
    if radius <= 0 or cap_height <= 0 or extent <= 0:
        raise ValueError("dome parameters must be positive")
    half = extent / 2.0
    zf = dome_height(radius, cap_height, extent)
    xs = ys = np.linspace(-half, half, DOME_GRID + 1)
    idx = {}
    verts = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            idx[(i, j)] = len(verts)
            verts.append((x, y, zf(x, y)))
    nb = len(verts)
    # four bottom corners for a coarse closed base
    corners = [(-half, -half, 0), (half, -half, 0), (half, half, 0),
               (-half, half, 0)]
    for c in corners:
        verts.append(c)
    triangles = []
    for j in range(DOME_GRID):
        for i in range(DOME_GRID):
            a = idx[(i, j)]
            b = idx[(i + 1, j)]
            c = idx[(i + 1, j + 1)]
            d = idx[(i, j + 1)]
            triangles.append((a, b, c))
            triangles.append((a, c, d))
    # base: two triangles (normal down); the grid boundary already sits at
    # z = 0 so the solid is closed up to the flat base plane
    triangles.append((nb, nb + 2, nb + 1))
    triangles.append((nb, nb + 3, nb + 2))
    return build_mesh(np.array(verts, dtype=float)[triangles])


# ---------------------------------------------------------------------------
# Heightfield flat slicer (generates realistic flat G-code for fixtures)

def _scan_intervals(zf, y, x0, x1, z_plane, step=0.02):
    """Maximal x-intervals where zf(x, y) >= z_plane."""
    xs = np.arange(x0, x1 + step, step)
    inside = np.array([zf(x, y) >= z_plane for x in xs])
    spans = []
    start = None
    for k, flag in enumerate(inside):
        if flag and start is None:
            start = xs[k]
        elif not flag and start is not None:
            spans.append((start, xs[k - 1]))
            start = None
    if start is not None:
        spans.append((start, xs[-1]))
    return [(a, b) for a, b in spans if b - a > 1e-9]


def slice_heightfield(zf, bounds, profile, cross_hatch=False, name="fixture"):
    """Flat-slice a heightfield solid into serpentine straight infill.

    Contours are taken at the slicing plane (base + s) of each layer, the
    standard mid-plane setup when s = h/2. Deposition z is the layer top;
    vertices are pre-spaced at most w apart; infill lines sit on a global
    grid. With cross_hatch the infill axis alternates 0/90 degrees per
    layer, the usual slicer pattern, which misaligns toolpaths across
    layers (and is what makes raised tracks overlap the layer above).
    Returns G-code text (absolute E, Marlin flavour).
    """
    (x0, x1), (y0, y1) = bounds
    h = profile.h
    s = profile.s
    w = profile.w
    lines = [
        f"; {name} flat-sliced for anti-aliasing fixtures",
        f"; layer thickness {h} slicing plane offset {s}",
        "G90",
        "M82",
        "G92 E0",
    ]
    e_accum = 0.0
    fil_area = profile.filament_area
    feed_word = None

    def emit_move(cmd, x=None, y=None, z=None, e=None, f=None):
        nonlocal feed_word
        parts = [cmd]
        if x is not None:
            parts.append(f"X{x:.5f}")
        if y is not None:
            parts.append(f"Y{y:.5f}")
        if z is not None:
            parts.append(f"Z{z:.5f}")
        if e is not None:
            parts.append(f"E{e:.5f}")
        if f is not None:
            word = f"F{f * 60:.1f}"
            if word != feed_word:
                parts.append(word)
                feed_word = word
        return " ".join(parts)

    def grid_lines(lo, hi):
        """Global w-grid line positions and covered widths within [lo, hi]."""
        rows = []
        k = math.floor(lo / w)
        c = (k + 0.5) * w
        while c < hi + w / 2.0 - 1e-9:
            clo = max(c - w / 2.0, lo)
            chi = min(c + w / 2.0, hi)
            if chi - clo > 1e-6:
                rows.append((min(max(c, lo + 1e-6), hi - 1e-6), chi - clo))
            c += w
        return rows

    layer = 0
    while layer < MAX_LAYERS:
        z_plane = layer * h + s
        z_top = (layer + 1) * h
        along_y = cross_hatch and layer % 2 == 1
        any_path = False
        first_in_layer = True
        direction = 1
        if along_y:
            rows = grid_lines(x0, x1)
        else:
            rows = grid_lines(y0, y1)
        for (cc, wid) in rows:
            if along_y:
                spans = _scan_intervals(lambda t, _c=cc: zf(_c, t), cc,
                                        y0, y1, z_plane)
            else:
                spans = _scan_intervals(lambda t, _c=cc: zf(t, _c), cc,
                                        x0, x1, z_plane)
            for a, b in spans:
                any_path = True
                if first_in_layer:
                    lines.append(f";LAYER:{layer}")
                    lines.append(";TYPE:FILL")
                    first_in_layer = False
                ts = list(np.linspace(a, b, max(2, math.ceil((b - a) / w) + 1)))
                if direction < 0:
                    ts = ts[::-1]
                if along_y:
                    lines.append(emit_move("G0", x=cc, y=ts[0], z=z_top,
                                           f=TRAVEL_F))
                else:
                    lines.append(emit_move("G0", x=ts[0], y=cc, z=z_top,
                                           f=TRAVEL_F))
                prev = ts[0]
                for t in ts[1:]:
                    seg = abs(t - prev)
                    e_accum += seg * wid * h / fil_area
                    if along_y:
                        lines.append(emit_move("G1", x=cc, y=t, e=e_accum,
                                               f=profile.f_ini))
                    else:
                        lines.append(emit_move("G1", x=t, y=cc, e=e_accum,
                                               f=profile.f_ini))
                    prev = t
            if spans:
                direction *= -1
        if not any_path:
            break
        layer += 1
    lines.append("; end")
    return "\n".join(lines) + "\n"


def wedge_fixture(profile=None, angle_deg=10.0, base=20.0, depth=10.0,
                  cross_hatch=False):
    """Wedge mesh plus its flat-sliced program text.

    Default infill runs up the slope so displaced tracks can follow the
    plane exactly; cross_hatch alternates the infill axis per layer like
    production slicers, which misaligns tracks across layers."""
    profile = profile or PrinterProfile()
    mesh = wedge_mesh(angle_deg, base, depth)
    slope = math.tan(math.radians(angle_deg))

    def zf(x, y):
        if x < 0 or x > base or y < 0 or y > depth:
            return -1.0
        return x * slope

    gcode = slice_heightfield(zf, ((0.0, base), (0.0, depth)), profile,
                              cross_hatch=cross_hatch, name="wedge")
    return mesh, gcode


def dome_fixture(profile=None, radius=12.0, cap_height=3.0, extent=16.0):
    profile = profile or PrinterProfile()
    mesh = dome_mesh(radius, cap_height, extent)
    half = extent / 2.0
    gcode = slice_heightfield(dome_height(radius, cap_height, extent),
                              ((-half, half), (-half, half)), profile,
                              name="dome")
    return mesh, gcode


# ---------------------------------------------------------------------------
# STL output and the critical angle

def mesh_to_stl_binary(mesh):
    count = mesh.triangle_count
    out = bytearray(b"toolpath-aa".ljust(80, b"\0"))
    out += struct.pack("<I", count)
    for i in range(count):
        rec = struct.pack(
            "<12fH",
            *mesh.normals[i].astype(np.float32),
            *mesh.corners[i].reshape(9).astype(np.float32),
            0,
        )
        out += rec
    return bytes(out)


def critical_angle(h, w):
    """Steepest surface slope (radians) the anti-aliasing can still track
    with track spacing w and layer thickness h: arctan(h / w)."""
    return math.atan2(h, w)
