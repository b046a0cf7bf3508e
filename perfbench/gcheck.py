"""The benchmark's own G-code and STL readers and the output checks.

Nothing here imports the package under test, so a change to the package
cannot change what counts as a correct output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from parts import FILAMENT_AREA, H, S, W

EPS_GAP = 4.0 * W          # travel longer than this before an extrusion is a seam
PRINT_ROUND = 0.5e-5       # half the last digit G-code coordinates are written with
PLANE_TOL = 1e-6           # mm a vertex may sit off its surface or window beyond rounding
MAX_VOLUME_ERR = 0.02
MAX_PRINT_TIME_RATIO = 1.10
MAX_FLOW = 1.5             # e' = e (h + delta) / h with |delta| <= h/2
FLOW_SLACK = 1e-4          # mm^3, E written to 5 decimals


@dataclass
class Gcode:
    """What the checks need from one G-code file."""
    layers: int = 0
    moves: int = 0              # extruding XY moves
    filament: float = 0.0       # mm of filament pushed by extruding moves
    print_time: float = 0.0     # s, constant-feedrate estimate
    seams: int = 0
    layer_length: list = field(default_factory=list)   # mm of deposited path per layer
    layer_moves: list = field(default_factory=list)
    max_flow: float = 0.0       # largest filament volume / nominal track volume
    points: np.ndarray = None   # (n, 4): x, y, z, layer of every extruding endpoint


def _words(code):
    out = {}
    for word in code.split():
        try:
            out[word[0].upper()] = float(word[1:])
        except ValueError:
            pass
    return out


def read_gcode(text):
    """Marlin-style reader: G0/G1/G92/M82/M83 and ;LAYER: sections."""
    g = Gcode()
    x = y = z = None
    e = 0.0
    feed = None                 # mm/min, one modal register for all moves
    relative_e = False
    layer = -1
    extruded_in_layer = False
    gap_from = None             # end of the last extrusion in this layer
    in_run = False
    pts = []
    for raw in text.split("\n"):
        code, _, comment = raw.partition(";")
        if not code.strip():
            if comment.upper().startswith("LAYER:"):
                layer += 1
                g.layer_length.append(0.0)
                g.layer_moves.append(0)
                gap_from, in_run, extruded_in_layer = None, False, False
            continue
        w = _words(code)
        cmd = code.split()[0].upper()
        if cmd in ("M82", "M83"):
            relative_e = cmd == "M83"
            continue
        if cmd == "G92":
            e = w.get("E", e)
            continue
        if cmd not in ("G0", "G1"):
            continue
        if "F" in w:
            feed = w["F"]
        nx, ny, nz = w.get("X", x), w.get("Y", y), w.get("Z", z)
        de = 0.0
        if "E" in w:
            de = w["E"] if relative_e else w["E"] - e
            e = e + w["E"] if relative_e else w["E"]
        known = None not in (x, y, z)
        dist = math.dist((x, y, z), (nx, ny, nz)) if known and None not in (nx, ny, nz) else 0.0
        if feed:
            g.print_time += (dist if dist > 0 else abs(de)) / (feed / 60.0)
        xy = math.dist((x, y), (nx, ny)) if known else 0.0
        if de > 0 and xy > 0 and layer >= 0:
            g.moves += 1
            g.filament += de
            g.layer_length[layer] += xy
            g.layer_moves[layer] += 1
            g.max_flow = max(g.max_flow, (de * FILAMENT_AREA - FLOW_SLACK) / (xy * W * H))
            pts.append((x, y, z, layer))
            pts.append((nx, ny, nz, layer))
            if not in_run:
                if not extruded_in_layer or math.dist(gap_from, (x, y)) > EPS_GAP:
                    g.seams += 1
                extruded_in_layer = in_run = True
            gap_from = (nx, ny)
        elif xy > 0 or de != 0:
            in_run = False
        x, y, z = nx, ny, nz
    g.layers = sum(1 for m in g.layer_moves if m)
    g.points = np.array(pts, dtype=float).reshape(-1, 4)
    return g


def read_stl(data):
    """Binary STL -> (m, 3, 3) float64 triangle corners."""
    if len(data) < 84:
        raise ValueError("binary STL shorter than its header")
    count = int(np.frombuffer(data, "<u4", 1, 80)[0])
    if len(data) != 84 + 50 * count:
        raise ValueError("binary STL size does not match its triangle count")
    rec = np.frombuffer(data, np.dtype([("n", "<f4", 3), ("v", "<f4", 9), ("a", "<u2")]),
                        count, 84)
    return rec["v"].astype(np.float64).reshape(count, 3, 3)


def mesh_volume(tri):
    return float(np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0)


def _up_facing(tri):
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    keep = n[:, 2] > 0.05 * np.linalg.norm(n, axis=1)      # not a vertical wall
    return tri[keep], np.hypot(n[keep, 0], n[keep, 1]) / n[keep, 2]


def tessellation_error(tri, surface, steps=10):
    """Largest vertical gap between the mesh's up-facing triangles and the
    analytic surface, sampled on a barycentric grid, with a 20% margin."""
    top, _ = _up_facing(tri)
    worst = 0.0
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            a, b = i / steps, j / steps
            p = a * top[:, 0] + b * top[:, 1] + (1.0 - a - b) * top[:, 2]
            zf = surface(p[:, 0], p[:, 1])
            gap = np.abs(p[:, 2] - zf)[zf >= 0.0]
            if gap.size:
                worst = max(worst, float(gap.max()))
    return 1.2 * worst


class TopSurface:
    """Vertical lookup into the mesh's up-facing triangles through a uniform
    XY grid of their bounding boxes."""

    def __init__(self, tri):
        self.tri, self.slope = _up_facing(tri)
        lo = self.tri[:, :, :2].min(axis=1)
        hi = self.tri[:, :, :2].max(axis=1)
        self.origin = lo.min(axis=0)
        area = np.prod(hi - lo, axis=1).sum()
        self.cell = 2.0 * math.sqrt(max(area, 1e-12) / len(self.tri))
        i0 = self._cell(lo)
        i1 = self._cell(hi)
        self.ny = int(i1[:, 1].max()) + 1
        nx, ny = i1[:, 0] - i0[:, 0] + 1, i1[:, 1] - i0[:, 1] + 1
        owner = np.repeat(np.arange(len(self.tri)), nx * ny)
        k = np.arange(len(owner)) - np.repeat(np.cumsum(nx * ny) - nx * ny, nx * ny)
        cid = (i0[owner, 0] + k // ny[owner]) * self.ny + i0[owner, 1] + k % ny[owner]
        order = np.argsort(cid, kind="stable")
        self.cells, self.members = cid[order], owner[order]

    def _cell(self, xy):
        return np.floor((xy - self.origin) / self.cell).astype(np.int64)

    def excess(self, x, y, z):
        """Per point: distance to the nearest up-facing triangle above or
        below it, minus the tolerance for 5-decimal coordinates on that
        triangle's slope; inf where no triangle covers the point."""
        c = self._cell(np.stack([x, y], axis=1))
        cid = np.where((c >= 0).all(axis=1), c[:, 0] * self.ny + c[:, 1], -1)
        start = np.searchsorted(self.cells, cid, "left")
        count = np.searchsorted(self.cells, cid, "right") - start
        q = np.repeat(np.arange(len(x)), count)
        t = self.members[np.repeat(start, count) + np.arange(count.sum())
                         - np.repeat(np.cumsum(count) - count, count)]
        a, b, cc = self.tri[t, 0], self.tri[t, 1], self.tri[t, 2]
        d = (b[:, 1] - cc[:, 1]) * (a[:, 0] - cc[:, 0]) + (cc[:, 0] - b[:, 0]) * (a[:, 1] - cc[:, 1])
        w0 = ((b[:, 1] - cc[:, 1]) * (x[q] - cc[:, 0]) + (cc[:, 0] - b[:, 0]) * (y[q] - cc[:, 1])) / d
        w1 = ((cc[:, 1] - a[:, 1]) * (x[q] - cc[:, 0]) + (a[:, 0] - cc[:, 0]) * (y[q] - cc[:, 1])) / d
        w2 = 1.0 - w0 - w1
        pad = 1e-5 / self.cell
        inside = (w0 >= -pad) & (w1 >= -pad) & (w2 >= -pad)
        zt = w0 * a[:, 2] + w1 * b[:, 2] + w2 * cc[:, 2]
        tol = PLANE_TOL + PRINT_ROUND * (1.0 + self.slope[t])
        out = np.full(len(x), np.inf)
        np.minimum.at(out, q[inside], (np.abs(zt - z[q]) - tol)[inside])
        return out


@dataclass
class Reference:
    """Per-input facts the checks compare against."""
    gcode: Gcode
    volume: float
    top: TopSurface
    surface: object          # analytic heightfield of the part
    tess_tol: float          # tessellation error of the mesh against it


def reference(part):
    tri = read_stl(part.stl)
    tess = tessellation_error(tri, part.surface)
    return Reference(gcode=read_gcode(part.gcode), volume=mesh_volume(tri),
                     top=TopSurface(tri), surface=part.surface,
                     tess_tol=tess + PRINT_ROUND * (1.0 + part.max_slope))


def check_output(ref, text):
    """Returns (metrics, errors, gates) for one output.

    errors: the output is wrong (layers, windows, surface, deposited path,
    flow). gates: the output is valid but misses a quality limit (volume
    error, print time)."""
    out = read_gcode(text)
    inp = ref.gcode
    problems = []
    gates = []
    metrics = {
        "seams": out.seams,
        "print_time_ratio": out.print_time / inp.print_time,
        "volume_err": abs(out.filament * FILAMENT_AREA / ref.volume - 1.0),
        "displaced": 0,
    }
    if out.layers != inp.layers or len(out.layer_length) != len(inp.layer_length):
        problems.append(f"{out.layers} layers, input has {inp.layers}")
    else:
        for k, (a, b) in enumerate(zip(out.layer_length, inp.layer_length)):
            tol = 1e-3 + 2e-6 * (out.layer_moves[k] + inp.layer_moves[k])
            if abs(a - b) > tol:
                problems.append(f"layer {k}: deposited path {a:.4f} mm, input {b:.4f} mm")
                break
    p = out.points
    if len(p):
        x, y, z, k = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
        lo, hi = k * H + S, (k + 1) * H + S
        tol = PLANE_TOL + PRINT_ROUND
        bad = (z < lo - tol) | (z > hi + tol)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            problems.append(f"vertex ({x[i]:.5f}, {y[i]:.5f}, {z[i]:.5f}) of layer "
                            f"{int(k[i])} outside [{lo[i]:.5f}, {hi[i]:.5f}]")
        moved = np.abs(z - (k + 1) * H) > 2 * PRINT_ROUND
        metrics["displaced"] = int(moved.sum())
        off = ref.top.excess(x[moved], y[moved], z[moved])
        if off.size and off.max() > 0.0:
            i = int(np.argmax(off))
            problems.append(f"displaced vertex ({x[moved][i]:.5f}, {y[moved][i]:.5f}, "
                            f"{z[moved][i]:.5f}) lies {off[i]:.2e} mm beyond the tolerance "
                            "off the mesh surface")
    if out.max_flow > MAX_FLOW:
        problems.append(f"segment extrudes {out.max_flow:.3f}x its nominal track")
    if metrics["volume_err"] > MAX_VOLUME_ERR:
        gates.append(f"volume error {metrics['volume_err']:.4f} > {MAX_VOLUME_ERR}")
    if metrics["print_time_ratio"] > MAX_PRINT_TIME_RATIO:
        gates.append(f"print time ratio {metrics['print_time_ratio']:.4f} "
                        f"> {MAX_PRINT_TIME_RATIO}")
    return metrics, problems, gates


def check_sweep(rows):
    """The overlap volume is zero at s = 0 and never falls as s grows."""
    rows = sorted((r["s"], r["overlap_volume_mm3"]) for r in rows)
    problems = []
    if rows and rows[0][0] == 0.0 and rows[0][1] != 0.0:
        problems.append(f"sweep overlap {rows[0][1]} at s = 0")
    for (s0, v0), (s1, v1) in zip(rows, rows[1:]):
        if v1 < v0:
            problems.append(f"sweep overlap falls from {v0} at s={s0} to {v1} at s={s1}")
    return problems


def surface_error(ref, csv_path):
    """95th percentile of error-map distance over samples on the top surface,
    chosen by the part's own heightfield."""
    pts = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    zf = ref.surface(pts[:, 0], pts[:, 1])
    tol = ref.tess_tol + 1e-5
    top = (zf > tol) & (np.abs(pts[:, 2] - zf) <= tol)
    if not top.any():
        raise ValueError("error map has no samples on the top surface")
    return float(np.percentile(pts[top, 3], 95))
