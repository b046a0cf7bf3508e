"""Test scenes and helpers: the flat box, the mesh volume, the scalar
shoelace area, the three-path splitting scene, the seven-node ordering
scene with its order pricing, the nested closed loops, the wedge with
retractions and the parse-stress program. The wedge and
dome fixtures are in `fixtures`."""

import math
import re

import numpy as np

from toolpath_aa.gcode import E, PrinterProfile, Toolpath
from toolpath_aa.geometry import build_mesh
from toolpath_aa.ordering import ConstraintGraph, SubPath, _Seams
from fixtures import slice_heightfield, wedge_fixture


# ---------------------------------------------------------------------------
# Flat box

def flat_box_mesh(lx=10.0, ly=10.0, height=1.2):
    if lx <= 0 or ly <= 0 or height <= 0:
        raise ValueError("box dimensions must be positive")
    v = [
        (0, 0, 0), (lx, 0, 0), (lx, ly, 0), (0, ly, 0),
        (0, 0, height), (lx, 0, height), (lx, ly, height), (0, ly, height),
    ]
    vertices = np.array(v, dtype=float)
    triangles = []

    def quad(a, b, c, d):
        triangles.append((a, b, c))
        triangles.append((a, c, d))

    quad(0, 3, 2, 1)   # bottom (down)
    quad(4, 5, 6, 7)   # top (up)
    quad(0, 1, 5, 4)   # y = 0
    quad(1, 2, 6, 5)   # x = lx
    quad(2, 3, 7, 6)   # y = ly
    quad(3, 0, 4, 7)   # x = 0
    return build_mesh(vertices[triangles])


def mesh_volume(mesh):
    """Signed volume by the divergence theorem (exact for closed meshes)."""
    a, b, c = mesh.corners.transpose(1, 0, 2)
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def signed_area(xy):
    """Shoelace area of a polygon given as (x, y) pairs, positive when it
    runs counter-clockwise: the scalar reference for
    `geometry.signed_areas`."""
    area = 0.0
    n = len(xy)
    for i in range(n):
        x1, y1 = xy[i]
        x2, y2 = xy[(i + 1) % n]
        area += x1 * y2 - x2 * y1
    return area / 2.0


def flat_box_fixture(profile=None, lx=10.0, ly=10.0, height=1.2):
    profile = profile or PrinterProfile()
    mesh = flat_box_mesh(lx, ly, height)

    def zf(x, y):
        if x < 0 or x > lx or y < 0 or y > ly:
            return -1.0
        return height

    gcode = slice_heightfield(zf, ((0.0, lx), (0.0, ly)), profile,
                              name="flat_box")
    return mesh, gcode


# ---------------------------------------------------------------------------
# Three-path splitting scene (geometry half)
#
# Three closed rectangular loops in a row; the middle one is a neighbour of
# both outer ones, the outer pair is too far apart to interfere. Height
# zones are chosen so splitting yields exactly seven subpaths:
# path1 -> {A, B}, path2 -> {C, D, E}, path3 -> {F, G}.

LAYER_Z = 0.6
DIP = -0.2
RISE = 0.2
GRID = 0.75    # shared x raster so nearest-point feet land on vertices


def _loop(points_with_delta, f=20.0, h=LAYER_Z):
    rows = [(x, y, h + d, 0.1, f, d) for (x, y, d) in points_with_delta]
    verts = np.array(rows + rows[:1])
    verts[0, E] = 0.0
    return Toolpath(vertices=verts)


def _grid_row(x0, x1, y, dz):
    """Vertices on the shared raster from x0 to x1 inclusive, with a
    per-x displacement function."""
    n = round(abs(x1 - x0) / GRID)
    step = GRID if x1 >= x0 else -GRID
    pts = []
    for k in range(n + 1):
        x = x0 + k * step
        pts.append((x, y, dz(x)))
    return pts


def three_paths_scene():
    """Three stacked closed loops whose height zones split them into seven
    subpaths with parent partition {A,B | C,D,E | F,G}.

    The middle loop neighbours both outer loops; the outer pair is too far
    apart to interfere. Zone boundaries sit on the shared vertex raster so
    the height comparison sees pure zone-against-zone pairs.
    """

    def d1(x):
        if 2.25 <= x <= 3.75:
            return DIP        # A's dip, below the start of path2's top
        if x >= 6.75:
            return RISE       # B's raised stretch, above path2's top
        return 0.0

    # path1: rectangle y in [1.4, 2.2]; zones on its bottom side
    p1_pts = _grid_row(0.0, 30.0, 1.4, d1)
    p1_pts.append((30.0, 2.2, 0.0))
    p1_pts += _grid_row(29.25, 0.0, 2.2, lambda x: 0.0)
    path1 = _loop(p1_pts)

    # path2: rectangle y in [-0.4, 0.4]; starts at the intended EC cut
    def d2_bottom(x):
        return RISE if x >= 20.25 else 0.0

    p2_pts = _grid_row(3.75, 0.0, 0.4, lambda x: 0.0)
    p2_pts.append((0.0, 0.0, DIP))               # CD: cap vertex, pushed down
    p2_pts.append((0.0, -0.4, 0.0))
    p2_pts += _grid_row(0.75, 29.25, -0.4, d2_bottom)
    p2_pts.append((30.0, -0.4, RISE))
    p2_pts.append((30.0, 0.4, 0.0))
    p2_pts += _grid_row(29.25, 4.5, 0.4, lambda x: 0.0)
    path2 = _loop(p2_pts)

    # path3: rectangle y in [-2.2, -1.4]; raised zone at the left end of
    # its top side
    def d3(x):
        return RISE if x <= 0.75 else 0.0

    p3_pts = _grid_row(30.0, 0.0, -1.4, d3)
    p3_pts.append((0.0, -2.2, 0.0))
    p3_pts += _grid_row(0.75, 29.25, -2.2, lambda x: 0.0)
    p3_pts.append((30.0, -2.2, 0.0))
    path3 = _loop(p3_pts)

    return [path1, path2, path3]


SCENE_CUTS = {
    "BA": (2.25, 1.4), "AB": (6.75, 1.4),
    "EC": (3.75, 0.4), "CD": (0.0, 0.0), "DE": (20.25, -0.4),
    "FG": (0.75, -1.4), "GF": (30.0, -1.4),
}


def label_scene_subpaths(subpaths):
    """Map the seven split subpaths onto their conventional names by
    parent and entry position."""
    by_parent = {}
    for sp in subpaths:
        by_parent.setdefault(sp.parent_id, []).append(sp)
    if sorted(len(v) for v in by_parent.values()) != [2, 2, 3]:
        raise ValueError(
            f"unexpected split: {[(k, len(v)) for k, v in by_parent.items()]}")
    labels = {}
    wanted = {
        "A": (0, "BA"), "B": (0, "AB"),
        "C": (1, "EC"), "D": (1, "CD"), "E": (1, "DE"),
        "F": (2, "GF"), "G": (2, "FG"),
    }
    for name, (pid, cut) in wanted.items():
        cx, cy = SCENE_CUTS[cut]
        best = min(by_parent[pid],
                   key=lambda sp: math.hypot(sp.entry[0] - cx,
                                             sp.entry[1] - cy))
        labels[name] = best
    if len({id(sp) for sp in labels.values()}) != 7:
        raise ValueError("subpath labelling is not a bijection")
    return labels


# ---------------------------------------------------------------------------
# Seven-node ordering scene (combinatorial half)
#
# Subpaths constructed directly with the entry/exit coincidence pattern of
# splitting a set of closed loops: consecutive subpaths of one parent share
# their cut point exactly; selected cross-parent cut points fall within
# the seam tolerance while the rest stay far apart.

ORDERING_SCENE_POINTS = {
    "BA": (2.0, 1.4, 0.4),
    "AB": (6.8, 1.4, 0.8),
    "EC": (4.0, 0.4, 0.6),
    "CD": (0.0, 0.0, 0.4),
    "DE": (8.5, -0.6, 0.8),
    "FG": (0.5, -1.6, 0.8),
    "GF": (30.0, -1.4, 0.6),
}

ORDERING_SCENE_STRUCTURE = [
    # label, parent id, entry point, exit point, mean height
    ("A", 0, "BA", "AB", 0.45),
    ("B", 0, "AB", "BA", 0.72),
    ("C", 1, "EC", "CD", 0.62),
    ("D", 1, "CD", "DE", 0.68),
    ("E", 1, "DE", "EC", 0.64),
    ("F", 2, "GF", "FG", 0.50),
    ("G", 2, "FG", "GF", 0.75),
]

ORDERING_SCENE_EDGES = [("A", "D"), ("F", "E"), ("E", "B"), ("C", "G"), ("F", "C")]

# seam weights for weighted mode: the DE cut sits in a concave notch
ORDERING_SCENE_WEIGHTS = {"DE": 1.2}


def ordering_scene():
    """Seven-node constraint graph with the entry/exit coincidences of
    split closed loops; returns (graph, labels)."""
    subpaths = []
    labels = {}
    for k, (label, pid, entry_key, exit_key, height) in enumerate(ORDERING_SCENE_STRUCTURE):
        p_entry = ORDERING_SCENE_POINTS[entry_key]
        p_exit = ORDERING_SCENE_POINTS[exit_key]
        mid = tuple((a + b) / 2 for a, b in zip(p_entry, p_exit))
        verts = np.array([
            (*p_entry, 0.0, 20.0, 0.0),
            (mid[0], mid[1], height, 0.1, 20.0, 0.0),
            (*p_exit, 0.1, 20.0, 0.0),
        ])
        sp = SubPath(parent_id=pid, vertices=verts,
                     first_is_cut=True, last_is_cut=True)
        sp.entry_weight = ORDERING_SCENE_WEIGHTS.get(entry_key, 1.5)
        sp.exit_weight = ORDERING_SCENE_WEIGHTS.get(exit_key, 1.5)
        subpaths.append(sp)
        labels[label] = k
    edges = [(labels[u], labels[v]) for u, v in ORDERING_SCENE_EDGES]
    return ConstraintGraph(nodes=subpaths, edges=edges), labels


def evaluate_order(graph, sequence, eps_gap, weighted=False):
    """Cost of a specific topological order of the nodes.

    sequence holds node indices into graph.nodes; raises if it violates a
    constraint edge or misses a node."""
    if sorted(sequence) != list(range(len(graph.nodes))):
        raise ValueError("sequence must cover exactly the subpaths")
    position = {i: k for k, i in enumerate(sequence)}
    for u, v in graph.edges:
        if position[u] >= position[v]:
            raise ValueError(f"sequence violates edge {u} -> {v}")
    return _Seams(graph.nodes, eps_gap, weighted).cost(sequence)


# ---------------------------------------------------------------------------
# Nested closed loops

def nested_loops_gcode():
    """Two layers over the 20x10 wedge, each two concentric closed
    counter-clockwise rectangles that start at their lower-left corner;
    the upper layer's loops start 3 mm further up the slope."""
    fil_area = PrinterProfile().filament_area
    lines = ["G90", "M82", "G92 E0"]
    e = 0.0
    for layer, (z, x0) in enumerate(((0.6, 1.0), (1.2, 4.0))):
        lines.append(f";LAYER:{layer}")
        for (ax, ay), (bx, by) in (((x0, 1.0), (19.0, 9.0)),
                                   ((x0 + 0.8, 1.8), (18.2, 8.2))):
            pts = [(ax, ay), (bx, ay), (bx, by), (ax, by), (ax, ay)]
            lines += [";TYPE:WALL-OUTER",
                      f"G0 X{ax:.3f} Y{ay:.3f} Z{z:.3f} F7200"]
            for p, q in zip(pts, pts[1:]):
                e += math.dist(p, q) * 0.8 * 0.6 / fil_area
                lines.append(f"G1 X{q[0]:.3f} Y{q[1]:.3f} E{e:.5f} F1200")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The wedge with retractions

_EXTRUDING_XY = re.compile(r"G1 X(\S+) Y(\S+) E(\S+)")


def retract_wedge_gcode():
    """The 20x10 wedge's text with a wipe and a prime around each travel
    after the first. With `G1 X<x> Y<y> E<e>` the last extruding move
    before the `G0`, a wipe `G1 X<x+0.4> Y<y> E<e-0.8>` just before it
    retracts 0.8 mm while it moves on, and `G1 E<e>` just after it primes
    the same amount back: 77 pairs."""
    lines = []
    last = None
    for line in wedge_fixture()[1].splitlines():
        if line.startswith("G0") and last:
            x, y, e = last.groups()
            lines += [f"G1 X{float(x) + 0.4:.5f} Y{y} "
                      f"E{float(e) - 0.8:.5f} F2400.0",
                      line, f"G1 E{e} F2400.0"]
        else:
            lines.append(line)
        last = _EXTRUDING_XY.match(line) or last
    return "\n".join(lines) + "\n"


def hop_wedge_gcode():
    """The cross-hatched 20x10 wedge's text with a Z hop, `G1 Z<z + 0.4>
    F600` for a layer at height z, right after the `;LAYER:` line of each
    layer but the first: five layers that open with a move laying no track
    above their deposition height."""
    h = PrinterProfile().h
    lines = []
    for line in wedge_fixture(cross_hatch=True)[1].splitlines():
        lines.append(line)
        if line.startswith(";LAYER:") and line != ";LAYER:0":
            z = h * (int(line[len(";LAYER:"):]) + 1)
            lines.append(f"G1 Z{z + 0.4:.5f} F600")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# A program for the parser alone

def parse_stress_gcode():
    """Four raster layers, with CRLF line ends and no `;LAYER:` lines, that
    use what the parser reads line by line or carries across lines: the
    even layers in M82 and the odd ones in M83, each from a `G92 E0`; a
    comment on every third move; at the end of each raster row two
    depositions 5e-10 mm apart, the second a duplicate merged into the
    first, and a retraction; a Z hop in a G91 block before each travel,
    and the return to z on a move of its own."""
    lines = ["; parse stress", "G90"]
    for layer in range(4):
        z = 0.3 * (layer + 1)
        relative = layer % 2 == 1
        lines += ["M83" if relative else "M82", "G92 E0",
                  f"G0 X0 Y0 Z{z:.2f} F7200"]
        e = 0.0
        for row in range(6):
            y = 0.5 * row
            for k in range(1, 16):
                x = 0.75 * k + (0.25 if row % 2 else 0.0)
                e += 0.03
                word = 0.03 if relative else e
                lines.append(f"G1 X{x:.3f} Y{y:.3f} E{word:.5f}"
                             + (" F1200" if k == 1 else "")
                             + (" ; move" if k % 3 == 0 else ""))
            e += 0.01
            lines.append(f"G1 X{x + 5e-10:.10f} Y{y:.3f} "
                         f"E{0.01 if relative else e:.5f}")
            e -= 0.8
            lines += [f"G1 E{-0.8 if relative else e:.5f} F2400",
                      "G91", "G1 Z0.4 F600", "G90",
                      f"G0 X0 Y{y + 0.5:.3f} Z{z + 0.4:.2f} F7200",
                      f"G1 Z{z:.2f}"]
            e += 0.8
            lines.append(f"G1 E{0.8 if relative else e:.5f} F2400")
    return "\r\n".join(lines) + "\r\n"
