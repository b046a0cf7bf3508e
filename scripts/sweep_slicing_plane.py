"""Overlap volume versus slicing plane position, on the cross-hatched
wedge and the dome. The curve vanishes at s = 0 (only downward
displacements) and grows as the window lets tracks rise higher."""

import os
import sys

for folder in ("src", "tests"):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", folder))

from toolpath_aa import antialias, geometry
from toolpath_aa.gcode import PrinterProfile, parse_gcode
import fixtures


def sweep(name, mesh, gcode, profile, s_values):
    index = geometry.build_vertical_index(mesh)
    rows = antialias.sweep_slicing_plane(parse_gcode(gcode), index, profile,
                                         s_values)
    print(f"\n{name}: slicing plane s (mm) -> overlap volume (mm^3)")
    for s, v in rows:
        bar = "#" * int(round(v * 20))
        print(f"  s={s:5.2f}  {v:10.4f}  {bar}")
    return rows


def main():
    profile = PrinterProfile()
    s_values = [0.0, 0.06, 0.1, 0.15, 0.2, 0.25, 0.3]
    mesh_w, gcode_w = fixtures.wedge_fixture(profile, cross_hatch=True)
    sweep("wedge (cross-hatched infill)", mesh_w, gcode_w, profile, s_values)
    mesh_d, gcode_d = fixtures.dome_fixture(profile)
    sweep("dome", mesh_d, gcode_d, profile, s_values)


if __name__ == "__main__":
    main()
