"""End-to-end demo on the 10-degree wedge: anti-alias it, compare the
surface error map and estimated print time against the flat-sliced input,
and leave all artifacts in ./out/."""

import json
import math
import os
import sys

for folder in ("src", "tests"):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", folder))

import numpy as np

from toolpath_aa import antialias, evaluate
from toolpath_aa.files import replace_atomically
from toolpath_aa.gcode import PrinterProfile, parse_gcode
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
import fixtures
from fixtures import mesh_to_stl_binary


def main():
    out_dir = os.path.join(os.getcwd(), "out")
    os.makedirs(out_dir, exist_ok=True)
    profile = PrinterProfile()
    mesh, gcode = fixtures.wedge_fixture(profile)
    with replace_atomically(os.path.join(out_dir, "wedge.stl"),
                            binary=True) as f:
        f.write(mesh_to_stl_binary(mesh))
    with replace_atomically(os.path.join(out_dir, "wedge_flat.gcode")) as f:
        f.write(gcode)

    config = PipelineConfig(
        profile=profile,
        out_path=os.path.join(out_dir, "wedge_aa.gcode"),
        report_path=os.path.join(out_dir, "wedge_report.json"),
        error_map_path=os.path.join(out_dir, "wedge_aa_errors.ply"),
    )
    program, report, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)

    flat = parse_gcode(gcode)
    for layer in flat.layers:
        for p in layer.toolpaths():
            antialias.resample_path(p, profile.w)
    flat_tracks = evaluate.tracks_from_program(flat, profile)
    flat_map = evaluate.error_map(mesh, flat_tracks, samples_per_mm2=20,
                                  seed=1)
    with replace_atomically(os.path.join(out_dir, "wedge_flat_errors.ply")) as f:
        flat_map.write_ply(f)

    aa_tracks = evaluate.tracks_from_program(program, profile)
    aa_map = evaluate.error_map(mesh, aa_tracks, samples_per_mm2=20, seed=1)

    def slope_max(emap):
        on_slope = ((emap.normals[:, 2] > 0.1)
                    & (np.abs(emap.normals[:, 0]) > 0.05))
        pts = emap.points[on_slope]
        keep = (pts[:, 0] > 2.5) & (pts[:, 0] < 19.5)
        return float(emap.distances[on_slope][keep].max())

    t_flat = evaluate.estimate_print_time(flat)
    t_aa = evaluate.estimate_print_time(program)
    print(f"displaced vertices : "
          f"{report['displacement']['vertices_displaced']}"
          f" / {report['displacement']['vertices_total']}")
    print(f"slope error max    : flat {slope_max(flat_map):.4f} mm -> "
          f"aa {slope_max(aa_map):.4f} mm "
          f"(analytic flat {(profile.h / 2) * math.cos(math.radians(10)):.4f})")
    print(f"estimated time     : flat {t_flat:.1f} s -> aa {t_aa:.1f} s "
          f"({t_aa / t_flat - 1:+.1%})")
    print(f"artifacts in {out_dir}")
    with replace_atomically(os.path.join(out_dir, "wedge_summary.json")) as f:
        json.dump({
            "flat_error_max_mm": slope_max(flat_map),
            "aa_error_max_mm": slope_max(aa_map),
            "flat_time_s": t_flat,
            "aa_time_s": t_aa,
        }, f, indent=2)


if __name__ == "__main__":
    main()
