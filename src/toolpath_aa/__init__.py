"""Sub-layer anti-aliasing for FFF toolpaths.

Takes flat-sliced G-code plus the source triangle mesh, displaces path
vertices vertically (at most half a layer) to track the true surface,
rescales extrusion and feedrate, compensates cross-layer overlaps, and
re-orders paths so the hot nozzle never ploughs through taller
neighbours.
"""

from .antialias import (DisplacementWindow, adjust_extrusion,
                        adjust_feedrate, displace_layer, reduce_overlap_flow,
                        resample_path, sweep_slicing_plane)
from .evaluate import critical_angle, error_map, estimate_print_time
from .gcode import (PrinterProfile, PrintProgram, Toolpath, emit_gcode,
                    parse_gcode)
from .geometry import (SurfaceHit, TriangleMesh, VerticalRayIndex,
                       build_vertical_index, cast_vertical, load_mesh)
from .ordering import (ConstraintGraph, SubPath, build_constraint_graph,
                       evaluate_order, exterior_angle, find_neighbors,
                       gap_cost, interference_threshold, order_paths,
                       split_paths)
from .pipeline import PipelineConfig, run_pipeline

__all__ = [
    "DisplacementWindow", "adjust_extrusion", "adjust_feedrate",
    "displace_layer", "reduce_overlap_flow", "resample_path",
    "sweep_slicing_plane", "critical_angle", "error_map",
    "estimate_print_time", "PrinterProfile", "PrintProgram",
    "Toolpath", "emit_gcode", "parse_gcode", "SurfaceHit",
    "TriangleMesh", "VerticalRayIndex", "build_vertical_index",
    "cast_vertical", "load_mesh", "ConstraintGraph", "SubPath",
    "build_constraint_graph", "evaluate_order", "exterior_angle",
    "find_neighbors", "gap_cost", "interference_threshold", "order_paths",
    "split_paths", "PipelineConfig", "run_pipeline",
]

__version__ = "0.1.0"
