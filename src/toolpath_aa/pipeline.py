"""End-to-end orchestration: parse -> resample -> displace -> rescale ->
overlap compensation -> split/order/relink -> emit, plus reports."""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from . import antialias, evaluate, geometry, ordering
from .files import replace_atomically
from .gcode import (GcodeParseError, Move, PrinterProfile, Toolpath,
                    emit_gcode, parse_gcode, total_extrusion)


MIN_THICKNESS = 0.05   # mm, below this deposition is unreliable
REPORT_SCHEMA_VERSION = 5


@dataclass
class PipelineConfig:
    gcode_path: str = None
    mesh_path: str = None
    out_path: str = None
    profile: PrinterProfile = field(default_factory=PrinterProfile)
    ordering_enabled: bool = True
    weighted_seams: bool = False
    overlap_enabled: bool = True
    report_path: str = None
    error_map_path: str = None
    sweep_s: list = field(default_factory=list)
    order_expansion_cap: int = ordering.EXPANSION_CAP

    def validate(self):
        self.profile.validate()
        # the suffix, in any case, picks the error map's writer
        if self.error_map_path and not self.error_map_path.lower().endswith(
                (".csv", ".ply")):
            raise ValueError(f"error map {self.error_map_path!r} must end "
                             "in .csv or .ply")
        for s in self.sweep_s:
            if not (0 <= s <= self.profile.h):
                raise ValueError(f"sweep value s={s} outside [0, h]")
        # the deepest allowed downward displacement leaves thickness s, so
        # no track the stages make is thinner than MIN_THICKNESS
        if self.profile.s < MIN_THICKNESS - 1e-12:
            raise ValueError(
                f"slicing plane s={self.profile.s} allows local thickness "
                f"below the {MIN_THICKNESS} mm deposition minimum")


def run_pipeline(config, gcode_text=None, mesh=None):
    """Run the full anti-aliasing pipeline. Inputs may be given as paths
    in the config or directly as text/mesh. Returns (program, report,
    G-code text)."""
    config.validate()
    # every output is opened as a temporary file before any work, so an
    # unwritable one fails at once; the stack moves them into place only
    # once all of them are written whole
    with ExitStack() as outputs:
        def open_output(path, newline=None):
            return path and outputs.enter_context(
                replace_atomically(path, newline=newline))

        emap_fh = open_output(config.error_map_path)
        out_fh = open_output(config.out_path, newline="")
        report_fh = open_output(config.report_path)
        program, report, text_out, emap = _run(config, gcode_text, mesh)
        if emap_fh:
            if config.error_map_path.lower().endswith(".csv"):
                emap.write_csv(emap_fh)
            else:
                emap.write_ply(emap_fh)
        if out_fh:
            out_fh.write(text_out)
        if report_fh:
            json.dump(report, report_fh, indent=2, sort_keys=True)
    return program, report, text_out


def _run(config, gcode_text, mesh):
    """The pipeline's stages; returns (program, report, G-code text, error
    map or None)."""
    profile = config.profile
    report = {"schema_version": REPORT_SCHEMA_VERSION,
              "profile": _profile_dict(profile), "timings_s": {}}
    t_all = time.perf_counter()

    t0 = time.perf_counter()
    if gcode_text is None:
        try:
            with open(config.gcode_path, "r", encoding="utf-8") as fh:
                gcode_text = fh.read()
        except UnicodeDecodeError as exc:   # a ValueError, not a bad config
            raise GcodeParseError(
                f"byte {exc.start} is not UTF-8",
                exc.object.count(b"\n", 0, exc.start) + 1) from None
    if mesh is None:
        mesh = geometry.load_mesh_file(config.mesh_path)
    report["timings_s"]["load"] = time.perf_counter() - t0
    report["mesh"] = {
        "triangles": mesh.triangle_count,
        "degenerate_dropped": mesh.degenerate_dropped,
    }

    t0 = time.perf_counter()
    program = parse_gcode(gcode_text)
    report["timings_s"]["parse"] = time.perf_counter() - t0
    report["input"] = {
        "layers": len(program.layers),
        "toolpaths": sum(len(l.toolpaths()) for l in program.layers),
        "vertices": program.vertex_count(),
        "total_e": total_extrusion(program),
        "warnings": list(program.warnings),
    }

    t0 = time.perf_counter()
    index = geometry.build_vertical_index(mesh)
    report["timings_s"]["index"] = time.perf_counter() - t0

    if config.sweep_s:
        # before the displacement: the sweep copies the program as parsed
        t0 = time.perf_counter()
        rows = antialias.sweep_slicing_plane(program, index, profile,
                                             config.sweep_s)
        report["sweep_s"] = [{"s": s, "overlap_volume_mm3": v}
                             for s, v in rows]
        report["timings_s"]["sweep"] = time.perf_counter() - t0

    # resample + displace + rescale, per layer
    t0 = time.perf_counter()
    stats = antialias.DisplacementStats()
    for layer in program.layers:
        paths = layer.toolpaths()
        original = [path.vertices for path in paths]
        displaced = stats.displaced
        for path in paths:
            antialias.resample_path(path, profile.w)
        antialias.displace_layer(paths, index, profile, stats=stats)
        antialias.rescale_paths(paths, profile)
        # an untouched layer reverts to its original (un-resampled) motion
        # so a zero-displacement run emits exactly the input values
        if stats.displaced == displaced:
            for path, verts in zip(paths, original):
                path.vertices = verts
    report["timings_s"]["antialias"] = time.perf_counter() - t0
    report["displacement"] = stats.as_dict(h=profile.h)

    if config.overlap_enabled:
        t0 = time.perf_counter()
        _records, overlap_report = antialias.reduce_overlap_flow(program,
                                                                 profile)
        report["timings_s"]["overlap"] = time.perf_counter() - t0
        report["overlap"] = overlap_report

    if config.ordering_enabled:
        t0 = time.perf_counter()
        report["ordering"] = order_program(program, profile,
                                           weighted=config.weighted_seams,
                                           cap=config.order_expansion_cap)
        report["timings_s"]["ordering"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    text_out = emit_gcode(program)
    report["timings_s"]["emit"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    print_time = evaluate.estimate_print_time(program)
    report["timings_s"]["print_time"] = time.perf_counter() - t0
    report["output"] = {
        "total_e": total_extrusion(program),
        "estimated_print_time_s": print_time,
    }

    emap = None
    if config.error_map_path:
        t0 = time.perf_counter()
        tracks = evaluate.tracks_from_program(program, profile)
        emap = evaluate.error_map(mesh, tracks)
        report["error_map"] = emap.summary()
        report["timings_s"]["error_map"] = time.perf_counter() - t0

    report["timings_s"]["total"] = time.perf_counter() - t_all
    return program, report, text_out, emap


def order_program(program, profile, weighted, cap):
    """Split, order and relink every layer that has modified paths. Only
    the modified paths enter the ordering stage; the unmodified ones print
    first, whole and in input order."""
    eps = ordering.interference_threshold(profile)
    eps_gap = 4.0 * profile.w
    travel_f = _travel_feed(program)
    layer_reports = []
    for li, layer in enumerate(program.layers):
        kept = [p for p in layer.toolpaths() if not p.modified]
        paths = [p for p in layer.toolpaths() if p.modified]
        if not paths:
            layer_reports.append({"layer": li, "skipped": True})
            continue
        t0 = time.perf_counter()
        pairs = ordering.find_neighbors(paths, eps)
        t1 = time.perf_counter()
        subpaths = ordering.split_paths(paths, pairs, eps)
        t2 = time.perf_counter()
        graph = ordering.build_constraint_graph(subpaths, eps)
        t3 = time.perf_counter()
        result = ordering.order_paths(graph, eps_gap, weighted=weighted,
                                      max_expansions=cap)
        t4 = time.perf_counter()
        ordered = [Toolpath(sp.vertices, layer_index=sp.parent.layer_index,
                            modified=True) for sp in result.order]
        ordering.relink_travels(layer, kept + ordered, eps_gap, travel_f)
        rep = result.report(graph)
        rep.update(layer=li, unmodified_paths=len(kept),
                   neighbor_pairs=len(pairs), neighbors_s=t1 - t0,
                   split_s=t2 - t1, graph_s=t3 - t2,
                   relink_s=time.perf_counter() - t4)
        layer_reports.append(rep)
    return {
        "epsilon_mm": eps,
        "epsilon_gap_mm": eps_gap,
        "layers": layer_reports,
        "orders_considered": sum(r.get("orders_considered", 0)
                                 for r in layer_reports),
    }


def _travel_feed(program):
    best = 0.0
    for ev in program.events():
        if isinstance(ev, Move) and not ev.e_only and ev.f:
            best = max(best, ev.f)
    return best or 120.0


def _profile_dict(p):
    return {
        "w": p.w, "tau": p.tau, "alpha_rad": p.alpha, "h": p.h,
        "f_ini": p.f_ini, "f_min": p.f_min, "s": p.s, "d": p.d,
        "filament_diameter": p.filament_diameter,
    }
