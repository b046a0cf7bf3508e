"""Traced `aa` job: wraps the pipeline's entry points in spans, runs the CLI,
then writes the spans as JSON.

    python3 perfbench/tracejob.py SPANS_JSON JOB_ID -- <aa arguments>

Spans are timed from outside the package: each entry point is replaced at
the module attribute the pipeline calls it through. Span stacks are kept per
thread; a span opened on a pool thread with an empty stack takes the main
thread's open span as its parent. Spans stay in memory until the job ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, attribute, span name, counter) for every wrapped entry point;
# a counter maps (args, kwargs, result, state before the call) to counts
ENTRY_POINTS = [
    ("cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("pipeline", "parse_gcode", "pipeline.parse_gcode",
     lambda a, k, r, b: {"lines": a[0].count("\n")}),
    ("pipeline", "emit_gcode", "pipeline.emit_gcode", None),
    ("geometry", "load_mesh_file", "geometry.load_mesh_file", None),
    ("geometry", "build_vertical_index", "geometry.build_vertical_index", None),
    ("antialias", "cast_vertical_batch", "antialias.cast_vertical_batch",
     lambda a, k, r, b: {"rays": len(a[1])}),
    ("antialias", "resample_path", "antialias.resample_path", None),
    ("antialias", "displace_layer", "antialias.displace_layer",
     lambda a, k, r, b: {"vertices": r[1].total - b[0], "displaced": r[1].displaced - b[1]}),
    ("antialias", "rescale_paths", "antialias.rescale_paths", None),
    ("antialias", "reduce_overlap_flow", "antialias.reduce_overlap_flow",
     lambda a, k, r, b: {"records": len(r[0])}),
    ("antialias", "sweep_slicing_plane", "antialias.sweep_slicing_plane", None),
    ("ordering", "find_neighbors", "ordering.find_neighbors",
     lambda a, k, r, b: {"pairs": len(r)}),
    ("ordering", "split_paths", "ordering.split_paths",
     lambda a, k, r, b: {"subpaths": len(r)}),
    ("ordering", "build_constraint_graph", "ordering.build_constraint_graph",
     lambda a, k, r, b: {"edges": len(r.edges)}),
    ("ordering", "order_paths", "ordering.order_paths",
     lambda a, k, r, b: {"expansions": r.expansions, "suboptimal": int(r.suboptimal)}),
    ("ordering", "relink_travels", "ordering.relink_travels", None),
    ("evaluate", "tracks_from_program", "evaluate.tracks_from_program",
     lambda a, k, r, b: {"tracks": len(r)}),
    ("evaluate", "error_map", "evaluate.error_map",
     lambda a, k, r, b: {"samples": len(r.distances)}),
    ("evaluate", "estimate_print_time", "evaluate.estimate_print_time", None),
]


def _stats_before(args, kwargs):
    stats = kwargs.get("stats")
    return (stats.total, stats.displaced) if stats is not None else (0, 0)


class Tracer:
    def __init__(self, job):
        self.job = job
        self.spans = []
        self.local = threading.local()
        self.main_stack = self._stack()
        self.ids = itertools.count()     # next() is one C call, atomic under the GIL

    def _stack(self):
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    def wrap(self, module, attr, name, counter):
        fn = getattr(module, attr)
        before = _stats_before if attr == "displace_layer" else (lambda a, k: None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self.main_stack[-1] if self.main_stack else None)
            sid = next(self.ids)
            span = {"id": sid, "parent": parent, "job": self.job, "name": name,
                    "thread": threading.get_ident(), "counts": {}}
            state = before(args, kwargs)
            stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result, state)
            return result

        setattr(module, attr, traced)


def main(argv):
    out_path, job = argv[0], argv[1]
    aa_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    from toolpath_aa import antialias, cli, evaluate, geometry, ordering, pipeline

    modules = {"cli": cli, "pipeline": pipeline, "geometry": geometry,
               "antialias": antialias, "ordering": ordering, "evaluate": evaluate}
    tracer = Tracer(job)
    for module, attr, name, counter in ENTRY_POINTS:
        tracer.wrap(modules[module], attr, name, counter)
    code = 1
    try:
        code = cli.main(aa_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
