"""Job-level benchmark for the `aa` CLI.

    python3 perfbench/run.py [--workload order,bulk,study] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each job is a fresh `aa` process
(the console-script entry point, with PYTHONPATH=src), one after another:
a closed loop with one client. Inputs come from perfbench/parts.py and
every output is checked by perfbench/gcheck.py; neither imports the
package under test. The last line of standard output is one JSON object
with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced pass (--trace 1). See perfbench/BASELINE.md for the workloads and
the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gcheck  # noqa: E402
import parts   # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
AA = "import sys; from toolpath_aa.cli import main; sys.exit(main())"
SETUP_REPEATS = 7
MIN_PASSES = 2               # outputs of two passes must agree byte for byte
DEADLINE_S = 170.0           # every run ends before this, hung jobs included
SWEEP = "0,0.06,0.1,0.2,0.3"
# end-to-end metrics in the JSON line: the ones every workload has and that
# are never 0 (failed_share and surface_err_mm are in the printed table only)
END_TO_END = {"wall_s", "vertices_per_s", "setup_s", "peak_rss_mb", "seams",
              "print_time_ratio", "volume_err"}

# entry points each workload must reach; a missing one is reported as such
COMMON = {"pipeline.run_pipeline", "pipeline.parse_gcode", "pipeline.emit_gcode",
          "geometry.load_mesh_file", "geometry.build_vertical_index",
          "antialias.cast_vertical_batch", "antialias.resample_path",
          "antialias.displace_layer", "antialias.rescale_paths",
          "antialias.reduce_overlap_flow", "evaluate.estimate_print_time"}
ORDERING = {"ordering.find_neighbors", "ordering.split_paths",
            "ordering.build_constraint_graph", "ordering.order_paths",
            "ordering.relink_travels"}
STUDY = {"antialias.sweep_slicing_plane", "evaluate.tracks_from_program",
         "evaluate.error_map"}


@dataclass
class Job:
    name: str
    part: parts.Part
    args: list = field(default_factory=list)
    report: bool = False          # the sweep check reads the --report JSON
    error_map: bool = False


def workload_jobs(name, seed):
    shift = parts.offset(seed)
    if name == "order":
        # the shipped fixtures for every seed: a sub-millimetre shift of the
        # wedge changes the ordering search's work by up to 5x (BASELINE.md)
        return [Job("wedge", parts.wedge((0.0, 0.0))),
                Job("wedge_hatch", parts.wedge((0.0, 0.0), cross_hatch=True))]
    if name == "bulk":
        return [Job("bulk", parts.bulk(seed, shift), ["--no-ordering"])]
    if name == "study":
        return [Job("dome", parts.dome(shift), ["--no-ordering", "--sweep-s", SWEEP],
                    report=True, error_map=True)]
    raise SystemExit(f"unknown workload {name!r}; choose from order, bulk, study")


EXPECTED = {"order": COMMON | ORDERING, "bulk": COMMON, "study": COMMON | STUDY}


# ---------------------------------------------------------------------------
# processes

def spawn(cmd, log, deadline):
    """Run one process to completion; returns (wall s, exit code, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup_times(deadline, log):
    """Fresh interpreters importing toolpath_aa.cli; the first warms the
    bytecode cache and is not counted."""
    cmd = [sys.executable, "-c", "import toolpath_aa.cli"]
    times = []
    for k in range(SETUP_REPEATS + 1):
        wall, code, _ = spawn(cmd, log, deadline)
        if code != 0:
            raise SystemExit(f"importing toolpath_aa.cli failed, see {log}")
        if k:
            times.append(wall)
    return times


# ---------------------------------------------------------------------------
# one pass over a workload's jobs

@dataclass
class Result:
    job: str
    wall: float
    exit: int
    rss_mb: float
    digest: str = ""
    metrics: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    gates: list = field(default_factory=list)

    @property
    def completed(self):
        return self.exit == 0 and not self.errors


def job_files(run_dir, job, tag):
    stem = run_dir / f"{job.name}-{tag}"
    return {"out": stem.with_suffix(".gcode"), "report": stem.with_suffix(".json"),
            "csv": stem.with_suffix(".csv"), "log": stem.with_suffix(".log"),
            "spans": run_dir / f"{job.name}-{tag}.spans.json"}


def aa_args(run_dir, job, files):
    args = ["--gcode", str(run_dir / f"{job.name}.gcode"),
            "--mesh", str(run_dir / f"{job.name}.stl"), "--out", str(files["out"])]
    if job.report:
        args += ["--report", str(files["report"])]
    if job.error_map:
        args += ["--error-map", str(files["csv"])]
    return args + job.args


def run_pass(run_dir, jobs, tag, deadline, traced=False):
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        files = job_files(run_dir, job, tag)
        for f in files.values():
            f.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "tracejob.py"), str(files["spans"]),
                   f"{job.name}-{tag}", "--"]
        else:
            cmd = [sys.executable, "-c", AA]
        wall, code, rss = spawn(cmd + aa_args(run_dir, job, files), files["log"], deadline)
        results.append(Result(job.name, wall, code, rss))
    return time.perf_counter() - t0, results


def check_pass(run_dir, jobs, refs, tag, results):
    for job, res in zip(jobs, results):
        files = job_files(run_dir, job, tag)
        if res.exit != 0:
            log = files["log"].read_text(errors="replace").strip().splitlines()
            res.errors.append(f"exit {res.exit}: {log[-1] if log else ''}")
            continue
        if not files["out"].exists():
            res.errors.append("no output written")
            continue
        data = files["out"].read_bytes()
        res.digest = hashlib.sha256(data).hexdigest()
        res.metrics, errors, gates = gcheck.check_output(refs[job.name], data.decode())
        res.errors += errors
        res.gates += gates
        if job.report:
            res.errors += gcheck.check_sweep(json.loads(files["report"].read_text())["sweep_s"])
        if job.error_map:
            res.metrics["surface_err_mm"] = gcheck.surface_error(refs[job.name], files["csv"])


def check_repeats(passes):
    """The same input must give the same output bytes on every pass."""
    first = {r.job: r.digest for r in passes[0]}
    for results in passes[1:]:
        for r in results:
            if r.digest and first[r.job] and r.digest != first[r.job]:
                r.errors.append("output SHA-256 differs from the first pass")


# ---------------------------------------------------------------------------
# end-to-end metrics

def end_to_end(walls, passes, setup, moves):
    jobs = [r for results in passes for r in results]
    done = [r for r in passes[0] if r.completed]
    rates = [sum(moves[r.job] for r in results if r.completed) / w
             for w, results in zip(walls, passes)]
    m = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "vertices_per_s": (statistics.median(rates), "1/s", len(rates)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (max(r.rss_mb for r in jobs), "MB", len(jobs)),
        "failed_share": (sum(1 for r in jobs if r.errors or r.gates) / len(jobs),
                         "ratio", len(jobs)),
    }
    if done:
        m["seams"] = (sum(r.metrics["seams"] for r in done), "count", len(done))
        for key in ("print_time_ratio", "volume_err"):
            m[key] = (max(r.metrics[key] for r in done), "ratio", len(done))
        with_map = [r.metrics["surface_err_mm"] for r in done if "surface_err_mm" in r.metrics]
        if with_map:
            m["surface_err_mm"] = (max(with_map), "mm", len(with_map))
    return m


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def wall(spans):
    """Time during which at least one of `spans` was open, summed over jobs.
    Spans on pool threads overlap, so this is less than their summed length."""
    jobs = {}
    for s in spans:
        jobs.setdefault(s["job"], []).append((s["start"], s["end"]))
    return sum(_union(iv) for iv in jobs.values())


class SpanSet:
    def __init__(self, span_files):
        self.spans = []
        for path in span_files:
            if path.exists():
                self.spans += json.loads(path.read_text())["spans"]
        by_key = {(s["job"], s["id"]): s for s in self.spans}
        for s in self.spans:
            up, p = [], s["parent"]
            while p is not None:
                up.append(by_key[(s["job"], p)]["name"])
                p = by_key[(s["job"], p)]["parent"]
            s["up"] = up

    def named(self, name, outside=None):
        """Outermost spans of `name`, leaving out those under `outside`."""
        return [s for s in self.spans if s["name"] == name and name not in s["up"]
                and outside not in s["up"]]

    def children(self, name):
        return [s for s in self.spans if s["up"][:1] == [name]]


SWEEP_SPAN = "antialias.sweep_slicing_plane"
LAYER_SPANS = ("antialias.resample_path", "antialias.displace_layer", "antialias.rescale_paths")

# metric: (unit, entry point it needs, value from a SpanSet). Times are wall
# time (union of span intervals); antialias.busy_s is the summed span time.
# Pipeline layer work (resample, displace, rescale) leaves out the sweep's
# re-displacement, which antialias.sweep_s covers; geometry.cast_s counts
# every cast, the sweep's included.
PER_LAYER = {
    "ordering.neighbors_s": ("s", "ordering.find_neighbors", None),
    "ordering.split_s": ("s", "ordering.split_paths", None),
    "ordering.graph_s": ("s", "ordering.build_constraint_graph", None),
    "ordering.search_s": ("s", "ordering.order_paths", None),
    "ordering.relink_s": ("s", "ordering.relink_travels", None),
    "ordering.pairs": ("count", "ordering.find_neighbors", "pairs"),
    "ordering.subpaths": ("count", "ordering.split_paths", "subpaths"),
    "ordering.edges": ("count", "ordering.build_constraint_graph", "edges"),
    "ordering.expansions": ("count", "ordering.order_paths", "expansions"),
    "ordering.suboptimal_layers": ("count", "ordering.order_paths", "suboptimal"),
    "ordering.errors": ("count", None, lambda t: sum(
        1 for n in ORDERING for s in t.named(n) if "error" in s)),
    "gcode.parse_s": ("s", "pipeline.parse_gcode", None),
    "gcode.parse_calls": ("count", "pipeline.parse_gcode",
                          lambda t: len(t.named("pipeline.parse_gcode"))),
    "gcode.lines": ("count", "pipeline.parse_gcode", "lines"),
    "gcode.emit_s": ("s", "pipeline.emit_gcode", None),
    "geometry.load_s": ("s", "geometry.load_mesh_file", None),
    "geometry.index_s": ("s", "geometry.build_vertical_index", None),
    "geometry.cast_s": ("s", "antialias.cast_vertical_batch", None),
    "geometry.cast_calls": ("count", "antialias.cast_vertical_batch",
                            lambda t: len(t.named("antialias.cast_vertical_batch"))),
    "geometry.rays": ("count", "antialias.cast_vertical_batch", "rays"),
    "geometry.rays_per_vertex": ("ratio", "antialias.cast_vertical_batch", lambda t: (
        _count(t, "antialias.cast_vertical_batch", "rays")
        / max(1, _count(t, "antialias.displace_layer", "vertices", SWEEP_SPAN)))),
    "antialias.resample_s": ("s", "antialias.resample_path", lambda t: wall(
        t.named("antialias.resample_path", SWEEP_SPAN))),
    "antialias.displace_s": ("s", "antialias.displace_layer", lambda t: (
        wall(t.named("antialias.displace_layer", SWEEP_SPAN))
        - wall(t.named("antialias.cast_vertical_batch", SWEEP_SPAN)))),
    "antialias.rescale_s": ("s", "antialias.rescale_paths", None),
    "antialias.overlap_s": ("s", "antialias.reduce_overlap_flow", None),
    "antialias.overlap_records": ("count", "antialias.reduce_overlap_flow", "records"),
    "antialias.vertices": ("count", "antialias.displace_layer", lambda t: _count(
        t, "antialias.displace_layer", "vertices", SWEEP_SPAN)),
    "antialias.displaced": ("count", "antialias.displace_layer", lambda t: _count(
        t, "antialias.displace_layer", "displaced", SWEEP_SPAN)),
    "antialias.busy_s": ("s", "antialias.displace_layer", lambda t: sum(
        s["end"] - s["start"] for n in LAYER_SPANS for s in t.named(n, SWEEP_SPAN))),
    "antialias.wall_s": ("s", "antialias.displace_layer", lambda t: wall(
        [s for n in LAYER_SPANS for s in t.named(n, SWEEP_SPAN)])),
    "antialias.sweep_s": ("s", SWEEP_SPAN, None),
    "evaluate.tracks_s": ("s", "evaluate.tracks_from_program", None),
    "evaluate.error_map_s": ("s", "evaluate.error_map", None),
    "evaluate.samples": ("count", "evaluate.error_map", "samples"),
    "evaluate.print_time_s": ("s", "evaluate.estimate_print_time", None),
    "pipeline.self_s": ("s", "pipeline.run_pipeline", lambda t: (
        wall(t.named("pipeline.run_pipeline")) - wall(t.children("pipeline.run_pipeline")))),
}


def _count(spans, name, key, outside=None):
    return sum(s["counts"].get(key, 0) for s in spans.named(name, outside))


def per_layer(spans, expected, job_walls, traced_wall, plain_wall):
    """Per-layer metrics of one traced pass, and the entry points that
    `expected` names but no span reached."""
    missing = sorted(expected - {s["name"] for s in spans.spans})
    m = {}
    for key, (unit, entry, how) in PER_LAYER.items():
        if entry in missing:
            value = None
        elif how is None:
            value = wall(spans.named(entry))
        elif isinstance(how, str):
            value = _count(spans, entry, how)
        else:
            value = how(spans)
        m[key] = (value, unit)
    run = wall(spans.named("pipeline.run_pipeline"))
    m["cli.overhead_s"] = (None if "pipeline.run_pipeline" in missing
                           else sum(job_walls.values()) - run, "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return m, missing


# ---------------------------------------------------------------------------

def fmt(v):
    if v is None:
        return "missing"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def prepare(run_dir, jobs):
    refs, moves = {}, {}
    for job in jobs:
        (run_dir / f"{job.name}.gcode").write_text(job.part.gcode)
        (run_dir / f"{job.name}.stl").write_bytes(job.part.stl)
        refs[job.name] = gcheck.reference(job.part)
        moves[job.name] = refs[job.name].gcode.moves
    return refs, moves


def report_jobs(passes):
    for i, results in enumerate(passes):
        for r in results:
            state = "FAILED" if not r.completed else "GATE" if r.gates else "ok"
            print(f"  pass {i} {r.job:<12} {state:<6} wall {r.wall:8.3f} s  "
                  f"rss {r.rss_mb:6.1f} MB  sha256 {r.digest[:16] or '-'}")
            for problem in r.errors + r.gates:
                print(f"      {problem}")


def run_workload(name, seed, seconds, trace, deadline):
    jobs = workload_jobs(name, seed)
    run_dir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        refs, moves = prepare(run_dir, jobs)
        print(f"workload {name}, seed {seed}: closed loop, 1 client, "
              f"{len(jobs)} job(s) per pass")
        for job in jobs:
            print(f"  input {job.name:<12} {moves[job.name]:6d} extruding moves  "
                  f"{job.part.triangles:6d} triangles  "
                  f"gcode sha256 {hashlib.sha256(job.part.gcode.encode()).hexdigest()}  "
                  f"stl sha256 {hashlib.sha256(job.part.stl).hexdigest()}")
        if trace:
            return traced_run(name, run_dir, jobs, refs, seed, deadline)
        setup = setup_times(deadline, run_dir / "setup.log")
        walls, passes = [], []
        t0 = time.perf_counter()
        while True:
            wall, results = run_pass(run_dir, jobs, f"p{len(passes)}", deadline)
            check_pass(run_dir, jobs, refs, f"p{len(passes)}", results)
            walls.append(wall)
            passes.append(results)
            spent = time.perf_counter() - t0
            if len(passes) >= MIN_PASSES and spent + spent / len(passes) > seconds:
                break
        check_repeats(passes)
        report_jobs(passes)
        m = end_to_end(walls, passes, setup, moves)
        print(f"  {'metric':<18} {'value':>12} {'unit':<6} samples")
        for key, (v, unit, n) in m.items():
            print(f"  {key:<18} {fmt(v):>12} {unit:<6} {n}")
        jobs_all = [r for results in passes for r in results]
        failed = sum(1 for r in jobs_all if not r.completed)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in m.items()
                   if k in END_TO_END}
        return {"correct": failed == 0 and set(metrics) == END_TO_END,
                "attempted": len(jobs_all), "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def traced_run(name, run_dir, jobs, refs, seed, deadline):
    plain_wall, plain = run_pass(run_dir, jobs, "plain", deadline)
    traced_wall, traced = run_pass(run_dir, jobs, "traced", deadline, traced=True)
    check_pass(run_dir, jobs, refs, "plain", plain)
    check_pass(run_dir, jobs, refs, "traced", traced)
    passes = [plain, traced]
    check_repeats(passes)
    report_jobs(passes)
    span_files = [job_files(run_dir, job, "traced")["spans"] for job in jobs]
    spans = SpanSet(span_files)
    keep = WORK / f"spans-{name}-seed{seed}.json"
    keep.write_text(json.dumps({"workload": name, "seed": seed, "spans": spans.spans}))
    job_walls = {f"{r.job}-traced": r.wall for r in traced}
    m, missing = per_layer(spans, EXPECTED[name], job_walls, traced_wall, plain_wall)
    print(f"  traced pass {traced_wall:.3f} s, untraced {plain_wall:.3f} s; "
          f"{len(spans.spans)} spans kept in {keep.relative_to(ROOT)}")
    for key, (v, unit) in m.items():
        share = f"{100 * v / traced_wall:5.1f}%" if unit == "s" and v is not None else ""
        print(f"  {key:<28} {fmt(v):>12} {unit:<6} {share}")
    for entry in missing:
        print(f"  missing: {entry} was never called")
    jobs_all = plain + traced
    failed = sum(1 for r in jobs_all if not r.completed)
    return {"correct": failed == 0, "attempted": len(jobs_all), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="order,bulk,study")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "toolpath_aa" / "cli.py").is_file():
        print(f"perfbench: no toolpath_aa sources under {SRC}; run from the root "
              "of a toolpath-aa checkout", file=sys.stderr)
        return 2
    for name in args.workload.split(","):
        result = run_workload(name.strip(), args.seed, args.seconds, args.trace,
                              time.perf_counter() + DEADLINE_S)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
