"""The scripts under scripts/ run to completion from any directory, and
the benchmark's traced job still finds every entry point it wraps."""

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from toolpath_aa.cli import main
from toolpath_aa.gcode import emit_gcode, parse_gcode
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
import fixtures
from fixtures import mesh_to_stl_binary
from scenes import parse_stress_gcode

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
TRACEJOB = ROOT / "perfbench" / "tracejob.py"


def run_script(name, cwd, *args):
    result = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                            cwd=cwd, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_sweep_script_prints_both_curves(tmp_path):
    out = run_script("sweep_slicing_plane.py", tmp_path)
    rows = [line.split() for line in out.splitlines() if line.startswith("  s=")]
    assert "wedge (cross-hatched infill)" in out and "dome:" in out
    assert len(rows) == 14
    volumes = [float(row[2]) for row in rows[:7]]
    assert volumes[0] == 0.0 and volumes[-1] > 0.0


def test_wedge_demo_leaves_its_artifacts(tmp_path):
    out = run_script("wedge_demo.py", tmp_path)
    assert "artifacts in" in out
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {"wedge.stl", "wedge_flat.gcode", "wedge_aa.gcode",
                     "wedge_report.json", "wedge_aa_errors.ply",
                     "wedge_flat_errors.ply", "wedge_summary.json"}
    report = json.loads((tmp_path / "out" / "wedge_report.json").read_text())
    assert report["displacement"]["vertices_displaced"] > 0
    summary = json.loads((tmp_path / "out" / "wedge_summary.json").read_text())
    assert summary["aa_error_max_mm"] < summary["flat_error_max_mm"]
    for name in ("wedge_aa_errors.ply", "wedge_flat_errors.ply"):
        assert (tmp_path / "out" / name).read_text().startswith("ply\n")


def test_output_digests_leave_out_the_timings(tmp_path):
    # two runs time differently; their digests agree, and the G-code's is
    # that of the pipeline's text
    out = run_script("output_digests.py", tmp_path, "wedge")
    assert run_script("output_digests.py", tmp_path, "wedge") == out
    rows = [line.split() for line in out.splitlines()]
    assert [row[:2] for row in rows] == [["wedge", "plain"],
                                         ["wedge", "weighted"]]
    mesh, gcode = fixtures.wedge_fixture()
    _, _, text = run_pipeline(PipelineConfig(), gcode_text=gcode, mesh=mesh)
    assert rows[0][3] == hashlib.sha256(text.encode()).hexdigest()
    assert all(len(row[5]) == 64 for row in rows)


def test_output_digests_cover_the_error_map(tmp_path):
    # two runs agree, the CSV's digest is that of the map the pipeline
    # writes, and the script leaves no file where it runs
    out = run_script("output_digests.py", tmp_path, "emap")
    assert run_script("output_digests.py", tmp_path, "emap") == out
    assert not any(tmp_path.iterdir())
    rows = [line.split() for line in out.splitlines()]
    assert [row[:3] + row[4:5] + row[6:7] for row in rows] == [
        ["emap", "plain", "csv", "ply", "report"]]
    mesh, gcode = fixtures.dome_fixture()
    path = tmp_path / "map.csv"
    run_pipeline(PipelineConfig(ordering_enabled=False, error_map_path=str(path)),
                 gcode_text=gcode, mesh=mesh)
    assert rows[0][3] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert all(len(rows[0][i]) == 64 for i in (3, 5, 7))


def test_output_digests_cover_the_parser(tmp_path):
    # the digests of the parse-stress program as parsed and emitted again,
    # and of its vertex bytes; the default run leaves it out
    out = run_script("output_digests.py", tmp_path, "parse")
    assert run_script("output_digests.py", tmp_path, "parse") == out
    [row] = [line.split() for line in out.splitlines()]
    program = parse_gcode(parse_stress_gcode())
    vertices = b"".join(p.vertices.tobytes() for p in program.all_toolpaths())
    emitted = emit_gcode(program).encode()
    assert row == ["parse", "-", "gcode", hashlib.sha256(emitted).hexdigest(),
                   "vertices", hashlib.sha256(vertices).hexdigest()]


def test_output_digests_cover_the_bulk_part(tmp_path, monkeypatch):
    # the G-code digest is that of what `aa` writes from the benchmark's
    # files for the seed-0 `bulk` part, with ordering off
    out = run_script("output_digests.py", tmp_path, "bulk")
    [row] = [line.split() for line in out.splitlines()]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    parts = importlib.import_module("parts")
    part = parts.bulk(0, parts.offset(0))
    (tmp_path / "in.gcode").write_text(part.gcode)
    (tmp_path / "in.stl").write_bytes(part.stl)
    assert main(["--gcode", str(tmp_path / "in.gcode"), "--mesh",
                 str(tmp_path / "in.stl"), "--out", str(tmp_path / "out.gcode"),
                 "--no-ordering"]) == 0
    gcode_sha = hashlib.sha256((tmp_path / "out.gcode").read_bytes()).hexdigest()
    assert row[:4] == ["bulk", "plain", "gcode", gcode_sha]
    assert row[4] == "report" and len(row[5]) == 64


def test_output_digests_print_the_pinned_lines(tmp_path):
    # the outputs' digests of the inputs that run in seconds, as committed
    # in tests/data/output_digests.txt: a change that alters an output
    # byte fails here, and one that alters it on purpose updates the file
    pinned = (ROOT / "tests" / "data" / "output_digests.txt").read_text()
    names = dict.fromkeys(line.split()[0] for line in pinned.splitlines())
    assert set(names) == {"wedge", "hatch", "dome", "loops", "retracts",
                          "hops", "parse", "emap", "bulk"}
    assert run_script("output_digests.py", tmp_path, *names) == pinned


def load_tracejob():
    spec = importlib.util.spec_from_file_location("tracejob", TRACEJOB)
    tracejob = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracejob)
    return tracejob


def test_trace_job_entry_points_resolve_and_count(tmp_path, monkeypatch):
    # perfbench/tracejob.py replaces each entry point at the module
    # attribute the pipeline calls it through, and reads counts from its
    # arguments and result; a renamed function or a changed return would
    # otherwise only show as a missing metric
    tracejob = load_tracejob()
    modules = {}
    for module, attr, _name, _counter in tracejob.ENTRY_POINTS:
        mod = modules.setdefault(
            module, importlib.import_module(f"toolpath_aa.{module}"))
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # undo the wrap
    tracer = tracejob.Tracer("contract")
    for module, attr, name, counter in tracejob.ENTRY_POINTS:
        tracer.wrap(modules[module], attr, name, counter)

    mesh, gcode = fixtures.wedge_fixture(cross_hatch=True)
    (tmp_path / "in.gcode").write_text(gcode)
    (tmp_path / "in.stl").write_bytes(mesh_to_stl_binary(mesh))
    code = modules["cli"].main([
        "--gcode", str(tmp_path / "in.gcode"), "--mesh", str(tmp_path / "in.stl"),
        "--out", str(tmp_path / "out.gcode"), "--sweep-s", "0.1,0.3",
        "--error-map", str(tmp_path / "errors.csv"),
        "--report", str(tmp_path / "report.json")])
    assert code == 0
    assert {s["name"] for s in tracer.spans} == {
        name for _module, _attr, name, _counter in tracejob.ENTRY_POINTS}
    assert not any("error" in s for s in tracer.spans)
    counts = {}
    for span in tracer.spans:
        for key, value in span["counts"].items():
            counts[key] = counts.get(key, 0) + value
    assert counts["vertices"] >= counts["displaced"] > 0
    assert counts["rays"] > 0 and counts["edges"] > 0
    # the tracer reads len() of find_neighbors', split_paths' and
    # reduce_overlap_flow's first results
    report = json.loads((tmp_path / "report.json").read_text())
    layers = report["ordering"]["layers"]
    assert counts["pairs"] == sum(r.get("neighbor_pairs", 0) for r in layers)
    assert counts["subpaths"] == sum(r.get("subpaths", 0) for r in layers)
    assert counts["pairs"] > 0
    assert counts["records"] == report["overlap"]["overlap_records"] > 0


def test_trace_job_script_spans_every_entry_point(tmp_path):
    # the benchmark's traced pass runs the script in a fresh interpreter:
    # every entry point it wraps must fire on an ordered wedge with a
    # sweep and an error map
    mesh, gcode = fixtures.wedge_fixture()
    (tmp_path / "in.gcode").write_text(gcode)
    (tmp_path / "in.stl").write_bytes(mesh_to_stl_binary(mesh))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(TRACEJOB), "spans.json", "wedge", "--",
         "--gcode", "in.gcode", "--mesh", "in.stl", "--out", "out.gcode",
         "--sweep-s", "0.3", "--error-map", "map.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["exit"] == 0
    assert {s["name"] for s in trace["spans"]} == {
        name for _module, _attr, name, _counter in load_tracejob().ENTRY_POINTS}
