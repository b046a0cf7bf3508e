import copy
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toolpath_aa import antialias, cli, evaluate, ordering, pipeline
from toolpath_aa.files import replace_atomically
from toolpath_aa.gcode import PrinterProfile, parse_gcode, total_extrusion
from toolpath_aa.geometry import build_mesh, build_vertical_index
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
from fixtures import (dome_fixture, mesh_to_stl_binary, wedge_fixture,
                      wedge_mesh)
from scenes import flat_box_fixture, nested_loops_gcode, retract_wedge_gcode


def motion_values(program):
    out = []
    for layer in program.layers:
        for tp in layer.toolpaths():
            for v in tp.vertices[:, :5].tolist():
                out.append(tuple(round(c, 5) for c in v))
    return out


def test_flat_box_pass_through():
    profile = PrinterProfile()
    mesh, gcode = flat_box_fixture(profile)
    config = PipelineConfig(profile=profile)
    program, report, text = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    assert report["displacement"]["vertices_displaced"] == 0
    # zero displacement: emitted motion equals the input motion exactly
    assert motion_values(program) == motion_values(parse_gcode(gcode))
    assert motion_values(parse_gcode(text)) == motion_values(parse_gcode(gcode))
    # ordering skipped everywhere
    assert all(r.get("skipped") for r in report["ordering"]["layers"])


def test_wedge_end_to_end_report(tmp_path, monkeypatch):
    monkeypatch.setattr(ordering, "EXPANSION_CAP", 20_000)
    profile = PrinterProfile()
    mesh, gcode = wedge_fixture(profile)
    report_path = tmp_path / "stats.json"
    out_path = tmp_path / "out.gcode"
    config = PipelineConfig(profile=profile,
                            out_path=str(out_path),
                            report_path=str(report_path),
                            error_map_path=str(tmp_path / "map.ply"),
                            sweep_s=[0.0, 0.3])
    program, report, text = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    assert report["displacement"]["vertices_displaced"] > 0
    data = json.loads(report_path.read_text())
    assert data["input"]["layers"] == len(program.layers)
    assert (tmp_path / "map.ply").exists()
    assert out_path.exists()
    reparsed = parse_gcode(out_path.read_text())
    assert len(reparsed.layers) == len(program.layers)
    assert [r["s"] for r in data["sweep_s"]] == [0.0, 0.3]
    assert data["schema_version"] == 5
    stages = dict(data["timings_s"])
    total = stages.pop("total")
    assert set(stages) == {"load", "parse", "index", "antialias", "overlap",
                           "sweep", "ordering", "emit", "print_time",
                           "error_map"}
    assert sum(stages.values()) <= total
    # each ordered layer times its stages, which lie inside the ordering's
    layers = [r for r in data["ordering"]["layers"] if not r.get("skipped")]
    assert layers
    layer_stages = [r[k] for r in layers
                    for k in ("neighbors_s", "split_s", "graph_s",
                              "wall_time_s", "relink_s")]
    assert min(layer_stages) >= 0.0
    assert sum(layer_stages) <= stages["ordering"]
    # layer monotonicity survives every stage
    for prog in (program, reparsed):
        zs = [l.base_z for l in prog.layers]
        assert all(a < b for a, b in zip(zs, zs[1:]))


def sweep_reference(gcode, mesh, profile, s_values):
    """Overlap volume per s from the input parsed once: each s resamples
    and displaces a copy of it layer by layer, and a layer where no vertex
    moved keeps its parsed rows."""
    program = parse_gcode(gcode)
    index = build_vertical_index(mesh)
    rows = []
    for s in s_values:
        scratch = copy.deepcopy(program)
        for layer in scratch.layers:
            paths = layer.toolpaths()
            parsed = [path.vertices for path in paths]
            for path in paths:
                antialias.resample_path(path, profile.w)
            _, stats = antialias.displace_layer(paths, index,
                                                replace(profile, s=s))
            if not stats.displaced:
                for path, verts in zip(paths, parsed):
                    path.vertices = verts
        rows.append((s, antialias.detect_overlaps(scratch, profile)[1][
            "overlap_volume_mm3"]))
    return rows


@pytest.mark.parametrize("name", ["wedge_hatch", "dome"])
def test_sweep_parses_once_and_matches_reference(name, monkeypatch):
    profile = PrinterProfile()
    if name == "dome":
        mesh, gcode = dome_fixture(profile)
    else:
        mesh, gcode = wedge_fixture(profile, cross_hatch=True)
    s_values = [0.0, 0.06, 0.1, 0.2, 0.3]
    calls = []

    def counted(text):
        calls.append(text)
        return parse_gcode(text)

    monkeypatch.setattr(pipeline, "parse_gcode", counted)
    config = PipelineConfig(profile=profile, ordering_enabled=False,
                            sweep_s=s_values)
    _, report, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    assert len(calls) == 1
    got = [(r["s"], float(r["overlap_volume_mm3"]).hex())
           for r in report["sweep_s"]]
    ref = sweep_reference(gcode, mesh, profile, s_values)
    assert got == [(s, float(v).hex()) for s, v in ref]
    assert ref[-1][1] > 0.0


def sloped_block_mesh(z0=0.65, z1=0.85, lx=10.0, ly=10.0):
    """A block whose flat top rises along x from z0 to z1."""
    vertices = np.array([(0, 0, 0), (lx, 0, 0), (lx, ly, 0), (0, ly, 0),
                         (0, 0, z0), (lx, 0, z1), (lx, ly, z1), (0, ly, z0)],
                        dtype=float)
    quads = [(0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4), (1, 2, 6, 5),
             (2, 3, 7, 6), (3, 0, 4, 7)]
    return build_mesh(vertices[[tri for a, b, c, d in quads
                                for tri in ((a, b, c), (a, c, d))]])


# two 8 mm tracks at z = 0.6, 0.05-0.25 mm under the block's top, and one
# 8.2 mm track across both at z = 1.2, 0.35-0.55 mm above it. For s > 0.25
# the window [s - 0.6, s] raises the lower tracks onto the top and leaves
# the upper layer unmoved, with its one long segment
RAISED_UNDER_UNMOVED_GCODE = """G90
M82
G92 E0
;LAYER:0
G0 X1 Y2 Z0.6 F7200
G1 X9 Y2 E1 F1200
G0 X1 Y2.8
G1 X9 Y2.8 E2
;LAYER:1
G0 X1 Y1.5 Z1.2
G1 X9 Y3.5 E3
"""


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("name", ["wedge", "wedge_hatch", "dome",
                                  "raised_under_unmoved"])
def test_sweep_agrees_with_the_run(name, s):
    # at the profile's own s, the sweep displaces the program as the run
    # does, unmoved layers kept as parsed, so its row is the volume that
    # the run's overlap compensation detects. A sweep that resampled the
    # unmoved upper layer of `raised_under_unmoved` gave 0.73153 mm^3
    # against the run's 0.73172 at s = 0.3 and 0.5
    profile = PrinterProfile(s=s)
    if name == "dome":
        mesh, gcode = dome_fixture(profile)
    elif name == "raised_under_unmoved":
        mesh, gcode = sloped_block_mesh(), RAISED_UNDER_UNMOVED_GCODE
    else:
        mesh, gcode = wedge_fixture(profile, cross_hatch=name == "wedge_hatch")
    config = PipelineConfig(profile=profile, ordering_enabled=False,
                            sweep_s=[s])
    _, report, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    [row] = report["sweep_s"]
    assert (float(row["overlap_volume_mm3"]).hex()
            == float(report["overlap"]["overlap_volume_mm3"]).hex())
    if s >= 0.3:
        assert report["overlap"]["overlap_volume_mm3"] > 0.0


@pytest.mark.parametrize("map_name", ["map.csv", "map.ply"])
def test_failed_run_leaves_existing_outputs_and_no_temporary_file(
        tmp_path, monkeypatch, map_name):
    mesh, gcode = wedge_fixture()
    paths = {name: tmp_path / name
             for name in ("out.gcode", "stats.json", map_name)}
    for path in paths.values():
        path.write_text("from an earlier run\n")
    config = PipelineConfig(out_path=str(paths["out.gcode"]),
                            report_path=str(paths["stats.json"]),
                            error_map_path=str(paths[map_name]),
                            ordering_enabled=False)
    # text that cannot be encoded fails the G-code write itself; the error
    # map before it is written whole but never moved into place, and the
    # report after it never starts
    monkeypatch.setattr(pipeline, "emit_gcode",
                        lambda program: "G1 X0 Y0\n" * 100 + "\ud800\n")
    with pytest.raises(UnicodeEncodeError):
        run_pipeline(config, gcode_text=gcode, mesh=mesh)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(paths)
    for path in paths.values():
        assert path.read_text() == "from an earlier run\n"


def test_binary_replace_keeps_the_target_on_error(tmp_path):
    target = tmp_path / "wedge.stl"
    old = bytes(range(256)) * 4
    target.write_bytes(old)
    with pytest.raises(RuntimeError):
        with replace_atomically(str(target), binary=True) as fh:
            fh.write(b"\x00" * 100)
            raise RuntimeError("failed mid-write")
    assert target.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["wedge.stl"]
    with replace_atomically(str(target), binary=True) as fh:
        fh.write(b"\r\n\xff")
    assert target.read_bytes() == b"\r\n\xff"
    assert [p.name for p in tmp_path.iterdir()] == ["wedge.stl"]


def run_ordered_and_flat(mesh, gcode):
    """(report, re-parsed output) with ordering on, and the re-parsed
    output with it off."""
    with mock.patch.object(ordering, "EXPANSION_CAP", 2_000):
        _, report, text = run_pipeline(PipelineConfig(), gcode_text=gcode,
                                       mesh=mesh)
    _, _, flat = run_pipeline(PipelineConfig(ordering_enabled=False),
                              gcode_text=gcode, mesh=mesh)
    return report, parse_gcode(text), parse_gcode(flat)


@pytest.mark.parametrize("name, dropped", [("dome", {1: 4}),
                                           ("wedge_hatch", {})])
def test_ordering_runs_end_to_end(name, dropped):
    if name == "dome":
        mesh, gcode = dome_fixture()
    else:
        mesh, gcode = wedge_fixture(cross_hatch=True)
    report, ordered, flat = run_ordered_and_flat(mesh, gcode)
    layers = [r for r in report["ordering"]["layers"] if not r.get("skipped")]
    assert layers
    edges = {r["layer"]: r["cycle_edges_dropped"] for r in layers
             if r["cycle_edges_dropped"]}
    assert {k: len(v) for k, v in edges.items()} == dropped
    # the unmodified paths stay out of the ordering, counted apart
    assert sum(r["unmodified_paths"] for r in layers) == {
        "dome": 0, "wedge_hatch": 20}[name]
    for edge in sum(edges.values(), []):
        # each cycle loses its weak edge, not one of the decisive ones
        assert abs(edge["mean_dz_mm"]) <= 0.05
        assert edge["from"] != edge["to"]
        assert len(edge["from_entry"]) == len(edge["to_entry"]) == 3
    assert len(ordered.layers) == len(flat.layers)
    # the report counts the filament the G-code holds
    assert report["output"]["total_e"] == pytest.approx(
        total_extrusion(ordered), abs=1e-4)
    assert total_extrusion(ordered) == pytest.approx(total_extrusion(flat),
                                                     abs=1e-6)


@pytest.mark.parametrize("s", [0.05, 0.3, 0.6])
@pytest.mark.parametrize("name", ["dome", "wedge_hatch"])
def test_no_track_is_thinner_than_the_slicing_plane_position(name, s):
    # the displacement window [s - h, s] leaves every track at least s
    # thick, and PipelineConfig.validate keeps s >= MIN_THICKNESS, so no
    # stage checks a thickness again. Ordering moves no vertex up or down;
    # it is left off on the dome, where it takes seconds
    profile = PrinterProfile(s=s)
    if name == "dome":
        mesh, gcode = dome_fixture(profile)
    else:
        mesh, gcode = wedge_fixture(profile, cross_hatch=True)
    config = PipelineConfig(profile=profile, ordering_enabled=name != "dome")
    program, report, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    tracks = evaluate.tracks_from_program(program, profile)
    assert (tracks[:, 4:6] - tracks[:, 6:8]).min() >= s - 1e-12
    thinnest = report["displacement"]["achieved_thickness_range_mm"][0]
    assert thinnest >= s - 1e-12


@settings(max_examples=6, deadline=None)
@given(st.floats(6.0, 20.0), st.floats(1.0, 3.5), st.floats(8.0, 14.0))
@example(12.0, 1.5, 10.0)
@example(12.09, 3.44, 13.39)
def test_random_domes_order_without_error(radius, cap_height, extent):
    mesh, gcode = dome_fixture(radius=radius, cap_height=cap_height,
                               extent=extent)
    _, ordered, flat = run_ordered_and_flat(mesh, gcode)
    assert len(ordered.layers) == len(flat.layers)
    assert total_extrusion(ordered) == pytest.approx(total_extrusion(flat),
                                                     abs=1e-6)


def test_pipeline_determinism(monkeypatch):
    monkeypatch.setattr(ordering, "EXPANSION_CAP", 20_000)
    profile = PrinterProfile()
    mesh, gcode = wedge_fixture(profile)
    config = PipelineConfig(profile=profile)
    _, _, t1 = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    _, _, t2 = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    assert t1 == t2


def test_wedge_search_proves_every_layer_optimal(monkeypatch):
    # the search stops once its order meets the lower bound, well inside
    # the node budget, instead of exhausting the budget on optimal orders
    profile = PrinterProfile()
    mesh, gcode = wedge_fixture(profile)
    cap = 20_000
    monkeypatch.setattr(ordering, "EXPANSION_CAP", cap)
    config = PipelineConfig(profile=profile)
    _, report, _ = run_pipeline(config, gcode_text=gcode, mesh=mesh)
    layers = [r for r in report["ordering"]["layers"] if not r.get("skipped")]
    assert layers
    for r in layers:
        assert not r["suboptimal"], r["layer"]
        assert r["expansions"] < cap, r["layer"]
        assert r["root_bound"] == r["best_cost"], r["layer"]


def write_fixture_files(tmp_path, cross=False):
    profile = PrinterProfile()
    mesh, gcode = wedge_fixture(profile, cross_hatch=cross)
    gpath = tmp_path / "in.gcode"
    mpath = tmp_path / "model.stl"
    gpath.write_text(gcode)
    mpath.write_bytes(mesh_to_stl_binary(mesh))
    return gpath, mpath


def test_cli_ok(tmp_path, capsys):
    gpath, mpath = write_fixture_files(tmp_path)
    out = tmp_path / "out.gcode"
    rep = tmp_path / "rep.json"
    code = cli.main([
        "--gcode", str(gpath), "--mesh", str(mpath), "--out", str(out),
        "--report", str(rep), "--no-ordering",
    ])
    assert code == 0
    assert out.exists()
    assert "displaced" in capsys.readouterr().out
    assert json.loads(rep.read_text())["displacement"]["vertices_displaced"] > 0


def test_cli_config_error(tmp_path, capsys):
    gpath, mpath = write_fixture_files(tmp_path)
    code = cli.main([
        "--gcode", str(gpath), "--mesh", str(mpath),
        "--out", str(tmp_path / "o.gcode"), "--alpha", "0",
    ])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("args", [["--fini", "-1", "--fmin", "-2"],
                                  ["--fmin", "0"], ["--d", "-0.4"]])
def test_cli_rejects_non_positive_feed_and_width(tmp_path, capsys, args):
    gpath, mpath = write_fixture_files(tmp_path)
    out = tmp_path / "o.gcode"
    code = cli.main(["--gcode", str(gpath), "--mesh", str(mpath),
                     "--out", str(out)] + args)
    assert code == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("flag, value, name", [
    ("--fini", "inf", "f_ini"), ("--h", "inf", "h"),
    ("--filament-diameter", "inf", "filament_diameter"),
    ("--d", "inf", "d"), ("--d", "nan", "d"), ("--tau", "inf", "tau")])
def test_cli_rejects_non_finite_settings(tmp_path, capsys, flag, value, name):
    gpath, mpath = write_fixture_files(tmp_path)
    out = tmp_path / "o.gcode"
    out.write_text("stale")
    before = sorted(tmp_path.iterdir())
    code = cli.main(["--gcode", str(gpath), "--mesh", str(mpath),
                     "--out", str(out), flag, value])
    assert code == cli.EXIT_CONFIG == 2
    assert (f"configuration error: {name} must be finite, got {value}"
            in capsys.readouterr().err)
    assert out.read_text() == "stale"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("number", ["100000000000000000000", "1" * 400],
                         ids=["1e20", "400_digits"])
def test_cli_out_of_range_number_is_a_parse_error(tmp_path, capsys, number):
    # 1e20 mm lies far outside any build volume, and 400 digits read as
    # inf; the rewritten line has the shape of the parser's one-pattern move
    gpath, mpath = write_fixture_files(tmp_path)
    text = gpath.read_text()
    assert text.splitlines()[8].startswith("G1 X2.51478 ")
    gpath.write_text(text.replace("G1 X2.51478", f"G1 X{number}", 1))
    out = tmp_path / "o.gcode"
    out.write_text("stale")
    code = cli.main(["--gcode", str(gpath), "--mesh", str(mpath),
                     "--out", str(out)])
    assert code == cli.EXIT_PARSE == 3
    value = "1e+20" if len(number) < 400 else "inf"
    assert capsys.readouterr().err == (
        f"aa: G-code parse error: line 9: value {value} for word X is out "
        "of range\n")
    assert out.read_text() == "stale"


def test_cli_parse_error(tmp_path, capsys):
    gpath, mpath = write_fixture_files(tmp_path)
    bad = tmp_path / "bad.gcode"
    bad.write_text("G0 X0 Y0 Z0.6\nG2 X5 Y5 I2 J0 E1\n")
    out = tmp_path / "o.gcode"
    code = cli.main([
        "--gcode", str(bad), "--mesh", str(mpath), "--out", str(out),
    ])
    assert code == cli.EXIT_PARSE
    assert not out.exists()


def test_cli_non_utf8_gcode_is_a_parse_error(tmp_path, capsys):
    # the bad byte lies past the first 8 KiB, so the offset is the file's
    _, mpath = write_fixture_files(tmp_path)
    bad = tmp_path / "bad.gcode"
    bad.write_bytes(b"; comment\n" * 1000 + b"G0 X0 Y0 Z0.6 ;\xff\n")
    out = tmp_path / "o.gcode"
    code = cli.main([
        "--gcode", str(bad), "--mesh", str(mpath), "--out", str(out),
    ])
    assert code == cli.EXIT_PARSE == 3
    assert capsys.readouterr().err == (
        "aa: G-code parse error: line 1001: byte 10015 is not UTF-8\n")
    assert not out.exists()


@pytest.mark.parametrize("missing", ["--gcode", "--mesh"])
def test_cli_missing_input_is_an_io_error(tmp_path, capsys, missing):
    gpath, mpath = write_fixture_files(tmp_path)
    out = tmp_path / "o.gcode"
    args = {"--gcode": str(gpath), "--mesh": str(mpath), "--out": str(out),
            missing: str(tmp_path / "absent")}
    code = cli.main([word for item in args.items() for word in item])
    assert code == cli.EXIT_IO == 8
    err = capsys.readouterr().err
    assert err.startswith("aa: I/O error: ")
    assert repr(str(tmp_path / "absent")) in err
    assert not out.exists()


def test_cli_out_in_a_missing_directory_is_an_io_error(tmp_path, capsys):
    gpath, mpath = write_fixture_files(tmp_path)
    out = tmp_path / "missing" / "o.gcode"
    code = cli.main([
        "--gcode", str(gpath), "--mesh", str(mpath), "--out", str(out),
        "--no-ordering",
    ])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("aa: I/O error: ") and repr(str(out)) in err
    # nothing is left behind, no temporary file and no directory
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "in.gcode", "model.stl"]


def test_cli_failed_run_keeps_an_earlier_output(tmp_path, capsys):
    _, mpath = write_fixture_files(tmp_path)
    bad = tmp_path / "bad.gcode"
    bad.write_text("G0 X0 Y0 Z0.6\nG2 X5 Y5 I2 J0 E1\n")
    out = tmp_path / "out.gcode"
    out.write_bytes(b"old output")
    code = cli.main([
        "--gcode", str(bad), "--mesh", str(mpath), "--out", str(out),
    ])
    assert code == cli.EXIT_PARSE == 3
    assert out.read_bytes() == b"old output"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.gcode", "in.gcode", "model.stl", "out.gcode"]


def test_cli_outputs_are_replaced_together(tmp_path, capsys, monkeypatch):
    # the report cannot be opened, after the error map and the G-code are:
    # the run stops before it parses anything, neither of them replaces its
    # earlier file, and no temporary file is left behind
    gpath, mpath = write_fixture_files(tmp_path)
    out, emap = tmp_path / "out.gcode", tmp_path / "map.csv"
    out.write_bytes(b"old output")
    emap.write_bytes(b"old map")

    def parse_gcode(text):
        raise AssertionError("parsed before the outputs were opened")

    monkeypatch.setattr(pipeline, "parse_gcode", parse_gcode)
    code = cli.main([
        "--gcode", str(gpath), "--mesh", str(mpath), "--out", str(out),
        "--no-ordering", "--error-map", str(emap),
        "--report", str(tmp_path / "nodir" / "r.json"),
    ])
    assert code == cli.EXIT_IO == 8
    assert out.read_bytes() == b"old output"
    assert emap.read_bytes() == b"old map"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "in.gcode", "map.csv", "model.stl", "out.gcode"]


def test_cli_error_map_writer_follows_the_suffix_in_any_case(tmp_path,
                                                             capsys):
    # an upper-case .CSV gets the CSV writer; a suffix that names neither
    # writer is a configuration error before any output is opened
    gpath, mpath = write_fixture_files(tmp_path)
    args = ["--gcode", str(gpath), "--mesh", str(mpath), "--no-ordering",
            "--out", str(tmp_path / "out.gcode")]
    assert cli.main([*args, "--error-map", str(tmp_path / "m.CSV")]) == 0
    assert (tmp_path / "m.CSV").read_text().startswith("x,y,z,distance_mm\n")
    (tmp_path / "out.gcode").unlink()
    code = cli.main([*args, "--error-map", str(tmp_path / "m.txt")])
    assert code == cli.EXIT_CONFIG == 2
    assert "m.txt" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "in.gcode", "m.CSV", "model.stl"]


def test_cli_geometry_error(tmp_path, capsys):
    gpath, _ = write_fixture_files(tmp_path)
    bad = tmp_path / "bad.stl"
    bad.write_bytes(b"\0" * 60)
    code = cli.main([
        "--gcode", str(gpath), "--mesh", str(bad),
        "--out", str(tmp_path / "o.gcode"),
    ])
    assert code == cli.EXIT_GEOMETRY


def test_cli_ascii_stl_loop_without_endloop_is_a_geometry_error(tmp_path, capsys):
    gpath, _ = write_fixture_files(tmp_path)
    bad = tmp_path / "open.stl"
    bad.write_text("solid s\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\n"
                   "vertex 1 0 0\nvertex 0 1 0\nendfacet\nendsolid s\n")
    code = cli.main(["--gcode", str(gpath), "--mesh", str(bad),
                     "--out", str(tmp_path / "o.gcode")])
    assert code == cli.EXIT_GEOMETRY
    assert "(line 8)" in capsys.readouterr().err


def test_cli_evaluation_error(tmp_path, capsys):
    # G1 moves without a feedrate, off the mesh so that no rescale sets
    # one, leave the print time undefined
    _, mpath = write_fixture_files(tmp_path)
    bad = tmp_path / "nofeed.gcode"
    bad.write_text("G0 X30 Y1 Z0.6\nG1 X35 Y1 E1\nG1 X35 Y5 E2\n")
    out = tmp_path / "o.gcode"
    out.write_text("stale")
    code = cli.main([
        "--gcode", str(bad), "--mesh", str(mpath), "--out", str(out),
    ])
    assert code == cli.EXIT_EVALUATION == 7
    assert "evaluation error" in capsys.readouterr().err
    assert out.read_text() == "stale"      # a failed run leaves --out as it was


def test_cli_keeps_wipes_and_primes_on_layers_it_does_not_reorder(tmp_path,
                                                                  capsys):
    # each of the wedge's 77 travels after the first has a wipe that
    # retracts 0.8 mm before it and a prime that gives it back after it
    _, mpath = write_fixture_files(tmp_path)
    gpath, out, rep = (tmp_path / name
                       for name in ("retracts.gcode", "o.gcode", "r.json"))
    gpath.write_text(retract_wedge_gcode())
    # with ordering on, relinking still drops them (ROADMAP item 4); the
    # print times are those of the code that dropped every wipe's E
    for flags, drops, seconds in ((["--no-ordering"], 77, 43.7176239219675),
                                  ([], 0, 41.12732160110534)):
        assert cli.main(["--gcode", str(gpath), "--mesh", str(mpath),
                         "--out", str(out), "--report", str(rep)] + flags) == 0
        es = [float(e) for e in
              re.findall(r"^G[01] .*E(\S+)", out.read_text(), re.M)]
        assert es[-1] == 54.90099              # the plain wedge's last E
        assert sum(b < a for a, b in zip(es, es[1:])) == drops
        report = json.loads(rep.read_text())
        assert report["input"]["total_e"] == pytest.approx(55.19017, abs=1e-9)
        assert report["output"]["estimated_print_time_s"] == pytest.approx(
            seconds, rel=1e-12)


def test_cli_import_loads_every_module_of_the_package():
    # the package holds only what `aa` runs: importing the CLI loads every
    # module under src/toolpath_aa
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import json, sys, toolpath_aa.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.startswith('toolpath_aa.'))))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.returncode == 0, result.stderr
    shipped = sorted(f"toolpath_aa.{f.stem}"
                     for f in (src / "toolpath_aa").glob("*.py")
                     if f.stem != "__init__")
    assert json.loads(result.stdout) == shipped


def test_cli_has_no_workers_flag(tmp_path, capsys):
    gpath, mpath = write_fixture_files(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--gcode", str(gpath), "--mesh", str(mpath),
                  "--out", str(tmp_path / "o.gcode"), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_cli_sweep_and_weighted(tmp_path):
    gpath, mpath = write_fixture_files(tmp_path, cross=True)
    rep = tmp_path / "rep.json"
    code = cli.main([
        "--gcode", str(gpath), "--mesh", str(mpath),
        "--out", str(tmp_path / "o.gcode"),
        "--report", str(rep), "--sweep-s", "0.0,0.3",
        "--weighted-seams", "--no-ordering",
    ])
    assert code == 0
    data = json.loads(rep.read_text())
    sweep = {row["s"]: row["overlap_volume_mm3"] for row in data["sweep_s"]}
    assert sweep[0.0] == 0.0
    assert sweep[0.3] >= 0.0


@pytest.mark.parametrize("weighted, costs", [
    (False, [(3.0, 3), (2.0, 2)]),
    # seams on the loops' convex corners weigh gap_cost(3pi/2) = 1.75
    (True, [(5.0, 3), (3.5, 2)]),
])
def test_cli_weighted_seams_price_corners(tmp_path, weighted, costs):
    gpath = tmp_path / "loops.gcode"
    mpath = tmp_path / "model.stl"
    rep = tmp_path / "rep.json"
    gpath.write_text(nested_loops_gcode())
    mpath.write_bytes(mesh_to_stl_binary(wedge_mesh()))
    code = cli.main([
        "--gcode", str(gpath), "--mesh", str(mpath),
        "--out", str(tmp_path / "o.gcode"), "--report", str(rep),
        *(["--weighted-seams"] if weighted else []),
    ])
    assert code == 0
    layers = json.loads(rep.read_text())["ordering"]["layers"]
    assert [(r["best_cost"], r["gaps"]) for r in layers] == costs
