"""The output checker must pass a real `aa` output and fail broken copies.

    python3 -m pytest perfbench/test_gcheck.py -q

The good output comes from one `aa --no-ordering` run on the seed-0 wedge;
each broken copy changes one thing a wrong post-processor could get wrong.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gcheck  # noqa: E402
import parts   # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def wedge_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("wedge")
    part = parts.wedge((0.0, 0.0))
    (work / "in.gcode").write_text(part.gcode)
    (work / "in.stl").write_bytes(part.stl)
    subprocess.run([sys.executable, "-m", "toolpath_aa.cli", "--gcode", str(work / "in.gcode"),
                    "--mesh", str(work / "in.stl"), "--out", str(work / "out.gcode"),
                    "--no-ordering"], check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return gcheck.reference(part), (work / "out.gcode").read_text()


def _layers(lines):
    """Layer index of every line (-1 before the first ;LAYER:)."""
    k, out = -1, []
    for line in lines:
        if line.startswith(";LAYER:"):
            k += 1
        out.append(k)
    return out


def _extruding(line):
    return line.startswith("G1 ") and " X" in line and " E" in line


def _errors(ref, text):
    _metrics, errors, _gates = gcheck.check_output(ref, text)
    return errors


def test_good_output_passes(wedge_run):
    ref, text = wedge_run
    metrics, errors, gates = gcheck.check_output(ref, text)
    assert errors == [] and gates == []
    assert metrics["displaced"] > 0
    assert metrics["seams"] == ref.gcode.layers


def test_vertex_outside_window_fails(wedge_run):
    ref, text = wedge_run
    lines = text.split("\n")
    layer = _layers(lines)
    i = next(i for i, line in enumerate(lines) if layer[i] == 2 and _extruding(line))
    words = [w if not w.startswith("Z") else f"Z{3 * gcheck.H + gcheck.S + 0.01:.5f}"
             for w in lines[i].split()]
    lines[i] = " ".join(words)
    assert any("outside" in e for e in _errors(ref, "\n".join(lines)))


def test_displaced_vertex_off_surface_fails(wedge_run):
    ref, text = wedge_run
    lines = text.split("\n")
    layer = _layers(lines)
    for i, line in enumerate(lines):
        if layer[i] >= 0 and _extruding(line):
            z = float(next(w for w in line.split() if w.startswith("Z"))[1:])
            if abs(z - (layer[i] + 1) * gcheck.H) > 0.01:
                break
    lines[i] = " ".join(w if not w.startswith("Z") else f"Z{z + 1e-4:.5f}"
                        for w in line.split())
    assert any("off the mesh surface" in e for e in _errors(ref, "\n".join(lines)))


def test_truncated_file_fails(wedge_run):
    ref, text = wedge_run
    assert _errors(ref, text[: len(text) // 2])


def test_dropped_layer_fails(wedge_run):
    ref, text = wedge_run
    lines = text.split("\n")
    layer = _layers(lines)
    kept = [line for line, k in zip(lines, layer) if k != 2]
    assert any("layers" in e for e in _errors(ref, "\n".join(kept)))


def test_removed_g1_fails(wedge_run):
    ref, text = wedge_run
    lines = text.split("\n")
    layer = _layers(lines)
    last = max(i for i, line in enumerate(lines) if layer[i] == 1 and _extruding(line))
    del lines[last]
    assert _errors(ref, "\n".join(lines))


def test_sweep_check():
    assert gcheck.check_sweep([{"s": 0.0, "overlap_volume_mm3": 0.0},
                               {"s": 0.3, "overlap_volume_mm3": 1.0}]) == []
    assert gcheck.check_sweep([{"s": 0.0, "overlap_volume_mm3": 0.5},
                               {"s": 0.3, "overlap_volume_mm3": 1.0}])
    assert gcheck.check_sweep([{"s": 0.0, "overlap_volume_mm3": 0.0},
                               {"s": 0.2, "overlap_volume_mm3": 1.0},
                               {"s": 0.3, "overlap_volume_mm3": 0.5}])
