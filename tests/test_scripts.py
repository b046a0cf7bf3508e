"""The scripts under scripts/ run to completion from any directory."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, cwd):
    result = subprocess.run([sys.executable, str(SCRIPTS / name)], cwd=cwd,
                            capture_output=True, text=True, timeout=120)
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
