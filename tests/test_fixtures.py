import math

import pytest

from toolpath_aa.gcode import DELTA, PrinterProfile, parse_gcode, total_extrusion
from fixtures import dome_fixture, wedge_fixture, wedge_mesh
from scenes import (flat_box_fixture, mesh_volume, ordering_scene,
                    three_paths_scene)


def test_wedge_mesh_volume_analytic():
    mesh = wedge_mesh(angle_deg=10.0, base=20.0, depth=10.0)
    expected = 0.5 * 20.0 * (20.0 * math.tan(math.radians(10.0))) * 10.0
    assert mesh_volume(mesh) == pytest.approx(expected, rel=1e-9)


def test_wedge_mesh_rejects_bad_params():
    with pytest.raises(ValueError):
        wedge_mesh(angle_deg=-1)


def test_fixture_gcode_parses_with_expected_layers():
    profile = PrinterProfile()
    mesh, gcode = wedge_fixture(profile)
    prog = parse_gcode(gcode)
    height = 20.0 * math.tan(math.radians(10.0))
    # layers exist while the slicing plane cuts the wedge
    expected_layers = math.ceil((height - profile.s) / profile.h)
    assert len(prog.layers) == expected_layers
    assert [l.base_z for l in prog.layers] == [
        pytest.approx(0.6 * (i + 1)) for i in range(expected_layers)]
    assert total_extrusion(prog) > 0


def test_fixture_deterministic():
    profile = PrinterProfile()
    _, g1 = wedge_fixture(profile)
    _, g2 = wedge_fixture(profile)
    assert g1 == g2


def test_flat_box_two_layers():
    profile = PrinterProfile()
    mesh, gcode = flat_box_fixture(profile, 10, 10, 1.2)
    prog = parse_gcode(gcode)
    assert len(prog.layers) == 2


def test_dome_fixture_parses():
    profile = PrinterProfile()
    mesh, gcode = dome_fixture(profile)
    prog = parse_gcode(gcode)
    assert len(prog.layers) >= 4
    assert mesh.triangle_count > 100


def test_three_paths_scene_shape():
    paths = three_paths_scene()
    assert len(paths) == 3
    assert all(p.closed and p.modified for p in paths)
    deltas = [d for p in paths for d in p.vertices[:, DELTA].tolist()]
    assert max(deltas) <= 0.3 and min(deltas) >= -0.3


def test_ordering_scene_is_dag_with_seven_nodes():
    graph, labels = ordering_scene()
    assert len(graph.nodes) == 7
    assert set(labels) == set("ABCDEFG")
    # entry/exit sharing within parents
    assert graph.nodes[labels["A"]].exit == graph.nodes[labels["B"]].entry
    assert graph.nodes[labels["B"]].exit == graph.nodes[labels["A"]].entry
    assert graph.nodes[labels["C"]].exit == graph.nodes[labels["D"]].entry
    assert graph.nodes[labels["F"]].exit == graph.nodes[labels["G"]].entry
