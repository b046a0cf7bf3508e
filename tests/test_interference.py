"""An interference oracle for the output, from the nozzle model alone.

A vertex fails when a path printed earlier in its layer has its
XY-nearest point more than DZ_TOL above the vertex and closer than
(tau + d)/2 + dz * cot(alpha): the nozzle's flank would hit that earlier
material. Pieces joined at a cut (endpoints within JOIN_TOL) do not count
against each other. Only geometry primitives are used, nothing of the
split or the constraint graph, so the check does not share their rules.
"""

import math

import numpy as np
import pytest

from toolpath_aa.gcode import Layer, PrinterProfile, PrintProgram, Toolpath
from toolpath_aa.geometry import nearest_rows, ragged
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
import fixtures

DZ_TOL = 0.05      # mm, earlier material at most this much higher is fine
JOIN_TOL = 1e-6    # mm, endpoints this close join two pieces at a cut
PROFILE = PrinterProfile()


def interference(program, profile):
    """(failing vertex count, worst dz in mm) over every layer, each vertex
    counted once however many earlier paths it fails against."""
    cot = 1.0 / math.tan(profile.alpha)
    flange = (profile.tau + profile.d) / 2.0
    failed, worst = 0, 0.0
    for layer in program.layers:
        paths = [tp.vertices for tp in layer.toolpaths()]
        if len(paths) < 2:
            continue
        z = np.concatenate([v[:, 2] for v in paths])
        reach = flange + (z.max() - z.min()) * cot
        row, line, dist, near_z, _ = nearest_rows(paths, reach)
        path = ragged([len(v) for v in paths])[0][row]
        joined = {(k, i) for k, i in set(zip(path.tolist(), line.tolist()))
                  if any(math.dist(a, b) <= JOIN_TOL
                         for a in _ends(paths[i]) for b in _ends(paths[k]))}
        # a later path's rows against the paths printed before it
        later = np.array([k > i and (k, i) not in joined
                          for k, i in zip(path.tolist(), line.tolist())], dtype=bool)
        dz = near_z - z[row]
        bad = later & (dz > DZ_TOL) & (dist < flange + dz * cot)
        failed += len(set(row[bad].tolist()))
        worst = max([worst, *dz[bad].tolist()])
    return failed, worst


def _ends(verts):
    return verts[0, :3].tolist(), verts[-1, :3].tolist()


INPUTS = {
    "wedge": lambda: fixtures.wedge_fixture(),
    "hatch": lambda: fixtures.wedge_fixture(cross_hatch=True),
    "dome": lambda: fixtures.dome_fixture(),
    "wedge40x20": lambda: fixtures.wedge_fixture(base=40.0, depth=20.0),
}


def run(name, ordering):
    """The in-memory output program of a shipped fixture with the default
    profile."""
    mesh, gcode = INPUTS[name]()
    return run_pipeline(PipelineConfig(ordering_enabled=ordering),
                        gcode_text=gcode, mesh=mesh)[0]


def two_paths(low_first):
    """A path at z 0.6 and a neighbour 1 mm away and 0.3 mm higher."""
    def line(y, z):
        return Toolpath(vertices=[(x, y, z, 0.0 if x == 0 else 0.1, 20.0, 0.0)
                                  for x in range(6)])

    low, high = line(0.0, 0.6), line(1.0, 0.9)
    paths = [low, high] if low_first else [high, low]
    return PrintProgram(layers=[Layer(base_z=0.6, events=paths)])


def test_low_path_after_a_taller_neighbour_fails():
    failed, worst = interference(two_paths(low_first=False), PROFILE)
    assert failed == 6
    assert worst == pytest.approx(0.3)


def test_low_path_before_a_taller_neighbour_passes():
    assert interference(two_paths(low_first=True), PROFILE) == (0, 0.0)


def test_pieces_joined_at_a_cut_do_not_count():
    program = two_paths(low_first=False)
    high, low = program.layers[0].toolpaths()
    low.vertices[0, :3] = high.vertices[-1, :3]
    failed, _ = interference(program, PROFILE)
    assert failed == 0


@pytest.mark.parametrize("name", ["wedge", "hatch", "wedge40x20"])
def test_ordered_wedges_have_no_interference(name):
    assert interference(run(name, True), PROFILE)[0] == 0


def test_oracle_fires_on_the_unordered_cross_hatched_wedge():
    assert interference(run("hatch", False), PROFILE)[0] == 28


def test_ordered_dome_stays_within_todays_count():
    # a bound to lower, never to raise: the split and graph still miss
    # constraints on the dome (137 failing vertices unordered)
    assert interference(run("dome", True), PROFILE)[0] <= 188
