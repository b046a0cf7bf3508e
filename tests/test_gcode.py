import math
import re
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toolpath_aa import gcode, ordering
from toolpath_aa.gcode import (DELTA, DUPLICATE_TOL, E, F, FEED_FACTOR,
                               VERTEX_COLUMNS, X, Y, Z, ESet, GcodeParseError,
                               Layer, ModeSwitch, Move, PrinterProfile,
                               PrintProgram, RawLine, Toolpath,
                               deposition_segments, emit_gcode, parse_gcode,
                               total_extrusion)
from toolpath_aa.gcode import (_INTERPRETED, _LAYER_LINE_RE, _MOVE_RE,
                               _command_of, _parse_words)
from toolpath_aa.evaluate import estimate_print_time
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
from fixtures import dome_fixture, wedge_fixture
from scenes import flat_box_fixture, hop_wedge_gcode, parse_stress_gcode
from test_evaluate import print_time_reference

SIMPLE = """G90
M82
G92 E0
G0 X0 Y0 Z0.6 F7200
G1 X10 Y0 E0.5 F1200
"""


def test_segment_basics_and_feed_conversion():
    prog = parse_gcode(SIMPLE)
    paths = [l.toolpaths() for l in prog.layers]
    assert len(paths) == 1 and len(paths[0]) == 1
    tp = paths[0][0]
    assert len(tp.vertices) == 2
    v = tp.vertices[1]
    assert v[X] == 10 and v[E] == pytest.approx(0.5)
    assert v[F] == pytest.approx(20.0)          # 1200 mm/min
    assert math.dist(tp.vertices[0, :2],
                     tp.vertices[1, :2]) == pytest.approx(10.0)


def test_travel_breaks_toolpath():
    text = SIMPLE + "G0 X5 Y5\nG1 X0 Y5 E1.0\n"
    prog = parse_gcode(text)
    assert len(prog.layers) == 1
    assert len(prog.layers[0].toolpaths()) == 2


def test_two_layer_split():
    text = (
        "G0 X0 Y0 Z0.6\nG1 X10 Y0 E0.5 F1200\n"
        "G0 X0 Y0 Z1.2\nG1 X10 Y0 E1.0\n"
    )
    prog = parse_gcode(text)
    assert [l.base_z for l in prog.layers] == [0.6, 1.2]


def test_layer_comment_splits():
    text = (
        ";LAYER:0\nG0 X0 Y0 Z0.6\nG1 X10 Y0 E0.5 F1200\n"
        ";LAYER:1\nG0 X0 Y0 Z1.2\nG1 X10 Y0 E1.0\n"
    )
    prog = parse_gcode(text)
    assert len(prog.layers) == 2


def test_a_layer_line_is_a_whole_comment_line_in_any_case():
    # one rule decides both whether ;LAYER: lines split the file and where
    # they do: a line holding nothing but a comment that starts ;LAYER:,
    # matched in any case. ;LAYER: text inside another line leaves the
    # file split by Z
    mid_line = ("M117 printing ;LAYER: count 2\n"
                "G0 X0 Y0 Z0.6\nG1 X10 Y0 E0.5 F1200\n"
                "G0 X0 Y0 Z1.2\nG1 X10 Y0 E1.0\n")
    assert [l.base_z for l in parse_gcode(mid_line).layers] == [0.6, 1.2]
    # a hop whose return Z rides on the extruding move splits no layer
    # once layer lines split the file, whatever their case
    hop = ("{}:0\nG0 X0 Y0 Z0.3\nG1 X10 Y0 E1 F1200\n"
           "G0 Z0.7\nG0 X0 Y5\nG1 X10 Y5 Z0.3 E2\n"
           "{}:1\nG0 X0 Y0 Z0.6\nG1 X10 Y0 E3\n"
           "G0 Z1.0\nG0 X0 Y5\nG1 X10 Y5 Z0.6 E4\n")
    for spelling in (";LAYER", ";layer", "  ;Layer"):
        program = parse_gcode(hop.format(spelling, spelling))
        assert [l.base_z for l in program.layers] == [0.3, 0.6]
        assert [len(l.toolpaths()) for l in program.layers] == [2, 2]


def test_z_hop_opens_no_layer_in_a_z_split_file():
    # without layer lines, a layer opens at a deposition that follows a
    # non-extruding move and ends off the layer's base_z: a hop whose
    # return Z rides on the extruding move stays in its layer, and so
    # does a z change within a run of depositions
    hop = ("G0 X0 Y0 Z0.3\nG1 X10 Y0 E1 F1200\n"
           "G0 Z0.7\nG0 X0 Y5\nG1 X10 Y5 Z0.3 E2\n"
           "G0 X0 Y0 Z0.6\nG1 X10 Y0 E3\n"
           "G0 Z1.0\nG0 X0 Y5\nG1 X10 Y5 Z0.6 E4\nG1 X10 Y9 Z0.8 E5\n")
    program = parse_gcode(hop)
    assert [l.base_z for l in program.layers] == [0.3, 0.6]
    assert [len(l.toolpaths()) for l in program.layers] == [2, 2]
    assert program.warnings == []


def test_closed_square_five_vertices():
    text = (
        "G0 X0 Y0 Z0.6\n"
        "G1 X4 Y0 E1 F1200\nG1 X4 Y4 E2\nG1 X0 Y4 E3\nG1 X0 Y0 E4\n"
    )
    prog = parse_gcode(text)
    tp = prog.layers[0].toolpaths()[0]
    assert len(tp.vertices) == 5
    assert tp.closed


@pytest.mark.parametrize("gap, closed", [(5e-7, True), (2e-6, False)])
def test_one_closure_rule(gap, closed):
    # a path is closed when its first and last rows lie within CLOSURE_TOL
    # (1e-6 mm); the ordering stage folds the closing row of exactly those
    text = ("G0 X0 Y0 Z0.6\nG1 X4 Y0 E1 F1200\nG1 X4 Y4 E2\nG1 X0 Y4 E3\n"
            f"G1 X{gap:.7f} Y0 E4\n")
    tp = parse_gcode(text).layers[0].toolpaths()[0]
    assert len(tp) == 5 and tp.closed is closed
    assert len(ordering._unique_cycle(tp)) == (4 if closed else 5)
    assert not Toolpath(vertices=tp.vertices[:1]).closed


def test_z_hop_after_layer_comment_keeps_the_deposition_height():
    # each layer's flat top is its first deposition height; a Z hop that
    # opens the layer moves no track, so it changes neither base_z nor the
    # overlap compensation, which takes base_z as the upper track's bottom
    flat = wedge_fixture(cross_hatch=True)
    runs = [run_pipeline(PipelineConfig(ordering_enabled=False),
                         gcode_text=text, mesh=flat[0])
            for text in (flat[1], hop_wedge_gcode())]
    base_z = [[layer.base_z for layer in program.layers]
              for program, _, _ in runs]
    assert base_z[1] == base_z[0] == pytest.approx([0.6, 1.2, 1.8, 2.4, 3.0, 3.6])
    assert runs[1][1]["overlap"] == runs[0][1]["overlap"]
    # a layer that never deposits has no height of its own, and the next
    # one is compared with the last height deposited
    text = ";LAYER:0\nG0 X0 Y0 Z1.8\nG1 X9 Y0 E1\n;LAYER:1\nG0 Z2.4\n" \
           ";LAYER:2\nG0 X0 Y0 Z0.6\nG1 X9 Y0 E2\n"
    program = parse_gcode(text)
    assert [l.base_z for l in program.layers] == [1.8, 0.0, 0.6]
    assert program.warnings == [
        "line 8: deposition z decreased (1.80000 -> 0.60000)"]


def test_empty_layer_travel_only():
    text = (
        ";LAYER:0\nG0 X0 Y0 Z0.6\nG1 X10 Y0 E0.5 F1200\n"
        ";LAYER:1\nG0 X5 Y5 Z1.2\n"
        ";LAYER:2\nG0 X0 Y0 Z1.8\nG1 X10 Y0 E1.0\n"
    )
    prog = parse_gcode(text)
    assert len(prog.layers) == 3
    assert prog.layers[1].toolpaths() == []


def test_roundtrip_motion_identical():
    prog1 = parse_gcode(SIMPLE)
    out = emit_gcode(prog1)
    prog2 = parse_gcode(out)
    v1 = prog1.layers[0].toolpaths()[0].vertices
    v2 = prog2.layers[0].toolpaths()[0].vertices
    assert len(v1) == len(v2)
    for a, b in zip(v1.tolist(), v2.tolist()):
        assert math.dist(a[:3], b[:3]) < 1e-6
        assert a[E] == pytest.approx(b[E], abs=1e-6)
        assert a[F] == pytest.approx(b[F], abs=1e-6)


def test_roundtrip_of_ordered_displaced_output():
    # a path starts at the z its travel left, not at the z of its first
    # extruding move, which a displaced path changes
    mesh, text = wedge_fixture()
    program, _report, _text = run_pipeline(PipelineConfig(), gcode_text=text,
                                           mesh=mesh)
    paths = list(program.all_toolpaths())
    again = list(parse_gcode(emit_gcode(program)).all_toolpaths())
    assert [len(p) for p in again] == [len(p) for p in paths]
    for p, q in zip(paths, again):
        assert abs(p.vertices[:, :3] - q.vertices[:, :3]).max() < 1e-5


def test_emit_displaced_z_word():
    prog = parse_gcode(SIMPLE)
    v = prog.layers[0].toolpaths()[0].vertices[1]
    v[Z] += 0.2
    v[DELTA] = 0.2
    out = emit_gcode(prog)
    assert "Z0.80000" in out


def test_relative_e_mode_roundtrip():
    text = (
        "M83\nG0 X0 Y0 Z0.6 F7200\n"
        "G1 X10 Y0 E0.5 F1200\nG1 X20 Y0 E0.75\n"
    )
    prog = parse_gcode(text)
    assert total_extrusion(prog) == pytest.approx(1.25)
    out = emit_gcode(prog)
    # the path's E words are relative, as M83 set them
    assert out.splitlines()[2:] == [
        "G1 X10.00000 Y0.00000 Z0.60000 E0.50000 F1200.00000",
        "G1 X20.00000 Y0.00000 Z0.60000 E0.75000"]
    prog2 = parse_gcode(out)
    assert total_extrusion(prog2) == pytest.approx(1.25, abs=1e-6)
    segs = prog2.layers[0].toolpaths()[0].vertices[1:, E].tolist()
    assert segs == [pytest.approx(0.5), pytest.approx(0.75)]


def test_e_mode_before_the_first_switch_is_absolute():
    # the parser reads E absolute until the M83, and so must the emitter:
    # G1 E7 stays a 2 mm prime, not a 5 mm retraction written as G1 E2
    text = ("G92 E0\nG1 X0 Y0 Z0.3 F600\nG1 E5\nG1 E7\nM83\n"
            "G1 X10 E1\n")
    out = emit_gcode(parse_gcode(text))
    assert out.splitlines()[2:] == [
        "G1 E5.00000", "G1 E7.00000", "M83",
        "G1 X10.00000 Y0.00000 Z0.30000 E1.00000"]


def test_retraction_preserved_not_scaled():
    text = (
        "G92 E0\nG0 X0 Y0 Z0.6\nG1 X10 Y0 E0.5 F1200\n"
        "G1 E-1.5 F1800\nG0 X20 Y0\nG1 E0.5 F1800\n"
        "G1 X30 Y0 E1.0 F1200\n"
    )
    prog = parse_gcode(text)
    out = emit_gcode(prog)
    prog2 = parse_gcode(out)
    assert total_extrusion(prog2) == pytest.approx(total_extrusion(prog), abs=1e-6)
    assert total_extrusion(prog) == pytest.approx(0.5 - 2.0 + 2.0 + 0.5)


@pytest.mark.parametrize("mode, es", [("M82", (0.5, 0.1, 0.5, 1.0)),
                                      ("M83", (0.5, -0.4, 0.4, 0.5))])
def test_wipe_and_prime_keep_their_e(mode, es):
    # a wipe retracts while it moves; the prime repeats the current XY
    text = (f"{mode}\nG92 E0\nG0 X0 Y0 Z0.6 F7200\n"
            f"G1 X10 Y0 E{es[0]} F1200\n"
            f"G1 X10.4 Y0 E{es[1]} F2400\n"
            "G0 X0 Y1 F7200\n"
            f"G1 X0 Y1 E{es[2]} F2400\n"
            f"G1 X10 Y1 E{es[3]} F1200\n")
    prog = parse_gcode(text)
    assert total_extrusion(prog) == pytest.approx(1.0)
    wipe, _travel, prime = [ev for ev in prog.events()
                            if isinstance(ev, Move)][1:]
    assert (wipe.x, wipe.e, prime.x, prime.y) == (10.4, pytest.approx(-0.4),
                                                  0.0, 1.0)
    out = emit_gcode(prog)
    e_words = re.findall(r"^G[01] .*E(\S+)", out, re.M)
    assert [float(e) for e in e_words] == list(es)
    assert total_extrusion(parse_gcode(out)) == pytest.approx(1.0)


def test_g92_resets_accumulator():
    text = (
        "G92 E0\nG0 X0 Y0 Z0.6\nG1 X10 Y0 E0.5 F1200\n"
        "G92 E0\nG1 X20 Y0 E0.5\n"
    )
    prog = parse_gcode(text)
    assert total_extrusion(prog) == pytest.approx(1.0)
    out = emit_gcode(prog)
    assert out.count("G92 E0") == 2
    assert total_extrusion(parse_gcode(out)) == pytest.approx(1.0, abs=1e-6)


def test_arc_rejected():
    for arc in ["G2 X10 Y10 I5 J0 E1", "G2 X10 Y10 E1", "G3 X1"]:
        with pytest.raises(GcodeParseError, match="arc moves") as exc:
            parse_gcode(f"G0 X0 Y0 Z0.6\n{arc}\n")
        assert "line 2" in str(exc.value)


def test_dwell_passes_through():
    text = "G0 X0 Y0 Z0.6\nG4\nG1 X1 Y0 E0.1\nG4 P500\nG1 X2 Y0 E0.2\n"
    program = parse_gcode(text)
    assert [len(tp) for tp in program.all_toolpaths()] == [2, 2]
    assert RawLine("G4") in program.events()
    assert emit_gcode(program).splitlines()[1] == "G4"


def test_non_numeric_word_errors_with_line():
    with pytest.raises(GcodeParseError) as exc:
        parse_gcode("G1 Xabc\n")
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("line, word", [
    ("G1 X100000.001 Y0 E1", "X"),         # the one-pattern move's shape
    ("G1 Y-123456 X0 E1", "Y"),            # the general path's
    ("G0 Z" + "9" * 20, "Z"),
    ("G1 X1 Y0 E" + "1" * 400, "E"),       # reads as inf
    ("G1 X1 Y0 E1 F" + "1" * 400, "F"),
    ("G92 E" + "1" * 400, "E"),
], ids=["X_move_pattern", "Y_general", "Z_20_digits", "E_400_digits",
        "F_400_digits", "G92_E_400_digits"])
def test_out_of_range_word_errors_with_line_and_word(line, word):
    with pytest.raises(GcodeParseError) as exc:
        parse_gcode("G0 X0 Y0 Z0.6\n" + line + "\n")
    assert re.fullmatch(f"line 2: value \\S+ for word {word} is out of range",
                        str(exc.value))


def test_coordinates_up_to_the_limit_parse():
    prog = parse_gcode("G0 X0 Y0 Z0.6\nG1 X100000 Y0 E1\n"
                       "G1 X0100000 Y-99999.99999 E2\n")
    [path] = prog.all_toolpaths()
    assert path.vertices[1:, X].tolist() == [100000.0, 100000.0]
    assert path.vertices[2, Y] == -99999.99999


def test_message_commands_pass_through():
    text = "M117 Hello World\nG0 X0 Y0 Z0.6\nG1 X1 Y0 E0.1 F1200\n"
    prog = parse_gcode(text)
    out = emit_gcode(prog)
    assert "M117 Hello World" in out


def test_z_decrease_warns_not_errors():
    text = (
        "G0 X0 Y0 Z1.2\nG1 X10 Y0 E0.5 F1200\n"
        "G0 X0 Y0 Z0.6\nG1 X10 Y0 E1.0\n"
    )
    prog = parse_gcode(text)
    assert prog.warnings


@pytest.mark.parametrize("marked", [False, True])
def test_z_decrease_warning_names_line_and_heights(marked):
    # with ;LAYER: comments the second layer is opened by its comment and
    # takes its z from its first deposition; without them, by the travel
    # that changes z
    first = "G0 X0 Y0 Z1.2\nG1 X10 Y0 E0.5 F1200\n"
    second = ("G1 X0 Y0 Z0.6 E1.0\n" if marked
              else "G0 X0 Y0 Z0.6\nG1 X10 Y0 E1.0\n")
    if marked:
        first, second = ";LAYER:0\n" + first, ";LAYER:1\n" + second
    prog = parse_gcode(first + second)
    assert [l.base_z for l in prog.layers] == [1.2, 0.6]
    line = 5 if marked else 4
    assert prog.warnings == [
        f"line {line}: deposition z decreased (1.20000 -> 0.60000)"]
    rising = parse_gcode((first + second).replace("Z1.2", "Z0.3"))
    assert [l.base_z for l in rising.layers] == [0.3, 0.6]
    assert rising.warnings == []


def test_deposition_segments_skip_first_rows_and_zero_e():
    # a first row's E (a merged duplicate vertex can leave one) starts no
    # segment, an end row with E <= 0 ends none, and an empty path has none
    def path(es):
        return Toolpath(vertices=[(k, 0.0, 0.6, e, 20.0, 0.0)
                                  for k, e in enumerate(es)])
    paths = [path([0.5, 0.1, 0.0, 0.2]), path([]), path([0.0, -0.1, 0.3])]
    pi, row, a, b = deposition_segments(paths)
    assert pi.tolist() == [0, 0, 2] and row.tolist() == [1, 3, 2]
    assert a[:, X].tolist() == [0, 2, 1] and b[:, X].tolist() == [1, 3, 2]
    assert b[:, E].tolist() == [0.1, 0.2, 0.3]
    pi, row, a, b = deposition_segments([])
    assert pi.size == row.size == 0 and a.shape == b.shape == (0, 6)


def test_comment_lines_byte_identical():
    text = "; hello   world\t \nG0 X0 Y0 Z0.6\nG1 X1 Y0 E0.1 F1200\n"
    out = emit_gcode(parse_gcode(text))
    assert "; hello   world\t " in out.split("\n")


def test_f_emitted_only_on_change():
    text = (
        "G0 X0 Y0 Z0.6 F7200\n"
        "G1 X1 Y0 E0.1 F1200\nG1 X2 Y0 E0.2 F1200\nG1 X3 Y0 E0.3 F600\n"
    )
    out = emit_gcode(parse_gcode(text))
    lines = [l for l in out.split("\n") if l.startswith("G1")]
    assert "F" in lines[0]
    assert "F" not in lines[1]
    assert "F" in lines[2]


def test_profile_validation():
    with pytest.raises(ValueError):
        PrinterProfile(w=1.3, tau=1.25)
    with pytest.raises(ValueError):
        PrinterProfile(alpha=0.0)
    with pytest.raises(ValueError):
        PrinterProfile(f_ini=10.0, f_min=13.0)
    with pytest.raises(ValueError):
        PrinterProfile(s=0.7, h=0.6)
    for f_ini, f_min in ((20.0, 0.0), (20.0, -2.0), (-1.0, -2.0)):
        with pytest.raises(ValueError):
            PrinterProfile(f_ini=f_ini, f_min=f_min)
    for d in (0.0, -0.4):
        with pytest.raises(ValueError):
            PrinterProfile(d=d)
    # every field must be finite; h = inf would make the default s inf too
    for f in fields(PrinterProfile):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{f.name} must be finite"):
                PrinterProfile(**{f.name: value})
    p = PrinterProfile()
    assert p.s == pytest.approx(0.3)
    assert p.d == pytest.approx(0.8)


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 400),
              st.integers(1, 50)),
    min_size=2, max_size=10))
def test_total_extrusion_conserved_roundtrip(points):
    lines = ["G92 E0", "G0 X0 Y0 Z0.6 F7200"]
    e = 0.0
    prev = (0.0, 0.0)
    for xi, yi, ei in points:
        x, y = xi / 10.0, yi / 10.0
        if (x, y) == prev:
            continue
        e += ei / 100.0
        lines.append(f"G1 X{x} Y{y} E{e:.5f} F1200")
        prev = (x, y)
    text = "\n".join(lines) + "\n"
    prog = parse_gcode(text)
    out = emit_gcode(prog)
    assert total_extrusion(parse_gcode(out)) == pytest.approx(
        total_extrusion(prog), abs=1e-6)



def test_path_filament_adds_left_to_right():
    # the first row's E ends no segment; a compensated sum would give 1.0
    rows = [(float(k), 0.0, 0.6, e, 20.0, 0.0)
            for k, e in enumerate((5.0, 1e16, 1.0, -1e16))]
    assert Toolpath(vertices=rows).total_e() == 0.0


def _loop_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_fold_sum_equals_the_loop_bitwise():
    rng = np.random.default_rng(34)
    cases = [np.array([]), np.array([-0.0]), np.full(5, -0.0),
             np.array([-0.0, 0.0, -0.0]), np.array([1e16, 1.0, -1e16])]
    for n in rng.integers(1, 400, 60).tolist():
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        values[rng.random(n) < 0.1] = -0.0
        cases.append(values)
    for values in cases:
        got = gcode.fold_sum(values)
        assert type(got) is float
        want = _loop_sum(values.tolist())
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

# ---------------------------------------------------------------------------
# The one-pattern move tokeniser against the general tokeniser

_NUMBER_TEXT = st.from_regex(
    r"[-+]?(?:[0-9]{1,3}\.?[0-9]{0,3}|\.[0-9]{1,3})", fullmatch=True)
_BAD_NUMBER = st.sampled_from(
    ["", ".", "-", "+.", "1..2", "1.2.3", "1e3", "--1", "1-2", "1,5"])
# values at and past the fast path's digit limits: 1e5 itself and a
# zero-padded form of it are in range, the rest are not
_BIG_NUMBER = st.sampled_from(
    ["99999.99999", "100000", "-100000.5", "0000100000", "123456789012345",
     "1234567890123456.5", "9" * 20, "1" * 400])
_VARIANTS = ["canonical", "canonical", "lower", "swap", "n_word", "comment",
             "double_space", "leading_zero", "duplicate", "bad_number",
             "big_number"]
# a G4-G9 line may have the shape of a G0 move and is no move
_OTHER_LINES = st.sampled_from([
    "M82", "M83", "G92 E0", "G91", "G90", ";LAYER:1", ";TYPE:FILL",
    "G0 Z1.2", "M106 S255", "", "G4", "G4 P200", "G9 X1.5 Y2 E3"])


@st.composite
def _move_line(draw):
    letters = draw(st.lists(st.sampled_from("XYZEF"), unique=True))
    letters.sort(key="XYZEF".index)
    words = [f"{letter}{draw(_NUMBER_TEXT)}" for letter in letters]
    head = draw(st.sampled_from(["G0", "G1"]))
    variant = draw(st.sampled_from(_VARIANTS))
    if variant == "lower":
        return " ".join([head] + words).lower()
    if variant == "swap":
        words = list(draw(st.permutations(words)))
    elif variant == "n_word":
        head = f"N{draw(st.integers(0, 999))} {head}"
    elif variant == "leading_zero":
        head = head[0] + "0" + head[1]
    elif variant == "duplicate":
        letter = draw(st.sampled_from("XYZEF"))
        words.append(f"{letter}{draw(_NUMBER_TEXT)}")
    elif variant == "bad_number":
        letter = draw(st.sampled_from("XYZEF"))
        words.insert(draw(st.integers(0, len(words))),
                     f"{letter}{draw(_BAD_NUMBER)}")
    elif variant == "big_number" and words:
        k = draw(st.integers(0, len(words) - 1))
        words[k] = words[k][0] + draw(_BIG_NUMBER)
    line = " ".join([head] + words)
    if variant == "comment":
        line += " ; move"
    elif variant == "double_space":
        line = line.replace(" ", "  ", 1)
    return line


def _parse_outcome(text):
    try:
        return parse_gcode(text)
    except GcodeParseError as exc:
        return ("GcodeParseError", exc.line, str(exc))


def test_move_pattern_reads_only_the_canonical_form():
    assert gcode._MOVE_RE.fullmatch("G1 X-1.5 Y.25 Z0.6 E3. F1200")
    assert gcode._MOVE_RE.fullmatch("G0")
    for line in ["G1 Y1 X2", "g1 X1", "G01 X1", "N3 G1 X1", "G1 X1 ;c",
                 "G1  X1", "G1 X1 X2", "G1 X1e3", "G1 X.", "G1 X1 ",
                 "G1 X12345.12345678901", "G1 E.1234567890123456"]:
        assert gcode._MOVE_RE.fullmatch(line) is None, line


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_move_line(), _OTHER_LINES), max_size=40))
def test_move_pattern_parses_like_the_general_tokeniser(lines):
    text = "\n".join(["G0 X0 Y0 Z0.6"] + lines) + "\n"
    with mock.patch.object(gcode, "_MOVE_RE", re.compile(r"(?!)")):
        reference = _parse_outcome(text)
    assert _parse_outcome(text) == reference


# ---------------------------------------------------------------------------
# The decode and state passes against the per-line parser

class _PerLineParser:
    """The reference for `parse_gcode`: one line at a time, each move
    applied on its own as it is read."""

    def __init__(self, text):
        self.program = PrintProgram(newline="\r\n" if "\r\n" in text else "\n")
        self.x = None
        self.y = None
        self.z = None
        self.e = 0.0
        self.f = 0.0            # mm/s
        self.e_mode = "absolute"
        self.xyz_relative = False
        self.layer = None
        self.path = None
        self.rows = None        # vertex rows of the open path
        self.layer_lines = _LAYER_LINE_RE.search("\n" + text) is not None
        self.travelled = False   # a non-extruding move since the last deposition

    def close_path(self):
        if self.path is not None:
            rows = self.rows
            if len(rows) >= 2:
                self.path.vertices = np.array(rows)
            else:
                # a lone vertex is not a path
                self.layer.events.pop()     # the open path is the last event
        self.path = None
        self.rows = None

    def add_event(self, ev):
        self.close_path()
        if self.layer is None:
            self.program.prologue.append(ev)
        else:
            self.layer.events.append(ev)

    def run(self, text):
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        move_of = _MOVE_RE.fullmatch
        for lineno, raw in enumerate(lines, 1):
            raw = raw.rstrip("\r")
            m = None if self.xyz_relative else move_of(raw)
            if m is None:
                self.line(lineno, raw)
                continue
            g, x, y, z, e, f = m.groups()
            self.move(None if x is None else float(x),
                      None if y is None else float(y),
                      None if z is None else float(z),
                      None if e is None else float(e),
                      None if f is None else float(f),
                      rapid=(g == "0"), lineno=lineno)
        self.close_path()
        self._split_epilogue()
        return self.program

    def line(self, lineno, raw):
        stripped = raw.partition(";")[0].strip()
        if not stripped:
            if _LAYER_LINE_RE.match("\n" + raw):
                # the comment and everything after belong to the new layer
                self.close_path()
                self.layer = Layer(base_z=None)
                self.program.layers.append(self.layer)
            self.add_event(RawLine(raw))
            return
        cmd = _command_of(stripped)
        if cmd is None or cmd[0] not in ("G", "M"):
            self.add_event(RawLine(raw))
            return
        letter, number = cmd
        if (letter, number) not in _INTERPRETED:
            # unrecognised commands (fans, temperatures, displays, ...) are
            # preserved verbatim and break the current path
            self.add_event(RawLine(raw))
            return
        words = _parse_words(stripped, lineno)

        if letter == "G" and number in (2.0, 3.0):
            raise GcodeParseError(
                "arc moves (G2/G3) are not supported; linearise them first",
                lineno)
        if letter == "G" and number == 20.0:
            raise GcodeParseError("inch units (G20) are not supported", lineno)
        if letter == "G" and number == 90.0:
            self.xyz_relative = False
            self.add_event(RawLine(raw))
            return
        if letter == "G" and number == 91.0:
            self.xyz_relative = True
            self.x = self.y = self.z = None   # position unknown afterwards
            self.add_event(RawLine(raw))
            return
        if letter == "M" and number in (82.0, 83.0):
            self.e_mode = "absolute" if number == 82.0 else "relative"
            self.add_event(ModeSwitch(self.e_mode, raw))
            return
        if letter == "G" and number == 92.0:
            if any(k in words for k in "XYZ"):
                raise GcodeParseError(
                    "G92 redefining X/Y/Z is not supported", lineno)
            if "E" in words:
                self.e = words["E"]
                self.add_event(ESet(words["E"], raw))
            else:
                self.add_event(RawLine(raw))
            return
        # G0/G1, the one interpreted command left
        if self.xyz_relative:
            if "E" in words and ("X" in words or "Y" in words):
                raise GcodeParseError(
                    "extruding XY move in relative coordinate mode", lineno)
            self.add_event(RawLine(raw))
            return
        self.move(*map(words.get, "XYZEF"), rapid=(number == 0.0),
                  lineno=lineno)

    def move(self, x, y, z, e, f, rapid, lineno):
        """One G0/G1 move; each word value is None when the line lacks it."""
        new_x = self.x if x is None else x
        new_y = self.y if y is None else y
        new_z = self.z if z is None else z
        if f is not None:
            self.f = f / FEED_FACTOR

        e_delta = 0.0
        if e is not None:
            if self.e_mode == "absolute":
                e_delta = e - self.e
                self.e = e
            else:
                e_delta = e
                self.e += e_delta

        moved_xy = ((x is not None or y is not None)
                    and new_x is not None and new_y is not None
                    and (self.x is None or self.y is None
                         or new_x != self.x or new_y != self.y))
        extruding = e_delta > 0 and moved_xy

        if extruding:
            if new_z is None:
                raise GcodeParseError(
                    "extruding move before any Z was set", lineno)
            if self.x is None or self.y is None:
                raise GcodeParseError(
                    "extruding move with unknown start position", lineno)
            if self._starts_new_layer(new_z):
                self.close_path()
                self.layer = Layer(base_z=None)
                self.program.layers.append(self.layer)
            if self.layer.base_z is None:
                self._warn_below(new_z, lineno, self.program.layers[:-1])
                self.layer.base_z = new_z
            self.travelled = False
            if self.path is None:
                self.path = Toolpath(vertices=())
                # the path starts where the travel left the nozzle
                start_z = new_z if self.z is None else self.z
                self.rows = [[self.x, self.y, start_z, 0.0, self.f, 0.0]]
                self.layer.events.append(self.path)
            prev = self.rows[-1]
            if math.dist(prev[:3], (new_x, new_y, new_z)) < DUPLICATE_TOL:
                prev[E] += e_delta    # merge duplicate vertex, keep its extrusion
            else:
                self.rows.append([new_x, new_y, new_z, e_delta, self.f, 0.0])
        else:
            self.add_event(Move(x, y, z, None if e is None else e_delta,
                                None if f is None else f / FEED_FACTOR, rapid))
            self.travelled = True
        self.x, self.y, self.z = new_x, new_y, new_z

    def _warn_below(self, z, lineno, earlier):
        """Warn when a new layer's first deposition, at z, lies below the
        last deposition height of the `earlier` layers."""
        prev_z = next((l.base_z for l in reversed(earlier)
                       if l.base_z is not None), None)
        if prev_z is not None and z < prev_z - 1e-9:
            self.program.warnings.append(f"line {lineno}: deposition z "
                                         f"decreased ({prev_z:.5f} -> {z:.5f})")

    def _starts_new_layer(self, z):
        """Layer split rule: the first deposition, or (in files without
        ;LAYER: lines) a deposition that follows a non-extruding move and
        ends at a z other than the layer's base_z. The deposition's own z
        decides, so a Z hop that returns on the extruding move opens no
        layer, and z variation within a run of depositions, as in
        anti-aliased output, never splits one."""
        if self.layer is None:
            return True
        if self.layer_lines:
            return False      # only ;LAYER: lines split
        return self.travelled and abs(z - self.layer.base_z) > 1e-9

    def _split_epilogue(self):
        """Trailing non-deposition events of the last layer become epilogue."""
        if not self.program.layers:
            return
        last = self.program.layers[-1]
        cut = len(last.events)
        while cut > 0 and not isinstance(last.events[cut - 1], Toolpath):
            cut -= 1
        self.program.epilogue = last.events[cut:]
        last.events = last.events[:cut]
        # drop layers that never received a deposition (e.g. a trailing
        # ;LAYER: comment with nothing after it)
        self.program.layers = [
            l for l in self.program.layers
            if l.base_z is not None or l.events
        ]
        for l in self.program.layers:
            if l.base_z is None:
                l.base_z = 0.0


def _snapshot(program):
    """Everything a program holds, bit for bit: each event's repr (which
    tells -0.0 from 0.0), and each toolpath's vertex bytes."""
    def event(ev):
        if isinstance(ev, Toolpath):
            return "path", ev.vertices.shape, ev.vertices.tobytes()
        return repr(ev)
    return (program.newline, program.warnings,
            [event(ev) for ev in program.prologue],
            [(repr(l.base_z), [event(ev) for ev in l.events])
             for l in program.layers],
            [event(ev) for ev in program.epilogue])


def _outcome(parse, text):
    try:
        return _snapshot(parse(text))
    except GcodeParseError as exc:
        return "GcodeParseError", exc.line, str(exc)


def _per_line(text):
    return _PerLineParser(text).run(text)


# runs of depositions whose vertices step by less than, about and more
# than DUPLICATE_TOL, in x and in y; each starts from a G92 E0 so that it
# extrudes in either E mode
_STEPS = st.sampled_from([0.0, 3e-10, 5e-10, 7e-10, 1e-9, 2e-9, 1e-6])


@st.composite
def _duplicate_chain(draw):
    x0, y0 = draw(st.integers(-50, 50)) / 4, draw(st.integers(-50, 50)) / 4
    lines = ["G92 E0", f"G1 X{x0} Y{y0} E0.1"]
    x, y = x0, y0
    for k in range(draw(st.integers(1, 5))):
        x += draw(_STEPS)
        y += draw(_STEPS)
        z = draw(st.sampled_from(["", " Z0.6", " Z0.6000000004"]))
        lines.append(f"G1 X{x:.12f} Y{y:.12f}{z} E{0.2 + 0.1 * k:.1f}")
    return lines


_ERROR_LINES = st.sampled_from([
    "G2 X1 Y1 I1 J0", "G2 X1 Y1 E1", "G3 X1", "G20", "G92 X0",
    "G1 X1 Y1 E1 E2", "G1 Xfoo", "G1 X1 Y2 Z" + "9" * 20])
_STATE_LINES = st.sampled_from([
    "M82", "M83", "G92 E0", "G92 E-2.5", "G92", "G91", "G90",
    "G1 X1 Y1 E0.5", "G1 E1", "G1 X-0.0 Y0 E1.5", "G0 X5 Y5 Z1.2 F3000"])
# what carries across lines: the filament count from M83 into M82 and
# the E mode across a G92, the position forgotten in a G91 block, the
# moves a G91 block refuses, a travel before a deposition at a new z
_STATE_BLOCK_LIST = [
    ["M83", "G1 X2 Y2 E0.5", "G1 E-0.25", "M82", "G1 X3 Y3 E4"],
    ["M83", "G1 X2 Y2 E0.7", "M83", "G1 X2 Y3 E0.1", "M82", "G1 E1.5"],
    ["M83", "G92 E0", "G1 X4 Y4 E0.5", "G1 X5 Y5 E0.5"],
    ["G0 X9 Y9 Z2.4", "G1 X8 Y9 E60", "G0 X7 Y7 Z1.8", "G1 X8 Y7 E61"],
    ["G91", "G1 Z1", "G90", "G1 X1 Y1 E0.5"],
    ["G91", "G0 X1 Y1", "G90", "G1 Z0.6", "G1 X2 Y2 E9", "G1 X3 Y3 E10"],
    ["G91", "G1 Y2 E1"], ["G91", "G1 X2 E1"], ["G91", "G1 E1", "G91", "G90"]]
_STATE_BLOCKS = st.sampled_from(_STATE_BLOCK_LIST)


@settings(max_examples=300, deadline=None)
@given(blocks=st.lists(st.one_of(
           _move_line().map(lambda line: [line]),
           _OTHER_LINES.map(lambda line: [line]),
           _STATE_LINES.map(lambda line: [line]),
           _STATE_BLOCKS,
           _duplicate_chain(),
           st.just([";LAYER:2"]),
           st.lists(_ERROR_LINES, max_size=1)), max_size=30),
       start=st.sampled_from([["G0 X0 Y0 Z0.6"], ["G0 X0 Y0"], []]),
       newline=st.sampled_from(["\n", "\r\n"]),
       last_newline=st.booleans(),
       decode_block=st.sampled_from([gcode.DECODE_BLOCK, 1, 3]))
def test_parse_matches_the_per_line_parser(blocks, start, newline,
                                           last_newline, decode_block):
    # events, warnings and vertex bytes alike, or the same first error;
    # with small decode blocks too
    lines = start + [line for block in blocks for line in block]
    text = newline.join(lines) + (newline if last_newline else "")
    with mock.patch.object(gcode, "DECODE_BLOCK", decode_block):
        assert _outcome(parse_gcode, text) == _outcome(_per_line, text)


@pytest.mark.parametrize("block", _STATE_BLOCK_LIST)
def test_parse_matches_the_per_line_parser_on_state_blocks(block):
    # each block on its own, in a file split by Z
    text = "\n".join(["G0 X0 Y0 Z0.6", "G1 X1 Y0 E0.2"] + block) + "\n"
    assert _outcome(parse_gcode, text) == _outcome(_per_line, text)


@pytest.mark.parametrize("make", [
    wedge_fixture, dome_fixture, lambda: wedge_fixture(cross_hatch=True),
    parse_stress_gcode, hop_wedge_gcode])
def test_parse_matches_the_per_line_parser_on_fixtures(make):
    text = make()
    text = text if isinstance(text, str) else text[1]
    program = parse_gcode(text)
    assert _snapshot(program) == _snapshot(_per_line(text))
    assert emit_gcode(program) == emit_gcode(_per_line(text))


def test_parse_stress_scene_holds_what_it_names():
    text = parse_stress_gcode()
    program = parse_gcode(text)
    assert program.newline == "\r\n" and ";LAYER:" not in text
    for word in ("M83", "G92 E0", "G91", " ; move"):
        assert word in text
    # each raster row is one path: its start and 15 depositions, the
    # duplicate merged into the last, which keeps the duplicate's filament
    rows = [p.vertices for p in program.all_toolpaths()]
    assert [len(r) for r in rows] == [16] * 24
    assert [r[-1, E] for r in rows] == pytest.approx([0.04] * 24)
    assert [len(layer.toolpaths()) for layer in program.layers] == [6] * 4


@st.composite
def _tokens(draw):
    """Numbers of one shape: a sign, up to 5 integer digits (15 for E and
    F), an optional point and up to 12 fraction digits."""
    letter = draw(st.sampled_from("XYZEF"))
    sign = draw(st.sampled_from(["", "-", "+"]))
    whole = draw(st.integers(0, 5 if letter in "XYZ" else 15))
    point = draw(st.booleans()) or whole == 0
    frac = draw(st.integers(1 if whole == 0 else 0, 12)) if point else 0
    digits = st.text("0123456789", min_size=whole + frac, max_size=whole + frac)
    tokens = []
    for text in draw(st.lists(digits, min_size=1, max_size=6)):
        tokens.append(sign + text[:whole] + ("." if point else "") + text[whole:])
    return letter, tokens


def read_moves(lines):
    """The (words, move, rapid) columns as the parse fills them: `_decode`,
    then `_Parser.line` on each line that it leaves."""
    words, move, rapid = gcode._decode(lines)
    parser = gcode._Parser("\n".join(lines))
    for i in np.flatnonzero(~move).tolist():
        got = parser.line(i, lines[i])
        if isinstance(got, tuple):
            words[i], rapid[i] = got
            move[i] = True
    return words, move, rapid


@settings(max_examples=300, deadline=None)
@given(_tokens())
def test_decode_reads_every_shape_as_float_does(case):
    letter, tokens = case
    lines = [f"G1 {letter}{token}" for token in tokens]
    words, move, rapid = read_moves(lines)
    assert move.all() and not rapid.any()
    column = "XYZEF".index(letter)
    want = np.array([float(token) for token in tokens])
    assert words[:, column].tobytes() == want.tobytes()
    assert np.isnan(np.delete(words, column, axis=1)).all()


def test_decode_reads_signs_zeros_and_long_tokens_as_float_does():
    tokens = ["-0", "-0.000", "+0", "0", ".5", "-.5", "5.", "-5.", "99999.99999",
              "-12345.678901234567", "123456789012345", "999999999999999.9",
              "0.1000000000000000055511151231257827",
              "0000000000000000000000000000001.5"]
    lines = [f"G0 X0 Y0 Z0 E{token} F{token}" for token in tokens]
    words, move, rapid = read_moves(lines)
    assert move.all() and rapid.all()
    want = np.array([float(token) for token in tokens])
    assert words[:, 3].tobytes() == want.tobytes() == words[:, 4].tobytes()
    assert np.signbit(words[:2, 3]).all() and not np.signbit(words[2:4, 3]).any()


def test_decode_reads_a_g2_to_g9_of_a_move_shape_as_no_move():
    lines = ["G4", "G1", "G2 X1 Y1 E1", "G0 X1 Y1 E1", "G3 X1", "G9 X1.5 F60"]
    words, move, rapid = gcode._decode(lines)
    assert move.tolist() == [False, True, False, True, False, False]
    assert rapid.tolist() == [False, False, False, True, False, False]
    assert np.isnan(words[~move]).all()


def test_each_line_the_block_decode_leaves_is_read_once():
    # `_Parser.line` is the one reader of the lines that are no canonical
    # move: each is stripped and its command matched once, G0/G1 lines
    # with a comment among them
    text = parse_stress_gcode()
    lines = text.split("\r\n")[:-1]
    left = [line for line in lines if not _MOVE_RE.fullmatch(line)]
    assert any(line.startswith("G1 ") for line in left)
    with mock.patch.object(gcode, "_command_of", wraps=_command_of) as spy:
        parse_gcode(text)
    assert sorted(c.args[0] for c in spy.call_args_list) == sorted(
        line.partition(";")[0].strip() for line in left)
    assert np.count_nonzero(~gcode._decode(lines)[1]) == len(left)


def test_move_pattern_runs_once_per_line_shape():
    _, text = wedge_fixture()
    shapes = {line.translate(str.maketrans("123456789", "000000000"))
              for line in text.splitlines()}
    with mock.patch.object(gcode, "_MOVE_RE", mock.Mock(wraps=_MOVE_RE)) as m:
        parse_gcode(text)
    assert m.fullmatch.call_count == len(shapes) < len(text.splitlines()) / 20


# ---------------------------------------------------------------------------
# One format per extruding move against the per-word emitter

def _fmt(value):
    return f"{value:.{gcode.FORMAT_DECIMALS}f}"


class _PerWordEmitter:
    """The reference for `emit_gcode`: one event at a time, every line
    formatted word by word as it comes."""

    def __init__(self):
        self.lines = []
        self.x = None
        self.y = None
        self.z = None
        self.e_accum = 0.0
        self.e_mode = "absolute"    # as the parser starts, until an M82/M83
        self.f_word = None        # last emitted F in mm/min (formatted value)

    def raw(self, text):
        self.lines.append(text)

    def move(self, mv):
        parts = ["G0" if mv.rapid else "G1"]
        if mv.x is not None:
            parts.append(f"X{_fmt(mv.x)}")
            self.x = mv.x
        if mv.y is not None:
            parts.append(f"Y{_fmt(mv.y)}")
            self.y = mv.y
        if mv.z is not None:
            parts.append(f"Z{_fmt(mv.z)}")
            self.z = mv.z
        if mv.e is not None:
            self.e_accum += mv.e
            e = self.e_accum if self.e_mode == "absolute" else mv.e
            parts.append(f"E{_fmt(e)}")
        if mv.f is not None:
            word = _fmt(mv.f * gcode.FEED_FACTOR)
            if word != self.f_word:
                self.f_word = word
                parts.append(f"F{word}")
        self.lines.append(" ".join(parts))

    def e_set(self, ev):
        self.e_accum = ev.value
        self.raw(ev.text)

    def mode(self, ev):
        self.e_mode = ev.mode
        self.raw(ev.text)

    def toolpath(self, tp):
        rows = tp.vertices.tolist()
        sx, sy, sz = rows[0][:3]
        if (self.x is None or self.y is None
                or math.dist((self.x, self.y), (sx, sy)) > gcode.DUPLICATE_TOL
                or self.z is None
                or abs((self.z or 0) - sz) > gcode.DUPLICATE_TOL):
            self.move(Move(sx, sy, sz))
        for v in rows[1:]:
            self.e_accum += v[E]
            parts = ["G1", f"X{_fmt(v[X])}", f"Y{_fmt(v[Y])}",
                     f"Z{_fmt(v[Z])}"]
            if self.e_mode == "absolute":
                parts.append(f"E{_fmt(self.e_accum)}")
            else:
                parts.append(f"E{_fmt(v[E])}")
            word = _fmt(v[F] * gcode.FEED_FACTOR)
            if word != self.f_word:
                self.f_word = word
                parts.append(f"F{word}")
            self.lines.append(" ".join(parts))
            self.x, self.y, self.z = v[X], v[Y], v[Z]

    def event(self, ev):
        if isinstance(ev, RawLine):
            self.raw(ev.text)
        elif isinstance(ev, Move):
            self.move(ev)
        elif isinstance(ev, ESet):
            self.e_set(ev)
        elif isinstance(ev, ModeSwitch):
            self.mode(ev)
        elif isinstance(ev, Toolpath):
            self.toolpath(ev)
        else:
            raise TypeError(f"unknown event {ev!r}")


def _emit_per_word(program):
    em = _PerWordEmitter()
    for ev in program.events():
        em.event(ev)
    return program.newline.join(em.lines) + program.newline


@pytest.mark.parametrize("make", [
    wedge_fixture, flat_box_fixture, dome_fixture,
    lambda: wedge_fixture(cross_hatch=True)])
def test_emit_matches_per_word_reference_on_fixtures(make):
    mesh, text = make()
    program = parse_gcode(text)
    assert emit_gcode(program) == _emit_per_word(program)
    config = PipelineConfig(ordering_enabled=False)
    processed, _report, _text = run_pipeline(config, gcode_text=text,
                                             mesh=mesh)
    assert emit_gcode(processed) == _emit_per_word(processed)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["M82", "M83"]),
       moves=st.lists(st.tuples(
           st.integers(-200, 200), st.integers(-200, 200),
           st.integers(1, 50), st.sampled_from([None, 600, 1200, 1234.56789]),
           st.booleans()), min_size=1, max_size=30),
       shifts=st.lists(st.sampled_from([0.0, 0.0, 0.15, -0.2, 1e-7]),
                       min_size=1, max_size=8))
def test_emit_matches_per_word_reference_on_random_programs(mode, moves,
                                                           shifts):
    lines = [mode, "G92 E0", "G0 X0 Y0 Z0.6 F7200"]
    e = 0.0
    for x, y, de, feed, travel in moves:
        if travel:
            lines.append(f"G0 X{x / 10} Y{y / 10}")
            continue
        e += de / 100.0
        word = e if mode == "M82" else de / 100.0
        lines.append(f"G1 X{x / 10} Y{y / 10} E{word:.5f}"
                     + (f" F{feed}" if feed else ""))
    program = parse_gcode("\n".join(lines) + "\n")
    verts = [v for tp in program.all_toolpaths() for v in tp.vertices]
    for i, v in enumerate(verts):
        d = shifts[i % len(shifts)]
        v[Z] += d
        v[DELTA] = d
        v[F] *= 1.0 + d
    assert emit_gcode(program) == _emit_per_word(program)


def _row(x, y, z, e=0.0, f=20.0):
    return [x, y, z, e, f, 0.0]


# programs at the edges of the motion table, and their G-code
EDGE_PROGRAMS = {
    "start 5e-10 off the nozzle": ([
        Move(0.0, 0.0, 0.3, f=100.0),
        Toolpath([_row(5e-10, 0.0, 0.3), _row(10.0, 0.0, 0.3, 0.5)]),
    ], "G0 X0.00000 Y0.00000 Z0.30000 F6000.00000\n"
       "G1 X10.00000 Y0.00000 Z0.30000 E0.50000 F1200.00000\n"),
    "one-row path": ([
        Move(0.0, 0.0, 0.3, f=100.0),
        Toolpath([_row(1.0, 1.0, 0.3)]),
        Toolpath([_row(1.0, 1.0, 0.3), _row(2.0, 1.0, 0.3, 0.1)]),
    ], "G0 X0.00000 Y0.00000 Z0.30000 F6000.00000\n"
       "G0 X1.00000 Y1.00000 Z0.30000\n"
       "G1 X2.00000 Y1.00000 Z0.30000 E0.10000 F1200.00000\n"),
    "G92 E between a Move and a path": ([
        ModeSwitch("absolute", "M82"),
        Move(e=-0.8, f=40.0, rapid=False),
        ESet(5.0, "G92 E5"),
        Toolpath([_row(0.0, 0.0, 0.3), _row(3.0, 0.0, 0.3, 0.25)]),
    ], "M82\nG1 E-0.80000 F2400.00000\nG92 E5\nG0 X0.00000 Y0.00000 Z0.30000\n"
       "G1 X3.00000 Y0.00000 Z0.30000 E5.25000 F1200.00000\n"),
    "M83 between two paths": ([
        Toolpath([_row(0.0, 0.0, 0.3), _row(3.0, 0.0, 0.3, 0.25)]),
        ModeSwitch("relative", "M83"),
        Toolpath([_row(3.0, 0.0, 0.3), _row(3.0, 3.0, 0.3, 0.5, 30.0)]),
    ], "G0 X0.00000 Y0.00000 Z0.30000\n"
       "G1 X3.00000 Y0.00000 Z0.30000 E0.25000 F1200.00000\nM83\n"
       "G1 X3.00000 Y3.00000 Z0.30000 E0.50000 F1800.00000\n"),
    "feeds of zero apart by their sign": ([
        Move(0.0, 0.0, 0.3, f=10.0), Move(f=0.0), Move(f=-0.0),
        Move(x=1.0, f=10.0),
    ], "G0 X0.00000 Y0.00000 Z0.30000 F600.00000\nG0 F0.00000\n"
       "G0 F-0.00000\nG0 X1.00000 F600.00000\n"),
    "no G0 or G1": ([RawLine("; start"), RawLine("M104 S200")],
                    "; start\nM104 S200\n"),
    "empty": ([], "\n"),
}


@pytest.mark.parametrize("name", list(EDGE_PROGRAMS))
def test_motion_table_edges_match_both_references(name):
    events, gcode_text = EDGE_PROGRAMS[name]
    program = PrintProgram(layers=[Layer(base_z=0.3, events=events)])
    assert emit_gcode(program) == _emit_per_word(program) == gcode_text
    assert (estimate_print_time(program).hex()
            == print_time_reference(program).hex())
    if name == "start 5e-10 off the nozzle":
        # the travel to the path's start is timed too
        assert estimate_print_time(program) > (10.0 - 5e-10) / 20.0


def _program_over_blocks(block):
    """A CRLF program of more extruding rows than two blocks of `block`
    rows. Paths of 997 rows straddle the block ends, and one path's F
    changes on the first row of the second block. Some paths follow on
    where the last ended, so no travel writes F between them; a travel
    retracts. E turns relative (M83) and is reset (G92 E) midway. X takes
    k/64 values, exact ties at 5 decimals among them, and feeds that print
    alike but differ as floats."""
    rng = np.random.default_rng(34)
    rows = 997
    paths = 2 * block // rows + 2
    events = [RawLine("M82"), ESet(0.0, "G92 E0")]
    end = (0.0, 0.0, 0.3)
    for k in range(paths):
        v = np.zeros((rows + 1, VERTEX_COLUMNS))
        v[:, X] = rng.integers(-6400, 6400, rows + 1) / 64
        v[:, Y] = k + np.arange(rows + 1) / 128
        v[:, Z] = 0.3 + rng.choice([0.0, 0.15, -0.1], rows + 1)
        v[1:, E] = rng.uniform(0.001, 0.1, rows)
        v[:, F] = np.where(rng.random(rows + 1) < 0.05,
                           rng.choice([13.0, 20.0 + 1e-12, 17.5], rows + 1),
                           20.0)
        if k == block // rows:
            v[1 + block % rows:, F] = 25.0   # from the next block's first row
        if k % 3:
            v[0, :3] = end                   # on from the last path
        elif k % 2:
            events.append(Move(e=-0.8, f=40.0, rapid=False))
            events.append(Move(*v[0, :3].tolist(), f=120.0))
        else:
            events.append(Move(*v[0, :3].tolist()))
        events.append(Toolpath(v))
        end = tuple(v[-1, :3].tolist())
        if k == paths // 3:
            events.append(ModeSwitch("relative", "M83"))
        if k == 2 * paths // 3:
            events.append(ESet(0.0, "G92 E0"))
            events.append(ModeSwitch("absolute", "M82"))
    return PrintProgram(layers=[Layer(base_z=0.3, events=events)],
                        newline="\r\n")


@pytest.mark.parametrize("block", [gcode.DECODE_BLOCK, 61])
def test_emit_matches_per_word_reference_over_several_blocks(block):
    program = _program_over_blocks(block)
    assert sum(len(tp) - 1 for tp in program.all_toolpaths()) > 2 * block
    with mock.patch.object(gcode, "DECODE_BLOCK", block):
        text = emit_gcode(program)
    assert text == _emit_per_word(program)
    moves = [line for line in text.split("\r\n") if line.startswith("G1 X")]
    assert moves[block].endswith(" F1500.00000")
    assert "M83\r\n" in text and text.count("G92 E0") == 2
