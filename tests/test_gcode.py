import math
import re
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toolpath_aa import gcode
from toolpath_aa.fixtures import dome_fixture, wedge_fixture
from toolpath_aa.gcode import (DELTA, E, F, X, Y, Z, GcodeParseError,
                               Move, PrinterProfile, Toolpath,
                               deposition_segments, emit_gcode, parse_gcode,
                               total_extrusion)
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
from scenes import flat_box_fixture

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


def test_closed_square_five_vertices():
    text = (
        "G0 X0 Y0 Z0.6\n"
        "G1 X4 Y0 E1 F1200\nG1 X4 Y4 E2\nG1 X0 Y4 E3\nG1 X0 Y0 E4\n"
    )
    prog = parse_gcode(text)
    tp = prog.layers[0].toolpaths()[0]
    assert len(tp.vertices) == 5
    assert tp.closed


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
    with pytest.raises(GcodeParseError) as exc:
        parse_gcode("G0 X0 Y0 Z0.6\nG2 X10 Y10 I5 J0 E1\n")
    assert "line 2" in str(exc.value)


def test_non_numeric_word_errors_with_line():
    with pytest.raises(GcodeParseError) as exc:
        parse_gcode("G1 Xabc\n")
    assert "line 1" in str(exc.value)


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

# ---------------------------------------------------------------------------
# The one-pattern move tokeniser against the general tokeniser

_NUMBER_TEXT = st.from_regex(
    r"[-+]?(?:[0-9]{1,3}\.?[0-9]{0,3}|\.[0-9]{1,3})", fullmatch=True)
_BAD_NUMBER = st.sampled_from(
    ["", ".", "-", "+.", "1..2", "1.2.3", "1e3", "--1", "1-2", "1,5"])
_VARIANTS = ["canonical", "canonical", "lower", "swap", "n_word", "comment",
             "double_space", "leading_zero", "duplicate", "bad_number"]
_OTHER_LINES = st.sampled_from([
    "M82", "M83", "G92 E0", "G91", "G90", ";LAYER:1", ";TYPE:FILL",
    "G0 Z1.2", "M106 S255", ""])


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
                 "G1  X1", "G1 X1 X2", "G1 X1e3", "G1 X.", "G1 X1 "]:
        assert gcode._MOVE_RE.fullmatch(line) is None, line


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_move_line(), _OTHER_LINES), max_size=40))
def test_move_pattern_parses_like_the_general_tokeniser(lines):
    text = "\n".join(["G0 X0 Y0 Z0.6"] + lines) + "\n"
    with mock.patch.object(gcode, "_MOVE_RE", re.compile(r"(?!)")):
        reference = _parse_outcome(text)
    assert _parse_outcome(text) == reference


# ---------------------------------------------------------------------------
# One format per extruding move against the per-word emitter

class _PerWordEmitter(gcode._Emitter):
    """The per-word formatting of extruding moves, kept as the reference."""

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
            parts = ["G1", f"X{gcode._fmt(v[X])}", f"Y{gcode._fmt(v[Y])}",
                     f"Z{gcode._fmt(v[Z])}"]
            if self.e_mode == "absolute":
                parts.append(f"E{gcode._fmt(self.e_accum)}")
            else:
                parts.append(f"E{gcode._fmt(v[E])}")
            word = gcode._fmt(v[F] * gcode.FEED_FACTOR)
            if word != self.f_word:
                self.f_word = word
                parts.append(f"F{word}")
            self.lines.append(" ".join(parts))
            self.x, self.y, self.z = v[X], v[Y], v[Z]


def _emit_per_word(program):
    with mock.patch.object(gcode, "_Emitter", _PerWordEmitter):
        return emit_gcode(program)


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
