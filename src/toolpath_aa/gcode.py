"""Marlin/RepRap flavoured G-code parsing and emission.

The parser turns extruding G1 runs into Toolpaths (polylines with
per-vertex position, segment extrusion length and feedrate) grouped into
layers; everything else is preserved so that parse -> emit round-trips
with identical motion values and byte-identical non-motion lines.

Internal units: mm and mm/s. The G-code F word is mm/min (factor 60).
Segment extrusion is stored relative regardless of the file's M82/M83
mode and re-accumulated on emit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import ragged

FEED_FACTOR = 60.0          # F word (mm/min) -> mm/s
DUPLICATE_TOL = 1e-9        # consecutive duplicate vertices merged below this
CLOSURE_TOL = 1e-6          # first ~ last distance flagging a closed path
FORMAT_DECIMALS = 5


class GcodeParseError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# Columns of a toolpath's (n, 6) float64 vertex array, one row per vertex:
# position, the filament length of the segment that ends at the vertex (0
# on the first one), that segment's feedrate in mm/s, and the vertical
# displacement applied by anti-aliasing. x, y, z come first, so a vertex
# array is also a polyline for the XY distance functions in `geometry`.
VERTEX_COLUMNS = 6
X, Y, Z, E, F, DELTA = range(VERTEX_COLUMNS)


@dataclass
class Toolpath:
    """A polyline of vertex rows; see the column indices above."""

    vertices: np.ndarray
    closed: bool = False
    layer_index: int = 0
    modified: bool = False

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(
            -1, VERTEX_COLUMNS)

    def __eq__(self, other):
        """Value equality, with the vertex arrays compared elementwise."""
        if not isinstance(other, Toolpath):
            return NotImplemented
        return (np.array_equal(self.vertices, other.vertices)
                and (self.closed, self.layer_index, self.modified)
                == (other.closed, other.layer_index, other.modified))

    def __len__(self):
        return len(self.vertices)

    def total_e(self):
        """Filament of the path's segments; the first row's E ends no
        segment of this path (see `deposition_segments`) and is not emitted."""
        return fold_sum(self.vertices[1:, E].tolist())


def fold_sum(values):
    """Floats added left to right from 0.0, on every Python: the builtin
    `sum()` compensates its additions since 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def deposition_segments(paths):
    """The one rule for which vertex rows form a deposition segment: a row
    after a path's first whose E is positive ends one, which starts at the
    row before. Returns (path index, end row index, start rows, end rows)
    over `paths`, in path and then row order; the rows are (m, 6) arrays."""
    verts = np.concatenate([p.vertices for p in paths]
                           + [np.empty((0, VERTEX_COLUMNS))])
    path, row = ragged([len(p) for p in paths])
    end = np.flatnonzero((row > 0) & (verts[:, E] > 0))
    return path[end], row[end], verts[end - 1], verts[end]


@dataclass
class RawLine:
    text: str


@dataclass
class Move:
    """A G0/G1 that lays no track: a travel, a retraction or prime, a wipe
    (an XY move that retracts) or a Z hop. Each word is None when the line
    lacks it; e is the relative filament amount, kept verbatim and never
    rescaled."""

    x: float = None
    y: float = None
    z: float = None
    e: float = None
    f: float = None           # mm/s
    rapid: bool = True        # G0 vs G1

    @property
    def e_only(self):
        """A retraction or prime in place: an E word without X or Y."""
        return self.e is not None and self.x is None and self.y is None


@dataclass
class ESet:
    """G92 E...: resets the extruder accumulator."""

    value: float
    text: str = ""


@dataclass
class ModeSwitch:
    """M82/M83 extrusion mode change, kept in place."""

    mode: str                 # absolute | relative
    text: str = ""


@dataclass
class Layer:
    base_z: float
    events: list = field(default_factory=list)

    def toolpaths(self):
        return [ev for ev in self.events if isinstance(ev, Toolpath)]


@dataclass
class PrintProgram:
    prologue: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    epilogue: list = field(default_factory=list)
    newline: str = "\n"
    warnings: list = field(default_factory=list)

    def events(self):
        """Every event in file order: prologue, layers, epilogue."""
        yield from self.prologue
        for layer in self.layers:
            yield from layer.events
        yield from self.epilogue

    def all_toolpaths(self):
        for layer in self.layers:
            yield from layer.toolpaths()

    def vertex_count(self):
        return sum(len(tp) for tp in self.all_toolpaths())


@dataclass
class PrinterProfile:
    """Nozzle and process constants.

    w/tau: inner/outer nozzle diameter (mm); alpha: nozzle side
    inclination (radians); h: base layer thickness (mm); f_ini/f_min:
    deposition speeds (mm/s); s: slicing plane position in [0, h]
    (default h/2); d: track width (default w); filament_diameter feeds
    the volume <-> filament length conversion. Every field is finite.
    """

    w: float = 0.8
    tau: float = 1.25
    alpha: float = math.radians(45.0)
    h: float = 0.6
    f_ini: float = 20.0
    f_min: float = 13.0
    s: float = None
    d: float = None
    filament_diameter: float = 2.85

    def __post_init__(self):
        if self.s is None:
            self.s = self.h / 2.0
        if self.d is None:
            self.d = self.w
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not (0 < self.w < self.tau):
            raise ValueError(f"need 0 < w < tau, got w={self.w}, tau={self.tau}")
        if not (0 < self.alpha <= math.pi / 2):
            raise ValueError(f"alpha must be in (0, pi/2], got {self.alpha}")
        if self.h <= 0:
            raise ValueError("layer thickness h must be positive")
        if not (0 < self.f_min <= self.f_ini):
            raise ValueError(f"need 0 < f_min <= f_ini, got f_min={self.f_min}, "
                             f"f_ini={self.f_ini}")
        if not (0 <= self.s <= self.h):
            raise ValueError(f"slicing plane s must lie in [0, h], got {self.s}")
        if self.d <= 0:
            raise ValueError(f"track width d must be positive, got {self.d}")
        if self.filament_diameter <= 0:
            raise ValueError("filament diameter must be positive")

    @property
    def filament_area(self):
        return math.pi * (self.filament_diameter / 2.0) ** 2


_WORD_SHAPE_RE = re.compile(r"([A-Za-z])\s*([^\sA-Za-z]*)")
# a word's value never holds a letter, so no exponent form is read
_NUMBER = r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)"
_NUMBER_RE = re.compile(_NUMBER + "$")
# the canonical slicer move: G0/G1 and then X, Y, Z, E, F, each at most
# once, in this order, one space apart, no comment; any other line takes
# the general path, which reads it the same way
_MOVE_RE = re.compile("G([01])" + "".join(
    f"(?: {letter}({_NUMBER}))?" for letter in "XYZEF"))
_CMD_RE = re.compile(r"^([GMgm])\s*([0-9]+)")

# commands the parser interprets; everything else passes through verbatim
_INTERPRETED = {
    ("G", 0.0), ("G", 1.0), ("G", 2.0), ("G", 3.0), ("G", 20.0),
    ("G", 90.0), ("G", 91.0), ("G", 92.0), ("M", 82.0), ("M", 83.0),
}


def _split_comment(line):
    i = line.find(";")
    if i < 0:
        return line, None
    return line[:i], line[i:]


def _command_of(code):
    m = _CMD_RE.match(code)
    if m is None:
        return None
    return m.group(1).upper(), float(m.group(2))


def _parse_words(code, lineno):
    words = {}
    for match in _WORD_SHAPE_RE.finditer(code):
        letter = match.group(1).upper()
        if letter == "N":
            continue
        value = match.group(2)
        if not _NUMBER_RE.match(value):
            raise GcodeParseError(
                f"non-numeric value {value!r} for word {letter}", lineno)
        if letter in words:
            raise GcodeParseError(f"duplicate word {letter}", lineno)
        words[letter] = float(value)
    return words


class _Parser:
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
        self.layer_comments = ";LAYER:" in text
        self.travel_z = None     # z last set by a travel move

    def close_path(self):
        if self.path is not None:
            rows = self.rows
            if len(rows) >= 2:
                self.path.vertices = np.array(rows)
                if math.dist(rows[0][:3], rows[-1][:3]) < CLOSURE_TOL:
                    self.path.closed = True
            else:
                # a lone vertex is not a path
                self.layer.events.remove(self.path)
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
        code, comment = _split_comment(raw)
        stripped = code.strip()
        if not stripped:
            if comment is not None and comment.upper().startswith(";LAYER:"):
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
        if letter == "G" and number in (0.0, 1.0):
            if self.xyz_relative:
                if "E" in words and ("X" in words or "Y" in words):
                    raise GcodeParseError(
                        "extruding XY move in relative coordinate mode", lineno)
                self.add_event(RawLine(raw))
                return
            self.move(*map(words.get, "XYZEF"), rapid=(number == 0.0),
                      lineno=lineno)
            return
        # any other command: preserved verbatim, breaks the current path
        self.add_event(RawLine(raw))

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
            if self.layer is not None and self.layer.base_z is None:
                self._warn_below(new_z, lineno, self.program.layers[:-1])
                self.layer.base_z = new_z
                self.travel_z = None
            elif self._starts_new_layer(new_z):
                self._warn_below(new_z, lineno, self.program.layers)
                self.close_path()
                self.layer = Layer(base_z=new_z)
                self.program.layers.append(self.layer)
                self.travel_z = None
            if self.path is None:
                self.path = Toolpath(vertices=(),
                                     layer_index=len(self.program.layers) - 1)
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
            if z is not None:
                self.travel_z = z
                if self.layer is not None and self.layer.base_z is None:
                    self.layer.base_z = z
        self.x, self.y, self.z = new_x, new_y, new_z

    def _warn_below(self, z, lineno, earlier):
        """Warn when a new layer's first deposition, at z, lies below the
        last of the `earlier` layers."""
        prev_z = earlier[-1].base_z if earlier else None
        if prev_z is not None and z < prev_z - 1e-9:
            self.program.warnings.append(f"line {lineno}: deposition z "
                                         f"decreased ({prev_z:.5f} -> {z:.5f})")

    def _starts_new_layer(self, z):
        """Layer split rule: the first deposition, or (in files without
        ;LAYER: comments) a travel that established a different z.
        Deposition-only z variation, as in anti-aliased output, never
        splits a layer."""
        if self.layer is None:
            return True
        if self.layer_comments:
            return False      # only ;LAYER: comments split
        return (self.travel_z is not None
                and abs(self.travel_z - self.layer.base_z) > 1e-9)

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


def parse_gcode(text):
    """Parse G-code text into a PrintProgram."""
    parser = _Parser(text)
    return parser.run(text)


# ---------------------------------------------------------------------------
# Emission

def _fmt(value):
    return f"{value:.{FORMAT_DECIMALS}f}"


# the same digits as `_fmt`; a %-template with a fixed precision formats
# an extruding move about twice as fast as per-word nested format specs
_NUM_FMT = f"%.{FORMAT_DECIMALS}f"
_MOVE_FMT = "G1 X{0} Y{0} Z{0} E{0}".format(_NUM_FMT)


class _Emitter:
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
            word = _fmt(mv.f * FEED_FACTOR)
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
        verts = tp.vertices
        x, y, z = verts[0, :3].tolist()
        if (self.x is None or self.y is None
                or math.dist((self.x, self.y), (x, y)) > DUPLICATE_TOL
                or self.z is None or abs((self.z or 0) - z) > DUPLICATE_TOL):
            # re-position without extruding (covers reordered paths)
            self.move(Move(x, y, z))
        if len(verts) < 2:
            return
        absolute = self.e_mode == "absolute"
        e_accum = self.e_accum
        f_word = self.f_word
        append = self.lines.append
        for x, y, z, e, f in verts[1:, :5].tolist():
            e_accum += e
            word = _NUM_FMT % (f * FEED_FACTOR)
            line = _MOVE_FMT % (x, y, z, e_accum if absolute else e)
            if word != f_word:
                f_word = word
                line += " F" + word
            append(line)
        self.e_accum = e_accum
        self.f_word = f_word
        self.x, self.y, self.z = x, y, z

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


def emit_gcode(program):
    """Serialise a PrintProgram back to G-code text."""
    em = _Emitter()
    for ev in program.events():
        em.event(ev)
    return program.newline.join(em.lines) + program.newline


def total_extrusion(program):
    total = 0.0
    for ev in program.events():
        if isinstance(ev, Toolpath):
            total += ev.total_e()
        elif isinstance(ev, Move) and ev.e is not None:
            total += ev.e
    return total
