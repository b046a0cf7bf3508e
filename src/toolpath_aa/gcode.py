"""Marlin/RepRap flavoured G-code parsing and emission.

The parser turns extruding G1 runs into Toolpaths (polylines with
per-vertex position, segment extrusion length and feedrate) grouped into
layers; everything else is preserved so that parse -> emit round-trips
with identical motion values and byte-identical non-motion lines.

It reads a file in two passes, and each line once. The decode pass
(`_decode`) reads the usual slicer moves' words into columns, checked
once per line shape and their digits read a block of lines at a time.
`_Parser.line` reads every line the decode leaves: a G0/G1's words
through the general word tokeniser, into the same columns, and any other
line as one event. The state pass (`_Parser.state`) applies all the
moves at once with numpy: the position and feedrate carried forward, E
made a filament delta, and the depositions cut into paths of vertex rows.
Every event ends a path; a walk in file order places the events, opens
the layers and raises the first error.

Emission reads one table, `motion_rows`, which the print time reads too:
every G0/G1 the program prints, as X, Y, Z, E and F rows in file order.
E is settled one `np.add.accumulate` per G92 E (bitwise a loop of `+=`),
and a row writes F where its text differs from the last F's. The written
rows become text a block of DECODE_BLOCK at a time, each column in one
array pass (`fixedtext`), byte for byte what `'%.5f' % v` writes, cut
where the other events' lines go between them.

Internal units: mm and mm/s. The G-code F word is mm/min (factor 60).
Segment extrusion is stored relative regardless of the file's M82/M83
mode and re-accumulated on emit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .fixedtext import fixed_point, table, text_rows
from .geometry import ragged

FEED_FACTOR = 60.0          # F word (mm/min) -> mm/s
DUPLICATE_TOL = 1e-9        # consecutive duplicate vertices merged below this
CLOSURE_TOL = 1e-6          # first ~ last distance making a path closed
FORMAT_DECIMALS = 5
COORDINATE_LIMIT = 1e5      # mm; a larger |X|, |Y| or |Z| is refused
DECODE_BLOCK = 1 << 14      # lines decoded or emitted together, which bounds
                            # the temporaries


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
    """A polyline of vertex rows; see the column indices above. What the
    path is (closed, modified) is read from the rows as they are now."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(
            -1, VERTEX_COLUMNS)

    def __eq__(self, other):
        """Value equality, with the vertex arrays compared elementwise."""
        if not isinstance(other, Toolpath):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices)

    @property
    def closed(self):
        """A loop: at least 2 rows, the first and last within CLOSURE_TOL."""
        v = self.vertices
        return len(v) >= 2 and math.dist(v[0, :3].tolist(),
                                         v[-1, :3].tolist()) < CLOSURE_TOL

    @property
    def modified(self):
        """Displaced by anti-aliasing: some row's DELTA is not zero."""
        return bool(self.vertices[:, DELTA].any())

    def __len__(self):
        return len(self.vertices)

    def total_e(self):
        """Filament of the path's segments; the first row's E ends no
        segment of this path (see `deposition_segments`) and is not emitted."""
        return fold_sum(self.vertices[1:, E])


def fold_sum(values):
    """The float64 array `values` added left to right from 0.0, as a loop
    of `+=` adds it: `np.add.accumulate` adds in order, where `np.sum`
    and, since Python 3.12, the builtin `sum()` do not. The leading 0.0
    makes a sum of -0.0 +0.0, as in the loop."""
    total = np.zeros(len(values) + 1)
    total[1:] = values
    return np.add.accumulate(total, out=total)[-1].item()


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
    base_z: float             # first deposition's z; 0.0 if it has none
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
# the general path, which reads it the same way. Its values are in range
# by their digits: at most 5 before the point for X, Y and Z (below
# COORDINATE_LIMIT), 15 for E and F (finite), and at most 15 in all, which
# `_decode` needs to be exact; a longer one takes the general path too,
# which checks its value
_SHORT_NUMBER = (r"[-+]?(?=[0-9.]{{1,16}}(?![0-9.]))"
                 r"(?:[0-9]{{1,{}}}(?:\.[0-9]*)?|\.[0-9]+)")
_MOVE_RE = re.compile("G([01])" + "".join(
    f"(?: {letter}({_SHORT_NUMBER.format(digits)}))?"
    for letter, digits in zip("XYZEF", (5, 5, 5, 15, 15))))
_SHAPE = str.maketrans("123456789", "000000000")
# a canonical move's numbers, the command digit first, as unsigned integers
_DIGITS = str.maketrans("GXYZEF", "      ", ".+-")
_CMD_RE = re.compile(r"^([GMgm])\s*([0-9]+)")
# a layer line, after a newline: nothing but a comment starting ;LAYER:, in
# any case. The literal newline lets a search skip to the next line start
_LAYER_LINE_RE = re.compile(r"\n\s*;LAYER:", re.IGNORECASE)

# commands the parser interprets; everything else passes through verbatim
_INTERPRETED = {
    ("G", 0.0), ("G", 1.0), ("G", 2.0), ("G", 3.0), ("G", 20.0),
    ("G", 90.0), ("G", 91.0), ("G", 92.0), ("M", 82.0), ("M", 83.0),
}


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
        number = float(value)
        if not (math.isfinite(number)
                and (letter not in "XYZ" or abs(number) <= COORDINATE_LIMIT)):
            raise GcodeParseError(
                f"value {number!r} for word {letter} is out of range", lineno)
        words[letter] = number
    return words


def _decode(lines):
    """Decode pass over the canonical moves: (words, move, rapid) over the
    lines. `words` holds each canonical move's X, Y, Z, E and F values,
    NaN where the line lacks the word and on every other line; `move`
    marks the canonical moves, `rapid` the G0s among them.

    A line's shape is the line with its digits 1-9 read as 0. `_MOVE_RE`
    is matched once per shape (`_shape_terms`), which tells for every line
    of a canonical shape where its numbers are, their signs and their
    fraction digits. The digits of a block of those lines are read as
    integers in one call, and each number is its mantissa over 10**k. The
    pattern allows at most 15 digits, so the mantissa is below 2**53 and
    10**k is exact: the one division rounds the decimal correctly, as
    `float()` does; the sign is applied last, so -0 gives -0.0. Every
    other line, a G0/G1 with a comment or a longer number among them, is
    left to `_Parser.line`, its one reader; so is a G2-G9 that shares a
    G0's shape."""
    n = len(lines)
    words = np.full((n, 5), np.nan)
    move = np.zeros(n, dtype=bool)
    rapid = np.zeros(n, dtype=bool)
    terms = {}                  # of every shape seen
    for lo in range(0, n, DECODE_BLOCK):
        block = lines[lo:lo + DECODE_BLOCK]
        shapes = "\n".join(block).translate(_SHAPE).split("\n")
        ids = {shape: k for k, shape in enumerate(dict.fromkeys(shapes))}
        key = np.fromiter(map(ids.__getitem__, shapes), np.int64, count=len(block))
        for shape in ids.keys() - terms.keys():
            terms[shape] = _shape_terms(shape)
        scale, sign = np.hsplit(np.array([terms[shape] for shape in ids]), 2)
        rows = np.flatnonzero(scale[key, 0])
        key = key[rows]
        cells = scale[key] > 0
        values = np.full(cells.shape, np.nan)
        values[cells] = np.fromstring(" ".join([block[i] for i in rows.tolist()])
                                      .translate(_DIGITS), np.int64, sep=" ")
        values = values / scale[key] * sign[key]
        g01 = values[:, 0] <= 1.0
        rows = rows[g01] + lo
        words[rows] = values[g01, 1:]
        move[rows] = True
        rapid[rows] = values[g01, 0] == 0.0
    return words, move, rapid


def _shape_terms(shape):
    """For the command digit and X..F of the lines of `shape`: the scale
    that each number's integer digits are divided by, 0 where the line has
    no such number, then the sign of each; all scales are 0 unless
    `_MOVE_RE` matches the shape."""
    m = _MOVE_RE.fullmatch(shape)
    if m is None:
        return [0.0] * 6 + [1.0] * 6
    tokens = m.groups("")
    return ([10.0 ** (len(t) - 1 - t.find(".")) if "." in t else float(t != "")
             for t in tokens] + [-1.0 if t[:1] == "-" else 1.0 for t in tokens])


def forward_fill(values, reset):
    """Each entry's latest non-NaN value since the latest reset at or
    before it, NaN where there is none; reset[0] must be set."""
    mark = np.where(reset | ~np.isnan(values), np.arange(len(values)), 0)
    return values[np.maximum.accumulate(mark)]


_DEPOSITION_ERRORS = ("", "extruding move before any Z was set",
                      "extruding move with unknown start position")


class _Parser:
    def __init__(self, text):
        self.program = PrintProgram(newline="\r\n" if "\r\n" in text else "\n")
        self.e_marks = []       # (line index, M82/M83 mode or None, G92 E or None)
        self.relative = []      # first and end line index of each G91 block
        self.layer = None
        self.layer_lines = _LAYER_LINE_RE.search("\n" + text) is not None

    def open_layer(self):
        self.layer = Layer(base_z=None)
        self.program.layers.append(self.layer)

    def add_event(self, ev):
        if self.layer is None:
            self.program.prologue.append(ev)
        else:
            self.layer.events.append(ev)

    def run(self, text):
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if "\r" in text:
            lines = [raw.rstrip("\r") for raw in lines]
        words, move, rapid = _decode(lines)
        # `line` reads each line that the decode leaves: a G0/G1 gives its
        # words, any other line one event (an error is kept, and raised
        # when the walk below reaches it); the G91 blocks' moves give one too
        events = {}
        for i in np.flatnonzero(~move).tolist():
            try:
                ev = self.line(i, lines[i])
            except GcodeParseError as exc:
                ev = exc
            if isinstance(ev, tuple):
                words[i], rapid[i] = ev
                move[i] = True
            else:
                events[i] = ev
        if len(self.relative) % 2:
            self.relative.append(len(lines))
        for first, end in zip(self.relative[::2], self.relative[1::2]):
            for i in (np.flatnonzero(move[first:end]) + first).tolist():
                x, y, _, e, _ = words[i] == words[i]      # present words
                events[i] = (GcodeParseError("extruding XY move in relative "
                                             "coordinate mode", i + 1)
                             if e and (x or y) else RawLine(lines[i]))
                move[i] = False
        moves = np.flatnonzero(move)
        words = words[moves]        # the other rows are freed before the state pass
        travels, starts = self.state(moves, words, rapid[moves])
        kind = np.zeros(len(lines), dtype=np.int8)
        kind[list(events)] = 1
        kind[moves[travels[0]]] = 2
        kind[moves[starts[0]]] = 3
        travels, starts = iter(travels[1]), iter(starts[1])
        for i in np.flatnonzero(kind).tolist():
            if kind[i] == 1:
                ev = events[i]
                if isinstance(ev, GcodeParseError):
                    raise ev
                if isinstance(ev, RawLine) and _LAYER_LINE_RE.match("\n" + ev.text):
                    self.open_layer()  # the comment and all after belong to it
                self.add_event(ev)
            elif kind[i] == 2:
                self.add_event(next(travels))
            else:
                self.deposit(i, *next(starts))
        self._split_epilogue()
        return self.program

    def line(self, i, raw):
        """The event of line i, or for a G0/G1 its X, Y, Z, E and F words
        (NaN where absent) and whether it is a G0; records the extrusion
        and coordinate modes that the line sets."""
        stripped = raw.partition(";")[0].strip()
        cmd = _command_of(stripped)
        if cmd not in _INTERPRETED:
            # comments, blank lines and unrecognised commands (fans,
            # temperatures, displays, ...) are preserved verbatim
            return RawLine(raw)
        words = _parse_words(stripped, i + 1)
        letter, number = cmd
        if letter == "G" and number in (0.0, 1.0):
            return [words.get(k, np.nan) for k in "XYZEF"], number == 0.0
        if letter == "G" and number in (2.0, 3.0):
            raise GcodeParseError(
                "arc moves (G2/G3) are not supported; linearise them first",
                i + 1)
        if letter == "G" and number == 20.0:
            raise GcodeParseError("inch units (G20) are not supported", i + 1)
        if letter == "G" and number in (90.0, 91.0):
            # a G91 block's moves are kept verbatim, and the position is
            # unknown after it
            if (number == 91.0) == (len(self.relative) % 2 == 0):
                self.relative.append(i)
            return RawLine(raw)
        if letter == "M":
            mode = "absolute" if number == 82.0 else "relative"
            self.e_marks.append((i, mode, None))
            return ModeSwitch(mode, raw)
        # G92
        if any(k in words for k in "XYZ"):
            raise GcodeParseError("G92 redefining X/Y/Z is not supported", i + 1)
        if "E" in words:
            self.e_marks.append((i, None, words["E"]))
            return ESet(words["E"], raw)
        return RawLine(raw)

    def state(self, lines, words, rapid):
        """State pass over the moves outside G91 blocks, at line indices
        `lines`: the last X, Y, Z and F carried forward, each E made a
        filament delta in the mode of its line, and the moves split into
        depositions (an E delta above 0 and a new XY) and the rest.
        Returns the rest as (indices into `lines`, Move events) and the
        paths as (the indices of their first depositions, (z, travelled,
        error, vertex rows or None for a lone vertex) for each)."""
        n = len(lines)
        x, y, z, e, f = words.T
        reset = np.zeros(n + 1, dtype=bool)
        reset[0] = True
        reset[np.searchsorted(lines, self.relative[::2])] = True
        reset = reset[:n]
        nx, ny, nz = (forward_fill(c, reset) for c in (x, y, z))
        px, py, pz = (np.where(reset, np.nan, np.roll(c, 1)) for c in (nx, ny, nz))
        feed = forward_fill(f / FEED_FACTOR, np.arange(n) == 0)
        feed[np.isnan(feed)] = 0.0
        de = np.zeros(n)
        has_e = ~np.isnan(e)
        marks = [(0, None, None)] + self.e_marks
        bounds = np.searchsorted(lines, [i for i, _, _ in marks]).tolist() + [n]
        mode, value = "absolute", 0.0
        for (_, m, v), a, b in zip(marks, bounds, bounds[1:]):
            mode = m or mode
            value = value if v is None else v
            got = np.flatnonzero(has_e[a:b]) + a
            if len(got) and mode == "absolute":
                de[got] = e[got] - np.r_[value, e[got[:-1]]]
                value = e[got[-1]]
            elif len(got):
                de[got] = e[got]
                value = np.cumsum(np.r_[value, e[got]])[-1]
        dep = (de > 0) & (~np.isnan(x) | ~np.isnan(y)) & ~np.isnan(nx + ny) & (
            np.isnan(px + py) | (nx != px) | (ny != py))
        after = np.roll(dep, 1)       # the move before is a deposition
        after[:1] = False
        travelled = ~after
        after &= np.diff(lines, prepend=-1) == 1   # ... with no line between

        travels = np.flatnonzero(~dep)
        cols = [c[travels].tolist() for c in
                (x, y, z, np.where(has_e, de, np.nan), f / FEED_FACTOR)]
        moves = [Move(*[None if v != v else v for v in vals], rapid=r)
                 for *vals, r in zip(*cols, rapid[travels].tolist())]

        # vertex rows: each path's start, where the nozzle was, then one
        # row per deposition
        d = np.flatnonzero(dep)
        opens = ~after[d]
        starts = d[opens]
        row = np.arange(len(d)) + np.cumsum(opens)
        sz = np.where(np.isnan(pz), nz, pz)
        verts = np.zeros((len(d) + len(starts), VERTEX_COLUMNS))
        for c, col in zip((X, Y, Z, E, F), (nx, ny, nz, de, feed)):
            verts[row, c] = col[d]
        for c, col in zip((X, Y, Z, F), (px, py, sz, feed)):
            verts[row[opens] - 1, c] = col[starts]
        # a vertex within DUPLICATE_TOL of the last row kept merges into it,
        # which is within that of the previous position: only rows within
        # twice that of their previous row can merge
        keep = np.ones(len(verts), dtype=bool)
        near = (nx[d] - px[d]) ** 2 + (ny[d] - py[d]) ** 2 + (nz[d] - sz[d]) ** 2
        for r in row[near < (4 * DUPLICATE_TOL) ** 2].tolist():
            k = r - 1
            while not keep[k]:
                k -= 1
            if math.dist(verts[k, :3].tolist(),
                         verts[r, :3].tolist()) < DUPLICATE_TOL:
                keep[r] = False
                verts[k, E] += verts[r, E]
        first = np.zeros(len(verts), dtype=bool)
        first[row[opens] - 1] = True
        count = np.bincount((np.cumsum(first) - 1)[keep], minlength=len(starts))
        paths = np.split(verts if keep.all() else verts[keep], np.cumsum(count)[:-1])
        error = np.where(np.isnan(nz[starts]), 1,
                         2 * np.isnan(px[starts] + py[starts]))
        return (travels, moves), (starts, list(zip(
            nz[starts].tolist(), travelled[starts].tolist(), error.tolist(),
            [p if len(p) >= 2 else None for p in paths])))

    def deposit(self, i, z, travelled, error, vertices):
        """A path's first deposition, at line i."""
        if error:
            raise GcodeParseError(_DEPOSITION_ERRORS[error], i + 1)
        if self._starts_new_layer(z, travelled):
            self.open_layer()
        if self.layer.base_z is None:
            self._warn_below(z, i + 1, self.program.layers[:-1])
            self.layer.base_z = z
        if vertices is not None:        # a lone vertex is not a path
            self.layer.events.append(Toolpath(vertices))

    def _warn_below(self, z, lineno, earlier):
        """Warn when a new layer's first deposition, at z, lies below the
        last deposition height of the `earlier` layers."""
        prev_z = next((l.base_z for l in reversed(earlier)
                       if l.base_z is not None), None)
        if prev_z is not None and z < prev_z - 1e-9:
            self.program.warnings.append(f"line {lineno}: deposition z "
                                         f"decreased ({prev_z:.5f} -> {z:.5f})")

    def _starts_new_layer(self, z, travelled):
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
        return travelled and abs(z - self.layer.base_z) > 1e-9

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

MOVE, START, DEPOSIT = range(3)     # the kinds of `motion_rows`' rows


def motion_rows(program):
    """Every G0/G1 the program prints, in file order, as an (n, 5) table
    of X, Y, Z, the relative E amount and F in mm/s, NaN for a word the
    line lacks: a `Move` is a MOVE row, a Toolpath a START row (its first
    vertex, with no E and F) and a DEPOSIT row per later vertex. Returns
    (rows, kind, rapid, shown, events): the row kinds; the G0 rows, every
    START among them; the written rows, all but a START within
    DUPLICATE_TOL in XY and in Z of where the written rows left the
    nozzle; and each other event with the index of the row it precedes."""
    moves, paths, hidden, events = [], [], [], []
    x = y = z = math.nan        # the nozzle, NaN until a row writes it
    n = 0
    for ev in program.events():
        if isinstance(ev, Move):
            moves.append((n, ev))
            x, y, z = (x if ev.x is None else ev.x, y if ev.y is None else ev.y,
                       z if ev.z is None else ev.z)
            n += 1
        elif isinstance(ev, Toolpath):
            v = ev.vertices
            sx, sy, sz = v[0, :3].tolist()
            if (math.dist((x, y), (sx, sy)) <= DUPLICATE_TOL
                    and abs(z - sz) <= DUPLICATE_TOL):
                hidden.append(n)
            else:
                x, y, z = sx, sy, sz
            if len(v) > 1:
                x, y, z = v[-1, :3].tolist()
            paths.append((n, v))
            n += len(v)
        elif isinstance(ev, (RawLine, ESet, ModeSwitch)):
            events.append((n, ev))
        else:
            raise TypeError(f"unknown event {ev!r}")
    rows = np.empty((n, F + 1))
    move_at = [at for at, _ in moves]
    rows[move_at] = np.array([(m.x, m.y, m.z, m.e, m.f) for _, m in moves],
                             dtype=np.float64).reshape(-1, F + 1)  # None: NaN
    for at, v in paths:
        rows[at:at + len(v)] = v[:, :F + 1]
    starts = [at for at, _ in paths]
    rows[starts, E:] = np.nan
    kind = np.full(n, DEPOSIT, dtype=np.int8)
    kind[move_at] = MOVE
    kind[starts] = START
    g0 = kind == START
    g0[move_at] = [m.rapid for _, m in moves]
    shown = np.ones(n, dtype=bool)
    shown[hidden] = False
    return rows, kind, g0, shown, events


def emit_gcode(program):
    """Serialise a PrintProgram back to G-code text."""
    return "".join(_text(program)) or program.newline


def _text(program):
    """The pieces of `emit_gcode`'s text in order: the written rows of
    `motion_rows` with their E and F words settled, a block of
    DECODE_BLOCK at a time, and the other events' lines between them. As
    a generator it frees the table before the pieces are joined."""
    rows, _, rapid, shown, events = motion_rows(program)
    _settle_e(rows, events)
    _settle_f(rows)
    written = np.flatnonzero(shown)
    # the written rows before each event, where the rows' text is cut
    at = np.searchsorted(written, [r for r, _ in events])
    texts = [ev.text + program.newline for _, ev in events]
    k, before = 0, at.tolist()
    for lo in range(0, len(written), DECODE_BLOCK):
        block = written[lo:lo + DECODE_BLOCK]
        ends = np.r_[at[(at > lo) & (at < lo + len(block))], lo + len(block)]
        pieces = _row_text(rows, block, rapid[block], ends - lo, program.newline)
        for start, piece in zip([lo, *ends[:-1].tolist()], pieces):
            while k < len(texts) and before[k] <= start:
                yield texts[k]
                k += 1
            yield piece
    yield from texts[k:]


def _row_text(rows, block, rapid, ends, newline):
    """The G-code lines of the rows `block` of `rows` (X, Y, Z, E and F,
    NaN where a word is not written), cut after each of the row counts
    `ends`. Each word is a column: a space, the letter and the value as
    `'%.5f' % v` writes it, or 0 bytes where the value is NaN."""
    pieces = [table([b"G1", b"G0"])[rapid.view(np.uint8)]]
    for c, letter in enumerate([b" X", b" Y", b" Z", b" E", b" F"]):
        values = rows[block, c]
        present = ~np.isnan(values)
        if present.all():
            pieces += [letter, fixed_point(values, FORMAT_DECIMALS)]
            continue
        digits = fixed_point(values[present], FORMAT_DECIMALS)
        word = np.zeros((len(values), 2 + digits.shape[1]), dtype=np.uint8)
        word[present, :2] = np.frombuffer(letter, dtype=np.uint8)
        word[present, 2:] = digits
        pieces.append(word)
    text, cuts = text_rows(pieces + [newline.encode()], ends)
    cuts = [0, *cuts.tolist()]
    return [text[a:b] for a, b in zip(cuts, cuts[1:])]


def _settle_e(rows, events):
    """Each E word as written: in relative mode (after an M83, until an
    M82) the row's own amount, and else the running total, which a G92 E
    sets and each amount adds to, one `np.add.accumulate` from one G92 E
    or M82/M83 to the next, so bitwise as a loop of `+=` adds it."""
    has = np.flatnonzero(~np.isnan(rows[:, E]))
    words = rows[has, E]
    marks = [(r, ev) for r, ev in events if isinstance(ev, (ESet, ModeSwitch))]
    bounds = [0, *np.searchsorted(has, [r for r, _ in marks]).tolist(), len(has)]
    total, relative = 0.0, False
    for ev, a, b in zip([None] + [ev for _, ev in marks], bounds, bounds[1:]):
        if isinstance(ev, ESet):
            total = ev.value
        elif ev is not None:
            relative = ev.mode == "relative"
        run = np.add.accumulate(np.r_[total, words[a:b]])
        total = run[-1].item()
        if not relative:
            words[a:b] = run[1:]
    rows[has, E] = words


def _settle_f(rows):
    """Each F word as written, in mm/min, and NaN where none is: a row
    writes F where its text differs from that of the last row with an F,
    which only a value of other bits can."""
    has = np.flatnonzero(~np.isnan(rows[:, F]))
    feeds = rows[has, F] * FEED_FACTOR
    bits = feeds.view(np.int64)
    write = np.r_[True, bits[1:] != bits[:-1]][:len(has)]
    changed = np.flatnonzero(write[1:]) + 1
    pair = fixed_point(np.r_[feeds[changed], feeds[changed - 1]], FORMAT_DECIMALS)
    write[changed] = (pair[:len(changed)] != pair[len(changed):]).any(axis=1)
    rows[has, F] = np.where(write, feeds, np.nan)


def total_extrusion(program):
    total = 0.0
    for ev in program.events():
        if isinstance(ev, Toolpath):
            total += ev.total_e()
        elif isinstance(ev, Move) and ev.e is not None:
            total += ev.e
    return total
