"""ASCII text of float columns, a block of rows in a few array passes.

`text_rows` lays out one line of text per row: constant strings, columns
of numbers as `'%.{decimals}f' % v` writes them (`fixed_point`) and
columns looked up in a table of strings (`table`). Each number is
written right-aligned in its column, after 0 bytes that are dropped
from the text. Every byte equals what `%` writes.
"""

from __future__ import annotations

import numpy as np

_POINT, _MINUS, _ZERO = b".-0"


def fixed_point(values, decimals):
    """`'%.{decimals}f' % v` for each float64 v of `values`, `decimals`
    at least 1, as an (n, width) uint8 array of ASCII whose rows are
    right-aligned after 0 bytes.

    A value is scaled by 10**decimals and rounded to an integer, whose
    digits are written a position at a time for all values (from 32-bit
    integers where they fit). `%` rounds the exact binary value, half to even; the
    scaled product errs from it by at most half an ulp, so its rounding is
    right unless the product lies within a few ulps of a .5 (an exact tie
    such as 0.015625 at 5 decimals included). Such values, any at or
    above 2**49 after scaling (where that margin reaches 0) and the
    non-finite ones are formatted by `%` instead (`_by_percent`)."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 10.0 ** decimals
        rounded = np.rint(scaled)
        exact = np.abs(scaled - rounded) < 0.5 - scaled * 2.0 ** -50
    number = np.where(exact, rounded, 0.0).astype(np.int64)
    whole = number // 10 ** decimals
    fraction = (number - whole * 10 ** decimals).astype(np.uint32)
    places = len(str(whole.max(initial=0)))
    if places < 10:
        whole = whole.astype(np.uint32)
    negative = np.signbit(values) & exact
    inexact = np.flatnonzero(~exact)
    texts = _by_percent(values[inexact], decimals)
    width = max([places + 1 + decimals + bool(negative.any()),
                 *map(len, texts)])
    # one row for each byte position, so that each digit position is
    # written to contiguous memory, faster than into the columns of an
    # (n, width) array
    out = np.empty((width, len(values)), dtype=np.uint8)
    point = width - 1 - decimals
    out[point] = _POINT
    _write_digits(out, fraction, range(width - 1, point, -1))
    _write_digits(out, whole, range(point - 1, -1, -1),
                  negative * np.uint8(_MINUS))
    for i, text in zip(inexact.tolist(), texts):
        out[:, i] = 0
        out[width - len(text):, i] = np.frombuffer(text, dtype=np.uint8)
    return out.T


def _by_percent(values, decimals):
    return [b"%.*f" % (decimals, v) for v in values.tolist()]


def _write_digits(out, rest, rows, sign=None):
    """The decimal digits of the unsigned integers `rest` into the rows
    `rows` of `out`, least significant first. With `sign` (bytes, one for
    each integer), a zero that leads the number, after the first row, is a
    0 byte, except that the first of them takes the integer's sign."""
    for k, row in enumerate(rows):
        head = rest // 10
        digit = out[row]        # worked on as bytes, which is faster
        np.subtract(rest, head * 10, out=digit, casting="unsafe")
        digit += _ZERO
        if sign is not None and k:
            present = rest > 0
            digit *= present
            np.maximum(digit, sign, out=digit)    # the sign is below '0'
            sign *= present
        rest = head


def table(texts):
    """A (k, width) uint8 array of the byte strings `texts`, right-aligned
    after 0 bytes; indexed by an array of integers, it gives a column for
    `text_rows`."""
    width = max(map(len, texts))
    out = np.zeros((len(texts), width), dtype=np.uint8)
    for row, text in zip(out, texts):
        row[width - len(text):] = np.frombuffer(text, dtype=np.uint8)
    return out


def text_rows(pieces, ends=None):
    """The rows of `pieces` side by side, all rows in one string. A piece
    is a bytes constant, the same on every row, or an (n, width) uint8
    array of ASCII padded with 0 bytes, as `fixed_point` and `table`
    give; the 0 bytes are dropped.

    With `ends`, non-decreasing row counts, returns also the length of the
    text of the first `ends[i]` rows for each i, found at the last byte of
    the last piece: that piece is a constant whose last byte ends a row
    and occurs nowhere else in it."""
    n = next(len(p) for p in pieces if not isinstance(p, bytes))
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in pieces]
    starts = np.cumsum([0] + widths).tolist()
    # the constants of a row first, into all rows at once
    template = np.zeros(starts[-1], dtype=np.uint8)
    for p, col in zip(pieces, starts):
        if isinstance(p, bytes):
            template[col:col + len(p)] = np.frombuffer(p, dtype=np.uint8)
    lines = np.empty((n, len(template)), dtype=np.uint8)
    lines[:] = template
    for p, col, width in zip(pieces, starts, widths):
        if not isinstance(p, bytes):
            lines[:, col:col + width] = p
    text = lines[lines != 0]
    if ends is None:
        return str(text.data, "ascii")
    cuts = np.flatnonzero(text == pieces[-1][-1])[np.asarray(ends) - 1] + 1
    return str(text.data, "ascii"), cuts
