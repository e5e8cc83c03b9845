"""The cells of a PIV block as "%.17g" text, built in numpy passes.

piv._grid_text imports this module for the first JSON block of 256 cells
or more.  A cell in (0, 1) prints from its 17 significant digits
D = round(v * 10**(16 - X)) for its decade X = floor(log10 v), the product
carried exactly as a rounded double plus a small correction (see _scaled),
and D laid out as "%.17g" lays it out for that X.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from ._grid_text import _JSON

# A cell in (0, 1) lies in a decade from 10**-324 to 10**-1, so n runs from
# 17 to 340, and one step either way while X is corrected.  The cell is
# scaled by 2**600 and the powers by 2**-600, so every operand of _scaled
# is a normal double.
_SCALE = 600
_N_LO, _N_HI = 16, 341
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
# a product this close to a half-integer is left to the "%" template, where
# the correction's own rounding error could pick the wrong side
_TIE_MARGIN = 1e-6
_ONE_BITS = 0x3FF0000000000000  # 1.0; from 0.0 up to it, floats order as their bits

# A cell's slot is five 8-byte words:
#   0-7    "0.000", d0, "." and a pad byte, by d0
#   8-23   d1 .. d16, four groups of four digits
#   24-31  "e-" and two or three exponent digits, then pads, by -X
#   32-39  the separator
# A keep mask, AND-ed over the slot, zeros the bytes "%.17g" does not print,
# and the NUL bytes are then deleted.  The mask is looked up by the cell's
# layout and by how many of d1 .. d16 are left once trailing zeros are
# stripped.  Layouts: 0 for 0.0 and 1.0 (d0 alone), 1-4 for fixed notation
# with X = -1 to -4, 5 and 6 for exponent notation with two and three
# exponent digits.
_WIDTH = 40
_LAYOUTS = 7


def _ascii_words(strings: list[str], width: int) -> np.ndarray:
    """Each string, padded with NUL bytes to width, as one little-endian word."""
    text = "".join(s.ljust(width, "\0") for s in strings)
    return np.frombuffer(text.encode(), f"<u{width}")


@functools.cache
def _tables() -> SimpleNamespace:
    """The lookup tables of the block pass, built on first use.

    hi[n] + lo[n] is 10**n * 2**-600 to within 2**-106 of it, from exact
    integer ratios, which Python divides with correct rounding.  quads[q]
    is "%04d" % q as a word, and kept[q] the count of its digits up to the
    last nonzero one.  keep and length are indexed by layout * 17 + the
    count of d1 .. d16 kept: keep holds the slot's mask as five words, each
    byte 0xFF where "%.17g" prints the slot's byte, and length the count of
    those bytes.  layout17[-X] is the layout of a cell in (0, 1), times 17.
    """
    hi, lo = np.zeros(_N_HI + 1), np.zeros(_N_HI + 1)
    for n in range(_N_LO, _N_HI + 1):
        hi[n] = 10 ** n / 2 ** _SCALE
        num, den = hi[n].as_integer_ratio()
        lo[n] = (10 ** n * den - (num << _SCALE)) / (den << _SCALE)
    # one column of digits at a time, in int16 and uint8, so that no pass
    # holds more than 10,000 small integers
    q = np.arange(10_000, dtype=np.int16)
    digits = np.empty((q.size, 4), np.uint8)
    kept = np.full(q.size, 4, np.uint8)
    for column, place in enumerate((1000, 100, 10, 1)):
        digits[:, column] = q // place % 10 + ord("0")
        kept -= q % (10 * place) == 0
    keep = np.zeros((_LAYOUTS, 17, _WIDTH), bool)
    keep[:, :, 5] = True  # d0
    keep[:, :, 32:] = True  # the separator
    for last in range(17):
        keep[1:, last, 8:8 + last] = True  # d1 .. d_last
        keep[5:, last, 6] = last > 0  # "." after d0
    for z in range(4):  # fixed notation: "0." and z zeros before d0
        keep[1 + z, :, :2 + z] = True
    keep[5, :, 24:28] = True  # "e-dd"
    keep[6, :, 24:29] = True  # "e-ddd"
    keep = keep.reshape(-1, _WIDTH)
    minus_x = np.arange(326)
    layout = np.where(minus_x <= 4, minus_x, np.where(minus_x < 100, 5, 6))
    return SimpleNamespace(
        hi=hi, lo=lo,
        first=_ascii_words([f"0.000{d}." for d in range(10)], 8),
        quads=digits.view("<u4").ravel(), kept=kept,
        exponent=_ascii_words([f"e-{e:02d}" for e in range(326)], 8),
        sep=_ascii_words([_JSON.sep.decode()], 8)[0],
        layout17=layout * 17, keep=(keep * np.uint8(0xFF)).view("<u8"),
        length=keep.sum(axis=1))


def _split(x):
    """Veltkamp's split: hi + lo == x, each with at most 26 significant bits."""
    t = x * _SPLITTER
    hi = t - (t - x)
    return hi, x - hi


def _scaled(a, n):
    """(p, c): the rounded product p = a * hi[n], and c with p + c equal to
    a * 10**n * 2**-600 to within about 1e-15.

    Dekker's TwoProduct gives the exact error of p; the table's low word
    adds a * lo[n].  The products formed here lie near [10**16, 10**17), so
    p is an integer-valued double and c is at most about 16.
    """
    tables = _tables()
    th = tables.hi.take(n)
    p = a * th
    ah, al = _split(a)
    bh, bl = _split(th)
    # e = ((ah * bh - p) + ah * bl + al * bh) + al * bl, in place
    e = ah * bh
    e -= p
    ah *= bl
    e += ah
    bh *= al
    e += bh
    al *= bl
    e += al
    c = tables.lo.take(n)
    c *= a
    c += e
    return p, c


def _outside(p, c):
    """Where p + c < 10**16 and where p + c >= 10**17.  p is an integer, so
    each difference with a bound is exact near it."""
    return (p - 1e16) + c < 0.0, (p - 1e17) + c >= 0.0


def _digits(w):
    """(d, x, exact) for cells w in (0, 1): the 17 significant digits
    d = round(w * 10**(16 - x)) of each, its decade x, and whether d is
    the correctly rounded one.

    x starts from log10 and moves by one wherever the unrounded product
    p + c falls outside [10**16, 10**17); log10 is never off by more than
    one.  d is not exact where p + c lies within _TIE_MARGIN of a rounding
    tie.  A d that rounds up to 10**17 carries into the next decade.
    """
    a = w * 2.0 ** _SCALE
    x = np.floor(np.log10(w)).astype(np.int64)
    p, c = _scaled(a, 16 - x)
    below, above = _outside(p, c)
    off = np.flatnonzero(below | above)
    if off.size:
        x[off] += above[off].astype(np.int64) - below[off]
        p[off], c[off] = _scaled(a[off], 16 - x[off])
        below, above = _outside(p[off], c[off])
        off = off[below | above]
    k = np.rint(c)
    exact = np.abs(c - k) <= 0.5 - _TIE_MARGIN
    exact[off] = False
    d = p.astype(np.int64) + k.astype(np.int64)
    carry = np.flatnonzero(d == 10 ** 17)
    if carry.size:
        d[carry] = 10 ** 16
        x[carry] += 1
    return d, x, exact


def _slots(d, x, core, one):
    """(words, index): each cell's slot as five 8-byte words, and the row
    of the keep and length tables that lays it out.

    A cell outside core keeps d0 alone: "1" where one is set, else "0".
    """
    tables = _tables()
    d0 = d // 10 ** 16
    rest = d - d0 * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    q1 = upper // 10 ** 4
    q3 = lower // 10 ** 4
    q4 = lower - q3 * 10 ** 4
    slots = np.empty((d.size, _WIDTH // 4), "<u4")  # little-endian, as the tables
    words = slots.view("<u8")
    words[:, 0] = tables.first.take(np.where(core, d0, one))
    slots[:, 2] = tables.quads.take(q1)
    slots[:, 3] = tables.quads.take(upper - q1 * 10 ** 4)
    slots[:, 4] = tables.quads.take(q3)
    slots[:, 5] = tables.quads.take(q4)
    words[:, 3] = tables.exponent.take(-x)
    words[:, 4] = tables.sep

    # d1 .. d16 up to the last nonzero one: only a cell whose last four
    # digits are zeros needs more than the last group's count
    kept = tables.kept.take(q4) + 12
    zeros = np.flatnonzero(core & (q4 == 0))
    if zeros.size:
        kept[zeros] = 16 - (rest[zeros, None] % 10 ** np.arange(1, 17) == 0).sum(axis=1)
    return words, np.where(core, tables.layout17.take(-x) + kept, 0)


def _block_text(cells):
    """The cells of an (R, m) array, each followed by the JSON separator,
    as one bytes text, with each row's end offset in it and whether the row's
    text is exact.

    A cell prints exactly if it is 0.0, 1.0, or in (0, 1) with a product
    not within _TIE_MARGIN of a rounding tie.  A row holding any other cell
    (-0.0, NaN, an infinity, a cell outside [0, 1]) is flagged false.  The
    bytes a cell does not print are zeroed through its keep mask and then
    deleted.
    """
    tables = _tables()
    rows, m = cells.shape
    v = cells.reshape(-1)
    core = (v > 0.0) & (v < 1.0)
    d, x, exact = _digits(np.where(core, v, 0.5))
    exact |= ~core
    exact &= v.view(np.uint64) <= _ONE_BITS
    words, index = _slots(d, x, core, v == 1.0)
    del d, x
    ends = np.cumsum(tables.length.take(index).reshape(rows, m).sum(axis=1)).tolist()
    words &= tables.keep.take(index, axis=0)
    text = words.tobytes().translate(None, b"\0")
    return text, ends, exact.reshape(rows, m).all(axis=1).tolist()
