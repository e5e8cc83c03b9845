"""The text of a contour grid, as CSV or as JSON, in chunks of ASCII bytes,
and write_chunks, which hands them to os.writev in batches.

The contour export imports this module on first use; only the functions
that write a ContourGrid's array import numpy.  Both formats go through one
row loop, _rows: a row whose bytes equal the previous row's yields the same
bytes object again, which goes out by reference, and the other rows are
built _block_rows at a time in numpy passes by the format's block
formatter.  A row the formatter flags as inexact, and every row of a block
under the format's min_cells, goes through one "%" on a template of the
row's layout, so every row reads byte for byte as that template prints it.
The "%.17g" digits of JSON blocks come from piv._json_digits, imported on
first need.  grid_export alone picks how a grid is evaluated: by
bounds.evaluate_grid, or without numpy by _row_cells, every row through its
"%" template, whose bytes are those csv_chunks and json_chunks write for the
same cells.  A grid has at least one row and one column on finite axes, so
the writers need no case for an empty grid or a non-finite axis value.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple

from . import bounds
from .bounds import _BLOCK_CELLS, ContourGrid, _block_rows
from .core import BeliefRegion, InputValidationError, PivError, _cdf, _correlation, _probit, _threshold

# Rows are written in blocks of whole rows: about _BLOCK_CELLS cells, and at
# most 1/128 of the grid, so that a block's text and temporaries stay small
# beside the grid array (a CSV cell is 9 bytes against the array's 8).
_BLOCK_SHARE = 128


class _Format(NamedTuple):
    """A row is head, each cell as "%" prints cell followed by sep, the last
    sep replaced by tail.  block(cells) returns a 2-D array's cells, each
    followed by sep, as one text, each row's end offset in it, and whether
    each row's text is exact.  A block of fewer than min_cells cells goes
    through "%", which is faster there than block's fixed numpy cost."""

    head: bytes
    sep: bytes
    tail: bytes
    cell: bytes
    block: Callable
    min_cells: int


@functools.cache
def _cell_words():
    """Lookup tables for the 8 ASCII bytes of a "%.6f" cell in [0, 1], as
    little-endian uint64 words to be OR-ed together.

    head[q] holds "0.ddd" for q < 1000 and "1.000" for q = 1000 in bytes
    0-4; tail[j] holds the three digits of j in bytes 5-7.
    """
    head = "".join(f"0.{q:03d}\0\0\0" for q in range(1000)) + "1.000\0\0\0"
    tail = "".join(f"\0\0\0\0\0{j:03d}" for j in range(1000))
    import numpy as np

    return np.frombuffer(head.encode(), "<u8"), np.frombuffer(tail.encode(), "<u8")


def _csv_block(block):
    """The rows of a PIV block as "%.6f" cells, each followed by ",".

    Returns the text, 9 characters per cell, each row's end offset in it,
    and a per-row flag that is true where the text is exact.  A cell in
    [0, 1] prints as 8 characters, from k = rint(v*1e6).  That k is what
    "%.6f" rounds to unless v*1e6 lies within 1e-9 of a half-integer, where
    the rounding of the product itself could pick the wrong side.  Rows
    holding such a cell, a cell outside [0, 1], a NaN or -0.0 are flagged
    false and their text is not used.
    """
    import numpy as np

    # in-place steps and dels keep at most three block-sized arrays alive
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN cells are flagged below
        scaled = block * 1e6
        k = np.rint(scaled)
        scaled -= k  # the rounding residual
        exact = np.abs(scaled, out=scaled) < 0.5 - 1e-9
    del scaled
    exact &= block <= 1.0
    exact &= ~np.signbit(block)
    if not exact.all():
        k[~exact] = 0.0
    k = k.astype(np.intp)
    q, j = np.divmod(k, 1000)
    del k
    head, tail = _cell_words()
    text = head.take(q)
    del q
    text |= tail.take(j)
    del j
    cells = np.empty(block.shape, [("text", "<u8"), ("end", "u1")])
    cells["text"] = text
    del text
    cells["end"] = ord(",")
    rows, nc = block.shape
    return (cells.tobytes(),
            list(range(9 * nc, 9 * nc * rows + 1, 9 * nc)), exact.all(axis=1).tolist())


def _json_block(cells):
    from ._json_digits import _block_text  # on the first block that needs it

    return _block_text(cells)


# min_cells is a little above where "%" and the block pass cost the same, which
# measured about 100 cells for CSV and 150 to 200 for JSON
_CSV = _Format(b",", b",", b"\n", b"%.6f", _csv_block, 128)
# the rows of render_json at indent 1, each with the ",\n" that separates it
# from the row before
_JSON = _Format(b",\n    [\n      ", b",\n      ", b"\n    ]", b"%.17g", _json_block, 256)


def _template(fmt: _Format, nc: int) -> bytes:
    """The "%" template of a row of nc cells."""
    return fmt.head + fmt.sep.join([fmt.cell] * nc) + fmt.tail


def _percent(template: bytes, row) -> bytes:
    """A row through the "%" template, for rows the block pass does not cover."""
    return template % tuple(row.tolist())


def _row_texts(piv, index, fmt: _Format, template: bytes) -> Iterator[bytes]:
    """The text of each row of piv that index, an ascending array, names."""
    nc = piv.shape[1]
    if len(index) * nc < fmt.min_cells:
        for j in index:
            yield _percent(template, piv[j])
        return
    if nc > _BLOCK_CELLS:  # a block is one row, whose cells go a block at a time
        pieces = [fmt.block(piv[index, i:i + _BLOCK_CELLS]) for i in range(0, nc, _BLOCK_CELLS)]
        text = b"".join(text for text, _, _ in pieces)
        ends, exact = [len(text)], [all(exact for _, _, (exact,) in pieces)]
        del pieces
    else:  # a run of consecutive rows goes as a view: a copy would add to the peak
        run = index[-1] - index[0] == len(index) - 1
        text, ends, exact = fmt.block(piv[index[0]:index[-1] + 1] if run else piv[index])
    begin, view = 0, memoryview(text)
    for j, end, ok in zip(index, ends, exact):
        yield (b"".join((fmt.head, view[begin:end - len(fmt.sep)], fmt.tail)) if ok
               else _percent(template, piv[j]))
        begin = end


def _new_rows(piv):
    """A bool array: whether each row's bytes differ from the previous
    row's; the first row is new.

    Rows are compared as int64 words, a block at a time; the comparison's
    temporary is one byte a cell, so a block is _BLOCK_CELLS cells.
    """
    import numpy as np

    nt, nc = piv.shape
    words = np.ascontiguousarray(piv).view(np.int64)
    new = np.empty(nt, bool)
    new[0] = True
    step = max(1, _BLOCK_CELLS // nc)
    for start in range(1, nt, step):
        stop = min(start + step, nt)
        new[start:stop] = (words[start:stop] != words[start - 1:stop - 1]).any(axis=1)
    return new


def _rows(piv, fmt: _Format) -> Iterator[bytes]:
    """The text of each row of a 2-D float64 array in fmt, one chunk a row.

    Equal bytes are equal floats that format alike, and bytes keep -0.0
    apart from 0.0.  A block's text is let go before the next is built.
    """
    import numpy as np

    nt, nc = piv.shape
    template = _template(fmt, nc)
    step = _block_rows(nt, nc, _BLOCK_SHARE)
    new = _new_rows(piv)
    distinct = np.flatnonzero(new)
    texts = (text for start in range(0, len(distinct), step)
             for text in _row_texts(piv, distinct[start:start + step], fmt, template))
    for is_new in new:
        if is_new:
            text = next(texts)
        yield text


def _csv(t_values, c_values, rows: Iterator[bytes]) -> Iterator[bytes]:
    """The CSV export: a header row of c values, then each t value and its
    PIV row's text."""
    yield (b"y_t_un" + b",%r" * len(c_values) + b"\n") % c_values
    for t, text in zip(t_values, rows):
        yield b"%r" % (t,)
        yield text


def _axis_json(n: int) -> bytes:
    """The "%" template of render_json(list(values), 1) for a ContourGrid axis
    of n values, which are finite: %.17g formats a float as format(v, ".17g")."""
    return b"[\n    " + b",\n    ".join([b"%.17g"] * n) + b"\n  ]"


def _json(t_values, c_values, rows: Iterator[bytes]) -> Iterator[bytes]:
    """The JSON export, render_json(grid.to_json_object()) + "\\n", from the
    text of each piv row."""
    # the first row's block is made before the header, which is not held while it is
    first = next(rows)[len(b",\n"):]
    yield ((b'{\n  "t_values": ' + _axis_json(len(t_values))
            + b',\n  "c_values": ' + _axis_json(len(c_values)) + b',\n  "piv": [\n')
           % (*t_values, *c_values))
    yield first
    yield from rows
    yield b"\n  ]\n}\n"


def csv_chunks(grid: ContourGrid) -> Iterator[bytes]:
    """The CSV export of grid, each PIV to 6 decimals, one chunk per t value and per row."""
    return _csv(grid.t_values, grid.c_values, _rows(grid.piv, _CSV))


def json_chunks(grid: ContourGrid) -> Iterator[bytes]:
    """The JSON export of grid, render_json(grid.to_json_object()) + "\\n", one
    piv row per chunk."""
    return _json(grid.t_values, grid.c_values, _rows(grid.piv, _JSON))


# A grid of at most this many cells is exported without numpy: each cell by
# piv()'s scalar kernel, each row through its "%" template.  On a shared
# 2-vCPU Intel Xeon (Python 3.11.7, numpy 2.4.6), whose speed drifted, that
# cost 1.1-1.9 us a cell, text included (44-77 ms at 200x200), while
# `import numpy` took 115-150 ms of a fresh process, so every grid under
# the cut exports sooner in a fresh process.  A process that has numpy
# loaded already takes the numpy path, 4-6 ms at 200x200.
_ROW_PATH_CELLS = 200 * 200


def _row_cells(region: BeliefRegion, nt: int, nc: int, stats, sign, threshold) -> tuple | None:
    """(t_values, c_values, cells) of the nt x nc grid over region: each cell's
    PIV by piv()'s scalar kernel, in row order, in an array('d') grown a row
    at a time (8 bytes a cell, as evaluate_grid's array).  None where a cell
    raises, so that evaluate_grid raises the error, checked block by block."""
    from array import array  # a shared library: only grid exports load it

    t_values = bounds._axis_points(*region.t_interval, nt)
    c_values = bounds._axis_points(*region.c_interval, nc)
    cells = array("d")
    try:
        resolved = _threshold(stats, sign, threshold)
        for t in t_values:
            cells.extend([_cdf(_probit(_correlation(t, c, stats), resolved)) for c in c_values])
    except PivError:
        return None
    return t_values, c_values, cells


def grid_export(region: BeliefRegion, resolution, stats, sign, threshold, fmt: str) -> tuple:
    """(nt, nc, piv_min, piv_max, chunks): the PIV grid over region and its export
    in fmt ("csv" or "json").  A process without numpy takes _row_cells for a
    grid of at most _ROW_PATH_CELLS cells; any other grid, or one where a cell
    raises, goes to bounds.evaluate_grid.  A non-finite PIV is refused before
    any chunk is made, so that a refused grid leaves no partial file."""
    nt, nc = bounds._grid_shape(region, resolution)
    row_cells = None
    if "numpy" not in sys.modules and nt * nc <= _ROW_PATH_CELLS:
        row_cells = _row_cells(region, nt, nc, stats, sign, threshold)
    form, frame = (_CSV, _csv) if fmt == "csv" else (_JSON, _json)
    if row_cells is None:
        grid = bounds.evaluate_grid(region, resolution, stats, sign, threshold)
        t_values, c_values = grid.t_values, grid.c_values
        rows = _rows(grid.piv, form)
        # numpy's min and max propagate NaN, and take no grid-sized temporary as isfinite would
        piv_min, piv_max = grid.min(), grid.max()
        finite = math.isfinite(piv_min) and math.isfinite(piv_max)
    else:
        t_values, c_values, cells = row_cells
        template = _template(form, nc)
        rows = (template % tuple(cells[i:i + nc]) for i in range(0, len(cells), nc))
        # Python's min and max do not propagate NaN, so every cell is checked
        finite = all(map(math.isfinite, cells))
        piv_min, piv_max = min(cells), max(cells)
    if not finite:
        raise InputValidationError("cannot serialize a grid with a non-finite PIV")
    return nt, nc, piv_min, piv_max, frame(t_values, c_values, rows)


# os.writev takes at most SC_IOV_MAX buffers a call (1024 on Linux); os.write,
# where os.writev is missing (Windows), takes one.  A batch is written once what
# it holds reaches 8 KiB, a text file's buffer: the bytes new to it, and for
# each buffer its list slot and the iovec and Py_buffer os.writev allocates.
_IOV_MAX = os.sysconf("SC_IOV_MAX") if hasattr(os, "writev") else 1
_BATCH_BYTES, _BUFFER_BYTES = 8192, 8 + 16 + 80


def write_chunks(fd: int, chunks: Iterable[bytes]) -> None:
    """Write chunks to the file descriptor fd in batches.  A chunk that is
    one of the two before it, as a repeated row is (a CSV row follows its t
    value), goes out by reference and adds no bytes."""
    batch, size, recent = [], 0, (None, None)
    for chunk in chunks:
        size += _BUFFER_BYTES + (0 if chunk is recent[0] or chunk is recent[1] else len(chunk))
        recent = recent[1], chunk
        batch.append(chunk)
        if size >= _BATCH_BYTES or len(batch) == _IOV_MAX:
            _write_all(fd, batch)
            batch, size = [], 0
    _write_all(fd, batch)


def _write_all(fd: int, buffers: list) -> None:
    """Write buffers, resuming a short write past the bytes written."""
    while buffers:
        written = os.writev(fd, buffers) if hasattr(os, "writev") else os.write(fd, buffers[0])
        while buffers and written >= len(buffers[0]):
            written -= len(buffers.pop(0))
        if written:
            buffers[0] = memoryview(buffers[0])[written:]
