"""Tests for the JSON row writer: every row must read as "%.17g" writes it."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from piv import _grid_text, _json_digits
from piv.cli import render_json


def cell_texts(values) -> list:
    """Each value's text from the block pass, or None where the pass leaves
    it to the "%" template."""
    cells = np.asarray(values, float).reshape(-1, 1)
    text, ends, exact = _json_digits._block_text(cells)
    texts, begin = [], 0
    for end, ok in zip(ends, exact):
        texts.append(text[begin:end - len(_grid_text._JSON.sep)].decode("ascii") if ok else None)
        begin = end
    return texts


def near_tie(v: float) -> bool:
    """Whether v's 17 significant digits, scaled to an integer, lie within
    2e-6 of a half-integer, in exact arithmetic."""
    exact = Fraction(v)
    x = math.floor(math.log10(v))
    x += (exact >= Fraction(10) ** (x + 1)) - (exact < Fraction(10) ** x)
    scaled = exact * Fraction(10) ** (16 - x)
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= Fraction(2, 10 ** 6)


def rows_chunks(cells) -> list:
    """The piv rows as the JSON export writes them, one chunk a row."""
    chunks = list(_grid_text._rows(np.asarray(cells, float), _grid_text._JSON))
    chunks[0] = chunks[0][len(b",\n"):]  # the first row has no separator before it
    return chunks


def rows_text(cells) -> str:
    """The piv rows as the JSON export writes them, joined."""
    return b"".join(rows_chunks(cells)).decode("ascii")


def percent_text(cells) -> str:
    """The rows cell by cell through "%.17g", laid out as render_json lays out rows."""
    return ",\n".join("    [\n" + ",\n".join("      %.17g" % v for v in row) + "\n    ]"
                      for row in np.asarray(cells, float).tolist())


class TestCellText:
    def test_random_bits_in_every_binade(self):
        # 64 random mantissas under each exponent field of (0, 1); field 0 is
        # the subnormals
        rng = np.random.default_rng(20261018)
        fields = np.repeat(np.arange(1023, dtype=np.int64), 64)
        bits = (fields << 52) | rng.integers(1, 1 << 52, fields.size)
        values = bits.view(np.float64).tolist()
        texts = cell_texts(values)
        for v, text in zip(values, texts):
            assert text == "%.17g" % v or (text is None and near_tie(v)), v
        assert texts.count(None) <= 2

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for k in range(1, 324):
            power = float(f"1e-{k}")
            values += [float(np.nextafter(power, 0.0)), power, float(np.nextafter(power, 1.0))]
        assert cell_texts(values) == ["%.17g" % v for v in values]

    @pytest.mark.parametrize("value, text", [
        # the double 1e-06 lies below 10**-6: its product at X = -6 rounds up to
        # 10**16 but is below it, so it takes the decade below
        (1e-06, "9.9999999999999995e-07"),
        # these two lie below their power of ten too, but their 17 digits
        # round up into it
        (1e-14, "1e-14"),
        (1e-70, "1e-70"),
        # fixed notation down to 1e-4, exponent notation below
        (1e-4, "0.0001"),
        (float(np.nextafter(1e-4, 0.0)), "9.9999999999999991e-05"),
        (float(np.nextafter(1e-4, 1.0)), "0.00010000000000000002"),
        (1e-5, "1.0000000000000001e-05"),
        (0.00012345678901234567, "0.00012345678901234567"),
        (1e-100, "1e-100"),
        (1.5e-100, "1.5e-100"),
        (5e-324, "4.9406564584124654e-324"),
        (2.2250738585072014e-308, "2.2250738585072014e-308"),
        (0.99999999999999989, "0.99999999999999989"),
        (0.5, "0.5"),
        (0.1, "0.10000000000000001"),
        (0.0, "0"),
        (1.0, "1"),
    ], ids=repr)
    def test_value(self, value, text):
        assert "%.17g" % value == text
        assert cell_texts([value]) == [text]

    def test_exact_tie_takes_the_percent_path(self):
        # 0.100002288818359375 has 18 significant digits, the last a 5: its
        # 17-digit rounding is an exact tie
        tie = 0.100002288818359375
        assert near_tie(tie)
        assert cell_texts([tie]) == [None]
        cells = np.full((1, 300), 0.25)
        cells[0, 17] = tie
        assert rows_text(cells) == percent_text(cells)
        assert "0.10000228881835938" in rows_text(cells)

    def test_power_table_is_exact_to_a_double_double(self):
        tables = _json_digits._tables()
        for n in range(16, 342):
            exact = Fraction(10 ** n, 2 ** 600)
            error = Fraction(tables.hi[n]) + Fraction(tables.lo[n]) - exact
            assert abs(error) <= exact / 2 ** 106, n


class TestRows:
    @pytest.mark.parametrize("value", [-0.0, math.nan, math.inf, -math.inf, -0.25,
                                       1.0000000000000002], ids=repr)
    def test_uncovered_cell_sends_only_its_row_through_percent(self, value, monkeypatch):
        rng = np.random.default_rng(3)
        cells = rng.random((12, 300))
        cells[7, 123] = value
        percent = _grid_text._percent
        calls = []

        def spy(template, row):
            calls.append(row.tobytes())
            return percent(template, row)

        monkeypatch.setattr(_grid_text, "_percent", spy)
        assert rows_text(cells) == percent_text(cells)
        assert calls == [cells[7].tobytes()]

    def test_covered_cells_take_the_block_pass(self, monkeypatch):
        rng = np.random.default_rng(4)
        cells = rng.random((12, 300)) ** 16  # PIVs over many decades
        cells[:, :40] = 1.0
        cells[3, 50:90] = 0.0
        cells[5, 7] = 5e-324
        monkeypatch.setattr(_grid_text, "_percent", None)
        assert rows_text(cells) == percent_text(cells)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4097), (4097, 1), (3, 4097), (5000, 3),
                                       (300, 260)])
    def test_shapes_with_repeated_rows(self, shape):
        # 1xN and Nx1, rows wider than a block, blocks of several rows, and
        # runs of equal rows that cross block boundaries
        nt, nc = shape
        rng = np.random.default_rng(nt * 10_007 + nc)
        rows = rng.random((nt, nc)) ** 8
        rows[rng.random((nt, nc)) < 0.2] = 1.0
        rows[rng.random((nt, nc)) < 0.05] = 0.0
        cells = rows[np.repeat(np.arange(nt), rng.integers(1, 9, nt))[:nt]]
        assert "[\n" + rows_text(cells) + "\n  ]" == render_json(cells.tolist(), 1)

    def test_equal_rows_share_one_text(self):
        cells = np.repeat(np.random.default_rng(5).random((3, 300)), [1, 4, 2], axis=0)
        chunks = rows_chunks(cells)
        assert len({id(chunk) for chunk in chunks[1:]}) == 2
        assert b"".join(chunks).decode("ascii") == percent_text(cells)


def test_tables_build_in_little_memory():
    # the first JSON export of a process builds the tables while its grid is
    # alive, so their passes must stay small beside what the tables keep;
    # measured in a fresh process, with numpy and the module already imported
    probe = ("import tracemalloc\n"
             "from piv import _json_digits\n"
             "tracemalloc.start()\n"
             "_json_digits._tables()\n"
             "print(*tracemalloc.get_traced_memory())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(_json_digits.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    kept, peak = map(int, proc.stdout.split())
    assert kept < 100_000
    assert peak < 2.5 * kept
