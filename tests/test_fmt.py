"""CSV rows formatted through one %-template give the bytes of the per-cell
formatting they replace."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gapforge._fmt import csv_lines, fmt_real
from gapforge.design import HomogenizedModel
from gapforge.dispersion import sample_curve


def reference_lines(header, rows):
    """Every cell on its own: bools as 1/0, floats through fmt_real."""
    def cell(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return fmt_real(v)
        return str(v)

    return [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]


ROWS = [
    pytest.param([(1.5, math.nan, True), (math.inf, -math.inf, False), (0.1, -0.0, True)], id="non-finite"),
    pytest.param([(1, 2.5, False), (2.5, 1, True), (3, 4, 5), (0.5, 0.25, 0.125)], id="int-float-swapped"),
    pytest.param([(True, 1), (1, True), (1.0, True), (True, 1.0)], id="bool-int-float"),
    pytest.param([(5e-324, 1e308, 1e16), (1e21, 1e-5, 123456789012345678.0)], id="exponents"),
    pytest.param([("a", 1.5), ("nan", 2.5), ("x%dy", 3)], id="strings"),
    pytest.param([(np.float64(0.1), np.int64(3), np.bool_(True)), (Fraction(1, 3), 0.1, 2)], id="other-types"),
    pytest.param([(), (10**30, -7)], id="empty-and-big-int"),
]


@pytest.mark.parametrize("rows", ROWS)
def test_csv_lines_matches_per_cell(rows):
    header = ["a", "b", "c"]
    assert csv_lines(header, rows) == reference_lines(header, rows)
    assert csv_lines(header, iter(rows)) == reference_lines(header, rows)


def test_dispersion_curve_with_pole_sample():
    # a grid step of 1/128 puts a sample on the pole sigma = 1
    samples = sample_curve(HomogenizedModel(3, (1.0,), (1.0,)), (0.0, 2.0), 257)
    header = ["lambda", "value", "pole_adjacent"]
    lines = csv_lines(header, samples)
    assert lines == reference_lines(header, samples)
    assert len(lines) == 258 and "1,NaN,1" in lines
