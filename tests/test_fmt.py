"""CSV rows and flat JSON float lists formatted through one %-template give
the bytes of the per-cell formatting they replace."""

import math

import pytest

from gapforge._fmt import csv_lines, dumps_json, fmt_real
from gapforge.cli import MAX_COUNT
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
    # the three row shapes the commands write: dispersion (lambda, value,
    # pole flag), convergence (reals, then the resolution) and bands (theta
    # index, character angles, band index, eigenvalue)
    pytest.param([(0.5, -1.25, False), (1.0, math.nan, True), (1.0000001, math.inf, True)], id="dispersion"),
    pytest.param([(0.2, 1.0168, 2.08, 1.02, 0.0832, 1.0, 21.9, 384),
                  (0.1, math.inf, -math.inf, 1.0, 0.5, 1.0, 21.9, MAX_COUNT)], id="convergence"),
    pytest.param([(0, 0.0, -math.pi, 1, 1.2861), (15, math.pi, -0.0, 12, 31.5)], id="bands"),
    pytest.param([(), (MAX_COUNT, 0)], id="empty-and-max-count"),
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


@pytest.mark.parametrize("values", [
    [1.5, math.nan, math.inf, -math.inf, -0.0, 0.1],
    (5e-324, 1e308, 1e16, 1e21, 1e-5, 123456789012345678.0),
    [2.0],
])
def test_dumps_json_float_list_matches_per_element(values):
    assert dumps_json(values) == "[" + ", ".join(fmt_real(v) for v in values) + "]"
    assert dumps_json({"a": {"b": values}}, indent=2) == (
        '{\n    "a": {\n      "b": [' + ", ".join(fmt_real(v) for v in values) + "]\n    }\n  }"
    )


def test_dumps_json_mixed_flat_list_unchanged():
    assert dumps_json([1.0, 2, True, None, "x", math.nan]) == '[1, 2, true, null, "x", NaN]'
