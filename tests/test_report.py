import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemult import report
from conemult.characterize import QuantityResult
from conemult.errors import ConfigError

_CELLS = ["1", "-2.5", "0", "-0", "1e300", "1e-320", "inf", "-inf", "nan",
          "+nan", "Infinity", "1_0", " 3 ", "\t4", '"5"', '"6,7"', "", "x",
          "0x10", "1d5", "#8", ".5", "5.", "+.25e2", "1e400", " 9",
          "١"]


@st.composite
def _csv_texts(draw):
    header = draw(st.sampled_from(["value,weight", "weight,value",
                                   "value,weight,note", "value", "",
                                   '"value",weight']))
    width = max(1, header.count(",") + 1)
    number = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    if draw(st.booleans()):
        # numbers only, in full rows, and blank lines: the table path
        cell = st.one_of(number, st.sampled_from(_CELLS[:11]))
        row = st.one_of(st.lists(cell, min_size=width,
                                 max_size=width).map(",".join), st.just(""))
    else:
        cell = st.one_of(st.sampled_from(_CELLS), number)
        row = st.one_of(
            st.lists(cell, min_size=width, max_size=width).map(",".join),
            st.lists(cell, min_size=0, max_size=width + 2).map(",".join),
            st.sampled_from(["", "   ", "\t", ","]))
    rows = draw(st.lists(row, max_size=8))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = draw(st.sampled_from(["", end]))
    return end.join([header, *rows]) + final


def _read(path, by_row):
    """read_float_columns, or (error text) the ConfigError it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(report, "_float_table",
                               (lambda path, width: None) if by_row
                               else report._float_table):
            try:
                return report.read_float_columns(path, ("value", "weight"))
            except ConfigError as exc:
                return str(exc)


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
def test_table_reader_equals_the_row_wise_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        got, want = _read(path, False), _read(path, True)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == float and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


def test_table_reader_reads_the_named_columns(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("note,weight,value\n1,2,3\n\n4,5.5,-6\n")
    value, weight = report.read_float_columns(path, ("value", "weight"))
    assert value.tolist() == [3.0, -6.0] and weight.tolist() == [2.0, 5.5]
    assert value.flags.c_contiguous and weight.flags.c_contiguous


@pytest.mark.parametrize("row, what", [
    ("0.5,1.0\n", "2 cells"),
    ("0.5,one,0.0\n", "'one' is not a number"),
])
def test_malformed_row_names_file_and_line(tmp_path, row, what):
    path = tmp_path / "prof.csv"
    path.write_text("radius,re,im\n0.1,1.0,0.0\n" + row)
    with pytest.raises(ConfigError, match=f"prof.csv:3: {what}"):
        report.read_float_columns(path, ("radius", "re", "im"))


@pytest.mark.parametrize("text", ["value,weight\n", "value,weight\n\n\n"])
def test_header_only_file_reads_no_rows_and_no_warning(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, weight = report.read_float_columns(path, ("value", "weight"))
    assert value.shape == weight.shape == (0,)


def _loop_csv_text(header, rows):
    """The per-cell loop ``write_csv`` used to run, kept as its oracle."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(repr(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_CSV_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                     1e16, 0.1]),
    st.integers(), st.booleans(),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CSV_CELLS, max_size=4), max_size=6))
def test_write_csv_equals_the_per_cell_loop(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        report.write_csv(path, ["r", "value"], rows)
        with open(path, newline="") as fh:
            assert fh.read() == _loop_csv_text(["r", "value"], rows)


def test_summary_writes_a_result_from_its_fields(tmp_path):
    result = QuantityResult(math.inf, {0.5: 1.0, 2.0: math.inf},
                            {"scales": (0.5, 2.0), "divergent": True},
                            {"nu": math.inf})
    path = tmp_path / "summary.json"
    report.write_summary(path, {"nested": {"result": result},
                                "by_octave": {2: result}})
    with open(path) as fh:
        summary = json.load(fh)
    written = summary["nested"]["result"]
    # the fields, not the ``divergent`` property; float keys as repr,
    # infinities as "inf", tuples as lists
    assert written == {"value": "inf",
                       "by_truncation": {"0.5": 1.0, "2.0": "inf"},
                       "trend": {"scales": [0.5, 2.0], "divergent": True},
                       "meta": {"nu": "inf"}}
    # integer keys as str
    assert summary["by_octave"] == {"2": written}
