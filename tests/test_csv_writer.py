"""The column-wise CSV writer against the row-wise writer it replaced.

`row_writer_oracle` and `sampled_oracle` are the earlier csv.writer + _fmt
writer and the earlier list comprehension of cli._sampled: the new writer
must produce the same bytes."""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hardylab import cli


def _fmt_oracle(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def row_writer_oracle(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_oracle(v) for v in row])


def sampled_oracle(xs, ys, values, x_stride, y_stride) -> list[tuple]:
    return [(xs[i], ys[j], values[i, j].real, values[i, j].imag)
            for i in range(0, len(xs), x_stride) for j in range(0, len(ys), y_stride)]


def written(tmp_path: Path, write, header, data) -> bytes:
    path = tmp_path / "table.csv"
    write(path, header, data)
    return path.read_bytes()


_EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e-300, 1e300, 0.1, 1.0, 1e16, 123456789.0]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_subnormal=True))
_INTS = st.integers(-2**63, 2**63 - 1)
# text csv.writer leaves unquoted: printable ASCII without comma and quote
_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=',"'),
                min_size=1, max_size=12)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(["float", "int", "text"]), min_size=1, max_size=5))
    header = [f"c{j}" for j in range(len(kinds))]
    columns = []
    for kind in kinds:
        values = draw(st.lists({"float": _FLOATS, "int": _INTS, "text": _TEXT}[kind],
                               min_size=n_rows, max_size=n_rows))
        # call sites pass numpy arrays and plain lists
        columns.append(np.array(values, dtype={"float": float, "int": np.int64,
                                               "text": str}[kind])
                       if draw(st.booleans()) else values)
    return header, columns


# the file is rewritten by every example, so one tmp_path serves them all
_EXAMPLES = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@_EXAMPLES
@given(tables())
def test_write_csv_matches_row_writer(tmp_path, table):
    header, columns = table
    rows = list(zip(*columns))
    assert (written(tmp_path, cli.write_csv, header, columns)
            == written(tmp_path, row_writer_oracle, header, rows))


def test_write_csv_zero_rows_writes_the_header_only(tmp_path):
    assert written(tmp_path, cli.write_csv, ["a", "b"], [[], np.empty(0)]) == b"a,b\r\n"


def test_write_csv_text_format(tmp_path):
    body = written(tmp_path, cli.write_csv, ["k", "x", "s"],
                   [[1, 2], [0.1, -0.0], np.array(["min", "max"])])
    assert body == b"k,x,s\r\n1,0.10000000000000001,min\r\n2,-0,max\r\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1.0, 2.0]]),                  # fewer columns than names
    (["a", "b"], [[1.0, 2.0], [3.0]]),           # columns of unequal length
    (["a", "b"], [[1.0], ["x,y"]]),              # a field csv.writer would quote
    (["a", "b"], [[1.0], ['say "x"']]),
    (["a", "b"], [[1.0], ["two\nlines"]]),
    (["a,b", "c"], [[1.0], [2.0]]),              # a quoted header name
])
def test_write_csv_rejects_what_it_cannot_write_as_csv_writer_did(tmp_path, header, columns):
    with pytest.raises(ValueError):
        cli.write_csv(tmp_path / "bad.csv", header, columns)


@st.composite
def sampled_inputs(draw):
    n_x, n_y = draw(st.integers(0, 11)), draw(st.integers(0, 11))
    xs = (range(1, n_x + 1) if draw(st.booleans())
          else np.array(draw(st.lists(_FLOATS, min_size=n_x, max_size=n_x))))
    ys = np.array(draw(st.lists(_FLOATS, min_size=n_y, max_size=n_y)))
    parts = [np.array(draw(st.lists(_FLOATS, min_size=n_x * n_y, max_size=n_x * n_y)),
                      dtype=float).reshape(n_x, n_y) for _ in range(2)]
    values = parts[0]
    if draw(st.booleans()):
        values = np.empty((n_x, n_y), dtype=complex)
        values.real, values.imag = parts
    return xs, ys, values, draw(st.integers(1, 5)), draw(st.integers(1, 5))


@_EXAMPLES
@given(sampled_inputs())
def test_sampled_columns_write_the_rows_of_the_list_comprehension(tmp_path, inputs):
    header = ["x", "y", "re_v", "im_v"]
    new = written(tmp_path, cli.write_csv, header, cli._sampled(*inputs))
    assert new == written(tmp_path, row_writer_oracle, header, sampled_oracle(*inputs))


def test_sampled_reads_only_the_xs_by_ys_corner_of_larger_values(tmp_path):
    inputs = ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], np.arange(30.0).reshape(5, 6) * (1 + 2j), 2, 3)
    columns = cli._sampled(*inputs)
    assert [len(col) for col in columns] == [4, 4, 4, 4]
    header = ["x", "y", "re_v", "im_v"]
    assert (written(tmp_path, cli.write_csv, header, columns)
            == written(tmp_path, row_writer_oracle, header, sampled_oracle(*inputs)))
