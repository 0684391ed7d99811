import csv

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from demandcast.artifacts import _write_csv


def fmt(value) -> str:
    """The cell formatting _write_csv once applied before csv saw a value."""
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too, whose repr is np.float64(...)
        return repr(float(value))
    return str(value)


CELLS = st.one_of(
    st.none(),
    st.text(max_size=5),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, float("inf"), float("-inf"), float("nan")]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(CELLS, min_size=1, max_size=5), max_size=5))
def test_csv_formats_cells_as_fmt_did(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    _write_csv(path, ["a", "b"], rows)
    with open(path.with_suffix(".expected"), "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "b"])
        for row in rows:
            writer.writerow([fmt(v) for v in row])
    assert path.read_bytes() == path.with_suffix(".expected").read_bytes()
