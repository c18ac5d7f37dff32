import csv
import io

import numpy as np
import pytest

from dickeprep.csvio import _meta_line, fmt, render_csv


def render_per_value(command, params, header, rows, trailer_comments=()):
    """The reference renderer: fmt on every value, one writerow per row."""
    buf = io.StringIO()
    buf.write(_meta_line(command, params) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    for comment in trailer_comments:
        buf.write(f"# {comment}\n")
    return buf.getvalue()


CASES = {
    "big ints": (["i", "v"], [(i, (-3) ** (60 + 7 * i)) for i in range(5)] + [(5, 2**64), (6, -(2**64) - 1)]),
    "quoted strs": (["s", "t"], [("a,b", 'say "hi"'), ("plain", "line\nbreak"), ("", " ")]),
    "None, bool, numpy scalars": (
        ["a", "b", "c", "d"],
        [(None, True, np.float64(0.1), np.int64(7)), (None, False, np.float64(-2.5e-300), np.int64(-1))],
    ),
    "float column with an int": (["x"], [(0.1,), (3,), (1e22,), (2.0 / 3.0,)]),
    "signed zero, nan, inf": (["x", "y"], [(-0.0, 0.0), (float("nan"), float("inf")), (float("-inf"), 1.0)]),
    "mixed int and str": (["k", "v"], [(1, "x"), ("y", 2)]),
    "zero rows": (["a", "b"], []),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_match_per_value_formatting(name):
    header, rows = CASES[name]
    params = {"n": 3, "case": name.replace(" ", "_")}
    trailer = ["done"]
    got = render_csv("demo", params, header, rows, trailer).encode("utf-8")
    assert got == render_per_value("demo", params, header, rows, trailer).encode("utf-8")


def test_generator_rows():
    rows = [(1, 0.5, "a"), (2, 0.25, "b")]
    assert render_csv("demo", {}, ["i", "p", "s"], iter(rows)) == render_per_value(
        "demo", {}, ["i", "p", "s"], rows)


@pytest.mark.parametrize("rows", [
    [(1, 2), (3,)],  # ragged
    [(1, 2, 3), (4, 5, 6)],  # wider than the header
    [(1,)],  # narrower than the header
])
def test_row_length_must_match_header(rows):
    with pytest.raises(ValueError, match="fields"):
        render_csv("demo", {}, ["a", "b"], rows)
