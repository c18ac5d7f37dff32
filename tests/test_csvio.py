import contextlib
import io
import re

import numpy as np
import pytest

from dickeprep import csvio
from dickeprep.csvio import column_rows, fmt, fmt_column, write_csv

from csv_reference import render_per_value, written


SUBNORMAL = 5e-324
CASES = {  # name -> (header, columns)
    "big ints": (["i", "v"], [
        list(range(7)),
        [(-3) ** (60 + 7 * i) for i in range(5)] + [2**64, -(2**64) - 1],
    ]),
    "None, bool, numpy scalars": (["a", "b", "c", "d"], [
        [None, None],
        [True, False],
        [np.float64(0.1), np.float64(-2.5e-300)],
        [np.int64(7), np.int64(-1)],
    ]),
    "float column with an int": (["x"], [[0.1, 3, 1e22, 2.0 / 3.0]]),
    "signed zero, nan, inf": (["x", "y"], [[-0.0, float("nan"), float("-inf")], [0.0, float("inf"), 1.0]]),
    "mixed int and str": (["k", "v"], [[1, "y"], ["x", 2]]),
    "zero rows": (["a", "b"], [[], []]),
    "float array: signed zeros, nan, inf, subnormals": (["x"], [np.array([
        -0.0, 0.0, float("nan"), -float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
        SUBNORMAL, -SUBNORMAL, 3 * SUBNORMAL, 2.2250738585072014e-308 / 3, 1.0,
    ])]),
    "float array: only negative zeros": (["x", "y"], [np.array([-0.0, -0.0]), np.array([0.0, -0.0])]),
    "float array: ties and near ties to 9 digits": (["x"], [np.array([
        0.1, np.nextafter(0.1, 1.0), 1.0 / 3.0, 1.0 / 3.0 + 1e-12,
        0.123456789, 0.123456788, 0.123456789, -0.123456789, 1e22, 1e22 + 2**30,
    ])]),
    "float32 array": (["x"], [np.array([0.1, -0.0, 0.0, 1.0 / 3.0, 0.1], dtype=np.float32)]),
    "int64 array": (["i"], [np.array([0, -1, 7, 2**62, -(2**63), 7, 0], dtype=np.int64)]),
    "uint64, float16 and big-endian float64 arrays": (["u", "h", "b"], [
        np.array([2**64 - 1, 0, 2**63, 7], dtype=np.uint64),
        np.array([0.1, -0.0, 65504.0, 0.1], dtype=np.float16),
        np.array([0.1, -0.0, 1.0 / 3.0, 0.1], dtype=">f8"),
    ]),
    "arrays beside lists, as fullsim emits them": (["x", "weight", "re", "im"], [
        ["00", "01", "10", "11"],
        np.array([0, 1, 1, 2]),
        np.array([0.5, -0.25, -0.25, 0.125]),
        np.array([0.0, -0.0, 0.0, -0.0]),
    ]),
    "str columns, as the krawtchouk dump emits them": (["i", "k0", "k1"], [
        range(3), ["1", "-20", "0"], ["-1", "", "q"],
    ]),
    "range columns, as curves and cn emit them": (["w", "n", "d"], [
        range(4, 7), range(-1, 2), range(2**64 - 1, 2**64 + 2),
    ]),
}
# name -> (header, columns, cell): the one cell csv.writer would quote, which is refused
REFUSED = {
    **{f"{name} in a header cell": (["a", f"x{c}y"], [[1], [2]], f"x{c}y") for name, c in
       [("comma", ","), ("double quote", '"'), ("line feed", "\n"), ("carriage return", "\r")]},
    **{f"{name} in a data cell": (["a", "b"], [[1, 2], ["", f"x{c}y"]], f"x{c}y") for name, c in
       [("comma", ","), ("double quote", '"'), ("line feed", "\n"), ("carriage return", "\r")]},
    "lone empty header cell": ([""], [[1, 2]], ""),
    "lone empty data cell": (["s"], [["a", "", "b"]], ""),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_match_per_value_formatting(name):
    header, cols = CASES[name]
    params = {"n": 3, "case": name.replace(" ", "_")}
    trailer = ["done"]
    got = written("demo", params, header, column_rows(header, cols), trailer).encode("utf-8")
    assert got == render_per_value("demo", params, header, zip(*cols), trailer).encode("utf-8")


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_cell_needing_quotes_refused(name, capsys, tmp_path):
    header, cols, cell = REFUSED[name]
    path = tmp_path / "out.csv"
    for out in (None, path):
        with pytest.raises(ValueError, match=re.escape(f"CSV cell {cell!r} is not plain text")):
            write_csv(out, "demo", {}, header, column_rows(header, cols))
    assert capsys.readouterr().out == ""  # refused before the first byte
    assert list(tmp_path.iterdir()) == []  # neither the file nor its temporary copy


@pytest.mark.parametrize("name", sorted(CASES))
def test_fmt_column_same_as_fmt(name):
    for col in CASES[name][1]:
        assert fmt_column(col) == [fmt(v) for v in col]


def test_generator_columns():
    cols = [[1, 2], [0.5, 0.25], ["a", "b"]]
    got = written("demo", {}, ["i", "p", "s"], column_rows(["i", "p", "s"], (iter(col) for col in cols)))
    assert got == render_per_value("demo", {}, ["i", "p", "s"], zip(*cols))


@pytest.mark.parametrize("cols", [
    [[1, 3], [2]],  # ragged
    [[1, 4], [2, 5], [3, 6]],  # more columns than the header has fields
    [[1]],  # fewer
    [np.array([1.0, 2.0]), [1]],  # ragged, one of them an array
])
def test_columns_must_match_header(cols):
    with pytest.raises(ValueError, match="fields"):
        column_rows(["a", "b"], cols)


def test_carriage_return_raises(capsys):
    # csv.writer leaves it unquoted here, and csv.reader then splits the line at it
    with pytest.raises(ValueError, match="carriage return"):
        column_rows(["s"], [["a\rb"]])
    with pytest.raises(ValueError, match="carriage return"):
        write_csv(None, "demo", {}, ["a\rb"], [])
    assert capsys.readouterr().out == ""  # refused before the first byte


def test_str_column_passes_through_without_fmt(monkeypatch):
    import dickeprep.csvio as csvio

    calls = []
    monkeypatch.setattr(csvio, "fmt", lambda v: calls.append(v) or fmt(v))
    got = written("demo", {}, ["a", "b"], column_rows(["a", "b"], [["1", "-2"], [3, "x"]]))
    assert got == render_per_value("demo", {}, ["a", "b"], [("1", 3), ("-2", "x")])
    assert calls == [3, "x"]  # only the column that is not all str


def test_rows_text_passes_through():
    # the dumps hand write_csv their rows as text slices; only the header is formatted here
    got = written("demo", {"n": 1}, ["x", "q"], ["a,1\n", "b,2\n"], ["done"])
    assert got == render_per_value("demo", {"n": 1}, ["x", "q"], [("a", 1), ("b", 2)], ["done"])
    assert written("demo", {}, ["a"], []) == render_per_value("demo", {}, ["a"], [])
    assert column_rows(["a"], [[]]) == []


def test_slices_stream_to_stdout_as_they_come():
    # each slice reaches the stream before the next is asked for
    buf = io.StringIO()
    seen = []

    def rows():
        for i in range(3):
            seen.append(buf.getvalue())
            yield f"{i},x\n"

    with contextlib.redirect_stdout(buf):
        write_csv("", "demo", {}, ["i", "s"], rows(), ["done"])  # an empty --out is stdout
    head = written("demo", {}, ["i", "s"], [])
    assert seen == [head, head + "0,x\n", head + "0,x\n1,x\n"]
    assert buf.getvalue() == head + "0,x\n1,x\n2,x\n# done\n"


def test_write_csv_file_same_bytes_as_stdout(tmp_path):
    # slices of more than 2^20 characters, two-byte characters, a single-field
    # header, trailer comments, and no rows at all
    rows = ["".join(f"{i},\u00e9{'x' * (i % 7)}\n" for i in range(j, j + 100_000)) for j in (0, 100_000)]
    assert len(rows[0]) > 1 << 20
    for header, trailer, slices in ((["i", "s"], ["done", "again"], rows), (["s"], [], rows), (["a"], [], [])):
        path = tmp_path / "out.csv"
        write_csv(path, "demo", {"n": 3}, header, iter(slices), trailer)
        assert path.read_bytes() == written("demo", {"n": 3}, header, slices, trailer).encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_file_leaves_in_buffer_sized_writes(tmp_path, monkeypatch):
    # open(file, "w", buffering=b) is a TextIOWrapper on a BufferedWriter of b bytes on a FileIO;
    # the same stack, with each system write counted at the FileIO
    writes = []

    class CountedFileIO(io.FileIO):
        def write(self, b):
            writes.append(len(b))
            return super().write(b)

    def counted_open(file, mode, encoding, buffering):
        return io.TextIOWrapper(io.BufferedWriter(CountedFileIO(file, mode), buffering), encoding=encoding)

    monkeypatch.setattr(csvio, "open", counted_open, raising=False)
    rows = ["".join(f"{i},{'x' * (i % 23)}\n" for i in range(j, j + 200)) for j in range(0, 40_000, 200)]
    path = tmp_path / "out.csv"
    write_csv(path, "demo", {}, ["i", "s"], iter(rows))
    size = path.stat().st_size
    assert path.read_bytes() == written("demo", {}, ["i", "s"], rows).encode("utf-8")
    assert sum(writes) == size > 8 * csvio._FILE_BUFFER
    assert len(writes) <= size // (csvio._FILE_BUFFER // 2) + 1  # an 8 KiB buffer would take about 8 times as many


def test_write_csv_failure_leaves_nothing_behind(tmp_path):
    # a failure after the first slice: a lone surrogate fails the utf-8
    # encoding, and the producer of the slices raises or is interrupted
    def rows(failure):
        yield "a\n" * (1 << 20)
        if failure is UnicodeEncodeError:
            yield "\ud800\n"
        raise failure("mid-dump")

    path = tmp_path / "out.csv"
    path.write_text("old\n", encoding="utf-8")
    for failure in (UnicodeEncodeError, RuntimeError, KeyboardInterrupt):
        with pytest.raises(failure):
            write_csv(path, "demo", {}, ["a"], rows(failure))
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert path.read_text(encoding="utf-8") == "old\n"
    with pytest.raises(ValueError, match="carriage return"):
        write_csv(tmp_path / "new.csv", "demo", {}, ["a\rb"], [])
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
