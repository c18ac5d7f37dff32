"""CSV emission and parsing shared by the CLI commands.

Every file starts with one comment line recording the package version, the
command, and its parameters (no timestamps, so identical configs produce
byte-identical files), then a header row, then data rows.  Probabilities are
printed to 9 significant digits; exact integers in full.

`render_csv` returns the text of every CSV: the meta line, the header, the
data rows (one text, each row ended by a newline) and the trailer comments;
`write_csv` writes the same bytes to a file without joining them first.
The dumps (`krawtchouk --n`, `fullsim`) build their rows directly; the other
commands pass their data as columns, one per header field, through
`column_rows`.  There a float or int ndarray is formatted once per distinct
value, a list of only `str` is its own text (`fmt` returns a str
unchanged), and any other column goes through `fmt` per value; the bytes
equal `csv.writer` on per-value `fmt` (`,`, `"`, newline and a lone empty
field quoted).  Columns unlike the header in count or length, and a
carriage return in a field (which csv.reader would split at), raise
ValueError.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__

__all__ = ["column_rows", "fmt", "fmt_column", "read_csv", "render_csv", "write_csv"]


def fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def fmt_column(col: Iterable[object]) -> list[str]:
    """fmt of every value of col; a float or int ndarray is formatted once per distinct bit pattern."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "fiu":
        # distinct bit patterns, not values, so that -0.0 stays apart from 0.0
        bits, inv = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
        return np.array(list(map(fmt, bits.view(col.dtype))), dtype=object)[inv].tolist()
    return col if isinstance(col, list) and set(map(type, col)) == {str} else list(map(fmt, col))


def _quote(field: str) -> str:
    if "\r" in field:
        raise ValueError(f"CSV field {field!r} holds a carriage return")
    return '"' + field.replace('"', '""') + '"' if any(c in field for c in ',"\n') else field


def _fields(col: Iterable[object]) -> list[str]:
    out = fmt_column(col)
    text = "".join(out)
    return list(map(_quote, out)) if any(c in text for c in ',"\n\r') else out


def _lone(fields: list[str]) -> list[str]:
    # csv.writer quotes a lone empty field, so that its line is not blank
    return [field or '""' for field in fields]


def column_rows(header: Sequence[str], columns: Iterable[Iterable[object]]) -> str:
    """The data rows of one column per header field, as CSV text for `render_csv`."""
    cols = [_fields(col) for col in columns]
    if len(cols) != len(header) or len(set(map(len, cols))) > 1:
        raise ValueError(f"need one equal-length column for each of the {len(header)} header fields")
    if len(cols) == 1:
        cols = [_lone(cols[0])]
    lines = list(map(",".join, zip(*cols)))
    return "\n".join(lines + [""]) if lines else ""


def _meta_line(command: str, params: dict[str, object]) -> str:
    parts = [f"dickeprep {__version__}", f"command={command}"]
    parts += [f"{key}={params[key]}" for key in sorted(params)]
    return "# " + " ".join(parts)


def _frame(
    command: str, params: dict[str, object], header: Sequence[str], trailer_comments: Sequence[str]
) -> tuple[str, str]:
    """The text before the data rows (meta line, header) and after them (trailer comments)."""
    head = _fields(header)
    if len(head) == 1:
        head = _lone(head)
    trailer = "".join(f"# {comment}\n" for comment in trailer_comments)
    return "".join([_meta_line(command, params), "\n", ",".join(head), "\n"]), trailer


def render_csv(
    command: str,
    params: dict[str, object],
    header: Sequence[str],
    rows: str,
    trailer_comments: Sequence[str] = (),
) -> str:
    """The CSV text: meta line, header, `rows` (each ended by a newline), trailer comments."""
    head, trailer = _frame(command, params, header, trailer_comments)
    return "".join([head, rows, trailer])


def write_csv(
    path: str | Path,
    command: str,
    params: dict[str, object],
    header: Sequence[str],
    rows: str,
    trailer_comments: Sequence[str] = (),
) -> None:
    """Atomically write the bytes of render_csv; nothing is left behind on failure.

    `rows` goes to the file in slices of at most 2^20 characters, so no
    joined or encoded copy of the whole text is made.
    """
    path = Path(path)
    head, trailer = _frame(command, params, header, trailer_comments)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(head)
            for start in range(0, len(rows), 1 << 20):
                fh.write(rows[start:start + (1 << 20)])
            fh.write(trailer)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_csv(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Parse a file written by write_csv: (meta, header, rows)."""
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for record in csv.reader(fh):
            if not record:
                continue
            if record[0].startswith("#"):
                if not meta:
                    for token in " ".join(record).split():
                        if "=" in token:
                            key, _, val = token.partition("=")
                            meta[key.lstrip("# ")] = val
                continue
            if not header:
                header = record
            else:
                rows.append(record)
    return meta, header, rows
