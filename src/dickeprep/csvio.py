"""CSV emission shared by the CLI commands.

Every file starts with one comment line recording the package version, the
command, and its parameters (no timestamps, so identical configs produce
byte-identical files), then a header row, then data rows.  Probabilities are
printed to 9 significant digits; exact integers in full.

`write_csv` is the one writer: it sends the meta line, the header, the data
rows and the trailer comments to stdout, or to a temporary file that it
moves onto the `--out` path once the last byte is written.  The rows come
as an iterable of text slices, each whole rows ended by a newline, and go
out slice by slice, so no CSV is held as one text.  The dumps
(`krawtchouk --n`, `fullsim`) build their slices directly; the other
commands pass their data as columns, one per header field, through
`column_rows`, whose small text is one slice.  There a float or int ndarray
is formatted once per distinct value, a list of only `str` is its own text
(`fmt` returns a str unchanged), and any other column goes through `fmt`
per value; the bytes equal `csv.writer` on per-value `fmt` (`,`, `"`,
newline and a lone empty field quoted).  Columns unlike the header in count
or length, and a carriage return in a field (which csv.reader would split
at), raise ValueError.
"""

from __future__ import annotations

import os
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__

__all__ = ["column_rows", "fmt", "fmt_column", "write_csv"]


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


def column_rows(header: Sequence[str], columns: Iterable[Iterable[object]]) -> list[str]:
    """The data rows of one column per header field, as one CSV text slice for `write_csv`."""
    cols = [_fields(col) for col in columns]
    if len(cols) != len(header) or len(set(map(len, cols))) > 1:
        raise ValueError(f"need one equal-length column for each of the {len(header)} header fields")
    if len(cols) == 1:
        cols = [_lone(cols[0])]
    lines = list(map(",".join, zip(*cols)))
    return ["\n".join(lines + [""])] if lines else []


def _meta_line(command: str, params: dict[str, object]) -> str:
    parts = [f"dickeprep {__version__}", f"command={command}"]
    parts += [f"{key}={params[key]}" for key in sorted(params)]
    return "# " + " ".join(parts)


def write_csv(
    out: str | Path | None,
    command: str,
    params: dict[str, object],
    header: Sequence[str],
    rows: Iterable[str],
    trailer_comments: Sequence[str] = (),
) -> None:
    """Write the CSV to stdout when `out` is None or "", else atomically to the file `out`.

    `rows` holds slices of the data rows, each slice whole rows ended by a
    newline; each goes to the stream as it comes.  A bad header raises
    before anything is written; on any failure the file's temporary copy
    is removed.
    """
    head = _fields(header)
    if len(head) == 1:
        head = _lone(head)
    trailer = "".join(f"# {comment}\n" for comment in trailer_comments)
    parts = chain([f"{_meta_line(command, params)}\n{','.join(head)}\n"], rows, [trailer])
    if not out:
        sys.stdout.writelines(parts)
        return
    path = Path(out)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
