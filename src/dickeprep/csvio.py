"""CSV emission shared by the CLI commands.

Every file starts with one comment line recording the package version, the
command, and its parameters (no timestamps, so identical configs produce
byte-identical files), then a header row, then data rows.  Probabilities are
printed to 9 significant digits; exact integers in full.

`write_csv` is the one writer: it sends the meta line, the header, the data
rows and the trailer comments to stdout, or to a temporary file that it
moves onto the `--out` path once the last byte is written.  The rows come
as an iterable of text slices, each whole rows ended by a newline, and go
out slice by slice, so no CSV is held as one text.  A file is written
through a 64 KiB buffer: the 552 KB of `fullsim --n 14` leave in 9 system
writes, where the default 8 KiB buffer made 128.  stdout keeps its own.
Either way the writer holds one slice and one buffer at a time.  The dumps
(`krawtchouk --n`, `fullsim`) build their slices directly; the other
commands pass their data as columns, one per header field, through
`column_rows`, whose small text is one slice.  There a float or int ndarray
is formatted once per distinct value, a list of only `str` is its own text
(`fmt` returns a str unchanged), and any other column goes through `fmt`
per value.  `fmt_column` can also follow each text with a fixed `end`,
joined once per distinct value of an ndarray; `fullsim` passes its row
tail so.  Cells are plain text: a header or data cell that holds `,`,
`"`, a line feed or a carriage return, or an empty cell that would be the
only field of its row, raises ValueError before any byte is written, so
the bytes are `csv.writer`'s on per-value `fmt` with nothing to quote.
Columns unlike the header in count or length raise ValueError too.
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

_FILE_BUFFER = 1 << 16  # bytes written to an --out file per system call


def fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def fmt_column(col: Iterable[object], end: str = "") -> list[str]:
    """fmt of every value of col followed by end; a float or int ndarray is formatted once per distinct bit pattern."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "fiu":
        # distinct bit patterns, not values, so that -0.0 stays apart from 0.0
        bits, inv = np.unique(col.view(f"i{col.itemsize}"), return_inverse=True)
        return (np.array(list(map(fmt, bits.view(col.dtype))), dtype=object) + end)[inv].tolist()
    out = col if isinstance(col, list) and set(map(type, col)) == {str} else list(map(fmt, col))
    return [text + end for text in out] if end else out


def _fields(col: Iterable[object], lone: bool) -> list[str]:
    """fmt_column(col), refusing a cell that csv.writer would quote; `lone` when it is the row's only field."""
    out = fmt_column(col)
    if any(c in "".join(out) for c in ',"\n\r') or lone and "" in out:
        cell = next(f for f in out if any(c in f for c in ',"\n\r') or lone and not f)
        raise ValueError(f"CSV cell {cell!r} is not plain text: it holds a comma, a double quote, "
                         f"a line feed or a carriage return, or is empty and alone on its row")
    return out


def column_rows(header: Sequence[str], columns: Iterable[Iterable[object]]) -> list[str]:
    """The data rows of one column per header field, as one CSV text slice for `write_csv`."""
    cols = [_fields(col, len(header) == 1) for col in columns]
    if len(cols) != len(header) or len(set(map(len, cols))) > 1:
        raise ValueError(f"need one equal-length column for each of the {len(header)} header fields")
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
    newline; each goes to the stream as it comes.  A file is written
    through a buffer of _FILE_BUFFER = 64 KiB, stdout through its own, so
    the memory held is one slice plus that buffer.  A bad header raises
    before anything is written; on any failure the file's temporary copy
    is closed and removed.
    """
    head = _fields(header, len(header) == 1)
    trailer = "".join(f"# {comment}\n" for comment in trailer_comments)
    parts = chain([f"{_meta_line(command, params)}\n{','.join(head)}\n"], rows, [trailer])
    if not out:
        sys.stdout.writelines(parts)
        return
    path = Path(out)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", buffering=_FILE_BUFFER) as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
