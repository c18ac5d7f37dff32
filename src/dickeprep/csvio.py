"""CSV emission and parsing shared by the CLI commands.

Every file starts with one comment line recording the package version, the
command, and its parameters (no timestamps, so identical configs produce
byte-identical files), then a header row, then data rows.  Probabilities are
printed to 9 significant digits; exact integers in full.

`render_csv` formats by column, not by value: a column of plain ints and
strs goes to `csv.writer` as it is (the writer applies `str`, as `fmt`
does), a column of plain floats is formatted in one `map`, and any other
column (None, bools, numpy scalars, mixed types) falls back to `fmt` per
value.  The bytes are the same as formatting each value with `fmt`.
"""

from __future__ import annotations

import csv
import io
import os
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__

__all__ = ["fmt", "read_csv", "render_csv", "write_csv"]


def fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _format_column(col: tuple) -> Sequence[object]:
    types = set(map(type, col))
    if types <= {int, str}:
        return col
    if types == {float}:
        return list(map(format, col, repeat(".9g")))
    return list(map(fmt, col))


def _meta_line(command: str, params: dict[str, object]) -> str:
    parts = [f"dickeprep {__version__}", f"command={command}"]
    parts += [f"{key}={params[key]}" for key in sorted(params)]
    return "# " + " ".join(parts)


def render_csv(
    command: str,
    params: dict[str, object],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    trailer_comments: Sequence[str] = (),
) -> str:
    rows = list(rows)
    if set(map(len, rows)) - {len(header)}:
        raise ValueError(f"every CSV row must have {len(header)} fields, as the header has")
    cols = [_format_column(col) for col in zip(*rows)]
    buf = io.StringIO()
    buf.write(_meta_line(command, params) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    # with no columns every row is empty, and zip(*cols) would drop them
    writer.writerows(zip(*cols) if cols else rows)
    for comment in trailer_comments:
        buf.write(f"# {comment}\n")
    return buf.getvalue()


def write_csv(
    path: str | Path,
    command: str,
    params: dict[str, object],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    trailer_comments: Sequence[str] = (),
) -> None:
    """Atomically write a CSV file; nothing is left behind on failure."""
    path = Path(path)
    text = render_csv(command, params, header, rows, trailer_comments)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
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
