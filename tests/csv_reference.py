"""The reference CSV text that csvio is checked against (csv.writer over csvio.fmt of every value), and a reader."""

import contextlib
import csv
import io

from dickeprep.csvio import _meta_line, fmt, write_csv


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


def written(command, params, header, rows, trailer_comments=()):
    """The text csvio.write_csv sends to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write_csv(None, command, params, header, rows, trailer_comments)
    return buf.getvalue()


def read_csv(path):
    """Parse a file written by csvio.write_csv: (meta, header, rows)."""
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
