"""The reference CSV text that csvio is checked against: csv.writer over csvio.fmt of every value."""

import csv
import io

from dickeprep.csvio import _meta_line, fmt


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
