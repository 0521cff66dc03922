"""The one output writer behind every table, batch, report and CLI command.

A JSON dict is written with ``indent=2`` and a trailing newline; CSV
rows are written with LF line endings and floats as their ``repr``.
Output to a path and to stdout is byte for byte the same.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys


def write_output(data, path=None) -> None:
    """Write ``data`` to ``path``, or to stdout when no path is given.

    ``data`` is either a JSON-ready dict or an iterable of CSV rows.
    """
    target = open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)
    with target as fh:
        if isinstance(data, dict):
            fh.write(json.dumps(data, indent=2) + "\n")
            return
        writer = csv.writer(fh, lineterminator="\n")
        for row in data:
            writer.writerow(repr(float(v)) if isinstance(v, float) else v for v in row)
