"""Artifact formats: the one-line metadata comment, text tables and JSON.

The comment body is ``dgme-<kind> k=v k=v ...`` with keys in insertion
order; text tables write it after ``# `` on their first line, SVGs
inside an XML comment. Values must not contain whitespace. A text table
is that comment line, a header row, then CSV rows, quoted where a field
needs it. JSON artifacts are one object, metadata keys first, and hold
only finite float64 numbers.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from dgme.errors import DataError, NumericError


def format_meta(kind: str, meta: dict) -> str:
    """Comment body ``dgme-<kind> k=v ...`` for ``meta`` in its key order."""
    parts = " ".join(f"{k}={v}" for k, v in meta.items())
    return f"dgme-{kind} {parts}"


def parse_meta(line: str) -> dict:
    """Key/value pairs of a ``# dgme-<kind> k=v ...`` line; values stay strings."""
    meta = {}
    for token in line.lstrip("# ").split()[1:]:
        if "=" in token:
            k, v = token.split("=", 1)
            meta[k] = v
    return meta


def existing_file(path, kind: str) -> Path:
    """``path`` as a Path; a missing file is the data error ``<kind> file
    not found: <path>``, the same for tables, JSON files and clips."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{kind} file not found: {path}")
    return path


def write_table(path, kind: str, meta: dict, header, rows) -> None:
    """Write the ``# dgme-<kind>`` comment line, ``header`` and ``rows`` as
    CSV with ``\\n`` line endings."""
    with open(Path(path), "w", newline="\n") as fh:
        fh.write(f"# {format_meta(kind, meta)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, kind: str, parse_row) -> tuple[dict, list[str]]:
    """Read a ``kind`` table; returns the metadata of its comment line
    (empty without one) and the header. ``parse_row(0, header)`` sees the
    header first, then ``parse_row(n, cells)`` each data row as it is read,
    ``n`` counting from 1. Blank lines are skipped; a row whose cell count
    differs from the header's is a data error."""
    path = existing_file(path, kind)
    meta: dict = {}
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            meta = parse_meta(first)
        else:
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, [])
        parse_row(0, header)
        n = 0
        for cells in reader:
            if not cells:
                continue
            n += 1
            if len(cells) != len(header):
                raise DataError(f"{kind} row {n} in {path} has {len(cells)} cells, "
                                f"header has {len(header)}")
            parse_row(n, cells)
    return meta, header


def refuse_repeated_ids(kind: str, path, ids) -> None:
    """One row per clip id: ``ids`` are the clip ids of a ``kind`` table's
    rows in order, and a repeat is the data error ``<kind> row N (<id>)
    repeats the clip id of row M in <path>``."""
    first: dict[str, int] = {}
    for n, cid in enumerate(ids, 1):
        if first.setdefault(cid, n) != n:
            raise DataError(f"{kind} row {n} ({cid}) repeats the clip id of row "
                            f"{first[cid]} in {path}")


def write_json(path, meta: dict, fields: dict) -> None:
    """Write ``meta`` then ``fields`` as one JSON object; NaN and infinity
    are a numeric failure, and no file is written."""
    try:
        text = json.dumps({**meta, **fields}, indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"refusing to write non-finite JSON to {path}: {exc}") from exc
    with open(Path(path), "w", newline="\n") as fh:
        fh.write(text + "\n")


def _finite(parse):
    """A ``json.loads`` number hook: ``parse(token)`` if it is a finite
    float64; ``math.isfinite`` raises OverflowError for an int beyond it."""
    def number(token: str):
        value = parse(token)
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {token:.24}")
        return value
    return number


def read_json(path, kind: str) -> dict:
    """The object in a ``kind`` JSON file; a missing file, bad JSON or a
    number that is not a finite float64 is a data error."""
    path = existing_file(path, kind)
    try:
        return json.loads(path.read_text(), parse_float=_finite(float),
                          parse_int=_finite(int), parse_constant=_finite(float))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"malformed {kind} file {path}: {exc}") from exc


def numbers(value):
    """``value`` if it is a JSON number or nested lists of them, else a
    ValueError: ``float()`` and numpy would parse ``"nan"`` out of a string,
    past read_json's finite-only rule, and take ``true`` as 1, since a bool
    is an int."""
    if isinstance(value, list):
        return [numbers(item) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected a number, got {value!r:.40}")


def integer(value) -> int:
    """``value`` if it is an int or a string of one, as an int, else a
    ValueError: ``int()`` would take ``true`` as 1 and truncate 117.9."""
    try:
        if type(value) in (int, str):
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"expected an integer, got {value!r:.40}")
