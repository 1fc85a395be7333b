"""Artifact metadata: the one-line comment of text artifacts and the
metadata-first object of JSON artifacts.

The comment body is ``dgme-<kind> k=v k=v ...`` with keys in insertion
order; CSV artifacts write it after ``# `` on their first line, SVGs
inside an XML comment. Values must not contain whitespace. JSON artifacts
are one object, metadata keys first, and hold only finite numbers.
"""

from __future__ import annotations

import json
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


def write_json(path, meta: dict, fields: dict) -> None:
    """Write ``meta`` then ``fields`` as one JSON object; NaN and infinity
    are a numeric failure, and no file is written."""
    try:
        text = json.dumps({**meta, **fields}, indent=1, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"refusing to write non-finite JSON to {path}: {exc}") from exc
    with open(Path(path), "w", newline="\n") as fh:
        fh.write(text + "\n")


def _refuse_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def read_json(path, kind: str) -> dict:
    """The object in a ``kind`` JSON file; a missing file, bad JSON or a
    NaN/Infinity token is a data error."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{kind} file not found: {path}")
    try:
        return json.loads(path.read_text(), parse_constant=_refuse_constant)
    except ValueError as exc:
        raise DataError(f"malformed {kind} file {path}: {exc}") from exc
