"""The one-line metadata comment that text artifacts carry.

Its body is ``dgme-<kind> k=v k=v ...`` with keys in insertion order;
CSV artifacts write it after ``# `` on their first line, SVGs inside an
XML comment. Values must not contain whitespace.
"""

from __future__ import annotations


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
