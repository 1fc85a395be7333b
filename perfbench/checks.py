"""Output checks of the dgme benchmark.

Each function returns a list of problems (empty when the output is correct).
The files are parsed here rather than with the program's own readers, so a
broken reader cannot hide a broken writer.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DESCRIPTOR_LENGTH = 117

# The features CSV stores 9 significant digits, so each value carries a
# relative rounding error of up to 5e-9, and so does the norm of a row.
NORM_TOLERANCE = 5e-9


def _rows(path: Path) -> tuple[str, list[str], list[list[str]]]:
    """(metadata comment line, header, data rows) of a dgme CSV artifact."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    meta = lines[0] if lines and lines[0].startswith("#") else ""
    body = list(csv.reader(lines[1:] if meta else lines))
    return meta, body[0] if body else [], [r for r in body[1:] if r]


def _annotations(path: Path) -> list[tuple[str, str]]:
    _, header, rows = _rows(path)
    if header != ["clip_path", "label"]:
        raise ValueError(f"unexpected annotations header {header}")
    return [(Path(p).stem, label) for p, label in rows]


def annotation_count(path: Path, expected: int) -> list[str]:
    try:
        n = len(_annotations(path))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    return [] if n == expected else [f"{path.name}: {n} rows, expected {expected}"]


def split_sizes(splits: Path, total: int) -> list[str]:
    try:
        parts = [_annotations(splits / f"{p}.csv") for p in ("train", "val", "test")]
    except (OSError, ValueError) as exc:
        return [f"split: {exc}"]
    ids = [cid for part in parts for cid, _ in part]
    if len(ids) != total or len(set(ids)) != total:
        return [f"split: {len(ids)} rows ({len(set(ids))} distinct), expected {total}"]
    return []


def features(path: Path, ann: Path, calibrated: bool) -> list[str]:
    """Rows and their order match the annotations; every row holds 117 finite
    values (of unit L2 norm unless calibrated); the config hash is present."""
    try:
        meta, header, rows = _rows(path)
        expected = _annotations(ann)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    if "config_hash=" not in meta or meta.split("config_hash=")[1].split(" ")[0] == "":
        problems.append(f"{path.name}: no config hash in {meta!r}")
    if len(header) != 2 + DESCRIPTOR_LENGTH:
        problems.append(f"{path.name}: {len(header) - 2} feature columns")
    if [(r[0], r[1]) for r in rows] != expected:
        problems.append(f"{path.name}: rows or their order differ from {ann}")
    for r in rows:
        try:
            values = [float(v) for v in r[2:]]
        except ValueError:
            problems.append(f"{path.name}: non-numeric value in row {r[0]}")
            continue
        if len(values) != DESCRIPTOR_LENGTH or not all(map(math.isfinite, values)):
            problems.append(f"{path.name}: row {r[0]} is not 117 finite values")
        elif not calibrated:
            norm = math.sqrt(math.fsum(v * v for v in values))
            if abs(norm - 1.0) > NORM_TOLERANCE:
                problems.append(f"{path.name}: row {r[0]} has L2 norm {norm!r}")
    return problems


def feature_rows(path: Path) -> list[list[float]]:
    return [[float(v) for v in r[2:]] for r in _rows(path)[2]]


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def load_json(path: Path):
    """Parse standard JSON; ``NaN`` and ``Infinity`` tokens are errors."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def json_file(path: Path) -> list[str]:
    try:
        load_json(path)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    return []


def metrics_json(path: Path) -> list[str]:
    try:
        f1 = load_json(path)["macro_f1"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: {exc}"]
    return [] if 0.0 <= f1 <= 1.0 else [f"{path.name}: macro_f1 {f1} outside [0, 1]"]


def same_bytes(first: list[Path], again: list[Path]) -> list[str]:
    """Outputs of two runs of the same command must be byte-identical."""
    return [f"{b} differs from {a}" for a, b in zip(first, again)
            if a.read_bytes() != b.read_bytes()]
