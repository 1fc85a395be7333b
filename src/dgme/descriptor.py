"""Directional grid motion encoding and cross-domain calibration.

A clip descriptor is built per frame pair: dense flow is converted to
polar form, the frame is partitioned into a 3x3 grid, and each cell
accumulates a magnitude-weighted histogram over 12 directional bins of
30 degrees plus one static bin. Pixels whose magnitude falls below the
threshold contribute the threshold value to the static bin, which keeps
units consistent with the magnitude-weighted directional bins and
guarantees nonzero descriptors for motionless clips. Histograms are
summed over all frame pairs, concatenated row-major (13 bins per cell,
directional 0..11 then static), and L2-normalized to a 117-vector.

Calibration is per-dimension z-scoring against statistics fitted on a
reference corpus; calibrated vectors may be negative and are no longer
unit norm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from dgme import flow
from dgme._meta import (integer, numbers, read_json, read_table, refuse_repeated_ids, write_json,
                        write_table)
from dgme.errors import DataError, NumericError
from dgme.flow import PolarFlow, cart2polar, farneback_flow
from dgme.videoio import FrameSequence

# z-score denominator floor for zero-variance dimensions
ZSCORE_EPS = 1e-8

FEATURE_FLOAT_FMT = "%.9g"

# the descriptor geometry, fixed: a GRID x GRID grid of cells, each with
# DIRECTIONAL_BINS bins of BIN_WIDTH degrees and one static bin
GRID = 3
DIRECTIONAL_BINS = 12
BINS_PER_CELL = DIRECTIONAL_BINS + 1
DESCRIPTOR_LENGTH = GRID * GRID * BINS_PER_CELL
BIN_WIDTH = 360.0 / DIRECTIONAL_BINS


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray
    source_count: int
    config_hash: str

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean/std must be matching vectors")
        if (self.std < 0).any():
            raise ValueError("std entries must be >= 0")


def _sha256_hex(payload: bytes) -> str:
    """Hex SHA-256 of ``payload`` from the interpreter's built-in SHA-256
    module (``_sha2`` from CPython 3.12, ``_sha256`` before), the one
    ``hashlib`` itself falls back to. A plain ``import hashlib`` maps
    OpenSSL's libcrypto, about 3.4 MB resident, into a command that needs
    two short digests; only a build that leaves SHA-256 to OpenSSL takes
    the same digest through ``hashlib``."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(payload).hexdigest()


def config_hash(magnitude_threshold: float) -> str:
    """Stable short hash binding features to the settings that produced
    them: the magnitude threshold, the fixed geometry and the fixed
    Farneback settings, including the kind of averaging window
    (``flow.WINDOW_KIND``), so artifacts made with the earlier Gaussian
    window are refused."""
    payload = json.dumps({
        "dgme": {"grid": GRID, "directional_bins": DIRECTIONAL_BINS,
                 "magnitude_threshold": magnitude_threshold},
        "flow": {"pyramid_levels": flow.PYRAMID_LEVELS, "pyramid_scale": flow.PYRAMID_SCALE,
                 "window": flow.WINDOW_KIND, "window_size": flow.WINDOW_SIZE,
                 "iterations": flow.ITERATIONS,
                 "poly_n": flow.POLY_N, "poly_sigma": flow.POLY_SIGMA},
    }, sort_keys=True, separators=(",", ":"))
    return _sha256_hex(payload.encode())[:12]


def stats_digest(stats: NormStats) -> str:
    """Stable short hash of the statistics' mean and std (their float64
    bytes), which calibrated tables and models record to name the
    statistics that calibrated them."""
    payload = stats.mean.astype("<f8").tobytes() + stats.std.astype("<f8").tobytes()
    return _sha256_hex(payload)[:12]


def grid_cells(height: int, width: int, grid: int) -> list[tuple[int, int, int, int]]:
    """Row-major (y0, y1, x0, x1) cell bounds; the last row/column of
    cells absorbs the division remainder."""
    ch, cw = height // grid, width // grid
    cells = []
    for i in range(grid):
        y0 = i * ch
        y1 = (i + 1) * ch if i < grid - 1 else height
        for j in range(grid):
            x0 = j * cw
            x1 = (j + 1) * cw if j < grid - 1 else width
            cells.append((y0, y1, x0, x1))
    return cells


def descriptor_from_polar(fields: Sequence[PolarFlow], magnitude_threshold: float) -> np.ndarray:
    """Aggregate per-pair polar fields into one normalized descriptor.

    A cell-label map of the frame is built once; each pair then takes one
    magnitude-weighted ``bincount`` over cell * 12 + directional bin for
    its moving pixels and one count of static pixels per cell. A row-major
    pass over the frame meets each cell's pixels in that cell's row-major
    order, so every bin sums the same terms in the same order as the
    per-cell histogram of ``tests/oracles.py`` does.
    """
    if not fields:
        raise DataError("descriptor needs at least one flow field")
    h, w = fields[0].height, fields[0].width
    cells = grid_cells(h, w, GRID)
    labels = np.empty((h, w), dtype=np.int64)
    for k, (y0, y1, x0, x1) in enumerate(cells):
        if not (y0 < y1 and x0 < x1):
            raise ValueError(f"cell {(y0, y1, x0, x1)} outside frame {h}x{w}")
        labels[y0:y1, x0:x1] = k
    labels = labels.ravel()
    n_cells = len(cells)
    acc = np.zeros((n_cells, BINS_PER_CELL), dtype=np.float64)
    for polar in fields:
        if (polar.height, polar.width) != (h, w):
            raise DataError("flow field sizes differ within one clip")
        m = polar.m.astype(np.float64).ravel()
        theta = polar.theta.astype(np.float64).ravel()
        moving = m >= magnitude_threshold
        idx = (theta[moving] // BIN_WIDTH).astype(np.int64) % DIRECTIONAL_BINS
        idx += labels[moving] * DIRECTIONAL_BINS
        acc[:, :DIRECTIONAL_BINS] += np.bincount(
            idx, weights=m[moving], minlength=n_cells * DIRECTIONAL_BINS,
        ).reshape(n_cells, DIRECTIONAL_BINS)
        static = np.bincount(labels[~moving], minlength=n_cells)
        acc[:, DIRECTIONAL_BINS] += magnitude_threshold * static
    vec = acc.ravel()
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec = vec / norm
    return vec


def compute_dgme(seq: FrameSequence, magnitude_threshold: float) -> np.ndarray:
    """Descriptor for one clip from its consecutive sampled frame pairs.
    ``farneback_flow`` refuses frames smaller than its 5 px kernel, so
    every grid cell holds at least one pixel."""
    fields = [
        cart2polar(farneback_flow(seq.frames[t], seq.frames[t + 1]))
        for t in range(seq.frame_count - 1)
    ]
    return descriptor_from_polar(fields, magnitude_threshold)


def fit_stats(matrix: np.ndarray, config_hash: str) -> NormStats:
    """Per-dimension sample mean and population standard deviation of the
    rows of a descriptor matrix."""
    if matrix.shape[0] < 2:
        raise DataError(f"need >= 2 descriptors to fit statistics, have {matrix.shape[0]}")
    return NormStats(
        mean=matrix.mean(axis=0),
        std=matrix.std(axis=0),  # divisor N
        source_count=matrix.shape[0],
        config_hash=config_hash,
    )


def apply_zscore(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Calibrate one descriptor or a matrix of them row-wise:
    (x - mean) / max(std, eps) per dimension."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != stats.mean.shape:
        raise DataError(
            f"descriptor length {x.shape[-1]} does not match stats length {stats.mean.shape[0]}"
        )
    return (x - stats.mean) / np.maximum(stats.std, ZSCORE_EPS)


# ---------------------------------------------------------------------------
# on-disk formats
# ---------------------------------------------------------------------------

def write_features_csv(path, clip_ids: Sequence[str], labels: Sequence[str],
                       matrix: np.ndarray, meta: dict) -> None:
    """Write the features table: ``clip_id,label,f0,...`` with one leading
    metadata comment line. Floats carry 9 significant digits."""
    if not len(clip_ids) == len(labels) == matrix.shape[0]:
        raise ValueError("clip ids, labels and matrix rows must align")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite descriptor for clip {clip_ids[bad[0]]}")
    header = ["clip_id", "label"] + [f"f{i}" for i in range(matrix.shape[1])]
    write_table(path, "features", meta, header,
                ([cid, label] + [FEATURE_FLOAT_FMT % v for v in values]
                 for cid, label, values in zip(clip_ids, labels, matrix)))


def read_features_csv(path):
    """Read a features table; returns (meta, clip_ids, labels, matrix). A
    header with other than ``DESCRIPTOR_LENGTH`` descriptor columns is a
    data error."""
    path = Path(path)
    clip_ids: list[str] = []
    labels: list[str] = []
    rows: list[list[float]] = []

    def parse_row(n, rec):
        if n == 0:
            if rec[:2] != ["clip_id", "label"]:
                raise DataError(f"unexpected features header in {path}: {','.join(rec)!r}")
            if len(rec) - 2 != DESCRIPTOR_LENGTH:
                raise DataError(f"features {path} have {len(rec) - 2} descriptor columns, "
                                f"not {DESCRIPTOR_LENGTH}")
            return
        try:
            rows.append([float(v) for v in rec[2:]])
        except ValueError as exc:
            raise DataError(f"features row {n} ({rec[0]}) in {path}: {exc}") from exc
        clip_ids.append(rec[0])
        labels.append(rec[1])

    meta, _ = read_table(path, "features", parse_row)
    refuse_repeated_ids("features", path, clip_ids)
    matrix = np.array(rows, dtype=np.float64).reshape(-1, DESCRIPTOR_LENGTH)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        k = int(bad[0])
        raise DataError(f"features row {k + 1} ({clip_ids[k]}) in {path} has a non-finite value")
    return meta, clip_ids, labels, matrix


def write_stats_json(path, stats: NormStats, meta: dict) -> None:
    write_json(path, meta, {
        "config_hash": stats.config_hash,
        "count": stats.source_count,
        "mean": stats.mean.tolist(),
        "std": stats.std.tolist(),
    })


def read_stats_json(path) -> NormStats:
    payload = read_json(path, "stats")
    try:
        return NormStats(
            mean=np.array(numbers(payload["mean"]), dtype=np.float64),
            std=np.array(numbers(payload["std"]), dtype=np.float64),
            source_count=integer(payload["count"]),
            config_hash=str(payload["config_hash"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed stats file {path}: {exc}") from exc
