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

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from dgme._meta import format_meta, parse_meta, read_json, write_json
from dgme.errors import DataError, NumericError
from dgme.flow import FarnebackConfig, PolarFlow, cart2polar, farneback_flow
from dgme.videoio import FrameSequence

# z-score denominator floor for zero-variance dimensions
ZSCORE_EPS = 1e-8

FEATURE_FLOAT_FMT = "%.9g"


@dataclass
class DgmeConfig:
    grid: int = 3
    directional_bins: int = 12
    magnitude_threshold: float = 0.5

    def __post_init__(self):
        if self.grid < 1:
            raise ValueError("grid must be >= 1")
        if self.directional_bins < 2 or 360 % self.directional_bins != 0:
            raise ValueError("directional_bins must be >= 2 and divide 360 evenly")
        if self.magnitude_threshold < 0:
            raise ValueError("magnitude_threshold must be >= 0")

    @property
    def bins_per_cell(self) -> int:
        return self.directional_bins + 1

    @property
    def length(self) -> int:
        return self.grid * self.grid * self.bins_per_cell

    @property
    def bin_width(self) -> float:
        return 360.0 / self.directional_bins


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


def config_hash(cfg: DgmeConfig, flow_cfg: FarnebackConfig) -> str:
    """Stable short hash binding features to the config that produced them."""
    payload = json.dumps(
        {"dgme": asdict(cfg), "flow": asdict(flow_cfg)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


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


def cell_histogram(polar: PolarFlow, cell: tuple[int, int, int, int],
                   cfg: DgmeConfig) -> np.ndarray:
    """Un-normalized 13-bin histogram for one grid cell.

    Pixels at or above the magnitude threshold add their magnitude to
    directional bin floor(theta / 30) mod 12 (so 360 wraps to bin 0);
    pixels below threshold add the threshold value to the static bin.
    """
    y0, y1, x0, x1 = cell
    if not (0 <= y0 < y1 <= polar.height and 0 <= x0 < x1 <= polar.width):
        raise ValueError(f"cell {cell} outside frame {polar.height}x{polar.width}")
    m = polar.m[y0:y1, x0:x1].astype(np.float64).ravel()
    theta = polar.theta[y0:y1, x0:x1].astype(np.float64).ravel()
    moving = m >= cfg.magnitude_threshold
    idx = (theta[moving] // cfg.bin_width).astype(np.int64) % cfg.directional_bins
    hist = np.zeros(cfg.bins_per_cell, dtype=np.float64)
    hist[: cfg.directional_bins] = np.bincount(
        idx, weights=m[moving], minlength=cfg.directional_bins
    )
    hist[cfg.directional_bins] = cfg.magnitude_threshold * float((~moving).sum())
    return hist


def descriptor_from_polar(fields: Sequence[PolarFlow], cfg: DgmeConfig) -> np.ndarray:
    """Aggregate per-pair polar fields into one normalized descriptor."""
    if not fields:
        raise DataError("descriptor needs at least one flow field")
    h, w = fields[0].height, fields[0].width
    cells = grid_cells(h, w, cfg.grid)
    acc = np.zeros((len(cells), cfg.bins_per_cell), dtype=np.float64)
    for polar in fields:
        if (polar.height, polar.width) != (h, w):
            raise DataError("flow field sizes differ within one clip")
        for k, cell in enumerate(cells):
            acc[k] += cell_histogram(polar, cell, cfg)
    vec = acc.ravel()
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec = vec / norm
    return vec


def compute_dgme(seq: FrameSequence, cfg: DgmeConfig,
                 flow_cfg: FarnebackConfig | None = None) -> np.ndarray:
    """Descriptor for one clip from its consecutive sampled frame pairs."""
    flow_cfg = flow_cfg or FarnebackConfig()
    if min(seq.height, seq.width) < cfg.grid:
        raise DataError(f"frame {seq.height}x{seq.width} smaller than {cfg.grid}x{cfg.grid} grid")
    fields = [
        cart2polar(farneback_flow(seq.frames[t], seq.frames[t + 1], flow_cfg))
        for t in range(seq.frame_count - 1)
    ]
    return descriptor_from_polar(fields, cfg)


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
    with open(Path(path), "w", newline="\n") as fh:
        fh.write(f"# {format_meta('features', meta)}\n")
        header = ["clip_id", "label"] + [f"f{i}" for i in range(matrix.shape[1])]
        fh.write(",".join(header) + "\n")
        for cid, label, values in zip(clip_ids, labels, matrix):
            row = [cid, label] + [FEATURE_FLOAT_FMT % v for v in values]
            fh.write(",".join(row) + "\n")


def read_features_csv(path):
    """Read a features table; returns (meta, clip_ids, labels, matrix)."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"features file not found: {path}")
    meta: dict = {}
    clip_ids: list[str] = []
    labels: list[str] = []
    rows: list[list[float]] = []
    first_row: dict[str, int] = {}
    with open(path, newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            meta = parse_meta(first)
            header = fh.readline()
        else:
            header = first
        cols = header.strip().split(",")
        if cols[:2] != ["clip_id", "label"]:
            raise DataError(f"unexpected features header in {path}: {header.strip()!r}")
        for rec in csv.reader(fh):
            if not rec:
                continue
            row = len(clip_ids) + 1
            if len(rec) != len(cols):
                raise DataError(
                    f"features row {row} in {path} has {len(rec)} cells, header has {len(cols)}"
                )
            try:
                rows.append([float(v) for v in rec[2:]])
            except ValueError as exc:
                raise DataError(f"features row {row} ({rec[0]}) in {path}: {exc}") from exc
            if rec[0] in first_row:
                raise DataError(f"features row {row} ({rec[0]}) repeats the clip id of row "
                                f"{first_row[rec[0]]} in {path}")
            first_row[rec[0]] = row
            clip_ids.append(rec[0])
            labels.append(rec[1])
    matrix = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(cols) - 2))
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


def read_stats_json(path) -> tuple[NormStats, dict]:
    payload = read_json(path, "stats")
    try:
        stats = NormStats(
            mean=np.array(payload["mean"], dtype=np.float64),
            std=np.array(payload["std"], dtype=np.float64),
            source_count=int(payload["count"]),
            config_hash=str(payload["config_hash"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed stats file {path}: {exc}") from exc
    if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()):
        raise DataError(f"stats file {path} holds a non-finite mean or std")
    meta = {k: v for k, v in payload.items() if k not in ("mean", "std", "count", "config_hash")}
    return stats, meta
