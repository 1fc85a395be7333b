"""SVG renderings of motion descriptors.

Two views: a rose diagram (12 wedges, radius proportional to the summed
directional mass over all grid cells) and a grid map (3x3 cells shaded by
directional mass, one arrow per cell at the circular-mean angle, no arrow
where the static bin dominates). Angles follow image-space conventions:
0 degrees points right, 90 degrees points down, which matches SVG's
y-down coordinate system directly.

Output is plain SVG text with fixed float formatting, so identical
inputs produce identical bytes and golden files diff cleanly.
"""

from __future__ import annotations

import math

import numpy as np

from dgme._meta import format_meta
from dgme.descriptor import BIN_WIDTH, BINS_PER_CELL, DIRECTIONAL_BINS, GRID

# side of the square rose diagram, and of one grid-map cell, in SVG px
ROSE_SIZE = 300
CELL_PX = 90
# radius of the rose's longest wedge and of its outer guide circle
ROSE_RADIUS = ROSE_SIZE * 0.4


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def aggregate_bins(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Sum features over clips and cells; returns (directional[12], static mass)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    cells = matrix.sum(axis=0).reshape(GRID * GRID, BINS_PER_CELL)
    directional = cells[:, :DIRECTIONAL_BINS].sum(axis=0)
    static = float(cells[:, DIRECTIONAL_BINS].sum())
    return directional, static


def rose_geometry(directional: np.ndarray) -> np.ndarray:
    """Wedge radii proportional to per-bin mass, the largest ``ROSE_RADIUS``
    (zero-safe)."""
    directional = np.asarray(directional, dtype=np.float64)
    peak = directional.max()
    if peak <= 0:
        return np.zeros_like(directional)
    return ROSE_RADIUS * directional / peak


def rose_svg(directional: np.ndarray, meta: dict | None = None) -> str:
    """Rose diagram of the 12 directional bins."""
    radii = rose_geometry(directional)
    cx = cy = ROSE_SIZE / 2.0
    bins = len(directional)
    step = 360.0 / bins

    lines = [
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(ROSE_RADIUS * frac)}" '
        'fill="none" stroke="#cccccc" stroke-width="1"/>'
        for frac in (1.0, 2.0 / 3.0, 1.0 / 3.0)
    ]
    for k in range(bins):
        r = radii[k]
        if r <= 0:
            continue
        a0 = math.radians(step * k)
        a1 = math.radians(step * (k + 1))
        x0, y0 = cx + r * math.cos(a0), cy + r * math.sin(a0)
        x1, y1 = cx + r * math.cos(a1), cy + r * math.sin(a1)
        lines.append(
            f'<path d="M {_fmt(cx)} {_fmt(cy)} L {_fmt(x0)} {_fmt(y0)} '
            f'A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(x1)} {_fmt(y1)} Z" '
            f'fill="#2a6fb0" fill-opacity="0.85" stroke="#174a7a" stroke-width="1"/>'
        )
    return _svg_document(ROSE_SIZE, meta, lines)


def grid_arrow_angles(values: np.ndarray) -> list[float | None]:
    """Circular-mean angle per cell, or None where static mass dominates."""
    cells = np.asarray(values, dtype=np.float64).reshape(GRID * GRID, BINS_PER_CELL)
    centers = np.radians((np.arange(DIRECTIONAL_BINS) + 0.5) * BIN_WIDTH)
    angles: list[float | None] = []
    for cell in cells:
        directional = cell[:DIRECTIONAL_BINS]
        static = cell[DIRECTIONAL_BINS]
        total = directional.sum()
        if total <= 0 or static >= total:
            angles.append(None)
            continue
        sx = float((directional * np.cos(centers)).sum())
        sy = float((directional * np.sin(centers)).sum())
        angles.append(math.degrees(math.atan2(sy, sx)) % 360.0)
    return angles


def grid_svg(values: np.ndarray, meta: dict | None = None) -> str:
    """3x3 grid map: shading by directional mass, arrows by mean direction."""
    values = np.asarray(values, dtype=np.float64)
    angles = grid_arrow_angles(values)
    cells = values.reshape(GRID * GRID, BINS_PER_CELL)
    dir_mass = cells[:, :DIRECTIONAL_BINS].sum(axis=1)
    peak = dir_mass.max()

    lines = []
    for k in range(GRID * GRID):
        i, j = divmod(k, GRID)
        x, y = j * CELL_PX, i * CELL_PX
        if dir_mass[k] > 0 and peak > 0:
            shade = int(round(255 - 200 * dir_mass[k] / peak))  # darker = more motion
            fill = f'fill="rgb({shade},{shade},{shade})"'
        else:
            fill = 'fill="none"'
        lines.append(
            f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" '
            f'{fill} stroke="#444444" stroke-width="1"/>'
        )
        angle = angles[k]
        if angle is None:
            continue
        ccx, ccy = x + CELL_PX / 2.0, y + CELL_PX / 2.0
        rad = math.radians(angle)
        length = CELL_PX * 0.32
        dx, dy = length * math.cos(rad), length * math.sin(rad)
        tipx, tipy, tailx, taily = ccx + dx, ccy + dy, ccx - dx, ccy - dy
        head = CELL_PX * 0.10
        left = rad + math.radians(150.0)
        right = rad - math.radians(150.0)
        lines.append(
            f'<line x1="{_fmt(tailx)}" y1="{_fmt(taily)}" x2="{_fmt(tipx)}" y2="{_fmt(tipy)}" '
            'stroke="#b03030" stroke-width="3"/>'
        )
        lines.append(
            f'<polygon points="{_fmt(tipx)},{_fmt(tipy)} '
            f'{_fmt(tipx + head * math.cos(left))},{_fmt(tipy + head * math.sin(left))} '
            f'{_fmt(tipx + head * math.cos(right))},{_fmt(tipy + head * math.sin(right))}" '
            'fill="#b03030"/>'
        )
    return _svg_document(GRID * CELL_PX, meta, lines)


def _svg_document(side: int, meta: dict | None, body: list[str]) -> str:
    """A square SVG of ``side`` px: the XML declaration, the ``dgme-viz``
    metadata comment unless ``meta`` is empty, a white background, then the
    ``body`` elements, one per line."""
    comment = [f"<!-- {format_meta('viz', meta)} -->"] if meta else []
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        *comment,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">',
        f'<rect width="{side}" height="{side}" fill="white"/>',
        *body,
        "</svg>",
    ]) + "\n"
