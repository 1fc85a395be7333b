"""Shared bilinear sampling helpers.

All resampling in the toolkit goes through these functions so that
frame loading, flow warping, and clip synthesis agree bit-for-bit on
interpolation conventions: half-pixel centers for whole-image resize,
edge clamping for out-of-range coordinates.

Each function has a multi-plane form that computes the neighbour indices
and weights once for several equally shaped planes. A whole-image resize
is separable: its row and column coordinates are computed on 1-D axes and
the four neighbours are gathered by rows, then by columns, with the same
products in the same order as sampling the full coordinate grid, so the
two agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def _axis(coords: np.ndarray, n: int):
    """Neighbour indices (i0, i1) and weights (1 - f, f) of coordinates on
    an axis of ``n`` samples; a coordinate out of range clamps to the
    nearest edge sample, and i0 stays at most n - 2 so that the 2-sample
    neighbourhood lies inside the axis."""
    coords = np.clip(coords, 0.0, float(n - 1))
    i0 = np.clip(np.floor(coords).astype(np.int64), 0, max(n - 2, 0))
    f = coords - i0
    return i0, np.minimum(i0 + 1, n - 1), 1.0 - f, f


def sample_bilinear(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample a 2-D float array at continuous (ys, xs) coordinates;
    out-of-range coordinates clamp to the nearest edge sample."""
    return sample_bilinear_planes((plane,), ys, xs)[0]


def sample_bilinear_planes(planes, ys: np.ndarray, xs: np.ndarray) -> list[np.ndarray]:
    """``sample_bilinear`` of each of several equally shaped planes at the
    same coordinates; the neighbour indices and weights are computed once."""
    h, w = planes[0].shape
    y0, y1, gy, fy = _axis(np.asarray(ys, dtype=np.float64), h)
    x0, x1, gx, fx = _axis(np.asarray(xs, dtype=np.float64), w)
    # flat indices of the four neighbours, shared by every plane
    row0 = y0 * w
    row1 = y1 * w
    i00, i01, i10, i11 = row0 + x0, row0 + x1, row1 + x0, row1 + x1

    out = []
    for plane in planes:
        if plane.shape != (h, w):
            raise ValueError(f"planes differ in shape: {plane.shape} vs {(h, w)}")
        flat = plane.ravel()
        # p00*(1-fy)*(1-fx) + p01*(1-fy)*fx + p10*fy*(1-fx) + p11*fy*fx in
        # that order, the later steps in place: the same rounding for any
        # number of planes; the first product promotes to float64
        acc = flat.take(i00) * gy
        acc *= gx
        for idx, wy, wx in ((i01, gy, fx), (i10, fy, gx), (i11, fy, fx)):
            term = flat.take(idx) * wy
            term *= wx
            acc += term
        out.append(acc)
    return out


def resize_bilinear_planes(planes, out_h: int, out_w: int) -> list[np.ndarray]:
    """``resize_bilinear`` of each of several equally shaped planes; the
    row and column indices and weights are computed once."""
    h, w = planes[0].shape
    for plane in planes:
        if plane.shape != (h, w):
            raise ValueError(f"planes differ in shape: {plane.shape} vs {(h, w)}")
    if (h, w) == (out_h, out_w):
        return [plane.copy() for plane in planes]
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0, y1, gy, fy = _axis(ys, h)
    x0, x1, gx, fx = _axis(xs, w)
    gy, fy = gy[:, None], fy[:, None]

    out = []
    for plane in planes:
        rows0, rows1 = plane[y0], plane[y1]
        # the terms, weights and order of sample_bilinear_planes
        acc = rows0[:, x0] * gy
        acc *= gx
        for rows, x, wy, wx in ((rows0, x1, gy, fx), (rows1, x0, fy, gx), (rows1, x1, fy, fx)):
            term = rows[:, x] * wy
            term *= wx
            acc += term
        out.append(acc)
    return out


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a 2-D float array with half-pixel-center bilinear sampling.

    A no-op resize (same shape) reproduces the input exactly.
    """
    return resize_bilinear_planes((img,), out_h, out_w)[0]
