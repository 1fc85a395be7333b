"""Shared bilinear sampling helpers and the Gaussian kernel.

All resampling in the toolkit goes through these functions so that
frame loading, flow warping, and clip synthesis agree bit-for-bit on
interpolation conventions: half-pixel centers for whole-image resize,
edge clamping for out-of-range coordinates. ``gaussian_kernel`` gives
synth's blur and flow's polynomial applicability their weights.

Sampling and resizing take several equally shaped planes and compute the
neighbour indices and weights once for all of them. A whole-image resize
is separable: its row and column coordinates are computed on 1-D axes and
the four neighbours are gathered by rows, then by columns, with the same
products in the same order as sampling the full coordinate grid, so the
two agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def _axis(coords: np.ndarray, n: int, f=None, i0=None, g=None):
    """Floors ``i0`` and weights ``(g, f) = (1 - f, f)`` of coordinates on
    an axis of ``n`` samples, all float64; a coordinate out of range clamps
    to the nearest edge sample, and i0 stays at most n - 2 so that the
    2-sample neighbourhood (i0, i0 + 1) lies inside the axis, or is (0, 0)
    on a 1-sample axis. Each result is written into its buffer when one is
    given; ``f`` may be ``coords`` itself."""
    f = np.clip(coords, 0.0, float(n - 1), out=f)
    i0 = np.floor(f, out=i0)
    np.minimum(i0, max(n - 2, 0), out=i0)
    f -= i0
    return i0, np.subtract(1.0, f, out=g), f


def _plane_shape(planes) -> tuple[int, ...]:
    """The shape that all ``planes`` share; a ValueError if they differ."""
    shape = planes[0].shape
    for plane in planes:
        if plane.shape != shape:
            raise ValueError(f"planes differ in shape: {plane.shape} vs {shape}")
    return shape


def sample_bilinear_planes(planes, ys: np.ndarray, xs: np.ndarray,
                           out=None, work=None, index=None):
    """Sample each of several equally shaped 2-D planes at the same
    continuous (ys, xs) coordinates; out-of-range coordinates clamp to the
    nearest edge sample, and the neighbour indices and weights are
    computed once.

    The samples take the shape of the coordinates. The caller may pass
    every buffer of that shape, and then nothing of that size is
    allocated: ``out`` receives one float64 sample plane per input plane,
    ``work`` is a (6, ...) float64 scratch whose first two planes may hold
    ``ys`` and ``xs`` (they are overwritten), and ``index`` is an int64
    plane. A buffer not given is allocated.

    One plane of flat top-left indices serves all four neighbours: the
    other three are read through the offset views ``flat[dx:]``,
    ``flat[dy:]`` and ``flat[dy + dx:]`` of each plane. The gathers are
    ``take(..., mode="clip", out=...)``: the clamped indices are in range,
    so the clip changes none, and unlike the default ``mode="raise"``,
    which always copies through a buffer when given ``out``, it writes
    straight into ``out``.
    """
    h, w = _plane_shape(planes)
    shape = np.broadcast_shapes(np.shape(ys), np.shape(xs))
    if out is None:
        out = np.empty((len(planes),) + shape)
    if work is None:
        work = np.empty((6,) + shape)
    if index is None:
        index = np.empty(shape, dtype=np.int64)
    fy, fx, gy, gx, y0, x0 = work
    _axis(np.asarray(ys, dtype=np.float64), h, fy, y0, gy)
    _axis(np.asarray(xs, dtype=np.float64), w, fx, x0, gx)
    # y0 * w + x0 is exact in float64 for any plane that fits in memory
    y0 *= w
    y0 += x0
    index[...] = y0
    term = y0
    dx = 1 if w > 1 else 0
    dy = w if h > 1 else 0

    for plane, acc in zip(planes, out):
        # an integer or float32 plane converts exactly, as the first
        # product used to promote it
        flat = np.asarray(plane, dtype=np.float64).ravel()
        # p00*(1-fy)*(1-fx) + p01*(1-fy)*fx + p10*fy*(1-fx) + p11*fy*fx in
        # that order, each step in place: the same rounding for any number
        # of planes and with or without caller buffers
        flat.take(index, out=acc, mode="clip")
        acc *= gy
        acc *= gx
        for offset, wy, wx in ((dx, gy, fx), (dy, fy, gx), (dy + dx, fy, fx)):
            flat[offset:].take(index, out=term, mode="clip")
            term *= wy
            term *= wx
            acc += term
    return out


def resize_bilinear_planes(planes, out_h: int, out_w: int) -> list[np.ndarray]:
    """``resize_bilinear`` of each of several equally shaped planes; the
    row and column indices and weights are computed once."""
    h, w = _plane_shape(planes)
    if (h, w) == (out_h, out_w):
        return [plane.copy() for plane in planes]
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0, gy, fy = _axis(ys, h)
    x0, gx, fx = _axis(xs, w)
    y0, x0 = y0.astype(np.intp), x0.astype(np.intp)
    y1, x1 = y0 + (h > 1), x0 + (w > 1)
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


def gaussian_kernel(radius: int, sigma: float) -> np.ndarray:
    """scipy's Gaussian weights: ``exp(-0.5 / sigma**2 * x**2)`` over the
    integers x in [-radius, radius], divided by their sum."""
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    return weights / weights.sum()
