"""Shared bilinear sampling helpers, the Gaussian kernel and the filters.

All resampling in the toolkit goes through these functions so that
frame loading, flow warping, and clip synthesis agree bit-for-bit on
interpolation conventions: half-pixel centers for whole-image resize,
edge clamping for out-of-range coordinates. ``gaussian_kernel`` gives
the Gaussian blur and flow's polynomial applicability their weights.

Sampling and resizing take several equally shaped planes and compute the
neighbour indices and weights once for all of them. A whole-image resize
is separable: its row and column coordinates are computed on 1-D axes and
the four neighbours are gathered by rows, then by columns, with the same
products in the same order as sampling the full coordinate grid, so the
two agree bit for bit.

The filters are scipy's compiled ndimage filters, called without the
``scipy.ndimage`` package around them: its import costs about 0.3 s and
20 MB and pulls in much of scipy, while the one compiled module
``scipy/ndimage/_nd_image`` loads in under a millisecond. This is the
only module that reaches scipy. ``correlate1d``, ``box_mean1d`` and
``gaussian_blur`` give the bytes of ``scipy.ndimage``'s ``correlate1d``,
``uniform_filter1d`` and ``gaussian_filter`` with ``mode="mirror"``
(reflect-101 borders, reflected again and again where a plane is shorter
than the filter), origin 0, on float64 input.
"""

from __future__ import annotations

import functools
import importlib.util
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

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


# scipy's boundary-mode code of "mirror", reflect-101
_MIRROR = 3


@functools.cache
def _nd_image():
    """scipy's compiled ndimage module, loaded from its file once per
    process; finding scipy's install directory does not import it."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    folder = Path(scipy.submodule_search_locations[0]) / "ndimage"
    for suffix in EXTENSION_SUFFIXES:
        path = folder / f"_nd_image{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.ndimage._nd_image", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled ndimage filters (_nd_image) not found in {folder}")


def correlate1d(img: np.ndarray, weights: np.ndarray, axis: int,
                out: np.ndarray) -> np.ndarray:
    """Correlate ``img`` along ``axis`` with the contiguous float64
    ``weights`` into ``out``, which may be ``img`` itself."""
    _nd_image().correlate1d(img, weights, axis, out, _MIRROR, 0.0, 0)
    return out


def box_mean1d(img: np.ndarray, size: int, axis: int, out: np.ndarray) -> np.ndarray:
    """Mean of ``img`` over a ``size`` px box along ``axis``, into ``out``."""
    _nd_image().uniform_filter1d(img, size, axis, out, _MIRROR, 0.0, 0)
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """A blurred copy of the 2-D float64 ``img``. Like ``gaussian_filter``,
    sigma <= 1e-15 does not blur, and the kernel spans ``int(4 * sigma +
    0.5)`` px a side; it is symmetric bit for bit, so correlating with it
    is convolving. Axis 0 goes first, then axis 1 in place."""
    if sigma <= 1e-15:
        return img.copy()
    weights = gaussian_kernel(int(4.0 * sigma + 0.5), sigma)
    out = correlate1d(img, weights, 0, np.empty(img.shape))
    return correlate1d(out, weights, 1, out)
