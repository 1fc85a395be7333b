"""Shared bilinear sampling helpers.

All resampling in the toolkit goes through these two functions so that
frame loading, flow warping, and clip synthesis agree bit-for-bit on
interpolation conventions: half-pixel centers for whole-image resize,
edge clamping or mirror reflection (no edge duplication) for out-of-range
coordinates.
"""

from __future__ import annotations

import numpy as np


def _reflect_coords(coords: np.ndarray, n: int) -> np.ndarray:
    """Map arbitrary continuous coordinates into [0, n-1] by mirroring.

    Reflection is about the outermost sample centers, so the edge sample
    is not duplicated (coordinate -0.5 maps to 0.5, not 0.0).
    """
    if n == 1:
        return np.zeros_like(coords)
    period = 2.0 * (n - 1)
    c = np.mod(coords, period)
    return np.where(c > n - 1, period - c, c)


def sample_bilinear(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                    border: str = "clamp") -> np.ndarray:
    """Sample a 2-D float array at continuous (ys, xs) coordinates.

    border:
      "clamp"   out-of-range coordinates clamp to the nearest edge sample
      "reflect" coordinates mirror back into the image (no edge repeat)
    """
    return sample_bilinear_planes((plane,), ys, xs, border)[0]


def sample_bilinear_planes(planes, ys: np.ndarray, xs: np.ndarray,
                           border: str = "clamp") -> list[np.ndarray]:
    """``sample_bilinear`` of each of several equally shaped planes at the
    same coordinates; the neighbour indices and weights are computed once."""
    h, w = planes[0].shape
    ys = np.asarray(ys, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if border == "reflect":
        ys = _reflect_coords(ys, h)
        xs = _reflect_coords(xs, w)
    elif border == "clamp":
        ys = np.clip(ys, 0.0, float(h - 1))
        xs = np.clip(xs, 0.0, float(w - 1))
    else:
        raise ValueError(f"unknown border mode {border!r}")

    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    # keep the 2x2 neighborhood inside the image
    y0 = np.clip(y0, 0, max(h - 2, 0))
    x0 = np.clip(x0, 0, max(w - 2, 0))
    fy = ys - y0
    fx = xs - x0
    gy = 1.0 - fy
    gx = 1.0 - fx
    # flat indices of the four neighbours, shared by every plane
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    x1 = np.minimum(x0 + 1, w - 1)
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


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize a 2-D float array with half-pixel-center bilinear sampling.

    A no-op resize (same shape) reproduces the input exactly.
    """
    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    grid_y = np.repeat(ys[:, None], out_w, axis=1)
    grid_x = np.repeat(xs[None, :], out_h, axis=0)
    return sample_bilinear(img, grid_y, grid_x, border="clamp")
