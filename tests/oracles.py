"""Independent reference implementations the tests compare the package against."""

import math

import numpy as np

from dgme.descriptor import BIN_WIDTH, BINS_PER_CELL, DIRECTIONAL_BINS, descriptor_from_polar
from dgme.errors import DataError
from dgme.flow import FlowField, PolarFlow, cart2polar


def block_match_flow(prev: np.ndarray, nxt: np.ndarray,
                     block: int = 8, search_radius: int = 7) -> FlowField:
    """Brute-force integer block matching (test oracle).

    Each ``block`` x ``block`` tile of ``prev`` is matched against
    ``nxt`` over all displacements within ``search_radius``, minimizing
    the sum of absolute differences. Ties break toward the smallest
    displacement norm, then lexicographic (dy, dx). The per-block result
    is replicated to pixel resolution; remainder rows/columns copy their
    neighboring block. Out-of-frame comparisons use edge-replicated
    padding.
    """
    if block < 1 or search_radius < 1:
        raise ValueError("block and search_radius must be positive")
    prev = np.asarray(prev)
    nxt = np.asarray(nxt)
    if prev.shape != nxt.shape:
        raise DataError(f"frame size mismatch: {prev.shape} vs {nxt.shape}")
    h, w = prev.shape
    if min(h, w) < block:
        raise DataError(f"frame {prev.shape} smaller than block size {block}")

    r = search_radius
    p = prev.astype(np.int64)
    padded = np.pad(nxt.astype(np.int64), r, mode="edge")
    nby, nbx = h // block, w // block
    ph, pw = nby * block, nbx * block

    candidates = sorted(
        ((dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]),
    )
    best = np.full((nby, nbx), np.iinfo(np.int64).max, dtype=np.int64)
    best_dy = np.zeros((nby, nbx), dtype=np.int64)
    best_dx = np.zeros((nby, nbx), dtype=np.int64)
    ref = p[:ph, :pw]
    for dy, dx in candidates:
        shifted = padded[r + dy : r + dy + ph, r + dx : r + dx + pw]
        sad = np.abs(ref - shifted).reshape(nby, block, nbx, block).sum(axis=(1, 3))
        # strict < keeps the earliest candidate in tie-break order
        upd = sad < best
        best[upd] = sad[upd]
        best_dy[upd] = dy
        best_dx[upd] = dx

    u = np.zeros((h, w), dtype=np.float64)
    v = np.zeros((h, w), dtype=np.float64)
    u[:ph, :pw] = np.repeat(np.repeat(best_dx, block, 0), block, 1)
    v[:ph, :pw] = np.repeat(np.repeat(best_dy, block, 0), block, 1)
    if ph < h:
        u[ph:, :] = u[ph - 1 : ph, :]
        v[ph:, :] = v[ph - 1 : ph, :]
    if pw < w:
        u[:, pw:] = u[:, pw - 1 : pw]
        v[:, pw:] = v[:, pw - 1 : pw]
    return FlowField(u, v)


def block_match_descriptor(seq, magnitude_threshold, block: int = 8, search_radius: int = 7):
    """Clip descriptor with ``block_match_flow`` in place of the dense estimator."""
    fields = [
        cart2polar(block_match_flow(seq.frames[t], seq.frames[t + 1], block, search_radius))
        for t in range(seq.frame_count - 1)
    ]
    return descriptor_from_polar(fields, magnitude_threshold)


def sample_bilinear_2d(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Bilinear sampling of one plane by 2-D fancy indexing, each call
    computing its own neighbour indices and weights (the reference the
    shared-index sampler must match bit for bit)."""
    h, w = plane.shape
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, float(h - 1))
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, float(w - 1))
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, max(h - 2, 0))
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, max(w - 2, 0))
    fy = ys - y0
    fx = xs - x0
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    return (plane[y0, x0] * (1.0 - fy) * (1.0 - fx)
            + plane[y0, x1] * (1.0 - fy) * fx
            + plane[y1, x0] * fy * (1.0 - fx)
            + plane[y1, x1] * fy * fx)


def resize_bilinear_grid(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize that samples full (out_h, out_w)
    coordinate grids (the reference the separable resize must match bit
    for bit); a same-shape resize returns a copy."""
    h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    grid_y = np.repeat(ys[:, None], out_w, axis=1)
    grid_x = np.repeat(xs[None, :], out_h, axis=0)
    return sample_bilinear_2d(img, grid_y, grid_x)


def _reflect101(i: int, n: int) -> int:
    """Index ``i`` on an axis of ``n`` samples, reflected about the edge
    sample without repeating it (reflect-101: -1 -> 1, n -> n - 2), as many
    times as an axis shorter than the reach needs; a 1-sample axis has
    only index 0."""
    if n == 1:
        return 0
    period = 2 * (n - 1)
    i = abs(i) % period
    return period - i if i >= n else i


def _neighbourhood(plane: np.ndarray, y: int, x: int, half: int) -> np.ndarray:
    """The (2 * half + 1) square of ``plane`` centred on (y, x), with
    reflect-101 indices; rows are dy = -half..half, columns dx likewise."""
    h, w = plane.shape[-2:]
    rows = [_reflect101(y + dy, h) for dy in range(-half, half + 1)]
    cols = [_reflect101(x + dx, w) for dx in range(-half, half + 1)]
    return plane[..., rows, :][..., cols]


def box_mean_reflect101(planes: np.ndarray, size: int) -> np.ndarray:
    """Mean of each plane of a (k, h, w) stack over the ``size`` x ``size``
    box centred on every pixel, read pixel by pixel, over a reflect-101
    padded neighbourhood."""
    planes = np.asarray(planes, dtype=np.float64)
    _, h, w = planes.shape
    out = np.empty_like(planes)
    for y in range(h):
        for x in range(w):
            out[:, y, x] = _neighbourhood(planes, y, x, size // 2).sum(axis=(1, 2)) / (size * size)
    return out


def bilinear_at(plane: np.ndarray, y: float, x: float) -> float:
    """``plane`` at the continuous point (y, x), as four explicit neighbour
    terms: the point clamps to the plane, the top-left neighbour (y0, x0)
    stays at most one sample from the far edge, and a 1-sample axis reads
    its one sample twice."""
    h, w = plane.shape
    y, x = min(max(y, 0.0), h - 1.0), min(max(x, 0.0), w - 1.0)
    y0, x0 = min(math.floor(y), max(h - 2, 0)), min(math.floor(x), max(w - 2, 0))
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    fy, fx = y - y0, x - x0
    return (plane[y0, x0] * (1.0 - fy) * (1.0 - fx) + plane[y0, x1] * (1.0 - fy) * fx
            + plane[y1, x0] * fy * (1.0 - fx) + plane[y1, x1] * fy * fx)


def gaussian_blur_reflect101(img: np.ndarray, sigma: float) -> np.ndarray:
    """``scipy.ndimage.gaussian_filter(img, sigma, mode="mirror")`` read
    pixel by pixel: the weights exp(-d^2 / (2 sigma^2)) of the 2-D offsets d
    within ``int(4 sigma + 0.5)`` px on each axis, over the reflect-101
    padded neighbourhood, divided by their sum."""
    img = np.asarray(img, dtype=np.float64)
    radius = int(4.0 * sigma + 0.5)
    taps = np.exp(-0.5 * np.arange(-radius, radius + 1) ** 2 / (sigma * sigma))
    weights = np.outer(taps, taps) / taps.sum() ** 2
    out = np.empty(img.shape)
    for y, x in np.ndindex(img.shape):
        out[y, x] = (weights * _neighbourhood(img, y, x, radius)).sum()
    return out


def pyramid_reference(img: np.ndarray, levels: int, scale: float, min_side: int) -> list:
    """The images of a coarse-to-fine pyramid, finest first: level k > 0
    blurs the original image with sigma (1 / scale^k - 1) / 2 and resizes it
    to round(scale^k) of each side with half-pixel centres; the pyramid
    stops before a level with a side under ``min_side``."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    pyramid = [img]
    for level in range(1, levels):
        hh, ww = round(h * scale ** level), round(w * scale ** level)
        if min(hh, ww) < min_side:
            break
        blurred = gaussian_blur_reflect101(img, (1.0 / scale ** level - 1.0) / 2.0)
        out = np.empty((hh, ww))
        for i, j in np.ndindex(out.shape):
            out[i, j] = bilinear_at(blurred, (i + 0.5) * h / hh - 0.5, (j + 0.5) * w / ww - 0.5)
        pyramid.append(out)
    return pyramid


def flow_iteration_reference(exp1, exp2, u: np.ndarray, v: np.ndarray, window: int,
                             det_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-point update of Farneback's displacement, pixel by pixel.

    ``exp1`` and ``exp2`` are the expansions (a11, a22, a12, bx, by) of the
    two images. The second is sampled at x + d0 (d0 = (u, v)) by
    ``bilinear_at``; with A the mean of the two 2x2 quadratic forms and
    db = -(b2 - b1) / 2 + A d0, each pixel's normal equations A^T A d =
    A^T db are averaged over the ``window`` px reflect-101 box and solved
    by Cramer's rule, ``det_eps`` added to the determinant. Returns the
    new (u, v)."""
    h, w = u.shape
    normal = np.empty((5, h, w))  # g11, g12, g22, h1, h2
    for y, x in np.ndindex(h, w):
        a11_2, a22_2, a12_2, bx2, by2 = (bilinear_at(p, y + v[y, x], x + u[y, x]) for p in exp2)
        a11_1, a22_1, a12_1, bx1, by1 = (p[y, x] for p in exp1)
        a = 0.5 * np.array([[a11_1 + a11_2, a12_1 + a12_2], [a12_1 + a12_2, a22_1 + a22_2]])
        db = -0.5 * np.array([bx2 - bx1, by2 - by1]) + a @ np.array([u[y, x], v[y, x]])
        g, rhs = a.T @ a, a.T @ db
        normal[:, y, x] = g[0, 0], g[0, 1], g[1, 1], rhs[0], rhs[1]
    g11, g12, g22, h1, h2 = box_mean_reflect101(normal, window)
    det = g11 * g22 - g12 * g12 + det_eps
    return (g22 * h1 - g12 * h2) / det, (g11 * h2 - g12 * h1) / det


def poly_expand_wls(img: np.ndarray, n: int, sigma: float) -> tuple:
    """Farneback's polynomial expansion as he states it (2003, "Two-Frame
    Motion Estimation Based on Polynomial Expansion"): at every pixel, the
    weighted least-squares fit of f(dx, dy) ~ c + bx dx + by dy + axx dx^2
    + ayy dy^2 + axy dx dy over the n x n reflect-101 padded neighbourhood,
    under the separable Gaussian applicability exp(-d^2 / (2 sigma^2)) of
    each axis, solved pixel by pixel with ``np.linalg.solve``. dx counts
    columns and dy rows. Returns (axx, ayy, axy / 2, bx, by), the planes of
    ``flow._poly_expand``."""
    img = np.asarray(img, dtype=np.float64)
    half = n // 2
    dy, dx = (d.ravel() for d in np.mgrid[-half:half + 1, -half:half + 1].astype(np.float64))
    basis = np.stack([np.ones_like(dx), dx, dy, dx * dx, dy * dy, dx * dy], axis=1)
    weight = np.exp(-(dx * dx + dy * dy) / (2.0 * sigma * sigma))
    weighted = basis.T * weight
    coefficients = np.empty(img.shape + (6,))
    for y, x in np.ndindex(img.shape):
        f = _neighbourhood(img, y, x, half).ravel()
        coefficients[y, x] = np.linalg.solve(weighted @ basis, weighted @ f)
    _, bx, by, axx, ayy, axy = np.moveaxis(coefficients, -1, 0)
    return axx, ayy, axy / 2.0, bx, by


def cart2polar_per_pixel(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude and angle in degrees of each (u, v), one pixel at a time
    with ``math``: the angle of atan2(v, u) in [0, 360), and 0 where the
    magnitude is 0."""
    m = np.empty(np.shape(u))
    theta = np.empty(np.shape(u))
    for idx in np.ndindex(m.shape):
        du, dv = float(u[idx]), float(v[idx])
        m[idx] = math.hypot(du, dv)
        theta[idx] = math.degrees(math.atan2(dv, du)) % 360.0 if m[idx] else 0.0
    return m, theta


def cell_histogram(polar: PolarFlow, cell: tuple[int, int, int, int],
                   magnitude_threshold: float) -> np.ndarray:
    """Un-normalized 13-bin histogram for one grid cell, read cell by cell
    (the reference the one-pass ``descriptor_from_polar`` must match).

    Pixels at or above the magnitude threshold add their magnitude to
    directional bin floor(theta / 30) mod 12 (so 360 wraps to bin 0);
    pixels below threshold add the threshold value to the static bin.
    """
    y0, y1, x0, x1 = cell
    if not (0 <= y0 < y1 <= polar.height and 0 <= x0 < x1 <= polar.width):
        raise ValueError(f"cell {cell} outside frame {polar.height}x{polar.width}")
    m = polar.m[y0:y1, x0:x1].astype(np.float64).ravel()
    theta = polar.theta[y0:y1, x0:x1].astype(np.float64).ravel()
    moving = m >= magnitude_threshold
    idx = (theta[moving] // BIN_WIDTH).astype(np.int64) % DIRECTIONAL_BINS
    hist = np.zeros(BINS_PER_CELL, dtype=np.float64)
    hist[:DIRECTIONAL_BINS] = np.bincount(idx, weights=m[moving], minlength=DIRECTIONAL_BINS)
    hist[DIRECTIONAL_BINS] = magnitude_threshold * float((~moving).sum())
    return hist
