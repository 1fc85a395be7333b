"""Dense optical flow estimation and polar conversion.

``farneback_flow`` estimates dense sub-pixel flow via local quadratic
polynomial expansion. Each image is fitted per pixel as
f(x) ~ x'Ax + b'x + c over a Gaussian-weighted neighborhood; for a
translation d the linear coefficients satisfy b2 = b1 - 2*A*d, so d is
recovered from expansion-coefficient differences, made robust by
Gaussian-weighted neighborhood averaging of the normal equations, and
wrapped in a coarse-to-fine pyramid with fixed-point iterations per level.

All internal math is 64-bit; stored fields are 32-bit floats. The
estimator is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from dgme._resample import resize_bilinear, sample_bilinear
from dgme.errors import DataError

# regularizer added to the 2x2 determinant; keeps flat regions at exactly
# zero flow instead of amplifying numerical noise
_DET_EPS = 1e-3


@dataclass
class FlowField:
    """Per-pixel displacement: u positive rightward, v positive downward."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float32)
        self.v = np.asarray(self.v, dtype=np.float32)
        if self.u.shape != self.v.shape or self.u.ndim != 2:
            raise ValueError(f"u/v must be matching 2-D arrays, got {self.u.shape} vs {self.v.shape}")
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise ValueError("flow fields must be finite")


@dataclass
class PolarFlow:
    """Magnitude (pixels) and angle (degrees in [0, 360)); angle 0 where m = 0."""

    m: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=np.float32)
        self.theta = np.asarray(self.theta, dtype=np.float32)
        if self.m.shape != self.theta.shape or self.m.ndim != 2:
            raise ValueError("m/theta must be matching 2-D arrays")

    @property
    def height(self) -> int:
        return self.m.shape[0]

    @property
    def width(self) -> int:
        return self.m.shape[1]


@dataclass
class FarnebackConfig:
    pyramid_levels: int = 3
    pyramid_scale: float = 0.5
    window_size: int = 15
    iterations: int = 3
    poly_n: int = 5
    poly_sigma: float = 1.1

    def __post_init__(self):
        if not (0.0 < self.pyramid_scale < 1.0):
            raise ValueError("pyramid_scale must be in (0, 1)")
        if self.pyramid_levels < 1 or self.iterations < 1:
            raise ValueError("pyramid_levels and iterations must be >= 1")
        for name in ("window_size", "poly_n"):
            v = getattr(self, name)
            if v < 3 or v % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 3")
        if self.poly_sigma <= 0:
            raise ValueError("poly_sigma must be positive")


def _gaussian_kernel(half: int, sigma: float) -> np.ndarray:
    x = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        return img
    half = max(1, int(round(4.0 * sigma)))
    g = _gaussian_kernel(half, sigma)
    out = correlate1d(img, g, axis=0, mode="mirror")
    return correlate1d(out, g, axis=1, mode="mirror")


def _poly_expand(img: np.ndarray, n: int, sigma: float):
    """Per-pixel quadratic fit coefficients.

    Fits f(dx, dy) ~ c + bx*dx + by*dy + axx*dx^2 + ayy*dy^2 + axy*dx*dy
    around every pixel under a separable Gaussian applicability, via six
    separable correlations. Returns (a11, a22, a12, bx, by) where the
    quadratic form matrix is A = [[a11, a12], [a12, a22]] (a12 = axy/2).
    """
    half = n // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    g = _gaussian_kernel(half, sigma)
    xg = x * g
    xxg = x * x * g
    s2 = float((x * x * g).sum())
    s4 = float((x ** 4 * g).sum())

    t0 = correlate1d(img, g, axis=0, mode="mirror")
    t1 = correlate1d(img, xg, axis=0, mode="mirror")
    t2 = correlate1d(img, xxg, axis=0, mode="mirror")
    v1 = correlate1d(t0, g, axis=1, mode="mirror")
    vx = correlate1d(t0, xg, axis=1, mode="mirror")
    vxx = correlate1d(t0, xxg, axis=1, mode="mirror")
    vy = correlate1d(t1, g, axis=1, mode="mirror")
    vxy = correlate1d(t1, xg, axis=1, mode="mirror")
    vyy = correlate1d(t2, g, axis=1, mode="mirror")

    # normal equations decouple: the only coupled block is (c, axx, ayy)
    bx = vx / s2
    by = vy / s2
    denom = s4 - s2 * s2
    a11 = (vxx - s2 * v1) / denom
    a22 = (vyy - s2 * v1) / denom
    a12 = 0.5 * (vxy / (s2 * s2))
    return a11, a22, a12, bx, by


def _flow_iteration(exp1, exp2, u, v, window_size: int):
    """One fixed-point update of the displacement field.

    Warps the second image's expansion coefficients to x + d0, forms the
    per-pixel normal equations G*d = h from averaged coefficients, blurs
    both sides with a Gaussian window, and solves the 2x2 system.
    """
    a11_1, a22_1, a12_1, bx1, by1 = exp1
    h, w = u.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    fy = yy + v
    fx = xx + u

    a11_2 = sample_bilinear(exp2[0], fy, fx)
    a22_2 = sample_bilinear(exp2[1], fy, fx)
    a12_2 = sample_bilinear(exp2[2], fy, fx)
    bx2 = sample_bilinear(exp2[3], fy, fx)
    by2 = sample_bilinear(exp2[4], fy, fx)

    a11 = 0.5 * (a11_1 + a11_2)
    a22 = 0.5 * (a22_1 + a22_2)
    a12 = 0.5 * (a12_1 + a12_2)
    # db = -(b2 - b1)/2 + A d0 makes the solve return total displacement
    db1 = -0.5 * (bx2 - bx1) + a11 * u + a12 * v
    db2 = -0.5 * (by2 - by1) + a12 * u + a22 * v

    g11 = a11 * a11 + a12 * a12
    g12 = a12 * (a11 + a22)
    g22 = a22 * a22 + a12 * a12
    h1 = a11 * db1 + a12 * db2
    h2 = a12 * db1 + a22 * db2

    half = window_size // 2
    win = _gaussian_kernel(half, max(0.3 * half, 0.5))
    planes = np.stack([g11, g12, g22, h1, h2])
    planes = correlate1d(planes, win, axis=1, mode="mirror")
    planes = correlate1d(planes, win, axis=2, mode="mirror")
    g11, g12, g22, h1, h2 = planes

    det = g11 * g22 - g12 * g12 + _DET_EPS
    u_new = (g22 * h1 - g12 * h2) / det
    v_new = (g11 * h2 - g12 * h1) / det
    return u_new, v_new


def _pyramid_sizes(h: int, w: int, cfg: FarnebackConfig) -> list[tuple[int, int]]:
    sizes = [(h, w)]
    for level in range(1, cfg.pyramid_levels):
        s = cfg.pyramid_scale ** level
        hh, ww = int(round(h * s)), int(round(w * s))
        if min(hh, ww) < cfg.poly_n + 2:
            break
        sizes.append((hh, ww))
    return sizes


def farneback_flow(prev: np.ndarray, nxt: np.ndarray,
                   cfg: FarnebackConfig | None = None) -> FlowField:
    """Dense displacement field from ``prev`` to ``nxt``.

    Deterministic given inputs and config. Uniform (gradient-free) inputs
    yield exactly zero flow.
    """
    cfg = cfg or FarnebackConfig()
    prev = np.asarray(prev)
    nxt = np.asarray(nxt)
    if prev.shape != nxt.shape:
        raise DataError(f"frame size mismatch: {prev.shape} vs {nxt.shape}")
    if prev.ndim != 2:
        raise DataError("flow inputs must be single-channel 2-D frames")
    if min(prev.shape) < cfg.poly_n:
        raise DataError(
            f"frame {prev.shape} smaller than polynomial kernel support ({cfg.poly_n})"
        )

    img1 = prev.astype(np.float64)
    img2 = nxt.astype(np.float64)
    h, w = img1.shape

    u = v = None
    sizes = _pyramid_sizes(h, w, cfg)
    for level in reversed(range(len(sizes))):
        hh, ww = sizes[level]
        if level == 0:
            p1, p2 = img1, img2
        else:
            # each level is built from the original image with a matched
            # anti-alias blur, not by repeated halving
            sigma = (1.0 / (cfg.pyramid_scale ** level) - 1.0) * 0.5
            p1 = resize_bilinear(_gaussian_blur(img1, sigma), hh, ww)
            p2 = resize_bilinear(_gaussian_blur(img2, sigma), hh, ww)
        if u is None:
            u = np.zeros((hh, ww))
            v = np.zeros((hh, ww))
        else:
            ph, pw = u.shape
            u = resize_bilinear(u, hh, ww) * (ww / pw)
            v = resize_bilinear(v, hh, ww) * (hh / ph)
        exp1 = _poly_expand(p1, cfg.poly_n, cfg.poly_sigma)
        exp2 = _poly_expand(p2, cfg.poly_n, cfg.poly_sigma)
        for _ in range(cfg.iterations):
            u, v = _flow_iteration(exp1, exp2, u, v, cfg.window_size)
    return FlowField(u, v)


def cart2polar(field: FlowField) -> PolarFlow:
    """Convert (u, v) to magnitude and angle in degrees.

    theta = atan2(v, u) mapped to [0, 360); v is image-space (positive
    down), so 90 degrees means downward motion. Pixels with zero
    magnitude carry angle 0 by convention.
    """
    u = field.u.astype(np.float64)
    v = field.v.astype(np.float64)
    m = np.hypot(u, v)
    theta = np.degrees(np.arctan2(v, u)) % 360.0
    theta[m == 0.0] = 0.0
    return PolarFlow(m, theta)
