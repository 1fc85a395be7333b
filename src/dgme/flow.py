"""Dense optical flow estimation and polar conversion.

``farneback_flow`` estimates dense sub-pixel flow via local quadratic
polynomial expansion. Each image is fitted per pixel as
f(x) ~ x'Ax + b'x + c over a Gaussian-weighted neighborhood; for a
translation d the linear coefficients satisfy b2 = b1 - 2*A*d, so d is
recovered from expansion-coefficient differences, made robust by
averaging the normal equations over a ``WINDOW_SIZE`` px box with
reflect-101 borders (OpenCV's default window; it replaced an earlier
Gaussian window), and wrapped in a coarse-to-fine pyramid with
fixed-point iterations per level.

All internal math is 64-bit; stored fields are 32-bit floats. The
estimator is a pure function of its inputs. Each ``farneback_flow`` call
allocates one workspace sized for level 0, and every level works in
leading views of it, so the nine fixed-point iterations allocate nothing
of a level's size: the warp gathers with ``np.take(..., mode="clip",
out=...)`` into it, the solve works in place in it, and u and v alternate
between the level's own pair and a spare pair in it. The workspace lives
for one call and is never module state. u and v are upsampled between
levels together from one index computation. All of this keeps every
operation and its order, so the result is the same bit for bit as the
plain expressions.

Each frame's pyramid and per-level expansion depend on that frame alone,
and ``compute_dgme`` passes every interior frame of a clip twice, once as
``nxt`` and then as the next pair's ``prev``. A one-entry memo holds the
expansions of the last frame expanded, so each frame of a clip is
expanded once. Its key is the frame alone (shape, dtype, bytes): the
Farneback settings are module constants, so a hit returns exactly what a
fresh expansion would and ``farneback_flow`` stays a pure function,
whatever was called before it. The cached arrays are read-only, so an
in-place write into them by mistake raises an error, and the memo holds
at most one frame's expansions (about 2.6 MB at 224 px).

Identical frames, such as the repeats that degraded clips use for
dropped frames, get the all-zero field at once. The full solve returns the
same bytes there (every value +0.0): the warp by zero displacement is
exact and leaves a zero right-hand side.

The filters are scipy's compiled ndimage filters with reflect-101
borders, called through ``dgme._resample`` without the ``scipy.ndimage``
package: ``gaussian_blur`` blurs the pyramid, ``correlate1d`` expands and
``box_mean1d`` is the box window. The compiled module loads at the first
filter call, so a command that computes no flow never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dgme._resample import (box_mean1d, correlate1d, gaussian_blur, gaussian_kernel,
                            resize_bilinear, resize_bilinear_planes, sample_bilinear_planes)
from dgme.errors import DataError

# regularizer added to the 2x2 determinant; keeps flat regions at exactly
# zero flow instead of amplifying numerical noise
_DET_EPS = 1e-3

# the Farneback settings of the descriptor, fixed; ``descriptor.config_hash``
# records them in every artifact
PYRAMID_LEVELS = 3
PYRAMID_SCALE = 0.5
WINDOW_KIND = "box"
WINDOW_SIZE = 15
ITERATIONS = 3
POLY_N = 5
POLY_SIGMA = 1.1


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


def _poly_expand(img: np.ndarray):
    """Per-pixel quadratic fit coefficients.

    Fits f(dx, dy) ~ c + bx*dx + by*dy + axx*dx^2 + ayy*dy^2 + axy*dx*dy
    around every pixel under a separable Gaussian applicability of
    ``POLY_N`` taps and sigma ``POLY_SIGMA``, via six
    separable correlations. Returns (a11, a22, a12, bx, by) where the
    quadratic form matrix is A = [[a11, a12], [a12, a22]] (a12 = axy/2).
    """
    half = POLY_N // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    g = gaussian_kernel(half, POLY_SIGMA)
    xg = x * g
    xxg = x * x * g
    s2 = float((x * x * g).sum())
    s4 = float((x ** 4 * g).sum())

    # the nine correlations go straight into a 4-plane scratch and the five
    # result planes, each result then finished in place
    t0, t1, t2, v1 = np.empty((4,) + img.shape)
    a11, a22, a12, bx, by = np.empty((5,) + img.shape)
    correlate1d(img, g, 0, t0)
    correlate1d(img, xg, 0, t1)
    correlate1d(img, xxg, 0, t2)
    correlate1d(t0, g, 1, v1)
    correlate1d(t0, xg, 1, bx)
    correlate1d(t0, xxg, 1, a11)
    correlate1d(t1, g, 1, by)
    correlate1d(t1, xg, 1, a12)
    correlate1d(t2, g, 1, a22)

    # normal equations decouple: the only coupled block is (c, axx, ayy)
    # bx = vx / s2, by = vy / s2
    bx /= s2
    by /= s2
    # a11 = (vxx - s2 * v1) / denom, a22 = (vyy - s2 * v1) / denom
    denom = s4 - s2 * s2
    v1 *= s2
    for a in (a11, a22):
        a -= v1
        a /= denom
    # a12 = 0.5 * (vxy / (s2 * s2))
    a12 /= s2 * s2
    a12 *= 0.5
    return a11, a22, a12, bx, by


def _window_mean(planes: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Mean of each (h, w) plane of a (k, h, w) stack over the
    ``WINDOW_SIZE`` px window of kind ``WINDOW_KIND`` (a box) centred on
    every pixel, written into ``planes``. The first (column) pass goes
    into ``rows``, a (k, h, w) float64 scratch that ``_flow_iteration``
    takes from its workspace; it is allocated when not given.
    Borders reflect without repeating the edge pixel (reflect-101), again
    and again where a plane is narrower than the window."""
    if rows is None:
        rows = np.empty(planes.shape)
    box_mean1d(planes, WINDOW_SIZE, 1, rows)
    return box_mean1d(rows, WINDOW_SIZE, 2, planes)


# the float64 planes of the workspace that ``farneback_flow`` allocates
# once per call: the five warped expansion planes (later the window's
# first pass), the five normal-equation planes, the warp's scratch (whose
# first two planes take the warp coordinates) and the spare u/v pair
_WARPED = slice(0, 5)
_NORMAL = slice(5, 10)
_WARP_SCRATCH = slice(10, 16)
_SPARE_UV = slice(16, 18)
_WORK_PLANES = 18


def _flow_iteration(exp1, exp2, u, v, work, index, out):
    """One fixed-point update of the displacement field.

    Warps the second image's expansion coefficients to x + d0, forms the
    per-pixel normal equations G*d = h from averaged coefficients, averages
    both sides over the box window (``_window_mean``), and solves the 2x2
    system.

    Nothing of the level's size is allocated: every intermediate goes into
    ``work``, the level's (``_WORK_PLANES``, h, w) view of the per-call
    workspace laid out as the slices above, and ``index``, its (h, w)
    int64 plane. The new u and v are written into the pair ``out``, which
    must not be ``u`` and ``v`` themselves. The solve keeps the operations
    and operand order of the plain expressions in the comments, so it
    rounds the same way.
    """
    a11_1, a22_1, a12_1, bx1, by1 = exp1
    h, w = u.shape
    warped, planes, scratch = work[_WARPED], work[_NORMAL], work[_WARP_SCRATCH]
    # the warp coordinates yy + v, xx + u on the level's pixel grid
    np.add(v, np.arange(h, dtype=np.float64)[:, None], out=scratch[0])
    np.add(u, np.arange(w, dtype=np.float64), out=scratch[1])
    a11, a22, a12, db1, db2 = sample_bilinear_planes(
        exp2, scratch[0], scratch[1], warped, scratch, index)
    tmp = scratch[-2]  # the warp's term plane, free once the warp is done

    # a = 0.5 * (a_1 + a_2)
    for a, a_1 in ((a11, a11_1), (a22, a22_1), (a12, a12_1)):
        a += a_1
        a *= 0.5
    # db = -(b2 - b1)/2 + A d0 makes the solve return total displacement:
    # db1 = -0.5 * (bx2 - bx1) + a11 * u + a12 * v
    # db2 = -0.5 * (by2 - by1) + a12 * u + a22 * v
    for db, b1, au, av in ((db1, bx1, a11, a12), (db2, by1, a12, a22)):
        db -= b1
        db *= -0.5
        db += np.multiply(au, u, out=tmp)
        db += np.multiply(av, v, out=tmp)

    # g11 = a11*a11 + a12*a12, g12 = a12*(a11 + a22), g22 = a22*a22 + a12*a12,
    # h1 = a11*db1 + a12*db2, h2 = a12*db1 + a22*db2
    g11, g12, g22, h1, h2 = planes
    np.multiply(a12, a12, out=tmp)
    np.multiply(a11, a11, out=g11)
    g11 += tmp
    np.multiply(a22, a22, out=g22)
    g22 += tmp
    np.add(a11, a22, out=g12)
    g12 *= a12
    np.multiply(a11, db1, out=h1)
    h1 += np.multiply(a12, db2, out=tmp)
    np.multiply(a12, db1, out=h2)
    h2 += np.multiply(a22, db2, out=tmp)

    # the warped planes are dead from here on and take the window's first pass
    _window_mean(planes, warped)

    # det = g11*g22 - g12*g12 + eps
    # u_new = (g22*h1 - g12*h2) / det, v_new = (g11*h2 - g12*h1) / det
    det = np.multiply(g11, g22, out=warped[0])
    det -= np.multiply(g12, g12, out=tmp)
    det += _DET_EPS
    u_new = np.multiply(g22, h1, out=out[0])
    u_new -= np.multiply(g12, h2, out=tmp)
    u_new /= det
    v_new = np.multiply(g11, h2, out=out[1])
    v_new -= np.multiply(g12, h1, out=tmp)
    v_new /= det
    return u_new, v_new


def _pyramid_sizes(h: int, w: int) -> list[tuple[int, int]]:
    sizes = [(h, w)]
    for level in range(1, PYRAMID_LEVELS):
        s = PYRAMID_SCALE ** level
        hh, ww = int(round(h * s)), int(round(w * s))
        if min(hh, ww) < POLY_N + 2:
            break
        sizes.append((hh, ww))
    return sizes


def _expand_frame(frame: np.ndarray) -> tuple:
    """Polynomial expansion of one frame at each pyramid level (level 0 is
    full resolution), as read-only arrays."""
    img = frame.astype(np.float64)
    levels = []
    for level, (hh, ww) in enumerate(_pyramid_sizes(*frame.shape)):
        if level == 0:
            p = img
        else:
            # each level is built from the original image with a matched
            # anti-alias blur, not by repeated halving
            sigma = (1.0 / (PYRAMID_SCALE ** level) - 1.0) * 0.5
            p = resize_bilinear(gaussian_blur(img, sigma), hh, ww)
        exp = _poly_expand(p)
        for a in exp:
            a.flags.writeable = False
        levels.append(exp)
    return tuple(levels)


# (key, expansions) of the last frame expanded; replaced as one reference,
# so concurrent callers see either the old entry or the new one
_last_expansion = None


def _frame_expansions(frame: np.ndarray) -> tuple:
    """``_expand_frame`` behind the one-entry memo described in the module
    docstring."""
    global _last_expansion
    key = (frame.shape, frame.dtype.str, frame.tobytes())
    memo = _last_expansion
    if memo is not None and memo[0] == key:
        return memo[1]
    levels = _expand_frame(frame)
    _last_expansion = (key, levels)
    return levels


def farneback_flow(prev: np.ndarray, nxt: np.ndarray) -> FlowField:
    """Dense displacement field from ``prev`` to ``nxt``.

    Deterministic given its inputs. Uniform (gradient-free) inputs yield
    exactly zero flow. Identical frames yield the all-+0.0 field without
    expansion or iteration; the full solve gives the same bytes.
    """
    prev = np.asarray(prev)
    nxt = np.asarray(nxt)
    if prev.shape != nxt.shape:
        raise DataError(f"frame size mismatch: {prev.shape} vs {nxt.shape}")
    if prev.ndim != 2:
        raise DataError("flow inputs must be single-channel 2-D frames")
    if min(prev.shape) < POLY_N:
        raise DataError(
            f"frame {prev.shape} smaller than polynomial kernel support ({POLY_N})"
        )

    if np.array_equal(prev, nxt):
        # the full solve returns this same all-+0.0 field, so skip it
        return FlowField(np.zeros(prev.shape), np.zeros(prev.shape))

    # prev first: in a clip it is the frame the memo holds from the last pair
    exp1 = _frame_expansions(prev)
    exp2 = _frame_expansions(nxt)

    # one workspace for this call, sized for level 0; every level works in
    # leading views of it
    n = prev.size
    work_buf = np.empty(_WORK_PLANES * n)
    index_buf = np.empty(n, dtype=np.int64)
    u = v = None
    for level in reversed(range(len(exp1))):
        hh, ww = exp1[level][0].shape
        if u is None:
            u = np.zeros((hh, ww))
            v = np.zeros((hh, ww))
        else:
            ph, pw = u.shape
            u, v = resize_bilinear_planes((u, v), hh, ww)
            u *= ww / pw
            v *= hh / ph
        work = work_buf[: _WORK_PLANES * hh * ww].reshape(_WORK_PLANES, hh, ww)
        index = index_buf[: hh * ww].reshape(hh, ww)
        # u and v alternate between the level's own pair and the spare
        # pair, so an iteration never writes the arrays it reads
        spare = tuple(work[_SPARE_UV])
        for _ in range(ITERATIONS):
            new = _flow_iteration(exp1[level], exp2[level], u, v, work, index, spare)
            spare = (u, v)
            u, v = new
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
