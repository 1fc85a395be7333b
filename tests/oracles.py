"""Independent reference implementations the tests compare the package against."""

import numpy as np

from dgme._resample import _reflect_coords
from dgme.descriptor import descriptor_from_polar
from dgme.errors import DataError
from dgme.flow import FlowField, cart2polar


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


def block_match_descriptor(seq, cfg, block: int = 8, search_radius: int = 7):
    """Clip descriptor with ``block_match_flow`` in place of the dense estimator."""
    fields = [
        cart2polar(block_match_flow(seq.frames[t], seq.frames[t + 1], block, search_radius))
        for t in range(seq.frame_count - 1)
    ]
    return descriptor_from_polar(fields, cfg)


def sample_bilinear_2d(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                       border: str = "clamp") -> np.ndarray:
    """Bilinear sampling of one plane by 2-D fancy indexing, each call
    computing its own neighbour indices and weights (the reference the
    shared-index sampler must match bit for bit)."""
    h, w = plane.shape
    ys = np.asarray(ys, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if border == "reflect":
        ys = _reflect_coords(ys, h)
        xs = _reflect_coords(xs, w)
    else:
        ys = np.clip(ys, 0.0, float(h - 1))
        xs = np.clip(xs, 0.0, float(w - 1))
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
