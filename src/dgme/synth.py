"""Deterministic synthetic clips with known camera-motion ground truth.

Five classes are rendered by animating a seeded procedural texture
(multi-octave value noise plus random blobs):

  static  identity, plus optional sub-pixel jitter
  pan     horizontal translation, +-magnitude px/frame (sign = image-space
          direction of content motion: +1 moves content rightward)
  tilt    vertical translation (+1 moves content downward)
  zoom    scaling about the frame center; magnitude is the per-frame
          displacement in pixels at the horizontal frame edge, so the
          scale rate is magnitude / (size / 2) (+1 expands)
  track   background translating at magnitude px/frame while a
          high-contrast textured foreground blob stays centered
          (camera-follows-object semantics)

The texture canvas is oversized by the total motion extent plus 4 px, so
every bilinear sample lies at least 4 px inside it. A translation's
canvas grows with magnitude times frame count, a zoom-out's
geometrically with the frame count; a clip whose motion would span more
than ``MAX_TEXTURE_SPAN`` times the frame side of texture, or whose
canvas would hold more than ``MAX_FRAME_PIXELS`` (the one pixel limit:
the frame lies inside the canvas), is refused before anything is
allocated. A separate degradation stage
simulates archival footage: contrast compression, blur, flicker, noise,
and frame repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dgme
from dgme._meta import write_table
from dgme._resample import gaussian_blur, resize_bilinear, sample_bilinear_planes
from dgme.videoio import MAX_FRAME_PIXELS, FrameSequence, to_u8, write_y8seq

CLASSES = ("static", "tilt", "pan", "zoom", "track")

# residual motion still considered "static", exposed as the default jitter cap
STATIC_JITTER_MAX = 0.2

# widest motion: the texture side a clip spans over the frame side, which
# bounds the canvas (the default corpus spec reaches 2.03 with a zoom-out)
MAX_TEXTURE_SPAN = 8.0


@dataclass
class SynthSpec:
    class_label: str
    frames: int = 12
    size: int = 128
    motion_magnitude: float = 2.0
    direction_sign: int = 1
    texture_seed: int = 0
    jitter: float = 0.0

    def __post_init__(self):
        if self.class_label not in CLASSES:
            raise ValueError(f"unknown class {self.class_label!r}, "
                             f"valid classes: {', '.join(CLASSES)}")
        if self.frames < 2:
            raise ValueError("frames must be >= 2")
        if self.size < 16:
            raise ValueError("size must be >= 16")
        if self.class_label != "static" and self.motion_magnitude <= 0:
            raise ValueError("motion_magnitude must be positive for moving classes")
        if self.direction_sign not in (-1, 1):
            raise ValueError("direction_sign must be +1 or -1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")


@dataclass
class DegradeSpec:
    noise_sigma: float = 0.0
    blur_sigma: float = 0.0
    contrast_scale: float = 1.0
    flicker_amp: float = 0.0
    drop_prob: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.noise_sigma < 0 or self.blur_sigma < 0 or self.flicker_amp < 0:
            raise ValueError("sigmas and flicker_amp must be >= 0")
        if not (0.0 < self.contrast_scale <= 1.0):
            raise ValueError("contrast_scale must be in (0, 1]")
        if not (0.0 <= self.drop_prob < 1.0):
            raise ValueError("drop_prob must be in [0, 1)")


def _texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Multi-octave value noise plus random Gaussian blobs, in [0, 255]."""
    out = np.zeros((height, width), dtype=np.float64)
    amp = 1.0
    cells = 6
    for _ in range(5):
        grid = rng.random((cells + 1, cells + 1))
        out += amp * resize_bilinear(grid, height, width)
        amp *= 0.55
        cells *= 2

    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    for _ in range(6):
        cy = rng.uniform(0, height)
        cx = rng.uniform(0, width)
        sigma = rng.uniform(min(height, width) / 16.0, min(height, width) / 5.0)
        amp = rng.uniform(0.3, 0.8) * (1.0 if rng.random() < 0.5 else -1.0)
        out += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))

    out -= out.min()
    peak = out.max()
    if peak > 0:
        out *= 255.0 / peak
    return out


def _span_error(motion: str, spec: SynthSpec, span: float) -> ValueError:
    return ValueError(
        f"{motion} of {spec.motion_magnitude:g} px/frame over {spec.frames} frames of "
        f"{spec.size} px spans {span:.3g}x the frame, more than {MAX_TEXTURE_SPAN:g}x: "
        "lower the magnitude or the frame count, or raise the size"
    )


def _canvas_margin(spec: SynthSpec) -> int:
    """Texture border around the frame that the clip's motion needs; the
    canvas, the frame plus this border on each side, holds at most
    ``MAX_FRAME_PIXELS``."""
    size, n, mag = spec.size, spec.frames, spec.motion_magnitude
    if spec.class_label == "static":
        margin = int(np.ceil(spec.jitter)) + 4
    elif spec.class_label != "zoom":
        # the clip's frames together span size + travel px along the motion
        travel = mag * (n - 1)
        if size + travel > MAX_TEXTURE_SPAN * size:
            raise _span_error(spec.class_label, spec, (size + travel) / size)
        margin = int(np.ceil(travel)) + 4
    elif mag >= size / 2.0:
        raise ValueError("zoom magnitude too large for frame size")
    elif spec.direction_sign > 0:
        margin = 4
    else:
        # the last frame spans 1/shrink times the frame side on the texture
        shrink = (1.0 - mag / (size / 2.0)) ** (n - 1)
        if shrink * MAX_TEXTURE_SPAN < 1.0:
            raise _span_error("zoom-out", spec, 1.0 / shrink)
        margin = int(np.ceil((size / 2.0) * (1.0 / shrink - 1.0))) + 4
    side = size + 2 * margin
    if side * side > MAX_FRAME_PIXELS:
        raise ValueError(f"a {size} px {spec.class_label} clip needs a {side}x{side} "
                         f"texture canvas, more than {MAX_FRAME_PIXELS} pixels")
    return margin


def make_clip(spec: SynthSpec) -> FrameSequence:
    """Render one labeled clip; deterministic given the spec."""
    rng = np.random.default_rng(spec.texture_seed)
    size = spec.size
    n = spec.frames
    mag = spec.motion_magnitude
    sign = spec.direction_sign
    span = mag * (n - 1)
    margin = _canvas_margin(spec)

    tex = _texture(rng, size + 2 * margin, size + 2 * margin)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)

    # foreground for track: centered textured disk with a soft 2 px edge
    fg_alpha = fg_pattern = None
    if spec.class_label == "track":
        radius = size * 0.18
        cy = cx = (size - 1) / 2.0
        dist = np.hypot(yy - cy, xx - cx)
        fg_alpha = np.clip((radius - dist) / 2.0 + 0.5, 0.0, 1.0)
        fg_rng = np.random.default_rng(spec.texture_seed + 1)
        fg_pattern = 0.35 * _texture(fg_rng, size, size) + 160.0
        fg_pattern = np.clip(fg_pattern, 0, 255)

    # per-frame jitter offsets (static class only), drawn in one batch so
    # the trace does not depend on the frame loop
    jit = rng.uniform(-spec.jitter, spec.jitter, size=(n, 2)) if spec.class_label == "static" else None

    frames = []
    c = (size - 1) / 2.0
    ctex = c + margin
    for t in range(n):
        # translation starts offset by half the total span so the sampled
        # window stays inside the canvas for the whole clip
        if spec.class_label == "static":
            sy = yy + margin + jit[t, 0]
            sx = xx + margin + jit[t, 1]
        elif spec.class_label == "pan" or spec.class_label == "track":
            sy = yy + margin
            sx = xx + margin + sign * (span / 2.0 - mag * t)
        elif spec.class_label == "tilt":
            sx = xx + margin
            sy = yy + margin + sign * (span / 2.0 - mag * t)
        else:  # zoom
            s = (1.0 + sign * mag / (size / 2.0)) ** t
            sy = ctex + (yy - c) / s
            sx = ctex + (xx - c) / s
        frame = sample_bilinear_planes((tex,), sy, sx)[0]
        if fg_alpha is not None:
            frame = frame * (1.0 - fg_alpha) + fg_pattern * fg_alpha
        frames.append(to_u8(frame))
    return FrameSequence(
        np.stack(frames),
        clip_id=f"synth-{spec.class_label}-{spec.texture_seed}",
    )


def degrade_clip(seq: FrameSequence, spec: DegradeSpec) -> FrameSequence:
    """Simulated archival degradation, applied in a fixed order:
    contrast compression about 128, Gaussian blur, per-frame brightness
    flicker, additive Gaussian noise, then frame drops realized as
    duplications of the previous (already degraded) frame."""
    rng = np.random.default_rng(spec.rng_seed)
    n = seq.frame_count
    flicker = rng.uniform(-spec.flicker_amp, spec.flicker_amp, size=n)
    noise = rng.normal(0.0, 1.0, size=seq.frames.shape) * spec.noise_sigma
    drops = rng.random(n - 1) < spec.drop_prob

    # contrast_scale * (f - 128) + 128, in place
    f = seq.frames.astype(np.float64)
    f -= 128.0
    f *= spec.contrast_scale
    f += 128.0
    out = [to_u8(gaussian_blur(f[t], spec.blur_sigma) + flicker[t] + noise[t]) for t in range(n)]
    for t in range(1, n):
        if drops[t - 1]:
            out[t] = out[t - 1]
    return FrameSequence(np.stack(out), clip_id=seq.clip_id)


def _random_degrade(rng: np.random.Generator) -> DegradeSpec:
    return DegradeSpec(
        noise_sigma=float(rng.uniform(2.0, 8.0)),
        blur_sigma=float(rng.uniform(0.4, 1.2)),
        contrast_scale=float(rng.uniform(0.55, 0.9)),
        flicker_amp=float(rng.uniform(2.0, 10.0)),
        drop_prob=float(rng.uniform(0.05, 0.25)),
        rng_seed=int(rng.integers(0, 2**31)),
    )


def make_corpus(out_dir, classes, per_class: int, domain: str, seed: int,
                size: int = 128, frames: int = 12,
                magnitude_range: tuple[float, float] = (1.0, 4.0)) -> list[tuple[str, str]]:
    """Generate a labeled clip corpus on disk plus ``annotations.csv``.

    ``historical`` corpora additionally pass every clip through a
    randomized degradation. Returns the (relative_path, label) rows in
    generation order. Byte-identical for identical arguments.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if domain not in ("modern", "historical"):
        raise ValueError(f"unknown domain {domain!r}")
    for c in classes:
        # refuse before writing anything: the worst-case spec of every
        # class, static too, checks the class, frames and size; any clip may
        # draw the largest magnitude and jitter, and a zoom clip may zoom out
        _canvas_margin(SynthSpec(c, frames, size, max(magnitude_range), -1, 0, STATIC_JITTER_MAX))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lo, hi = magnitude_range

    rows: list[tuple[str, str]] = []
    for label in classes:
        for i in range(per_class):
            mag = float(rng.uniform(lo, hi))
            sign = 1 if rng.random() < 0.5 else -1
            tex_seed = int(rng.integers(0, 2**31))
            jitter = float(rng.uniform(0.0, STATIC_JITTER_MAX))
            degrade = _random_degrade(rng)  # drawn for both domains, applied to one

            spec = SynthSpec(
                class_label=label,
                frames=frames,
                size=size,
                motion_magnitude=mag,
                direction_sign=sign,
                texture_seed=tex_seed,
                jitter=jitter if label == "static" else 0.0,
            )
            clip = make_clip(spec)
            if domain == "historical":
                clip = degrade_clip(clip, degrade)
            name = f"{label}_{i:04d}.y8seq"
            write_y8seq(clip, out_dir / name)
            rows.append((name, label))

    write_table(out_dir / "annotations.csv", "corpus",
                {"version": dgme.__version__, "seed": seed, "domain": domain},
                ["clip_path", "label"], rows)
    return rows
