"""Clip loading and temporal sampling.

Supported sources:
  - ``.y8seq`` files: magic ``Y8SQ``, then width, height, frame_count as
    32-bit little-endian unsigned integers, then frames concatenated
    row-major as raw u8 intensities (16-byte header total).
  - directories of binary PGM (P5) frames, sorted lexicographically by
    filename. Binary PPM (P6) frames are accepted and converted to
    luminance with BT.601 weights (0.299, 0.587, 0.114), rounded.

Everything downstream consumes fixed-shape grayscale sequences, so color
never survives past this module.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dgme._meta import existing_file
from dgme._resample import resize_bilinear
from dgme.errors import DataError

Y8SEQ_MAGIC = b"Y8SQ"

# BT.601 luma weights for PPM conversion
_LUMA = np.array([0.299, 0.587, 0.114], dtype=np.float64)

# most pixels a frame resized to the target size may hold, checked before
# any frame is resized: at this size one float64 plane takes 128 MiB, and
# the flow of a frame pair holds a few dozen planes of the cropped frame
MAX_FRAME_PIXELS = 4096 * 4096


def to_u8(values: np.ndarray) -> np.ndarray:
    """Pixel values rounded (halves to even), clipped to [0, 255], as u8."""
    return np.round(values).clip(0, 255).astype(np.uint8)


@dataclass
class FrameSequence:
    """A sampled grayscale clip: frames stacked as a (F, H, W) u8 array."""

    frames: np.ndarray
    clip_id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be (F, H, W), got shape {self.frames.shape}")
        if self.frames.dtype != np.uint8:
            raise ValueError(f"frames must be uint8, got {self.frames.dtype}")
        if self.frames.shape[0] < 2:
            raise ValueError("a clip needs at least 2 frames (flow needs one frame pair)")

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]


@dataclass
class SamplingSpec:
    """Temporal sampling and spatial target for clip loading."""

    frames_per_clip: int = 12
    frame_interval: int = 6
    target_size: int = 224

    def __post_init__(self):
        if self.frames_per_clip < 2:
            raise ValueError("frames_per_clip must be >= 2")
        if self.frame_interval < 1:
            raise ValueError("frame_interval must be >= 1")
        if self.target_size < 1:
            raise ValueError("target_size must be >= 1")

    @property
    def required_source_frames(self) -> int:
        return (self.frames_per_clip - 1) * self.frame_interval + 1


def clip_id(path) -> str:
    """The id of the clip at ``path``: its file name without a trailing
    ``.y8seq``. Other dots stay, and the id of an id is itself."""
    return Path(path).name.removesuffix(".y8seq")


def write_y8seq(seq: FrameSequence, path) -> None:
    """Write a clip in the bit-exact ``.y8seq`` binary format."""
    path = Path(path)
    header = Y8SEQ_MAGIC + struct.pack(
        "<III", seq.width, seq.height, seq.frame_count
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(seq.frames.tobytes(order="C"))


def read_y8seq(path) -> FrameSequence:
    """Read a ``.y8seq`` clip; errors name expected vs actual byte counts."""
    path = existing_file(path, "clip")
    data = path.read_bytes()
    if len(data) < 16:
        raise DataError(f"truncated y8seq header in {path}: expected 16 bytes, have {len(data)}")
    if data[:4] != Y8SEQ_MAGIC:
        raise DataError(f"bad magic in {path}: expected {Y8SEQ_MAGIC!r}, got {data[:4]!r}")
    width, height, count = struct.unpack("<III", data[4:16])
    if count < 2:
        raise DataError(f"{path} holds {count} frames, a clip needs at least 2")
    if width == 0 or height == 0:
        raise DataError(f"{path} holds {width}x{height} frames, a clip needs at least 1x1")
    expected = 16 + width * height * count
    if len(data) != expected:
        raise DataError(
            f"truncated y8seq payload in {path}: expected {expected} bytes, have {len(data)}"
        )
    frames = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, height, width)
    return FrameSequence(frames.copy(), clip_id=clip_id(path))


def _read_pnm(path: Path) -> np.ndarray:
    """Read one binary PGM (P5) or PPM (P6) frame as a grayscale u8 array."""
    data = path.read_bytes()
    if data[:2] not in (b"P5", b"P6"):
        raise DataError(f"unsupported PNM type in {path}: {data[:2]!r}")
    color = data[:2] == b"P6"

    # header tokens: type, width, height, maxval; '#' comments run to EOL
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"malformed PNM header in {path}")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval

    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise DataError(f"malformed PNM header in {path}: {exc}") from exc
    if maxval != 255:
        raise DataError(f"unsupported PNM maxval {maxval} in {path} (only 255)")
    if width < 1 or height < 1:
        raise DataError(f"{path} is a {width}x{height} frame, a clip needs at least 1x1")

    channels = 3 if color else 1
    expected = width * height * channels
    raw = data[pos : pos + expected]
    if len(raw) != expected:
        raise DataError(
            f"truncated PNM payload in {path}: expected {expected} bytes, have {len(raw)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8)
    if color:
        rgb = pixels.reshape(height, width, 3).astype(np.float64)
        return to_u8(rgb @ _LUMA)
    return pixels.reshape(height, width).copy()


def _read_frame_dir(path: Path) -> np.ndarray:
    names = sorted(
        p for p in path.iterdir() if p.suffix.lower() in (".pgm", ".ppm") and p.is_file()
    )
    if not names:
        raise DataError(f"no PGM/PPM frames found in {path}")
    frames = [_read_pnm(p) for p in names]
    shape = frames[0].shape
    for p, f in zip(names, frames):
        if f.shape != shape:
            raise DataError(f"frame size mismatch in {path}: {p.name} is {f.shape}, expected {shape}")
    return np.stack(frames)


def _resized_shape(h: int, w: int, target: int) -> tuple[int, int]:
    """(height, width) of an h x w frame resized so that its shorter side
    equals ``target`` exactly."""
    if min(h, w) == target:
        return h, w
    if h <= w:
        return target, max(target, int(round(w * target / h)))
    return max(target, int(round(h * target / w))), target


def load_clip(path, spec: SamplingSpec) -> FrameSequence:
    """Load, temporally sample, resize, and center-crop a clip.

    Frames are taken at stride ``frame_interval`` starting at source frame
    0, each resized so the shorter side equals ``target_size``, then
    center-cropped to a square. Pure function of (file bytes, spec).
    Frames that the resize would make larger than ``MAX_FRAME_PIXELS``
    are refused before any is resized.
    """
    path = Path(path)
    source = _read_frame_dir(path) if path.is_dir() else read_y8seq(path).frames

    need = spec.required_source_frames
    have, h, w = source.shape
    if have < need:
        raise DataError(f"insufficient frames: need {need}, have {have}")
    out_h, out_w = _resized_shape(h, w, spec.target_size)
    if out_h * out_w > MAX_FRAME_PIXELS:
        raise DataError(
            f"target size {spec.target_size} px resizes the {w}x{h} frames of {path} "
            f"to {out_w}x{out_h}, more than {MAX_FRAME_PIXELS} pixels"
        )

    size = spec.target_size
    y0, x0 = (out_h - size) // 2, (out_w - size) // 2
    out = []
    for idx in np.arange(spec.frames_per_clip) * spec.frame_interval:
        frame = resize_bilinear(source[idx].astype(np.float64), out_h, out_w)
        out.append(to_u8(frame[y0 : y0 + size, x0 : x0 + size]))
    return FrameSequence(np.stack(out), clip_id=clip_id(path))
