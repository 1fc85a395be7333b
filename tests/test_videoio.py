import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgme
from dgme._resample import resize_bilinear
from dgme.errors import DataError
from dgme.videoio import (
    FrameSequence,
    SamplingSpec,
    clip_id,
    load_clip,
    read_y8seq,
    write_y8seq,
)


def _seq(frames, clip_id="clip"):
    return FrameSequence(np.asarray(frames, dtype=np.uint8), clip_id=clip_id)


# ---------------------------------------------------------------------------
# y8seq format
# ---------------------------------------------------------------------------

def test_y8seq_header_bytes_for_zero_clip(tmp_path):
    seq = _seq(np.zeros((2, 2, 2)))
    path = tmp_path / "z.y8seq"
    write_y8seq(seq, path)
    data = path.read_bytes()
    assert len(data) == 16 + 8
    assert data[:4] == b"Y8SQ"
    assert data[4:16] == (2).to_bytes(4, "little") * 3
    assert data[16:] == b"\x00" * 8


def test_y8seq_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    seq = _seq(rng.integers(0, 256, size=(5, 7, 3)), clip_id="rt")
    path = tmp_path / "rt.y8seq"
    write_y8seq(seq, path)
    back = read_y8seq(path)
    assert back.clip_id == "rt"
    assert np.array_equal(back.frames, seq.frames)


@settings(max_examples=30, deadline=None)
@given(
    f=st.integers(2, 5), h=st.integers(1, 9), w=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_y8seq_round_trip_property(tmp_path_factory, f, h, w, seed):
    rng = np.random.default_rng(seed)
    seq = _seq(rng.integers(0, 256, size=(f, h, w)))
    path = tmp_path_factory.mktemp("y8") / "p.y8seq"
    write_y8seq(seq, path)
    assert np.array_equal(read_y8seq(path).frames, seq.frames)


def test_y8seq_truncated_reports_byte_counts(tmp_path):
    seq = _seq(np.zeros((2, 4, 4)))
    path = tmp_path / "t.y8seq"
    write_y8seq(seq, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataError, match=r"expected 48 bytes, have 43"):
        read_y8seq(path)


def test_y8seq_bad_magic(tmp_path):
    path = tmp_path / "bad.y8seq"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(DataError, match="bad magic"):
        read_y8seq(path)


# ---------------------------------------------------------------------------
# PGM / PPM directories
# ---------------------------------------------------------------------------

def _write_pgm(path, frame):
    h, w = frame.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + frame.tobytes())


def test_pgm_dir_sorted_lexicographically(tmp_path):
    d = tmp_path / "clip"
    d.mkdir()
    # write out of order; value identifies the frame
    for name, val in (("b.pgm", 1), ("a.pgm", 0), ("c.pgm", 2)):
        _write_pgm(d / name, np.full((4, 4), val, dtype=np.uint8))
    seq = load_clip(d, SamplingSpec(frames_per_clip=3, frame_interval=1, target_size=4))
    assert [int(f[0, 0]) for f in seq.frames] == [0, 1, 2]


def test_frame_dir_skips_directories_named_like_frames(tmp_path):
    # a sub.pgm directory used to end extract in an IsADirectoryError
    d = tmp_path / "clip"
    d.mkdir()
    for i in range(3):
        _write_pgm(d / f"f{i}.pgm", np.full((16, 16), 40 * i, dtype=np.uint8))
    spec = SamplingSpec(frames_per_clip=3, frame_interval=1, target_size=16)
    frames = load_clip(d, spec).frames
    (d / "sub.pgm").mkdir()
    assert np.array_equal(load_clip(d, spec).frames, frames)


def test_ppm_converted_with_bt601_weights(tmp_path):
    d = tmp_path / "clip"
    d.mkdir()
    rgb = np.zeros((1, 2, 3), dtype=np.uint8)
    rgb[0, 0] = (200, 100, 50)   # 0.299*200 + 0.587*100 + 0.114*50 = 124.2 -> 124
    rgb[0, 1] = (10, 240, 30)    # 0.299*10 + 0.587*240 + 0.114*30 = 147.29 -> 147
    for i in range(2):
        (d / f"f{i}.ppm").write_bytes(b"P6\n2 1\n255\n" + rgb.tobytes())
    seq = load_clip(d, SamplingSpec(frames_per_clip=2, frame_interval=1, target_size=1))
    # shorter side 1 -> resize to 1x2 then center crop 1x1 keeps pixel x=0 region
    assert seq.frames.shape == (2, 1, 1)
    # check the raw conversion directly too
    from dgme.videoio import _read_pnm

    gray = _read_pnm(d / "f0.ppm")
    assert gray.tolist() == [[124, 147]]


def test_pnm_rejects_nonstandard_maxval(tmp_path):
    from dgme.videoio import _read_pnm

    p = tmp_path / "x.pgm"
    p.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(DataError, match="maxval"):
        _read_pnm(p)


def test_frame_dir_size_mismatch(tmp_path):
    d = tmp_path / "clip"
    d.mkdir()
    _write_pgm(d / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    _write_pgm(d / "b.pgm", np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(DataError, match="size mismatch"):
        load_clip(d, SamplingSpec(frames_per_clip=2, frame_interval=1, target_size=4))


# ---------------------------------------------------------------------------
# sampling, resize, crop
# ---------------------------------------------------------------------------

def _indexed_clip(tmp_path, n, size=8):
    """Source clip whose frame t is constant value t."""
    frames = np.stack([np.full((size, size), t, dtype=np.uint8) for t in range(n)])
    path = tmp_path / "src.y8seq"
    write_y8seq(_seq(frames, "src"), path)
    return path


def test_load_clip_stride_sampling(tmp_path):
    path = _indexed_clip(tmp_path, 72)
    seq = load_clip(path, SamplingSpec(frames_per_clip=12, frame_interval=6, target_size=8))
    assert [int(f[0, 0]) for f in seq.frames] == list(range(0, 72, 6))


def test_load_clip_identity_sampling(tmp_path):
    path = _indexed_clip(tmp_path, 12)
    seq = load_clip(path, SamplingSpec(frames_per_clip=12, frame_interval=1, target_size=8))
    assert [int(f[0, 0]) for f in seq.frames] == list(range(12))


def test_load_clip_insufficient_frames_message(tmp_path):
    path = _indexed_clip(tmp_path, 10)
    with pytest.raises(DataError, match=r"insufficient frames: need 67, have 10"):
        load_clip(path, SamplingSpec(frames_per_clip=12, frame_interval=6, target_size=8))


def test_load_clip_noop_when_already_target_size(tmp_path):
    rng = np.random.default_rng(7)
    frames = rng.integers(0, 256, size=(3, 16, 16)).astype(np.uint8)
    path = tmp_path / "n.y8seq"
    write_y8seq(_seq(frames), path)
    seq = load_clip(path, SamplingSpec(frames_per_clip=3, frame_interval=1, target_size=16))
    assert np.array_equal(seq.frames, frames)


def test_load_clip_center_crop_matches_resize_oracle(tmp_path):
    # wide source: resize sets H to target, W scales; crop offset is floor((W'-t)/2)
    rng = np.random.default_rng(3)
    frames = rng.integers(0, 256, size=(2, 12, 30)).astype(np.uint8)
    path = tmp_path / "w.y8seq"
    write_y8seq(_seq(frames), path)
    target = 12
    seq = load_clip(path, SamplingSpec(frames_per_clip=2, frame_interval=1, target_size=target))
    for t in range(2):
        resized = resize_bilinear(frames[t].astype(np.float64), 12, 30)
        x0 = (30 - target) // 2
        expected = np.round(resized[:, x0 : x0 + target]).clip(0, 255).astype(np.uint8)
        assert np.array_equal(seq.frames[t], expected)


def test_load_clip_is_deterministic(tmp_path):
    path = _indexed_clip(tmp_path, 24, size=20)
    spec = SamplingSpec(frames_per_clip=4, frame_interval=6, target_size=12)
    a = load_clip(path, spec)
    b = load_clip(path, spec)
    assert np.array_equal(a.frames, b.frames)


def test_spec_validation():
    with pytest.raises(ValueError):
        SamplingSpec(frames_per_clip=1)
    with pytest.raises(ValueError):
        FrameSequence(np.zeros((1, 4, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# clip ids
# ---------------------------------------------------------------------------

def test_clip_id_drops_only_a_trailing_y8seq(tmp_path):
    assert clip_id("corpus/pan.v0001.y8seq") == "pan.v0001"
    assert clip_id("pan.v0001") == "pan.v0001"  # the id of an id is itself
    assert clip_id(tmp_path / "frames.d") == "frames.d"
    (tmp_path / "frames.d").mkdir()
    for name in ("f0.pgm", "f1.pgm"):
        (tmp_path / "frames.d" / name).write_bytes(b"P5 2 2 255\n" + bytes(4))
    write_y8seq(_seq(np.zeros((2, 2, 2))), tmp_path / "pan.v1.y8seq")
    spec = SamplingSpec(frames_per_clip=2, frame_interval=1, target_size=2)
    assert load_clip(tmp_path / "frames.d", spec).clip_id == "frames.d"
    assert load_clip(tmp_path / "pan.v1.y8seq", spec).clip_id == "pan.v1"


def _stem_readers(path: Path) -> set:
    """``module.function`` of each function in ``path`` that reads a ``.stem``."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "stem":
                found.add(f"{path.stem}.{where}")
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_clip_id_reads_a_path_stem():
    # a second derivation of ids from paths could disagree with clip_id
    modules = sorted(Path(dgme.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    assert set().union(*map(_stem_readers, modules)) <= {"videoio.clip_id"}
