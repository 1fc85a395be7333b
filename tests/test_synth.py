import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from dgme import synth
from dgme._resample import gaussian_blur
from dgme.videoio import read_y8seq
from oracles import block_match_flow


def _clip(label, **kw):
    defaults = dict(frames=6, size=96, motion_magnitude=2.0, direction_sign=1,
                    texture_seed=7, jitter=0.0)
    defaults.update(kw)
    return synth.make_clip(synth.SynthSpec(label, **defaults))


def _oracle_uv(clip, t=0):
    field = block_match_flow(clip.frames[t], clip.frames[t + 1], block=8, search_radius=7)
    return field.u.astype(np.float64), field.v.astype(np.float64)


# ---------------------------------------------------------------------------
# clip rendering
# ---------------------------------------------------------------------------

def test_static_zero_jitter_frames_identical():
    clip = _clip("static", jitter=0.0)
    for t in range(1, clip.frame_count):
        assert np.array_equal(clip.frames[t], clip.frames[0])


def test_static_jitter_stays_subthreshold():
    clip = _clip("static", jitter=0.2)
    u, v = _oracle_uv(clip)
    inner = slice(16, 80)
    mag = np.hypot(u[inner, inner], v[inner, inner])
    assert float((mag < 0.5).mean()) >= 0.95


def test_pan_right_oracle_flow():
    clip = _clip("pan", motion_magnitude=2.0, direction_sign=1)
    u, v = _oracle_uv(clip)
    inner = slice(16, 80)
    assert float(np.median(u[inner, inner])) == pytest.approx(2.0, abs=0.5)
    assert float(np.median(np.abs(v[inner, inner]))) < 0.5


def test_tilt_up_oracle_flow():
    clip = _clip("tilt", motion_magnitude=3.0, direction_sign=-1)
    u, v = _oracle_uv(clip)
    inner = slice(16, 80)
    assert float(np.median(v[inner, inner])) == pytest.approx(-3.0, abs=0.5)
    assert float(np.median(np.abs(u[inner, inner]))) < 0.5


def test_zoom_flow_points_radially_outward():
    clip = _clip("zoom", motion_magnitude=3.0, direction_sign=1)
    u, v = _oracle_uv(clip)
    size = clip.width
    cx = (size - 1) / 2.0
    # interior blocks away from the center where displacement >= 1 px
    xs = np.arange(size) - cx
    horiz = np.abs(xs) * 3.0 / (size / 2.0)
    cols = np.where(horiz >= 1.2)[0]
    cols = cols[(cols >= 12) & (cols < size - 12)]
    rows = slice(40, 56)  # near the horizontal midline, u dominates
    signs_match = np.sign(u[rows, :][:, cols]) == np.sign(xs[cols])[None, :]
    assert signs_match.mean() > 0.9


def test_zoom_out_flow_points_inward():
    clip = _clip("zoom", motion_magnitude=3.0, direction_sign=-1)
    u, _ = _oracle_uv(clip)
    size = clip.width
    cx = (size - 1) / 2.0
    xs = np.arange(size) - cx
    cols = np.where(np.abs(xs) * 3.0 / (size / 2.0) >= 1.2)[0]
    cols = cols[(cols >= 12) & (cols < size - 12)]
    rows = slice(40, 56)
    signs_match = np.sign(u[rows, :][:, cols]) == -np.sign(xs[cols])[None, :]
    assert signs_match.mean() > 0.9


def test_track_foreground_static_background_moving():
    clip = _clip("track", motion_magnitude=2.0, direction_sign=1)
    u, v = _oracle_uv(clip)
    size = clip.width
    c = size // 2
    fg = slice(c - 8, c + 8)  # well inside the centered foreground disk
    assert float(np.hypot(u[fg, fg], v[fg, fg]).max()) < 0.5
    bg_cols = list(range(8, 20)) + list(range(size - 20, size - 8))
    bg_u = u[16 : size - 16, bg_cols]
    assert float(np.median(np.abs(bg_u))) >= 1.0


def test_make_clip_deterministic():
    a = _clip("pan", texture_seed=42)
    b = _clip("pan", texture_seed=42)
    assert np.array_equal(a.frames, b.frames)
    c = _clip("pan", texture_seed=43)
    assert not np.array_equal(a.frames, c.frames)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        synth.SynthSpec("roll")
    with pytest.raises(ValueError):
        synth.SynthSpec("pan", motion_magnitude=0.0)
    with pytest.raises(ValueError):
        synth.SynthSpec("pan", direction_sign=0)
    with pytest.raises(ValueError):
        synth.SynthSpec("static", jitter=-0.1)


# ---------------------------------------------------------------------------
# degradation
# ---------------------------------------------------------------------------

def test_degrade_all_zero_is_identity():
    clip = _clip("pan")
    out = synth.degrade_clip(clip, synth.DegradeSpec())
    assert np.array_equal(out.frames, clip.frames)


def test_degrade_contrast_formula():
    frames = np.full((2, 4, 4), 228, dtype=np.uint8)
    from dgme.videoio import FrameSequence

    out = synth.degrade_clip(FrameSequence(frames, "c"), synth.DegradeSpec(contrast_scale=0.5))
    assert np.all(out.frames == 178)  # 128 + 0.5 * (228 - 128)


def test_degrade_deterministic():
    clip = _clip("tilt")
    spec = synth.DegradeSpec(noise_sigma=5.0, blur_sigma=0.8, contrast_scale=0.7,
                             flicker_amp=6.0, drop_prob=0.2, rng_seed=3)
    a = synth.degrade_clip(clip, spec)
    b = synth.degrade_clip(clip, spec)
    assert np.array_equal(a.frames, b.frames)


def test_degrade_noise_monotonicity():
    clip = _clip("static", jitter=0.0)
    base = clip.frames.astype(np.float64)
    prev_dist = -1.0
    for sigma in (0.0, 2.0, 5.0, 10.0):
        out = synth.degrade_clip(clip, synth.DegradeSpec(noise_sigma=sigma, rng_seed=8))
        dist = float(np.abs(out.frames.astype(np.float64) - base).mean())
        assert dist >= prev_dist - 1e-9
        prev_dist = dist


def test_degrade_frame_drops_duplicate_previous():
    clip = _clip("pan", frames=10)
    out = synth.degrade_clip(clip, synth.DegradeSpec(drop_prob=0.6, rng_seed=5))
    assert out.frame_count == clip.frame_count
    dup = any(
        np.array_equal(out.frames[t], out.frames[t - 1]) for t in range(1, out.frame_count)
    )
    assert dup


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_make_corpus_counts_and_annotations(tmp_path):
    rows = synth.make_corpus(tmp_path / "c", ["static", "pan", "tilt", "zoom"], 10,
                             "modern", seed=4, size=64, frames=4)
    assert len(rows) == 40
    files = sorted((tmp_path / "c").glob("*.y8seq"))
    assert len(files) == 40
    labels = [label for _, label in rows]
    assert all(labels.count(c) == 10 for c in ("static", "pan", "tilt", "zoom"))
    text = (tmp_path / "c" / "annotations.csv").read_text()
    assert text.startswith("# dgme-corpus")
    assert "\r" not in text
    assert text.count("\n") == 2 + 40  # meta + header + rows


def test_make_corpus_deterministic(tmp_path):
    for name in ("a", "b"):
        synth.make_corpus(tmp_path / name, ["pan", "zoom"], 3, "historical",
                          seed=9, size=64, frames=4)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def test_historical_corpus_bytes_pinned(tmp_path):
    # recorded when degradation blurred with scipy.ndimage.gaussian_filter;
    # the shared compiled blur must give the same bytes; annotations.csv
    # carries version=, as `dgme synth` writes it
    synth.make_corpus(tmp_path / "small", list(synth.CLASSES), 2, "historical",
                      seed=9, size=64, frames=4)
    assert _tree_digest(tmp_path / "small") == (
        "c5d473e49824564491209de396af6f4d7f2b3958777be9e5cc3ff7ac9b4d385d")
    synth.make_corpus(tmp_path / "wide", ["zoom"], 1, "historical", seed=1, size=256, frames=3)
    assert _tree_digest(tmp_path / "wide") == (
        "10c587b4e5b4c25d0d861650a7440bc7d39d277378488976705e9d79e49c0f7c")


@pytest.mark.parametrize("shape", [(1, 4), (2, 5), (3, 3), (7, 9), (40, 40), (256, 256)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("sigma", [1e-16, 0.4, 0.5, 0.8, 1.2, 1.5, 2.7])
def test_gaussian_blur_matches_scipy_bit_for_bit(shape, sigma):
    # degradation's blur and, at sigma 0.5 and 1.5, the flow pyramid's
    frame = np.random.default_rng(sum(shape)).random(shape) * 255.0
    theirs = gaussian_filter(frame, sigma=sigma, mode="mirror")
    assert gaussian_blur(frame, sigma).tobytes() == theirs.tobytes()


def test_make_corpus_historical_contains_duplicate_frames(tmp_path):
    synth.make_corpus(tmp_path / "h", ["pan"], 8, "historical", seed=2, size=64, frames=8)
    found = False
    for p in sorted((tmp_path / "h").glob("*.y8seq")):
        seq = read_y8seq(p)
        for t in range(1, seq.frame_count):
            if np.array_equal(seq.frames[t], seq.frames[t - 1]):
                found = True
    assert found


def test_make_corpus_rejects_unknown_class(tmp_path):
    with pytest.raises(ValueError, match="unknown class 'roll', valid classes: static, "):
        synth.make_corpus(tmp_path / "x", ["roll"], 1, "modern", seed=0)


def test_zoom_out_canvas_bounded():
    # 48 px, 12 frames, 4 px/frame spans 7.4x the frame: inside the bound
    inside = synth.SynthSpec("zoom", frames=12, size=48, motion_magnitude=4.0,
                             direction_sign=-1)
    assert synth.make_clip(inside).frames.shape == (12, 48, 48)
    # at 32 px the same motion spans 23.7x and is refused; zooming in needs
    # no canvas growth and is not
    with pytest.raises(ValueError, match="spans 23.7x the frame, more than 8x"):
        synth.make_clip(replace(inside, size=32))
    synth.make_clip(replace(inside, size=32, direction_sign=1))


def test_translation_canvas_bounded():
    # 8 frames of 16 px at 16 px/frame span exactly 8x the frame: allowed
    edge = synth.SynthSpec("pan", frames=8, size=16, motion_magnitude=16.0)
    assert synth._canvas_margin(edge) == 116
    with pytest.raises(ValueError, match="spans 8.01x the frame, more than 8x"):
        synth._canvas_margin(replace(edge, motion_magnitude=16.02))
    # 1000 px/frame would need a 22,024 px canvas; refused before allocating
    for label in ("pan", "tilt", "track"):
        with pytest.raises(ValueError, match=f"{label} of 1000 px/frame over 12 frames"):
            synth._canvas_margin(synth.SynthSpec(label, 12, 16, 1000.0))


def test_canvas_bounded_by_the_frame_pixel_limit():
    # a 4096 px pan of 2600 px/frame over 12 frames passes the span bound,
    # and used to ask for 61,304 px float64 planes of 28 GiB each
    with pytest.raises(ValueError, match="pan clip needs a 61304x61304 texture canvas"):
        synth._canvas_margin(synth.SynthSpec("pan", 12, 4096, 2600.0))
    # a drawn static clip has a 5 px margin, so 4086 px is its largest frame,
    # and 4096 px frames are refused for every class
    static = synth.SynthSpec("static", size=4086, jitter=synth.STATIC_JITTER_MAX)
    assert synth._canvas_margin(static) == 5
    for spec in (replace(static, size=4087), synth.SynthSpec("zoom", size=4096)):
        with pytest.raises(ValueError, match="texture canvas"):
            synth._canvas_margin(spec)
