from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blurred_noise
from dgme import flow
from dgme._resample import sample_bilinear, sample_bilinear_planes
from dgme.errors import DataError
from dgme.flow import FarnebackConfig, FlowField, cart2polar, farneback_flow
from oracles import block_match_flow, sample_bilinear_2d


# ---------------------------------------------------------------------------
# cart2polar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "u, v, m, theta",
    [
        (1.0, 0.0, 1.0, 0.0),
        (3.0, 4.0, 5.0, 53.130102),
        (0.0, 0.0, 0.0, 0.0),
        (0.0, 1.0, 1.0, 90.0),   # v positive = downward = 90 degrees
        (-1.0, 0.0, 1.0, 180.0),
        (0.0, -1.0, 1.0, 270.0),
    ],
)
def test_cart2polar_cases(u, v, m, theta):
    polar = cart2polar(FlowField(np.full((2, 2), u), np.full((2, 2), v)))
    assert polar.m[0, 0] == pytest.approx(m, abs=1e-6)
    assert polar.theta[0, 0] == pytest.approx(theta, abs=1e-3)


@settings(max_examples=100, deadline=None)
@given(
    u=st.floats(-50, 50, allow_nan=False),
    v=st.floats(-50, 50, allow_nan=False),
)
def test_polar_round_trip(u, v):
    polar = cart2polar(FlowField(np.full((1, 1), u), np.full((1, 1), v)))
    m = float(polar.m[0, 0])
    th = np.radians(float(polar.theta[0, 0]))
    if m > 1e-3:
        assert m * np.cos(th) == pytest.approx(u, rel=1e-5, abs=1e-4)
        assert m * np.sin(th) == pytest.approx(v, rel=1e-5, abs=1e-4)


@settings(max_examples=100, deadline=None)
@given(
    u=st.floats(-20, 20), v=st.floats(-20, 20),
    phi=st.floats(0, 360),
)
def test_cart2polar_rotation_covariance(u, v, phi):
    if np.hypot(u, v) < 1e-3:
        return
    polar0 = cart2polar(FlowField(np.full((1, 1), u), np.full((1, 1), v)))
    rad = np.radians(phi)
    ur = u * np.cos(rad) - v * np.sin(rad)
    vr = u * np.sin(rad) + v * np.cos(rad)
    polar1 = cart2polar(FlowField(np.full((1, 1), ur), np.full((1, 1), vr)))
    assert float(polar1.m[0, 0]) == pytest.approx(float(polar0.m[0, 0]), rel=1e-5)
    diff = (float(polar1.theta[0, 0]) - float(polar0.theta[0, 0])) % 360.0
    delta = (diff - phi) % 360.0
    assert min(delta, 360.0 - delta) < 1e-2


# ---------------------------------------------------------------------------
# farneback estimator
# ---------------------------------------------------------------------------

def test_identical_frames_yield_zero_flow(texture128):
    field = farneback_flow(texture128, texture128.copy())
    assert float(np.abs(field.u).max()) < 0.05
    assert float(np.abs(field.v).max()) < 0.05


def test_flat_frames_yield_zero_not_nan():
    flat = np.full((64, 64), 77, dtype=np.uint8)
    field = farneback_flow(flat, flat.copy())
    assert np.isfinite(field.u).all() and np.isfinite(field.v).all()
    assert float(np.abs(field.u).max()) == 0.0
    assert float(np.abs(field.v).max()) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_pixel_shift_median_epe(seed):
    img = blurred_noise(seed, 128, 128)
    shifted = np.roll(img, 2, axis=1)  # content moves right by 2 px (wrap padding)
    field = farneback_flow(img, shifted)
    c = slice(16, 112)
    epe = np.hypot(field.u[c, c].astype(np.float64) - 2.0, field.v[c, c].astype(np.float64))
    assert float(np.median(epe)) < 0.3


def test_farneback_deterministic(texture128):
    shifted = np.roll(texture128, 3, axis=0)
    a = farneback_flow(texture128, shifted)
    b = farneback_flow(texture128, shifted)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


# ---------------------------------------------------------------------------
# shared-index warp and the per-frame expansion memo
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 6), w=st.integers(1, 6), n_planes=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from([0.5, 3.0, 1e3, 1e9]),
    border=st.sampled_from(["clamp", "reflect"]),
    dtype=st.sampled_from([np.float64, np.float32, np.uint8]),
)
def test_shared_index_warp_matches_per_plane_sampling(h, w, n_planes, seed, span, border,
                                                      dtype):
    # h or w of 1 or 2 collapses the 2x2 neighbourhood; a large span puts
    # coordinates far outside the frame on every side
    rng = np.random.default_rng(seed)
    if dtype == np.uint8:
        planes = [rng.integers(0, 256, size=(h, w), dtype=np.uint8) for _ in range(n_planes)]
    else:
        planes = [(rng.normal(size=(h, w)) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
                  for _ in range(n_planes)]
    ys = rng.uniform(-span, h - 1 + span, size=(h, w))
    xs = rng.uniform(-span, w - 1 + span, size=(h, w))
    shared = sample_bilinear_planes(planes, ys, xs, border)
    assert len(shared) == n_planes
    for plane, warped in zip(planes, shared):
        reference = sample_bilinear_2d(plane, ys, xs, border)
        assert np.array_equal(warped, sample_bilinear(plane, ys, xs, border))
        assert np.array_equal(warped, reference)


def test_shared_index_warp_refuses_mismatched_planes():
    with pytest.raises(ValueError, match="planes differ in shape"):
        sample_bilinear_planes([np.zeros((4, 4)), np.zeros((4, 5))],
                               np.zeros((4, 4)), np.zeros((4, 4)))


def _cold_flow(prev, nxt, cfg):
    """Flow with the expansion memo emptied first."""
    flow._last_expansion = None
    return farneback_flow(prev, nxt, cfg)


def _same_flow(a, b):
    return np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_memo_misses_on_other_frame_of_same_shape():
    f = [blurred_noise(seed, 48, 48) for seed in range(4)]
    cfg = FarnebackConfig()
    cold = _cold_flow(f[2], f[3], cfg)
    farneback_flow(f[0], f[1], cfg)  # the memo now holds f[1]
    assert _same_flow(farneback_flow(f[2], f[3], cfg), cold)
    # prev is not the frame the memo holds (f[2])
    cold = _cold_flow(f[1], f[3], cfg)
    farneback_flow(f[0], f[2], cfg)
    assert _same_flow(farneback_flow(f[1], f[3], cfg), cold)


def test_memo_misses_on_frame_mutated_in_place():
    a, b, c = (blurred_noise(seed, 48, 48) for seed in range(3))
    cfg = FarnebackConfig()
    farneback_flow(a, b, cfg)  # the memo now holds b
    b[10:20, 10:20] = 255 - b[10:20, 10:20]
    warm = farneback_flow(b, c, cfg)
    assert _same_flow(warm, _cold_flow(b, c, cfg))


@pytest.mark.parametrize("change", [
    {"poly_sigma": 1.5}, {"pyramid_levels": 2}, {"pyramid_scale": 0.6}, {"poly_n": 7},
], ids=["poly_sigma", "pyramid_levels", "pyramid_scale", "poly_n"])
def test_memo_misses_on_other_expansion_config(change):
    a, b, c = (blurred_noise(seed, 48, 48) for seed in range(3))
    base = FarnebackConfig()
    other = replace(base, **change)
    for first, second in ((base, other), (other, base)):
        farneback_flow(a, b, first)  # the memo now holds b under ``first``
        warm = farneback_flow(b, c, second)
        assert _same_flow(warm, _cold_flow(b, c, second))
        assert not _same_flow(warm, _cold_flow(b, c, first))


def test_memo_hit_equals_cold_call_and_expands_each_frame_once(monkeypatch):
    frames = [blurred_noise(seed, 40, 40) for seed in range(5)]
    cfg = FarnebackConfig()
    cold = [_cold_flow(frames[t], frames[t + 1], cfg) for t in range(4)]
    calls = []
    expand = flow._expand_frame
    monkeypatch.setattr(flow, "_expand_frame",
                        lambda frame, *rest: calls.append(1) or expand(frame, *rest))
    flow._last_expansion = None
    warm = [farneback_flow(frames[t], frames[t + 1], cfg) for t in range(4)]
    assert all(_same_flow(x, y) for x, y in zip(warm, cold))
    assert len(calls) == len(frames)


def test_farneback_size_mismatch():
    with pytest.raises(DataError, match="mismatch"):
        farneback_flow(np.zeros((8, 8), np.uint8), np.zeros((8, 9), np.uint8))


def test_farneback_frame_too_small():
    tiny = np.zeros((3, 3), np.uint8)
    with pytest.raises(DataError, match="smaller than"):
        farneback_flow(tiny, tiny)


# ---------------------------------------------------------------------------
# block matching oracle
# ---------------------------------------------------------------------------

def test_block_match_exact_integer_shift(texture128):
    # content moves by (dx, dy) = (3, -1)
    shifted = np.roll(np.roll(texture128, 3, axis=1), -1, axis=0)
    field = block_match_flow(texture128, shifted, block=8, search_radius=5)
    inner = slice(16, 112)
    assert np.all(field.u[inner, inner] == 3.0)
    assert np.all(field.v[inner, inner] == -1.0)


def test_block_match_zero_on_identical(texture128):
    field = block_match_flow(texture128, texture128.copy())
    assert np.all(field.u == 0.0) and np.all(field.v == 0.0)


def test_block_match_deterministic_beyond_radius(texture128):
    shifted = np.roll(texture128, 11, axis=1)  # beyond radius 5
    a = block_match_flow(texture128, shifted, block=8, search_radius=5)
    b = block_match_flow(texture128, shifted, block=8, search_radius=5)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_block_match_tie_break_prefers_small_displacement():
    # constant vertical stripes: shifting by the period ties with not shifting
    img = np.tile(np.array([0, 0, 255, 255], dtype=np.uint8), (16, 4))
    field = block_match_flow(img, img.copy(), block=4, search_radius=4)
    assert np.all(field.u == 0.0) and np.all(field.v == 0.0)


def test_estimators_agree_on_integer_translation(texture128):
    shifted = np.roll(texture128, 2, axis=1)
    fb = farneback_flow(texture128, shifted)
    bm = block_match_flow(texture128, shifted, block=8, search_radius=5)
    inner = slice(16, 112)
    du = fb.u[inner, inner].astype(np.float64) - bm.u[inner, inner].astype(np.float64)
    dv = fb.v[inner, inner].astype(np.float64) - bm.v[inner, inner].astype(np.float64)
    assert float(np.median(np.hypot(du, dv))) < 0.5


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_farneback_config_validation():
    with pytest.raises(ValueError):
        FarnebackConfig(pyramid_scale=1.5)
    with pytest.raises(ValueError):
        FarnebackConfig(window_size=4)
    with pytest.raises(ValueError):
        FarnebackConfig(poly_n=2)
    with pytest.raises(ValueError):
        FarnebackConfig(pyramid_levels=0)
