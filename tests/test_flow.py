import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import blurred_noise
from dgme import _resample, flow, synth
from dgme._resample import (
    box_mean1d,
    correlate1d,
    gaussian_blur,
    gaussian_kernel,
    resize_bilinear,
    resize_bilinear_planes,
    sample_bilinear_planes,
)
from dgme.errors import DataError
from dgme.flow import FlowField, cart2polar, farneback_flow
from oracles import (
    block_match_flow,
    box_mean_reflect101,
    cart2polar_per_pixel,
    flow_iteration_reference,
    poly_expand_wls,
    pyramid_reference,
    resize_bilinear_grid,
    sample_bilinear_2d,
)


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


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(h=1, w=1, seed=0)
@example(h=3, w=9, seed=1)
@example(h=12, w=12, seed=2)
def test_cart2polar_matches_per_pixel_reference(h, w, seed):
    # values on the axes, both signed zeros and the origin among random ones
    rng = np.random.default_rng(seed)
    u, v = rng.normal(0.0, 3.0, size=(2, h, w))
    axes = np.array([0.0, -0.0, 1.5, -1.5])
    pick = rng.random((2, h, w)) < 0.3
    u[pick[0]] = rng.choice(axes, size=int(pick[0].sum()))
    v[pick[1]] = rng.choice(axes, size=int(pick[1].sum()))
    field = FlowField(u, v)
    polar = cart2polar(field)
    m, theta = cart2polar_per_pixel(field.u, field.v)
    # tolerances fixed before the first run: both sides compute in float64
    # from the same float32 inputs and store float32
    np.testing.assert_allclose(polar.m, m.astype(np.float32), rtol=1e-6, atol=0)
    gap = np.abs(polar.theta.astype(np.float64) - theta.astype(np.float32)) % 360.0
    assert float(np.minimum(gap, 360.0 - gap).max()) <= 1e-4
    assert ((polar.theta >= 0.0) & (polar.theta < 360.0)).all()
    assert (polar.theta[m == 0.0] == 0.0).all()


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


# 2-frame synthetic clips with analytic flow: pans and tilts move every
# pixel by sign * magnitude px, a zoom by (x - c)(s - 1) about the centre c
_ACCURACY_CASES = (
    [(label, mag, sign) for label in ("pan", "tilt") for mag in (0.35, 1.3, 2.7, 5.5, 8.0)
     for sign in (1, -1)]
    + [("zoom", mag, sign) for mag in (0.35, 1.3, 2.7) for sign in (1, -1)]
)
# fixed before the suite was first run: far below the 0.5 px static
# threshold and the 30 degree bins
MAX_MEDIAN_EPE = 0.1


@pytest.mark.parametrize("label, mag, sign", _ACCURACY_CASES)
def test_sub_pixel_and_large_motion_median_epe(label, mag, sign):
    size, margin = 96, 16
    c = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    if label == "pan":
        u_true, v_true = np.full_like(xx, sign * mag), np.zeros_like(yy)
    elif label == "tilt":
        u_true, v_true = np.zeros_like(xx), np.full_like(yy, sign * mag)
    else:
        s = 1.0 + sign * mag / (size / 2.0)
        u_true, v_true = (xx - c) * (s - 1.0), (yy - c) * (s - 1.0)
    inner = slice(margin, size - margin)
    for seed in (1, 2, 3):
        clip = synth.make_clip(synth.SynthSpec(label, frames=2, size=size, motion_magnitude=mag,
                                               direction_sign=sign, texture_seed=seed))
        field = farneback_flow(clip.frames[0], clip.frames[1])
        epe = np.hypot(field.u.astype(np.float64) - u_true, field.v.astype(np.float64) - v_true)
        median = float(np.median(epe[inner, inner]))
        assert median <= MAX_MEDIAN_EPE, f"texture seed {seed}: median EPE {median:.4f} px"


# sha256 of farneback_flow's float32 u and v bytes for one synthetic pair
# per size, and of the float64 (u, v) of every fixed-point iteration in
# call order: a last-bit change in the solve seldom crosses a float32
# rounding boundary, so the float32 digests alone miss, for example, a
# swap of the two additions into db1
_GOLDEN_FLOW_SHA256 = {
    ("zoom", 96, 2.0, 1, 3): (
        "95c8d71612e9656b226f61a7b17782348c8c0c5f99673d7ac87cc2aeff8c4afa",
        "7f58e2a89fef121b99d3d0ecbfdb996ae37d5382bb16ac9ecb39c42d9d4b7889",
        "799eadd65779125da739e5470f25de0161f84fbfb7a465e5f926fa1b36473c01",
    ),
    ("pan", 224, 1.7, -1, 5): (
        "fb60276dee745b22bf0ab50c308037813cb3ae1b8ac14f596e2e85a5406be4c4",
        "e09a438826936f8714dc6e87c3b70e53bc56b253bca184215ffe11583c24e949",
        "f09a3ad4e7cf6864771fdd58db9ee8dbaac03db8192e5ce51dc5f4d648681c7f",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_FLOW_SHA256), ids=lambda c: f"{c[0]}-{c[1]}")
def test_golden_flow_bits(case, monkeypatch):
    label, size, mag, sign, seed = case
    clip = synth.make_clip(synth.SynthSpec(label, frames=2, size=size, motion_magnitude=mag,
                                           direction_sign=sign, texture_seed=seed))
    iterations = hashlib.sha256()
    iterate = flow._flow_iteration

    def recording(*args):
        u, v = iterate(*args)
        iterations.update(u.tobytes())
        iterations.update(v.tobytes())
        return u, v

    monkeypatch.setattr(flow, "_flow_iteration", recording)
    field = farneback_flow(clip.frames[0], clip.frames[1])
    assert field.u.dtype == field.v.dtype == np.float32
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (field.u, field.v))
    assert digests + (iterations.hexdigest(),) == _GOLDEN_FLOW_SHA256[case]


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
    dtype=st.sampled_from([np.float64, np.float32, np.uint8]),
)
def test_shared_index_warp_matches_per_plane_sampling(h, w, n_planes, seed, span, dtype):
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
    shared = sample_bilinear_planes(planes, ys, xs)
    assert len(shared) == n_planes
    for plane, warped in zip(planes, shared):
        reference = sample_bilinear_2d(plane, ys, xs)
        assert np.array_equal(warped, sample_bilinear_planes((plane,), ys, xs)[0])
        assert np.array_equal(warped, reference)


@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(1, 12), w=st.integers(1, 12),
    out_h=st.integers(1, 12), out_w=st.integers(1, 12),
    n_planes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["float64", "uint8", "uint8-as-float64"]),
)
def test_separable_resize_matches_full_grid_resize(h, w, out_h, out_w, n_planes, seed, kind):
    # sizes from 1 to 12 cover up- and downsizing, the same shape, and an
    # h or w of 1, where the 2-sample neighbourhood collapses
    rng = np.random.default_rng(seed)
    if kind == "float64":
        planes = [rng.normal(size=(h, w)) * 10.0 ** rng.integers(-3, 4) for _ in range(n_planes)]
    else:
        planes = [rng.integers(0, 256, size=(h, w), dtype=np.uint8) for _ in range(n_planes)]
        if kind == "uint8-as-float64":
            planes = [p.astype(np.float64) for p in planes]
    shared = resize_bilinear_planes(planes, out_h, out_w)
    assert len(shared) == n_planes
    for plane, resized in zip(planes, shared):
        reference = resize_bilinear_grid(plane, out_h, out_w)
        single = resize_bilinear(plane, out_h, out_w)
        assert resized.dtype == single.dtype == reference.dtype
        assert resized.tobytes() == reference.tobytes()
        assert single.tobytes() == reference.tobytes()


@settings(max_examples=60, deadline=None)
@given(h=st.integers(flow.POLY_N, 40), w=st.integers(flow.POLY_N, 40),
       n_planes=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@example(h=5, w=5, n_planes=5, seed=3)
@example(h=5, w=6, n_planes=2, seed=4)
@example(h=7, w=7, n_planes=5, seed=0)
@example(h=7, w=40, n_planes=1, seed=1)
@example(h=14, w=15, n_planes=2, seed=2)
def test_window_mean_matches_per_pixel_reflect101_box(h, w, n_planes, seed):
    # farneback_flow takes frames down to POLY_N (5) px, and level 0 is the
    # frame itself; below the 15 px window the reflection folds back on
    # itself more than once
    assert flow.WINDOW_KIND == "box"
    planes = np.random.default_rng(seed).normal(size=(n_planes, h, w))
    expected = box_mean_reflect101(planes, flow.WINDOW_SIZE)
    out = flow._window_mean(planes)
    assert out is planes
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 13), w=st.integers(1, 13), seed=st.integers(0, 2**32 - 1))
@example(h=1, w=1, seed=0)
@example(h=1, w=7, seed=1)
@example(h=4, w=2, seed=2)
@example(h=11, w=13, seed=3)
def test_poly_expand_matches_per_pixel_least_squares(h, w, seed):
    # pyramid levels go down to POLY_N + 2 px; planes narrower than the
    # 5-tap applicability reflect more than once, and a 1 px axis has one
    # sample. Tolerance fixed before the first run, on 8-bit-range planes
    img = np.random.default_rng(seed).uniform(0.0, 255.0, size=(h, w))
    expected = poly_expand_wls(img, flow.POLY_N, flow.POLY_SIGMA)
    for got, want in zip(flow._poly_expand(img), expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("shape", [(14, 15), (28, 30), (33, 45)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_expand_frame_pyramid_matches_per_pixel_blur_and_resize(shape, monkeypatch):
    # two and three levels, odd sides whose halves round to even, and the
    # 13-tap level-2 blur reaching past the border. Tolerance fixed before
    # the first run, on 8-bit frames
    frame = np.random.default_rng(sum(shape)).integers(0, 256, size=shape, dtype=np.uint8)
    images = []
    expand = flow._poly_expand
    monkeypatch.setattr(flow, "_poly_expand", lambda img: images.append(img.copy()) or expand(img))
    flow._expand_frame(frame)
    expected = pyramid_reference(frame, flow.PYRAMID_LEVELS, flow.PYRAMID_SCALE, flow.POLY_N + 2)
    assert [img.shape for img in images] == [img.shape for img in expected]
    for got, want in zip(images, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_pyramid_sizes_written_out():
    # three levels at half scale, rounded half to even, down to POLY_N + 2 px
    assert flow._pyramid_sizes(96, 96) == [(96, 96), (48, 48), (24, 24)]
    assert flow._pyramid_sizes(224, 224) == [(224, 224), (112, 112), (56, 56)]
    assert flow._pyramid_sizes(13, 30) == [(13, 30)]
    frame = np.zeros((40, 33), dtype=np.uint8)
    assert [exp[0].shape for exp in flow._expand_frame(frame)] == [(40, 33), (20, 16), (10, 8)]


@pytest.mark.parametrize("shape, contrast", [((5, 5), 255.0), ((7, 16), 1.0), ((12, 14), 255.0),
                                             ((20, 23), 4.0)],
                         ids=["5x5", "7x16-low-contrast", "12x14", "20x23-low-contrast"])
def test_flow_iteration_matches_per_pixel_warp_and_cramer_solve(shape, contrast):
    # planes narrower than the 15 px window, and warps past every border;
    # at low contrast the regulariser is a large part of the determinant.
    # The 15 px window and the 1e-3 regulariser are written out, and the
    # tolerances were fixed before the first run
    rng = np.random.default_rng(sum(shape))
    exp1, exp2 = (flow._poly_expand(frame)
                  for frame in rng.uniform(0.0, contrast, size=(2,) + shape))
    u, v = rng.normal(0.0, 2.0, size=(2,) + shape)
    work = np.empty((flow._WORK_PLANES,) + shape)
    index = np.empty(shape, dtype=np.int64)
    got = flow._flow_iteration(exp1, exp2, u, v, work, index, (np.empty(shape), np.empty(shape)))
    want = flow_iteration_reference(exp1, exp2, u, v, 15, 1e-3)
    for plane, reference in zip(got, want):
        np.testing.assert_allclose(plane, reference, rtol=1e-9, atol=1e-9)


# level 0's mean |last step| of u and v on clean 96 px clips at 2 px/frame
# measured 2.0-2.9e-3 px with three iterations and 0.04-0.14 px with one;
# fixed before the first run
MAX_LAST_STEP = 0.01


@pytest.mark.parametrize("label", ["pan", "tilt", "zoom"])
def test_level_zero_last_iteration_converges(label, monkeypatch):
    steps = []
    iterate = flow._flow_iteration

    def recorded(exp1, exp2, u, v, work, index, out):
        before = u.copy(), v.copy()
        new = iterate(exp1, exp2, u, v, work, index, out)
        steps.append((u.shape, [float(np.abs(n - b).mean()) for n, b in zip(new, before)]))
        return new

    monkeypatch.setattr(flow, "_flow_iteration", recorded)
    for seed in (1, 2, 3):
        clip = synth.make_clip(synth.SynthSpec(label, frames=2, size=96, motion_magnitude=2.0,
                                               direction_sign=1, texture_seed=seed))
        steps.clear()
        farneback_flow(clip.frames[0], clip.frames[1])
        shape, last = steps[-1]
        assert shape == (96, 96)
        assert max(last) <= MAX_LAST_STEP, f"texture seed {seed}: mean last step {last} px"


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 4), (7, 14), (15, 16), (40, 33)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_compiled_filters_match_public_scipy_bit_for_bit(shape):
    # the filters call scipy's private compiled module with the argument
    # order of scipy 1.17.1; the public functions check them (gaussian_blur
    # in test_synth). Planes narrower than the 15 px box and 1 px wide fold
    # their reflect-101 borders again and again
    rng = np.random.default_rng(sum(shape))
    img = rng.random(shape) * 255.0
    x = np.arange(-2.0, 3.0)
    g = gaussian_kernel(2, flow.POLY_SIGMA)
    for weights in (g, x * g, x * x * g, rng.normal(size=7)):
        for axis in (0, 1):
            theirs = scipy.ndimage.correlate1d(img, weights, axis=axis, mode="mirror")
            ours = correlate1d(img, weights, axis, np.empty(shape))
            assert ours.tobytes() == theirs.tobytes()
            in_place = img.copy()
            assert correlate1d(in_place, weights, axis, in_place) is in_place
            assert in_place.tobytes() == theirs.tobytes()
    planes = rng.normal(size=(3,) + shape)
    for axis in (1, 2):
        theirs = scipy.ndimage.uniform_filter1d(planes, 15, axis=axis, mode="mirror")
        assert box_mean1d(planes, 15, axis, np.empty(planes.shape)).tobytes() == theirs.tobytes()


def test_missing_compiled_filters_name_the_directory_searched(monkeypatch):
    monkeypatch.setattr(_resample, "EXTENSION_SUFFIXES", [".missing"])
    _resample._nd_image.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"\(_nd_image\) not found in .*/scipy/ndimage$"):
            gaussian_blur(np.ones((3, 3)), 1.0)
    finally:
        _resample._nd_image.cache_clear()


@settings(max_examples=200, deadline=None)
@given(
    shape1=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    shape2=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    n_planes=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from([0.5, 3.0, 1e3, 1e9]),
)
def test_warp_into_reused_workspace_matches_allocating_warp(shape1, shape2, n_planes, seed, span):
    # as farneback_flow's levels do, two warps of different shapes write
    # into leading views of one larger buffer; the second one meets what
    # the first left there, and the buffer starts out as NaN
    assume(shape1 != shape2)
    rng = np.random.default_rng(seed)
    buf = np.full((n_planes + 6) * 36, np.nan)
    index_buf = np.full(36, -(2**62), dtype=np.int64)
    for h, w in (shape1, shape2):
        planes = [rng.normal(size=(h, w)) * 10.0 ** rng.integers(-3, 4) for _ in range(n_planes)]
        ys = rng.uniform(-span, h - 1 + span, size=(h, w))
        xs = rng.uniform(-span, w - 1 + span, size=(h, w))
        views = buf[: (n_planes + 6) * h * w].reshape(n_planes + 6, h, w)
        out, work = views[:n_planes], views[n_planes:]
        # the coordinates sit in the scratch's first two planes, where the
        # flow writes them
        work[0], work[1] = ys, xs
        index = index_buf[: h * w].reshape(h, w)
        reused = sample_bilinear_planes(planes, work[0], work[1], out, work, index)
        assert reused is out
        allocating = sample_bilinear_planes(planes, ys, xs)
        for plane, warped, fresh in zip(planes, reused, allocating):
            reference = sample_bilinear_2d(plane, ys, xs)
            assert warped.tobytes() == fresh.tobytes() == reference.tobytes()


def test_flow_iteration_allocates_under_four_planes(monkeypatch):
    # every intermediate of an iteration lives in farneback_flow's per-call
    # workspace; without it an iteration allocated about 24 planes
    clip = synth.make_clip(synth.SynthSpec("zoom", frames=2, size=96, motion_magnitude=2.0,
                                           direction_sign=1, texture_seed=3))
    prev, nxt = clip.frames
    farneback_flow(prev, nxt)  # warms the memo, the imports and numpy's caches
    iterate = flow._flow_iteration
    planes = []

    def measured(*args):
        u = args[2]
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = iterate(*args)
        planes.append((tracemalloc.get_traced_memory()[1] - base) / u.nbytes)
        return result

    monkeypatch.setattr(flow, "_flow_iteration", measured)
    tracemalloc.start()
    try:
        farneback_flow(prev, nxt)
    finally:
        tracemalloc.stop()
    assert len(planes) == flow.PYRAMID_LEVELS * flow.ITERATIONS
    assert max(planes) < 4, planes


def test_shared_index_warp_refuses_mismatched_planes():
    with pytest.raises(ValueError, match="planes differ in shape"):
        sample_bilinear_planes([np.zeros((4, 4)), np.zeros((4, 5))],
                               np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="planes differ in shape"):
        resize_bilinear_planes([np.zeros((4, 4)), np.zeros((4, 5))], 4, 4)


def _cold_flow(prev, nxt):
    """Flow with the expansion memo emptied first."""
    flow._last_expansion = None
    return farneback_flow(prev, nxt)


def _same_flow(a, b):
    return np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


def test_memo_misses_on_other_frame_of_same_shape():
    f = [blurred_noise(seed, 48, 48) for seed in range(4)]
    cold = _cold_flow(f[2], f[3])
    farneback_flow(f[0], f[1])  # the memo now holds f[1]
    assert _same_flow(farneback_flow(f[2], f[3]), cold)
    # prev is not the frame the memo holds (f[2])
    cold = _cold_flow(f[1], f[3])
    farneback_flow(f[0], f[2])
    assert _same_flow(farneback_flow(f[1], f[3]), cold)


def test_memo_misses_on_frame_mutated_in_place():
    a, b, c = (blurred_noise(seed, 48, 48) for seed in range(3))
    farneback_flow(a, b)  # the memo now holds b
    b[10:20, 10:20] = 255 - b[10:20, 10:20]
    warm = farneback_flow(b, c)
    assert _same_flow(warm, _cold_flow(b, c))


def test_memo_hit_equals_cold_call_and_expands_each_frame_once(monkeypatch):
    frames = [blurred_noise(seed, 40, 40) for seed in range(5)]
    cold = [_cold_flow(frames[t], frames[t + 1]) for t in range(4)]
    calls = []
    expand = flow._expand_frame
    monkeypatch.setattr(flow, "_expand_frame",
                        lambda frame, *rest: calls.append(1) or expand(frame, *rest))
    flow._last_expansion = None
    warm = [farneback_flow(frames[t], frames[t + 1]) for t in range(4)]
    assert all(_same_flow(x, y) for x, y in zip(warm, cold))
    assert len(calls) == len(frames)


def test_repeated_frames_skip_the_solve_with_the_same_bytes(monkeypatch):
    # a degraded clip realizes its frame drops as repeats of the last frame
    clip = synth.degrade_clip(
        synth.make_clip(synth.SynthSpec("zoom", frames=8, size=48, texture_seed=4)),
        synth.DegradeSpec(noise_sigma=4.0, blur_sigma=0.9, contrast_scale=0.7,
                          flicker_amp=5.0, drop_prob=0.5, rng_seed=3))
    pairs = list(zip(clip.frames[:-1], clip.frames[1:]))
    repeated = [np.array_equal(prev, nxt) for prev, nxt in pairs]
    assert any(repeated) and not all(repeated)

    iterations = []
    iterate = flow._flow_iteration
    monkeypatch.setattr(flow, "_flow_iteration",
                        lambda *args: iterations.append(1) or iterate(*args))
    fast = []
    for (prev, nxt), repeat in zip(pairs, repeated):
        iterations.clear()
        fast.append(farneback_flow(prev, nxt))
        assert (len(iterations) == 0) == repeat

    monkeypatch.setattr(flow.np, "array_equal", lambda a, b: False)
    for (prev, nxt), field in zip(pairs, fast):
        full = _cold_flow(prev, nxt)
        assert field.u.tobytes() == full.u.tobytes()
        assert field.v.tobytes() == full.v.tobytes()


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
