import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgme.descriptor
from dgme import synth
from dgme.descriptor import (
    DgmeConfig,
    NormStats,
    apply_zscore,
    cell_histogram,
    compute_dgme,
    config_hash,
    descriptor_from_polar,
    fit_stats,
    grid_cells,
    read_features_csv,
    read_stats_json,
    write_features_csv,
    write_stats_json,
)
from dgme.errors import DataError, NumericError
from dgme.flow import FarnebackConfig, PolarFlow
from oracles import block_match_descriptor

CFG = DgmeConfig()


def _polar(m, theta):
    return PolarFlow(np.asarray(m, dtype=np.float64), np.asarray(theta, dtype=np.float64))


def _random_polar(rng, h=12, w=12, above_only=False):
    m = rng.uniform(0.0, 4.0, size=(h, w))
    if above_only:
        m = rng.uniform(0.6, 4.0, size=(h, w))
    # keep angles away from bin boundaries so float arithmetic cannot
    # move a sample across an edge
    theta = rng.integers(0, 12, size=(h, w)) * 30.0 + rng.uniform(0.5, 29.5, size=(h, w))
    return _polar(m, theta)


# ---------------------------------------------------------------------------
# cell histograms
# ---------------------------------------------------------------------------

def test_single_pixel_above_threshold():
    m = np.zeros((4, 4))
    theta = np.zeros((4, 4))
    m[1, 1] = 2.0
    theta[1, 1] = 45.0
    hist = cell_histogram(_polar(m, theta), (0, 4, 0, 4), CFG)
    assert hist[1] == pytest.approx(2.0)
    assert hist[12] == pytest.approx(0.5 * 15)  # remaining 15 pixels sub-threshold
    assert hist[[0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]].sum() == 0.0


def test_all_below_threshold():
    hist = cell_histogram(_polar(np.full((5, 5), 0.1), np.zeros((5, 5))), (0, 5, 0, 5), CFG)
    assert hist[12] == pytest.approx(0.5 * 25)
    assert hist[:12].sum() == 0.0


def test_boundary_angle_convention():
    m = np.zeros((1, 2))
    theta = np.zeros((1, 2))
    m[0, 0], theta[0, 0] = 1.0, 0.0     # bin 0
    m[0, 1], theta[0, 1] = 3.0, 359.0   # bin 11
    hist = cell_histogram(_polar(m, theta), (0, 1, 0, 2), CFG)
    assert hist[0] == pytest.approx(1.0)
    assert hist[11] == pytest.approx(3.0)


def test_angle_360_wraps_to_bin_zero():
    hist = cell_histogram(_polar([[1.0]], [[360.0]]), (0, 1, 0, 1), CFG)
    assert hist[0] == pytest.approx(1.0)


def test_cell_region_bounds_checked():
    with pytest.raises(ValueError, match="outside frame"):
        cell_histogram(_polar(np.zeros((4, 4)), np.zeros((4, 4))), (0, 5, 0, 4), CFG)


def test_grid_cells_remainder_absorbed_by_last():
    cells = grid_cells(10, 11, 3)
    assert len(cells) == 9
    assert cells[0] == (0, 3, 0, 3)
    assert cells[8] == (6, 10, 6, 11)  # last row/col take the remainder


# ---------------------------------------------------------------------------
# clip descriptors
# ---------------------------------------------------------------------------

def test_descriptor_length_default():
    assert CFG.length == 117


def test_identical_frames_all_static_mass():
    frames = np.tile(np.arange(15, dtype=np.uint8).reshape(1, 15, 1), (3, 1, 15))
    seq_frames = np.ascontiguousarray(frames)
    from dgme.videoio import FrameSequence

    seq = FrameSequence(seq_frames, "still")
    desc = compute_dgme(seq, CFG, FarnebackConfig())
    cells = desc.reshape(9, 13)
    assert np.all(cells[:, :12] == 0.0)
    # 15x15 frame over a 3x3 grid: all cells 5x5, equal static mass
    assert np.allclose(cells[:, 12], cells[0, 12])
    assert np.linalg.norm(desc) == pytest.approx(1.0, abs=1e-6)


def test_pan_right_clip_block_oracle_argmax_bin_zero():
    spec = synth.SynthSpec("pan", frames=6, size=96, motion_magnitude=2.0,
                           direction_sign=1, texture_seed=5)
    clip = synth.make_clip(spec)
    desc = block_match_descriptor(clip, CFG)
    cells = desc.reshape(9, 13)
    assert np.all(cells[:, :12].argmax(axis=1) == 0)


@pytest.mark.parametrize("label,sign,bin_", [("pan", 1, 0), ("pan", -1, 6),
                                             ("tilt", 1, 3), ("tilt", -1, 9)])
def test_integer_shift_clips_concentrate_directional_mass(label, sign, bin_):
    # integer translation magnitudes give the oracle exactly on-axis flow
    spec = synth.SynthSpec(label, frames=6, size=96, motion_magnitude=3.0,
                           direction_sign=sign, texture_seed=11)
    clip = synth.make_clip(spec)
    desc = block_match_descriptor(clip, CFG)
    cells = desc.reshape(9, 13)
    directional = cells[:, :12].sum()
    assert cells[:, bin_].sum() / directional >= 0.99


def test_zero_magnitude_threshold_zero_flow_gives_zero_vector():
    cfg = DgmeConfig(magnitude_threshold=0.0)
    fields = [_polar(np.zeros((6, 6)), np.zeros((6, 6)))]
    desc = descriptor_from_polar(fields, cfg)
    assert np.all(desc == 0.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_unit_norm_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    fields = [_random_polar(rng) for _ in range(rng.integers(1, 4))]
    desc = descriptor_from_polar(fields, CFG)
    assert np.all(desc >= 0.0)
    assert np.linalg.norm(desc) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_bin_rotation_equivariance(seed):
    rng = np.random.default_rng(seed)
    polar = _random_polar(rng, above_only=True)
    rotated = _polar(polar.m.copy(), (polar.theta.astype(np.float64) + 30.0) % 360.0)
    base = descriptor_from_polar([polar], CFG).reshape(9, 13)
    rot = descriptor_from_polar([rotated], CFG).reshape(9, 13)
    assert np.allclose(rot[:, :12], np.roll(base[:, :12], 1, axis=1))
    assert np.allclose(rot[:, 12], base[:, 12])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_threshold_monotonicity(seed):
    rng = np.random.default_rng(seed)
    polar = _random_polar(rng)
    lo = DgmeConfig(magnitude_threshold=0.3)
    hi = DgmeConfig(magnitude_threshold=1.1)
    cell = (0, polar.height, 0, polar.width)
    h_lo = cell_histogram(polar, cell, lo)
    h_hi = cell_histogram(polar, cell, hi)
    assert np.all(h_hi[:12] <= h_lo[:12] + 1e-12)
    assert h_hi[12] >= h_lo[12] - 1e-12


def test_pair_count_independence_under_stationarity():
    rng = np.random.default_rng(9)
    polar = _random_polar(rng)
    one = descriptor_from_polar([polar], CFG)
    many = descriptor_from_polar([polar] * 7, CFG)
    assert np.allclose(one, many, atol=1e-12)


# compute_dgme of one synthetic zoom clip (12 frames, 96 px, texture seed 3)
# as %.9g text: 9 grid cells of 12 directional bins and one static bin each,
# recorded with the per-pair expansion and the per-plane warp
GOLDEN_ZOOM_96 = """
0 0 0 0 0 0 0.0565018624 0.413715655 0.0777003322 0.000767245985 0.000100767682 0
0.000388399001 0 0 0 0 0 0 0.000341183585 0.0135317632 0.186065388 0.172295017
0.0164025391 0.000817186712 0.00295460669 0.000187470567 0 0 0 0 0 0 0.000216751449
0.000626146556 0.0662985835 0.440356809 0.0529038741 0 0 0 5.99126527e-05 0.00238251766
0.0231236029 0.167995713 0.192331084 0.0145931126 0.0013778338 0 0 0 0.00159521018
0.00359351889 0.0189156394 0.00469948851 0.00356250634 0.0197734683 0.00340786092
0.00517155745 0.0165558456 0.00866671292 0.00625514495 0.0166267145 0.00600980935
0.0688298516 0.170698526 0.0168557429 0.00490500859 0 0 0 0 0 0 0.000563105279
0.0156026795 0.198322457 5.54855716e-05 0 0 0.00033842884 0.0614125566 0.413076901
0.0611612529 0.00177356254 0 0 0 0 3.20165783e-05 0.0015674674 0.00521648769
0.0172135198 0.165692984 0.190213564 0.0196905533 0.0010259908 0 0 0 0 0 0 0.00144262486
0.0564973993 0.400718563 0.0786841278 0.00236381949 0.000119281372 5.59951562e-05 0 0 0
0 0 0 0.00119293979
"""


def test_golden_descriptor_text_of_synthetic_zoom_clip():
    clip = synth.make_clip(synth.SynthSpec("zoom", frames=12, size=96,
                                           motion_magnitude=2.0, texture_seed=3))
    desc = compute_dgme(clip, CFG)
    assert ["%.9g" % x for x in desc] == GOLDEN_ZOOM_96.split()


def test_compute_dgme_calls_flow_and_polar_once_per_frame_pair(monkeypatch):
    # perfbench's tracer wraps these two module attributes and reads the
    # frame size from the first argument: batching the pairs would break it
    calls = {"farneback_flow": [], "cart2polar": []}
    for name in calls:
        fn = getattr(dgme.descriptor, name)
        monkeypatch.setattr(dgme.descriptor, name,
                            lambda *a, _fn=fn, _log=calls[name]: _log.append(a) or _fn(*a))
    frames = 5
    clip = synth.make_clip(synth.SynthSpec("pan", frames=frames, size=32, texture_seed=1))
    compute_dgme(clip, CFG)
    assert len(calls["farneback_flow"]) == len(calls["cart2polar"]) == frames - 1
    for t, (prev, nxt, _cfg) in enumerate(calls["farneback_flow"]):
        assert prev.shape == nxt.shape == (32, 32)
        assert np.array_equal(prev, clip.frames[t]) and np.array_equal(nxt, clip.frames[t + 1])
    for (field,) in calls["cart2polar"]:
        assert field.u.shape == (32, 32)


# ---------------------------------------------------------------------------
# calibration statistics
# ---------------------------------------------------------------------------

def _desc(values):
    return np.asarray(values, dtype=np.float64)


def test_fit_stats_two_point():
    a = np.array([1.0, 2.0, 5.0])
    b = np.array([3.0, 2.0, 1.0])
    stats = fit_stats(np.stack([_desc(a), _desc(b)]), "hash")
    assert np.allclose(stats.mean, (a + b) / 2)
    assert np.allclose(stats.std, np.abs(a - b) / 2)  # population std, divisor N
    assert stats.source_count == 2


def test_fit_stats_identical_gives_zero_std():
    a = np.array([0.5, 0.25])
    stats = fit_stats(np.stack([_desc(a), _desc(a.copy())]), "hash")
    assert np.all(stats.std == 0.0)


def test_fit_stats_needs_two():
    with pytest.raises(DataError, match=">= 2"):
        fit_stats(np.stack([_desc([1.0])]), "hash")


def test_zscore_of_mean_is_zero():
    a, b = np.array([1.0, 4.0]), np.array([3.0, 4.0])
    stats = fit_stats(np.stack([_desc(a), _desc(b)]), "hash")
    out = apply_zscore(_desc((a + b) / 2), stats)
    assert np.allclose(out, 0.0)


def test_zscore_zero_variance_dimension_floors_to_zero():
    a = np.array([1.0, 7.0])
    stats = fit_stats(np.stack([_desc(a), _desc(a.copy())]), "hash")
    out = apply_zscore(_desc(a), stats)
    assert np.all(out == 0.0)


def test_self_calibration_property():
    rng = np.random.default_rng(12)
    descs = [_desc(rng.uniform(0, 1, size=40)) for _ in range(50)]
    stats = fit_stats(np.stack(descs), "hash")
    calibrated = np.stack([apply_zscore(d, stats) for d in descs])
    live = stats.std > 1e-8
    assert np.all(np.abs(calibrated.mean(axis=0)[live]) < 1e-9)
    assert np.allclose(calibrated.std(axis=0)[live], 1.0, atol=1e-6)


def test_zscore_matrix_matches_rows_bit_for_bit():
    rng = np.random.default_rng(13)
    matrix = rng.uniform(0, 1, size=(20, 117))
    rows = [4, 0, 17, 9, 9, 12]
    stats = fit_stats(matrix[rows], "hash")
    stacked = np.stack([matrix[i] for i in rows])
    assert np.array_equal(stats.mean, stacked.mean(axis=0))
    assert np.array_equal(stats.std, stacked.std(axis=0))
    assert np.array_equal(apply_zscore(matrix, stats),
                          np.stack([apply_zscore(row, stats) for row in matrix]))


def test_zscore_length_mismatch():
    stats = fit_stats(np.stack([_desc([1.0, 2.0]), _desc([2.0, 3.0])]), "hash")
    with pytest.raises(DataError, match="length"):
        apply_zscore(np.zeros(3), stats)


def test_config_hash_sensitivity():
    base = config_hash(DgmeConfig(), FarnebackConfig())
    assert base == config_hash(DgmeConfig(), FarnebackConfig())
    assert base != config_hash(DgmeConfig(magnitude_threshold=0.6), FarnebackConfig())
    assert base != config_hash(DgmeConfig(), FarnebackConfig(window_size=13))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    descs = [_desc(rng.uniform(0, 1, size=5)) for _ in range(3)]
    labels = ["pan", "tilt", "pan"]
    path = tmp_path / "f.csv"
    write_features_csv(path, ["c0", "c1", "c2"], labels, np.stack(descs),
                       {"version": "0.1.0", "seed": 7, "config_hash": "hash"})
    meta, ids, labs, mat = read_features_csv(path)
    assert meta["seed"] == "7" and meta["config_hash"] == "hash"
    assert ids == ["c0", "c1", "c2"] and labs == labels
    # 9 significant digits survive the round trip at that precision
    assert np.allclose(mat, np.stack(descs), rtol=1e-8)
    first_line = path.read_text().splitlines()[0]
    assert first_line.startswith("# dgme-features")


def test_features_csv_refuses_non_finite_row(tmp_path):
    matrix = np.array([[0.1, 0.2], [np.nan, 0.3], [np.inf, 0.4]])
    with pytest.raises(NumericError, match="clip b$"):
        write_features_csv(tmp_path / "f.csv", ["a", "b", "c"], ["pan"] * 3, matrix, {})
    assert not (tmp_path / "f.csv").exists()


def test_stats_json_refuses_non_finite(tmp_path):
    stats = NormStats(np.array([1.0, np.inf]), np.ones(2), 2, "hash")
    with pytest.raises(NumericError, match="non-finite"):
        write_stats_json(tmp_path / "s.json", stats, {})
    assert not (tmp_path / "s.json").exists()
    # 1e999 parses to inf, so the reader checks after parsing too
    path = tmp_path / "big.json"
    path.write_text('{"config_hash": "h", "count": 2, "mean": [1e999], "std": [1.0]}')
    with pytest.raises(DataError, match="non-finite"):
        read_stats_json(path)


def test_stats_json_round_trip(tmp_path):
    stats = fit_stats(np.stack([_desc([1.0, 2.0]), _desc([2.0, 5.0])]), "hash")
    path = tmp_path / "s.json"
    write_stats_json(path, stats, {"version": "0.1.0", "seed": 1})
    back, meta = read_stats_json(path)
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.std, stats.std)
    assert back.source_count == 2 and back.config_hash == "hash"
    assert meta["seed"] == 1
