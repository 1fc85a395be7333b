import json

import numpy as np
import pytest

import dgme.model
from dgme.errors import DataError, NumericError
from dgme.model import (
    FusionHeadParams,
    LabeledFeatures,
    StubEmbeddingProvider,
    TrainConfig,
    _standardize,
    backward,
    cosine_lr,
    init_params,
    load_model_json,
    predict,
    save_model_json,
    softmax,
    train,
    write_training_log,
)
from dgme.videoio import FrameSequence


def _params(rng, num_classes=3, c=4, d=6, alpha=None):
    p = init_params([f"k{i}" for i in range(num_classes)], c, d, seed=int(rng.integers(1 << 30)))
    p.alpha = float(rng.uniform(0.3, 1.8)) if alpha is None else alpha
    p.ln_gain = rng.normal(1.0, 0.3, size=d)
    p.ln_bias = rng.normal(0.0, 0.3, size=d)
    p.W = rng.normal(0.0, 0.5, size=(num_classes, c + d))
    p.b = rng.normal(0.0, 0.2, size=num_classes)
    return p


def _probs(e, d, params):
    """Class probabilities of one clip, read back from the per-label loss."""
    k = len(params.class_names)
    losses = [backward(np.atleast_2d(e), np.atleast_2d(d), np.array([c]), params)[0]
              for c in range(k)]
    return np.exp(-np.array(losses))


def _one_clip(e, d):
    return LabeledFeatures(np.atleast_2d(d), np.zeros(1), backbone=np.atleast_2d(e))


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_input_is_zero():
    assert np.allclose(_standardize(np.full(8, 3.5)), 0.0)


def test_layer_norm_already_standardized(monkeypatch):
    monkeypatch.setattr(dgme.model, "LAYER_NORM_EPS", 1e-300)
    x = np.array([1.0, -1.0])
    assert np.allclose(_standardize(x), x, atol=1e-9)


def test_layer_norm_output_mean_zero():
    rng = np.random.default_rng(0)
    assert abs(_standardize(rng.normal(size=32)).mean()) < 1e-9


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_zero_weights_give_uniform_probs():
    p = init_params([f"c{i}" for i in range(5)], 2, 4, seed=0)
    p.W = np.zeros_like(p.W)
    p.b = np.zeros_like(p.b)
    assert np.allclose(_probs(np.ones(2), np.arange(4.0), p), 0.2)


def test_alpha_zero_gates_out_descriptor():
    rng = np.random.default_rng(1)
    p = _params(rng, alpha=0.0)
    e = rng.normal(size=4)
    a = _probs(e, rng.normal(size=6), p)
    b = _probs(e, rng.normal(size=6), p)
    assert np.allclose(a, b)


def test_constant_descriptor_matches_alpha_zero():
    rng = np.random.default_rng(2)
    p = _params(rng, alpha=1.7)
    # with a constant descriptor, LN outputs ln_bias regardless of the value,
    # so predictions change only through the fixed bias contribution
    e = rng.normal(size=4)
    a = _probs(e, np.full(6, 9.0), p)
    b = _probs(e, np.full(6, -3.0), p)
    assert np.allclose(a, b)


def test_softmax_properties():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(10, 5)) * 10
    probs = softmax(logits)
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    shifted = softmax(logits + 123.456)
    assert np.allclose(probs, shifted, atol=1e-9)


def test_argmax_invariant_to_joint_positive_scaling():
    rng = np.random.default_rng(4)
    p = _params(rng)
    scaled = p.copy()
    scaled.W = p.W * 3.7
    scaled.b = p.b * 3.7
    feats = LabeledFeatures(rng.normal(size=(20, 6)), np.zeros(20),
                            backbone=rng.normal(size=(20, 4)))
    assert np.array_equal(predict(feats, p), predict(feats, scaled))


def test_dimension_mismatch_errors():
    p = init_params(["a", "b"], 2, 3, seed=0)
    with pytest.raises(DataError, match="embedding dim"):
        predict(_one_clip(np.zeros(5), np.zeros(3)), p)
    with pytest.raises(DataError, match="descriptor dim"):
        predict(_one_clip(np.zeros(2), np.zeros(7)), p)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def _loss(logit_bias, label):
    """Loss of one clip under a head whose logits are exactly ``logit_bias``."""
    k = len(logit_bias)
    p = init_params([f"c{i}" for i in range(k)], 0, 3, seed=0)
    p.W = np.zeros_like(p.W)
    p.b = np.asarray(logit_bias, dtype=np.float64)
    loss, _ = backward(np.zeros((1, 0)), np.arange(3.0)[None, :], np.array([label]), p)
    return loss


def test_cross_entropy_uniform():
    assert _loss(np.zeros(5), 3) == pytest.approx(np.log(5.0), abs=1e-12)


def test_cross_entropy_confident():
    # exp(-1000) underflows to 0, so the true class holds probability exactly 1
    assert _loss([0.0, 0.0, 1000.0, 0.0], 2) == 0.0


def test_cross_entropy_floor():
    logits = [1000.0, 0.0, 0.0, 0.0]
    assert _loss(logits, 1) == pytest.approx(-np.log(1e-12), rel=1e-9)
    assert _loss(logits, 1) == pytest.approx(27.631, abs=1e-3)


# ---------------------------------------------------------------------------
# gradients vs finite differences
# ---------------------------------------------------------------------------

def _loss_of(params, xb, xd, y):
    loss, _ = backward(xb, xd, y, params)
    return loss


def _numeric_grads(params, xb, xd, y, h=1e-5):
    """Central-difference oracle over every parameter entry."""
    grads = {}
    base = params.copy()

    def loss_with(key, flat_idx, delta):
        p = base.copy()
        if key == "alpha":
            p.alpha = p.alpha + delta
        else:
            arr = getattr(p, key).copy()
            arr.flat[flat_idx] += delta
            setattr(p, key, arr)
        return _loss_of(p, xb, xd, y)

    grads["alpha"] = (loss_with("alpha", 0, h) - loss_with("alpha", 0, -h)) / (2 * h)
    for key in ("ln_gain", "ln_bias", "W", "b"):
        arr = getattr(base, key)
        g = np.zeros_like(arr)
        for idx in range(arr.size):
            g.flat[idx] = (loss_with(key, idx, h) - loss_with(key, idx, -h)) / (2 * h)
        grads[key] = g
    return grads


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for key in ("alpha", "ln_gain", "ln_bias", "W", "b"):
        a = np.atleast_1d(np.asarray(analytic[key], dtype=np.float64))
        n = np.atleast_1d(np.asarray(numeric[key], dtype=np.float64))
        scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float((np.abs(a - n) / scale).max()))
    return worst


def gradient_check_instances(count, seed=0):
    """Shared by the unit test and the acceptance gate."""
    rng = np.random.default_rng(seed)
    errs = []
    for _ in range(count):
        c = int(rng.integers(0, 6))
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 5))
        p = _params(rng, num_classes=k, c=c, d=d)
        xb = rng.normal(size=(n, c))
        xd = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        y = rng.integers(0, k, size=n)
        _, analytic = backward(xb, xd, y, p)
        numeric = _numeric_grads(p, xb, xd, y)
        errs.append(_max_rel_err(analytic, numeric))
    return errs


def test_gradients_match_finite_differences():
    errs = gradient_check_instances(20, seed=123)
    assert max(errs) <= 1e-4


def test_alpha_gradient_zero_when_descriptor_weights_zero():
    rng = np.random.default_rng(5)
    p = _params(rng, c=4, d=6)
    p.W[:, 4:] = 0.0  # zero out the descriptor block
    _, grads = backward(rng.normal(size=(3, 4)), rng.normal(size=(3, 6)),
                        np.array([0, 1, 2]), p)
    assert abs(grads["alpha"]) < 1e-15
    assert np.allclose(grads["ln_gain"], 0.0)
    assert np.allclose(grads["ln_bias"], 0.0)


def test_bias_gradient_sums_to_zero():
    # softmax-CE gradient is p - onehot per sample; rows sum to zero
    rng = np.random.default_rng(6)
    p = _params(rng)
    _, grads = backward(rng.normal(size=(4, 4)), rng.normal(size=(4, 6)),
                        np.array([0, 1, 2, 0]), p)
    assert abs(grads["b"].sum()) < 1e-12


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100) == pytest.approx(1e-3, rel=1e-12)
    assert cosine_lr(100, 100) == pytest.approx(1e-5, rel=1e-12)
    mid = cosine_lr(50, 100)
    assert mid == pytest.approx((1e-3 + 1e-5) / 2, rel=1e-9)


def _separable_toy(n_per_class=30, seed=0):
    rng = np.random.default_rng(seed)
    d = 8
    x0 = rng.normal(size=(n_per_class, d)) + np.r_[3.0, np.zeros(d - 1)]
    x1 = rng.normal(size=(n_per_class, d)) - np.r_[3.0, np.zeros(d - 1)]
    X = np.vstack([x0, x1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return LabeledFeatures(X, y)


def test_training_separates_toy_set(monkeypatch):
    monkeypatch.setattr(dgme.model, "LR_MAX", 0.05)
    monkeypatch.setattr(dgme.model, "EARLY_STOP_PATIENCE", 12)
    train_set = _separable_toy(seed=1)
    val_set = _separable_toy(seed=2)
    cfg = TrainConfig(epochs=12, batch_size=16, seed=0)
    params, log = train(["a", "b"], train_set, val_set, cfg)

    from dgme.model import predict

    acc = (predict(train_set, params) == train_set.labels).mean()
    assert acc == 1.0
    assert log[-1]["train_loss"] < log[0]["train_loss"]
    assert params.alpha != 1.0  # the gate moved off its initialization
    assert abs(params.alpha - 1.0) > 0


def test_training_deterministic():
    train_set = _separable_toy(seed=3)
    val_set = _separable_toy(seed=4)
    cfg = TrainConfig(epochs=5, batch_size=8, seed=11)
    p1, log1 = train(["a", "b"], train_set, val_set, cfg)
    p2, log2 = train(["a", "b"], train_set, val_set, cfg)
    assert log1 == log2
    assert np.array_equal(p1.W, p2.W) and np.array_equal(p1.b, p2.b)
    assert p1.alpha == p2.alpha


def test_training_early_stops_on_plateau(monkeypatch):
    monkeypatch.setattr(dgme.model, "EARLY_STOP_PATIENCE", 2)
    train_set = _separable_toy(seed=5)
    val_set = _separable_toy(seed=6)
    cfg = TrainConfig(epochs=50, batch_size=16, seed=0)
    _, log = train(["a", "b"], train_set, val_set, cfg)
    assert len(log) < 50


def _with_backbone(features, width, seed):
    """``features`` with a seeded ``width``-wide embedding that leans on the label."""
    rng = np.random.default_rng(seed)
    labels = features.labels
    return LabeledFeatures(features.dgme, labels,
                           backbone=rng.normal(size=(len(labels), width)) + 0.5 * labels[:, None])


def test_training_rejects_empty_and_mismatched():
    s = _separable_toy()
    empty = LabeledFeatures(np.zeros((0, 8)), np.zeros(0))
    with pytest.raises(DataError, match="nonempty"):
        train(["a", "b"], s, empty, TrainConfig())
    # a zero-width backbone on one split and a 4-wide one on the other
    with pytest.raises(DataError, match="embedding dimensions differ"):
        train(["a", "b"], s, _with_backbone(s, 4, 0), TrainConfig())


# ``%.9g`` text of each log row (epoch, step, lr, train_loss, val_macro_f1,
# alpha) and of the best head's alpha, for a zero-width (descriptor-only) and
# a 4-wide embedding: any change to the training arithmetic shows here
GOLDEN_TRAINING = {
    0: ("""\
1 4 0.0480973689 0.850912132 0.899553571 0.848819979
2 8 0.0402209919 0.337672581 0.983328702 0.858457914
3 12 0.0282675022 0.150626569 0.983328702 0.920214084
4 16 0.0154398276 0.0806206856 0.983328702 0.968007699
5 20 0.00517513326 0.057224014 0.983328702 0.989108952
6 24 0.00022383569 0.0504765197 0.983328702 0.993016651""", "0.858457914"),
    4: ("""\
1 4 0.0480973689 0.479895257 0.916457811 1.02199272
2 8 0.0402209919 0.123376523 0.983328702 1.17328872
3 12 0.0282675022 0.0264814395 0.983328702 1.281448
4 16 0.0154398276 0.00937008801 0.983328702 1.33474819
5 20 0.00517513326 0.00572247265 0.983328702 1.353374
6 24 0.00022383569 0.00495595871 0.983328702 1.3561705""", "1.17328872"),
}


@pytest.mark.parametrize("width", sorted(GOLDEN_TRAINING))
def test_training_matches_golden_log(width, monkeypatch):
    monkeypatch.setattr(dgme.model, "LR_MAX", 0.05)
    monkeypatch.setattr(dgme.model, "EARLY_STOP_PATIENCE", 6)
    train_set, val_set = _separable_toy(seed=1), _separable_toy(seed=2)
    if width:
        train_set, val_set = _with_backbone(train_set, width, 10), _with_backbone(val_set, width, 11)
    cfg = TrainConfig(epochs=6, batch_size=16, seed=3)
    params, log = train(["a", "b"], train_set, val_set, cfg)
    keys = ("epoch", "step", "lr", "train_loss", "val_macro_f1", "alpha")
    rows = "\n".join(" ".join(f"{row[k]:.9g}" for k in keys) for row in log)
    assert (rows, f"{params.alpha:.9g}") == GOLDEN_TRAINING[width]


@pytest.mark.parametrize("width", [0, 4])
def test_training_through_rows_matches_materialized_rows(tmp_path, width):
    # an oversampled split keeps each clip's feature row once and repeats its
    # index; every batch holds the values the repeated rows themselves would
    distinct, val_set = _separable_toy(n_per_class=6, seed=7), _separable_toy(seed=8)
    if width:
        distinct, val_set = _with_backbone(distinct, width, 12), _with_backbone(val_set, width, 13)
    rows = np.random.default_rng(14).integers(0, 12, size=40)
    through_rows = LabeledFeatures(distinct.dgme, distinct.labels[rows], distinct.backbone, rows)
    materialized = LabeledFeatures(distinct.dgme[rows], distinct.labels[rows],
                                   distinct.backbone[rows])
    cfg = TrainConfig(epochs=4, batch_size=8, seed=2)
    written = []
    for name, train_set in (("rows", through_rows), ("materialized", materialized)):
        params, log = train(["a", "b"], train_set, val_set, cfg)
        save_model_json(tmp_path / f"{name}.json", params, {})
        write_training_log(tmp_path / f"{name}.csv", log, {})
        written.append([(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("json", "csv")])
        assert np.array_equal(predict(through_rows, params), predict(materialized, params))
    assert written[0] == written[1]
    with pytest.raises(ValueError, match="rows must index the 12 feature rows"):
        LabeledFeatures(distinct.dgme, [0], rows=[12])


# ---------------------------------------------------------------------------
# embedding stub
# ---------------------------------------------------------------------------

def _black_clip():
    return FrameSequence(np.zeros((3, 32, 32), dtype=np.uint8), "black")


def test_stub_embedding_deterministic():
    rng = np.random.default_rng(7)
    seq = FrameSequence(rng.integers(0, 256, size=(4, 32, 32)).astype(np.uint8), "e")
    a = StubEmbeddingProvider(seed=3).embed(seq)
    b = StubEmbeddingProvider(seed=3).embed(seq)
    assert np.array_equal(a, b)
    assert a.shape == (64,)
    c = StubEmbeddingProvider(seed=4).embed(seq)
    assert not np.array_equal(a, c)


def test_stub_embedding_black_clip_matches_manual_projection():
    seq = _black_clip()
    out = StubEmbeddingProvider(seed=9, dim=16).embed(seq)
    raw = np.zeros(41)
    raw[0] = 1.0  # all intensity mass in histogram bin 0, zero motion energy
    proj = np.random.default_rng(9).normal(0.0, 1.0, size=(16, 41)) / np.sqrt(41)
    assert np.allclose(out, proj @ raw)


def test_stub_provider_interface():
    provider = StubEmbeddingProvider(seed=1, dim=32)
    emb = provider.embed(_black_clip())
    assert emb.shape == (32,)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_json_exact_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    p = _params(rng)
    path = tmp_path / "m.json"
    save_model_json(path, p, {"version": "0.1.0", "seed": 1, "mode": "fusion"})
    back, meta = load_model_json(path)
    assert back.alpha == p.alpha
    assert np.array_equal(back.W, p.W)
    assert np.array_equal(back.b, p.b)
    assert np.array_equal(back.ln_gain, p.ln_gain)
    assert np.array_equal(back.ln_bias, p.ln_bias)
    assert back.class_names == p.class_names
    assert meta["mode"] == "fusion" and meta["seed"] == 1


def test_model_json_refuses_non_finite(tmp_path):
    p = _params(np.random.default_rng(9))
    p.W[0, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        save_model_json(tmp_path / "nan.json", p, {})
    assert not (tmp_path / "nan.json").exists()
    # 1e999 parses to inf without a NaN/Infinity token
    p.W[0, 0] = 0.0
    save_model_json(tmp_path / "m.json", p, {})
    payload = json.loads((tmp_path / "m.json").read_text())
    payload["alpha"] = "@"
    text = json.dumps(payload).replace('"@"', "1e999")
    (tmp_path / "m.json").write_text(text)
    with pytest.raises(DataError, match="non-finite"):
        load_model_json(tmp_path / "m.json")
