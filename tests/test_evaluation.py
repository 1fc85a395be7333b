from collections import Counter

import numpy as np
import pytest

from dgme.errors import DataError
from dgme.evaluation import (
    AnnotatedSet,
    evaluate,
    load_schema,
    metrics_from_confusion,
    oversample,
    remap_labels,
    stratified_split,
)

# Training-set oversampling targets for the consolidated modern corpus,
# alongside the original counts they were derived from.
MODERN_ORIGINAL_TRAIN_COUNTS = {"static": 1304, "tilt": 63, "pan": 73, "zoom": 1212}
MODERN_OVERSAMPLE_TARGETS = {"static": 1686, "tilt": 1280, "pan": 1460, "zoom": 1820}


def _aset(counts, schema):
    entries = []
    for label, n in counts.items():
        entries.extend((f"{label}_{i}", label) for i in range(n))
    return AnnotatedSet(entries, schema)


def _counts(aset):
    return Counter(label for _, label in aset.entries)


# ---------------------------------------------------------------------------
# schemas and remapping
# ---------------------------------------------------------------------------

def test_schemas_load():
    modern = load_schema("modern4")
    assert modern.classes == ("static", "tilt", "pan", "zoom")
    hist = load_schema("historian5")
    assert hist.classes == ("static", "tilt", "pan", "zoom", "track")
    with pytest.raises(DataError, match="unknown schema"):
        load_schema("nope")


def test_remap_truck_to_pan():
    schema = load_schema("historian5")
    out = remap_labels([("c1", "truck")], schema)
    assert out.entries == [("c1", "pan")]


def test_remap_drops_pan_tilt():
    schema = load_schema("historian5")
    out = remap_labels([("c2", "pan_tilt")], schema)
    assert out.entries == []


def test_remap_moveset_directions_preserve_counts():
    schema = load_schema("modern4")
    raw = [("a", "up"), ("b", "down"), ("c", "left"), ("d", "right"),
           ("e", "in"), ("f", "out"), ("g", "stable"), ("h", "motion")]
    out = remap_labels(raw, schema)
    counts = _counts(out)
    assert counts == {"static": 1, "tilt": 2, "pan": 2, "zoom": 2}  # motion dropped


def test_remap_unknown_label_names_clip():
    schema = load_schema("modern4")
    with pytest.raises(DataError, match="clipX"):
        remap_labels([("clipX", "whirl")], schema)


# ---------------------------------------------------------------------------
# stratified splits
# ---------------------------------------------------------------------------

def test_split_exact_quotas_no_remainder():
    schema = load_schema("modern4")
    aset = _aset({"static": 10, "tilt": 10, "pan": 10, "zoom": 10}, schema)
    train, val, test = stratified_split(aset, seed=0)
    for part, expect in ((train, 24), (val, 8), (test, 8)):
        assert len(part.entries) == expect
    assert _counts(train)["pan"] == 6
    assert _counts(val)["pan"] == 2
    assert _counts(test)["pan"] == 2


def test_split_remainder_priority_test_train_val():
    schema = load_schema("modern4")
    # n = 304: floors (182, 60, 60), leftover 2 -> test then train
    aset = _aset({"static": 304, "tilt": 3, "pan": 3, "zoom": 3}, schema)
    train, val, test = stratified_split(aset, seed=1)
    assert _counts(train)["static"] == 183
    assert _counts(val)["static"] == 60
    assert _counts(test)["static"] == 61


def test_split_is_a_partition():
    schema = load_schema("historian5")
    counts = {"static": 11, "tilt": 17, "pan": 23, "zoom": 8, "track": 5}
    aset = _aset(counts, schema)
    train, val, test = stratified_split(aset, seed=3)
    all_ids = [e[0] for part in (train, val, test) for e in part.entries]
    assert len(all_ids) == len(set(all_ids)) == len(aset.entries)
    assert set(all_ids) == {e[0] for e in aset.entries}


def test_split_deterministic_and_seed_sensitive():
    schema = load_schema("modern4")
    aset = _aset({"static": 30, "tilt": 30, "pan": 30, "zoom": 30}, schema)
    a = stratified_split(aset, seed=5)
    b = stratified_split(aset, seed=5)
    assert [p.entries for p in a] == [p.entries for p in b]
    c = stratified_split(aset, seed=6)
    assert [p.entries for p in a] != [p.entries for p in c]


def test_split_class_too_small():
    schema = load_schema("modern4")
    aset = _aset({"static": 2, "tilt": 5, "pan": 5, "zoom": 5}, schema)
    with pytest.raises(DataError, match="static"):
        stratified_split(aset, seed=0)


# ---------------------------------------------------------------------------
# oversampling
# ---------------------------------------------------------------------------

def test_oversample_cyclic_plus_seeded_remainder():
    schema = load_schema("modern4")
    aset = _aset({"static": 3, "tilt": 3, "pan": 3, "zoom": 3}, schema)
    out = oversample(aset, {"tilt": 7}, seed=0)
    counts = _counts(out)
    assert counts == {"static": 3, "tilt": 7, "pan": 3, "zoom": 3}
    tilt_ids = [cid for cid, label in out.entries if label == "tilt"]
    per_id = {cid: tilt_ids.count(cid) for cid in set(tilt_ids)}
    assert sorted(per_id.values()) == [2, 2, 3]  # each twice, one thrice
    assert set(tilt_ids) == {"tilt_0", "tilt_1", "tilt_2"}  # no new ids


def test_oversample_identity_when_target_equals_count():
    schema = load_schema("modern4")
    aset = _aset({"static": 4, "tilt": 4, "pan": 4, "zoom": 4}, schema)
    out = oversample(aset, {"pan": 4}, seed=0)
    assert out.entries == aset.entries


def test_oversample_target_below_count():
    schema = load_schema("modern4")
    aset = _aset({"static": 5, "tilt": 5, "pan": 5, "zoom": 5}, schema)
    with pytest.raises(DataError, match="below current count"):
        oversample(aset, {"zoom": 4}, seed=0)


def test_oversample_target_for_absent_class():
    # a split with no pan rows cannot reach a pan target; it used to keep
    # zero pan rows and report success
    schema = load_schema("modern4")
    aset = _aset({"static": 3, "tilt": 3, "zoom": 3}, schema)
    with pytest.raises(DataError, match="'pan'"):
        oversample(aset, {"pan": 10, "tilt": 3}, seed=0)
    # a target of zero asks for what the split already has
    assert oversample(aset, {"pan": 0}, seed=0).entries == aset.entries


def test_oversample_modern_default_targets():
    schema = load_schema("modern4")
    aset = _aset(MODERN_ORIGINAL_TRAIN_COUNTS, schema)
    out = oversample(aset, MODERN_OVERSAMPLE_TARGETS, seed=7)
    assert _counts(out) == MODERN_OVERSAMPLE_TARGETS
    # oversampling only repeats entries; the distinct ids are unchanged
    for label in MODERN_ORIGINAL_TRAIN_COUNTS:
        ids = {cid for cid, lab in out.entries if lab == label}
        assert len(ids) == MODERN_ORIGINAL_TRAIN_COUNTS[label]


def test_oversample_deterministic():
    schema = load_schema("modern4")
    aset = _aset({"static": 5, "tilt": 5, "pan": 5, "zoom": 5}, schema)
    a = oversample(aset, {"tilt": 12}, seed=3)
    b = oversample(aset, {"tilt": 12}, seed=3)
    assert a.entries == b.entries


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _two_class_predictions():
    """Realizes the confusion matrix [[1, 1], [0, 2]]."""
    from dgme.evaluation import ClassSchema

    schema2 = ClassSchema("toy2", ("a", "b"), {"a": "a", "b": "b"})
    truth = AnnotatedSet([("x1", "a"), ("x2", "a"), ("x3", "b"), ("x4", "b")], schema2)
    preds = [("x1", "a"), ("x2", "b"), ("x3", "b"), ("x4", "b")]
    return preds, truth


def test_evaluate_hand_confusion():
    preds, truth = _two_class_predictions()
    cm, report = evaluate(preds, truth)
    assert cm.tolist() == [[1, 1], [0, 2]]
    assert report.accuracy == pytest.approx(0.75, abs=1e-12)
    p0, r0, f0 = report.per_class[0]
    assert (p0, r0) == (1.0, 0.5)
    assert f0 == pytest.approx(2 / 3, abs=1e-12)
    p1, r1, f1 = report.per_class[1]
    assert p1 == pytest.approx(2 / 3, abs=1e-12)
    assert r1 == 1.0
    assert f1 == pytest.approx(0.8, abs=1e-12)
    assert report.macro_f1 == pytest.approx(0.7333333333, abs=1e-9)


def test_evaluate_perfect():
    schema = load_schema("modern4")
    truth = _aset({"static": 3, "tilt": 3, "pan": 3, "zoom": 3}, schema)
    preds = list(truth.entries)
    _, report = evaluate(preds, truth)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0


def test_never_predicted_class_counts_as_zero_in_macro():
    cm = np.array([[5, 0, 0], [0, 5, 0], [0, 5, 0]])  # class 2 never predicted or correct
    report = metrics_from_confusion(cm)
    assert report.per_class[2] == (0.0, 0.0, 0.0)
    assert report.macro_f1 == pytest.approx((1.0 + 2 / 3 + 0.0) / 3, abs=1e-9)


def test_evaluate_id_mismatch():
    preds, truth = _two_class_predictions()
    with pytest.raises(DataError, match="missing"):
        evaluate(preds[:-1], truth)
    with pytest.raises(DataError, match="extra"):
        evaluate(preds + [("x9", "a")], truth)


def test_evaluate_rejects_label_outside_schema():
    preds, truth = _two_class_predictions()
    bad = preds[:-1] + [(preds[-1][0], "zoom")]
    with pytest.raises(DataError, match="not in schema"):
        evaluate(bad, truth)


def test_evaluate_permutation_invariance():
    preds, truth = _two_class_predictions()
    cm1, rep1 = evaluate(preds, truth)
    cm2, rep2 = evaluate(list(reversed(preds)), truth)
    assert np.array_equal(cm1, cm2)
    assert rep1 == rep2


def test_confusion_row_sums_match_truth_counts():
    rng = np.random.default_rng(0)
    schema = load_schema("historian5")
    for _ in range(25):
        counts = {c: int(rng.integers(1, 20)) for c in schema.classes}
        truth = _aset(counts, schema)
        preds = [(cid, schema.classes[rng.integers(0, 5)]) for cid, _ in truth.entries]
        cm, _ = evaluate(preds, truth)
        row_sums = cm.sum(axis=1)
        for k, c in enumerate(schema.classes):
            assert row_sums[k] == counts[c]
        assert cm.sum() == len(truth.entries)


def test_uniform_random_predictor_macro_f1_expectation():
    # balanced 5-class truth, uniform predictions: per-class P ~ R ~ 0.2,
    # so macro F1 converges near 0.2
    rng = np.random.default_rng(42)
    schema = load_schema("historian5")
    n = 10_000
    truth = _aset({c: n // 5 for c in schema.classes}, schema)
    preds = [(cid, schema.classes[rng.integers(0, 5)]) for cid, _ in truth.entries]
    _, report = evaluate(preds, truth)
    assert report.macro_f1 == pytest.approx(0.2, abs=0.05)
