"""Acceptance gates for the full toolkit.

Each test prints one ``ACCEPTANCE <n> <name>: PASS|FAIL`` line (run pytest
with ``-s`` to see them live) and asserts the stated tolerance. The gates
rely only on independent oracles: brute-force block matching, ground-truth
shifts constructed in the test, central finite differences, and hand
computations.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import blurred_noise
from dgme import synth
from dgme.cli import main as cli_main
from dgme.descriptor import compute_dgme, descriptor_from_polar
from dgme.evaluation import (
    AnnotatedSet,
    ClassSchema,
    evaluate,
    load_schema,
    stratified_split,
)
from dgme.flow import PolarFlow, farneback_flow
from oracles import block_match_descriptor, cell_histogram
from test_model import gradient_check_instances

CFG = 0.5  # the magnitude threshold, extract --mthr's default


def _report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. descriptor correctness against the analytic motion of synthetic clips
# ---------------------------------------------------------------------------

# strict per-cell bins for integer-direction flow; axis-aligned motion lies
# exactly on a bin edge, so the sub-pixel estimator is scored against the
# two straddling bins while the integer oracle must hit the edge bin itself
_PAN_TILT_BINS = {
    ("pan", 1): (0, {0, 11}),
    ("pan", -1): (6, {5, 6}),
    ("tilt", 1): (3, {2, 3}),
    ("tilt", -1): (9, {8, 9}),
}
_ZOOM_CORNERS = {
    1: {0: 7, 2: 10, 6: 4, 8: 1},    # expanding: outward diagonals
    -1: {0: 1, 2: 4, 6: 10, 8: 7},   # contracting: inward diagonals
}


def _criterion1_clip(label: str, seed: int) -> tuple:
    mag = 1.0 + 3.0 * (seed / 39.0)
    sign = 1 if seed % 2 == 0 else -1
    spec = synth.SynthSpec(label, frames=6, size=96, motion_magnitude=mag,
                           direction_sign=sign, texture_seed=seed)
    return synth.make_clip(spec), sign


def test_acceptance_1_descriptor_oracle():
    start = time.monotonic()
    ok_block = total_block = 0
    ok_farn = total_farn = 0
    for label in ("pan", "tilt", "zoom"):
        for seed in range(40):
            clip, sign = _criterion1_clip(label, seed)
            desc_b = block_match_descriptor(clip, CFG, block=8, search_radius=7)
            desc_f = compute_dgme(clip, CFG)
            cells_b = desc_b.reshape(9, 13)[:, :12].argmax(axis=1)
            cells_f = desc_f.reshape(9, 13)[:, :12].argmax(axis=1)
            if label == "zoom":
                expected = _ZOOM_CORNERS[sign]
                for cell, bin_ in expected.items():
                    total_block += 1
                    ok_block += int(cells_b[cell]) == bin_
                    total_farn += 1
                    ok_farn += int(cells_f[cell]) == bin_
            else:
                strict, pair = _PAN_TILT_BINS[(label, sign)]
                for cell in range(9):
                    total_block += 1
                    ok_block += int(cells_b[cell]) == strict
                    total_farn += 1
                    ok_farn += int(cells_f[cell]) in pair
    elapsed = time.monotonic() - start
    frac_block = ok_block / total_block
    frac_farn = ok_farn / total_farn
    _report(
        1, "descriptor-oracle",
        frac_block >= 0.99 and frac_farn >= 0.95 and elapsed < 120.0,
        f"block {frac_block:.4f} (>=0.99), farneback {frac_farn:.4f} (>=0.95), "
        f"{elapsed:.1f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# 2. descriptor invariants, >= 100 randomized cases each
# ---------------------------------------------------------------------------

def _random_polar(rng, above_only=False):
    h = int(rng.integers(9, 18))
    w = int(rng.integers(9, 18))
    lo = 0.6 if above_only else 0.0
    m = rng.uniform(lo, 4.0, size=(h, w))
    theta = rng.integers(0, 12, size=(h, w)) * 30.0 + rng.uniform(0.5, 29.5, size=(h, w))
    return PolarFlow(m, theta)


def test_acceptance_2_descriptor_invariants():
    cases = 120
    rng = np.random.default_rng(2024)
    unit_ok = rot_ok = mono_ok = static_ok = 0
    for _ in range(cases):
        polar = _random_polar(rng)
        desc = descriptor_from_polar([polar], CFG)
        unit_ok += bool(
            np.all(desc >= 0.0)
            and abs(np.linalg.norm(desc) - 1.0) <= 1e-6
        )

        strong = _random_polar(rng, above_only=True)
        rotated = PolarFlow(strong.m.copy(),
                            (strong.theta.astype(np.float64) + 30.0) % 360.0)
        base = descriptor_from_polar([strong], CFG).reshape(9, 13)
        rot = descriptor_from_polar([rotated], CFG).reshape(9, 13)
        rot_ok += bool(
            np.allclose(rot[:, :12], np.roll(base[:, :12], 1, axis=1))
            and np.allclose(rot[:, 12], base[:, 12])
        )

        cell = (0, polar.height, 0, polar.width)
        h_lo = cell_histogram(polar, cell, 0.3)
        h_hi = cell_histogram(polar, cell, 1.2)
        mono_ok += bool(
            np.all(h_hi[:12] <= h_lo[:12] + 1e-12) and h_hi[12] >= h_lo[12] - 1e-12
        )

        h = int(rng.integers(9, 24))
        w = int(rng.integers(9, 24))
        still = PolarFlow(np.zeros((h, w)), np.zeros((h, w)))
        vals = descriptor_from_polar([still], CFG).reshape(9, 13)
        static_ok += bool(np.all(vals[:, :12] == 0.0) and np.all(vals[:, 12] > 0.0))

    ok = unit_ok == rot_ok == mono_ok == static_ok == cases
    _report(
        2, "descriptor-invariants", ok,
        f"{cases} cases each: unit-norm {unit_ok}, bin-rotation {rot_ok}, "
        f"threshold-monotonicity {mono_ok}, zero-flow-static {static_ok}",
    )


# ---------------------------------------------------------------------------
# 3. flow accuracy on constructed ground truth
# ---------------------------------------------------------------------------

def test_acceptance_3_flow_accuracy():
    medians = []
    for seed in range(10):
        img = blurred_noise(seed, 128, 128)
        shifted = np.roll(img, 2, axis=1)
        field = farneback_flow(img, shifted)
        c = slice(16, 112)
        epe = np.hypot(field.u[c, c].astype(np.float64) - 2.0,
                       field.v[c, c].astype(np.float64))
        medians.append(float(np.median(epe)))
    ident = farneback_flow(blurred_noise(99, 128, 128), blurred_noise(99, 128, 128))
    ident_max = float(max(np.abs(ident.u).max(), np.abs(ident.v).max()))
    ok = max(medians) < 0.3 and ident_max < 0.05
    _report(
        3, "flow-accuracy", ok,
        f"worst median EPE {max(medians):.4f} (<0.3), identical-frame max "
        f"{ident_max:.4f} (<0.05)",
    )


# ---------------------------------------------------------------------------
# 4. analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_acceptance_4_gradient_verification():
    errs = gradient_check_instances(20, seed=7)
    _report(
        4, "gradient-check", max(errs) <= 1e-4,
        f"20 instances, max relative error {max(errs):.2e} (<=1e-4)",
    )


# ---------------------------------------------------------------------------
# 5. end-to-end synthetic benchmark through the CLI
# ---------------------------------------------------------------------------

def _run(args):
    rc = cli_main(args)
    assert rc == 0, f"command failed ({rc}): {' '.join(args)}"


def _pipeline(root: Path, per_class: int, seed: int, jobs: int = 1,
              size: int = 112, frames: int = 12) -> dict:
    corpus = root / "corpus"
    _run(["synth", "--classes", "static,tilt,pan,zoom", "--per-class", str(per_class),
          "--domain", "modern", "--seed", str(seed), "--out", str(corpus),
          "--size", str(size), "--frames", str(frames)])
    features = root / "features.csv"
    _run(["extract", "--ann", str(corpus / "annotations.csv"), "--out", str(features),
          "--interval", "1", "--frames-per-clip", str(frames), "--target-size", "96",
          "--jobs", str(jobs), "--seed", str(seed)])
    splits = root / "splits"
    _run(["split", "--ann", str(corpus / "annotations.csv"), "--schema", "modern4",
          "--seed", str(seed), "--out-dir", str(splits)])
    results = {}
    for mode in ("dgme-only", "fusion"):
        tag = mode.replace("-", "_")
        model = root / f"model_{tag}.json"
        cmd = ["train", "--features", str(features), "--train", str(splits / "train.csv"),
               "--val", str(splits / "val.csv"), "--mode", mode, "--schema", "modern4",
               "--seed", str(seed), "--out", str(model)]
        if mode == "fusion":
            cmd += ["--clips", str(corpus)]
        _run(cmd)
        metrics = root / f"metrics_{tag}.json"
        cmd = ["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
               "--model", str(model), "--features", str(features),
               "--out-metrics", str(metrics),
               "--out-confusion", str(root / f"confusion_{tag}.csv")]
        if mode == "fusion":
            cmd += ["--clips", str(corpus)]
        _run(cmd)
        results[mode] = json.loads(metrics.read_text())
    return results


def test_acceptance_5_end_to_end_benchmark(tmp_path):
    start = time.monotonic()
    results = _pipeline(tmp_path, per_class=200, seed=7)
    elapsed = time.monotonic() - start
    acc_dgme = results["dgme-only"]["accuracy"]
    acc_fusion = results["fusion"]["accuracy"]
    ok = acc_dgme >= 0.90 and acc_fusion >= acc_dgme - 0.02 and elapsed < 900.0
    _report(
        5, "end-to-end-benchmark", ok,
        f"dgme-only acc {acc_dgme:.4f} (>=0.90), fusion acc {acc_fusion:.4f} "
        f"(>= dgme-only - 0.02), {elapsed:.0f}s (<900s)",
    )


# ---------------------------------------------------------------------------
# 6. cross-domain calibration ablation
# ---------------------------------------------------------------------------

def _extract_set(corpus_dir: Path, rows, sampling) -> tuple:
    from dgme.videoio import load_clip

    ids, labels, vecs = [], [], []
    for rel, label in rows:
        seq = load_clip(corpus_dir / rel, sampling)
        ids.append(seq.clip_id)
        labels.append(label)
        vecs.append(compute_dgme(seq, CFG))
    return ids, labels, np.stack(vecs)


def _ablation_macro_f1(seed: int, root: Path) -> tuple[float, float]:
    """Train on clean clips, evaluate on degraded clips, with and without
    z-score calibration by the clean-training statistics."""
    from dgme.descriptor import apply_zscore, fit_stats
    from dgme.evaluation import confusion_from_indices, metrics_from_confusion
    from dgme.model import LabeledFeatures, TrainConfig, predict, train
    from dgme.videoio import SamplingSpec

    classes = ["static", "tilt", "pan", "zoom"]
    schema = load_schema("modern4")
    sampling = SamplingSpec(frames_per_clip=8, frame_interval=1, target_size=96)
    mod_dir = root / f"mod{seed}"
    hist_dir = root / f"hist{seed}"
    mod_rows = synth.make_corpus(mod_dir, classes, 24, "modern", seed,
                                 size=96, frames=8)
    hist_rows = synth.make_corpus(hist_dir, classes, 16, "historical", seed + 1000,
                                  size=96, frames=8)
    mod_ids, mod_labels, mod_x = _extract_set(mod_dir, mod_rows, sampling)
    hist_ids, hist_labels, hist_x = _extract_set(hist_dir, hist_rows, sampling)

    aset = AnnotatedSet(list(zip(mod_ids, mod_labels)), schema)
    tr, va, _ = stratified_split(aset, seed=seed)
    index = {cid: i for i, cid in enumerate(mod_ids)}
    tr_idx = [index[cid] for cid, _ in tr.entries]
    va_idx = [index[cid] for cid, _ in va.entries]
    y_mod = np.array([schema.index(l) for l in mod_labels])
    y_hist = np.array([schema.index(l) for l in hist_labels])

    stats = fit_stats(mod_x[tr_idx], "h")
    results = []
    for calibrate in (True, False):
        def tx(matrix):
            if not calibrate:
                return matrix
            return np.stack([apply_zscore(row, stats) for row in matrix])

        train_set = LabeledFeatures(tx(mod_x[tr_idx]), y_mod[tr_idx])
        val_set = LabeledFeatures(tx(mod_x[va_idx]), y_mod[va_idx])
        params, _ = train(list(schema.classes), train_set, val_set, TrainConfig(seed=seed))
        hist_set = LabeledFeatures(tx(hist_x), y_hist)
        cm = confusion_from_indices(y_hist, predict(hist_set, params), len(schema.classes))
        results.append(metrics_from_confusion(cm).macro_f1)
    return results[0], results[1]  # (calibrated, raw)


def test_acceptance_6_calibration_ablation(tmp_path):
    # this gate fails on purely synthetic footage: many descriptor dimensions
    # are variance-dead in the clean domain, so z-scoring amplifies the
    # degradation noise that lands on them by 1/std and reverses the expected
    # direction; the gate is kept as stated rather than loosened
    outcomes = []
    for seed in (11, 12, 13):
        cal, raw = _ablation_macro_f1(seed, tmp_path)
        outcomes.append((seed, cal, raw, cal >= raw))
    wins = sum(1 for *_, w in outcomes if w)
    detail = ", ".join(f"seed {s}: cal {c:.3f} vs raw {r:.3f}" for s, c, r, _ in outcomes)
    _report(
        6, "calibration-ablation", wins >= 2,
        f"calibration wins {wins}/3, majority needed; {detail}",
    )


# ---------------------------------------------------------------------------
# 7. split fixture from the published five-class corpus counts
# ---------------------------------------------------------------------------

def test_acceptance_7_split_fixture_and_static_82_vs_83_count_discrepancy():
    # the published static count (82) disagrees by one with the published
    # split chart (50+16+17 = 83), so static is asserted to partition only
    schema = load_schema("historian5")
    counts = {"static": 82, "tilt": 116, "pan": 304, "zoom": 77, "track": 252}
    entries = []
    for label, n in counts.items():
        entries.extend((f"{label}_{i:04d}", label) for i in range(n))
    train, val, test = stratified_split(AnnotatedSet(entries, schema), seed=0)

    expected = {
        "tilt": (69, 23, 24),
        "pan": (183, 60, 61),
        "zoom": (46, 15, 16),
        "track": (151, 50, 51),
    }
    got = {
        cls: tuple(sum(label == cls for _, label in part.entries) for part in (train, val, test))
        for cls in counts
    }
    fixture_ok = all(got[cls] == expected[cls] for cls in expected)
    static_ok = sum(got["static"]) == 82
    ids = [e[0] for part in (train, val, test) for e in part.entries]
    partition_ok = len(ids) == len(set(ids)) == len(entries)
    _report(
        7, "split-fixture", fixture_ok and static_ok and partition_ok,
        f"got {got}, static partitions {sum(got['static'])}/82",
    )


# ---------------------------------------------------------------------------
# 8. metrics oracle and confusion-matrix properties
# ---------------------------------------------------------------------------

def test_acceptance_8_metrics_oracle():
    schema = ClassSchema("toy2", ("a", "b"), {"a": "a", "b": "b"})
    truth = AnnotatedSet([("x1", "a"), ("x2", "a"), ("x3", "b"), ("x4", "b")], schema)
    preds = [("x1", "a"), ("x2", "b"), ("x3", "b"), ("x4", "b")]
    cm, report = evaluate(preds, truth)
    oracle_ok = (
        cm.counts.tolist() == [[1, 1], [0, 2]]
        and abs(report.accuracy - 0.75) <= 1e-9
        and abs(report.macro_f1 - (2 / 3 + 0.8) / 2) <= 1e-9
    )

    rng = np.random.default_rng(88)
    prop_ok = 0
    trials = 200
    for _ in range(trials):
        k = int(rng.integers(2, 6))
        names = tuple(f"c{i}" for i in range(k))
        sch = ClassSchema("rand", names, {n: n for n in names})
        counts = {n: int(rng.integers(1, 12)) for n in names}
        entries = []
        for n, c in counts.items():
            entries.extend((f"{n}_{i}", n) for i in range(c))
        truth_r = AnnotatedSet(entries, sch)
        preds_r = [(cid, names[rng.integers(0, k)]) for cid, _ in entries]
        cm1, rep1 = evaluate(preds_r, truth_r)
        perm = [preds_r[i] for i in rng.permutation(len(preds_r))]
        cm2, rep2 = evaluate(perm, truth_r)
        rows_ok = all(
            cm1.counts[i].sum() == counts[n] for i, n in enumerate(names)
        )
        prop_ok += bool(rows_ok and np.array_equal(cm1.counts, cm2.counts) and rep1 == rep2)

    _report(
        8, "metrics-oracle", oracle_ok and prop_ok == trials,
        f"hand matrix ok={oracle_ok}, {prop_ok}/{trials} random matrices keep "
        "row sums and permutation invariance",
    )


# ---------------------------------------------------------------------------
# 9. byte-level determinism of the full pipeline
# ---------------------------------------------------------------------------

def _determinism_artifacts(root: Path) -> dict:
    corpus = root / "corpus"
    _run(["synth", "--classes", "static,tilt,pan,zoom", "--per-class", "5",
          "--domain", "historical", "--seed", "21", "--out", str(corpus),
          "--size", "64", "--frames", "4"])
    features = root / "features.csv"
    _run(["extract", "--ann", str(corpus / "annotations.csv"), "--out", str(features),
          "--interval", "1", "--frames-per-clip", "4", "--target-size", "64",
          "--jobs", "8", "--seed", "21"])
    stats = root / "stats.json"
    _run(["stats", "--features", str(features), "--out", str(stats), "--seed", "21"])
    splits = root / "splits"
    _run(["split", "--ann", str(corpus / "annotations.csv"), "--schema", "modern4",
          "--seed", "21", "--out-dir", str(splits)])
    model = root / "model.json"
    _run(["train", "--features", str(features), "--train", str(splits / "train.csv"),
          "--val", str(splits / "val.csv"), "--mode", "fusion", "--stats", str(stats),
          "--clips", str(corpus), "--schema", "modern4", "--seed", "21",
          "--out", str(model), "--epochs", "4", "--batch-size", "8",
          "--log", str(root / "log.csv")])
    metrics = root / "metrics.json"
    _run(["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
          "--model", str(model), "--features", str(features), "--stats", str(stats),
          "--clips", str(corpus), "--out-metrics", str(metrics),
          "--out-confusion", str(root / "confusion.csv")])
    _run(["viz", "rose", "--features", str(features), "--label", "pan",
          "--out", str(root / "rose.svg")])
    _run(["viz", "grid", "--features", str(features), "--clip-id", "pan_0001",
          "--out", str(root / "grid.svg")])
    names = ["features.csv", "stats.json", "model.json", "metrics.json",
             "confusion.csv", "rose.svg", "grid.svg", "log.csv"]
    return {name: (root / name).read_bytes() for name in names}


def test_acceptance_9_pipeline_determinism(tmp_path):
    first = _determinism_artifacts(tmp_path / "run1")
    second = _determinism_artifacts(tmp_path / "run2")
    mismatched = [name for name in first if first[name] != second[name]]
    _report(
        9, "pipeline-determinism", not mismatched,
        "all artifacts byte-identical across runs (extract --jobs 8)"
        if not mismatched else f"differing artifacts: {mismatched}",
    )
