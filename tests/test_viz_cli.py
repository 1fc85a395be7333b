"""Visualization output and command-line surface tests."""

import argparse
import ast
import csv
import errno
import hashlib
import json
import math
import multiprocessing
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgme
import dgme.cli
import dgme.descriptor
import dgme.evaluation
import dgme.model
from dgme import synth
from dgme._meta import format_meta, parse_meta
from dgme.cli import main
from dgme.descriptor import read_features_csv
from dgme.evaluation import read_annotations_csv
from dgme.videoio import clip_id
from dgme.viz import aggregate_bins, grid_arrow_angles, grid_svg, rose_geometry, rose_svg


def _descriptor_with(cell_bins):
    """Build a 117-vector from a per-cell 13-bin template."""
    return np.tile(np.asarray(cell_bins, dtype=np.float64), 9)


# ---------------------------------------------------------------------------
# viz geometry
# ---------------------------------------------------------------------------

def test_rose_dominant_wedge_for_pan_right():
    cell = np.zeros(13)
    cell[0] = 5.0  # all directional mass in bin 0
    cell[3] = 1.0
    directional, static = aggregate_bins(_descriptor_with(cell)[None, :])
    radii = rose_geometry(directional)
    assert radii.argmax() == 0
    assert radii[0] == pytest.approx(120.0)


def test_rose_zero_mass_is_all_zero_radii():
    assert np.all(rose_geometry(np.zeros(12)) == 0.0)


def test_grid_all_static_has_no_fill_and_no_arrows():
    cell = np.zeros(13)
    cell[12] = 2.0
    svg = grid_svg(_descriptor_with(cell))
    assert svg.count('fill="none"') == 9
    assert "<line" not in svg and "<polygon" not in svg


def test_grid_arrow_at_circular_mean():
    cell = np.zeros(13)
    cell[0] = 1.0
    cell[11] = 1.0  # mass split across the 0-degree boundary
    angles = grid_arrow_angles(_descriptor_with(cell))
    assert all(a is not None for a in angles)
    # circular mean of bin centers 15 and 345 is 0
    assert angles[0] == pytest.approx(0.0, abs=1e-9)


def test_grid_arrow_suppressed_when_static_dominates():
    cell = np.zeros(13)
    cell[2] = 1.0
    cell[12] = 1.5
    angles = grid_arrow_angles(_descriptor_with(cell))
    assert all(a is None for a in angles)


def test_svg_deterministic():
    rng = np.random.default_rng(1)
    values = np.abs(rng.normal(size=117))
    assert grid_svg(values) == grid_svg(values.copy())
    directional, _ = aggregate_bins(values[None, :])
    assert rose_svg(directional) == rose_svg(directional.copy())


@pytest.mark.parametrize("view, with_meta, digest", [
    ("rose", False, "2d73af8f0754df912fbc310536b2be20711e11fb7a0abfb7aa178bcadee86eaa"),
    ("rose", True, "cc9553a824d7fdd7c646dd7604c8b96eb8f0508fbe44c675d904b3be5d72502f"),
    ("grid", False, "a09301455aabb4e77251fc7a622b4475c368e12d57b95a1350b6040bd1aafaf3"),
    ("grid", True, "aa519fcfd81e24d5693e294ef5e9c3ccf0768a749d49904a34eabb3078a9a861"),
], ids=["rose", "rose-meta", "grid", "grid-meta"])
def test_svg_bytes_pinned(view, with_meta, digest):
    # a fixed descriptor whose first cell has no static mass and whose last
    # cell is static-dominated, so the grid has shades, arrows and a blank
    values = np.random.default_rng(19).random(117) ** 3
    values[12::13] *= np.arange(9)
    meta = {"version": "0.1.0", "seed": 7, "config_hash": "a45e484d53c2"} if with_meta else None
    svg = (rose_svg(aggregate_bins(values)[0], meta) if view == "rose"
           else grid_svg(values, meta))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = main(["synth", "--classes", "static,pan,tilt,zoom", "--per-class", "6",
               "--domain", "modern", "--seed", "5", "--out", str(corpus),
               "--size", "64", "--frames", "4"])
    assert rc == 0
    features = root / "features.csv"
    rc = main(["extract", "--ann", str(corpus / "annotations.csv"), "--out", str(features),
               "--interval", "1", "--frames-per-clip", "4", "--target-size", "64",
               "--jobs", "1", "--seed", "5"])
    assert rc == 0
    return root


def test_cli_unknown_class_is_usage_error(tmp_path, capsys):
    rc = main(["synth", "--classes", "whirl", "--per-class", "1", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown class 'whirl', valid classes: static, tilt, pan, zoom, track"]
    assert not (tmp_path / "x").exists()


def test_cli_missing_clip_file_names_row(tmp_path, capsys):
    ann = tmp_path / "annotations.csv"
    ann.write_text("# dgme-corpus seed=0 domain=modern\nclip_path,label\nmissing.y8seq,pan\n")
    rc = main(["extract", "--ann", str(ann), "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "row 1" in capsys.readouterr().err


def test_cli_stats_requires_two_rows(mini_corpus, tmp_path, capsys):
    features = mini_corpus / "features.csv"
    text = features.read_text().splitlines()
    (tmp_path / "one.csv").write_text("\n".join(text[:3]) + "\n")
    rc = main(["stats", "--features", str(tmp_path / "one.csv"), "--out", str(tmp_path / "s.json")])
    assert rc == 2
    assert ">= 2" in capsys.readouterr().err


def test_cli_stats_and_normalize(mini_corpus, tmp_path):
    features = mini_corpus / "features.csv"
    stats = tmp_path / "stats.json"
    assert main(["stats", "--features", str(features), "--out", str(stats), "--seed", "5"]) == 0
    out = tmp_path / "cal.csv"
    assert main(["normalize", "--features", str(features), "--stats", str(stats),
                 "--out", str(out)]) == 0
    stats_obj = dgme.descriptor.read_stats_json(stats)
    meta, _, _, matrix = read_features_csv(out)
    assert "calibrated" not in meta
    assert meta["stats_digest"] == dgme.descriptor.stats_digest(stats_obj)
    live = matrix.std(axis=0) > 1e-6
    # the normalization itself zeroes column means to ~1e-16; the written
    # file adds only the 9-significant-digit quantization of the format
    assert np.all(np.abs(matrix.mean(axis=0)[live]) < 2e-8)

    _, _, _, raw = read_features_csv(features)
    calibrated = (raw - stats_obj.mean) / np.maximum(stats_obj.std, 1e-8)
    assert np.all(np.abs(calibrated.mean(axis=0)[live]) < 1e-9)


def test_cli_normalize_hash_mismatch(mini_corpus, tmp_path, capsys):
    features = mini_corpus / "features.csv"
    stats = tmp_path / "s.json"
    assert main(["stats", "--features", str(features), "--out", str(stats)]) == 0
    payload = json.loads(stats.read_text())
    payload["config_hash"] = "deadbeef0000"
    stats.write_text(json.dumps(payload))
    rc = main(["normalize", "--features", str(features), "--stats", str(stats),
               "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "config hash mismatch" in capsys.readouterr().err


def test_cli_extract_jobs_parallel_identical(mini_corpus, tmp_path):
    corpus = mini_corpus / "corpus"
    out8 = tmp_path / "f8.csv"
    rc = main(["extract", "--ann", str(corpus / "annotations.csv"), "--out", str(out8),
               "--interval", "1", "--frames-per-clip", "4", "--target-size", "64",
               "--jobs", "8", "--seed", "5"])
    assert rc == 0
    assert out8.read_bytes() == (mini_corpus / "features.csv").read_bytes()


def test_cli_split_train_eval_round_trip(mini_corpus, tmp_path, capsys):
    corpus = mini_corpus / "corpus"
    features = mini_corpus / "features.csv"
    splits = tmp_path / "splits"
    assert main(["split", "--ann", str(corpus / "annotations.csv"), "--schema", "modern4",
                 "--seed", "5", "--out-dir", str(splits)]) == 0
    for name in ("train", "val", "test"):
        assert (splits / f"{name}.csv").is_file()

    stats = tmp_path / "stats.json"
    assert main(["stats", "--features", str(features), "--out", str(stats), "--seed", "5"]) == 0

    model = tmp_path / "model.json"
    rc = main(["train", "--features", str(features), "--train", str(splits / "train.csv"),
               "--val", str(splits / "val.csv"), "--mode", "fusion", "--stats", str(stats),
               "--clips", str(corpus), "--schema", "modern4", "--seed", "5",
               "--out", str(model), "--epochs", "3", "--batch-size", "8"])
    assert rc == 0
    payload = json.loads(model.read_text())
    assert payload["stats_digest"] == dgme.descriptor.stats_digest(
        dgme.descriptor.read_stats_json(stats))
    assert payload["backbone_dim"] == 64

    metrics = tmp_path / "metrics.json"
    confusion = tmp_path / "confusion.csv"
    preds = tmp_path / "preds.csv"
    rc = main(["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
               "--model", str(model), "--features", str(features), "--stats", str(stats),
               "--clips", str(corpus), "--out-metrics", str(metrics),
               "--out-confusion", str(confusion), "--out-predictions", str(preds)])
    assert rc == 0
    report = json.loads(metrics.read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert confusion.read_text().startswith("# dgme-confusion")

    # scoring a shuffled predictions file reproduces identical metrics
    lines = preds.read_text().splitlines()
    shuffled = lines[:2] + list(reversed(lines[2:]))
    (tmp_path / "shuf.csv").write_text("\n".join(shuffled) + "\n")
    metrics2 = tmp_path / "metrics2.json"
    rc = main(["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
               "--predictions", str(tmp_path / "shuf.csv"), "--seed", "5",
               "--out-metrics", str(metrics2), "--out-confusion", str(tmp_path / "c2.csv")])
    assert rc == 0
    assert json.loads(metrics2.read_text())["macro_f1"] == report["macro_f1"]


def test_cli_model_with_old_embedding_fields_evaluates_the_same(mini_corpus, tmp_path):
    # older model files restate the head's kind, seed and width as mode,
    # embed_seed and embed_dim; eval reads the head, so they change no byte
    corpus = mini_corpus / "corpus"
    features = mini_corpus / "features.csv"
    splits = tmp_path / "splits"
    assert main(["split", "--ann", str(corpus / "annotations.csv"), "--schema", "modern4",
                 "--seed", "5", "--out-dir", str(splits)]) == 0
    model = tmp_path / "new.json"
    assert main(["train", "--features", str(features), "--train", str(splits / "train.csv"),
                 "--val", str(splits / "val.csv"), "--mode", "fusion", "--clips", str(corpus),
                 "--schema", "modern4", "--seed", "5", "--out", str(model),
                 "--epochs", "2", "--batch-size", "8"]) == 0
    payload = json.loads(model.read_text())
    assert not {"mode", "embed_seed", "embed_dim"} & payload.keys()
    (tmp_path / "old.json").write_text(json.dumps(
        {**payload, "mode": "fusion", "embed_seed": 5, "embed_dim": 64}, indent=1))

    outputs = {}
    for name in ("new", "old"):
        out = [tmp_path / f"{name}_{kind}" for kind in ("pred.csv", "metrics.json", "cm.csv")]
        assert main(["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
                     "--model", str(tmp_path / f"{name}.json"), "--features", str(features),
                     "--clips", str(corpus), "--out-predictions", str(out[0]),
                     "--out-metrics", str(out[1]), "--out-confusion", str(out[2])]) == 0
        outputs[name] = [path.read_bytes() for path in out]
    assert outputs["new"] == outputs["old"]


def test_cli_fusion_without_clips_is_usage_error(mini_corpus, tmp_path, capsys):
    features = mini_corpus / "features.csv"
    rc = main(["train", "--features", str(features), "--train", str(features),
               "--val", str(features), "--mode", "fusion", "--schema", "modern4",
               "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "requires --clips" in capsys.readouterr().err


def test_cli_cross_domain_eval_without_calibration_refused(tmp_path, capsys):
    # modern-trained model, historical features, no stats -> data error
    mod = tmp_path / "mod"
    hist = tmp_path / "hist"
    for domain, out in (("modern", mod), ("historical", hist)):
        assert main(["synth", "--classes", "static,pan,zoom", "--per-class", "5",
                     "--domain", domain, "--seed", "3", "--out", str(out),
                     "--size", "64", "--frames", "4"]) == 0
    fm = tmp_path / "fm.csv"
    fh = tmp_path / "fh.csv"
    for corpus, out in ((mod, fm), (hist, fh)):
        assert main(["extract", "--ann", str(corpus / "annotations.csv"), "--out", str(out),
                     "--interval", "1", "--frames-per-clip", "4",
                     "--target-size", "64", "--seed", "3"]) == 0
    splits = tmp_path / "splits"
    assert main(["split", "--ann", str(mod / "annotations.csv"), "--schema", "modern4",
                 "--seed", "3", "--out-dir", str(splits)]) == 0
    model = tmp_path / "m.json"
    assert main(["train", "--features", str(fm), "--train", str(splits / "train.csv"),
                 "--val", str(splits / "val.csv"), "--schema", "modern4",
                 "--seed", "3", "--out", str(model), "--epochs", "2"]) == 0

    hist_split = tmp_path / "hist_split.csv"
    hist_ann = (hist / "annotations.csv").read_text().splitlines()
    hist_split.write_text("\n".join(hist_ann) + "\n")
    rc = main(["eval", "--split", str(hist_split), "--schema", "modern4",
               "--model", str(model), "--features", str(fh),
               "--out-metrics", str(tmp_path / "mm.json"),
               "--out-confusion", str(tmp_path / "cc.csv")])
    assert rc == 2
    assert "calibration" in capsys.readouterr().err


def test_cli_fusion_without_stats_warns(mini_corpus, tmp_path, capsys):
    corpus = mini_corpus / "corpus"
    features = mini_corpus / "features.csv"
    splits = tmp_path / "sp"
    assert main(["split", "--ann", str(corpus / "annotations.csv"), "--schema", "modern4",
                 "--seed", "5", "--out-dir", str(splits)]) == 0
    rc = main(["train", "--features", str(features), "--train", str(splits / "train.csv"),
               "--val", str(splits / "val.csv"), "--mode", "fusion",
               "--clips", str(corpus), "--schema", "modern4", "--seed", "5",
               "--out", str(tmp_path / "m.json"), "--epochs", "2"])
    assert rc == 0
    assert "warning" in capsys.readouterr().err


def test_cli_viz_outputs(mini_corpus, tmp_path, capsys):
    features = mini_corpus / "features.csv"
    rose = tmp_path / "rose.svg"
    assert main(["viz", "rose", "--features", str(features), "--label", "pan",
                 "--out", str(rose)]) == 0
    text = rose.read_text()
    assert text.startswith("<?xml") and "<svg" in text
    assert "dgme-viz" in text  # metadata comment

    grid = tmp_path / "grid.svg"
    assert main(["viz", "grid", "--features", str(features), "--clip-id", "pan_0001",
                 "--out", str(grid)]) == 0
    assert "<svg" in grid.read_text()

    rc = main(["viz", "rose", "--features", str(features), "--label", "track",
               "--out", str(tmp_path / "no.svg")])
    assert rc == 2
    assert "no clips" in capsys.readouterr().err


def test_cli_artifacts_embed_metadata(mini_corpus):
    features = mini_corpus / "features.csv"
    first = features.read_text().splitlines()[0]
    assert first.startswith("# dgme-features")
    assert "version=" in first and "seed=5" in first and "config_hash=" in first


def test_cli_metadata_first_lines_pinned(mini_corpus, tmp_path):
    # two runs of the same code cannot catch a drift of the format itself,
    # so the first line of each metadata-bearing artifact kind is pinned
    corpus = mini_corpus / "corpus"
    features = mini_corpus / "features.csv"
    splits = tmp_path / "splits"
    assert main(["split", "--ann", str(corpus / "annotations.csv"), "--schema", "modern4",
                 "--seed", "5", "--out-dir", str(splits)]) == 0
    assert main(["stats", "--features", str(features), "--out", str(tmp_path / "s.json"),
                 "--seed", "5"]) == 0
    assert main(["normalize", "--features", str(features), "--stats", str(tmp_path / "s.json"),
                 "--out", str(tmp_path / "cal.csv")]) == 0
    assert main(["train", "--features", str(features), "--train", str(splits / "train.csv"),
                 "--val", str(splits / "val.csv"), "--schema", "modern4", "--seed", "5",
                 "--out", str(tmp_path / "m.json"), "--log", str(tmp_path / "log.csv"),
                 "--epochs", "1"]) == 0
    assert main(["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
                 "--model", str(tmp_path / "m.json"), "--features", str(features),
                 "--out-metrics", str(tmp_path / "mm.json"),
                 "--out-confusion", str(tmp_path / "cm.csv")]) == 0
    assert main(["viz", "rose", "--features", str(features), "--label", "pan",
                 "--out", str(tmp_path / "rose.svg")]) == 0

    v = dgme.__version__
    expected = {
        corpus / "annotations.csv": f"# dgme-corpus version={v} seed=5 domain=modern",
        features: f"# dgme-features version={v} seed=5 config_hash=a45e484d53c2 domain=modern",
        tmp_path / "cal.csv": f"# dgme-features version={v} seed=5 config_hash=a45e484d53c2 "
                              "domain=modern stats_digest=2416f100f9f9",
        splits / "train.csv": f"# dgme-annotations version={v} seed=5 schema=modern4 "
                              "domain=modern",
        tmp_path / "cm.csv": f"# dgme-confusion version={v} seed=5 schema=modern4",
        tmp_path / "log.csv": f"# dgme-trainlog version={v} seed=5 config_hash=a45e484d53c2",
    }
    for path, line in expected.items():
        assert path.read_text().splitlines()[0] == line, path.name
    assert (tmp_path / "rose.svg").read_text().splitlines()[1] == (
        f"<!-- dgme-viz version={v} seed=5 config_hash=a45e484d53c2 -->"
    )
    # the JSON artifacts state each fact once: no key restates another
    weights = {"class_names", "backbone_dim", "descriptor_dim", "alpha", "ln_gain", "ln_bias",
               "W", "b"}
    model = json.loads((tmp_path / "m.json").read_text())
    assert [k for k in model if k not in weights] == [
        "version", "seed", "config_hash", "schema", "stats_digest", "train_domain"]
    assert list(json.loads((tmp_path / "s.json").read_text())) == [
        "version", "seed", "config_hash", "domain", "count", "mean", "std"]

    # the readers parse what the writer wrote, values as strings
    meta = {"version": v, "seed": 5, "config_hash": "a45e484d53c2", "domain": "modern"}
    as_text = {k: str(val) for k, val in meta.items()}
    assert parse_meta("# " + format_meta("features", meta)) == as_text
    assert read_features_csv(features)[0] == as_text
    assert read_annotations_csv(splits / "train.csv")[0] == {
        "version": v, "seed": "5", "schema": "modern4", "domain": "modern"}


def _features_file(tmp_path, *rows, name="features.csv", comment="seed=0"):
    """A 117-column features table whose ``rows`` give two descriptor
    values each, then 115 zeros; returns ``stats`` of it."""
    path = tmp_path / name
    path.write_text(f"# dgme-features {comment}\nclip_id,label,"
                    + ",".join(f"f{i}" for i in range(117)) + "\n"
                    + "".join(row + ",0" * 115 + "\n" for row in rows))
    return ["stats", "--features", str(path), "--out", str(tmp_path / "s.json")]


def _stats_file(tmp_path, config_hash="h", mean=0.0, std=1.0, count=2):
    """``s.json``: statistics of 117 features, ``mean`` and ``std`` in the
    first dimension and 0 and 1 in the others, fitted on ``count`` rows."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"config_hash": config_hash, "count": count,
                                "mean": [mean] + [0.0] * 116, "std": [std] + [1.0] * 116}))
    return str(path)


def _y8seq_corpus(tmp_path, *clips, width=16, height=16):
    """Corpus of (relative path, frame count, label) clips of black frames."""
    for rel, count, _ in clips:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"Y8SQ" + struct.pack("<III", width, height, count)
                         + bytes(width * height * count))
    ann = tmp_path / "annotations.csv"
    ann.write_text("clip_path,label\n" + "".join(f"{rel},{label}\n" for rel, _, label in clips))
    return ["extract", "--ann", str(ann), "--out", str(tmp_path / "f.csv"),
            "--frames-per-clip", "2", "--interval", "1", "--target-size", "16"]


def _pgm_dir_corpus(tmp_path, frame):
    """Corpus of one clip: a directory of two copies of the PGM ``frame``."""
    (tmp_path / "clip").mkdir()
    for name in ("f0.pgm", "f1.pgm"):
        (tmp_path / "clip" / name).write_bytes(frame)
    ann = tmp_path / "annotations.csv"
    ann.write_text("clip_path,label\nclip,pan\n")
    return ["extract", "--ann", str(ann), "--out", str(tmp_path / "f.csv"),
            "--frames-per-clip", "2", "--interval", "1", "--target-size", "16"]


def _unit_mean_digest(std, width=117):
    """``stats_digest`` of the statistics ``_stats_file`` writes, cut to
    ``width`` features."""
    return dgme.descriptor.stats_digest(
        dgme.descriptor.NormStats([0.0] * width, [float(std)] + [1.0] * (width - 1), 2, "h"))


def _eval_model(tmp_path, weight=0.0, std=None):
    """``eval`` of a hand-written descriptor-only head on two 117-d feature
    rows; a ``std`` adds a stats file and marks the head calibrated with
    those statistics."""
    _features_file(tmp_path, "a,pan,0.1,0.2", "b,tilt,0.3,0.4",
                   name="f.csv", comment="seed=0 config_hash=h")
    (tmp_path / "split.csv").write_text("clip_path,label\na.y8seq,pan\nb.y8seq,tilt\n")
    model = {"config_hash": "h", "mode": "dgme_only",
             "class_names": ["static", "tilt", "pan", "zoom"], "backbone_dim": 0,
             "descriptor_dim": 117, "alpha": 1.0, "ln_gain": [1.0] * 117, "ln_bias": [0.0] * 117,
             "W": [[weight] + [0.0] * 116] + [[0.0] * 117] * 3, "b": [0.0] * 4}
    if std is not None:
        model["stats_digest"] = _unit_mean_digest(std)
    (tmp_path / "m.json").write_text(json.dumps(model))
    args = ["eval", "--split", str(tmp_path / "split.csv"), "--schema", "modern4",
            "--model", str(tmp_path / "m.json"), "--features", str(tmp_path / "f.csv"),
            "--out-metrics", str(tmp_path / "mm.json"), "--out-confusion", str(tmp_path / "c.csv")]
    if std is None:
        return args
    return args + ["--stats", _stats_file(tmp_path, std=std)]


def test_cli_hand_written_model_evaluates(tmp_path):
    # the same files without a NaN evaluate cleanly, raw and calibrated
    assert main(_eval_model(tmp_path)) == 0
    assert main(_eval_model(tmp_path, std=2.0)) == 0


def _normalize(tmp_path, **stats):
    """``normalize`` of a two-row table with ``_stats_file(**stats)``."""
    _features_file(tmp_path, "a,pan,0.1,0.2", "b,pan,0.3,0.4")
    return ["normalize", "--features", str(tmp_path / "features.csv"),
            "--stats", _stats_file(tmp_path, "", **stats), "--out", str(tmp_path / "n.csv")]


def _model_field(tmp_path, key, value, **more):
    """``_eval_model`` with fields of the model JSON replaced."""
    args = _eval_model(tmp_path)
    model = json.loads((tmp_path / "m.json").read_text())
    model[key] = value
    model.update(more)
    (tmp_path / "m.json").write_text(json.dumps(model))
    return args


def _seed_in_features_comment(tmp_path):
    _features_file(tmp_path, "a,pan,0.1,0.2", "b,pan,0.3,0.4")
    path = tmp_path / "features.csv"
    path.write_text(path.read_text().replace("seed=0", "seed=abc"))
    return ["normalize", "--features", str(path), "--stats", _stats_file(tmp_path, ""),
            "--out", str(tmp_path / "n.csv")]


def _with_stats(tmp_path, args, config_hash="h"):
    """``args`` with ``--stats`` of unit statistics for 117 features."""
    return args + ["--stats", _stats_file(tmp_path, config_hash)]


def _on_calibrated_table(tmp_path, *argv):
    """``argv`` with ``--features`` of a two-row table calibrated with
    statistics of some digest."""
    _features_file(tmp_path, "a,pan,0.1,0.2", "b,pan,0.3,0.4")
    path = tmp_path / "features.csv"
    path.write_text(path.read_text().replace("seed=0", "seed=0 stats_digest=0123456789ab"))
    return [*argv, "--features", str(path)]


def _features_without_hash(tmp_path):
    """``_eval_model`` on a features table whose config hash is removed."""
    args = _eval_model(tmp_path)
    path = tmp_path / "f.csv"
    path.write_text(path.read_text().replace(" config_hash=h", ""))
    return args


def _other_stats(tmp_path):
    """``_eval_model`` trained with std 2 statistics, evaluated with std 3 ones."""
    args = _eval_model(tmp_path, std=2.0)
    _stats_file(tmp_path, std=3.0)
    return args


def _on_table_calibrated_with(tmp_path, digest):
    """``_eval_model`` trained with std 2 statistics, evaluated without
    ``--stats`` on a table calibrated with statistics of ``digest``; None
    marks it ``calibrated`` without a digest, as tables written before the
    digest existed."""
    args = _eval_model(tmp_path, std=2.0)[:-2]
    path = tmp_path / "f.csv"
    mark = "calibrated=true" if digest is None else f"stats_digest={digest}"
    path.write_text(path.read_text().replace("config_hash=h", f"config_hash=h {mark}"))
    return args


def _model_without_digest(tmp_path):
    """``_eval_model`` with ``--stats`` of a model marked ``calibrated`` that
    records no statistics digest, as models written before the digest existed."""
    args = _eval_model(tmp_path, std=2.0)
    model = json.loads((tmp_path / "m.json").read_text())
    del model["stats_digest"]
    model["calibrated"] = True
    (tmp_path / "m.json").write_text(json.dumps(model))
    return args


def _one_column_short(tmp_path, command):
    """``command`` on ``_eval_model``'s calibrated files with the last
    descriptor column dropped from the features table, header and rows,
    and from the statistics and the model, so that all three agree on 116
    columns and only the table's width is wrong."""
    args = _eval_model(tmp_path, std=2.0)
    path = tmp_path / "f.csv"
    comment, *lines = path.read_text().splitlines()
    path.write_text("".join(f"{line}\n" for line in
                            [comment, *(line.rsplit(",", 1)[0] for line in lines)]))
    fitted = json.loads((tmp_path / "s.json").read_text())
    (tmp_path / "s.json").write_text(json.dumps(
        {**fitted, "mean": fitted["mean"][:-1], "std": fitted["std"][:-1]}))
    model = json.loads((tmp_path / "m.json").read_text())
    model.update(descriptor_dim=116, ln_gain=model["ln_gain"][:-1],
                 ln_bias=model["ln_bias"][:-1], W=[row[:-1] for row in model["W"]],
                 stats_digest=_unit_mean_digest(2, width=116))
    (tmp_path / "m.json").write_text(json.dumps(model))
    features, stats, split = (str(tmp_path / n) for n in ("f.csv", "s.json", "split.csv"))
    out = str(tmp_path / "out")
    return {
        "stats": ["stats", "--features", features, "--out", out],
        "normalize": ["normalize", "--features", features, "--stats", stats, "--out", out],
        "train": ["train", "--features", features, "--train", split, "--val", split,
                  "--stats", stats, "--schema", "modern4", "--out", out],
        "eval": args,
        "viz": ["viz", "grid", "--features", features, "--clip-id", "a", "--out", out],
    }[command]


def _ragged_annotations(tmp_path):
    (tmp_path / "a.csv").write_text("clip_path,label\na.y8seq,pan\nb.y8seq,pan,extra\n")
    return ["split", "--ann", str(tmp_path / "a.csv"), "--schema", "modern4",
            "--out-dir", str(tmp_path / "splits")]


def _repeated_clip_annotations(tmp_path):
    (tmp_path / "a.csv").write_text("clip_path,label\na.y8seq,pan\nb.y8seq,tilt\nx/a.y8seq,pan\n")
    return ["split", "--ann", str(tmp_path / "a.csv"), "--schema", "modern4",
            "--out-dir", str(tmp_path / "splits")]


def _annotations_bytes(tmp_path, data):
    """``split`` of annotations whose file holds the bytes ``data``."""
    (tmp_path / "a.csv").write_bytes(b"clip_path,label\n" + data)
    return ["split", "--ann", str(tmp_path / "a.csv"), "--schema", "modern4",
            "--out-dir", str(tmp_path / "splits")]


# annotation rows of five pan and five tilt clips, enough to split
_TEN_ROWS = b"".join(b"%s%d.y8seq,%s\n" % (label, i, label) for label in (b"pan", b"tilt")
                     for i in range(5))


def _undecodable_features(tmp_path):
    """``stats`` of a features table whose first clip id holds a 0xff byte."""
    args = _features_file(tmp_path, "a,pan,0.1,0.2", "b,pan,0.3,0.4")
    path = tmp_path / "features.csv"
    path.write_bytes(path.read_bytes().replace(b"\na,pan", b"\na\xff,pan"))
    return args


def _repeated_split_id(tmp_path):
    """``_eval_model`` with ``--out-predictions``, on a split that lists clip
    a twice."""
    args = _eval_model(tmp_path) + ["--out-predictions", str(tmp_path / "p.csv")]
    (tmp_path / "split.csv").write_text("clip_path,label\na.y8seq,pan\nb.y8seq,tilt\n"
                                        "x/a.y8seq,pan\n")
    return args


def _repeated_val_id(tmp_path):
    """``train`` on ``_eval_model``'s two-row table with a ``--val`` split
    that lists clip a twice."""
    _eval_model(tmp_path)
    (tmp_path / "val.csv").write_text("clip_path,label\na.y8seq,pan\nb.y8seq,tilt\n"
                                      "x/a.y8seq,pan\n")
    return ["train", "--features", str(tmp_path / "f.csv"), "--train", str(tmp_path / "split.csv"),
            "--val", str(tmp_path / "val.csv"), "--schema", "modern4",
            "--out", str(tmp_path / "out.json")]


def _scored_predictions(tmp_path, split_rows, prediction_rows):
    """``eval --predictions`` of ``prediction_rows`` against ``split_rows``."""
    (tmp_path / "split.csv").write_text("clip_path,label\n" + split_rows)
    (tmp_path / "p.csv").write_text("clip_path,label\n" + prediction_rows)
    return ["eval", "--split", str(tmp_path / "split.csv"), "--schema", "modern4",
            "--predictions", str(tmp_path / "p.csv"),
            "--out-metrics", str(tmp_path / "mm.json"), "--out-confusion", str(tmp_path / "c.csv")]


def _viz(tmp_path, comment, *view):
    """``viz`` ``view`` of a two-row table whose metadata is ``comment``."""
    _features_file(tmp_path, "a,pan,0.1,0.2", "b,pan,0.3,0.4", comment=comment)
    return ["viz", *view, "--features", str(tmp_path / "features.csv"),
            "--out", str(tmp_path / "v.svg")]


def _schema_file(tmp_path, text):
    (tmp_path / "schema.json").write_text(text)
    return ["split", "--ann", str(tmp_path / "a.csv"), "--schema", str(tmp_path / "schema.json"),
            "--out-dir", str(tmp_path / "splits")]


_PRE_DIGEST_MODEL = ("model: calibrated without a stats_digest, as written before digests "
                     "were recorded; run train again")


@pytest.mark.parametrize("make_args, message", [
    (lambda t: _features_file(t, "a,pan,0.1,0.2", "b,pan,0.3"), "row 2"),
    (lambda t: _features_file(t, "a,pan,0.1,abc", "b,pan,0.3,0.4"), "row 1 (a)"),
    (lambda t: _features_file(t, "a,pan,0.1,0.2", "b,pan,nan,0.4"), "row 2 (b)"),
    (lambda t: _features_file(t, "a,pan,inf,0.2", "b,pan,0.3,0.4"), "row 1 (a)"),
    (lambda t: _features_file(t, "a,pan,0.1,0.2", "b,pan,0.3,0.4", "a,tilt,0.5,0.6"),
     "row 3 (a) repeats the clip id of row 1"),
    (lambda t: _y8seq_corpus(t, ("c0.y8seq", 0, "pan")), "0 frames"),
    (lambda t: _y8seq_corpus(t, ("c0.y8seq", 1, "pan")), "1 frames"),
    (lambda t: _y8seq_corpus(t, ("c0.y8seq", 2, "pan"), width=0),
     "c0.y8seq holds 0x16 frames, a clip needs at least 1x1"),
    (lambda t: _pgm_dir_corpus(t, b"P5\n0 10\n255\n"),
     "f0.pgm is a 0x10 frame, a clip needs at least 1x1"),
    (lambda t: _y8seq_corpus(t, ("a/c0.y8seq", 2, "pan"), ("b/c0.y8seq", 2, "tilt")),
     "annotations row 2 (c0) repeats the clip id of row 1 in "),
    (lambda t: _eval_model(t, weight=float("nan")), "m.json: non-finite number NaN"),
    (lambda t: _eval_model(t, std=float("nan")), "s.json: non-finite number NaN"),
    (lambda t: _normalize(t, mean=10 ** 400), "s.json: int too large to convert to float"),
    (lambda t: _model_field(t, "alpha", 10 ** 400), "m.json: int too large to convert to float"),
    (lambda t: _model_field(t, "alpha", "inf"), "m.json: expected a number, got 'inf'"),
    (lambda t: _eval_model(t, std="nan"), "s.json: expected a number, got 'nan'"),
    (lambda t: _model_field(t, "alpha", True), "m.json: expected a number, got True"),
    (lambda t: _normalize(t, std=True), "s.json: expected a number, got True"),
    (lambda t: _model_field(t, "backbone_dim", False), "m.json: expected an integer, got False"),
    (lambda t: _model_field(t, "descriptor_dim", 117.9), "m.json: expected an integer, got 117.9"),
    (lambda t: _normalize(t, count=True), "s.json: expected an integer, got True"),
    (_ragged_annotations, "annotations row 2"),
    (_repeated_clip_annotations, "annotations row 3 (a) repeats the clip id of row 1 in "),
    (lambda t: _schema_file(t, '{"name": "x", "remap": {}}'), "schema.json: 'classes'"),
    (lambda t: _schema_file(t, '{"name": '), "malformed schema file"),
    (lambda t: _schema_file(t, '{"name": "my schema", "classes": ["pan"], "remap": {}}'),
     "schema.json: schema name must be one token, got 'my schema'"),
    (lambda t: _model_field(t, "backbone_dim", 10 ** 12),
     "m.json: W must be (4, 1000000000117) and b (4,), got (4, 117), (4,)"),
    (lambda t: _model_field(t, "seed", "abc"), "m.json: seed must be an integer, got 'abc'"),
    (lambda t: _model_field(t, "seed", None), "m.json: seed must be an integer, got None"),
    (lambda t: _model_field(t, "seed", -1, backbone_dim=64, W=[[0.0] * 181] * 4)
     + ["--clips", str(t)], "m.json: a fusion model's seed must be >= 0, got -1"),
    (_seed_in_features_comment, "features.csv: seed must be an integer, got 'abc'"),
    (lambda t: _model_field(t, "class_names", ["zoom", "pan", "tilt", "static"]),
     "model classes ['zoom', 'pan', 'tilt', 'static'] do not match the classes "
     "['static', 'tilt', 'pan', 'zoom'] of schema modern4"),
    (lambda t: _with_stats(t, _on_calibrated_table(t, "normalize", "--out", str(t / "n.csv")),
                           ""), "features.csv are already calibrated"),
    (lambda t: _with_stats(t, _on_calibrated_table(
        t, "train", "--train", str(t / "x.csv"), "--val", str(t / "x.csv"),
        "--schema", "modern4", "--out", str(t / "m.json")), ""),
     "features.csv are already calibrated"),
    (lambda t: _model_field(t, "calibrated", True), _PRE_DIGEST_MODEL),
    (lambda t: _model_field(t, "stats_digest", _unit_mean_digest(2)),
     "model was trained on calibrated features"),
    (lambda t: _with_stats(t, _eval_model(t)), "model was trained uncalibrated"),
    (lambda t: _model_field(t, "config_hash", "g"), "config hash"),
    (_features_without_hash, "config hash mismatch: features '' vs model 'h'"),
    (lambda t: _on_calibrated_table(t, "stats", "--out", str(t / "s.json")),
     "features.csv are already calibrated"),
    (_other_stats, f"statistics mismatch: features calibrated with {_unit_mean_digest(3)!r} "
                   f"vs model trained with {_unit_mean_digest(2)!r}"),
    (lambda t: _on_table_calibrated_with(t, "0123456789ab"),
     f"statistics mismatch: features calibrated with '0123456789ab' "
     f"vs model trained with {_unit_mean_digest(2)!r}"),
    (lambda t: _on_table_calibrated_with(t, None),
     "f.csv: calibrated without a stats_digest, as written before digests were recorded; "
     "run normalize again"),
    (_model_without_digest, _PRE_DIGEST_MODEL),
    *((lambda t, c=command: _one_column_short(t, c),
       "f.csv have 116 descriptor columns, not 117")
      for command in ("stats", "normalize", "train", "eval", "viz")),
    (lambda t: _viz(t, "seed=0 stats_digest=0123456789ab", "rose", "--label", "pan"),
     "features.csv are already calibrated"),
    (lambda t: _viz(t, "seed=0 stats_digest=0123456789ab", "grid", "--clip-id", "a"),
     "features.csv are already calibrated"),
    (lambda t: _viz(t, "seed=abc", "grid", "--clip-id", "a"),
     "features.csv: seed must be an integer, got 'abc'"),
    (_repeated_split_id, "annotations row 3 (a) repeats the clip id of row 1 in "),
    (lambda t: _scored_predictions(t, "a.y8seq,pan\nb.y8seq,tilt\n",
                                   "a.y8seq,pan\nb.y8seq,tilt\nx/a.y8seq,tilt\n"),
     "predictions row 3 (a) repeats the clip id of row 1 in "),
    (lambda t: _scored_predictions(t, "a.y8seq,pan\nb.y8seq,tilt\na.y8seq,motion\n",
                                   "a.y8seq,pan\nb.y8seq,tilt\n"),
     "annotations row 3 (a) repeats the clip id of row 1 in "),
    (_repeated_val_id, "annotations row 3 (a) repeats the clip id of row 1 in "),
    (lambda t: _annotations_bytes(t, b"a\xff.y8seq,pan\n"),
     "a.csv: 'utf-8' codec can't decode byte 0xff"),
    (_undecodable_features, "features.csv: 'utf-8' codec can't decode byte 0xff"),
    (lambda t: _annotations_bytes(t, b"a" * 140_000 + b".y8seq,pan\n"),
     "a.csv: field larger than field limit"),
], ids=["ragged-row", "non-numeric-cell", "nan-cell", "inf-cell", "duplicate-features-id",
        "zero-frame-clip", "one-frame-clip", "zero-width-y8seq", "zero-size-pgm-frame",
        "duplicate-clip-id",
        "nan-model-weight", "nan-stats-std", "huge-int-stats-mean", "huge-int-model-alpha",
        "string-model-alpha", "string-stats-std", "boolean-model-alpha", "boolean-stats-std",
        "boolean-model-backbone-dim", "float-model-descriptor-dim", "boolean-stats-count",
        "ragged-annotations-row", "split-repeated-clip-id",
        "schema-without-classes", "malformed-schema", "schema-name-with-space",
        "model-backbone-dim-not-weight-width",
        "string-model-seed", "null-model-seed", "negative-fusion-model-seed",
        "string-features-seed",
        "model-classes-not-schema-classes",
        "normalize-calibrated-table", "train-stats-on-calibrated-table",
        "calibrated-model-without-stats", "digest-model-without-stats", "raw-model-with-stats", "model-hash-not-features-hash",
        "model-hash-without-features-hash", "stats-of-calibrated-table",
        "stats-not-training-stats", "table-of-other-stats", "table-without-stats-digest",
        "model-without-stats-digest", "stats-116-columns", "normalize-116-columns",
        "train-stats-116-columns", "eval-stats-116-columns", "viz-grid-116-columns",
        "viz-rose-calibrated-table", "viz-grid-calibrated-table", "string-viz-seed",
        "eval-split-repeated-clip-id", "eval-predictions-repeated-clip-id",
        "eval-split-repeats-a-dropped-row", "train-val-repeated-clip-id",
        "split-undecodable-annotations", "stats-undecodable-features",
        "split-oversized-annotations-cell"])
def test_cli_bad_input_is_data_error(tmp_path, capsys, make_args, message):
    args = make_args(tmp_path)
    files = sorted(tmp_path.rglob("*"))
    rc = main(args)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:")
    assert message in err[0]
    assert sorted(tmp_path.rglob("*")) == files  # no output file


def _refused_multi_output(tmp_path, command):
    """A data-error refusal of each command that writes more than one file,
    with every output it takes; returns (argv, output paths)."""
    if command == "train":
        return (_repeated_val_id(tmp_path) + ["--log", str(tmp_path / "log.csv")],
                [tmp_path / "out.json", tmp_path / "log.csv"])
    if command == "eval":
        return _repeated_split_id(tmp_path), [tmp_path / n for n in ("mm.json", "c.csv", "p.csv")]
    return (_repeated_clip_annotations(tmp_path),
            [tmp_path / "splits" / f"{n}.csv" for n in ("train", "val", "test")])


@pytest.mark.parametrize("command", ["train", "eval", "split"])
def test_cli_refused_multi_output_command_writes_no_output(tmp_path, capsys, command):
    args, outputs = _refused_multi_output(tmp_path, command)
    rc = main(args)
    assert rc == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert [p for p in outputs if p.exists()] == []


def _no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("command", ["stats", "split"])
def test_cli_failed_write_is_one_data_error_line(tmp_path, capsys, monkeypatch, command):
    # a full disk used to end in a 20-line OSError traceback with exit 1
    if command == "stats":
        args = _features_file(tmp_path, "a,pan,0.1,0.2", "b,pan,0.3,0.4")
        monkeypatch.setattr(dgme.descriptor, "write_stats_json", _no_space)
    else:
        args = _annotations_bytes(tmp_path, _TEN_ROWS)
        monkeypatch.setattr(dgme.evaluation, "write_annotations_csv", _no_space)
    rc = main(args)
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]


def _overwriting(tmp_path, command):
    """``command`` on ``_eval_model``'s files, with an output naming another
    output, an input or a clip; returns (argv, the two options, the path),
    or (argv, the error line) for an output inside a directory clip or one
    that is a directory."""
    if command == "split-val-directory":
        # a second split used to rewrite train.csv, keep the first test.csv,
        # then die with an IsADirectoryError traceback
        out = tmp_path / "sp"
        args = _annotations_bytes(tmp_path, _TEN_ROWS)[:-1] + [str(out)]
        assert main(args + ["--seed", "1"]) == 0
        (out / "val.csv").unlink()
        (out / "val.csv").mkdir()
        return (args + ["--seed", "2"],
                f"error: argument --out-dir: {out / 'val.csv'} is a directory")
    eval_args = _eval_model(tmp_path)
    split, features, model = (str(tmp_path / n) for n in ("split.csv", "f.csv", "m.json"))
    stats = _stats_file(tmp_path)
    test = str(tmp_path / "test.csv")
    (tmp_path / "test.csv").write_text("clip_path,label\na.y8seq,pan\n")
    schema = str(tmp_path / "schema.json")
    Path(schema).write_text('{"name": "s", "classes": ["pan"], "remap": {"pan": "pan"}}')
    train = ["train", "--features", features, "--train", split, "--val", split,
             "--schema", "modern4", "--out", model]
    # the clips of the split's rows a and b, and a fusion head over them
    extract = _y8seq_corpus(tmp_path, ("c0.y8seq", 2, "pan"), ("a.y8seq", 2, "pan"),
                            ("b.y8seq", 2, "tilt"))
    clip, a, b = (str(tmp_path / f"{cid}.y8seq") for cid in ("c0", "a", "b"))
    fusion = json.loads(Path(model).read_text())
    fusion.update(backbone_dim=64, W=[[0.0] * (64 + 117)] * 4)
    Path(tmp_path / "fusion.json").write_text(json.dumps(fusion))
    eval_fusion = eval_args[:1] + ["--clips", str(tmp_path)] + eval_args[1:]
    eval_fusion[eval_fusion.index(model)] = str(tmp_path / "fusion.json")
    (tmp_path / "d").mkdir()
    frames = _pgm_dir_corpus(tmp_path / "d", b"P5 16 16 255\n" + bytes(256))
    frame = str(tmp_path / "d" / "clip" / "f0.pgm")
    return {
        "extract": (["extract", "--ann", split, "--out", split], "--out", "--ann", split),
        "extract-clip": (extract[:4] + [clip] + extract[5:], "--out", "--ann row 1's clip", clip),
        "extract-dir-clip": (frames[:4] + [frame] + frames[5:], "error: --out lies inside "
                             f"--ann row 1's clip {tmp_path / 'd' / 'clip'}"),
        "train-fusion-clip": (train[:-1] + [a, "--mode", "fusion", "--clips", str(tmp_path),
                                            "--stats", stats], "--out", "--clips' a", a),
        "eval-fusion-clip": (eval_fusion[:-1] + [b], "--out-confusion", "--clips' b", b),
        "stats": (["stats", "--features", features, "--out", features],
                  "--out", "--features", features),
        "normalize": (["normalize", "--features", features, "--stats", stats, "--out", stats],
                      "--out", "--stats", stats),
        "split": (["split", "--ann", test, "--schema", "modern4", "--out-dir", str(tmp_path)],
                  "--out-dir's test.csv", "--ann", test),
        "oversample": (["oversample", "--split", split, "--schema", "modern4",
                        "--targets", "pan=2", "--out", split], "--out", "--split", split),
        "oversample-schema": (["oversample", "--split", split, "--schema", schema,
                               "--targets", "pan=2", "--out", schema], "--out", "--schema", schema),
        "train-log": (train + ["--log", model], "--out", "--log", model),
        "train-input": (train[:-1] + [split], "--out", "--train", split),
        "eval-outputs": (eval_args[:-1] + [str(tmp_path / "mm.json")],
                         "--out-metrics", "--out-confusion", str(tmp_path / "mm.json")),
        "eval-predictions": (eval_args + ["--out-predictions", model],
                             "--out-predictions", "--model", model),
        "viz": (["viz", "grid", "--features", features, "--clip-id", "a", "--out", features],
                "--out", "--features", features),
    }[command]


@pytest.mark.parametrize("command", ["extract", "extract-clip", "extract-dir-clip", "stats",
                                     "normalize", "split", "oversample", "oversample-schema",
                                     "train-log", "train-input", "train-fusion-clip",
                                     "eval-outputs", "eval-predictions", "eval-fusion-clip",
                                     "viz", "split-val-directory"])
def test_cli_output_over_another_file_is_refused(tmp_path, capsys, command):
    # each exited 0 with one file lost: train --out X --log X kept the log,
    # eval kept only the confusion table, stats wrote over its features,
    # and extract, train and eval wrote over a clip they had read
    args, *expected = _overwriting(tmp_path, command)
    if len(expected) == 3:
        first, second, path = expected
        expected = [f"error: {first} and {second} name the same file {path}"]
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    rc = main(args)
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == expected
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_cli_schema_name_is_not_an_input_file(tmp_path, monkeypatch):
    # a packaged schema name is no file, so an output that shares it is kept
    split = tmp_path / "split.csv"
    split.write_text("clip_path,label\na.y8seq,pan\n")
    monkeypatch.chdir(tmp_path)
    assert main(["oversample", "--split", str(split), "--schema", "modern4",
                 "--targets", "pan=2", "--out", "modern4"]) == 0
    assert (tmp_path / "modern4").read_text().endswith("a,pan\na,pan\n")


@pytest.mark.parametrize("option", ["--model", "--features", "--stats", "--clips",
                                    "--out-predictions"])
def test_cli_eval_predictions_takes_no_model_option(tmp_path, capsys, option):
    # the model mode's options mean nothing next to --predictions; taking them
    # silently hid a mixed-up command line
    args = _scored_predictions(tmp_path, "a.y8seq,pan\n", "a.y8seq,pan\n")
    files = sorted(tmp_path.rglob("*"))
    rc = main(args + [option, str(tmp_path / "other")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --predictions cannot be combined with {option}"]
    assert sorted(tmp_path.rglob("*")) == files


def test_cli_model_takes_a_table_calibrated_with_its_statistics(tmp_path):
    assert main(_on_table_calibrated_with(tmp_path, _unit_mean_digest(2))) == 0


def test_cli_comma_and_quote_in_clip_path_round_trip(tmp_path, capsys):
    # 16x16 black clips named with a comma and with a quote
    names = ["pan,0000", 'tilt"0001']
    for name in names:
        (tmp_path / f"{name}.y8seq").write_bytes(
            b"Y8SQ" + struct.pack("<III", 16, 16, 2) + bytes(512))
    with open(tmp_path / "annotations.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([["clip_path", "label"], [f"{names[0]}.y8seq", "pan"],
                          [f"{names[1]}.y8seq", "tilt"]])
    assert main(["extract", "--ann", str(tmp_path / "annotations.csv"),
                 "--out", str(tmp_path / "f.csv"), "--frames-per-clip", "2",
                 "--interval", "1", "--target-size", "16"]) == 0
    assert main(["stats", "--features", str(tmp_path / "f.csv"),
                 "--out", str(tmp_path / "s.json")]) == 0
    _, clip_ids, labels, matrix = read_features_csv(tmp_path / "f.csv")
    assert clip_ids == names and labels == ["pan", "tilt"]
    assert matrix.shape == (2, 117)
    assert capsys.readouterr().err == ""


def test_cli_train_and_eval_read_features_once(mini_corpus, tmp_path, monkeypatch):
    corpus = mini_corpus / "corpus"
    features = mini_corpus / "features.csv"
    splits, stats, model = tmp_path / "splits", tmp_path / "s.json", tmp_path / "m.json"
    assert main(["split", "--ann", str(corpus / "annotations.csv"), "--schema", "modern4",
                 "--seed", "5", "--out-dir", str(splits)]) == 0
    assert main(["stats", "--features", str(features), "--out", str(stats)]) == 0

    calls = []
    read = dgme.descriptor.read_features_csv
    monkeypatch.setattr(dgme.descriptor, "read_features_csv",
                        lambda path: calls.append(path) or read(path))
    assert main(["train", "--features", str(features), "--train", str(splits / "train.csv"),
                 "--val", str(splits / "val.csv"), "--stats", str(stats), "--schema", "modern4",
                 "--seed", "5", "--out", str(model), "--epochs", "1"]) == 0
    assert len(calls) == 1
    assert main(["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
                 "--model", str(model), "--features", str(features), "--stats", str(stats),
                 "--out-metrics", str(tmp_path / "mm.json"),
                 "--out-confusion", str(tmp_path / "cm.csv")]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["dgme-only", "fusion"])
def test_cli_train_on_empty_split_is_data_error(mini_corpus, tmp_path, capsys, mode):
    # a corpus with few clips per class can give an empty validation split
    corpus = mini_corpus / "corpus"
    features = mini_corpus / "features.csv"
    splits, stats = tmp_path / "splits", tmp_path / "s.json"
    assert main(["split", "--ann", str(corpus / "annotations.csv"), "--schema", "modern4",
                 "--seed", "5", "--out-dir", str(splits)]) == 0
    assert main(["stats", "--features", str(features), "--out", str(stats)]) == 0
    (splits / "val.csv").write_text("clip_path,label\n")
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--train", str(splits / "train.csv"),
               "--val", str(splits / "val.csv"), "--mode", mode, "--stats", str(stats),
               "--clips", str(corpus), "--schema", "modern4", "--out", str(tmp_path / "m.json"),
               "--epochs", "1"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: training and validation sets must be nonempty"]


def test_cli_synth_refuses_oversized_zoom_out_before_writing(tmp_path, capsys):
    # 32 px, 12 frames and up to 4 px/frame can draw a zoom-out spanning 24x
    # the frame; the corpus is refused before its directory is made
    out = tmp_path / "corpus"
    rc = main(["synth", "--classes", "static,zoom", "--per-class", "2", "--out", str(out),
               "--size", "32", "--frames", "12"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: zoom-out of 4 px/frame")
    assert not out.exists()


def test_cli_synth_refuses_oversized_pan_before_writing(tmp_path, capsys):
    # 16 px, 12 frames and up to 20 px/frame can draw a pan whose frames span
    # 14.75x the frame side of texture; refused before the directory is made
    out = tmp_path / "corpus"
    rc = main(["synth", "--classes", "pan", "--per-class", "1", "--out", str(out),
               "--size", "16", "--frames", "12", "--mag-max", "20"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: pan of 20 px/frame")
    assert not out.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--size", "8", "size must be >= 16"), ("--frames", "1", "frames must be >= 2"),
], ids=["size", "frames"])
def test_cli_synth_refuses_bad_static_corpus_before_writing(tmp_path, capsys,
                                                            option, value, message):
    # a static-only corpus skipped the up-front spec check, so it was refused
    # only after the corpus directory was made
    out = tmp_path / "corpus"
    args = ["synth", "--classes", "static", "--per-class", "1", "--out", str(out),
            "--size", "32", "--frames", "4"]
    args[args.index(option) + 1] = value
    rc = main(args)
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("mag_min, mag_max", [
    ("nan", "4"), ("1", "inf"), ("3", "1"), ("0", "2"), ("-1", "2"),
], ids=["nan-min", "inf-max", "min-above-max", "zero-min", "negative-min"])
def test_cli_synth_refuses_bad_magnitude_range(tmp_path, capsys, mag_min, mag_max):
    # NaN used to end in "cannot convert float NaN to integer", 3 > 1 in
    # numpy's "high - low < 0", and a negative draw in an error after the
    # corpus directory was made
    out = tmp_path / "corpus"
    rc = main(["synth", "--classes", "pan", "--per-class", "1", "--out", str(out),
               "--size", "32", "--frames", "4", "--mag-min", mag_min, "--mag-max", mag_max])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == ["error: --mag-min and --mag-max must be finite with 0 < --mag-min <= "
                   f"--mag-max, got {float(mag_min):g} and {float(mag_max):g}"]
    assert not out.exists()


@pytest.fixture
def pool_maps(monkeypatch):
    """(workers, chunks) of every ``map`` extract runs on its pool, which
    maps in this process in place of ``multiprocessing.Pool``."""
    maps = []

    class RecordingPool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            if chunksize is None:  # multiprocessing.Pool.map's default
                chunksize = math.ceil(len(tasks) / (4 * self.processes))
            maps.append((self.processes, math.ceil(len(tasks) / chunksize)))
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return maps


def test_cli_extract_starts_at_most_one_worker_per_clip(tmp_path, pool_maps):
    args = _y8seq_corpus(tmp_path, ("c0.y8seq", 2, "pan"), ("c1.y8seq", 2, "tilt"))
    assert main(args + ["--jobs", "64"]) == 0
    assert [workers for workers, _ in pool_maps] == [2]
    pooled = (tmp_path / "f.csv").read_bytes()
    assert main(args + ["--jobs", "1"]) == 0
    assert (tmp_path / "f.csv").read_bytes() == pooled


def test_cli_extract_gives_every_worker_clips(tmp_path, pool_maps):
    # chunks of 8 clips used to cut 15 clips into 2 chunks, so 2 of 4
    # workers sat idle
    args = _y8seq_corpus(tmp_path, *((f"c{i}.y8seq", 2, "pan") for i in range(15)))
    assert main(args + ["--jobs", "4"]) == 0
    [(workers, chunks)] = pool_maps
    assert workers == 4 and chunks >= workers


@pytest.mark.parametrize("mthr", ["-1", "nan", "inf"])
def test_cli_extract_refuses_bad_threshold(tmp_path, capsys, mthr):
    # refused as a bad option before any flow runs, not as a non-finite
    # descriptor after every clip's flow
    rc = main(_y8seq_corpus(tmp_path, ("c0.y8seq", 2, "pan")) + [f"--mthr={mthr}"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: magnitude_threshold must be finite and >= 0"]


# (command, argv before --out) of each command whose --out is a file
_OUT_FILE_COMMANDS = [
    ("extract", lambda root: ["extract", "--ann", str(root / "corpus" / "annotations.csv"),
                              "--interval", "1", "--frames-per-clip", "4",
                              "--target-size", "64"]),
    ("stats", lambda root: ["stats", "--features", str(root / "features.csv")]),
    ("viz", lambda root: ["viz", "rose", "--features", str(root / "features.csv"),
                          "--label", "pan"]),
]


@pytest.mark.parametrize("command, argv", _OUT_FILE_COMMANDS, ids=[c for c, _ in _OUT_FILE_COMMANDS])
def test_cli_out_in_missing_directory_is_refused(mini_corpus, tmp_path, capsys, monkeypatch,
                                                 command, argv):
    # each used to do all its work, then die with a FileNotFoundError
    # traceback; extract refuses before any flow runs
    out = tmp_path / "missing" / "out"
    compute = dgme.descriptor.compute_dgme
    computed = []
    monkeypatch.setattr(dgme.descriptor, "compute_dgme",
                        lambda *a: computed.append(1) or compute(*a))
    rc = main(argv(mini_corpus) + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: argument --out: directory of {out} does not exist"]
    assert computed == []
    assert not out.parent.exists()


@pytest.mark.parametrize("command, argv", _OUT_FILE_COMMANDS, ids=[c for c, _ in _OUT_FILE_COMMANDS])
def test_cli_out_at_existing_directory_is_refused(mini_corpus, tmp_path, capsys, monkeypatch,
                                                  command, argv):
    # each used to do all its work, then die with an IsADirectoryError
    # traceback
    out = tmp_path / "taken"
    out.mkdir()
    compute = dgme.descriptor.compute_dgme
    computed = []
    monkeypatch.setattr(dgme.descriptor, "compute_dgme",
                        lambda *a: computed.append(1) or compute(*a))
    rc = main(argv(mini_corpus) + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: argument --out: {out} is a directory"]
    assert computed == []
    assert list(out.iterdir()) == []


# (command, output directory option, argv before it) of each command that
# makes its output directory
_OUT_DIR_COMMANDS = [
    ("synth", "--out", lambda root: ["synth", "--classes", "static", "--per-class", "1",
                                     "--size", "16", "--frames", "2"]),
    ("split", "--out-dir", lambda root: ["split", "--ann",
                                         str(root / "corpus" / "annotations.csv"),
                                         "--schema", "modern4"]),
]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command, option, argv", _OUT_DIR_COMMANDS,
                         ids=[c for c, _, _ in _OUT_DIR_COMMANDS])
def test_cli_out_dir_at_existing_file_is_refused(mini_corpus, tmp_path, capsys,
                                                 command, option, argv, under):
    # each used to die with a FileExistsError or NotADirectoryError traceback
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    rc = main(argv(mini_corpus) + [option, str(taken / "sub" if under else taken)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: argument {option}: {taken} is not a directory"]
    assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept\n"


def test_cli_synth_refuses_a_canvas_over_the_pixel_limit_before_writing(tmp_path, capsys,
                                                                       monkeypatch):
    # this pan of 4096 px frames needs a 61,304 px canvas; a texture drawn
    # anyway fails the test instead of allocating
    monkeypatch.setattr(synth, "_texture", lambda *a: 1 / 0)
    out = tmp_path / "corpus"
    rc = main(["synth", "--classes", "pan", "--per-class", "1", "--out", str(out),
               "--size", "4096", "--frames", "12", "--mag-min", "2600", "--mag-max", "2600"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: a 4096 px pan clip needs a 61304x61304 texture canvas, "
        f"more than {dgme.videoio.MAX_FRAME_PIXELS} pixels"]
    assert not out.exists()


def test_cli_synth_refuses_frames_over_the_pixel_limit_before_writing(tmp_path, capsys,
                                                                      monkeypatch):
    # the canvas of a 4097 px frame is over extract's pixel limit, which
    # bounds the frame too; sizes like 100000 used to make the directory,
    # then ask numpy for a 74.5 GiB canvas
    rendered = []
    monkeypatch.setattr(synth, "make_clip", lambda spec: rendered.append(spec) or 1 / 0)
    out = tmp_path / "corpus"
    rc = main(["synth", "--classes", "static", "--per-class", "1", "--out", str(out),
               "--size", "4097", "--frames", "2"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: a 4097 px static clip needs a 4107x4107 texture canvas, "
        f"more than {dgme.videoio.MAX_FRAME_PIXELS} pixels"]
    assert rendered == [] and not out.exists()
    assert synth.SynthSpec("static", size=4096).size == 4096


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_extract_refuses_jobs_below_one(tmp_path, capsys, jobs):
    # both used to run serially and exit 0
    rc = main(_y8seq_corpus(tmp_path, ("c0.y8seq", 2, "pan")) + ["--jobs", jobs])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: --jobs must be >= 1, got {jobs}"]
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("option, value", [("--epochs", "0"), ("--batch-size", "-1")])
def test_cli_train_refuses_bad_length_before_reading(mini_corpus, tmp_path, capsys,
                                                     option, value):
    # both were refused only after the features were read and the fusion
    # clips embedded, so an empty --clips directory ended in exit 2
    clips = tmp_path / "clips"
    clips.mkdir()
    args = _train_args(mini_corpus, tmp_path) + ["--mode", "fusion", "--clips", str(clips)]
    capsys.readouterr()
    rc = main(args + [option, value])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: epochs and batch_size must be >= 1"]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("option, value, message", [
    ("--frames-per-clip", "1", "frames_per_clip must be >= 2"),
    ("--interval", "0", "frame_interval must be >= 1"),
    ("--target-size", "4", "--target-size 4 is below the polynomial kernel support of 5 px"),
], ids=["frames-per-clip-1", "interval-0", "target-size-4"])
def test_cli_extract_refuses_bad_sampling_before_reading(tmp_path, capsys, monkeypatch,
                                                         option, value, message):
    # the first two were refused only after the annotations were read, so a
    # missing --ann ended in exit 2; a target below the kernel support failed
    # on the first clip with exit 2, as it would on every clip
    reads, flows = [], []
    monkeypatch.setattr(dgme.evaluation, "read_annotations_csv",
                        lambda path: reads.append(path) or 1 / 0)
    monkeypatch.setattr(dgme.descriptor, "farneback_flow",
                        lambda *a, **k: flows.append(a) or 1 / 0)
    args = _y8seq_corpus(tmp_path, ("c0.y8seq", 2, "pan"))
    rc = main(args + [option, value])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert reads == [] and flows == []
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("width, height, target", [(32, 32, 100000), (65536, 2, 512)],
                         ids=["huge-target", "wide-clip"])
def test_cli_extract_refuses_oversized_target_before_allocating(tmp_path, capsys,
                                                                width, height, target):
    # the resized frames would hold 1e10 and 8.6e9 pixels; the check comes
    # before the resize allocates them, so the outcome does not depend on
    # how much memory the machine promises
    args = _y8seq_corpus(tmp_path, ("c0.y8seq", 2, "pan"), width=width, height=height)
    args[args.index("--target-size") + 1] = str(target)
    rc = main(args)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith(f"error: target size {target} px resizes")
    assert err[0].endswith(f"more than {4096 * 4096} pixels")
    assert not (tmp_path / "f.csv").exists()


def _split_args(mini_corpus, out_dir):
    """``split`` of the module's mini corpus into ``out_dir``."""
    return ["split", "--ann", str(mini_corpus / "corpus" / "annotations.csv"),
            "--schema", "modern4", "--seed", "5", "--out-dir", str(out_dir)]


def _train_args(mini_corpus, out_dir):
    """``train`` of a one-epoch head on the mini corpus, split first into
    ``out_dir/splits``; the model goes to ``out_dir/m.json``."""
    splits = out_dir / "splits"
    assert main(_split_args(mini_corpus, splits)) == 0
    return ["train", "--features", str(mini_corpus / "features.csv"),
            "--train", str(splits / "train.csv"), "--val", str(splits / "val.csv"),
            "--schema", "modern4", "--out", str(out_dir / "m.json"), "--epochs", "1"]


@pytest.mark.parametrize("command, flag", [
    ("split", ["--ratios", "1.2,-0.1,-0.1"]),
    ("train", ["--weight-decay", "nan"]),
    ("train", ["--lr-max", "0.01"]),
    ("train", ["--patience", "1"]),
    ("train", ["--embed-dim", "8"]),
], ids=["ratios", "weight-decay", "lr-max", "patience", "embed-dim"])
def test_cli_training_protocol_has_no_flags(mini_corpus, tmp_path, capsys, command, flag):
    # the split ratios and head settings are constants; the flags that set
    # them took out-of-range values such as these without a word
    if command == "split":
        out = tmp_path / "out"
        args = _split_args(mini_corpus, out)
    else:
        out = tmp_path / "m.json"
        args = _train_args(mini_corpus, tmp_path)
    capsys.readouterr()
    rc = main(args + flag)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:") and flag[0] in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, option", [("synth", "--classes"), ("oversample", "--targets")])
def test_cli_repeated_class_is_usage_error(mini_corpus, tmp_path, capsys, command, option):
    # refused before anything is written: synth used to write the repeated
    # class's clips twice, and oversample kept the last count
    if command == "synth":
        out = tmp_path / "corpus"
        args = ["synth", "--classes", "pan,pan", "--per-class", "1", "--out", str(out),
                "--size", "64", "--frames", "4"]
    else:
        assert main(_split_args(mini_corpus, tmp_path / "splits")) == 0
        out = tmp_path / "os.csv"
        args = ["oversample", "--split", str(tmp_path / "splits" / "train.csv"),
                "--schema", "modern4", "--targets", "pan=5,pan=7", "--out", str(out)]
    capsys.readouterr()
    rc = main(args)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [f"error: class 'pan' repeated in {option}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "split", "oversample", "train"])
def test_cli_negative_seed_is_refused_as_an_option(mini_corpus, tmp_path, capsys, command):
    # each used to exit 1 with numpy's bare "expected non-negative integer",
    # naming neither the option nor its value
    splits = tmp_path / "splits"
    if command == "synth":
        out = tmp_path / "corpus"
        args = ["synth", "--classes", "pan", "--per-class", "1", "--out", str(out),
                "--size", "32", "--frames", "3"]
    elif command == "split":
        out = splits
        args = _split_args(mini_corpus, splits)
    elif command == "oversample":
        assert main(_split_args(mini_corpus, splits)) == 0
        out = tmp_path / "os.csv"
        args = ["oversample", "--split", str(splits / "train.csv"), "--schema", "modern4",
                "--targets", "pan=5", "--out", str(out)]
    else:
        out = tmp_path / "m.json"
        args = _train_args(mini_corpus, tmp_path)
    capsys.readouterr()
    rc = main(args + ["--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: argument --seed: must be >= 0, got -1"]
    assert not out.exists()


def test_cli_oversample_target_for_absent_class(tmp_path, capsys):
    split = tmp_path / "train.csv"
    split.write_text("clip_path,label\n" + "".join(
        f"{label}_{i},{label}\n" for label in ("static", "tilt", "zoom") for i in range(3)))
    out = tmp_path / "os.csv"
    capsys.readouterr()
    rc = main(["oversample", "--split", str(split), "--schema", "modern4",
               "--targets", "pan=10,tilt=3", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:") and "'pan'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("split, targets, message", [
    ("missing", "pan=-1", "--targets count of class 'pan' must be >= 0, got -1"),
    ("real", "pan=-1", "--targets count of class 'pan' must be >= 0, got -1"),
    ("missing", "track=3", "target class 'track' not in schema modern4"),
    ("missing", "pan=3,", "--targets part '' is not class=count with an integer count"),
    ("missing", "pan=x", "--targets part 'pan=x' is not class=count with an integer count"),
], ids=["negative-missing-split", "negative-real-split", "unknown-class-missing-split",
        "empty-part-missing-split", "non-integer-count-missing-split"])
def test_cli_oversample_refuses_bad_targets_before_reading(mini_corpus, tmp_path, capsys,
                                                           split, targets, message):
    # each used to read the split first: a missing one ended in exit 2 with
    # "file not found", and a real one refused -1 as below the class's count
    if split == "real":
        assert main(_split_args(mini_corpus, tmp_path / "splits")) == 0
    split_csv = tmp_path / "splits" / "train.csv"
    out = tmp_path / "os.csv"
    capsys.readouterr()
    rc = main(["oversample", "--split", str(split_csv), "--schema", "modern4",
               "--targets", targets, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_cli_dotted_clip_ids_survive_oversample_and_predictions(tmp_path):
    # ids keep every dot but the one of the .y8seq suffix, so an id read
    # back from an oversampled split or a predictions file is the same id
    clips = [(f"{label}.v{i:04d}.y8seq", 2, label) for label in ("pan", "tilt") for i in range(5)]
    assert main(_y8seq_corpus(tmp_path, *clips)) == 0
    _, ids, _, _ = read_features_csv(tmp_path / "f.csv")
    assert ids == [rel.removesuffix(".y8seq") for rel, _, _ in clips]
    splits = tmp_path / "splits"
    assert main(["split", "--ann", str(tmp_path / "annotations.csv"), "--schema", "modern4",
                 "--out-dir", str(splits)]) == 0
    assert main(["oversample", "--split", str(splits / "train.csv"), "--schema", "modern4",
                 "--targets", "pan=4", "--out", str(tmp_path / "os.csv")]) == 0
    features, model = str(tmp_path / "f.csv"), str(tmp_path / "m.json")
    assert main(["train", "--features", features, "--train", str(tmp_path / "os.csv"),
                 "--val", str(splits / "val.csv"), "--schema", "modern4",
                 "--out", model, "--epochs", "1"]) == 0
    score = ["eval", "--split", str(splits / "test.csv"), "--schema", "modern4"]
    assert main(score + ["--model", model, "--features", features,
                         "--out-predictions", str(tmp_path / "p.csv"),
                         "--out-metrics", str(tmp_path / "m1.json"),
                         "--out-confusion", str(tmp_path / "c1.csv")]) == 0
    assert main(score + ["--predictions", str(tmp_path / "p.csv"),
                         "--out-metrics", str(tmp_path / "m2.json"),
                         "--out-confusion", str(tmp_path / "c2.csv")]) == 0
    assert (tmp_path / "c1.csv").read_text() == (tmp_path / "c2.csv").read_text()


def _fresh_python(code, *args):
    """Run ``code`` with ``args`` in a new interpreter importing this dgme.
    What an import loads shows only there: conftest has imported scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(dgme.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# runs the commands of argv lists given as JSON; prints the name of the
# first command after which the scipy package (scipy or scipy.ndimage) was
# loaded ('import' if importing did it). Each clip's flow also checks it,
# in the pool worker that ran it under extract --jobs 2
_SCIPY_PROBE = ("import json, sys\n"
                "import dgme.cli\n"
                "def scipy_package():\n"
                "    return sorted({'scipy', 'scipy.ndimage'} & set(sys.modules))\n"
                "extract_one = dgme.cli._extract_one\n"
                "def checked_extract_one(task):\n"
                "    result = extract_one(task)\n"
                "    assert not scipy_package(), f'flow loaded {scipy_package()}'\n"
                "    return result\n"
                "dgme.cli._extract_one = checked_extract_one\n"
                "loaded = ['import'] if scipy_package() else []\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert dgme.cli.main(argv) == 0, argv\n"
                "    if scipy_package() and not loaded:\n"
                "        loaded.append(argv[0])\n"
                "print(json.dumps(loaded))\n")


def _never_loads_scipy(commands):
    child = _fresh_python(_SCIPY_PROBE, json.dumps(commands))
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []


def test_cli_head_commands_never_load_scipy(mini_corpus, tmp_path):
    # ``_train_args`` splits in this process first, and the child's split
    # writes the same files again
    model = tmp_path / "m.json"
    _never_loads_scipy([
        _split_args(mini_corpus, tmp_path / "splits"),
        _train_args(mini_corpus, tmp_path),
        ["eval", "--split", str(tmp_path / "splits" / "test.csv"), "--schema", "modern4",
         "--model", str(model), "--features", str(mini_corpus / "features.csv"),
         "--out-metrics", str(tmp_path / "mm.json"), "--out-confusion", str(tmp_path / "c.csv")],
    ])
    assert model.is_file()


def test_cli_synth_never_loads_scipy(tmp_path):
    # historical clips are blurred by the compiled gaussian filter alone
    _never_loads_scipy([["synth", "--classes", "pan,zoom", "--per-class", "1",
                         "--domain", domain, "--size", "32", "--frames", "3",
                         "--out", str(tmp_path / domain)]
                        for domain in ("historical", "modern")])
    assert len(list((tmp_path / "historical").glob("*.y8seq"))) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_extract_never_loads_the_scipy_package(tmp_path, jobs):
    # the flow filters through scipy's compiled module alone; the package's
    # import cost about 0.3 s and 20 MB per process
    synth.make_corpus(tmp_path / "c", ["pan", "zoom"], 1, "modern", seed=0, size=32, frames=3)
    _never_loads_scipy([["extract", "--ann", str(tmp_path / "c" / "annotations.csv"),
                         "--out", str(tmp_path / "f.csv"), "--frames-per-clip", "3",
                         "--interval", "1", "--target-size", "32", "--jobs", jobs]])
    assert len(read_features_csv(tmp_path / "f.csv")[1]) == 2


def _imports(tree):
    """(node, imported module names) of each import statement in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node, [node.module or ""]


def test_no_module_imports_scipy():
    # ``_resample`` loads scipy's compiled ndimage module from its file; an
    # import statement would load the package into every command
    importers = set()
    for path in Path(dgme.__file__).parent.rglob("*.py"):
        for _, names in _imports(ast.parse(path.read_text())):
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                importers.add(path.name)
    assert importers == set()


def test_no_module_imports_hashlib():
    # hashlib maps OpenSSL's libcrypto, about 3.4 MB resident; the digests
    # come from the interpreter's built-in SHA-256, and only the ImportError
    # fallback of ``descriptor._sha256_hex``, for builds without one, names hashlib
    importers = []
    for path in Path(dgme.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text())
        fallbacks = {id(node) for handler in ast.walk(tree)
                     if isinstance(handler, ast.ExceptHandler) for node in ast.walk(handler)}
        importers += [(path.name, id(node) in fallbacks) for node, names in _imports(tree)
                      if "hashlib" in names or "_hashlib" in names]
    assert importers == [("descriptor.py", True)]


# runs the commands of argv lists given as JSON in one interpreter and prints,
# after the import and after each command, which of the watched modules are
# loaded. Each clip's flow also checks, in the pool worker that ran it under
# extract --jobs 2, that it did not load OpenSSL (hashlib's _hashlib); main's
# guard maps it to None, which loads nothing
_MODULES_PROBE = ("import json, sys\n"
                  "import dgme.cli\n"
                  "watched = {'dgme.synth', 'dgme.viz', 'multiprocessing', 'hashlib', '_hashlib'}\n"
                  "extract_one = dgme.cli._extract_one\n"
                  "def checked_extract_one(task):\n"
                  "    result = extract_one(task)\n"
                  "    assert sys.modules.get('_hashlib') is None, 'flow loaded _hashlib'\n"
                  "    return result\n"
                  "dgme.cli._extract_one = checked_extract_one\n"
                  "loaded = [['import', sorted(watched & set(sys.modules))]]\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    assert dgme.cli.main(argv) == 0, argv\n"
                  "    loaded.append([argv[0], sorted(watched & set(sys.modules))])\n"
                  "print(json.dumps(loaded))\n")


def test_cli_head_commands_load_only_the_modules_they_run(mini_corpus, tmp_path):
    # no head command synthesizes, draws or pools, and stats hashes nothing;
    # each of these modules was imported by every command. split and oversample
    # load hashlib with numpy.random, whose import loads secrets and hmac; it
    # takes CPython's built-in digests, without OpenSSL (see below)
    features, corpus = str(mini_corpus / "features.csv"), str(mini_corpus / "corpus")
    stats, splits, oversampled = (str(tmp_path / n) for n in ("s.json", "splits", "os.csv"))
    train = ["train", "--features", features, "--train", oversampled,
             "--val", str(tmp_path / "splits" / "val.csv"), "--schema", "modern4",
             "--stats", stats, "--epochs", "1", "--clips", corpus]
    commands = [
        ["stats", "--features", features, "--out", stats],
        _split_args(mini_corpus, splits),
        ["oversample", "--split", str(tmp_path / "splits" / "train.csv"), "--schema", "modern4",
         "--targets", "static=9,tilt=9,pan=9,zoom=9", "--out", oversampled],
        ["normalize", "--features", features, "--stats", stats, "--out", str(tmp_path / "z.csv")],
        train + ["--mode", "dgme-only", "--out", str(tmp_path / "d.json")],
        train + ["--mode", "fusion", "--out", str(tmp_path / "f.json")],
        ["eval", "--split", str(tmp_path / "splits" / "test.csv"), "--schema", "modern4",
         "--model", str(tmp_path / "f.json"), "--features", features, "--stats", stats,
         "--clips", corpus, "--out-metrics", str(tmp_path / "m.json"),
         "--out-confusion", str(tmp_path / "c.csv")],
    ]
    child = _fresh_python(_MODULES_PROBE, json.dumps(commands))
    assert child.returncode == 0, child.stderr
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert [name for name, _ in loaded] == ["import"] + [argv[0] for argv in commands]
    assert [name for name, modules in loaded
            if {"dgme.synth", "dgme.viz", "multiprocessing"} & set(modules)] == []
    assert loaded[:2] == [["import", []], ["stats", []]]


def _descriptor_commands(mini_corpus, tmp_path):
    """Each command that computes, calibrates, draws or scores descriptors
    without drawing random numbers, by name, on the mini corpus; the models
    the two evals score are trained here first."""
    synth.make_corpus(tmp_path / "c", ["pan", "zoom"], 1, "modern", seed=0, size=32, frames=3)
    extract = ["extract", "--ann", str(tmp_path / "c" / "annotations.csv"),
               "--out", str(tmp_path / "f.csv"), "--frames-per-clip", "3",
               "--interval", "1", "--target-size", "32"]
    features, stats = str(mini_corpus / "features.csv"), str(tmp_path / "s.json")
    assert main(["stats", "--features", features, "--out", stats]) == 0
    train = _train_args(mini_corpus, tmp_path)
    assert main(train) == 0
    model = tmp_path / "m.json"
    assert main(train + ["--stats", stats, "--out", str(tmp_path / "mz.json")]) == 0
    evaluate = ["eval", "--split", str(tmp_path / "splits" / "test.csv"), "--schema", "modern4",
                "--features", features, "--out-metrics", str(tmp_path / "mm.json"),
                "--out-confusion", str(tmp_path / "cm.csv")]
    return {
        "extract-jobs-1": extract + ["--jobs", "1"],
        "extract-jobs-2": extract + ["--jobs", "2"],
        "stats": ["stats", "--features", features, "--out", str(tmp_path / "s2.json")],
        "normalize": ["normalize", "--features", features, "--stats", stats,
                      "--out", str(tmp_path / "z.csv")],
        "viz-rose": ["viz", "rose", "--features", features, "--label", "pan",
                     "--out", str(tmp_path / "rose.svg")],
        "eval-raw": evaluate + ["--model", str(model)],
        "eval-stats": evaluate + ["--model", str(tmp_path / "mz.json"), "--stats", stats],
    }


@pytest.mark.parametrize("command", ["extract-jobs-1", "extract-jobs-2", "stats", "normalize",
                                     "viz-rose", "eval-raw", "eval-stats"])
def test_cli_descriptor_commands_never_load_openssl(mini_corpus, tmp_path, command):
    # the config hash and the statistics digest come from the built-in
    # SHA-256; hashlib mapped OpenSSL's libcrypto, about 3.4 MB, into each of
    # these commands that computes one (extract, normalize, eval --stats)
    argv = _descriptor_commands(mini_corpus, tmp_path)[command]
    child = _fresh_python(_MODULES_PROBE, json.dumps([argv]))
    assert child.returncode == 0, child.stderr
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert [name for name, _ in loaded] == ["import", argv[0]]
    assert [name for name, modules in loaded if {"hashlib", "_hashlib"} & set(modules)] == []


def _drawing_commands(mini_corpus, tmp_path):
    """Each command that draws random numbers, by name, on the mini corpus;
    the splits and the fusion head they read are made here first."""
    features, corpus = str(mini_corpus / "features.csv"), str(mini_corpus / "corpus")
    splits = tmp_path / "splits"
    assert main(_split_args(mini_corpus, splits)) == 0
    train = ["train", "--features", features, "--train", str(splits / "train.csv"),
             "--val", str(splits / "val.csv"), "--schema", "modern4", "--epochs", "1"]
    fusion = train + ["--mode", "fusion", "--clips", corpus]
    assert main(fusion + ["--out", str(tmp_path / "f.json")]) == 0
    return {
        "synth": ["synth", "--classes", "pan,zoom", "--per-class", "1", "--domain", "historical",
                  "--size", "32", "--frames", "3", "--out", str(tmp_path / "c")],
        "split": _split_args(mini_corpus, tmp_path / "splits2"),
        "oversample": ["oversample", "--split", str(splits / "train.csv"), "--schema", "modern4",
                       "--targets", "static=9,tilt=9,pan=9,zoom=9",
                       "--out", str(tmp_path / "os.csv")],
        "train-dgme-only": train + ["--mode", "dgme-only", "--out", str(tmp_path / "d.json")],
        "train-fusion": fusion + ["--out", str(tmp_path / "f2.json")],
        "eval-fusion": ["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
                        "--model", str(tmp_path / "f.json"), "--features", features,
                        "--clips", corpus, "--out-metrics", str(tmp_path / "m.json"),
                        "--out-confusion", str(tmp_path / "c.csv")],
    }


# runs the command of the argv list given as JSON and prints whether
# OpenSSL's _hashlib is loaded and whether libcrypto is mapped (Linux only)
_OPENSSL_PROBE = ("import json, sys\n"
                  "import dgme.cli\n"
                  "assert dgme.cli.main(json.loads(sys.argv[1])) == 0\n"
                  "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
                  "print(json.dumps(['_hashlib' in sys.modules, 'libcrypto' in maps]))\n")


@pytest.mark.parametrize("command", ["synth", "split", "oversample", "train-dgme-only",
                                     "train-fusion", "eval-fusion"])
def test_cli_commands_that_draw_numbers_never_map_openssl(mini_corpus, tmp_path, command):
    # numpy.random imports secrets, hmac and hashlib; with OpenSSL's _hashlib
    # they mapped libcrypto, about 3.4 MB resident, into each of these
    argv = _drawing_commands(mini_corpus, tmp_path)[command]
    child = _fresh_python(_OPENSSL_PROBE, json.dumps(argv))
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == [False, False]


def _embed_per_row(clips_dir, clip_ids, seed, dim, outputs):
    """Reference for ``cli._embed_clips``: reads and embeds every row, with
    the projection drawn per clip by a provider of its own."""
    rows = [dgme.model.StubEmbeddingProvider(seed=seed, dim=dim).embed(
                dgme.cli.read_y8seq(Path(clips_dir) / f"{cid}.y8seq")) for cid in clip_ids]
    return np.array(rows).reshape(len(rows), dim)


def test_cli_fusion_train_embeds_each_clip_once(mini_corpus, tmp_path, monkeypatch):
    args = _train_args(mini_corpus, tmp_path)
    splits, oversampled = tmp_path / "splits", tmp_path / "os.csv"
    assert main(["oversample", "--split", str(splits / "train.csv"), "--schema", "modern4",
                 "--targets", "static=9,tilt=9,pan=9,zoom=9", "--out", str(oversampled)]) == 0
    args[args.index("--train") + 1] = str(oversampled)
    args += ["--mode", "fusion", "--clips", str(mini_corpus / "corpus"), "--seed", "5"]
    rows = [cid for name in ("os", "splits/val") for cid, _ in
            read_annotations_csv(tmp_path / f"{name}.csv")[1]]
    distinct = sorted({clip_id(rel) for rel in rows})
    assert len(rows) > len(distinct)

    read, embedded = [], []
    reader, embed = dgme.cli.read_y8seq, dgme.model.StubEmbeddingProvider.embed
    monkeypatch.setattr(dgme.cli, "read_y8seq",
                        lambda path: read.append(clip_id(path)) or reader(path))
    monkeypatch.setattr(dgme.model.StubEmbeddingProvider, "embed",
                        lambda self, seq: embedded.append(seq.clip_id) or embed(self, seq))
    assert main(args) == 0
    assert sorted(read) == sorted(embedded) == distinct
    once = (tmp_path / "m.json").read_bytes()

    monkeypatch.setattr(dgme.cli, "_embed_clips", _embed_per_row)
    assert main(args) == 0
    assert (tmp_path / "m.json").read_bytes() == once


def test_every_cli_option_is_read_by_its_command():
    # an option its command never reads, like the removed viz --mthr, is
    # accepted and silently ignored
    [commands] = [a for a in dgme.cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    functions = {node.name: node for node in ast.parse(Path(dgme.cli.__file__).read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    unread = {}
    for name, parser in commands.choices.items():
        body = functions[parser.get_default("func").__name__]
        read = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        if dests - read:
            unread[name] = sorted(dests - read)
    assert len(commands.choices) == 9
    assert unread == {}
