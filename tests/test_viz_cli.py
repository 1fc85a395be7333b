"""Visualization output and command-line surface tests."""

import json
import struct

import numpy as np
import pytest

import dgme
import dgme.descriptor
from dgme import synth
from dgme._meta import format_meta, parse_meta
from dgme.cli import main
from dgme.descriptor import DgmeConfig, read_features_csv
from dgme.evaluation import read_annotations_csv
from dgme.viz import aggregate_bins, grid_arrow_angles, grid_svg, rose_geometry, rose_svg

CFG = DgmeConfig()


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
    directional, static = aggregate_bins(_descriptor_with(cell)[None, :], CFG)
    radii = rose_geometry(directional)
    assert radii.argmax() == 0
    assert radii[0] == pytest.approx(120.0)


def test_rose_zero_mass_is_all_zero_radii():
    assert np.all(rose_geometry(np.zeros(12)) == 0.0)


def test_grid_all_static_has_no_fill_and_no_arrows():
    cell = np.zeros(13)
    cell[12] = 2.0
    svg = grid_svg(_descriptor_with(cell), CFG)
    assert svg.count('fill="none"') == 9
    assert "<line" not in svg and "<polygon" not in svg


def test_grid_arrow_at_circular_mean():
    cell = np.zeros(13)
    cell[0] = 1.0
    cell[11] = 1.0  # mass split across the 0-degree boundary
    angles = grid_arrow_angles(_descriptor_with(cell), CFG)
    assert all(a is not None for a in angles)
    # circular mean of bin centers 15 and 345 is 0
    assert angles[0] == pytest.approx(0.0, abs=1e-9)


def test_grid_arrow_suppressed_when_static_dominates():
    cell = np.zeros(13)
    cell[2] = 1.0
    cell[12] = 1.5
    angles = grid_arrow_angles(_descriptor_with(cell), CFG)
    assert all(a is None for a in angles)


def test_svg_deterministic():
    rng = np.random.default_rng(1)
    values = np.abs(rng.normal(size=117))
    assert grid_svg(values, CFG) == grid_svg(values.copy(), CFG)
    directional, _ = aggregate_bins(values[None, :], CFG)
    assert rose_svg(directional) == rose_svg(directional.copy())


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
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "static" in err  # lists valid classes


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
    meta, _, _, matrix = read_features_csv(out)
    assert meta["calibrated"] == "true"
    live = matrix.std(axis=0) > 1e-6
    # the normalization itself zeroes column means to ~1e-16; the written
    # file adds only the 9-significant-digit quantization of the format
    assert np.all(np.abs(matrix.mean(axis=0)[live]) < 2e-8)

    from dgme.descriptor import read_stats_json

    _, _, _, raw = read_features_csv(features)
    stats_obj, _ = read_stats_json(stats)
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
    assert payload["mode"] == "fusion"
    assert payload["calibrated"] is True
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
        features: f"# dgme-features version={v} seed=5 config_hash=db5120ef2e5d domain=modern",
        tmp_path / "cal.csv": f"# dgme-features version={v} seed=5 config_hash=db5120ef2e5d "
                              "domain=modern calibrated=true",
        splits / "train.csv": f"# dgme-annotations version={v} seed=5 schema=modern4 "
                              "domain=modern",
        tmp_path / "cm.csv": f"# dgme-confusion version={v} seed=5 schema=modern4",
        tmp_path / "log.csv": f"# dgme-trainlog version={v} seed=5 config_hash=db5120ef2e5d",
    }
    for path, line in expected.items():
        assert path.read_text().splitlines()[0] == line, path.name
    assert (tmp_path / "rose.svg").read_text().splitlines()[1] == (
        f"<!-- dgme-viz version={v} seed=5 config_hash=db5120ef2e5d -->"
    )

    # the readers parse what the writer wrote, values as strings
    meta = {"version": v, "seed": 5, "config_hash": "db5120ef2e5d", "domain": "modern"}
    as_text = {k: str(val) for k, val in meta.items()}
    assert parse_meta("# " + format_meta("features", meta)) == as_text
    assert read_features_csv(features)[0] == as_text
    assert read_annotations_csv(splits / "train.csv")[0] == {
        "version": v, "seed": "5", "schema": "modern4", "domain": "modern"}


def _features_file(tmp_path, *rows):
    path = tmp_path / "features.csv"
    path.write_text("# dgme-features seed=0\nclip_id,label,f0,f1\n"
                    + "".join(row + "\n" for row in rows))
    return ["stats", "--features", str(path), "--out", str(tmp_path / "s.json")]


def _y8seq_corpus(tmp_path, *clips):
    """Corpus of (relative path, frame count, label) clips of 16x16 black frames."""
    for rel, count, _ in clips:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"Y8SQ" + struct.pack("<III", 16, 16, count) + bytes(256 * count))
    ann = tmp_path / "annotations.csv"
    ann.write_text("clip_path,label\n" + "".join(f"{rel},{label}\n" for rel, _, label in clips))
    return ["extract", "--ann", str(ann), "--out", str(tmp_path / "f.csv"),
            "--frames-per-clip", "2", "--interval", "1", "--target-size", "16"]


def _eval_model(tmp_path, weight=0.0, std=None):
    """``eval`` of a hand-written descriptor-only head on two 2-d feature
    rows; a ``std`` adds a stats file and marks the head calibrated."""
    (tmp_path / "f.csv").write_text("# dgme-features seed=0 config_hash=h\n"
                                    "clip_id,label,f0,f1\na,pan,0.1,0.2\nb,tilt,0.3,0.4\n")
    (tmp_path / "split.csv").write_text("clip_path,label\na.y8seq,pan\nb.y8seq,tilt\n")
    model = {"config_hash": "h", "mode": "dgme_only", "calibrated": std is not None,
             "class_names": ["static", "tilt", "pan", "zoom"], "backbone_dim": 0,
             "descriptor_dim": 2, "alpha": 1.0, "ln_gain": [1.0, 1.0], "ln_bias": [0.0, 0.0],
             "W": [[weight, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "b": [0.0] * 4}
    (tmp_path / "m.json").write_text(json.dumps(model))
    args = ["eval", "--split", str(tmp_path / "split.csv"), "--schema", "modern4",
            "--model", str(tmp_path / "m.json"), "--features", str(tmp_path / "f.csv"),
            "--out-metrics", str(tmp_path / "mm.json"), "--out-confusion", str(tmp_path / "c.csv")]
    if std is None:
        return args
    (tmp_path / "s.json").write_text(json.dumps(
        {"config_hash": "h", "count": 2, "mean": [0.0, 0.0], "std": [std, 1.0]}))
    return args + ["--stats", str(tmp_path / "s.json")]


def test_cli_hand_written_model_evaluates(tmp_path):
    # the same files without a NaN evaluate cleanly, raw and calibrated
    assert main(_eval_model(tmp_path)) == 0
    assert main(_eval_model(tmp_path, std=2.0)) == 0


def _schema_file(tmp_path, text):
    (tmp_path / "schema.json").write_text(text)
    return ["split", "--ann", str(tmp_path / "a.csv"), "--schema", str(tmp_path / "schema.json"),
            "--out-dir", str(tmp_path / "splits")]


@pytest.mark.parametrize("make_args, message", [
    (lambda t: _features_file(t, "a,pan,0.1,0.2", "b,pan,0.3"), "row 2"),
    (lambda t: _features_file(t, "a,pan,0.1,abc", "b,pan,0.3,0.4"), "row 1 (a)"),
    (lambda t: _features_file(t, "a,pan,0.1,0.2", "b,pan,nan,0.4"), "row 2 (b)"),
    (lambda t: _features_file(t, "a,pan,inf,0.2", "b,pan,0.3,0.4"), "row 1 (a)"),
    (lambda t: _features_file(t, "a,pan,0.1,0.2", "b,pan,0.3,0.4", "a,tilt,0.5,0.6"),
     "row 3 (a) repeats the clip id of row 1"),
    (lambda t: _y8seq_corpus(t, ("c0.y8seq", 0, "pan")), "0 frames"),
    (lambda t: _y8seq_corpus(t, ("c0.y8seq", 1, "pan")), "1 frames"),
    (lambda t: _y8seq_corpus(t, ("a/c0.y8seq", 2, "pan"), ("b/c0.y8seq", 2, "tilt")),
     "row 2: clip id 'c0'"),
    (lambda t: _eval_model(t, weight=float("nan")), "m.json: non-finite number NaN"),
    (lambda t: _eval_model(t, std=float("nan")), "s.json: non-finite number NaN"),
    (lambda t: _schema_file(t, '{"name": "x", "remap": {}}'), "schema.json: 'classes'"),
    (lambda t: _schema_file(t, '{"name": '), "malformed schema file"),
], ids=["ragged-row", "non-numeric-cell", "nan-cell", "inf-cell", "duplicate-features-id",
        "zero-frame-clip", "one-frame-clip", "duplicate-clip-id",
        "nan-model-weight", "nan-stats-std", "schema-without-classes", "malformed-schema"])
def test_cli_bad_input_is_data_error(tmp_path, capsys, make_args, message):
    rc = main(make_args(tmp_path))
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:")
    assert message in err[0]


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
