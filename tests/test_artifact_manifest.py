"""Every file of a fixed command sequence, pinned by its sha256.

Tier-1 pins a few artifacts byte for byte, and gate 9 compares two runs of
the same tree with each other; neither catches a change that moves the
model, metrics, splits or calibrated tables by accident. This test runs
every command on a small corpus and compares the digest of each file the
run writes with ``artifact_manifest.json``.

A change that means to move bytes re-records the manifest with

    PYTHONPATH=src python tests/test_artifact_manifest.py

and names each file whose digest moved, and why.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from dgme.cli import main
from dgme.synth import SynthSpec, make_clip

MANIFEST = Path(__file__).with_name("artifact_manifest.json")


def _write_frame_dirs(root: Path) -> None:
    """Clips as real footage enters the system, as directories of frames,
    under ``root / "frames"``: a 48 px pan clip as P5 (PGM) frames, and a
    64 px zoom clip cut to 48 x 64 as P6 (PPM) frames with unequal
    channels; ``annotations.csv`` lists both."""
    frames = root / "frames"
    pan = make_clip(SynthSpec("pan", frames=4, size=48, motion_magnitude=2.5, texture_seed=5))
    zoom = make_clip(SynthSpec("zoom", frames=4, size=64, motion_magnitude=1.5, texture_seed=6))
    (frames / "pan_p5").mkdir(parents=True)
    for k, frame in enumerate(pan.frames):
        (frames / "pan_p5" / f"{k:03d}.pgm").write_bytes(b"P5\n48 48\n255\n" + frame.tobytes())
    (frames / "zoom_p6").mkdir()
    for k, frame in enumerate(zoom.frames[:, 8:56]):
        rgb = np.stack([frame, 255 - frame, frame // 2], axis=-1)
        (frames / "zoom_p6" / f"{k:03d}.ppm").write_bytes(b"P6\n# rgb\n64 48\n255\n"
                                                           + rgb.tobytes())
    (frames / "annotations.csv").write_text("clip_path,label\npan_p5,pan\nzoom_p6,zoom\n")


def _sequence(root: Path) -> list[list[str]]:
    """The pinned run: argv lists writing under ``root``, in order."""
    mod, hist, splits = root / "modern", root / "historical", root / "splits"
    extract = ["--frames-per-clip", "4", "--interval", "1", "--target-size", "48", "--seed", "3"]
    score = ["eval", "--split", str(splits / "test.csv"), "--schema", "modern4"]
    commands = [
        ["synth", "--classes", "static,tilt,pan,zoom", "--per-class", "5", "--domain", "modern",
         "--seed", "3", "--size", "48", "--frames", "4", "--out", str(mod)],
        ["synth", "--classes", "static,tilt,pan,zoom", "--per-class", "2",
         "--domain", "historical", "--seed", "4", "--size", "48", "--frames", "4",
         "--out", str(hist)],
        ["extract", "--ann", str(mod / "annotations.csv"), "--out", str(root / "mod_j1.csv"),
         "--jobs", "1", *extract],
        ["extract", "--ann", str(mod / "annotations.csv"), "--out", str(root / "mod_j2.csv"),
         "--jobs", "2", *extract],
        ["extract", "--ann", str(hist / "annotations.csv"), "--out", str(root / "hist.csv"),
         "--jobs", "2", *extract],
        ["extract", "--ann", str(root / "frames" / "annotations.csv"),
         "--out", str(root / "frames.csv"), "--jobs", "1", *extract],
        ["stats", "--features", str(root / "mod_j1.csv"), "--out", str(root / "stats.json"),
         "--seed", "3"],
        ["normalize", "--features", str(root / "mod_j1.csv"), "--stats", str(root / "stats.json"),
         "--out", str(root / "mod_cal.csv")],
        ["normalize", "--features", str(root / "hist.csv"), "--stats", str(root / "stats.json"),
         "--out", str(root / "hist_cal.csv")],
        ["split", "--ann", str(mod / "annotations.csv"), "--schema", "modern4", "--seed", "3",
         "--out-dir", str(splits)],
        ["oversample", "--split", str(splits / "train.csv"), "--schema", "modern4", "--seed", "3",
         "--targets", "static=4,tilt=4,pan=4,zoom=4", "--out", str(root / "train_os.csv")],
    ]
    for mode in ("dgme-only", "fusion"):
        for calibrated in (False, True):
            tag = f"{mode}{'_cal' if calibrated else ''}"
            calibration = ["--stats", str(root / "stats.json")] if calibrated else []
            commands += [
                ["train", "--features", str(root / "mod_j1.csv"),
                 "--train", str(root / "train_os.csv"), "--val", str(splits / "val.csv"),
                 "--mode", mode, "--clips", str(mod), "--schema", "modern4", "--seed", "3",
                 "--epochs", "3", "--out", str(root / f"m_{tag}.json"), *calibration,
                 *(["--log", str(root / f"log_{tag}.csv")] if calibrated else [])],
                [*score, "--model", str(root / f"m_{tag}.json"),
                 "--features", str(root / "mod_j1.csv"), "--clips", str(mod), *calibration,
                 "--out-predictions", str(root / f"pred_{tag}.csv"),
                 "--out-metrics", str(root / f"metrics_{tag}.json"),
                 "--out-confusion", str(root / f"confusion_{tag}.csv")],
            ]
    commands += [
        [*score, "--predictions", str(root / "pred_fusion_cal.csv"),
         "--out-metrics", str(root / "metrics_scored.json"),
         "--out-confusion", str(root / "confusion_scored.csv")],
        ["eval", "--split", str(hist / "annotations.csv"), "--schema", "modern4",
         "--model", str(root / "m_dgme-only_cal.json"), "--features", str(root / "hist_cal.csv"),
         "--out-metrics", str(root / "metrics_xdomain.json"),
         "--out-confusion", str(root / "confusion_xdomain.csv")],
        ["viz", "rose", "--features", str(root / "mod_j1.csv"), "--label", "zoom",
         "--out", str(root / "rose.svg")],
        ["viz", "grid", "--features", str(root / "hist.csv"), "--clip-id", "pan_0000",
         "--out", str(root / "grid.svg")],
    ]
    return commands


def run_sequence(root: Path) -> dict[str, str]:
    """Write the frame directories and run the pinned sequence under
    ``root``; the sha256 of every file written, keyed by its path under
    ``root``."""
    _write_frame_dirs(root)
    for argv in _sequence(root):
        assert main(argv) == 0, argv
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_every_artifact_matches_the_manifest(tmp_path):
    assert run_sequence(tmp_path) == json.loads(MANIFEST.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_sequence(Path(tmp))
    recorded = json.loads(MANIFEST.read_text()) if MANIFEST.is_file() else {}
    for path in sorted(recorded.keys() | digests.keys()):
        if path not in digests:
            print(f"disappeared {path}")
        elif path not in recorded:
            print(f"appeared {path}")
        elif digests[path] != recorded[path]:
            print(f"moved {path}")
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {MANIFEST}", file=sys.stderr)
