"""Workload definitions of the dgme benchmark: inputs, command sequences, checks.

Every workload is a closed loop with one client: the commands of a sequence
run one after another, each as its own ``python -m dgme.cli`` process, and
the next starts only when the previous one has exited. Inputs are made by
the program itself (``dgme synth``, and for head-train ``dgme extract``)
from the workload seed.

Which end-to-end metric each per-layer metric should move, and where
(``run.py`` computes them; "setup" means the metric is taken from the
traced set-up because the timed part does not use that layer):

  videoio.load_ms.p50/.p90   clips_per_s on both extract workloads (112->96 and
                             256->224 resize); head-train: setup
  videoio.write_ms.p50       setup_s on all workloads (synth writes through videoio)
  synth.clip_ms.p50          setup_s on all workloads
  synth.degrade_ms.p50       setup_s on extract-224-par and head-train (0 on the
                             clean extract-96 corpus)
  flow.pair_ms.p50/.p90      clips_per_s on extract-96 (per-call overhead) and
  flow.mpix_per_s            extract-224-par (arithmetic); head-train: setup only
  flow.polar_ms.p50, flow.share
  descriptor.hist_ms.p50     clips_per_s on both extract workloads
  descriptor.csv_write_ms    clips_per_s; pipeline_s on head-train
  descriptor.csv_read_ms     pipeline_s on head-train (train and eval re-read tables)
  descriptor.calib_ms        pipeline_s on head-train
  descriptor.static_mass_share, descriptor.dead_dims
                             deterministic properties of the descriptors; no perf
                             change should move them (dead_dims drives gate 6 and
                             xdomain_macro_f1)
  cli.pool_efficiency        clips_per_s on extract-224-par (the only pool run)
  cli.glue_s                 clips_per_s / pipeline_s on every workload
  model.*                    pipeline_s on head-train; idle (0) on extract workloads
                             (model.epochs.* is 4: head-train passes --epochs 4)
  evaluation.*               pipeline_s on head-train; idle (0) on extract workloads
  macro_f1_*, xdomain_macro_f1
                             head-train quality; deterministic per seed, so a change
                             of numerics shows as a changed value
  <layer>.busy_s             self time of each layer in the timed part; with
                             cli.glue_s it accounts for the untraced wall time
  videoio.clips, flow.pairs, model.embed_requests
                             sample counts behind the percentiles and shares
  trace.overhead_share       traced against untraced in-process pass of the timed part
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import checks

FIVE = "static,tilt,pan,zoom,track"
FOUR = "static,tilt,pan,zoom"


@dataclass(frozen=True)
class Corpus:
    name: str
    domain: str
    classes: str
    per_class: int
    size: int
    frames: int
    mag: tuple[float, float] = (1.0, 4.0)

    @property
    def clips(self) -> int:
        return self.per_class * len(self.classes.split(","))


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: tuple[Corpus, ...]
    target: int          # extract --target-size
    jobs: int            # 0 means nproc
    oversample: int = 0  # head-train: oversampled rows per class


WORKLOADS = {
    w.name: w for w in (
        # Small frames: per-call numpy overhead in flow dominates (per pair:
        # 3 levels x 3 iterations x 5 warps plus the correlations) and the
        # pool is bypassed, so batching and expand-once changes show most here.
        # 112 px synthesized, 12 frames at interval 1, resized to 96 px: the
        # configuration of acceptance gates 5 and 9.
        Workload(
            "extract-96",
            (Corpus("clips", "modern", FIVE, 3, 112, 12),),
            target=96, jobs=1,
        ),
        # Large planes: warp and correlations are arithmetic- and memory-bound,
        # and the multiprocessing pool runs. The degraded domain changes what the
        # flow sees, not how much work it does. 6 frames (5 pairs) keep one
        # repetition near 7 s so that a run holds several.
        # Clip count versus the pool: cmd_extract calls pool.map(..., chunksize=8),
        # so with <= 8 clips --jobs 2 runs serially on one worker. The 15 clips
        # (3 per class, the same layout as extract-96) form chunks of 8 and 7, one
        # per worker, so the best possible pool efficiency is 15/16; the count was
        # not chosen to hide or magnify the chunking, cli.pool_efficiency reports it.
        Workload(
            "extract-224-par",
            (Corpus("clips", "historical", FIVE, 3, 256, 6),),
            target=224, jobs=0,
        ),
        # Head training and evaluation: model, evaluation, features-CSV I/O and
        # the stub embedding do the work; flow runs only in set-up. Oversampling
        # 96 training clips to 2000 rows makes most embedding requests repeat a
        # clip already embedded (shared work). Small magnitudes (0.3-1.5 px per
        # frame, around the 0.5 px static threshold) at 32 px keep the three
        # macro-F1 values below 1.0. Training runs exactly 4 epochs: with the
        # default patience of 3, early stopping cannot end it sooner, so the
        # amount of work does not depend on the seed.
        Workload(
            "head-train",
            (Corpus("mod", "modern", FOUR, 40, 40, 4, (0.3, 1.5)),
             Corpus("hist", "historical", FOUR, 20, 40, 4, (0.3, 1.5))),
            target=32, jobs=0, oversample=500,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """Tiny inputs of the same shape, for the benchmark's own test."""
    per_class = 5 if w.oversample else 1  # split needs >= 3 clips per class
    corpora = tuple(replace(c, per_class=per_class, size=min(c.size, 48), frames=3)
                    for c in w.corpora)
    return replace(w, corpora=corpora, target=min(w.target, 40),
                   oversample=min(w.oversample, 20))


@dataclass
class Op:
    """One CLI command, its output files and the check of those outputs."""

    label: str
    args: list[str]
    outputs: list[Path]
    check: Callable[[], list[str]]


def _synth(c: Corpus, out: Path, seed: int) -> Op:
    return Op(
        f"synth_{c.name}",
        ["synth", "--classes", c.classes, "--per-class", str(c.per_class),
         "--domain", c.domain, "--seed", str(seed), "--out", str(out),
         "--size", str(c.size), "--frames", str(c.frames),
         "--mag-min", str(c.mag[0]), "--mag-max", str(c.mag[1])],
        [out / "annotations.csv"],
        lambda: checks.annotation_count(out / "annotations.csv", c.clips),
    )


def _extract(c: Corpus, w: Workload, corpus: Path, out: Path, jobs: int, seed: int) -> Op:
    ann = corpus / "annotations.csv"
    return Op(
        f"extract_{c.name}",
        ["extract", "--ann", str(ann), "--out", str(out), "--interval", "1",
         "--frames-per-clip", str(c.frames), "--target-size", str(w.target),
         "--jobs", str(jobs), "--seed", str(seed)],
        [out],
        lambda: checks.features(out, ann, calibrated=False),
    )


def setup_ops(w: Workload, d: Path, seed: int, jobs: int) -> list[Op]:
    ops = [_synth(c, d / c.name, seed + i) for i, c in enumerate(w.corpora)]
    if w.oversample:
        ops += [_extract(c, w, d / c.name, d / f"{c.name}.csv", jobs, seed)
                for c in w.corpora]
    return ops


def timed_ops(w: Workload, inputs: Path, d: Path, seed: int, jobs: int) -> list[Op]:
    """The command sequence whose wall time is measured; outputs go to ``d``."""
    d.mkdir(parents=True)
    if not w.oversample:
        c = w.corpora[0]
        return [_extract(c, w, inputs / c.name, d / "features.csv", jobs, seed)]

    mod, hist = inputs / "mod", inputs / "hist"
    mod_csv, hist_csv = inputs / "mod.csv", inputs / "hist.csv"
    stats, hist_cal, splits = d / "stats.json", d / "hist_cal.csv", d / "splits"
    train_os = splits / "train_os.csv"
    n_mod = w.corpora[0].clips
    classes = w.corpora[0].classes.split(",")
    s = str(seed)
    ops = [
        Op("stats", ["stats", "--features", str(mod_csv), "--out", str(stats), "--seed", s],
           [stats], lambda: checks.json_file(stats)),
        Op("normalize", ["normalize", "--features", str(hist_csv), "--stats", str(stats),
                         "--out", str(hist_cal)],
           [hist_cal], lambda: checks.features(hist_cal, hist / "annotations.csv",
                                               calibrated=True)),
        Op("split", ["split", "--ann", str(mod / "annotations.csv"), "--schema", "modern4",
                     "--seed", s, "--out-dir", str(splits)],
           [splits / f"{p}.csv" for p in ("train", "val", "test")],
           lambda: checks.split_sizes(splits, n_mod)),
        Op("oversample", ["oversample", "--split", str(splits / "train.csv"),
                          "--schema", "modern4", "--seed", s, "--out", str(train_os),
                          "--targets", ",".join(f"{k}={w.oversample}" for k in classes)],
           [train_os], lambda: checks.annotation_count(train_os, w.oversample * len(classes))),
    ]
    for mode, tag in (("dgme-only", "dgme"), ("fusion", "fusion")):
        model, log = d / f"model_{tag}.json", d / f"log_{tag}.csv"
        metrics, conf = d / f"metrics_{tag}.json", d / f"confusion_{tag}.csv"
        ops += [
            Op(f"train_{tag}",
               ["train", "--features", str(mod_csv), "--train", str(train_os),
                "--val", str(splits / "val.csv"), "--mode", mode, "--stats", str(stats),
                "--clips", str(mod), "--schema", "modern4", "--seed", s,
                "--epochs", "4", "--out", str(model), "--log", str(log)],
               [model, log], lambda model=model: checks.json_file(model)),
            Op(f"eval_{tag}",
               ["eval", "--split", str(splits / "test.csv"), "--schema", "modern4",
                "--model", str(model), "--features", str(mod_csv), "--stats", str(stats),
                "--clips", str(mod), "--out-metrics", str(metrics),
                "--out-confusion", str(conf)],
               [metrics, conf], lambda metrics=metrics: checks.metrics_json(metrics)),
        ]
    xm, xc = d / "metrics_xdomain.json", d / "confusion_xdomain.csv"
    ops.append(
        Op("eval_xdomain",
           ["eval", "--split", str(hist / "annotations.csv"), "--schema", "modern4",
            "--model", str(d / "model_dgme.json"), "--features", str(hist_cal),
            "--out-metrics", str(xm), "--out-confusion", str(xc)],
           [xm, xc], lambda: checks.metrics_json(xm)))
    return ops


def train_steps(log: Path) -> tuple[int, int]:
    """(AdamW steps, epochs run) from a training log written by ``dgme train``."""
    with open(log, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
    return int(rows[-1][1]), len(rows)
