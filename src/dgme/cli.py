"""Command-line pipeline: synth -> extract -> stats -> split -> train -> eval.

Every artifact embeds {version, seed, config_hash} metadata in a header
comment or JSON field, and the whole pipeline is byte-reproducible given
one seed. Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
failure. Errors print a single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import sys
from pathlib import Path

import numpy as np

import dgme
from dgme import descriptor as dsc
from dgme import evaluation as ev
from dgme import model as mdl
from dgme import synth, viz
from dgme._meta import refuse_repeated_ids
from dgme.errors import DataError, DgmeError, NumericError, UsageError
from dgme.videoio import SamplingSpec, clip_id, load_clip, read_y8seq


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_file(value: str) -> str:
    """An output file option; a path that names a directory or lies in a
    missing one is refused while the options are parsed, before the command
    computes anything."""
    if Path(value).is_dir():
        raise argparse.ArgumentTypeError(f"{value} is a directory")
    if not Path(value).parent.is_dir():
        raise argparse.ArgumentTypeError(f"directory of {value} does not exist")
    return value


def _out_dir(value: str) -> str:
    """An output directory option, made by its command; a path that names or
    lies under an existing file is refused while the options are parsed."""
    path = Path(value)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} is not a directory")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dgme", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dgme {dgme.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--classes", required=True,
                   help="comma-separated class names (static,tilt,pan,zoom,track)")
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--domain", choices=("modern", "historical"), default="modern")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=_out_dir)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--mag-min", type=float, default=1.0)
    p.add_argument("--mag-max", type=float, default=4.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="compute motion descriptors for a corpus")
    p.add_argument("--ann", required=True, help="annotations.csv of the corpus")
    p.add_argument("--out", required=True, type=_out_file)
    p.add_argument("--mthr", type=float, default=0.5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--frames-per-clip", type=int, default=12)
    p.add_argument("--interval", type=int, default=6)
    p.add_argument("--target-size", type=int, default=224)
    p.add_argument("--seed", type=int, default=0, help="recorded in artifact metadata")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("stats", help="fit per-dimension calibration statistics")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, type=_out_file)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("normalize", help="apply calibration statistics to features")
    p.add_argument("--features", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--out", required=True, type=_out_file)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("split", help="stratified train/val/test split of annotations")
    p.add_argument("--ann", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True, type=_out_dir)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("oversample", help="oversample training annotations per class")
    p.add_argument("--split", required=True, help="training split CSV")
    p.add_argument("--schema", required=True)
    p.add_argument("--targets", required=True, help="class=count,class=count,...")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=_out_file)
    p.set_defaults(func=cmd_oversample)

    p = sub.add_parser("train", help="train a classification head on features")
    p.add_argument("--features", required=True)
    p.add_argument("--train", dest="train_split", required=True)
    p.add_argument("--val", dest="val_split", required=True)
    p.add_argument("--mode", choices=("dgme-only", "fusion"), default="dgme-only")
    p.add_argument("--stats", default=None, help="calibration statistics JSON")
    p.add_argument("--clips", default=None, help="corpus dir (needed for fusion embeddings)")
    p.add_argument("--schema", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=_out_file)
    p.add_argument("--log", default=None, type=_out_file)
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score predictions or a model on a split")
    p.add_argument("--split", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--features", default=None)
    p.add_argument("--stats", default=None)
    p.add_argument("--clips", default=None)
    p.add_argument("--predictions", default=None, help="score an existing predictions CSV")
    p.add_argument("--out-metrics", required=True, type=_out_file)
    p.add_argument("--out-confusion", required=True, type=_out_file)
    p.add_argument("--out-predictions", default=None, type=_out_file)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viz", help="render descriptor visualizations as SVG")
    p.add_argument("kind", choices=("rose", "grid"))
    p.add_argument("--features", required=True)
    p.add_argument("--label", default=None, help="rose: aggregate clips with this label")
    p.add_argument("--clip-id", default=None, help="grid: render this clip")
    p.add_argument("--out", required=True, type=_out_file)
    p.set_defaults(func=cmd_viz)

    return parser


def _out_meta(seed, cfg_hash: str | None = None, schema: str | None = None,
              source: dict | None = None, **extra) -> dict:
    """Artifact metadata in its on-disk key order: version, seed,
    config_hash, schema, the domain of the ``source`` metadata, ``extra``."""
    meta = {"version": dgme.__version__, "seed": seed}
    if cfg_hash is not None:
        meta["config_hash"] = cfg_hash
    if schema is not None:
        meta["schema"] = schema
    if source and "domain" in source:
        meta["domain"] = source["domain"]
    meta.update(extra)
    return meta


def _meta_int(meta: dict, key: str, default: int, path) -> int:
    """Integer field ``key`` of the metadata read from ``path`` (``default``
    when absent); anything else is a data error naming the file and key."""
    value = meta.get(key, default)
    try:
        number = int(value) if type(value) in (int, str) else None
    except ValueError:
        number = None
    if number is None:
        raise DataError(f"{path}: {key} must be an integer, got {value!r}")
    return number


def cmd_synth(args) -> int:
    classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    if not classes:
        raise UsageError("no classes given")
    for i, c in enumerate(classes):
        if c in classes[:i]:
            raise UsageError(f"class {c!r} repeated in --classes")
    if not (math.isfinite(args.mag_min) and math.isfinite(args.mag_max)
            and 0 < args.mag_min <= args.mag_max):
        raise UsageError("--mag-min and --mag-max must be finite with "
                         f"0 < --mag-min <= --mag-max, got {args.mag_min:g} and {args.mag_max:g}")
    rows = synth.make_corpus(
        args.out, classes, args.per_class, args.domain, args.seed,
        size=args.size, frames=args.frames,
        magnitude_range=(args.mag_min, args.mag_max),
        meta={"version": dgme.__version__},
    )
    print(f"wrote {len(rows)} clips to {args.out}")
    return 0


# module-level worker so multiprocessing can pickle it
def _extract_one(task):
    # the task keeps its row index: perfbench's tracer reads the path at task[1]
    _, clip_path, sampling, magnitude_threshold = task
    return dsc.compute_dgme(load_clip(clip_path, sampling), magnitude_threshold)


def cmd_extract(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if not 0.0 <= args.mthr < math.inf:
        raise UsageError("magnitude_threshold must be finite and >= 0")
    ann_path = Path(args.ann)
    meta, rows = ev.read_annotations_csv(ann_path)
    root = ann_path.parent
    sampling = SamplingSpec(frames_per_clip=args.frames_per_clip,
                            frame_interval=args.interval,
                            target_size=args.target_size)
    cfg_hash = dsc.config_hash(args.mthr)

    clip_ids = [clip_id(rel) for rel, _ in rows]
    refuse_repeated_ids("annotations", ann_path, clip_ids)
    tasks = []
    for i, (rel, _) in enumerate(rows):
        clip_path = root / rel
        if not clip_path.exists():
            raise DataError(f"row {i + 1}: clip file missing: {clip_path}")
        tasks.append((i, str(clip_path), sampling, args.mthr))

    workers = min(args.jobs, len(tasks))  # at most one worker per clip
    if workers <= 1:
        results = [_extract_one(t) for t in tasks]
    else:
        # map's default chunk size, ceil(len(tasks) / (4 * workers)), cuts at
        # least one chunk per worker; results come back in task order
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_extract_one, tasks)
    matrix = np.array(results).reshape(-1, dsc.DESCRIPTOR_LENGTH)
    labels = [label for _, label in rows]
    dsc.write_features_csv(args.out, clip_ids, labels, matrix,
                           _out_meta(args.seed, cfg_hash, source=meta))
    print(f"wrote {len(tasks)} descriptors to {args.out}")
    return 0


def _read_features(path, stats_path=None, model_meta=None, raw=False):
    """Read the features table at ``path``, z-score it with the statistics at
    ``stats_path``, and refuse what may not be combined with it:

    - statistics are fitted on and applied to, and views drawn from, raw
      tables only: ``raw`` (stats, viz) or ``stats_path`` refuses a calibrated one;
    - a model trained calibrated takes a calibrated table or ``stats_path``,
      and a model trained raw takes raw features of its own domain only;
    - features, statistics and model carry one config hash; a missing hash
      matches only another missing one;
    - a model takes features calibrated with the statistics it was trained
      with: their ``dsc.stats_digest`` is the model's, and a missing digest
      matches only another missing one.

    Returns (meta, clip ids, labels, matrix, calibrated); with ``stats_path``,
    meta carries the statistics' digest as ``stats_digest``.
    """
    meta, clip_ids, labels, matrix = dsc.read_features_csv(path)
    calibrated = meta.get("calibrated") == "true"
    if calibrated and (raw or stats_path is not None):
        raise DataError(f"features {path} are already calibrated")
    hashes = {}
    if stats_path is not None:
        stats, _ = dsc.read_stats_json(stats_path)
        hashes["stats"], calibrated = stats.config_hash, True
        meta["stats_digest"] = dsc.stats_digest(stats)
    if model_meta is not None:
        if model_meta.get("calibrated") and not calibrated:
            raise DataError("model was trained on calibrated features; pass --stats "
                            "with the statistics used at training time")
        if calibrated and not model_meta.get("calibrated"):
            raise DataError("model was trained uncalibrated; evaluate on raw features")
        domain, train_domain = meta.get("domain"), model_meta.get("train_domain")
        if domain and train_domain and domain != train_domain and not calibrated:
            raise DataError(f"cross-domain evaluation ({train_domain} -> {domain}) "
                            "requires z-score calibration; train with --stats")
        hashes["model"] = model_meta.get("config_hash", "")
    for source, other in hashes.items():
        if other != meta.get("config_hash", ""):
            raise DataError(f"config hash mismatch: features "
                            f"{meta.get('config_hash', '')!r} vs {source} {other!r}")
    if model_meta is not None and meta.get("stats_digest") != model_meta.get("stats_digest"):
        raise DataError(f"statistics mismatch: features calibrated with "
                        f"{meta.get('stats_digest')!r} vs model trained with "
                        f"{model_meta.get('stats_digest')!r}")
    if stats_path is not None:
        matrix = dsc.apply_zscore(matrix, stats)
    return meta, clip_ids, labels, matrix, calibrated


def cmd_stats(args) -> int:
    meta, _, _, matrix, _ = _read_features(args.features, raw=True)
    cfg_hash = meta.get("config_hash", "")
    stats = dsc.fit_stats(matrix, cfg_hash)
    dsc.write_stats_json(args.out, stats, _out_meta(args.seed, cfg_hash, source=meta))
    print(f"fitted statistics on {stats.source_count} descriptors -> {args.out}")
    return 0


def cmd_normalize(args) -> int:
    meta, clip_ids, labels, matrix, _ = _read_features(args.features, args.stats)
    out_meta = _out_meta(_meta_int(meta, "seed", 0, args.features), meta.get("config_hash", ""),
                         source=meta, calibrated="true", stats_digest=meta["stats_digest"])
    dsc.write_features_csv(args.out, clip_ids, labels, matrix, out_meta)
    print(f"calibrated {len(clip_ids)} rows -> {args.out}")
    return 0


def _load_annotated(path, schema, unique=False) -> tuple[dict, ev.AnnotatedSet]:
    """Annotations by clip id, remapped; ``unique`` refuses repeats, which oversampling makes."""
    meta, rows = ev.read_annotations_csv(path)
    raw = [(clip_id(p), label) for p, label in rows]
    if unique:
        refuse_repeated_ids("annotations", path, (cid for cid, _ in raw))
    return meta, ev.remap_labels(raw, schema)


def cmd_split(args) -> int:
    schema = ev.load_schema(args.schema)
    meta, rows = ev.read_annotations_csv(args.ann)
    # a repeated clip could land on both sides of the split
    refuse_repeated_ids("annotations", args.ann, (clip_id(rel) for rel, _ in rows))
    aset = ev.remap_labels(rows, schema)
    parts = dict(zip(("train", "val", "test"), ev.stratified_split(aset, seed=args.seed)))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_meta = _out_meta(args.seed, schema=schema.name, source=meta)
    for name, part in parts.items():
        ev.write_annotations_csv(out_dir / f"{name}.csv", part.entries, out_meta)
    counts = {name: len(part.entries) for name, part in parts.items()}
    print(f"split {len(aset.entries)} entries -> {counts}")
    return 0


def cmd_oversample(args) -> int:
    schema = ev.load_schema(args.schema)
    meta, aset = _load_annotated(args.split, schema)
    targets = {}
    try:
        for part in args.targets.split(","):
            cls, count = part.split("=")
            cls = cls.strip()
            if cls in targets:
                raise UsageError(f"class {cls!r} repeated in --targets")
            targets[cls] = int(count)
    except ValueError as exc:
        raise UsageError(f"bad --targets: {exc}") from exc
    for cls in targets:
        if cls not in schema.classes:
            raise UsageError(f"target class {cls!r} not in schema {schema.name}")
    result = ev.oversample(aset, targets, seed=args.seed)
    ev.write_annotations_csv(args.out, result.entries,
                             _out_meta(args.seed, schema=schema.name, source=meta))
    print(f"oversampled {len(aset.entries)} -> {len(result.entries)} entries")
    return 0


def _join_split(split_path, split, features_path, clip_ids, matrix):
    """Rows of a features table for the annotated ``split``: (ids, X, y indices)."""
    index = {cid: i for i, cid in enumerate(clip_ids)}
    ids, ys = [], []
    for cid, label in split.entries:
        if cid not in index:
            raise DataError(f"clip {cid} from {split_path} missing in features {features_path}")
        ids.append(cid)
        ys.append(split.schema.index(label))
    return ids, matrix[[index[c] for c in ids]], np.array(ys, dtype=np.int64)


def _embed_clips(clips_dir, clip_ids, seed, dim=mdl.EMBED_DIM):
    """Embedding rows for ``clip_ids`` in order; each distinct clip is read
    and embedded once, however often an oversampled split repeats it."""
    provider = mdl.StubEmbeddingProvider(seed=seed, dim=dim)
    root = Path(clips_dir)
    embedded = {}
    for cid in clip_ids:
        if cid in embedded:
            continue
        embedded[cid] = provider.embed(read_y8seq(root / f"{cid}.y8seq"))
    rows = [embedded[cid] for cid in clip_ids]
    return np.array(rows, dtype=np.float64).reshape(len(rows), dim), provider


def cmd_train(args) -> int:
    schema = ev.load_schema(args.schema)
    mode = "dgme_only" if args.mode == "dgme-only" else "fusion"
    if mode == "fusion" and args.stats is None:
        print("warning: fusion without calibration statistics; cross-domain "
              "evaluation of this model will be refused", file=sys.stderr)
    if mode == "fusion" and args.clips is None:
        raise UsageError("--mode fusion requires --clips for backbone embeddings")

    meta, clip_ids, _, matrix, calibrated = _read_features(args.features, args.stats)
    # oversampling repeats training clips on purpose; early stopping scores
    # each validation clip once
    (train_ids, x_train, y_train), (val_ids, x_val, y_val) = (
        _join_split(path, _load_annotated(path, schema, unique)[1], args.features,
                    clip_ids, matrix)
        for path, unique in ((args.train_split, False), (args.val_split, True)))

    provider = None
    xb_train = xb_val = None
    if mode == "fusion":
        xb, provider = _embed_clips(args.clips, train_ids + val_ids, args.seed)
        xb_train, xb_val = xb[:len(train_ids)], xb[len(train_ids):]

    cfg = mdl.TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    params, log = mdl.train(list(schema.classes), mdl.LabeledFeatures(x_train, y_train, xb_train),
                            mdl.LabeledFeatures(x_val, y_val, xb_val), cfg)

    cfg_hash = meta.get("config_hash", "")
    model_meta = _out_meta(args.seed, cfg_hash)
    model_meta.update(
        {
            "schema": schema.name,
            "calibrated": calibrated,
            "stats_digest": meta.get("stats_digest"),
            "train_domain": meta.get("domain"),
            "embedding": provider.descriptor if provider else None,
        }
    )
    mdl.save_model_json(args.out, params, model_meta)
    if args.log:
        mdl.write_training_log(args.log, log, _out_meta(args.seed, cfg_hash))
    best = max(row["val_macro_f1"] for row in log)
    print(f"trained {mode} head: best val macro F1 {best:.4f} over {len(log)} epochs -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    model_options = {"--model": args.model, "--features": args.features, "--stats": args.stats,
                     "--clips": args.clips, "--out-predictions": args.out_predictions}
    given = [name for name, value in model_options.items() if value is not None]
    if args.predictions is not None and given:
        raise UsageError(f"--predictions cannot be combined with {', '.join(given)}")
    if args.predictions is None and (args.model is None or args.features is None):
        raise UsageError("eval needs either --predictions or both --model and --features")
    schema = ev.load_schema(args.schema)
    _, truth = _load_annotated(args.split, schema, unique=True)

    if args.predictions is not None:
        _, rows = ev.read_annotations_csv(args.predictions)
        predictions = [(clip_id(p), label) for p, label in rows]
        refuse_repeated_ids("predictions", args.predictions, (cid for cid, _ in predictions))
        seed = args.seed
    else:
        params, model_meta = mdl.load_model_json(args.model)
        if params.class_names != list(schema.classes):
            raise DataError(
                f"model classes {params.class_names} do not match the classes "
                f"{list(schema.classes)} of schema {schema.name}"
            )
        _, clip_ids, _, matrix, _ = _read_features(args.features, args.stats, model_meta)
        ids, X, y = _join_split(args.split, truth, args.features, clip_ids, matrix)
        seed = _meta_int(model_meta, "seed", args.seed, args.model)
        backbone = None
        if params.backbone_dim > 0:
            # a fusion head: the stub that trained it, at its seed and width
            if args.clips is None:
                raise UsageError("evaluating a fusion model requires --clips")
            if seed < 0:  # numpy's seeding would refuse it as a bad option
                raise DataError(f"{args.model}: a fusion model's seed must be >= 0, got {seed}")
            backbone, _ = _embed_clips(args.clips, ids, seed, params.backbone_dim)
        pred_idx = mdl.predict(mdl.LabeledFeatures(X, y, backbone), params)
        predictions = [(cid, schema.classes[k]) for cid, k in zip(ids, pred_idx)]

    cm, report = ev.evaluate(predictions, truth)
    if args.out_predictions:
        ev.write_annotations_csv(args.out_predictions, predictions, _out_meta(seed))
    out_meta = _out_meta(seed, schema=schema.name)
    ev.write_metrics_json(args.out_metrics, report, schema.classes, out_meta)
    ev.write_confusion_csv(args.out_confusion, cm, out_meta)
    print(f"accuracy {report.accuracy:.4f}, macro F1 {report.macro_f1:.4f} "
          f"({cm.total} clips) -> {args.out_metrics}")
    return 0


def cmd_viz(args) -> int:
    meta, clip_ids, labels, matrix, _ = _read_features(args.features, raw=True)
    svg_meta = _out_meta(_meta_int(meta, "seed", 0, args.features), meta.get("config_hash"))

    if args.kind == "rose":
        if args.label is None:
            raise UsageError("viz rose requires --label")
        rows = matrix[[i for i, lab in enumerate(labels) if lab == args.label]]
        if rows.shape[0] == 0:
            raise DataError(f"no clips with label {args.label!r} in {args.features}")
        directional, _ = viz.aggregate_bins(rows)
        svg = viz.rose_svg(directional, meta=svg_meta)
    else:
        if args.clip_id is None:
            raise UsageError("viz grid requires --clip-id")
        try:
            row = matrix[clip_ids.index(args.clip_id)]
        except ValueError as exc:
            raise DataError(f"clip id {args.clip_id!r} not found in {args.features}") from exc
        svg = viz.grid_svg(row, meta=svg_meta)

    with open(args.out, "w", newline="\n") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


# first match wins; a bare ValueError is a bad option value
_EXIT_CODES = ((UsageError, 1), (NumericError, 3), (DgmeError, 2), (ValueError, 1))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DgmeError, ValueError) as exc:
        print(f"error: {exc}".replace("\n", " "), file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
