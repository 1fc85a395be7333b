"""Dataset bookkeeping and the evaluation protocol.

Covers label-schema remapping, class-balanced stratified splits,
selective oversampling of minority classes, and metric computation
(top-1 accuracy, per-class and macro precision/recall/F1, confusion
matrices). Schemas ship as JSON data files, not code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from dgme._meta import read_json, read_table, write_json, write_table
from dgme.errors import DataError

DROP = "DROP"
# train, val, test fractions of every class: the paper's 6:2:2 protocol
SPLIT_RATIOS = (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class ClassSchema:
    name: str
    classes: tuple[str, ...]
    remap: dict

    def __post_init__(self):
        # the name goes into metadata lines, whose values are single tokens
        if str(self.name).split() != [self.name]:
            raise ValueError(f"schema name must be one token, got {self.name!r}")
        if not self.classes or len(set(self.classes)) != len(self.classes):
            raise ValueError("classes must be nonempty and unique")
        bad = {t for t in self.remap.values() if t != DROP and t not in self.classes}
        if bad:
            raise ValueError(f"remap targets outside schema classes: {sorted(bad)}")

    def index(self, label: str) -> int:
        return self.classes.index(label)


@dataclass
class AnnotatedSet:
    entries: list[tuple[str, str]]  # (clip_id, label)
    schema: ClassSchema

    def __post_init__(self):
        for clip_id, label in self.entries:
            if label not in self.schema.classes:
                raise ValueError(f"label {label!r} of {clip_id} not in schema {self.schema.name}")


@dataclass
class MetricsReport:
    accuracy: float
    per_class: list[tuple[float, float, float]]  # (precision, recall, f1)
    macro_precision: float
    macro_recall: float
    macro_f1: float


def load_schema(name: str) -> ClassSchema:
    """Load a packaged schema (``modern4`` or ``historian5``) or a JSON path."""
    candidate = Path(name)
    if candidate.suffix == ".json" and candidate.is_file():
        payload = read_json(candidate, "schema")
    else:
        ref = resources.files("dgme.schemas").joinpath(f"{name}.json")
        if not ref.is_file():
            raise DataError(f"unknown schema {name!r}")
        payload = json.loads(ref.read_text())
    try:
        return ClassSchema(
            name=payload["name"],
            classes=tuple(payload["classes"]),
            remap=dict(payload["remap"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed schema file {name}: {exc}") from exc


def remap_labels(raw: list[tuple[str, str]], schema: ClassSchema) -> AnnotatedSet:
    """Apply the schema's source-label remap; DROP entries are removed."""
    entries = []
    for clip_id, source in raw:
        if source not in schema.remap:
            raise DataError(f"unknown source label {source!r} for clip {clip_id}")
        target = schema.remap[source]
        if target == DROP:
            continue
        entries.append((clip_id, target))
    return AnnotatedSet(entries, schema)


def stratified_split(aset: AnnotatedSet,
                     seed: int = 0) -> tuple[AnnotatedSet, AnnotatedSet, AnnotatedSet]:
    """Class-balanced train/val/test split with floor quotas.

    Per class, entries are shuffled with a seeded RNG and the quotas are
    floor(ratio * n) for each of the ``SPLIT_RATIOS``. The floors leave at
    most two samples over: the first goes to test, the second to train.
    """
    rng = np.random.default_rng(seed)
    parts: tuple[list, list, list] = ([], [], [])
    by_class: dict = {c: [] for c in aset.schema.classes}
    for entry in aset.entries:
        by_class[entry[1]].append(entry)

    for cls in aset.schema.classes:
        group = by_class[cls]
        n = len(group)
        if n == 0:
            continue
        if n < 3:
            raise DataError(f"class {cls!r} has only {n} samples, needs >= 3 to split")
        order = rng.permutation(n)
        shuffled = [group[i] for i in order]
        n_train = int(np.floor(SPLIT_RATIOS[0] * n))
        n_val = int(np.floor(SPLIT_RATIOS[1] * n))
        leftover = n - n_train - n_val - int(np.floor(SPLIT_RATIOS[2] * n))
        # test takes the tail, so its leftover (the first) moves no boundary
        n_train += leftover >= 2
        parts[0].extend(shuffled[:n_train])
        parts[1].extend(shuffled[n_train : n_train + n_val])
        parts[2].extend(shuffled[n_train + n_val :])

    return tuple(AnnotatedSet(p, aset.schema) for p in parts)


def oversample(train: AnnotatedSet, targets: dict, seed: int = 0) -> AnnotatedSet:
    """Repeat entries per class up to a target count.

    Each class is repeated cyclically floor(target/n) times plus a seeded
    random sample without replacement of (target mod n) entries. Classes
    absent from ``targets`` pass through unchanged; a positive target for
    a class with no entries is refused. Never apply this to validation or
    test sets.
    """
    rng = np.random.default_rng(seed)
    by_class: dict = {c: [] for c in train.schema.classes}
    for entry in train.entries:
        by_class[entry[1]].append(entry)

    out = []
    for cls in train.schema.classes:
        group = by_class[cls]
        n = len(group)
        target = int(targets.get(cls, n))
        if target < n:
            raise DataError(f"oversample target {target} below current count {n} for class {cls!r}")
        if target and not n:
            raise DataError(f"oversample target {target} for class {cls!r}, which has no entries")
        if not n:
            continue
        repeats, extra = divmod(target, n)
        out.extend(group * repeats)
        if extra:
            picked = rng.choice(n, size=extra, replace=False)
            out.extend(group[i] for i in picked)
    return AnnotatedSet(out, train.schema)


def confusion_from_indices(y_true: np.ndarray, y_pred: np.ndarray,
                           num_classes: int) -> np.ndarray:
    """(k, k) int64 counts, rows true and columns predicted class."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (np.asarray(y_true, dtype=np.int64), np.asarray(y_pred, dtype=np.int64)), 1)
    return cm


def metrics_from_confusion(counts: np.ndarray) -> MetricsReport:
    """Accuracy and per-class/macro P, R, F1 with the 0/0 -> 0 convention."""
    counts = np.asarray(counts, dtype=np.int64)
    total = counts.sum()
    accuracy = float(np.trace(counts) / total) if total else 0.0
    per_class = []
    for k in range(counts.shape[0]):
        tp = counts[k, k]
        fp = counts[:, k].sum() - tp
        fn = counts[k, :].sum() - tp
        precision = float(tp / (tp + fp)) if (tp + fp) else 0.0
        recall = float(tp / (tp + fn)) if (tp + fn) else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
        per_class.append((precision, recall, f1))
    arr = np.array(per_class)
    return MetricsReport(
        accuracy=accuracy,
        per_class=per_class,
        macro_precision=float(arr[:, 0].mean()),
        macro_recall=float(arr[:, 1].mean()),
        macro_f1=float(arr[:, 2].mean()),
    )


def evaluate(predictions: list[tuple[str, str]],
             truth: AnnotatedSet) -> tuple[np.ndarray, MetricsReport]:
    """Score predictions against ground truth, one row per clip id in each
    (``dgme eval`` refuses repeats as it reads them); ids must match exactly.
    Returns the confusion counts, in the schema's class order, and metrics."""
    truth_map = dict(truth.entries)
    pred_map = dict(predictions)
    missing = sorted(set(truth_map) - set(pred_map))
    extra = sorted(set(pred_map) - set(truth_map))
    if missing or extra:
        raise DataError(
            f"prediction ids do not cover truth ids (missing: {missing[:5]}, extra: {extra[:5]})"
        )

    classes = truth.schema.classes
    y_true = np.array([classes.index(truth_map[cid]) for cid in truth_map], dtype=np.int64)
    y_pred = []
    for cid in truth_map:
        label = pred_map[cid]
        if label not in classes:
            raise DataError(f"predicted label {label!r} for {cid} not in schema {truth.schema.name}")
        y_pred.append(classes.index(label))
    cm = confusion_from_indices(y_true, np.array(y_pred, dtype=np.int64), len(classes))
    return cm, metrics_from_confusion(cm)


# ---------------------------------------------------------------------------
# on-disk formats
# ---------------------------------------------------------------------------

def read_annotations_csv(path) -> tuple[dict, list[tuple[str, str]]]:
    """Read ``clip_path,label`` rows; returns (meta, rows)."""
    path = Path(path)
    rows: list[tuple[str, str]] = []

    def parse_row(n, rec):
        if n == 0:
            if rec != ["clip_path", "label"]:
                raise DataError(f"unexpected annotations header in {path}: {','.join(rec)!r}")
        else:
            rows.append((rec[0], rec[1]))

    meta, _ = read_table(path, "annotations", parse_row)
    return meta, rows


def write_annotations_csv(path, rows: list[tuple[str, str]], meta: dict) -> None:
    write_table(path, "annotations", meta, ["clip_path", "label"], rows)


def write_metrics_json(path, report: MetricsReport, class_names, meta: dict) -> None:
    write_json(path, meta, {
        "accuracy": report.accuracy,
        "per_class": [
            {"class": c, "precision": p, "recall": r, "f1": f}
            for c, (p, r, f) in zip(class_names, report.per_class)
        ],
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
    })


def write_confusion_csv(path, counts: np.ndarray, class_names, meta: dict) -> None:
    write_table(path, "confusion", meta, ["true\\pred", *class_names],
                ([name, *row] for name, row in zip(class_names, counts.tolist())))
