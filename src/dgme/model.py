"""Classification heads over motion descriptors and backbone embeddings.

The fusion head concatenates a backbone embedding with the gated,
layer-normalized motion descriptor and applies one linear softmax layer:

    fused  = [e, alpha * LayerNorm(d)]
    probs  = softmax(W @ fused + b)

``alpha`` is a learnable scalar initialized at 1.0 that gates the motion
branch. The descriptor-only head is the same code path with an empty
backbone block (embedding dimension 0). Training is plain mini-batch
AdamW with a cosine-annealed learning rate and early stopping on
validation macro F1; gradients are fully analytic and verified against
central finite differences in the test suite.

The one backbone is ``StubEmbeddingProvider``, a cheap deterministic
stand-in built from intensity statistics. Its seed and width are the
model's ``seed`` and the head's ``backbone_dim``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from dgme._meta import integer, numbers, read_json, write_json, write_table
from dgme.descriptor import grid_cells
from dgme.errors import DataError, NumericError
from dgme.evaluation import confusion_from_indices, metrics_from_confusion
from dgme.videoio import FrameSequence

LAYER_NORM_EPS = 1e-5
ADAMW_BETAS = (0.9, 0.999)
ADAMW_EPS = 1e-8
WEIGHT_DECAY = 0.01
# peak of the cosine learning-rate schedule
LR_MAX = 1e-3
# epochs without a better validation macro F1 before training stops
EARLY_STOP_PATIENCE = 3
# learning rate the cosine schedule anneals to
COSINE_FLOOR = 1e-5
PROB_FLOOR = 1e-12
# output width of the stub backbone embedding
EMBED_DIM = 64


@dataclass
class FusionHeadParams:
    alpha: np.ndarray
    ln_gain: np.ndarray
    ln_bias: np.ndarray
    W: np.ndarray  # (num_classes, C + D), backbone block first
    b: np.ndarray
    class_names: list[str]
    backbone_dim: int
    descriptor_dim: int

    def __post_init__(self):
        self.alpha = np.array(float(self.alpha))  # 0-d, so that AdamW steps it in place
        self.ln_gain = np.asarray(self.ln_gain, dtype=np.float64)
        self.ln_bias = np.asarray(self.ln_bias, dtype=np.float64)
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        k = len(self.class_names)
        c, d = self.backbone_dim, self.descriptor_dim
        if self.ln_gain.shape != (d,) or self.ln_bias.shape != (d,):
            raise ValueError("layer-norm parameter shapes must match descriptor_dim")
        if self.W.shape != (k, c + d) or self.b.shape != (k,):
            raise ValueError(f"W must be ({k}, {c + d}) and b ({k},), got {self.W.shape}, {self.b.shape}")

    def copy(self) -> "FusionHeadParams":
        return copy.deepcopy(self)


@dataclass
class TrainConfig:
    """Length of one run. The learning-rate peak, the early-stop patience
    and AdamW's betas, epsilon and weight decay are module constants."""

    epochs: int = 12
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class LabeledFeatures:
    """One dataset split as the head reads it: one feature row per distinct
    clip, and a label and a clip row per sample, so that an oversampled
    split repeats row indices, not rows."""

    dgme: np.ndarray               # (R, D)
    labels: np.ndarray             # (N,) int class indices
    backbone: np.ndarray | None = None  # (R, C); None is the empty (R, 0) block
    rows: np.ndarray | None = None      # (N,) feature row of each sample; None is each row once

    def __post_init__(self):
        self.dgme = np.asarray(self.dgme, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        r = self.dgme.shape[0]
        if self.rows is None:
            self.rows = np.arange(r)
        self.rows = np.asarray(self.rows, dtype=np.int64)
        if self.rows.shape != self.labels.shape:
            raise ValueError("labels and rows must align")
        if self.rows.size and not 0 <= self.rows.min() <= self.rows.max() < r:
            raise ValueError(f"rows must index the {r} feature rows")
        if self.backbone is None:
            self.backbone = np.zeros((r, 0))
        self.backbone = np.asarray(self.backbone, dtype=np.float64)
        if self.backbone.shape[0] != r:
            raise ValueError("backbone rows must align with dgme rows")


def _standardize(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LAYER_NORM_EPS)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(backbone: np.ndarray, dgme: np.ndarray,
                   params: FusionHeadParams):
    xhat = _standardize(dgme)
    normed = params.ln_gain * xhat + params.ln_bias
    fused = np.concatenate([backbone, params.alpha * normed], axis=-1)
    logits = fused @ params.W.T + params.b
    return softmax(logits), xhat, normed, fused


def backward(backbone: np.ndarray, dgme: np.ndarray, labels: np.ndarray,
             params: FusionHeadParams) -> tuple[float, dict]:
    """Mean cross-entropy over the batch and its analytic gradients.

    Returns (loss, grads), grads keyed by parameter: alpha, ln_gain, ln_bias, W, b.
    Features are constants, so the chain rule stops at the parameters:
    d_logits = (p - onehot)/B, dW = d_logits' @ fused, db = sum d_logits,
    and the descriptor block of W' @ d_logits drives alpha and the
    layer-norm affine parameters.
    """
    backbone = np.asarray(backbone, dtype=np.float64)
    dgme = np.asarray(dgme, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if n == 0:
        raise ValueError("batch must be nonempty")

    probs, xhat, normed, fused = _forward_batch(backbone, dgme, params)
    picked = np.maximum(probs[np.arange(n), labels], PROB_FLOOR)
    loss = float(-np.log(picked).mean())

    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n

    grad_w = d_logits.T @ fused
    grad_b = d_logits.sum(axis=0)
    d_fused = d_logits @ params.W
    d_gated = d_fused[:, params.backbone_dim :]  # gradient w.r.t. alpha * LN(d)

    grad_alpha = float((d_gated * normed).sum())
    d_z = params.alpha * d_gated  # gradient w.r.t. LN(d) = gain * xhat + bias
    grad_gain = (d_z * xhat).sum(axis=0)
    grad_bias = d_z.sum(axis=0)
    grads = {
        "alpha": grad_alpha,
        "ln_gain": grad_gain,
        "ln_bias": grad_bias,
        "W": grad_w,
        "b": grad_b,
    }
    return loss, grads


def cosine_lr(step: int, total_steps: int) -> float:
    """Cosine annealing from ``LR_MAX`` (step 0) to ``COSINE_FLOOR`` (step
    total_steps)."""
    return COSINE_FLOOR + (LR_MAX - COSINE_FLOOR) * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


def init_params(class_names, backbone_dim: int, descriptor_dim: int,
                seed: int = 0) -> FusionHeadParams:
    """alpha = 1, LN affine at identity, W seeded uniform, b zero."""
    rng = np.random.default_rng(seed)
    k = len(class_names)
    width = backbone_dim + descriptor_dim
    bound = 1.0 / np.sqrt(max(width, 1))
    return FusionHeadParams(
        alpha=1.0,
        ln_gain=np.ones(descriptor_dim),
        ln_bias=np.zeros(descriptor_dim),
        W=rng.uniform(-bound, bound, size=(k, width)),
        b=np.zeros(k),
        class_names=list(class_names),
        backbone_dim=backbone_dim,
        descriptor_dim=descriptor_dim,
    )


def predict(features: LabeledFeatures, params: FusionHeadParams) -> np.ndarray:
    """Predicted class index per sample; each feature row is scored once."""
    width, dim = features.backbone.shape[1], features.dgme.shape[1]
    if width != params.backbone_dim:
        raise DataError(f"embedding dim {width} does not match head ({params.backbone_dim})")
    if dim != params.descriptor_dim:
        raise DataError(f"descriptor dim {dim} does not match head ({params.descriptor_dim})")
    probs, _, _, _ = _forward_batch(features.backbone, features.dgme, params)
    return probs.argmax(axis=1)[features.rows]


def train(class_names, train_set: LabeledFeatures, val_set: LabeledFeatures,
          cfg: TrainConfig) -> tuple[FusionHeadParams, list[dict]]:
    """Train a head with AdamW + cosine annealing; early stop on val macro F1.

    The head's embedding width is the splits' backbone width, so a
    zero-width backbone trains the descriptor-only head. Returns the
    best-epoch parameters and one log row per epoch. Deterministic given
    cfg.seed.
    """
    n = train_set.labels.shape[0]
    if n == 0 or val_set.labels.shape[0] == 0:
        raise DataError("training and validation sets must be nonempty")
    if train_set.backbone.shape[1] != val_set.backbone.shape[1]:
        raise DataError("train/val embedding dimensions differ")
    if train_set.dgme.shape[1] != val_set.dgme.shape[1]:
        raise DataError("train/val descriptor dimensions differ")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(
        class_names, train_set.backbone.shape[1], train_set.dgme.shape[1], seed=cfg.seed
    )
    beta1, beta2 = ADAMW_BETAS
    # AdamW's first and second moments of each parameter array
    moments = {key: (np.zeros_like(p), np.zeros_like(p))
               for key, p in vars(params).items() if isinstance(p, np.ndarray)}

    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch

    log: list[dict] = []
    best_f1 = -1.0
    best_params = params.copy()
    stall = 0
    global_step = 0

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            rows = train_set.rows[idx]
            lr = cosine_lr(global_step, total_steps)
            loss, grads = backward(
                train_set.backbone[rows], train_set.dgme[rows], train_set.labels[idx], params
            )
            losses.append(loss)
            global_step += 1
            bc1 = 1.0 - beta1 ** global_step
            bc2 = 1.0 - beta2 ** global_step
            for key, g in grads.items():
                p, (m, v) = getattr(params, key), moments[key]
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g * g
                update = (m / bc1) / (np.sqrt(v / bc2) + ADAMW_EPS)
                p -= lr * update
                if key == "W":
                    # decoupled decay on the linear weights only; decaying the
                    # gate or the affine norm parameters would bias the fusion
                    p -= lr * WEIGHT_DECAY * p

        cm = confusion_from_indices(val_set.labels, predict(val_set, params), len(class_names))
        val_f1 = metrics_from_confusion(cm).macro_f1
        log.append(
            {
                "epoch": epoch,
                "step": global_step,
                "lr": lr,
                "train_loss": float(np.mean(losses)),
                "val_macro_f1": val_f1,
                "alpha": float(params.alpha),
            }
        )
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_params = params.copy()
            stall = 0
        else:
            stall += 1
            if stall >= EARLY_STOP_PATIENCE:
                break

    if not np.isfinite(best_params.W).all() or not np.isfinite(best_params.b).all():
        raise NumericError("training produced non-finite parameters")
    return best_params, log


# ---------------------------------------------------------------------------
# backbone embedding stub
# ---------------------------------------------------------------------------

# clip statistics behind the stub embedding: a 32-bin intensity histogram
# and the frame-difference energies of a 3x3 grid
_HIST_BINS = 32
_ENERGY_GRID = 3
_STATS_WIDTH = _HIST_BINS + _ENERGY_GRID * _ENERGY_GRID


def _clip_statistics(seq: FrameSequence) -> np.ndarray:
    frames = seq.frames.astype(np.float64)
    # one count of frame * bins + bin over the clip; a u8 value's bin is value >> 3
    n = seq.frame_count
    bins = np.arange(n)[:, None] * _HIST_BINS + (seq.frames.reshape(n, -1) >> 3)
    counts = np.bincount(bins.ravel(), minlength=n * _HIST_BINS).reshape(n, _HIST_BINS)
    hist = np.zeros(_HIST_BINS, dtype=np.float64)
    for frame_counts in counts:  # each frame's share, in frame order
        hist += frame_counts / (seq.height * seq.width)
    hist /= n

    diffs = np.abs(np.diff(frames, axis=0)).mean(axis=0)  # (H, W)
    energies = np.array([
        diffs[y0:y1, x0:x1].mean() / 255.0
        for y0, y1, x0, x1 in grid_cells(diffs.shape[0], diffs.shape[1], _ENERGY_GRID)
    ])
    return np.concatenate([hist, energies])


class StubEmbeddingProvider:
    """Deterministic clip embedding standing in for a video backbone; pure
    per clip.

    Concatenates a clip-averaged 32-bin intensity histogram with per-cell
    mean absolute frame-difference energies over a 3x3 grid, then applies
    a seeded random projection to ``dim`` dimensions. The projection is
    drawn once, when the provider is made.
    """

    def __init__(self, seed: int = 0, dim: int = EMBED_DIM):
        self._projection = np.random.default_rng(seed).normal(0.0, 1.0, size=(dim, _STATS_WIDTH))
        self._projection /= np.sqrt(_STATS_WIDTH)

    def embed(self, seq: FrameSequence) -> np.ndarray:
        return self._projection @ _clip_statistics(seq)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# the model file's fields after its metadata, in file order
MODEL_FIELDS = ("class_names", "backbone_dim", "descriptor_dim", "alpha",
                "ln_gain", "ln_bias", "W", "b")


def save_model_json(path, params: FusionHeadParams, meta: dict) -> None:
    """JSON with explicit dims and row-major weights; floats round-trip
    exactly through repr."""
    fields = {key: getattr(params, key) for key in MODEL_FIELDS}
    write_json(path, meta, {key: value.tolist() if isinstance(value, np.ndarray) else value
                            for key, value in fields.items()})


def load_model_json(path) -> tuple[FusionHeadParams, dict]:
    payload = read_json(path, "model")
    try:
        params = FusionHeadParams(
            alpha=numbers(payload["alpha"]),
            ln_gain=numbers(payload["ln_gain"]),
            ln_bias=numbers(payload["ln_bias"]),
            W=numbers(payload["W"]),
            b=numbers(payload["b"]),
            class_names=list(payload["class_names"]),
            backbone_dim=integer(payload["backbone_dim"]),
            descriptor_dim=integer(payload["descriptor_dim"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
    meta = {k: v for k, v in payload.items() if k not in MODEL_FIELDS}
    return params, meta


def write_training_log(path, log: list[dict], meta: dict) -> None:
    """One column per key of ``train``'s log rows: counts as integers, the rest ``%.9g``."""
    write_table(path, "trainlog", meta, list(log[0]),
                ([v if isinstance(v, int) else f"{v:.9g}" for v in row.values()]
                 for row in log))
