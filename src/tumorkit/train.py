"""The training loop, evaluation runs, and single-image prediction.

A run is fully determined by (dataset, TrainConfig): every random
choice draws from a sub-stream derived from the run seed, so identical
configs produce bit-identical loss traces and checkpoints.

Per epoch: the train set is reshuffled, batches of ``batch_size`` are
formed (the final short batch is kept), each image is freshly augmented
before normalization, and one Adam step is taken per batch on the
gradients ``Model.backward`` returns, which leave out frozen layers.
After each epoch the validation set is scored in eval mode without
augmentation; the best-validation-accuracy weights and the final
weights are both saved.  The frozen trunk (see ``Model.trunk``)
gives the same validation features every epoch, so they are computed
once per run and later epochs run only the head.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, augment_image, sample_params
from .checkpoint import load_model, save_checkpoint, save_weights
# unused here, but bench/tracing.py patches these names on this module
from .checkpoint import apply_weights, dump_weights, load_checkpoint  # noqa: F401
from .dataset import DatasetManifest
from .errors import BadConfig, NonFiniteLoss, TumorkitError, Unreadable
from .metrics import CLASSES, MetricsReport, ScoredSample, evaluate_scores, label_from_score
from .model import FREEZE_POLICIES, Model, apply_freeze_policy, build_model, init_weights
from .nn import AdamState, adam_step, softmax, softmax_ce_loss
from .pgm import GrayImage8, image_to_tensor, read_pgm
from .preprocess import (
    DEFAULT_MORPH_ITERS,
    DEFAULT_THRESHOLD,
    crop_and_resize,
    normalize_zscore,
)
from .report import EpochStats
from .rng import Rng, STREAM_AUGMENT, STREAM_DROPOUT, STREAM_INIT, STREAM_SHUFFLE, mix_seed

ARCHITECTURES = ("vgg16", "vgg_tiny")
BEST_CHECKPOINT = "best.nnck"
FINAL_CHECKPOINT = "final.nnck"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and run plumbing for one training run."""

    learning_rate: float = 1e-4
    epochs: int = 80
    batch_size: int = 16
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    freeze_policy: str = "none"
    architecture: str = "vgg16"
    input_size: int = 224
    init_checkpoint: str | None = None
    threshold: int = DEFAULT_THRESHOLD
    morph_iterations: int = DEFAULT_MORPH_ITERS

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise BadConfig(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise BadConfig(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise BadConfig(f"batch_size must be at least 1, got {self.batch_size}")
        if self.architecture not in ARCHITECTURES:
            raise BadConfig(f"architecture must be one of {ARCHITECTURES}")
        if self.freeze_policy not in FREEZE_POLICIES:
            raise BadConfig(f"freeze_policy must be one of {FREEZE_POLICIES}")
        if self.architecture == "vgg16" and self.input_size != 224:
            raise BadConfig("vgg16 takes 224x224 input")
        if self.architecture == "vgg_tiny" and (self.input_size < 8 or self.input_size % 8):
            raise BadConfig(
                f"vgg_tiny input_size must be a positive multiple of 8, got {self.input_size}"
            )
        if not 0 <= self.threshold <= 255:
            raise BadConfig(f"threshold must be in [0, 255], got {self.threshold}")
        if self.morph_iterations < 0:
            raise BadConfig(f"morph_iterations must be >= 0, got {self.morph_iterations}")


@dataclass
class TrainResult:
    best_path: Path
    final_path: Path
    best_val_accuracy: float | None
    history: list[EpochStats]


def load_one_image(path: str | Path, cfg: TrainConfig) -> GrayImage8:
    """Read one PGM and run the 8-bit crop/resize stage, tagging errors
    with the offending path."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise Unreadable(f"cannot read image {path}: {exc.strerror or exc}") from exc
    try:
        img = read_pgm(data)
        return crop_and_resize(img, cfg.threshold, cfg.morph_iterations, cfg.input_size)
    except TumorkitError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_base_images(
    manifest: DatasetManifest, cfg: TrainConfig
) -> list[tuple[GrayImage8, str]]:
    """Read, crop, and resize every image once; augmentation and
    normalization happen later, per epoch."""
    return [(load_one_image(entry.path, cfg), entry.label) for entry in manifest.entries]


def _one_hot(labels: list[str]) -> np.ndarray:
    targets = np.zeros((len(labels), len(CLASSES)), dtype=np.float32)
    for i, label in enumerate(labels):
        targets[i, CLASSES.index(label)] = 1.0
    return targets


def _to_batch(images: list[GrayImage8]) -> np.ndarray:
    return np.stack([normalize_zscore(image_to_tensor(img)) for img in images])


def _trunk_batches(model: Model, x: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Eval-mode trunk output of each ``batch_size`` slice of x, in order."""
    return [model.trunk(x[start : start + batch_size]) for start in range(0, len(x), batch_size)]


def _eval_pass(model: Model, trunk_out: list[np.ndarray], targets: np.ndarray):
    """Mean loss, accuracy, and YES probabilities in eval mode, running
    the model head on each batch of trunk output."""
    n = len(targets)
    total_loss = 0.0
    correct = 0
    scores = np.empty(n, dtype=np.float64)
    start = 0
    for features in trunk_out:
        stop = start + len(features)
        logits = model.head(features)
        loss, _ = softmax_ce_loss(logits, targets[start:stop])
        total_loss += loss * (stop - start)
        correct += int((logits.argmax(axis=1) == targets[start:stop].argmax(axis=1)).sum())
        scores[start:stop] = softmax(logits)[:, 1]
        start = stop
    return total_loss / n, correct / n, scores


def run_training(
    cfg: TrainConfig,
    train_manifest: DatasetManifest,
    val_manifest: DatasetManifest,
    out_dir: str | Path,
) -> TrainResult:
    """Train per the config; write best/final checkpoints and history."""
    if not train_manifest.entries:
        raise BadConfig("the train manifest lists no images")
    out = Path(out_dir)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    if cfg.init_checkpoint is not None:
        model = load_model(cfg.architecture, cfg.input_size, cfg.init_checkpoint)
    else:
        model = build_model(cfg.architecture, cfg.input_size)
        init_weights(model, Rng(mix_seed(cfg.seed, STREAM_INIT)))
    apply_freeze_policy(model, cfg.freeze_policy)

    train_base = load_base_images(train_manifest, cfg)
    val_base = load_base_images(val_manifest, cfg)
    train_targets = _one_hot([label for _, label in train_base])
    val_x = _to_batch([img for img, _ in val_base]) if val_base else None
    val_targets = _one_hot([label for _, label in val_base]) if val_base else None

    params = model.parameters()
    state = AdamState(lr=cfg.learning_rate)
    size = cfg.input_size

    history: list[EpochStats] = []
    val_trunk: list[np.ndarray] | None = None
    best_acc: float | None = None
    best_weights: dict[str, np.ndarray] | None = None
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = list(range(len(train_base)))
        Rng(mix_seed(cfg.seed, STREAM_SHUFFLE, epoch)).shuffle(order)
        dropout_rng = Rng(mix_seed(cfg.seed, STREAM_DROPOUT, epoch))

        epoch_loss = 0.0
        correct = 0
        for start in range(0, len(order), cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            images = []
            for idx in chunk:
                sub = Rng(mix_seed(cfg.seed, STREAM_AUGMENT, epoch, idx))
                p = sample_params(cfg.augment, size, size, sub)
                images.append(augment_image(train_base[idx][0], p))
            x = _to_batch(images)
            targets = train_targets[chunk]

            logits, trace = model.forward_logits(x, "train", dropout_rng)
            loss, dlogits = softmax_ce_loss(logits, targets)
            if not math.isfinite(loss):
                raise NonFiniteLoss(
                    f"epoch {epoch}, batch {start // cfg.batch_size}: loss {loss}"
                )
            grads = model.backward(trace, dlogits)
            adam_step(params, grads, state)
            epoch_loss += loss * len(chunk)
            correct += int((logits.argmax(axis=1) == targets.argmax(axis=1)).sum())

        if val_x is not None:
            # the frozen trunk's output never changes: compute it once, in epoch 1
            if val_trunk is None:
                val_trunk = _trunk_batches(model, val_x, cfg.batch_size)
            val_loss, val_acc, _ = _eval_pass(model, val_trunk, val_targets)
        else:
            val_loss = val_acc = None
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / len(train_base),
                train_acc=correct / len(train_base),
                val_loss=val_loss,
                val_acc=val_acc,
                seconds=time.perf_counter() - started,
            )
        )
        if val_acc is not None and (best_acc is None or val_acc > best_acc):
            best_acc = val_acc
            best_weights = {name: tensor.copy() for name, tensor in params.items()}

    final_path = ckpt_dir / FINAL_CHECKPOINT
    save_checkpoint(model, final_path)
    best_path = ckpt_dir / BEST_CHECKPOINT
    if best_weights is not None:
        save_weights(best_weights, best_path)
    else:
        save_checkpoint(model, best_path)
    return TrainResult(best_path, final_path, best_acc, history)


def run_evaluation(
    checkpoint_path: str | Path, manifest: DatasetManifest, cfg: TrainConfig
) -> tuple[MetricsReport, list[ScoredSample], list[str]]:
    """Score every manifest image with the checkpointed model.

    Returns the metrics report, the per-image score table (probability
    of YES), and the predicted labels, all in manifest order.
    """
    model = load_model(cfg.architecture, cfg.input_size, checkpoint_path)
    base = load_base_images(manifest, cfg)
    x = _to_batch([img for img, _ in base])
    targets = _one_hot([label for _, label in base])
    _, _, scores = _eval_pass(model, _trunk_batches(model, x, cfg.batch_size), targets)
    samples = [
        ScoredSample(entry.label, float(score))
        for entry, score in zip(manifest.entries, scores)
    ]
    predictions = [label_from_score(s.score) for s in samples]
    return evaluate_scores(samples, predictions), samples, predictions


def predict_single(
    checkpoint_path: str | Path, image_path: str | Path, cfg: TrainConfig
) -> tuple[str, float]:
    """(predicted label, probability of YES) for one image file."""
    model = load_model(cfg.architecture, cfg.input_size, checkpoint_path)
    x = _to_batch([load_one_image(image_path, cfg)])
    probs = model.forward(x, "eval")
    p_yes = float(probs[0, 1])
    label = CLASSES[int(np.argmax(probs[0]))]
    return label, p_yes
