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

When validation accuracy improves, only the tensors named in the
gradient table are copied: frozen tensors cannot change, so
``best.nnck`` takes them from the model itself.  Under
``freeze_features`` that keeps the best-epoch snapshot to the dense
head instead of a second copy of every conv weight.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augment import augment_image, sample_params
from .checkpoint import load_model, save_checkpoint, save_weights
# unused here, but bench/tracing.py patches these names on this module
from .checkpoint import apply_weights, dump_weights, load_checkpoint  # noqa: F401
from .dataset import DatasetManifest, make_dir, reading
from .errors import BadConfig, NonFiniteLoss, TumorkitError, check_field_types
from .metrics import CLASSES, MetricsReport, ScoredSample, evaluate_scores, label_from_score
from .model import (
    FREEZE_POLICIES, Model, apply_freeze_policy, build_model, check_shape, init_weights
)
from .nn import AdamState, adam_step, softmax_ce_loss
from .pgm import GrayImage8, image_to_tensor, read_pgm
from .preprocess import crop_and_resize, normalize_zscore
from .report import EpochStats
from .rng import Rng, STREAM_AUGMENT, STREAM_DROPOUT, STREAM_INIT, STREAM_SHUFFLE, mix_seed

BEST_CHECKPOINT = "best.nnck"
FINAL_CHECKPOINT = "final.nnck"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and run plumbing for one training run.

    ``architecture`` and ``input_size`` must be a pair that
    :func:`tumorkit.model.check_shape` accepts.  The crop chain and the
    augmentation recipe are fixed (see :mod:`tumorkit.preprocess` and
    :mod:`tumorkit.augment`), so they have no fields here.
    """

    learning_rate: float = 1e-4
    epochs: int = 80
    batch_size: int = 16
    seed: int = 0
    freeze_policy: str = "none"
    architecture: str = "vgg16"
    input_size: int = 224
    init_checkpoint: str | None = None

    def __post_init__(self):
        check_field_types(self)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise BadConfig(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise BadConfig(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise BadConfig(f"batch_size must be at least 1, got {self.batch_size}")
        try:
            check_shape(self.architecture, self.input_size)
        except ValueError as exc:
            raise BadConfig(str(exc)) from None
        if self.freeze_policy not in FREEZE_POLICIES:
            raise BadConfig(f"freeze_policy must be one of {FREEZE_POLICIES}")


@dataclass
class TrainResult:
    best_path: Path
    final_path: Path
    best_val_accuracy: float | None
    history: list[EpochStats]


def load_one_image(path: str | Path, cfg: TrainConfig) -> GrayImage8:
    """Read one PGM and run the 8-bit crop/resize stage, tagging errors
    with the offending path."""
    with reading(path, "image") as handle:
        data = handle.read()
    try:
        img = read_pgm(data)
        return crop_and_resize(img, cfg.input_size)
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


def _eval_pass(model: Model, trunk_out: list[np.ndarray], targets: np.ndarray):
    """The validation pass: mean loss and accuracy in eval mode, running
    the model head on each batch of trunk output."""
    n = len(targets)
    total_loss = 0.0
    correct = 0
    start = 0
    for features in trunk_out:
        stop = start + len(features)
        logits = model.head(features)
        loss, _ = softmax_ce_loss(logits, targets[start:stop])
        total_loss += loss * (stop - start)
        correct += int((logits.argmax(axis=1) == targets[start:stop].argmax(axis=1)).sum())
        start = stop
    return total_loss / n, correct / n


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
    make_dir(ckpt_dir)

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
    best_updated: dict[str, np.ndarray] = {}  # the updated tensors at best_acc
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
                p = sample_params(size, size, sub)
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
                val_trunk = [
                    model.trunk(val_x[start : start + cfg.batch_size])
                    for start in range(0, len(val_x), cfg.batch_size)
                ]
            val_loss, val_acc = _eval_pass(model, val_trunk, val_targets)
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
            # Adam keeps moments for exactly the tensors the gradient tables name
            best_updated = {name: params[name].copy() for name in state.m}

    final_path = ckpt_dir / FINAL_CHECKPOINT
    save_checkpoint(model, final_path)
    # without a validation set best_updated stays empty: best is final
    best_path = ckpt_dir / BEST_CHECKPOINT
    save_weights({name: best_updated.get(name, t) for name, t in params.items()}, best_path)
    return TrainResult(best_path, final_path, best_acc, history)


def _yes_scores(
    checkpoint_path: str | Path, paths: list[str | Path], cfg: TrainConfig
) -> list[float]:
    """Probability of YES for each image file, in order: the one scoring
    path of both :func:`run_evaluation` and :func:`predict_single`.

    The checkpoint is loaded before any image is read, and
    ``Model.forward`` runs on ``cfg.batch_size`` images at a time.
    """
    model = load_model(cfg.architecture, cfg.input_size, checkpoint_path)
    images = [load_one_image(path, cfg) for path in paths]
    scores: list[float] = []
    for start in range(0, len(images), cfg.batch_size):
        scores += model.forward(_to_batch(images[start : start + cfg.batch_size]))[:, 1].tolist()
    return scores


def run_evaluation(
    checkpoint_path: str | Path, manifest: DatasetManifest, cfg: TrainConfig
) -> tuple[MetricsReport, list[ScoredSample], list[str]]:
    """Score every manifest image with the checkpointed model.

    Returns the metrics report, the per-image score table (probability
    of YES), and the predicted labels, all in manifest order.
    """
    if not manifest.entries:
        raise BadConfig("the evaluation manifest lists no images")
    scores = _yes_scores(checkpoint_path, [entry.path for entry in manifest.entries], cfg)
    samples = [ScoredSample(entry.label, score) for entry, score in zip(manifest.entries, scores)]
    predictions = [label_from_score(s.score) for s in samples]
    return evaluate_scores(samples, predictions), samples, predictions


def predict_single(
    checkpoint_path: str | Path, image_path: str | Path, cfg: TrainConfig
) -> tuple[str, float]:
    """(predicted label, probability of YES) for one image file: the
    same scoring as :func:`run_evaluation` on a one-image manifest."""
    (p_yes,) = _yes_scores(checkpoint_path, [image_path], cfg)
    return label_from_score(p_yes), p_yes
