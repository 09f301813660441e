"""The benchmark workloads: input generators, timed cycles, output checks.

Every workload is a closed loop with one client: one cycle runs the
workload's user-visible calls back to back, in this process, and the
next cycle starts only when the previous one has finished.

* ``tiny-train``: ``run_training`` with the desk-scale config (vgg_tiny at
  64x64, 400 train and 50 val blob images, batch 16, no freezing, fresh
  init), then the ``eval`` command on 100 test images and 48 ``predict``
  calls.  The nn kernels run forward and backward, Adam runs on every
  step, augmentation runs at 64x64 and the rng draws the init weights
  and every dropout mask.
* ``vgg16-transfer``: ``run_training`` of vgg16 at 224x224 with
  ``freeze_features`` from a supplied checkpoint, then ``eval`` and
  ``predict`` with the result.  Large convolutions and the 60 MB
  checkpoint codec dominate; the full backward runs through a frozen
  trunk.
* ``scan-eval``: the ``eval`` command over a pre-split run directory of
  256x256 and 512x512 slices with a vgg_tiny checkpoint, then
  ``predict`` calls on the 256x256 test slices.  Crop preprocessing
  dominates.  It is not in BENCHMARK.json: its pure-Python component
  labelling made it the least steady workload on a shared machine (see
  BASELINE.md), but it stays runnable by name.

All inputs come from the workload seed and are generated before any
timed call.  Each cycle writes into its own run directory so that the
output checks can run after the last cycle, outside the timed region
and after peak memory has been read.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import helpers
import synth
from tumorkit import cli, train
from tumorkit.checkpoint import dump_weights, parse_weights
from tumorkit.dataset import DatasetManifest, ManifestEntry, write_manifest
from tumorkit.metrics import NO, YES
from tumorkit.model import build_model, init_weights
from tumorkit.pgm import GrayImage8, read_pgm, write_pgm
from tumorkit.preprocess import compute_crop_box
from tumorkit.rng import Rng
from tumorkit.train import TrainConfig

SPLITS = ("train", "val", "test")


def sub_seed(seed: int, tag: int) -> int:
    """A 32-bit seed for one generator, derived from the workload seed."""
    return int(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, tag]).generate_state(1)[0])


@dataclass
class Cycle:
    """What one timed cycle measured; the timed calls are in ``wall_s``."""

    wall_s: float = 0.0
    train_setup_s: float | None = None
    epoch_s: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    eval_s: float | None = None
    eval_images: int = 0
    predict_ms: list[float] = field(default_factory=list)
    predictions: dict[str, tuple[str, float]] = field(default_factory=dict)
    run_dir: Path | None = None


@dataclass
class Inputs:
    """Generated inputs shared by every cycle of one run."""

    root: Path
    config_path: Path
    cfg: TrainConfig
    splits: dict[str, DatasetManifest]
    predict_paths: list[str]
    setup_samples_s: list[float] = field(default_factory=list)
    crop_boxes: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    supplied_checkpoint: Path | None = None


def _write_config(path: Path, cfg: TrainConfig) -> None:
    keys = ("architecture", "input_size", "epochs", "batch_size", "learning_rate",
            "seed", "freeze_policy", "init_checkpoint")
    path.write_text(json.dumps({"train": {k: getattr(cfg, k) for k in keys}}, indent=1))


def _prepare_run_dir(inputs: Inputs, index: int) -> Path:
    run_dir = inputs.root / f"cycle{index}"
    split_dir = run_dir / "splits"
    split_dir.mkdir(parents=True)
    for name in SPLITS:
        write_manifest(inputs.splits[name], split_dir / f"{name}.csv")
    return run_dir


def _quiet_cli(argv: list[str]) -> str:
    """Run ``tumorkit <argv>`` in-process; return its stdout or raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tumorkit {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _eval_and_predict(inputs: Inputs, run_dir: Path, rec: Cycle) -> None:
    base = ["--config", str(inputs.config_path), "--out", str(run_dir)]
    started = time.perf_counter()
    _quiet_cli(["eval", *base])
    rec.eval_s = time.perf_counter() - started
    rec.eval_images = len(inputs.splits["test"])
    for path in inputs.predict_paths:
        started = time.perf_counter()
        line = _quiet_cli(["predict", *base, path]).split()
        rec.predict_ms.append((time.perf_counter() - started) * 1e3)
        rec.predictions[path] = (line[0], float(line[1]))


class Workload:
    """Base for the three workloads; subclasses define the inputs."""

    name = ""
    trains = True

    def setup(self, root: Path, seed: int) -> Inputs:
        raise NotImplementedError

    def prepare(self, inputs: Inputs, index: int) -> Path:
        """The run directory of one cycle, made before the timed calls."""
        return _prepare_run_dir(inputs, index)

    def run(self, inputs: Inputs, run_dir: Path) -> Cycle:
        """The timed calls of one cycle: training (if any), eval, then predicts."""
        rec = Cycle(run_dir=run_dir)
        started = time.perf_counter()
        if self.trains:
            result = train.run_training(
                inputs.cfg, inputs.splits["train"], inputs.splits["val"], run_dir
            )
            train_wall = time.perf_counter() - started
            rec.epoch_s = [s.seconds for s in result.history]
            rec.train_setup_s = train_wall - sum(rec.epoch_s)
            rec.losses = [s.train_loss for s in result.history] + [
                s.val_loss for s in result.history if s.val_loss is not None
            ]
        _eval_and_predict(inputs, run_dir, rec)
        rec.wall_s = time.perf_counter() - started
        return rec

    def operations(self, inputs: Inputs) -> int:
        """Operations per cycle: a training run, each scored image, each predict."""
        return int(self.trains) + len(inputs.splits["test"]) + len(inputs.predict_paths)

    def check(self, inputs: Inputs, cycles: list[Cycle]) -> list[str]:
        """Output checks shared by every workload; returns failure messages."""
        failures = []
        for i, rec in enumerate(cycles):
            failures += [f"cycle {i}: {m}" for m in check_eval_outputs(inputs, rec)]
            if not all(np.isfinite(rec.losses)):
                failures.append(f"cycle {i}: non-finite loss in {rec.losses}")
        return failures


def check_eval_outputs(inputs: Inputs, rec: Cycle) -> list[str]:
    """scores.csv covers the test split with scores in [0, 1]; the
    confusion-derived and score-derived metrics agree; each predict
    agrees with its scores.csv row."""
    failures = []
    with open(rec.run_dir / "scores.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    expected = [(e.path, e.label) for e in inputs.splits["test"].entries]
    if [(r["path"], r["label"]) for r in rows] != expected:
        failures.append("scores.csv does not list every test image in manifest order")
        return failures
    scores = {r["path"]: float(r["score"]) for r in rows}
    for r in rows:
        if not 0.0 <= scores[r["path"]] <= 1.0:
            failures.append(f"score {r['score']} of {r['path']} is outside [0, 1]")
        if r["prediction"] != (YES if scores[r["path"]] > 0.5 else NO):
            failures.append(f"prediction of {r['path']} disagrees with its score")

    counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0}
    for r in rows:
        key = ("t" if r["label"] == r["prediction"] else "f") + (
            "p" if r["prediction"] == YES else "n"
        )
        counts[key] += 1
    with open(rec.run_dir / "report" / "confusion.csv", newline="") as handle:
        emitted = {row["cell"]: int(row["count"]) for row in csv.DictReader(handle)}
    if emitted != counts:
        failures.append(f"confusion.csv {emitted} != counts from scores.csv {counts}")
    with open(rec.run_dir / "report" / "metrics.csv", newline="") as handle:
        reported = {row["metric"]: row["value"] for row in csv.DictReader(handle)}
    for name, value in _rates(**emitted).items():
        text = "undefined" if value is None else f"{value:.4f}"
        if reported.get(name) != text:
            failures.append(f"metrics.csv {name}={reported.get(name)}, confusion gives {text}")

    for path, (label, p_yes) in rec.predictions.items():
        score = scores.get(path)
        if score is None:
            failures.append(f"predicted {path} is not in scores.csv")
            continue
        # eval scores a batch, predict a single image: allow float32 rounding
        if abs(p_yes - score) > 1e-5:
            failures.append(f"predict score {p_yes} != scores.csv {score} for {path}")
        elif abs(score - 0.5) > 1e-5 and label != (YES if score > 0.5 else NO):
            failures.append(f"predict label {label} disagrees with scores.csv for {path}")
    return failures


def _rates(tp: int, fn: int, fp: int, tn: int) -> dict[str, float | None]:
    """Accuracy, precision, recall, F1 and kappa from the four counts."""
    def ratio(a, b):
        return None if b == 0 else a / b

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    kappa = helpers.brute_kappa(tp, fn, fp, tn)
    return {
        "accuracy": ratio(tp + tn, tp + fn + fp + tn),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "kappa": None if kappa is None else float(kappa),
    }


def _blob_splits(root: Path, seed: int, sizes: dict[str, tuple[int, int]]):
    """Blob-image splits from the test-suite generator, (yes, no) per split."""
    return {
        name: synth.write_blob_dataset(root / "data" / name, n_yes, n_no, sub_seed(seed, i))
        for i, (name, (n_yes, n_no)) in enumerate(sizes.items())
    }


class TinyTrain(Workload):
    name = "tiny-train"
    EPOCHS = 2
    # enough predict calls that their samples span most of a second per cycle
    PREDICTS = 48

    def setup(self, root: Path, seed: int) -> Inputs:
        splits = _blob_splits(root, seed, {"train": (200, 200), "val": (25, 25), "test": (50, 50)})
        cfg = TrainConfig(
            architecture="vgg_tiny", input_size=64, epochs=self.EPOCHS, batch_size=16,
            learning_rate=1e-4, seed=sub_seed(seed, 10),
        )
        config_path = root / "config.json"
        _write_config(config_path, cfg)
        test = splits["test"].entries
        predicts = [e.path for e in test[:: len(test) // self.PREDICTS][: self.PREDICTS]]
        return Inputs(root, config_path, cfg, splits, predicts)

    def check(self, inputs: Inputs, cycles: list[Cycle]) -> list[str]:
        failures = super().check(inputs, cycles)
        digests = set()
        for i, rec in enumerate(cycles):
            final = (rec.run_dir / "checkpoints" / train.FINAL_CHECKPOINT).read_bytes()
            if dump_weights(parse_weights(final)) != final:
                failures.append(f"cycle {i}: final.nnck does not re-save byte-identically")
            digests.add(hashlib.sha256(final).hexdigest())
        if len(digests) > 1:
            failures.append(f"same seed gave different final.nnck digests: {sorted(digests)}")
        return failures

    @staticmethod
    def digest(cycles: list[Cycle]) -> str:
        final = cycles[0].run_dir / "checkpoints" / train.FINAL_CHECKPOINT
        return hashlib.sha256(final.read_bytes()).hexdigest()


class Vgg16Transfer(Workload):
    name = "vgg16-transfer"
    EPOCHS = 2

    def setup(self, root: Path, seed: int) -> Inputs:
        # so few images keep a cycle near 12 s on a 2-core machine
        splits = _blob_splits(root, seed, {"train": (1, 0), "val": (0, 1), "test": (1, 1)})
        supplied = root / "supplied.nnck"
        supplied.write_bytes(dump_weights(he_normal_vgg16(sub_seed(seed, 20))))
        cfg = TrainConfig(
            architecture="vgg16", input_size=224, epochs=self.EPOCHS, batch_size=1,
            learning_rate=1e-4, seed=sub_seed(seed, 10), freeze_policy="freeze_features",
            init_checkpoint=str(supplied),
        )
        config_path = root / "config.json"
        _write_config(config_path, cfg)
        predicts = [e.path for e in splits["test"].entries]
        return Inputs(root, config_path, cfg, splits, predicts, supplied_checkpoint=supplied)

    def check(self, inputs: Inputs, cycles: list[Cycle]) -> list[str]:
        failures = super().check(inputs, cycles)
        supplied = parse_weights(inputs.supplied_checkpoint.read_bytes())
        for i, rec in enumerate(cycles):
            final = parse_weights(
                (rec.run_dir / "checkpoints" / train.FINAL_CHECKPOINT).read_bytes()
            )
            for name, tensor in final.items():
                same = tensor.tobytes() == supplied[name].tobytes()
                if name.startswith("conv") and not same:
                    failures.append(f"cycle {i}: frozen {name} changed")
                if name.startswith("dense") and same:
                    failures.append(f"cycle {i}: trainable {name} did not change")
        return failures


def he_normal_vgg16(seed: int) -> dict[str, np.ndarray]:
    """He-normal vgg16 weights from numpy's Generator, zero biases.

    The package's own ``init_weights`` draws 14.9 M normals one at a
    time, which takes over a minute; a supplied checkpoint only needs
    the right shapes and scale.
    """
    g = np.random.default_rng(seed)
    table = {}
    for name, param in build_model("vgg16", 224).parameters().items():
        if name.endswith(".weight"):
            fan_in = int(np.prod(param.shape[1:]))
            scale = np.float32(np.sqrt(2.0 / fan_in))
            table[name] = g.standard_normal(param.shape, dtype=np.float32) * scale
        else:
            table[name] = np.zeros(param.shape, dtype=np.float32)
    return table


class ScanEval(Workload):
    name = "scan-eval"
    trains = False
    SETUPS = 5
    PREDICT_ROUNDS = 2
    # (size, label, count) per split; slices of both sizes and both classes
    LAYOUT = {
        "train": [(256, YES, 1), (256, NO, 1)],
        "val": [(256, YES, 1), (256, NO, 1)],
        "test": [(256, YES, 2), (256, NO, 2), (512, YES, 2), (512, NO, 2)],
    }

    def setup(self, root: Path, seed: int) -> Inputs:
        """Build the run directory SETUPS times and keep the last; each
        build is timed, since this is the workload's set-up."""
        samples = []
        for attempt in range(self.SETUPS):
            started = time.perf_counter()
            inputs = self._build(root / f"setup{attempt}", seed)
            samples.append(time.perf_counter() - started)
            if attempt:
                shutil.rmtree(root / f"setup{attempt - 1}")
        inputs.setup_samples_s = samples
        return inputs

    def _build(self, root: Path, seed: int) -> Inputs:
        g = np.random.default_rng(sub_seed(seed, 30))
        splits, boxes = {}, {}
        for split, groups in self.LAYOUT.items():
            entries = []
            for size, label, count in groups:
                class_dir = root / "data" / label
                class_dir.mkdir(parents=True, exist_ok=True)
                for _ in range(count):
                    img, box = scan_slice(g, size, with_blob=label == YES)
                    path = class_dir / f"{split}_{size}_{len(entries):02d}.pgm"
                    path.write_bytes(write_pgm(img))
                    entries.append(ManifestEntry(str(path), label))
                    boxes[str(path)] = box
            splits[split] = DatasetManifest(sorted(entries, key=lambda e: e.path))
        cfg = TrainConfig(architecture="vgg_tiny", input_size=64, batch_size=16,
                          seed=sub_seed(seed, 10))
        model = build_model("vgg_tiny", 64)
        init_weights(model, Rng(cfg.seed))
        checkpoint = root / "model.nnck"
        checkpoint.write_bytes(dump_weights(model.parameters()))
        config_path = root / "config.json"
        _write_config(config_path, cfg)
        small = [e.path for e in splits["test"].entries if "_256_" in Path(e.path).name]
        inputs = Inputs(root, config_path, cfg, splits, small * self.PREDICT_ROUNDS,
                        crop_boxes=boxes)
        inputs.supplied_checkpoint = checkpoint
        return inputs

    def prepare(self, inputs: Inputs, index: int) -> Path:
        run_dir = _prepare_run_dir(inputs, index)
        (run_dir / "checkpoints").mkdir()
        shutil.copyfile(inputs.supplied_checkpoint, run_dir / "checkpoints" / train.BEST_CHECKPOINT)
        return run_dir

    def check(self, inputs: Inputs, cycles: list[Cycle]) -> list[str]:
        failures = super().check(inputs, cycles)
        for path, box in inputs.crop_boxes.items():
            got = compute_crop_box(read_pgm(Path(path).read_bytes()))
            got = (got.top, got.bottom, got.left, got.right)
            if got != box:
                failures.append(f"crop box {got} of {path} != generated box {box}")
        return failures


def scan_slice(g: np.random.Generator, size: int, with_blob: bool):
    """A pre-opened ellipse over dark noise with isolated speckles.

    The ellipse covers about half the slice, so component labelling has
    a realistic amount of foreground; it is replaced by its own two-step
    opening (idempotent), so the pipeline's opening keeps it unchanged
    and its bounding box is the exact crop.  Speckles are one or two
    pixels at least 4 pixels clear of the shape and of each other, so
    the opening removes them.  Positives get a bright blob inside the
    ellipse, which leaves the mask unchanged.
    Returns (image, (top, bottom, left, right)).
    """
    noise_hi = 30  # background stays at or below the threshold of 45
    px = g.integers(0, noise_hi, size=(size, size)).astype(np.uint8)
    ry = g.uniform(0.36, 0.44) * size
    rx = 0.16 * size * size / ry  # ellipse area stays at 0.16 * pi * size^2
    cy = g.uniform(ry + 8, size - ry - 8)
    cx = g.uniform(rx + 8, size - rx - 8)
    ys, xs = np.ogrid[:size, :size]
    shape = synth._open2(((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0)
    px[shape] = g.integers(60, 140, size=int(shape.sum()))
    if with_blob:
        br = 0.06 * size
        angle = g.uniform(0.0, 2.0 * np.pi)
        dist = g.uniform(0.0, 0.5) * (min(ry, rx) - br)
        blob = (ys - (cy + dist * np.sin(angle))) ** 2 + (xs - (cx + dist * np.cos(angle))) ** 2 <= br**2
        blob &= shape
        px[blob] = g.integers(200, 251, size=int(blob.sum()))

    taken: list[tuple[int, int]] = []
    for _ in range(int(g.integers(3, 7))):
        for _attempt in range(200):
            y = int(g.integers(0, size))
            x = int(g.integers(0, size - 1))
            width = int(g.integers(1, 3))
            near_shape = shape[max(0, y - 4) : y + 5, max(0, x - 4) : x + width + 4].any()
            near_other = any(abs(y - ty) <= 4 and -5 <= x - tx <= 5 for ty, tx in taken)
            if not near_shape and not near_other:
                px[y, x : x + width] = int(g.integers(120, 200))
                taken.append((y, x))
                break
    rows = np.nonzero(shape.any(axis=1))[0]
    cols = np.nonzero(shape.any(axis=0))[0]
    box = (int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1]))
    return GrayImage8(px), box


WORKLOADS = {w.name: w for w in (TinyTrain(), Vgg16Transfer(), ScanEval())}
