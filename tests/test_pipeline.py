"""End-to-end training, evaluation, prediction, and the command line.

Everything here runs the tiny architecture on small synthetic datasets
so the whole module stays in the seconds range.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tumorkit
from tumorkit import checkpoint, errors, nn
from tumorkit.checkpoint import load_model, parse_weights
from tumorkit.cli import SPLIT_FILES, build_parser, main
from tumorkit.dataset import (
    DatasetManifest,
    SplitConfig,
    read_manifest,
    stratified_split,
    write_manifest,
)
from tumorkit.errors import BadConfig, NoForeground
from tumorkit.metrics import CLASSES, NO, YES, label_from_score
from tumorkit.model import Model, build_model
from tumorkit.pgm import GrayImage8, write_pgm
from tumorkit.report import read_history_csv
from tumorkit.train import (
    TrainConfig,
    load_one_image,
    predict_single,
    run_evaluation,
    run_training,
)

from synth import write_blob_dataset

TINY = dict(architecture="vgg_tiny", input_size=32, epochs=2, batch_size=4, seed=3)


def tiny_cfg(**overrides):
    merged = {**TINY, **overrides}
    return TrainConfig(**merged)


def black_pgm(path, size=24):
    path.write_bytes(write_pgm(GrayImage8(np.zeros((size, size), dtype=np.uint8))))
    return path


@pytest.fixture(scope="module")
def blob_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    manifest = write_blob_dataset(root, n_yes=12, n_no=12, seed=7)
    return root, manifest


@pytest.fixture(scope="module")
def trained(blob_data, tmp_path_factory):
    _, manifest = blob_data
    train_m, val_m, test_m = stratified_split(manifest, SplitConfig(seed=1))
    out = tmp_path_factory.mktemp("trained")
    result = run_training(tiny_cfg(), train_m, val_m, out)
    return result, train_m, val_m, test_m, out


@pytest.fixture(scope="module")
def transfer(trained, tmp_path_factory):
    """A freeze_features run from the trained checkpoint whose best
    epoch (the first) is not its last, with the weight tables its
    checkpoint writers were given: {"best": table, "final": model}."""
    result, train_m, val_m, test_m, _ = trained
    cfg = tiny_cfg(
        epochs=3, freeze_policy="freeze_features", init_checkpoint=str(result.final_path)
    )
    saved = {}

    def save_weights(table, path):
        saved["best"] = table
        checkpoint.save_weights(table, path)

    def save_checkpoint(model, path):
        saved["final"] = model
        checkpoint.save_checkpoint(model, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("tumorkit.train.save_weights", save_weights)
        patch.setattr("tumorkit.train.save_checkpoint", save_checkpoint)
        val_m = DatasetManifest(val_m.entries + test_m.entries)
        out = run_training(cfg, train_m, val_m, tmp_path_factory.mktemp("transfer"))
    return out, saved


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def blas_kernel() -> str:
    """The name of the kernels numpy's OpenBLAS picked, or "" without OpenBLAS."""
    if nn._BLAS is None:
        return ""
    corename = nn._BLAS("get_corename")
    corename.restype = ctypes.c_char_p
    return corename().decode()


# best.nnck and final.nnck of the ``trained`` and ``transfer`` runs, by the
# kernels that wrote them: products round by the kernel's tiling
PINNED_CHECKPOINTS = {
    "SkylakeX": (
        "ad526a12f572af92935a294f5fe802842b38f4a9345dff0baa473bf30438f940",
        "0807b247cf56784523ab64ca69362b2686ba001ea968584e3d56080cf3dc760b",
        "5fe7bd415f91ffd84a56e341d0bf78bbee731d2ef2e521b09ad4a87772978e84",
        "177a54e923e6b7f31541d2fea95c6e99e4fb23bd6641bdedfd4d9029d6b9fd86",
    ),
    "Haswell": (
        "23d7ca77f32f0c7b22b6d303db0d0ba5297a4e2c25a8aab2c9b6b37d97864f71",
        "e56f1fe3eb6e11c4cb93e91190e7641ecc8fab7c0de5caf56da75da6407b6437",
        "51c729d1d65b6d440ad2cd3d61d985e2df5284c2a7ca08a296926cbcf1b57eed",
        "a54dbb39e69d16e4f809b145d550a8d8f1746bcedb152953811056fc952c1dc7",
    ),
}


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.architecture == "vgg16" and cfg.input_size == 224

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(learning_rate=0.0),
            dict(learning_rate=-1e-4),
            dict(epochs=0),
            dict(batch_size=0),
            dict(architecture="resnet"),
            dict(freeze_policy="half"),
            dict(input_size=128),  # vgg16 input is fixed
            dict(architecture="vgg_tiny", input_size=30),
            dict(learning_rate=math.nan),
            dict(learning_rate=math.inf),
            dict(architecture="vgg_tiny", input_size=1032),  # past MAX_TINY_INPUT_SIZE
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(BadConfig):
            TrainConfig(**overrides)

    @pytest.mark.parametrize("arch", ["vgg16", "vgg_tiny", "resnet"])
    @pytest.mark.parametrize("size", [-8, 0, 7, 8, 16, 64, 65, 224, 1024, 1032, 2048, 2**40, 64.0])
    def test_config_rejects_exactly_what_the_builder_rejects(self, arch, size):
        """One rule, in tumorkit.model: the config and the library builder
        reject the same (architecture, input size) pairs, in the same words."""
        try:
            build_model(arch, size)
            built = None
        except ValueError as exc:
            built = str(exc)
        try:
            TrainConfig(architecture=arch, input_size=size)
            configured = None
        except BadConfig as exc:
            configured = str(exc)
        assert configured == built

    def test_tiny_accepts_multiples_of_eight(self):
        cfg = TrainConfig(architecture="vgg_tiny", input_size=48)
        assert cfg.input_size == 48
        assert TrainConfig(architecture="vgg_tiny", input_size=1024).input_size == 1024

    @pytest.mark.parametrize(
        "fields, problem",
        [
            (dict(batch_size=2.5), "batch_size must be an integer, got 2.5"),
            (dict(epochs=True), "epochs must be an integer, got true"),
            (dict(seed=False), "seed must be an integer, got false"),
            (dict(learning_rate=False), "learning_rate must be a number, got false"),
            (dict(architecture=16), "architecture must be a string, got 16"),
            (dict(init_checkpoint=5), "init_checkpoint must be a string or null, got 5"),
        ],
        ids=["float-batch-size", "bool-epochs", "bool-seed", "bool-learning-rate",
             "int-architecture", "int-init-checkpoint"],
    )
    def test_rejects_field_of_wrong_type(self, fields, problem):
        with pytest.raises(BadConfig, match=re.escape(problem)) as info:
            TrainConfig(**fields)
        assert info.value.field == problem.split()[0]

    def test_accepts_any_integer_type(self):
        cfg = TrainConfig(seed=np.int64(3), batch_size=np.int32(4), learning_rate=1)
        assert (cfg.seed, cfg.batch_size, cfg.learning_rate) == (3, 4, 1)


class TestRunTraining:
    def test_history_covers_every_epoch(self, trained):
        result, *_ = trained
        assert [s.epoch for s in result.history] == [1, 2]
        for s in result.history:
            assert math.isfinite(s.train_loss) and 0.0 <= s.train_acc <= 1.0
            assert s.val_loss is not None and s.val_acc is not None
            assert s.seconds >= 0.0

    def test_checkpoints_written_and_parseable(self, trained):
        result, *_ , out = trained
        assert result.best_path == out / "checkpoints" / "best.nnck"
        assert result.final_path == out / "checkpoints" / "final.nnck"
        for path in (result.best_path, result.final_path):
            table = parse_weights(path.read_bytes())
            assert "conv1.weight" in table

    def test_best_accuracy_is_the_running_max(self, trained):
        result, *_ = trained
        assert result.best_val_accuracy == max(s.val_acc for s in result.history)

    def test_same_seed_reproduces_checkpoints_bitwise(self, blob_data, tmp_path):
        _, manifest = blob_data
        train_m, val_m, _ = stratified_split(manifest, SplitConfig(seed=1))
        outs = tmp_path / "a", tmp_path / "b"
        results = [run_training(tiny_cfg(), train_m, val_m, o) for o in outs]
        assert results[0].final_path.read_bytes() == results[1].final_path.read_bytes()
        assert results[0].best_path.read_bytes() == results[1].best_path.read_bytes()
        assert [s.train_loss for s in results[0].history] == [
            s.train_loss for s in results[1].history
        ]

    def test_different_seed_changes_weights(self, blob_data, trained, tmp_path):
        _, manifest = blob_data
        result, train_m, val_m, *_ = trained
        other = run_training(tiny_cfg(seed=99), train_m, val_m, tmp_path)
        assert other.final_path.read_bytes() != result.final_path.read_bytes()

    def test_without_val_set_best_equals_final(self, blob_data, tmp_path):
        _, manifest = blob_data
        train_m, _, _ = stratified_split(manifest, SplitConfig(seed=1))
        result = run_training(tiny_cfg(epochs=1), train_m, DatasetManifest([]), tmp_path)
        assert result.best_val_accuracy is None
        assert all(s.val_loss is None and s.val_acc is None for s in result.history)
        assert result.best_path.read_bytes() == result.final_path.read_bytes()

    def test_validation_trunk_runs_once_per_run(self, trained, tmp_path, monkeypatch):
        _, train_m, val_m, test_m, _ = trained
        val_m = DatasetManifest(val_m.entries + test_m.entries)
        cfg = tiny_cfg(freeze_policy="freeze_features", batch_size=3, epochs=3)
        assert len(val_m) % 3 and len(val_m) > 3  # the last validation batch is short
        calls = []
        original = Model.trunk

        def counting(self, batch, mode="eval", rng=None):
            calls.append((mode, len(batch)))
            return original(self, batch, mode, rng)

        monkeypatch.setattr(Model, "trunk", counting)
        run_training(cfg, train_m, val_m, tmp_path)
        sizes = [n for mode, n in calls if mode == "eval"]
        assert sizes == [3] * (len(val_m) // 3) + [len(val_m) % 3]
        train_batches = -(-len(train_m) // cfg.batch_size)
        assert sum(mode == "train" for mode, _ in calls) == cfg.epochs * train_batches

    def test_best_snapshot_copies_only_updated_tensors(self, transfer):
        result, saved = transfer
        assert [s.val_acc for s in result.history] == [1.0, 0.75, 0.75]
        best, params = saved["best"], saved["final"].parameters()
        assert list(best) == list(params)
        for name, tensor in best.items():
            # frozen conv tensors cannot change, so they are the model's own
            assert np.shares_memory(tensor, params[name]) == name.startswith("conv"), name

    def test_checkpoint_bytes_are_pinned(self, trained, transfer):
        # the bytes written when every tensor was copied at the best epoch;
        # that is the first epoch of both runs, so best and final differ
        result, *_ = trained
        frozen, _ = transfer
        kernel = blas_kernel()
        assert kernel in PINNED_CHECKPOINTS, f"no digests recorded for the {kernel!r} kernels"
        best, final, frozen_best, frozen_final = PINNED_CHECKPOINTS[kernel]
        assert sha256(result.best_path) == best
        assert sha256(result.final_path) == final
        assert sha256(frozen.best_path) == frozen_best
        assert sha256(frozen.final_path) == frozen_final

    def test_init_checkpoint_resumes_from_saved_weights(self, blob_data, trained, tmp_path):
        _, manifest = blob_data
        result, train_m, val_m, *_ = trained
        resumed = run_training(
            tiny_cfg(epochs=1, init_checkpoint=str(result.final_path)),
            train_m,
            val_m,
            tmp_path,
        )
        # one optimizer epoch must move the weights off the init point
        assert resumed.final_path.read_bytes() != result.final_path.read_bytes()


class TestRunEvaluation:
    def test_outputs_follow_manifest_order(self, trained):
        result, _, _, test_m, _ = trained
        report, samples, predictions = run_evaluation(result.best_path, test_m, tiny_cfg())
        assert len(samples) == len(predictions) == len(test_m)
        for entry, sample in zip(test_m.entries, samples):
            assert sample.true_label == entry.label
            assert 0.0 <= sample.score <= 1.0
        assert predictions == [label_from_score(s.score) for s in samples]
        cm = report.confusion
        assert cm.tp + cm.fn + cm.fp + cm.tn == len(test_m)

    def test_is_deterministic(self, trained):
        result, _, _, test_m, _ = trained
        first = run_evaluation(result.best_path, test_m, tiny_cfg())[1]
        second = run_evaluation(result.best_path, test_m, tiny_cfg())[1]
        assert [s.score for s in first] == [s.score for s in second]


class TestPredictSingle:
    def test_label_and_probability(self, trained, blob_data):
        result, _, _, test_m, _ = trained
        image = test_m.entries[0].path
        label, p_yes = predict_single(result.best_path, image, tiny_cfg())
        assert label in CLASSES
        assert 0.0 <= p_yes <= 1.0
        if p_yes != 0.5:
            assert label == (YES if p_yes > 0.5 else NO)
        assert predict_single(result.best_path, image, tiny_cfg()) == (label, p_yes)

    def test_label_follows_the_eval_rule(self, blob_data, monkeypatch):
        """A row whose argmax is YES but whose YES score is not above 0.5
        is labelled as eval labels it: NO."""
        class Stub:
            def forward(self, x):
                return np.array([[0.4999999, 0.5]])

        monkeypatch.setattr("tumorkit.train.load_model", lambda *args: Stub())
        _, manifest = blob_data
        label, p_yes = predict_single("unused.nnck", manifest.entries[0].path, tiny_cfg())
        assert (label, p_yes) == (label_from_score(0.5), 0.5) == (NO, 0.5)

    def test_equals_the_eval_score_at_batch_size_one(self, trained):
        """predict is eval of one image: each scores.csv score equals
        predict's probability for that image, bit for bit.

        Only batch_size 1 is asserted.  Larger batches run the first
        dense product on several rows at once, which BLAS computes
        along another path than for one row, so a row of a larger eval
        batch may differ from predict in the last bits.
        """
        result, train_m, val_m, test_m, _ = trained
        cfg = tiny_cfg(batch_size=1)
        manifest = DatasetManifest(train_m.entries + val_m.entries + test_m.entries)
        _, samples, _ = run_evaluation(result.best_path, manifest, cfg)
        for entry, sample in zip(manifest.entries, samples):
            assert predict_single(result.best_path, entry.path, cfg)[1] == sample.score

    def test_blank_image_reports_the_path(self, trained, tmp_path):
        result, *_ = trained
        path = black_pgm(tmp_path / "blank.pgm")
        with pytest.raises(NoForeground, match=re.escape(str(path))):
            predict_single(result.best_path, path, tiny_cfg())


class TestLoadOneImage:
    def test_resizes_to_model_input(self, blob_data):
        _, manifest = blob_data
        img = load_one_image(manifest.entries[0].path, tiny_cfg())
        assert (img.width, img.height) == (32, 32)

    def test_blank_image_error_names_the_file(self, tmp_path):
        path = black_pgm(tmp_path / "void.pgm")
        with pytest.raises(NoForeground, match=re.escape(str(path))):
            load_one_image(path, tiny_cfg())


def write_config(path, split=None, train=None, extra=None):
    doc = {}
    if split is not None:
        doc["split"] = split
    if train is not None:
        doc["train"] = train
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def cli_run(blob_data, tmp_path_factory):
    """One full command-line pass: split, train, eval."""
    root, _ = blob_data
    base = tmp_path_factory.mktemp("cli")
    out = base / "run"
    config = write_config(base / "config.json", train=TINY)
    for argv in (
        ["split", "--config", config, "--data-dir", str(root), "--out", str(out)],
        ["train", "--config", config, "--out", str(out)],
        ["eval", "--config", config, "--out", str(out)],
    ):
        assert main(argv) == 0
    return config, out


# each hostile input: a file of a copy of the cli_run directory, and the
# command that reads it there
HOSTILE_INPUTS = {
    "manifest": ("run/splits/test.csv", ["eval"]),
    "scores": ("run/scores.csv", ["report"]),
    "history": ("run/history.csv", ["report"]),
    "config": ("config.json", ["train"]),
    "pgm": ("image.pgm", ["predict", "image.pgm"]),
    "checkpoint": ("run/checkpoints/best.nnck", ["predict", "image.pgm"]),
}


def mutated(data: bytes, kind: str, at: int, chunk: bytes) -> bytes:
    """``data`` with ``chunk`` xor-ed onto it, inserted, or the rest cut,
    at offset ``at`` modulo ``len(data) + 1`` (so -1 is the end)."""
    at %= len(data) + 1
    if kind == "flip":
        head, tail = data[:at], data[at : at + len(chunk)]
        flipped = bytes(a ^ (b or 1) for a, b in zip(tail, chunk))
        return head + flipped + data[at + len(flipped) :]
    if kind == "insert":
        return data[:at] + chunk + data[at:]
    return data[:at]


def one_error_line_or_success(argv: list[str]) -> None:
    """Run the CLI on ``argv``: it must exit 0, or exit 1 after one
    ``error:`` line naming a package error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        match = re.fullmatch(r"error: (\w+): [^\n]*\n", err.getvalue())
        assert match, err.getvalue()
        assert issubclass(getattr(errors, match[1]), errors.TumorkitError)


class TestHostileInput:
    """A byte-flipped, cut or padded input file makes its command succeed
    or fail with one error line naming a package error; nothing escapes."""

    @pytest.fixture(scope="class")
    def hostile_base(self, cli_run, blob_data, tmp_path_factory):
        """cli_run's config and run directory, plus an image to predict,
        and a config that also names an init checkpoint."""
        config, out = cli_run
        _, manifest = blob_data
        base = tmp_path_factory.mktemp("hostile")
        shutil.copytree(out, base / "run")
        shutil.copy(manifest.entries[0].path, base / "image.pgm")
        init = str(out / "checkpoints" / "best.nnck")
        write_config(base / "config.json", train=dict(TINY, epochs=1, init_checkpoint=init))
        return base

    @settings(max_examples=60, deadline=None)
    @given(
        target=st.sampled_from(sorted(HOSTILE_INPUTS)),
        kind=st.sampled_from(["flip", "insert", "cut"]),
        at=st.integers(),
        chunk=st.binary(min_size=1, max_size=4),
    )
    # a NUL byte after the last manifest path (",yes\r\n" ends the file), and
    # a JSON-escaped one in the init checkpoint path ('"}}' ends the config)
    @example(target="manifest", kind="insert", at=-7, chunk=b"\x00")
    @example(target="config", kind="insert", at=-4, chunk=b"\\u0000x")
    # scores.csv cut to its 29-byte header, an empty history.csv, and a
    # manifest header with a flipped byte
    @example(target="scores", kind="cut", at=29, chunk=b"\x00")
    @example(target="history", kind="cut", at=0, chunk=b"\x00")
    @example(target="manifest", kind="flip", at=2, chunk=b"\x01")
    # best.nnck cut to nothing, cut inside conv1.weight's payload (bytes
    # 43-330), and with a flipped byte there
    @example(target="checkpoint", kind="cut", at=0, chunk=b"\x00")
    @example(target="checkpoint", kind="cut", at=200, chunk=b"\x00")
    @example(target="checkpoint", kind="flip", at=200, chunk=b"\x01")
    # the image's header "P5\n64 64\n255\n" made to claim 60000x60000
    # pixels, maxval 0 ("255" xor-ed to "000") and maxval 65535
    @example(target="pgm", kind="insert", at=3, chunk=b"60000 60000\n255\n")
    @example(target="pgm", kind="flip", at=9, chunk=b"\x02\x05\x05")
    @example(target="pgm", kind="insert", at=9, chunk=b"65535\n")
    def test_one_error_line_or_success(self, hostile_base, target, kind, at, chunk):
        name, command = HOSTILE_INPUTS[target]
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp) / "base"
            shutil.copytree(hostile_base, base)
            path = base / name
            path.write_bytes(mutated(path.read_bytes(), kind, at, chunk))
            one_error_line_or_success(
                [command[0], "--config", str(base / "config.json"),
                 "--out", str(base / "run"), *(str(base / a) for a in command[1:])]
            )

    @pytest.mark.parametrize("case", [
        "nan-score", "minus-inf-score", "above-one-score", "unknown-label",
        "blank-image", "one-pixel-image", "vgg16-config-on-a-tiny-checkpoint",
    ])
    def test_input_that_mutation_cannot_make(self, hostile_base, tmp_path, case):
        base = tmp_path / "base"
        shutil.copytree(hostile_base, base)
        config, scores, image = base / "config.json", base / "run" / "scores.csv", base / "image.pgm"
        command = ["predict", str(image)]
        if case.endswith(("-score", "-label")):
            header, first, *rest = scores.read_text().splitlines()
            path, label, score, prediction = first.split(",")
            label, score = {"nan-score": (label, "nan"), "minus-inf-score": (label, "-inf"),
                            "above-one-score": (label, "1.5"), "unknown-label": ("maybe", score)}[case]
            rows = [header, ",".join([path, label, score, prediction]), *rest]
            scores.write_text("".join(row + "\r\n" for row in rows))
            command = ["report"]
        elif case == "blank-image":
            black_pgm(image)
        elif case == "one-pixel-image":
            image.write_bytes(write_pgm(GrayImage8(np.full((1, 1), 255, dtype=np.uint8))))
        else:
            write_config(config, train=dict(TINY, architecture="vgg16", input_size=224))
        one_error_line_or_success(
            [command[0], "--config", str(config), "--out", str(base / "run"), *command[1:]]
        )

    @pytest.mark.parametrize("rows, problem", [
        (["1,nan,0.5,,"], None),
        (["1,inf,0.5,,"], "2: loss inf is negative or infinite"),
        (["1,1e309,0.5,,"], "2: loss inf is negative or infinite"),
        (["1,0.7,2.0,,"], "2: accuracy 2.0 is not in [0, 1]"),
        (["1,0.7,-3,,"], "2: accuracy -3.0 is not in [0, 1]"),
        (["-1,0.7,0.5,,"], "2: data row 1 must be epoch 1, got '-1'"),
        (["3,0.7,0.5,,", "1,0.7,0.5,,"], "2: data row 1 must be epoch 1, got '3'"),
        (["12345678901234567890123,0.7,0.5,,"],
         "2: data row 1 must be epoch 1, got '12345678901234567890123'"),
    ], ids=["nan-loss", "inf-loss", "overflowing-loss", "accuracy-above-one",
            "negative-accuracy", "negative-epoch", "epochs-out-of-order", "23-digit-epoch"])
    def test_foreign_history(self, hostile_base, tmp_path, capsys, rows, problem):
        """A history.csv row its writer never writes, under the right header,
        is one BadConfig line; a nan loss, which train writes, is kept."""
        base = tmp_path / "base"
        shutil.copytree(hostile_base, base)
        history = base / "run" / "history.csv"
        header = "epoch,train_loss,train_acc,val_loss,val_acc"
        history.write_text("".join(r + "\r\n" for r in [header, *rows]))
        code = main(["report", "--out", str(base / "run")])
        err = capsys.readouterr().err
        if problem is None:
            assert (code, err) == (0, "")
            assert (base / "run" / "report" / "history.csv").read_text().splitlines()[1] == (
                "1,nan,0.5,,"
            )
        else:
            assert (code, err) == (1, f"error: BadConfig: {history}:{problem}\n")


class TestCliChain:
    def test_split_writes_three_manifests(self, cli_run):
        _, out = cli_run
        sizes = [len(read_manifest(out / "splits" / name)) for name in SPLIT_FILES]
        assert sizes == [20, 2, 2]

    def test_train_writes_history_and_checkpoints(self, cli_run):
        _, out = cli_run
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 1 + TINY["epochs"]
        assert (out / "checkpoints" / "best.nnck").is_file()
        assert (out / "checkpoints" / "final.nnck").is_file()

    def test_eval_writes_scores_and_report(self, cli_run):
        _, out = cli_run
        scores = (out / "scores.csv").read_text().splitlines()
        assert len(scores) == 1 + 2  # header plus the two test images
        names = sorted(p.name for p in (out / "report").iterdir())
        assert names == ["confusion.csv", "history.csv", "metrics.csv", "pr.csv", "roc.csv", "roc.svg"]

    def test_report_command_regenerates_identical_files(self, cli_run):
        config, out = cli_run
        report_dir = out / "report"
        before = {p.name: p.read_bytes() for p in report_dir.iterdir()}
        assert main(["report", "--config", config, "--out", str(out)]) == 0
        after = {p.name: p.read_bytes() for p in report_dir.iterdir()}
        assert after == before

    def test_predict_prints_label_and_probability(self, cli_run, capsys):
        config, out = cli_run
        test_m = read_manifest(out / "splits" / "test.csv")
        image = test_m.entries[0].path
        assert main(["predict", "--config", config, "--out", str(out), image]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        label, score = line.split()
        assert label in CLASSES
        assert 0.0 <= float(score) <= 1.0

    def test_predict_agrees_with_eval_scores(self, cli_run, capsys):
        config, out = cli_run
        rows = (out / "scores.csv").read_text().splitlines()[1:]
        path, _, score, _ = rows[0].split(",")
        assert main(["predict", "--config", config, "--out", str(out), path]) == 0
        printed = float(capsys.readouterr().out.split()[-1])
        assert abs(printed - float(score)) < 1e-4

    def test_split_summary_line(self, blob_data, tmp_path, capsys):
        root, _ = blob_data
        assert main(["split", "--data-dir", str(root), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "split 24 images into train/val/test = 20/2/2" in out


class TestCliVariants:
    def test_train_splits_when_given_a_data_dir(self, blob_data, tmp_path):
        root, _ = blob_data
        out = tmp_path / "run"
        config = write_config(tmp_path / "c.json", train={**TINY, "epochs": 1})
        argv = ["train", "--config", config, "--data-dir", str(root), "--out", str(out)]
        assert main(argv) == 0
        assert all((out / "splits" / name).is_file() for name in SPLIT_FILES)
        assert (out / "checkpoints" / "final.nnck").is_file()

    def test_seed_flag_overrides_config_seed(self, blob_data, tmp_path):
        root, _ = blob_data
        config = write_config(tmp_path / "c.json", split={"seed": 3})
        flagged, configured, plain = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["split", "--config", config, "--seed", "11",
                     "--data-dir", str(root), "--out", str(flagged)]) == 0
        config11 = write_config(tmp_path / "c11.json", split={"seed": 11})
        assert main(["split", "--config", config11,
                     "--data-dir", str(root), "--out", str(configured)]) == 0
        assert main(["split", "--config", config,
                     "--data-dir", str(root), "--out", str(plain)]) == 0
        read = lambda base: (base / "splits" / "val.csv").read_bytes()
        assert read(flagged) == read(configured)
        assert read(flagged) != read(plain)

    def test_preprocess_writes_cropped_copies(self, blob_data, tmp_path, capsys):
        root, _ = blob_data
        argv = ["preprocess", "--config", write_config(tmp_path / "c.json", train=TINY),
                "--data-dir", str(root), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        written = sorted((tmp_path / "out" / "preprocessed").rglob("*.pgm"))
        assert len(written) == 24
        assert written[0].read_bytes().startswith(b"P5")


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_commands_back_to_back_behave_as_alone(self, trained, blob_data, tmp_path, capsys):
        result, *_, test_m, _ = trained
        root, _ = blob_data
        config = write_config(tmp_path / "c.json", train=TINY)
        untrained = tmp_path / "untrained"  # splits and no checkpoint
        assert main(["split", "--data-dir", str(root), "--out", str(untrained)]) == 0
        capsys.readouterr()
        commands = [
            ["predict", "--config", config, "--checkpoint", str(result.best_path),
             test_m.entries[0].path],
            ["eval", "--config", config, "--out", str(untrained)],
            ["split", "--seed", "11", "--data-dir", str(root), "--out", str(tmp_path / "a")],
            ["split", "--data-dir", str(root), "--out", str(tmp_path / "b")],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            val = Path(argv[-1]) / "splits" / "val.csv"
            return code, captured.out, captured.err, val.read_bytes() if val.is_file() else None

        together = [run(argv) for argv in commands]
        alone = []
        for argv in commands:
            build_parser.cache_clear()
            alone.append(run(argv))
        assert together == alone
        # eval looked for its run's checkpoint, not predict's --checkpoint,
        # and the unseeded split saw no --seed
        missing = untrained / "checkpoints" / "best.nnck"
        assert together[1][:3] == (
            1, "", f"error: Unreadable: cannot read checkpoint {missing}: No such file or directory\n"
        )
        assert together[2][3] != together[3][3]


# every row fault in every table the CLI reads, then epoch spellings that
# int() takes but history.csv's writer never writes ("1_0" is ten)
EPOCH_SPELLINGS = {"zero-padded": "01", "plus-sign": "+1", "leading-space": " 2",
                   "underscore": "1_0"}
TABLE_FAULTS = [
    (which, fault) for which in ("manifest", "scores", "history")
    for fault in ("wrong-header", "short-row", "long-row", "bad-field", "repeated-key")
] + [("history", f"epoch-{name}") for name in EPOCH_SPELLINGS]


def stderr_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


class TestCliErrors:
    def test_eval_without_checkpoint(self, tmp_path, capsys):
        assert main(["eval", "--out", str(tmp_path)]) == 1
        assert "error: BadConfig:" in stderr_error(capsys)

    def test_train_without_splits_or_data_dir(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path)]) == 1
        assert "error: BadConfig:" in stderr_error(capsys)

    def test_report_without_scores(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert "run eval first" in stderr_error(capsys)

    def test_split_requires_data_dir(self, tmp_path, capsys):
        assert main(["split", "--out", str(tmp_path)]) == 1
        assert "--data-dir" in stderr_error(capsys)

    def test_split_requires_out(self, blob_data, capsys):
        root, _ = blob_data
        assert main(["split", "--data-dir", str(root)]) == 1
        assert "--out" in stderr_error(capsys)

    def test_predict_needs_a_checkpoint_source(self, blob_data, capsys):
        _, manifest = blob_data
        assert main(["predict", manifest.entries[0].path]) == 1
        assert "--checkpoint" in stderr_error(capsys)

    def test_unknown_config_key(self, blob_data, tmp_path, capsys):
        root, _ = blob_data
        config = write_config(tmp_path / "c.json", train={"epoch": 5})
        assert main(["split", "--config", config, "--data-dir", str(root),
                     "--out", str(tmp_path / "o")]) == 1
        assert "unknown keys: epoch" in stderr_error(capsys)

    def test_unknown_config_section(self, blob_data, tmp_path, capsys):
        root, _ = blob_data
        config = write_config(tmp_path / "c.json", extra={"model": {}})
        assert main(["split", "--config", config, "--data-dir", str(root),
                     "--out", str(tmp_path / "o")]) == 1
        assert "unknown sections: model" in stderr_error(capsys)

    def test_unknown_augment_key(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", train={"augment": {"blur": 1}})
        assert main(["split", "--config", config, "--data-dir", "x",
                     "--out", str(tmp_path / "o")]) == 1
        assert "train has unknown keys: augment" in stderr_error(capsys)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("split", "train_ratio", 0.8),
            ("split", "stratified", True),
            ("train", "threshold", 45),
            ("train", "morph_iterations", 2),
            ("train", "augment", {}),
        ],
        ids=["split.train_ratio", "split.stratified", "train.threshold",
             "train.morph_iterations", "train.augment"],
    )
    def test_removed_config_key(self, tmp_path, capsys, section, key, value):
        # the crop chain, the augmentation recipe and the split's train share
        # are fixed, so even the value these keys used to default to is refused
        config = write_config(tmp_path / "c.json", extra={section: {key: value}})
        assert main(["split", "--config", config, "--data-dir", "x",
                     "--out", str(tmp_path / "o")]) == 1
        err = stderr_error(capsys)
        assert err == f"error: BadConfig: {section} has unknown keys: {key}\n"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["split", "--config", str(tmp_path / "nope.json"),
                     "--data-dir", "x", "--out", str(tmp_path / "o")]) == 1
        assert "cannot read config" in stderr_error(capsys)

    def test_malformed_config_json(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text("{not json")
        assert main(["split", "--config", str(bad), "--data-dir", "x",
                     "--out", str(tmp_path / "o")]) == 1
        assert "cannot read config" in stderr_error(capsys)

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_bytes(b'{"train": {"seed": "\xff"}}')
        assert main(["split", "--config", str(bad), "--data-dir", "x",
                     "--out", str(tmp_path / "o")]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith(f"error: BadConfig: cannot read config {bad}: 'utf-8' codec")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"train": {"epochs": ' + "9" * 5000 + "}}", "Exceeds the limit"),
            ("[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["number-too-long-for-int", "nested-too-deep"],
    )
    def test_config_that_json_cannot_parse(self, tmp_path, capsys, text, problem):
        bad = tmp_path / "c.json"
        bad.write_text(text)
        assert main(["split", "--config", str(bad), "--data-dir", "x",
                     "--out", str(tmp_path / "o")]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith(f"error: BadConfig: cannot read config {bad}: ")
        assert problem in err

    def test_config_root_must_be_object(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text("[1, 2]")
        assert main(["split", "--config", str(bad), "--data-dir", "x",
                     "--out", str(tmp_path / "o")]) == 1
        assert "JSON object" in stderr_error(capsys)

    def test_predict_blank_image(self, trained, tmp_path, capsys):
        result, *_ = trained
        path = black_pgm(tmp_path / "blank.pgm")
        config = write_config(tmp_path / "c.json", train=TINY)
        argv = ["predict", "--config", config,
                "--checkpoint", str(result.best_path), str(path)]
        assert main(argv) == 1
        assert "error: NoForeground:" in stderr_error(capsys)

    def test_predict_with_a_too_long_header_number(self, trained, tmp_path, capsys):
        result, *_ = trained
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5 " + b"0" * 5000 + b" 1 255\n\x00")
        config = write_config(tmp_path / "c.json", train=TINY)
        argv = ["predict", "--config", config,
                "--checkpoint", str(result.best_path), str(path)]
        assert main(argv) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith("error: HeaderParse: ")

    def test_predict_with_a_huge_tiny_input_size(self, trained, tmp_path, capsys):
        result, *_ = trained
        path = black_pgm(tmp_path / "blank.pgm")
        config = write_config(tmp_path / "c.json", train=dict(TINY, input_size=2**40))
        argv = ["predict", "--config", config,
                "--checkpoint", str(result.best_path), str(path)]
        assert main(argv) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith("error: BadConfig: vgg_tiny input_size must be at most 1024 "
                              "and a positive multiple of 8, got 1099511627776")

    def test_out_of_range_augment_value(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", train={"augment": {"shift_fraction": 2}})
        assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err == "error: BadConfig: train has unknown keys: augment\n"

    @pytest.mark.parametrize(
        "train, problem",
        [
            ({"threshold": 300}, "train has unknown keys: threshold"),
            ({"morph_iterations": -1}, "train has unknown keys: morph_iterations"),
            ({"architecture": "vgg_tiny", "input_size": 0}, "positive multiple of 8, got 0"),
        ],
        ids=["threshold", "morph-iterations", "tiny-input-size"],
    )
    def test_out_of_range_train_value(self, blob_data, tmp_path, capsys, train, problem):
        root, _ = blob_data
        config = write_config(tmp_path / "c.json", train=train)
        assert main(["preprocess", "--config", config, "--data-dir", str(root),
                     "--out", str(tmp_path / "o")]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith("error: BadConfig: ")
        assert problem in err

    @pytest.mark.parametrize(
        "doc, problem",
        [
            ({"train": {"batch_size": 2.5}}, "train.batch_size must be an integer, got 2.5"),
            ({"train": {"epochs": 1.5}}, "train.epochs must be an integer, got 1.5"),
            ({"train": {"epochs": True}}, "train.epochs must be an integer, got true"),
            ({"train": {"seed": "x"}}, 'train.seed must be an integer, got "x"'),
            ({"split": {"seed": "x"}}, 'split.seed must be an integer, got "x"'),
            ({"train": {"init_checkpoint": 5}}, "train.init_checkpoint must be a string or null"),
            ({"split": 5}, "split must be a JSON object, got int"),
            ({"train": "ab"}, "train must be a JSON object, got str"),
            ({"split": [["seed", 3]]}, "split must be a JSON object, got list"),
            ({"train": []}, "train must be a JSON object, got list"),
            ({"train": {"input_size": 64.0}}, "train.input_size must be an integer, got 64.0"),
            ({"train": {"threshold": 45.5}}, "train has unknown keys: threshold"),
            ({"train": {"augment": {"allow_hflip": "no"}}}, "train has unknown keys: augment"),
        ],
        ids=["float-batch-size", "float-epochs", "bool-epochs", "str-train-seed",
             "str-split-seed", "int-init-checkpoint", "int-split", "str-train",
             "pairs-split", "empty-list-train", "float-input-size", "float-threshold",
             "str-hflip"],
    )
    def test_config_value_of_wrong_type(self, blob_data, tmp_path, capsys, doc, problem):
        root, _ = blob_data
        config = write_config(tmp_path / "c.json", extra=doc)
        assert main(["split", "--config", config, "--data-dir", str(root),
                     "--out", str(tmp_path / "o")]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith("error: BadConfig: ")
        assert problem in err

    def test_duplicate_manifest_path(self, blob_data, tmp_path, capsys):
        _, manifest = blob_data
        entry = manifest.entries[0]
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        for name in SPLIT_FILES:
            (split_dir / name).write_text(
                f"path,label\n{entry.path},{entry.label}\n{entry.path},{entry.label}\n"
            )
        assert main(["train", "--out", str(tmp_path)]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith(f"error: BadConfig: {split_dir / 'train.csv'}:3: duplicate path")

    @pytest.mark.parametrize(
        "which, fault", TABLE_FAULTS, ids=[f"{fault}-{which}" for which, fault in TABLE_FAULTS]
    )
    def test_malformed_table(self, tmp_path, capsys, which, fault):
        """One BadConfig line naming the file, and the row's line for a
        fault in a row, whichever table the command reads."""
        header, good, bad, unparsed = {
            "manifest": ("path,label", "a.pgm,yes", "b.pgm,maybe", "label must be one of"),
            "scores": ("path,label,score,prediction", "a.pgm,yes,0.75,yes", "b.pgm,no,abc,no",
                       "could not convert string to float: 'abc'"),
            "history": ("epoch,train_loss,train_acc,val_loss,val_acc", "1,0.7,0.5,,",
                        "2,x,0.5,,", "could not convert string to float: 'x'"),
        }[which]
        n = header.count(",") + 1
        key_name, key = header.split(",")[0], good.split(",")[0]
        rows, line, problem = {
            "wrong-header": ([header + "s", good], None,
                             f"not a {which} CSV; expected the header {header}"),
            "short-row": ([header, good.rsplit(",", 1)[0]], 2, f"expected {n} fields, got {n - 1}"),
            "long-row": ([header, good + ",x"], 2, f"expected {n} fields, got {n + 1}"),
            "bad-field": ([header, good, bad], 3, unparsed),
            "repeated-key": ([header, good, good], 3, f"duplicate {key_name} {key!r}"),
            **{f"epoch-{name}": ([header, good, f"{epoch},0.7,0.5,,"], 3,
                                 f"data row 2 must be epoch 2, got {epoch!r}")
               for name, epoch in EPOCH_SPELLINGS.items()},
        }[fault]
        text = "".join(row + "\r\n" for row in rows)
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        for name in SPLIT_FILES:
            (split_dir / name).write_text(text if which == "manifest" else "")
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "path,label,score,prediction\r\na.pgm,yes,0.75,yes\r\nb.pgm,no,0.25,no\r\n"
        )
        path = {"manifest": split_dir / "train.csv", "scores": scores,
                "history": tmp_path / "history.csv"}[which]
        path.write_text(text)
        assert main(["train" if which == "manifest" else "report", "--out", str(tmp_path)]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        where = f"{path}" if line is None else f"{path}:{line}"
        assert err.startswith(f"error: BadConfig: {where}: {problem}")
        assert not list(tmp_path.glob("report"))

    @pytest.mark.parametrize("target, command", [
        ("scores.csv", "eval"), ("history.csv", "train"),
        ("report/metrics.csv", "eval"), ("checkpoints/final.nnck", "train"),
    ])
    def test_output_that_is_a_directory(self, cli_run, tmp_path, capsys, target, command):
        config, out = cli_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        (run / target).unlink()
        (run / target).mkdir()
        assert main([command, "--config", config, "--out", str(run)]) == 1
        assert stderr_error(capsys) == (
            f"error: Unwritable: cannot write {run / target}: Is a directory\n"
        )
        assert list(run.rglob("*.tmp")) == []

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("a.pgm,maybe,0.5,yes", "label must be one of"),
            ("a.pgm,yes,abc,yes", "could not convert"),
            ("a.pgm,yes,0.5", "expected 4 fields, got 3"),
        ],
        ids=["bad-label", "bad-score", "short-row"],
    )
    def test_malformed_scores_row(self, tmp_path, capsys, row, problem):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"path,label,score,prediction\r\nb.pgm,no,0.25,no\r\n{row}\r\n")
        assert main(["report", "--out", str(tmp_path)]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith(f"error: BadConfig: {scores}:3: ")
        assert problem in err

    @pytest.mark.parametrize(
        "entry, problem",
        [
            ('"learning_rate": NaN', "learning_rate must be positive and finite"),
            ('"learning_rate": 1e400', "learning_rate must be positive and finite"),
            ('"augment": {"max_rotation_deg": NaN}', "train has unknown keys: augment"),
            ('"augment": {"shear_rad": Infinity}', "train has unknown keys: augment"),
        ],
        ids=["nan-learning-rate", "overflowing-learning-rate", "nan-rotation", "inf-shear"],
    )
    def test_non_finite_config_number(self, blob_data, tmp_path, capsys, entry, problem):
        root, _ = blob_data
        config = tmp_path / "c.json"
        # JSON text, since json.dumps never writes 1e400
        config.write_text(json.dumps({"train": TINY})[:-2] + ", " + entry + "}}")
        assert main(["train", "--config", str(config), "--data-dir", str(root),
                     "--out", str(tmp_path / "o")]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith("error: BadConfig: ")
        assert problem in err

    @pytest.mark.parametrize("command, which", [
        ("predict", "image"), ("predict", "checkpoint"), ("eval", "checkpoint"),
    ], ids=["image", "checkpoint", "eval-checkpoint"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_predict_path(self, trained, tmp_path, capsys, command, which, kind):
        result, train_m, val_m, test_m, _ = trained
        bad = tmp_path / "ghost.pgm" if kind == "missing" else tmp_path
        image = bad if which == "image" else test_m.entries[0].path
        checkpoint = bad if which == "checkpoint" else result.best_path
        config = write_config(tmp_path / "c.json", train=TINY)
        argv = [command, "--config", config, "--checkpoint", str(checkpoint)]
        if command == "eval":
            out = tmp_path / "run"
            (out / "splits").mkdir(parents=True)
            for name, split in zip(SPLIT_FILES, (train_m, val_m, test_m)):
                write_manifest(split, out / "splits" / name)
            argv += ["--out", str(out)]
        else:
            argv.append(str(image))
        assert main(argv) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith(f"error: Unreadable: cannot read {which} {bad}: ")

    def test_empty_train_manifest(self, blob_data, tmp_path, capsys):
        _, manifest = blob_data
        entry = manifest.entries[0]
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        (split_dir / "train.csv").write_text("path,label\n")
        for name in ("val.csv", "test.csv"):
            (split_dir / name).write_text(f"path,label\n{entry.path},{entry.label}\n")
        config = write_config(tmp_path / "c.json", train=TINY)
        assert main(["train", "--config", config, "--out", str(tmp_path)]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith("error: BadConfig: the train manifest lists no images")

    def test_empty_test_manifest(self, trained, tmp_path, capsys):
        result, train_m, val_m, *_ = trained
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        for name, split in (("train.csv", train_m), ("val.csv", val_m)):
            rows = "".join(f"{e.path},{e.label}\n" for e in split.entries)
            (split_dir / name).write_text("path,label\n" + rows)
        (split_dir / "test.csv").write_text("path,label\n")
        config = write_config(tmp_path / "c.json", train=TINY)
        argv = ["eval", "--config", config, "--out", str(tmp_path),
                "--checkpoint", str(result.best_path)]
        assert main(argv) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith("error: BadConfig: the evaluation manifest lists no images")

    @pytest.mark.parametrize("which", ["manifest", "scores", "history"])
    def test_file_that_is_not_utf8(self, tmp_path, capsys, which):
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        for name in SPLIT_FILES:
            (split_dir / name).write_bytes(b"path,label\nyes_\xff\xfe.pgm,yes\n")
        (tmp_path / "scores.csv").write_text("path,label,score,prediction\na.pgm,yes,0.5,yes\n")
        (tmp_path / "history.csv").write_bytes(b"epoch,\xff\n")
        if which == "scores":
            (tmp_path / "scores.csv").write_bytes(b"path,label,score,prediction\n\xff,yes,0.5,yes\n")
        bad = {"manifest": split_dir / "train.csv", "scores": tmp_path / "scores.csv",
               "history": tmp_path / "history.csv"}[which]
        command = "train" if which == "manifest" else "report"
        assert main([command, "--out", str(tmp_path)]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith(f"error: Unreadable: cannot read {which} {bad}: 'utf-8' codec")

    def test_nul_byte_in_a_manifest_path(self, trained, tmp_path, capsys):
        result, train_m, val_m, test_m, _ = trained
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        for name, split in zip(SPLIT_FILES, (train_m, val_m, test_m)):
            rows = "".join(f"{e.path},{e.label}\n" for e in split.entries)
            (split_dir / name).write_text("path,label\n" + rows)
        bad = test_m.entries[0].path + "\x00"
        (split_dir / "test.csv").write_text(f"path,label\n{bad},{test_m.entries[0].label}\n")
        config = write_config(tmp_path / "c.json", train=TINY)
        argv = ["eval", "--config", config, "--out", str(tmp_path),
                "--checkpoint", str(result.best_path)]
        assert main(argv) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err == f"error: Unreadable: cannot read image {bad}: embedded null byte\n"

    def test_nul_byte_in_the_init_checkpoint_path(self, blob_data, trained, tmp_path, capsys):
        root, _ = blob_data
        result, *_ = trained
        bad = f"{result.best_path}\x00x"
        config = write_config(tmp_path / "c.json", train=dict(TINY, init_checkpoint=bad))
        argv = ["train", "--config", config, "--data-dir", str(root), "--out", str(tmp_path)]
        assert main(argv) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err == f"error: Unreadable: cannot read checkpoint {bad}: embedded null byte\n"

    @pytest.mark.parametrize("command, made", [
        ("split", "splits"), ("preprocess", "preprocessed/no"), ("train", "splits"),
    ])
    def test_out_that_is_a_file(self, blob_data, tmp_path, capsys, monkeypatch, command, made):
        root, _ = blob_data

        def must_not_run(*args):
            raise AssertionError("training started")

        monkeypatch.setattr("tumorkit.cli.run_training", must_not_run)
        out = tmp_path / "afile"
        out.write_text("")
        assert main([command, "--data-dir", str(root), "--out", str(out)]) == 1
        err = stderr_error(capsys)
        assert err == (f"error: Unwritable: cannot make directory {out / made}: "
                       "Not a directory\n")
        assert out.read_text() == ""

    def test_a_line_break_in_a_message_stays_on_one_line(self, tmp_path, capsys):
        split_dir = tmp_path / "splits"
        split_dir.mkdir()
        for name in SPLIT_FILES:
            (split_dir / name).write_text('path,label\n"ghost\n.pgm",yes\n')
        config = write_config(tmp_path / "c.json", train=TINY)
        assert main(["train", "--config", config, "--out", str(tmp_path)]) == 1
        err = stderr_error(capsys)
        assert err == ("error: Unreadable: cannot read image ghost\\n.pgm: "
                       "No such file or directory\n")

    def test_missing_data_dir_is_reported(self, tmp_path, capsys):
        assert main(["split", "--data-dir", str(tmp_path / "ghost"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error: MissingDir:" in stderr_error(capsys)


class TestKilledTrain:
    def test_every_output_a_killed_train_leaves_is_whole(self, blob_data, tmp_path):
        """SIGKILL a `train` process at seeded delays, over one directory:
        each checkpoint, history and manifest left behind must read, and
        a rerun must then succeed.  A killed writer's temporary file is
        left behind (never under an output's name)."""
        root, _ = blob_data
        out = tmp_path / "run"
        config = write_config(tmp_path / "c.json", train=dict(TINY, epochs=4))
        argv = [sys.executable, "-m", "tumorkit", "train", "--config", config,
                "--data-dir", str(root), "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": str(Path(tumorkit.__file__).parents[1])}

        def check_outputs():
            for path in out.glob("checkpoints/*.nnck"):
                load_model("vgg_tiny", TINY["input_size"], path)
            if (out / "history.csv").exists():
                read_history_csv(out / "history.csv")
            for path in out.glob("splits/*.csv"):
                read_manifest(path)

        delays = random.Random(18)
        for _ in range(4):
            with subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL) as child:
                try:
                    child.wait(timeout=delays.uniform(0.15, 0.6))
                except subprocess.TimeoutExpired:
                    child.kill()
            check_outputs()
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        check_outputs()
        assert (out / "checkpoints" / "best.nnck").is_file()
