"""End-to-end training, evaluation, prediction, and the command line.

Everything here runs the tiny architecture on small synthetic datasets
so the whole module stays in the seconds range.
"""

import json
import math
import re

import numpy as np

import pytest

from tumorkit.checkpoint import parse_weights
from tumorkit.cli import SPLIT_FILES, main
from tumorkit.dataset import DatasetManifest, SplitConfig, read_manifest, stratified_split
from tumorkit.errors import BadConfig, NoForeground
from tumorkit.metrics import CLASSES, NO, YES, label_from_score
from tumorkit.model import Model
from tumorkit.pgm import GrayImage8, write_pgm
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
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(BadConfig):
            TrainConfig(**overrides)

    def test_tiny_accepts_multiples_of_eight(self):
        cfg = TrainConfig(architecture="vgg_tiny", input_size=48)
        assert cfg.input_size == 48


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

    def test_nested_augment_config_is_parsed(self, blob_data, tmp_path):
        root, _ = blob_data
        train = {**TINY, "epochs": 1, "augment": {"max_rotation_deg": 0.0, "allow_hflip": False}}
        config = write_config(tmp_path / "c.json", train=train)
        out = tmp_path / "run"
        argv = ["train", "--config", config, "--data-dir", str(root), "--out", str(out)]
        assert main(argv) == 0

    def test_preprocess_writes_cropped_copies(self, blob_data, tmp_path, capsys):
        root, _ = blob_data
        argv = ["preprocess", "--config", write_config(tmp_path / "c.json", train=TINY),
                "--data-dir", str(root), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        written = sorted((tmp_path / "out" / "preprocessed").rglob("*.pgm"))
        assert len(written) == 24
        assert written[0].read_bytes().startswith(b"P5")


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
        assert "train.augment has unknown keys: blur" in stderr_error(capsys)

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

    def test_out_of_range_augment_value(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", train={"augment": {"shift_fraction": 2}})
        assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 1
        err = stderr_error(capsys)
        assert err.count("\n") == 1
        assert err.startswith("error: BadConfig: shift_fraction must be in [0, 1)")

    @pytest.mark.parametrize(
        "train, problem",
        [
            ({"threshold": 300}, "threshold must be in [0, 255], got 300"),
            ({"morph_iterations": -1}, "morph_iterations must be >= 0, got -1"),
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
            ({"train": {"threshold": 45.5}}, "train.threshold must be an integer, got 45.5"),
            ({"train": {"augment": {"allow_hflip": "no"}}},
             'train.augment.allow_hflip must be true or false, got "no"'),
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
        assert err.startswith(f"error: BadConfig: {split_dir / 'train.csv'} line 3: duplicate path")

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
            ('"augment": {"max_rotation_deg": NaN}', "max_rotation_deg must be finite"),
            ('"augment": {"shear_rad": Infinity}', "shear_rad must be finite"),
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

    @pytest.mark.parametrize("which", ["image", "checkpoint"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_predict_path(self, trained, tmp_path, capsys, which, kind):
        result, *_, test_m, _ = trained
        bad = tmp_path / "ghost.pgm" if kind == "missing" else tmp_path
        image = bad if which == "image" else test_m.entries[0].path
        checkpoint = bad if which == "checkpoint" else result.best_path
        config = write_config(tmp_path / "c.json", train=TINY)
        argv = ["predict", "--config", config, "--checkpoint", str(checkpoint), str(image)]
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

    def test_missing_data_dir_is_reported(self, tmp_path, capsys):
        assert main(["split", "--data-dir", str(tmp_path / "ghost"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error: MissingDir:" in stderr_error(capsys)
