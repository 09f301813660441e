"""Command-line entry point.

Subcommands cover the whole pipeline:

    split       scan a yes/ no/ dataset and write train/val/test manifests
    preprocess  save the cropped and resized version of every image
    train       run the training loop, saving checkpoints and history
    eval        score a split with a checkpoint; write scores and reports
    predict     classify a single image file
    report      regenerate report files from saved scores and history

Every subcommand takes ``--config`` (a JSON file whose "split" and
"train" objects mirror the config dataclass fields),
``--seed`` (overrides both split and train seeds), ``--data-dir``, and
``--out``.  Failures exit nonzero after printing a single line:
``error: <ErrorClass>: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .dataset import (
    DatasetManifest,
    SplitConfig,
    atomic_write,
    make_dir,
    read_manifest,
    scan_dataset,
    stratified_split,
    write_manifest,
)
from .errors import BadConfig, TumorkitError, field_types
from .metrics import MetricsReport, evaluate_scores
from .pgm import write_pgm
from .report import (
    emit_report,
    read_history_csv,
    read_scores_csv,
    write_history_csv,
    write_scores_csv,
)
from .train import (
    BEST_CHECKPOINT,
    TrainConfig,
    load_one_image,
    predict_single,
    run_evaluation,
    run_training,
)

SPLIT_FILES = ("train.csv", "val.csv", "test.csv")


def _from_mapping(cls, data, context: str, overrides: dict):
    """Build a config dataclass from a JSON object, rejecting unknown keys.
    ``overrides`` are applied last.  A value of the wrong type is named by
    its full key."""
    if not isinstance(data, dict):
        raise BadConfig(f"{context} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(field_types(cls)))
    if unknown:
        raise BadConfig(f"{context} has unknown keys: {', '.join(unknown)}")
    try:
        return cls(**{**data, **overrides})
    except BadConfig as exc:
        if exc.field is None:
            raise
        raise BadConfig(f"{context}.{exc}", field=exc.field) from exc


def load_configs(
    config_path: str | None, seed: int | None
) -> tuple[SplitConfig, TrainConfig]:
    """Read the JSON config (if any) and apply the seed override."""
    doc: dict = {}
    if config_path is not None:
        # ValueError covers undecodable bytes, malformed JSON and numbers too
        # long for int(); RecursionError, arrays or objects nested too deep
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise BadConfig(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise BadConfig("config root must be a JSON object")
        unknown = sorted(set(doc) - {"split", "train"})
        if unknown:
            raise BadConfig(f"config has unknown sections: {', '.join(unknown)}")
    overrides = {} if seed is None else {"seed": seed}
    split_cfg = _from_mapping(SplitConfig, doc.get("split", {}), "split", overrides)
    train_cfg = _from_mapping(TrainConfig, doc.get("train", {}), "train", overrides)
    return split_cfg, train_cfg


def _require(value, flag: str):
    if value is None:
        raise BadConfig(f"{flag} is required for this command")
    return value


def _split_dir(out: Path) -> Path:
    return out / "splits"


def _do_split(data_dir: str, split_cfg: SplitConfig, out: Path) -> tuple[DatasetManifest, ...]:
    manifest = scan_dataset(data_dir)
    parts = stratified_split(manifest, split_cfg)
    split_dir = _split_dir(out)
    make_dir(split_dir)
    for part, name in zip(parts, SPLIT_FILES):
        write_manifest(part, split_dir / name)
    return parts


def _read_splits(out: Path) -> tuple[DatasetManifest, ...]:
    split_dir = _split_dir(out)
    missing = [name for name in SPLIT_FILES if not (split_dir / name).is_file()]
    if missing:
        raise BadConfig(
            f"missing {', '.join(missing)} under {split_dir}; run the split command first"
        )
    return tuple(read_manifest(split_dir / name) for name in SPLIT_FILES)


def _cmd_split(args, split_cfg: SplitConfig, train_cfg: TrainConfig) -> None:
    out = Path(_require(args.out, "--out"))
    parts = _do_split(_require(args.data_dir, "--data-dir"), split_cfg, out)
    sizes = "/".join(str(len(p)) for p in parts)
    print(f"split {sum(len(p) for p in parts)} images into train/val/test = {sizes}")


def _cmd_preprocess(args, split_cfg: SplitConfig, train_cfg: TrainConfig) -> None:
    out = Path(_require(args.out, "--out"))
    manifest = scan_dataset(_require(args.data_dir, "--data-dir"))
    for entry in manifest.entries:
        processed = load_one_image(entry.path, train_cfg)
        dest = out / "preprocessed" / entry.label / Path(entry.path).name
        make_dir(dest.parent)
        with atomic_write(dest) as handle:
            handle.write(write_pgm(processed))
    print(f"preprocessed {len(manifest)} images into {out / 'preprocessed'}")


def _cmd_train(args, split_cfg: SplitConfig, train_cfg: TrainConfig) -> None:
    out = Path(_require(args.out, "--out"))
    split_dir = _split_dir(out)
    if all((split_dir / name).is_file() for name in SPLIT_FILES):
        train_m, val_m, _ = _read_splits(out)
    else:
        if args.data_dir is None:
            raise BadConfig("no splits found; pass --data-dir so train can split first")
        train_m, val_m, _ = _do_split(args.data_dir, split_cfg, out)
    result = run_training(train_cfg, train_m, val_m, out)
    write_history_csv(result.history, out / "history.csv")
    last = result.history[-1]
    best = "" if result.best_val_accuracy is None else f", best val acc {result.best_val_accuracy:.4f}"
    print(
        f"trained {train_cfg.epochs} epochs; final train loss {last.train_loss:.4f}{best}; "
        f"checkpoints in {result.final_path.parent}"
    )


def _report(report: MetricsReport, out: Path, summary: str) -> None:
    """Write ``out/report`` from ``report`` and the run's history, if it
    has one, and print ``summary`` followed by the report directory."""
    history_path = out / "history.csv"
    history = read_history_csv(history_path) if history_path.is_file() else []
    emit_report(report, history, out / "report")
    print(f"{summary} {out / 'report'}")


def _cmd_eval(args, split_cfg: SplitConfig, train_cfg: TrainConfig) -> None:
    out = Path(_require(args.out, "--out"))
    checkpoint = args.checkpoint or out / "checkpoints" / BEST_CHECKPOINT
    _, _, test_m = _read_splits(out)
    report, samples, predictions = run_evaluation(checkpoint, test_m, train_cfg)
    write_scores_csv(test_m, samples, predictions, out / "scores.csv")
    accuracy = "undefined" if report.accuracy is None else f"{report.accuracy:.4f}"
    _report(report, out, f"evaluated {len(test_m)} images: accuracy {accuracy}; report in")


def _cmd_predict(args, split_cfg: SplitConfig, train_cfg: TrainConfig) -> None:
    checkpoint = args.checkpoint
    if checkpoint is None and args.out is not None:
        checkpoint = Path(args.out) / "checkpoints" / BEST_CHECKPOINT
    label, p_yes = predict_single(_require(checkpoint, "--checkpoint"), args.image, train_cfg)
    print(f"{label} {p_yes!r}")


def _cmd_report(args, split_cfg: SplitConfig, train_cfg: TrainConfig) -> None:
    out = Path(_require(args.out, "--out"))
    scores_path = out / "scores.csv"
    if not scores_path.is_file():
        raise BadConfig(f"{scores_path} not found; run eval first")
    _, samples, predictions = read_scores_csv(scores_path)
    _report(evaluate_scores(samples, predictions), out, "report regenerated in")


# name -> (handler, help line), in --help order
_COMMANDS = {
    "split": (_cmd_split, "write train/val/test manifests for a yes/ no/ dataset"),
    "preprocess": (_cmd_preprocess, "save cropped and resized copies of every image"),
    "train": (_cmd_train, "train a model and save checkpoints plus history"),
    "eval": (_cmd_eval, "score the test split and write report files"),
    "predict": (_cmd_predict, "classify one image file"),
    "report": (_cmd_report, "regenerate report files from saved scores"),
}


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tumorkit", description="Brain MRI tumor detection pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--seed", type=int, help="override split and train seeds")
        cmd.add_argument("--data-dir", help="dataset root containing yes/ and no/")
        cmd.add_argument("--out", help="run directory for outputs")
        if name in ("eval", "predict"):
            cmd.add_argument("--checkpoint", help="weight file (.nnck)")
        if name == "predict":
            cmd.add_argument("image", help="PGM image to classify")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        split_cfg, train_cfg = load_configs(args.config, args.seed)
        handler, _ = _COMMANDS[args.command]
        handler(args, split_cfg, train_cfg)
    except TumorkitError as exc:
        # one line, even if the message quotes a line break from a file
        message = "\\n".join(str(exc).splitlines())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
