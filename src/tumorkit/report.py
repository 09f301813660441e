"""Report file emission: metric tables, curves, history, and the ROC plot.

All tabular output is RFC-4180 CSV with a header row.  metrics.csv
rounds to four decimals for readability; every other file stores full
``repr`` precision so a report can be regenerated byte-identically and
downstream consumers can recompute metrics without rounding loss.
Undefined values (zero denominators, one-class score sets) are written
as the literal string ``undefined`` in metrics.csv and confusion.csv;
curve files for a one-class run contain only their header row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .dataset import DatasetManifest, ManifestEntry, atomic_write, make_dir, read_table, write_table
from .metrics import CLASSES, MetricsReport, ScoredSample

UNDEFINED = "undefined"

_SVG_SIZE = 320
_SVG_MARGIN = 20
_SVG_SPAN = _SVG_SIZE - 2 * _SVG_MARGIN

SCORES_HEADER = ["path", "label", "score", "prediction"]
HISTORY_HEADER = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]


@dataclass(frozen=True)
class EpochStats:
    """One history row; val fields are None when the val set is empty."""

    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float | None
    val_acc: float | None
    seconds: float


def _fixed(value: float | None) -> str:
    return UNDEFINED if value is None else f"{value:.4f}"


def _full(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_metrics_csv(report: MetricsReport, path: Path) -> None:
    rows = [
        ["accuracy", _fixed(report.accuracy)],
        ["precision", _fixed(report.precision)],
        ["recall", _fixed(report.recall)],
        ["f1", _fixed(report.f1)],
        ["kappa", _fixed(report.kappa)],
        ["auc", _fixed(report.auc)],
        ["average_precision", _fixed(report.average_precision)],
    ]
    write_table(path, ["metric", "value"], rows)


def write_confusion_csv(report: MetricsReport, path: Path) -> None:
    """Four count rows, each with its row-normalized rate."""
    cm = report.confusion
    norm = report.normalized
    cells = [
        ("tp", cm.tp, norm[0][0] if norm else None),
        ("fn", cm.fn, norm[0][1] if norm else None),
        ("fp", cm.fp, norm[1][0] if norm else None),
        ("tn", cm.tn, norm[1][1] if norm else None),
    ]
    rows = [
        [name, str(count), UNDEFINED if rate is None else _full(rate)]
        for name, count, rate in cells
    ]
    write_table(path, ["cell", "count", "normalized"], rows)


def write_roc_csv(report: MetricsReport, path: Path) -> None:
    points = report.roc_points or []
    rows = [[_full(t), _full(fpr), _full(tpr)] for t, fpr, tpr in points]
    write_table(path, ["threshold", "fpr", "tpr"], rows)


def write_pr_csv(report: MetricsReport, path: Path) -> None:
    points = report.pr_points or []
    rows = [[_full(t), _full(p), _full(r)] for t, p, r in points]
    write_table(path, ["threshold", "precision", "recall"], rows)


def write_history_csv(history: Sequence[EpochStats], path: Path) -> None:
    rows = [
        [str(s.epoch), _full(s.train_loss), _full(s.train_acc), _full(s.val_loss), _full(s.val_acc)]
        for s in history
    ]
    write_table(path, HISTORY_HEADER, rows)


def write_scores_csv(
    manifest: DatasetManifest,
    samples: Sequence[ScoredSample],
    predictions: Sequence[str],
    path: Path,
) -> None:
    """Per-image score table in manifest order, full precision."""
    rows = [
        [entry.path, entry.label, _full(sample.score), predicted]
        for entry, sample, predicted in zip(manifest.entries, samples, predictions)
    ]
    write_table(path, SCORES_HEADER, rows)


def _score_row(image: str, label: str, score: str, predicted: str):
    if predicted not in CLASSES:
        raise ValueError(f"prediction must be one of {CLASSES}, got {predicted!r}")
    return ManifestEntry(image, label), ScoredSample(label, float(score)), predicted


def read_scores_csv(path: str | Path):
    """Parse a scores.csv back into (manifest, samples, predictions).

    A malformed row raises BadConfig naming ``path:line`` (see
    :func:`~tumorkit.dataset.read_table`).
    """
    rows = read_table(path, "scores", SCORES_HEADER, _score_row)
    return DatasetManifest([r[0] for r in rows]), [r[1] for r in rows], [r[2] for r in rows]


def _history_row(k: int, epoch: str, train_loss: str, train_acc: str, val_loss: str, val_acc: str):
    """Data row ``k`` if :func:`write_history_csv` could have written it:
    epoch ``k`` spelled ``str(k)``, accuracies in [0, 1], and losses
    neither negative nor infinite (a ``nan`` loss is kept: a validation
    pass on NaN weights gives one)."""
    if epoch != str(k):
        raise ValueError(f"data row {k} must be epoch {k}, got {epoch!r}")
    val = [float(v) if v else None for v in (val_loss, val_acc)]
    row = EpochStats(k, float(train_loss), float(train_acc), *val, seconds=0.0)
    for loss in (row.train_loss, row.val_loss):
        if loss is not None and (loss < 0 or math.isinf(loss)):
            raise ValueError(f"loss {loss} is negative or infinite")
    for acc in (row.train_acc, row.val_acc):
        if acc is not None and not 0.0 <= acc <= 1.0:
            raise ValueError(f"accuracy {acc} is not in [0, 1]")
    return row


def read_history_csv(path: str | Path) -> list[EpochStats]:
    """Parse a history.csv back into epoch stats (timings not stored).

    A row :func:`write_history_csv` cannot write raises BadConfig naming
    ``path:line`` (see :func:`~tumorkit.dataset.read_table`).
    """
    rows = itertools.count(1)
    return read_table(path, "history", HISTORY_HEADER, lambda *f: _history_row(next(rows), *f))


def roc_svg(report: MetricsReport) -> str:
    """A standalone SVG: unit square, axis lines, and the ROC polyline."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" width="{_SVG_SPAN}" height="{_SVG_SPAN}" '
        'fill="none" stroke="#cccccc"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_SIZE - _SVG_MARGIN}" '
        f'x2="{_SVG_SIZE - _SVG_MARGIN}" y2="{_SVG_SIZE - _SVG_MARGIN}" stroke="#000000"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_MARGIN}" '
        f'x2="{_SVG_MARGIN}" y2="{_SVG_SIZE - _SVG_MARGIN}" stroke="#000000"/>',
    ]
    if report.roc_points:
        coords = " ".join(
            f"{_SVG_MARGIN + fpr * _SVG_SPAN:.2f},{_SVG_MARGIN + (1.0 - tpr) * _SVG_SPAN:.2f}"
            for _, fpr, tpr in report.roc_points
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f77b4" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(
    report: MetricsReport,
    history: Sequence[EpochStats],
    out_dir: str | Path,
) -> list[Path]:
    """Write every report file into ``out_dir`` and list what was written."""
    out = Path(out_dir)
    make_dir(out)
    written = [out / name for name in
               ("metrics.csv", "confusion.csv", "roc.csv", "pr.csv", "history.csv", "roc.svg")]
    metrics, confusion, roc, pr, history_path, svg = written
    write_metrics_csv(report, metrics)
    write_confusion_csv(report, confusion)
    write_roc_csv(report, roc)
    write_pr_csv(report, pr)
    write_history_csv(history, history_path)
    with atomic_write(svg, "w") as handle:
        handle.write(roc_svg(report))
    return written
