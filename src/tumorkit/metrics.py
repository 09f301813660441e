"""Binary classification metrics for the yes/no tumor decision.

Everything here is a pure function of counts or scored samples: the
2x2 confusion matrix and its derived rates, Cohen's kappa, ROC curve
and AUC, precision-recall curve and average precision, and the
row-normalized confusion matrix.

Conventions fixed across the package:

* YES ("yes") is the positive class; class order is (NO, YES) so that
  column 1 of a probability pair is the YES probability.
* Rates with a zero denominator are reported as None (an explicit
  undefined marker), never as 0 or an exception.
* ROC thresholds sweep the distinct scores in descending order after a
  +infinity sentinel; a sample is predicted YES when score >= threshold.
  Grouping tied scores this way makes the trapezoidal area equal the
  tie-aware rank statistic (ties counted half).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    Empty,
    EmptyRow,
    InvalidProbability,
    LengthMismatch,
    NoPositives,
    OneClassOnly,
)

YES = "yes"
NO = "no"
CLASSES = (NO, YES)  # index 1 is the positive class


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (true, predicted) pairs with YES as the positive class."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        for field in ("tp", "fn", "fp", "tn"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class ScoredSample:
    """A true label together with the predicted probability of YES."""

    true_label: str
    score: float

    def __post_init__(self):
        if self.true_label not in CLASSES:
            raise ValueError(f"label must be one of {CLASSES}, got {self.true_label!r}")
        if not math.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise InvalidProbability(f"score {self.score} not a finite value in [0, 1]")


@dataclass(frozen=True)
class BasicMetrics:
    """Accuracy, precision, recall, and F1; None marks an undefined rate."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class MetricsReport:
    """Everything the evaluation stage reports for one score table.

    Ranking fields (auc, average_precision, roc_points, pr_points) are
    None when the sample set contains only one class.
    """

    confusion: ConfusionMatrix
    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None
    kappa: float | None
    auc: float | None
    average_precision: float | None
    normalized: tuple[tuple[float, float], tuple[float, float]] | None
    roc_points: list[tuple[float, float, float]] | None
    pr_points: list[tuple[float, float, float]] | None


def confusion(labels: Sequence[str], predictions: Sequence[str]) -> ConfusionMatrix:
    """Count (true, predicted) pairs."""
    if len(labels) != len(predictions):
        raise LengthMismatch(f"{len(labels)} labels vs {len(predictions)} predictions")
    if not labels:
        raise Empty("need at least one labeled prediction")
    tp = fn = fp = tn = 0
    for truth, pred in zip(labels, predictions):
        if truth not in CLASSES or pred not in CLASSES:
            raise ValueError(f"labels must be drawn from {CLASSES}")
        if truth == YES:
            if pred == YES:
                tp += 1
            else:
                fn += 1
        elif pred == YES:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fn, fp, tn)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def basic_metrics(cm: ConfusionMatrix) -> BasicMetrics:
    """Accuracy, precision, recall, F1 from the four counts."""
    accuracy = _ratio(cm.tp + cm.tn, cm.total)
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return BasicMetrics(accuracy, precision, recall, f1)


def cohens_kappa(cm: ConfusionMatrix) -> float | None:
    """Chance-corrected agreement; None when chance agreement is total.

    The chance term multiplies the true-class and predicted-class
    marginal rates for each class and sums them.
    """
    n = cm.total
    if n == 0:
        return None
    p0 = (cm.tp + cm.tn) / n
    p_yes = ((cm.tp + cm.fn) / n) * ((cm.tp + cm.fp) / n)
    p_no = ((cm.fp + cm.tn) / n) * ((cm.fn + cm.tn) / n)
    pe = p_yes + p_no
    if pe == 1.0:
        return None
    return (p0 - pe) / (1.0 - pe)


def _sweep(samples: Sequence[ScoredSample]) -> list[tuple[float, int, int]]:
    """(threshold, YES so far, NO so far) at each distinct score, descending:
    the samples a ``score >= threshold`` rule predicts YES, by true class.
    The last point holds the class totals."""
    by_score: dict[float, list[int]] = {}
    for s in samples:
        by_score.setdefault(s.score, [0, 0])[0 if s.true_label == YES else 1] += 1
    points = []
    yes = no = 0
    for score, (y, n) in sorted(by_score.items(), reverse=True):
        yes += y
        no += n
        points.append((score, yes, no))
    return points


def roc_curve(samples: Sequence[ScoredSample]) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) points, thresholds descending from +inf.

    At each threshold a sample is predicted YES when score >= threshold,
    so the curve starts at (0, 0) and ends at (1, 1).
    """
    sweep = _sweep(samples)
    _, pos, neg = sweep[-1] if sweep else (None, 0, 0)
    if pos == 0 or neg == 0:
        raise OneClassOnly(f"{pos} positive and {neg} negative samples")
    return [(math.inf, 0.0, 0.0)] + [(t, no / neg, yes / pos) for t, yes, no in sweep]


def auc(curve: Sequence[tuple[float, float, float]]) -> float:
    """Trapezoidal area under the (fpr, tpr) points."""
    area = 0.0
    for (_, fpr0, tpr0), (_, fpr1, tpr1) in zip(curve, curve[1:]):
        area += (fpr1 - fpr0) * (tpr0 + tpr1) / 2.0
    return area


def pr_curve(samples: Sequence[ScoredSample]) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) at each distinct score, descending."""
    sweep = _sweep(samples)
    pos = sweep[-1][1] if sweep else 0
    if pos == 0:
        raise NoPositives("precision-recall needs at least one positive sample")
    return [(t, yes / (yes + no), yes / pos) for t, yes, no in sweep]


def _step_area(curve: Sequence[tuple[float, float, float]]) -> float:
    """Area under the (threshold, precision, recall) step function."""
    ap = 0.0
    prev_recall = 0.0
    for _, precision, recall in curve:
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def average_precision(samples: Sequence[ScoredSample]) -> float:
    """Area under the precision-recall step function.

    Sums precision at each distinct threshold weighted by the recall
    gained there (no smoothing or interpolation between steps).
    """
    return _step_area(pr_curve(samples))


def normalized_confusion(
    cm: ConfusionMatrix,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Rows (true YES, true NO) divided by their class totals."""
    yes_total = cm.tp + cm.fn
    no_total = cm.fp + cm.tn
    if yes_total == 0 or no_total == 0:
        raise EmptyRow(f"true-class totals {yes_total} and {no_total} must both be positive")
    return (
        (cm.tp / yes_total, cm.fn / yes_total),
        (cm.fp / no_total, cm.tn / no_total),
    )


def label_from_score(score: float) -> str:
    """Argmax of (1-score, score) with the tie going to NO (index 0)."""
    return YES if score > 0.5 else NO


def evaluate_scores(
    samples: Sequence[ScoredSample],
    predictions: Sequence[str] | None = None,
) -> MetricsReport:
    """Full report from a score table.

    Predictions default to the score argmax.  Ranking metrics are set
    to None (not raised) when only one class is present; the normalized
    matrix is None when a true-class row is empty.
    """
    if not samples:
        raise Empty("need at least one scored sample")
    labels = [s.true_label for s in samples]
    if predictions is None:
        predictions = [label_from_score(s.score) for s in samples]
    cm = confusion(labels, predictions)
    basics = basic_metrics(cm)

    try:
        roc = roc_curve(samples)
        area = auc(roc)
        pr = pr_curve(samples)
        ap = _step_area(pr)
    except OneClassOnly:
        roc = area = pr = ap = None
    try:
        normalized = normalized_confusion(cm)
    except EmptyRow:
        normalized = None
    return MetricsReport(
        confusion=cm,
        accuracy=basics.accuracy,
        precision=basics.precision,
        recall=basics.recall,
        f1=basics.f1,
        kappa=cohens_kappa(cm),
        auc=area,
        average_precision=ap,
        normalized=normalized,
        roc_points=roc,
        pr_points=pr,
    )
