"""Confusion counts, rates, kappa, ROC/AUC, AP, and the report assembly."""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import brute_average_precision, brute_kappa, brute_roc, mann_whitney_auc
from tumorkit.errors import Empty, InvalidProbability, LengthMismatch, NoPositives, OneClassOnly
from tumorkit.metrics import (
    NO,
    YES,
    ConfusionMatrix,
    ScoredSample,
    auc,
    average_precision,
    basic_metrics,
    cohens_kappa,
    confusion,
    evaluate_scores,
    label_from_score,
    normalized_confusion,
    pr_curve,
    roc_curve,
)

# the worked 24-sample test matrix used across several checks below
CM_24 = ConfusionMatrix(tp=15, fn=0, fp=1, tn=8)


def samples_of(pairs) -> list[ScoredSample]:
    return [ScoredSample(label, score) for label, score in pairs]


def random_cm(g) -> ConfusionMatrix:
    tp, fn, fp, tn = (int(v) for v in g.integers(0, 30, size=4))
    if tp + fn + fp + tn == 0:
        tp = 1
    return ConfusionMatrix(tp, fn, fp, tn)


def random_samples(g, n, tie_prone=False) -> list[ScoredSample]:
    labels = [YES if g.random() < 0.5 else NO for _ in range(n)]
    if YES not in labels:
        labels[0] = YES
    if NO not in labels:
        labels[-1] = NO
    if tie_prone:
        scores = [float(g.integers(0, 5)) / 4.0 for _ in range(n)]
    else:
        scores = [round(float(g.random()), 3) for _ in range(n)]
    return samples_of(zip(labels, scores))


class TestConfusion:
    def test_single_correct_positive(self):
        assert confusion([YES], [YES]) == ConfusionMatrix(1, 0, 0, 0)

    def test_fully_wrong_pair(self):
        assert confusion([YES, NO], [NO, YES]) == ConfusionMatrix(0, 1, 1, 0)

    def test_twenty_four_sample_matrix(self):
        labels = [YES] * 15 + [NO] * 9
        preds = [YES] * 15 + [YES] + [NO] * 8
        assert confusion(labels, preds) == CM_24

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([YES], [YES, NO])

    def test_empty(self):
        with pytest.raises(Empty):
            confusion([], [])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            confusion(["maybe"], [YES])


class TestBasicMetrics:
    def test_twenty_four_sample_values(self):
        m = basic_metrics(CM_24)
        assert m.accuracy == 23 / 24
        assert m.precision == 15 / 16
        assert m.recall == 1.0
        assert math.isclose(m.f1, 30 / 31, rel_tol=1e-12)

    def test_printed_two_decimal_figures(self):
        # the published summary prints 0.96 / 0.93 / 1.00 / 0.97; each
        # figure sits within one hundredth of the exact value (the
        # precision row is truncated rather than rounded)
        m = basic_metrics(CM_24)
        for value, printed in ((m.accuracy, 0.96), (m.precision, 0.93), (m.recall, 1.00), (m.f1, 0.97)):
            assert abs(value - printed) < 0.01

    def test_perfect_classifier(self):
        m = basic_metrics(ConfusionMatrix(7, 0, 0, 3))
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_degenerate_denominators(self):
        m = basic_metrics(ConfusionMatrix(0, 0, 5, 5))
        assert m.accuracy == 0.5
        assert m.precision == 0.0
        assert m.recall is None  # no true positives exist to recall
        assert m.f1 is None

    def test_zero_precision_and_recall_leave_f1_undefined(self):
        m = basic_metrics(ConfusionMatrix(0, 3, 2, 5))
        assert m.precision == 0.0 and m.recall == 0.0
        assert m.f1 is None

    def test_count_scaling_invariance(self):
        g = np.random.default_rng(181)
        for _ in range(20):
            cm = random_cm(g)
            for k in (2, 3, 7):
                scaled = ConfusionMatrix(k * cm.tp, k * cm.fn, k * cm.fp, k * cm.tn)
                a, b = basic_metrics(cm), basic_metrics(scaled)
                for x, y in zip((a.accuracy, a.precision, a.recall, a.f1), (b.accuracy, b.precision, b.recall, b.f1)):
                    assert (x is None) == (y is None)
                    if x is not None:
                        assert math.isclose(x, y, rel_tol=1e-12)

    def test_f1_is_a_harmonic_mean(self):
        g = np.random.default_rng(182)
        for _ in range(50):
            m = basic_metrics(random_cm(g))
            if m.f1 is None:
                continue
            assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12


class TestKappa:
    def test_twenty_four_sample_value(self):
        assert math.isclose(cohens_kappa(CM_24), 10 / 11, rel_tol=1e-12)
        assert abs(cohens_kappa(CM_24) - 0.909091) < 1e-6

    def test_perfect_agreement(self):
        assert cohens_kappa(ConfusionMatrix(5, 0, 0, 5)) == 1.0

    def test_perfect_disagreement(self):
        assert cohens_kappa(ConfusionMatrix(0, 5, 5, 0)) == -1.0

    def test_single_cell_mass_is_undefined(self):
        assert cohens_kappa(ConfusionMatrix(10, 0, 0, 0)) is None
        assert cohens_kappa(ConfusionMatrix(0, 0, 0, 10)) is None

    def test_matches_rational_oracle(self):
        g = np.random.default_rng(183)
        for _ in range(30):
            cm = random_cm(g)
            want = brute_kappa(cm.tp, cm.fn, cm.fp, cm.tn)
            got = cohens_kappa(cm)
            if want is None:
                assert got is None
            else:
                assert math.isclose(got, float(want), rel_tol=0, abs_tol=1e-12)

    def test_range(self):
        g = np.random.default_rng(184)
        for _ in range(50):
            k = cohens_kappa(random_cm(g))
            if k is not None:
                assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12


class TestScoredSample:
    def test_valid(self):
        s = ScoredSample(YES, 0.25)
        assert s.true_label == YES and s.score == 0.25

    def test_bad_label(self):
        with pytest.raises(ValueError):
            ScoredSample("tumor", 0.5)

    def test_bad_score(self):
        for score in (-0.1, 1.1, float("nan"), float("inf")):
            with pytest.raises(InvalidProbability):
                ScoredSample(YES, score)


class TestRocCurve:
    def test_separable_scores(self):
        curve = roc_curve(samples_of([(YES, 0.9), (YES, 0.8), (NO, 0.3), (NO, 0.2)]))
        assert curve[0] == (math.inf, 0.0, 0.0)
        assert (0.0, 1.0) in {(fpr, tpr) for _, fpr, tpr in curve}
        assert curve[-1][1:] == (1.0, 1.0)
        assert auc(curve) == 1.0

    def test_all_scores_equal(self):
        curve = roc_curve(samples_of([(YES, 0.5), (NO, 0.5), (YES, 0.5)]))
        assert curve == [(math.inf, 0.0, 0.0), (0.5, 1.0, 1.0)]

    def test_monotone_and_anchored(self):
        g = np.random.default_rng(191)
        for _ in range(20):
            curve = roc_curve(random_samples(g, int(g.integers(2, 40)), tie_prone=True))
            assert curve[0] == (math.inf, 0.0, 0.0)
            assert curve[-1][1:] == (1.0, 1.0)
            for (_, f0, t0), (_, f1, t1) in zip(curve, curve[1:]):
                assert f1 >= f0 and t1 >= t0

    def test_matches_brute_force_thresholds(self):
        g = np.random.default_rng(192)
        for _ in range(15):
            samples = random_samples(g, 50, tie_prone=bool(g.integers(0, 2)))
            got = roc_curve(samples)
            want = brute_roc([s.true_label for s in samples], [s.score for s in samples], YES)
            assert got == want

    def test_one_class_only(self):
        with pytest.raises(OneClassOnly):
            roc_curve(samples_of([(YES, 0.9), (YES, 0.1)]))


class TestAuc:
    def test_three_of_four_pairs_ordered(self):
        samples = samples_of([(YES, 0.9), (YES, 0.3), (NO, 0.8), (NO, 0.2)])
        assert auc(roc_curve(samples)) == 0.75

    def test_matches_mann_whitney(self):
        g = np.random.default_rng(201)
        for _ in range(25):
            samples = random_samples(g, int(g.integers(2, 120)), tie_prone=bool(g.integers(0, 2)))
            got = auc(roc_curve(samples))
            want = mann_whitney_auc([s.true_label for s in samples], [s.score for s in samples], YES)
            assert abs(got - want) < 1e-9

    def test_label_flip_with_complemented_scores(self):
        g = np.random.default_rng(202)
        for _ in range(10):
            samples = random_samples(g, 30, tie_prone=True)
            flipped = [
                ScoredSample(NO if s.true_label == YES else YES, 1.0 - s.score)
                for s in samples
            ]
            a = auc(roc_curve(samples))
            b = auc(roc_curve(flipped))
            assert abs(a - b) < 1e-12

    def test_stays_in_unit_interval(self):
        g = np.random.default_rng(203)
        for _ in range(20):
            value = auc(roc_curve(random_samples(g, 25, tie_prone=True)))
            assert 0.0 <= value <= 1.0


class TestAveragePrecision:
    def test_perfect_separation(self):
        samples = samples_of([(YES, 0.9), (YES, 0.8), (NO, 0.2), (NO, 0.1)])
        assert average_precision(samples) == 1.0

    def test_single_positive_ranked_last(self):
        for k in (1, 3, 9):
            samples = [ScoredSample(NO, (i + 2) / (k + 3)) for i in range(k)]
            samples.append(ScoredSample(YES, 1 / (k + 3)))
            assert average_precision(samples) == 1 / (k + 1)

    def test_matches_rational_oracle(self):
        g = np.random.default_rng(211)
        for _ in range(25):
            samples = random_samples(g, int(g.integers(2, 60)), tie_prone=bool(g.integers(0, 2)))
            want = brute_average_precision(
                [s.true_label for s in samples], [s.score for s in samples], YES
            )
            assert abs(average_precision(samples) - float(want)) < 1e-12

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            average_precision(samples_of([(NO, 0.4), (NO, 0.6)]))
        with pytest.raises(NoPositives):
            pr_curve(samples_of([(NO, 0.4)]))


class TestNormalizedConfusion:
    def test_twenty_four_sample_rows(self):
        rows = normalized_confusion(CM_24)
        assert rows[0] == (1.0, 0.0)
        assert math.isclose(rows[1][0], 1 / 9, rel_tol=1e-12)
        assert math.isclose(rows[1][1], 8 / 9, rel_tol=1e-12)

    def test_diagonal_matrix_normalizes_to_identity(self):
        assert normalized_confusion(ConfusionMatrix(4, 0, 0, 9)) == ((1.0, 0.0), (0.0, 1.0))

    def test_rows_sum_to_one(self):
        g = np.random.default_rng(221)
        for _ in range(30):
            cm = random_cm(g)
            if cm.tp + cm.fn == 0 or cm.fp + cm.tn == 0:
                continue
            rows = normalized_confusion(cm)
            for row in rows:
                assert abs(sum(row) - 1.0) < 1e-12

    def test_empty_row_rejected(self):
        from tumorkit.errors import EmptyRow

        with pytest.raises(EmptyRow):
            normalized_confusion(ConfusionMatrix(0, 0, 3, 4))


class TestLabelFromScore:
    def test_argmax_with_tie_to_no(self):
        assert label_from_score(0.51) == YES
        assert label_from_score(0.5) == NO
        assert label_from_score(0.49) == NO


class TestEvaluateScores:
    def test_oracle_classifier(self):
        samples = samples_of([(YES, 1.0)] * 6 + [(NO, 0.0)] * 4)
        report = evaluate_scores(samples)
        assert report.accuracy == 1.0
        assert report.auc == 1.0
        assert report.kappa == 1.0
        assert report.average_precision == 1.0
        assert report.confusion == ConfusionMatrix(6, 0, 0, 4)
        assert report.normalized == ((1.0, 0.0), (0.0, 1.0))

    def test_one_class_disables_ranking_metrics(self):
        report = evaluate_scores(samples_of([(YES, 0.9), (YES, 0.2)]))
        assert report.auc is None
        assert report.average_precision is None
        assert report.roc_points is None
        assert report.pr_points is None
        assert report.normalized is None  # the NO row is empty
        assert report.accuracy == 0.5  # threshold predictions still count
        assert report.confusion == ConfusionMatrix(1, 1, 0, 0)

    def test_default_predictions_use_the_half_threshold(self):
        report = evaluate_scores(samples_of([(YES, 0.5), (NO, 0.51)]))
        assert report.confusion == ConfusionMatrix(0, 1, 1, 0)

    def test_explicit_predictions_override_scores(self):
        samples = samples_of([(YES, 0.1), (NO, 0.9)])
        report = evaluate_scores(samples, predictions=[YES, NO])
        assert report.accuracy == 1.0  # despite terrible scores
        assert report.auc == 0.0  # ranking metrics still use the scores

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            evaluate_scores([])

    def test_report_consistency_on_random_tables(self):
        g = np.random.default_rng(231)
        for _ in range(10):
            samples = random_samples(g, 40, tie_prone=True)
            report = evaluate_scores(samples)
            cm = report.confusion
            assert cm.total == 40
            assert report.accuracy == (cm.tp + cm.tn) / 40
            if report.auc is not None:
                assert 0.0 <= report.auc <= 1.0

    def test_builds_the_pr_curve_once_with_the_same_area(self, monkeypatch):
        g = np.random.default_rng(232)
        samples = random_samples(g, 40, tie_prone=True)
        calls = []

        def counted(s):
            calls.append(1)
            return pr_curve(s)

        monkeypatch.setattr("tumorkit.metrics.pr_curve", counted)
        report = evaluate_scores(samples)
        assert len(calls) == 1
        assert report.average_precision == average_precision(samples)  # bit equal
