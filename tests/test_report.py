"""CSV and SVG report files: layout, precision, and round trips."""

import csv
import math
import re

import pytest

from tumorkit.dataset import DatasetManifest, ManifestEntry
from tumorkit.errors import BadConfig
from tumorkit.metrics import NO, YES, ScoredSample, evaluate_scores
from tumorkit.report import (
    UNDEFINED,
    emit_report,
    read_history_csv,
    read_scores_csv,
    roc_svg,
    write_history_csv,
    write_metrics_csv,
    write_roc_csv,
    write_scores_csv,
)
from tumorkit.train import EpochStats


def perfect_report():
    samples = [ScoredSample(YES, 0.9), ScoredSample(YES, 0.8), ScoredSample(NO, 0.2), ScoredSample(NO, 0.1)]
    return evaluate_scores(samples)


def one_class_report():
    return evaluate_scores([ScoredSample(YES, 0.9), ScoredSample(YES, 0.4)])


def history_rows():
    return [
        EpochStats(1, 0.69, 0.5, 0.68, 0.5, 1.25),
        EpochStats(2, 0.42, 0.9, 0.35, 1.0, 1.31),
    ]


class TestMetricsCsv:
    def test_rows_and_rounding(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(perfect_report(), path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["metric", "value"]
        table = dict(rows[1:])
        assert table["accuracy"] == "1.0000"
        assert table["auc"] == "1.0000"
        assert set(table) == {
            "accuracy",
            "precision",
            "recall",
            "f1",
            "kappa",
            "auc",
            "average_precision",
        }

    def test_undefined_cells_are_spelled_out(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(one_class_report(), path)
        table = dict(list(csv.reader(path.open()))[1:])
        assert table["auc"] == UNDEFINED
        assert table["average_precision"] == UNDEFINED


class TestRocCsv:
    def test_points_written_full_precision(self, tmp_path):
        path = tmp_path / "roc.csv"
        report = perfect_report()
        write_roc_csv(report, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["threshold", "fpr", "tpr"]
        assert len(rows) == 1 + len(report.roc_points)
        # full repr precision survives a float round trip
        for row, (thr, fpr, tpr) in zip(rows[1:], report.roc_points):
            assert float(row[0]) == thr or (row[0] == "inf" and math.isinf(thr))
            assert float(row[1]) == fpr
            assert float(row[2]) == tpr

    def test_header_only_when_undefined(self, tmp_path):
        path = tmp_path / "roc.csv"
        write_roc_csv(one_class_report(), path)
        assert list(csv.reader(path.open())) == [["threshold", "fpr", "tpr"]]


class TestHistoryCsv:
    def test_round_trip_drops_only_timing(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv(history_rows(), path)
        back = read_history_csv(path)
        for a, b in zip(history_rows(), back):
            assert (a.epoch, a.train_loss, a.train_acc, a.val_loss, a.val_acc) == (
                b.epoch,
                b.train_loss,
                b.train_acc,
                b.val_loss,
                b.val_acc,
            )
            assert b.seconds == 0.0

    def test_missing_val_columns_stay_empty(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv([EpochStats(1, 0.7, 0.5, None, None, 0.1)], path)
        rows = list(csv.reader(path.open()))
        assert rows[1][3] == "" and rows[1][4] == ""
        assert read_history_csv(path)[0].val_loss is None

    @pytest.mark.parametrize("row", ["1,abc,0.5,,", "x,0.7,0.5,,", "1,0.7,0.5"],
                             ids=["bad-loss", "bad-epoch", "short-row"])
    def test_malformed_row_names_the_file(self, tmp_path, row):
        path = tmp_path / "history.csv"
        path.write_text(f"epoch,train_loss,train_acc,val_loss,val_acc\r\n{row}\r\n")
        with pytest.raises(BadConfig, match=re.escape(f"{path}:2: ")):
            read_history_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "history.csv"
        path.write_text("a,b\r\n1,2\r\n")
        with pytest.raises(BadConfig):
            read_history_csv(path)


class TestScoresCsv:
    def test_failed_write_leaves_old_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("unprintable cell")

        samples = [ScoredSample(YES, 0.75), ScoredSample(NO, 0.25)]
        path = tmp_path / "scores.csv"
        good = DatasetManifest([ManifestEntry("a.pgm", YES), ManifestEntry("b.pgm", NO)])
        write_scores_csv(good, samples, [YES, NO], path)
        before = path.read_bytes()
        broken = DatasetManifest([ManifestEntry("a.pgm", YES), ManifestEntry(Unprintable(), NO)])
        with pytest.raises(RuntimeError, match="unprintable"):
            write_scores_csv(broken, samples, [YES, NO], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scores.csv"]

    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(
            [ManifestEntry("data/yes/a.pgm", YES), ManifestEntry("data/no/b.pgm", NO)]
        )
        samples = [ScoredSample(YES, 0.8251953125), ScoredSample(NO, 0.0322265625)]
        predictions = [YES, NO]
        path = tmp_path / "scores.csv"
        write_scores_csv(manifest, samples, predictions, path)
        m2, s2, p2 = read_scores_csv(path)
        assert m2.entries == manifest.entries
        assert [s.score for s in s2] == [s.score for s in samples]  # bit exact
        assert p2 == predictions

    @pytest.mark.parametrize(
        "row",
        ["a.pgm,yes,0.5,maybe", "a.pgm,yes,1.5,yes", "a.pgm,yes,0.5,yes,extra",
         "b.pgm,no,0.5,no"],
        ids=["bad-prediction", "score-out-of-range", "long-row", "duplicate-path"],
    )
    def test_malformed_row_names_the_file(self, tmp_path, row):
        path = tmp_path / "scores.csv"
        path.write_text(f"path,label,score,prediction\r\nb.pgm,no,0.25,no\r\n{row}\r\n")
        with pytest.raises(BadConfig, match=re.escape(str(path))):
            read_scores_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("path,label\r\na,yes\r\n")
        with pytest.raises(BadConfig):
            read_scores_csv(path)


class TestRocSvg:
    def test_perfect_curve_passes_top_left(self):
        svg = roc_svg(perfect_report())
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 320 320"' in svg
        assert "<polyline" in svg
        # fpr 0, tpr 1 maps to the top-left plot corner (20, 20)
        assert "20.00,20.00" in svg

    def test_undefined_curve_has_axes_but_no_polyline(self):
        svg = roc_svg(one_class_report())
        assert "<polyline" not in svg
        assert "<line" in svg


class TestEmitReport:
    def test_writes_the_full_file_set(self, tmp_path):
        out = tmp_path / "report"
        written = emit_report(perfect_report(), history_rows(), out)
        names = sorted(p.name for p in written)
        assert names == sorted(
            ["metrics.csv", "confusion.csv", "roc.csv", "pr.csv", "history.csv", "roc.svg"]
        )
        for p in written:
            assert p.is_file() and p.stat().st_size > 0

    def test_confusion_counts_and_normalized_cells(self, tmp_path):
        out = tmp_path / "report"
        emit_report(perfect_report(), [], out)
        rows = list(csv.reader((out / "confusion.csv").open()))
        assert rows[0] == ["cell", "count", "normalized"]
        table = {row[0]: (row[1], row[2]) for row in rows[1:]}
        assert table["tp"] == ("2", "1.0")
        assert table["tn"][0] == "2"
