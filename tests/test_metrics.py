import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from mal2gcn.fcg import DataError
from mal2gcn.metrics import compute_metrics, roc_csv_lines, write_metrics_report


def concordance_auc(scored):
    """Brute-force pairwise concordance with ties counted one half."""
    positives = [s for s, y in scored if y == 1]
    negatives = [s for s, y in scored if y == 0]
    total = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(positives) * len(negatives))


def reference_roc(scored):
    """The ROC points and trapezoidal AUC of a sweep that rescans every score at each distinct threshold."""
    scores = np.array([float(s) for s, _ in scored])
    labels = np.array([int(y) for _, y in scored])
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    points = [(0.0, 0.0, float("inf"))]
    for t in np.unique(scores)[::-1]:
        positive = scores >= t
        tpr = float(np.sum(positive & (labels == 1)) / n_pos)
        fpr = float(np.sum(positive & (labels == 0)) / n_neg)
        points.append((fpr, tpr, float(t)))
    auc = 0.0
    for (fpr0, tpr0, _), (fpr1, tpr1, _) in zip(points, points[1:]):
        auc += (fpr1 - fpr0) * (tpr0 + tpr1) / 2.0
    return tuple(points), auc


class TestComputeMetrics:
    def test_perfect_separation(self):
        report = compute_metrics([(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)])
        assert report.accuracy == 1.0
        assert report.auc == 1.0
        assert (report.tp, report.fp, report.tn, report.fn) == (2, 0, 2, 0)

    def test_confusion_counts_and_derived_metrics(self):
        scored = (
            [(0.9, 1)] * 93  # tp
            + [(0.1, 1)] * 7  # fn
            + [(0.9, 0)] * 2  # fp
            + [(0.1, 0)] * 98  # tn
        )
        report = compute_metrics(scored)
        assert (report.tp, report.fp, report.fn, report.tn) == (93, 2, 7, 98)
        assert report.precision == pytest.approx(0.9789, abs=1e-4)
        assert report.recall == pytest.approx(0.93, abs=1e-12)
        assert report.f1 == pytest.approx(0.9539, abs=1e-4)

    def test_threshold_is_half_inclusive(self):
        report = compute_metrics([(0.5, 1), (0.49999, 0)])
        assert report.tp == 1 and report.tn == 1

    def test_single_label_input_has_no_roc(self):
        report = compute_metrics([(0.9, 1), (0.2, 1)])
        assert report.auc is None
        assert report.roc_points is None
        assert report.recall == 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            compute_metrics([])

    def test_bad_label_rejected(self):
        with pytest.raises(DataError):
            compute_metrics([(0.5, 2)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        # a NaN compares false with every threshold: it would be a false negative and a ROC point at nan
        with pytest.raises(DataError, match="finite"):
            compute_metrics([(bad, 1), (0.2, 0), (0.7, 1), (0.1, 0)])

    def test_roc_endpoints_and_ordering(self):
        report = compute_metrics([(0.9, 1), (0.4, 0), (0.6, 1), (0.2, 0)])
        points = report.roc_points
        assert points[0][:2] == (0.0, 0.0)
        assert points[0][2] == float("inf")
        assert points[-1][:2] == (1.0, 1.0)
        thresholds = [t for _, _, t in points]
        assert thresholds == sorted(thresholds, reverse=True)
        fprs = [f for f, _, _ in points]
        assert fprs == sorted(fprs)

    def test_auc_equals_concordance_on_ties(self):
        scored = [(0.5, 1), (0.5, 0), (0.7, 1), (0.3, 0)]
        report = compute_metrics(scored)
        assert report.auc == pytest.approx(concordance_auc(scored), abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 1)), min_size=2, max_size=40))
    def test_auc_matches_concordance_oracle(self, raw):
        scored = [(s / 20.0, y) for s, y in raw]
        labels = {y for _, y in scored}
        if labels != {0, 1}:
            return
        report = compute_metrics(scored)
        assert report.auc == pytest.approx(concordance_auc(scored), abs=1e-9)

    def test_random_scores_match_concordance(self):
        rng = np.random.default_rng(123)
        scores = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        labels[0], labels[1] = 0, 1
        scored = list(zip(scores, labels))
        report = compute_metrics(scored)
        assert report.auc == pytest.approx(concordance_auc(scored), abs=1e-9)

    def test_roc_equals_the_rescanning_sweep_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            size = int(rng.integers(2, 300))
            scores = np.round(rng.random(size), int(rng.integers(1, 4)))  # quantized to force ties
            labels = rng.integers(0, 2, size=size)
            labels[:2] = (0, 1)
            scored = list(zip(scores, labels))
            points, auc = reference_roc(scored)
            report = compute_metrics(scored)
            assert report.roc_points == points
            assert repr(report.auc) == repr(auc)


class TestMetricsFile:
    def test_report_file_contents(self, tmp_path):
        report = compute_metrics([(0.9, 1), (0.1, 0)])
        path = tmp_path / "metrics.txt"
        write_metrics_report(report, path, {"seed": 1})
        text = path.read_text(encoding="utf-8")
        assert text.startswith("#mal2gcn-metrics v1")
        assert "accuracy\t1.0" in text
        assert "[roc]" in text
        assert "fpr,tpr,threshold" in text

    def test_roc_csv_round_trips_floats(self):
        report = compute_metrics([(1 / 3, 1), (0.1, 0), (0.9, 1)])
        lines = roc_csv_lines(report)
        assert lines[0] == "fpr,tpr,threshold"
        for line in lines[1:]:
            fpr, tpr, threshold = line.split(",")
            assert float(fpr) <= 1.0 and float(tpr) <= 1.0
            float(threshold)  # parseable, including inf

    def test_single_label_report_marks_auc_absent(self, tmp_path):
        report = compute_metrics([(0.9, 1), (0.3, 1)])
        path = tmp_path / "metrics.txt"
        write_metrics_report(report, path)
        text = path.read_text(encoding="utf-8")
        assert "auc\tabsent" in text
        assert "[roc]" not in text
