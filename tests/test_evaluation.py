import json
from dataclasses import asdict

import numpy as np
import pytest

from specscan import (
    BenchRecord,
    BinaryMask,
    ConfigError,
    DataError,
    ErrorReport,
    ScoreMap,
    SegMetrics,
    TargetSpectrum,
    bench_detector,
    compare_paths,
    compute_scene_stats,
    render_bench_table,
    render_metrics_table,
    seg_metrics,
    serialize_detector_params,
)
from specscan.cube import _json_default
from specscan.evaluation import render_error_report
from conftest import random_cube
from oracles import confusion_loop


def mask_of(rows):
    return BinaryMask(data=np.asarray(rows, dtype=np.uint8))


class TestSegMetrics:
    def test_perfect_prediction(self):
        mask = mask_of([[1, 0], [0, 1]])
        metrics = seg_metrics(mask, mask)
        assert metrics.accuracy == 1.0
        assert metrics.positive_iou == 1.0
        assert metrics.negative_iou == 1.0

    def test_both_empty_convention(self):
        empty = mask_of([[0, 0], [0, 0]])
        metrics = seg_metrics(empty, empty)
        assert metrics.positive_iou == 1.0
        assert metrics.negative_iou == 1.0
        assert metrics.accuracy == 1.0

    def test_hand_computed_two_by_two(self):
        pred = mask_of([[1, 1], [0, 0]])
        truth = mask_of([[1, 0], [1, 0]])
        metrics = seg_metrics(pred, truth)
        assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (1, 1, 1, 1)
        assert metrics.accuracy == 0.5
        assert metrics.positive_iou == pytest.approx(1 / 3)
        assert metrics.negative_iou == pytest.approx(1 / 3)

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(4)
        pred = (rng.random((20, 20)) > 0.6).astype(np.uint8)
        truth = (rng.random((20, 20)) > 0.4).astype(np.uint8)
        direct = seg_metrics(mask_of(pred), mask_of(truth))
        swapped = seg_metrics(mask_of(1 - pred), mask_of(1 - truth))
        assert direct.accuracy == swapped.accuracy
        assert direct.positive_iou == swapped.negative_iou
        assert direct.negative_iou == swapped.positive_iou

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            height = int(rng.integers(1, 40))
            width = int(rng.integers(1, 40))
            pred = (rng.random((height, width)) > 0.5).astype(np.uint8)
            truth = (rng.random((height, width)) > 0.5).astype(np.uint8)
            metrics = seg_metrics(mask_of(pred), mask_of(truth))
            assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == confusion_loop(pred, truth)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="dimensions"):
            seg_metrics(mask_of([[1]]), mask_of([[1, 0]]))

    def test_counts_sum_to_pixel_count(self):
        rng = np.random.default_rng(7)
        pred = mask_of((rng.random((13, 9)) > 0.5).astype(np.uint8))
        truth = mask_of((rng.random((13, 9)) > 0.5).astype(np.uint8))
        metrics = seg_metrics(pred, truth)
        assert metrics.tp + metrics.fp + metrics.fn + metrics.tn == 13 * 9


class TestComparePaths:
    def test_identical_maps(self):
        scores = ScoreMap(data=np.random.default_rng(1).random((8, 8)), score_kind="RX")
        report = compare_paths(scores, scores)
        assert report.mean_abs_error == 0.0
        assert report.max_abs_error == 0.0
        assert report.n == 64
        assert int(report.histogram_counts.sum()) == 64

    def test_constant_offset(self):
        base = np.random.default_rng(2).random((6, 6))
        a = ScoreMap(data=base, score_kind="MF")
        b = ScoreMap(data=base + 0.001, score_kind="MF")
        report = compare_paths(a, b)
        assert report.mean_abs_error == pytest.approx(0.001, rel=1e-9)
        assert report.max_abs_error == pytest.approx(0.001, rel=1e-9)

    def test_kind_mismatch(self):
        a = ScoreMap(data=np.zeros((2, 2)), score_kind="RX")
        b = ScoreMap(data=np.zeros((2, 2)), score_kind="MF")
        with pytest.raises(DataError, match="kinds"):
            compare_paths(a, b)

    def test_bins_below_one_is_a_config_error(self):
        scores = ScoreMap(data=np.zeros((2, 2)), score_kind="RX")
        with pytest.raises(ConfigError, match="bins must be >= 1, got 0"):
            compare_paths(scores, scores, bins=0)

    def test_histogram_covers_all_samples(self):
        rng = np.random.default_rng(3)
        a = ScoreMap(data=rng.random((10, 10)), score_kind="HOT")
        b = ScoreMap(data=rng.random((10, 10)), score_kind="HOT")
        report = compare_paths(a, b, bins=16)
        assert report.histogram_counts.size == 16
        assert report.histogram_edges.size == 17
        assert int(report.histogram_counts.sum()) == 100
        assert report.mean_abs_error <= report.max_abs_error

    def test_render_includes_histogram_rows(self):
        rng = np.random.default_rng(9)
        a = ScoreMap(data=rng.random((5, 5)), score_kind="RX")
        b = ScoreMap(data=rng.random((5, 5)), score_kind="RX")
        text = render_error_report(compare_paths(a, b, bins=8))
        assert text.count("\n") >= 8
        assert "mean |a-b|" in text

    def test_report_round_trips_to_json(self):
        scores = ScoreMap(data=np.ones((3, 3)), score_kind="SAM")
        payload = asdict(compare_paths(scores, scores))
        parsed = json.loads(json.dumps(payload, default=_json_default))
        assert parsed["n"] == 9


class TestDetectorSerialization:
    @pytest.mark.parametrize("detector", ["sam", "mf", "rx"])
    def test_artifact_byte_count(self, detector):
        # every detector gets both inputs; each artifact holds only what it uses
        bands = 48
        rng = np.random.default_rng(11)
        stats = compute_scene_stats_for_bands(rng, bands)
        target = TargetSpectrum(label="t", values=rng.random(bands))
        blob = serialize_detector_params(detector, target=target, stats=stats)
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline])
        arrays, values = {
            "sam": ({"target": [bands]}, bands),
            "mf": ({"covariance": [bands, bands], "mean": [bands], "target": [bands]}, 2 * bands + bands * bands),
            "rx": ({"covariance": [bands, bands], "mean": [bands]}, bands + bands * bands),
        }[detector]
        assert header == {"arrays": arrays, "detector": detector, "dtype": "f64"}
        assert len(blob) - newline - 1 == 8 * values

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(12)
        stats = compute_scene_stats_for_bands(rng, 5)
        target = TargetSpectrum(label="t", values=np.arange(5, dtype=float) + 1)
        one = serialize_detector_params("mf", target=target, stats=stats)
        two = serialize_detector_params("mf", target=target, stats=stats)
        assert one == two

    def test_sam_needs_target(self):
        with pytest.raises(DataError):
            serialize_detector_params("sam")


def compute_scene_stats_for_bands(rng, bands):
    cube = random_cube(rng, bands=bands, height=16, width=16, roles=False)
    return compute_scene_stats(cube)


class TestBench:
    def test_record_fields_and_determinism(self):
        rng = np.random.default_rng(13)
        cube = random_cube(rng, bands=6, height=12, width=12, roles=False)
        target = rng.random(6)
        one = bench_detector(cube, "sam", target=target, repetitions=3, application="vegetation")
        two = bench_detector(cube, "sam", target=target, repetitions=3, application="vegetation")
        assert one.artifact_bytes == two.artifact_bytes
        assert one.inputs_shape == "12x12x6"
        assert one.model == "SAM"
        assert one.single_input_seconds >= 0.0

    def test_repetition_floor(self):
        rng = np.random.default_rng(14)
        cube = random_cube(rng, bands=3, height=4, width=4, roles=False)
        with pytest.raises(ConfigError, match="3"):
            bench_detector(cube, "rx", repetitions=2)

    @pytest.mark.parametrize("repetitions", [2, 0, -1, 3.5])
    def test_record_has_the_same_repetition_floor(self, repetitions):
        with pytest.raises(ConfigError, match="3"):
            BenchRecord("a/rx", "a", "RX", 10, 0.1, "4x4x3", repetitions)
        assert BenchRecord("a/rx", "a", "RX", 10, 0.1, "4x4x3", 3).repetitions == 3

    def test_bench_table_schema(self):
        rng = np.random.default_rng(15)
        cube = random_cube(rng, bands=4, height=8, width=8, roles=False)
        target = rng.random(4)
        records = [
            bench_detector(cube, d, target=target if d in ("sam", "mf") else None,
                           repetitions=3, application="vegetation")
            for d in ("sam", "mf", "rx")
        ]
        table = render_bench_table(records)
        header = table.splitlines()[0]
        assert header.split("  ")[0].strip() == "Application"
        for column in ("Application", "Model", "Model Size", "Execution Time (s)"):
            assert column in header
        assert len(table.splitlines()) == 4

    def test_bench_record_to_dict(self):
        rng = np.random.default_rng(16)
        cube = random_cube(rng, bands=3, height=6, width=6, roles=False)
        record = bench_detector(cube, "rx", repetitions=3)
        payload = asdict(record)
        assert payload["model"] == "RX"
        assert payload["repetitions"] == 3


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: compare_paths(ScoreMap(np.zeros((2, 2)), "HOT"), ScoreMap(np.zeros((2, 3)), "HOT")),
         "score shapes disagree: (2, 2) vs (2, 3)"),
        (lambda: serialize_detector_params("ndwi"), "unknown detector 'ndwi'"),
        (lambda: serialize_detector_params("mf", target=np.ones(3)), "mf serialization requires statistics"),
        (lambda: SegMetrics(1, 0, -1, 0, 1.0, 1.0, 1.0), "confusion counts must be nonnegative"),
        (lambda: SegMetrics(1, 0, 0, 1, 1.0, 1.5, 1.0), "derived metrics must lie in [0, 1]"),
        (lambda: ErrorReport(0.5, 0.25, np.zeros(2), np.array([4]), 4), "mean absolute error cannot exceed the max"),
        (lambda: ErrorReport(0.0, 0.0, np.zeros(2), np.array([3]), 4), "histogram counts must sum to the sample count"),
    ],
    ids=["compare-shapes", "serialize-unknown", "serialize-mf-without-stats", "seg-negative-count",
         "seg-metric-range", "error-mean-above-max", "error-histogram-count"],
)
def test_each_check_raises_a_data_error(build, message):
    with pytest.raises(DataError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_bench_table_prints_megabytes():
    record = BenchRecord("a/mf", "a", "MF", 3 * 1024 * 1024 + 512 * 1024, 0.25, "4x4x3", 3)
    assert render_bench_table([record]).splitlines()[1].split() == ["a", "MF", "3.5", "MB", "0.2500"]


class TestMetricsTable:
    def test_schema_rows_and_columns(self):
        mask_a = mask_of([[1, 0], [0, 1]])
        mask_b = mask_of([[1, 1], [0, 0]])
        table = render_metrics_table(
            {
                "Clouds": seg_metrics(mask_a, mask_a),
                "SWE": seg_metrics(mask_a, mask_b),
                "Thermal": seg_metrics(mask_b, mask_b),
            }
        )
        lines = table.splitlines()
        assert lines[0].startswith("Application")
        assert "Clouds" in lines[0] and "SWE" in lines[0] and "Thermal" in lines[0]
        assert lines[1].startswith("Accuracy")
        assert lines[2].startswith("Positive IoU")
        assert lines[3].startswith("Negative IoU")
        assert len(lines) == 4
