"""Acceptance suite: one test per criterion, each printing a PASS line.

Reference accuracies and timings from published work measure trained CNNs on
flight data and accelerator hardware; they are not reproducible at desk
scale, so acceptance here is property- and oracle-based, with the reporting
schemas reproduced exactly (criterion 1).
"""

import json
import time

import numpy as np
import pytest

from specscan import (
    BinaryMask,
    PipelineConfig,
    RasterCube,
    StretchParams,
    band_quantiles,
    bench_detector,
    compare_paths,
    compute_scene_stats,
    detect_map,
    fit_clear_sky_line,
    mf,
    otsu_threshold,
    render_bench_table,
    render_metrics_table,
    rx,
    run_pipeline,
    sam,
    scene_stats_from_moments,
    seg_metrics,
    stretch_band,
)
from specscan.evaluation import render_error_report
from specscan.pipeline import SUMMARY_MAX_BYTES, summary_to_bytes
from conftest import random_cube, score_map
from oracles import (
    clear_sky_fit,
    confusion_loop,
    gauss_jordan_inverse,
    otsu_exhaustive,
    pixel_spectra,
    quantile_sorted,
)
from test_detectors import cube_from_pixels
from test_labeling import scene_with_planted_line
from test_pipeline import hazy_scene


def ok(number, message):
    print(f"ACCEPTANCE {number:2d} PASS - {message}")


def test_criterion_01_reporting_schemas_not_published_values():
    """Reported-value caveat: reproduce the reporting schemas, not the numbers."""
    mask_a = BinaryMask(data=np.array([[1, 0], [0, 1]], dtype=np.uint8))
    mask_b = BinaryMask(data=np.array([[1, 1], [0, 0]], dtype=np.uint8))
    metrics_table = render_metrics_table(
        {
            "Clouds": seg_metrics(mask_a, mask_a),
            "SWE": seg_metrics(mask_a, mask_b),
            "Thermal": seg_metrics(mask_b, mask_b),
        }
    )
    lines = metrics_table.splitlines()
    assert lines[0].split()[0] == "Application"
    assert "Clouds" in lines[0] and "SWE" in lines[0] and "Thermal" in lines[0]
    assert lines[1].startswith("Accuracy")
    assert lines[2].startswith("Positive IoU")
    assert lines[3].startswith("Negative IoU")
    assert len(lines) == 4
    rng = np.random.default_rng(0)
    cube = random_cube(rng, bands=4, height=8, width=8, roles=False)
    record = bench_detector(cube, "rx", repetitions=3, application="vegetation")
    header = render_bench_table([record]).splitlines()[0]
    for column in ("Application", "Model", "Model Size", "Execution Time (s)"):
        assert column in header
    ok(1, "metric and benchmark reporting schemas reproduced; published values not asserted")


def test_criterion_02_detector_oracle_equivalence():
    """MF and RX via triangular solves match an explicit-inverse oracle, 100+ scenes, < 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    scenes = 0
    for _ in range(100):
        bands = int(rng.integers(2, 7))
        n_pixels = int(rng.integers(bands + 2, 1001))
        cube = cube_from_pixels(rng.random((n_pixels, bands)), width=n_pixels)
        stats = compute_scene_stats(cube)
        inverse = gauss_jordan_inverse(stats.covariance + stats.ridge * np.eye(bands))
        target = rng.random(bands) + 0.1
        deviations = pixel_spectra(cube).astype(np.float64) - stats.mean
        t_dev = target - stats.mean
        mf_oracle = (deviations @ inverse @ t_dev) / float(t_dev @ inverse @ t_dev)
        rx_oracle = np.einsum("ij,ij->i", deviations @ inverse, deviations)
        mf_map = detect_map(cube, "mf", target=target, stats=stats, precision="double")
        rx_map = detect_map(cube, "rx", stats=stats, precision="double")
        np.testing.assert_allclose(mf_map.data.ravel(), mf_oracle, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(rx_map.data.ravel(), rx_oracle, rtol=1e-9, atol=1e-12)
        scenes += 1
    elapsed = time.perf_counter() - start
    assert scenes >= 100
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    ok(2, f"{scenes} scenes matched the explicit-inverse oracle at 1e-9 in {elapsed:.2f}s")


def test_criterion_03_analytic_identities():
    """sam/mf/rx identities over randomized inputs at their stated tolerances."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.random(int(rng.integers(2, 9))) + 0.05
        assert abs(sam(x, x)) <= 1e-12
        scale_a, scale_b = rng.uniform(0.01, 50, size=2)
        y = rng.random(x.size) + 0.05
        assert abs(sam(scale_a * x, scale_b * y) - sam(x, y)) <= 1e-12
        u = rng.standard_normal(x.size)
        v = rng.standard_normal(x.size)
        v -= (v @ u) / (u @ u) * u
        assert abs(sam(u, v) - np.pi / 2) <= 1e-12
    for _ in range(25):
        bands = int(rng.integers(2, 7))
        pixels = rng.random((int(rng.integers(bands + 2, 200)), bands))
        stats = compute_scene_stats(cube_from_pixels(pixels, width=1))
        target = rng.random(bands) + 0.5
        assert abs(mf(target, target, stats) - 1.0) <= 1e-9
        assert abs(mf(stats.mean, target, stats)) <= 1e-9
        assert rx(stats.mean, stats) <= 1e-12
        identity_stats = scene_stats_from_moments(rng.random(bands), np.eye(bands))
        probe = rng.standard_normal(bands)
        deviation = probe - identity_stats.mean
        assert abs(rx(probe, identity_stats) - float(deviation @ deviation)) <= 1e-12 * max(
            1.0, float(deviation @ deviation)
        )
    ok(3, "sam/mf/rx analytic identities hold at 1e-12 / 1e-9 over randomized inputs")


def test_criterion_04_otsu_optimality():
    """Otsu threshold equals exhaustive search over all 256 bin edges, 50+ maps."""
    rng = np.random.default_rng(404)
    checked = 0
    for i in range(50):
        if i < 3:
            n = 100_000
        else:
            n = int(rng.integers(500, 30_000))
        kind = i % 3
        if kind == 0:
            values = rng.standard_normal(n)
        elif kind == 1:
            values = np.concatenate(
                [rng.normal(0.0, 1.0, n // 2), rng.normal(float(rng.uniform(2, 9)), 1.0, n - n // 2)]
            )
        else:
            values = rng.integers(0, 40, n).astype(np.float64)
        if values.min() == values.max():
            continue
        result = otsu_threshold(score_map(values), bins=256)
        _, threshold, variance = otsu_exhaustive(values, 256)
        assert result.threshold == threshold
        assert result.inter_class_variance >= variance - 1e-12 * max(1.0, variance)
        checked += 1
    assert checked >= 50
    ok(4, f"{checked} randomized score maps: threshold equals the exhaustive-search optimum")


def test_criterion_05_clear_sky_line_recovery():
    """Exact-line recovery within 1e-9; full procedure matches an independent oracle at 1e-10."""
    cube = scene_with_planted_line(slope=2.0, intercept=0.0625)
    line = fit_clear_sky_line(cube)
    assert abs(line.slope - 2.0) <= 1e-9
    assert abs(line.intercept - 0.0625) <= 1e-9

    rng = np.random.default_rng(55)
    from specscan import BandMeta

    for _ in range(10):
        height = int(rng.integers(50, 100))
        width = int(rng.integers(50, 120))
        blue = rng.random((height, width), dtype=np.float32)
        red = (0.7 * blue + 0.15 + 0.04 * rng.standard_normal((height, width))).astype(np.float32)
        cube = RasterCube(
            data=np.stack([blue, red]),
            band_meta=[BandMeta(name="b", role="blue"), BandMeta(name="r", role="red")],
        )
        got = fit_clear_sky_line(cube)
        slope, intercept, n_points, _ = clear_sky_fit(
            cube.plane("blue").astype(np.float64), cube.plane("red").astype(np.float64)
        )
        assert got.n_fit_points == n_points
        assert abs(got.slope - slope) <= 1e-10 * max(1.0, abs(slope))
        assert abs(got.intercept - intercept) <= 1e-10 * max(1.0, abs(intercept))
    ok(5, "clear-sky line: exact-line recovery at 1e-9 and oracle agreement at 1e-10")


def test_criterion_06_stretch_properties():
    """Range, monotonicity, exact endpoints, degenerate rule, quantile oracle at 1e-12."""
    rng = np.random.default_rng(66)
    for _ in range(40):
        v_min = float(rng.uniform(-1, 0.5))
        v_max = v_min + float(rng.uniform(0.2, 2.0))
        params = StretchParams(v_min=v_min, v_max=v_max)
        n = int(rng.integers(2, 5000))
        plane = (rng.standard_normal(n) * rng.uniform(0.5, 20)).reshape(1, -1)
        fractions = (0.01, 0.99)
        q_low, q_high = band_quantiles(plane, fractions=fractions)
        for got, fraction in ((q_low, 0.01), (q_high, 0.99)):
            want = quantile_sorted(plane.ravel(), fraction)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        out = stretch_band(plane, params, q_low, q_high).ravel()
        assert out.min() >= v_min and out.max() <= v_max
        order = np.argsort(plane.ravel(), kind="stable")
        assert (np.diff(out[order]) >= 0).all()
        if q_low < q_high:
            assert stretch_band(np.array([[q_low]]), params, q_low, q_high)[0, 0] == v_min
            assert stretch_band(np.array([[q_high]]), params, q_low, q_high)[0, 0] == v_max
        constant = np.full((1, 7), float(rng.uniform(-5, 5)))
        degenerate = stretch_band(constant, params, constant[0, 0], constant[0, 0])
        assert (degenerate == v_min).all()
    ok(6, "stretch range/monotonicity/endpoints/degenerate rule hold; quantiles match sort oracle")


def test_criterion_07_dual_precision_validation():
    """Single vs double precision maps: mean |err| < 1e-5, max < 1e-3, histogram rendered."""
    rng = np.random.default_rng(77)
    worst_mean = 0.0
    worst_max = 0.0
    for scene_index in range(5):
        cube = random_cube(rng, bands=int(rng.integers(3, 7)), height=32, width=32, roles=False)
        target = rng.random(cube.bands) + 0.2
        stats = compute_scene_stats(cube)
        for detector in ("sam", "mf", "rx"):
            kwargs = {}
            if detector in ("sam", "mf"):
                kwargs["target"] = target
            if detector in ("mf", "rx"):
                kwargs["stats"] = stats
            single = detect_map(cube, detector, precision="single", **kwargs)
            double = detect_map(cube, detector, precision="double", **kwargs)
            report = compare_paths(single, double, bins=24)
            assert report.mean_abs_error < 1e-5, detector
            assert report.max_abs_error < 1e-3, detector
            worst_mean = max(worst_mean, report.mean_abs_error)
            worst_max = max(worst_max, report.max_abs_error)
            rendering = render_error_report(report)
            assert rendering.count("\n") >= 24, "histogram rows must render"
            assert int(report.histogram_counts.sum()) == report.n
    ok(7, f"dual-precision deltas: worst mean {worst_mean:.2e} < 1e-5, worst max {worst_max:.2e} < 1e-3")


def test_criterion_08_metrics_oracle():
    """seg_metrics equals brute-force counting exactly, up to 10^6 pixels."""
    pred = BinaryMask(data=np.array([[1, 1], [0, 0]], dtype=np.uint8))
    truth = BinaryMask(data=np.array([[1, 0], [1, 0]], dtype=np.uint8))
    metrics = seg_metrics(pred, truth)
    assert metrics.accuracy == 0.5
    assert metrics.positive_iou == pytest.approx(1 / 3, abs=0)
    assert metrics.negative_iou == pytest.approx(1 / 3, abs=0)
    assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (1, 1, 1, 1)

    rng = np.random.default_rng(88)
    big_pred = (rng.random((1000, 1000)) > 0.5).astype(np.uint8)
    big_truth = (rng.random((1000, 1000)) > 0.5).astype(np.uint8)
    got = seg_metrics(BinaryMask(data=big_pred), BinaryMask(data=big_truth))
    tp, fp, fn, tn = confusion_loop(big_pred, big_truth)
    assert (got.tp, got.fp, got.fn, got.tn) == (tp, fp, fn, tn)
    assert got.accuracy == (tp + tn) / 1_000_000
    ok(8, "seg_metrics equals brute-force counting exactly on 10^6 pixels and the 2x2 case")


def test_criterion_09_pipeline_determinism(tmp_path):
    """Two identical pipeline runs: bit-identical mask/score, summary stable, <= 2048 bytes."""
    cube = hazy_scene(seed=99)
    summaries = []
    for name in ("first", "second"):
        config = PipelineConfig(application="clouds", scene_id="det", output_dir=tmp_path / name)
        result = run_pipeline(cube, config)
        assert result.summary.positive_count == result.mask.positive_count()
        assert len(summary_to_bytes(result.summary)) <= SUMMARY_MAX_BYTES
        summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
    assert (tmp_path / "first" / "mask.pgm").read_bytes() == (tmp_path / "second" / "mask.pgm").read_bytes()
    assert (tmp_path / "first" / "score.raw").read_bytes() == (tmp_path / "second" / "score.raw").read_bytes()
    for summary in summaries:
        summary.pop("produced_at")
    assert summaries[0] == summaries[1]
    ok(9, "pipeline runs are bit-identical (timestamp aside); summary counts match the mask")


def test_criterion_10_bench_harness():
    """Bench table with the four required columns from live 128x128x48 runs, < 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    cube = random_cube(rng, bands=48, height=128, width=128, roles=False)
    target = rng.random(48) + 0.1
    stats = compute_scene_stats(cube)
    records = []
    for detector in ("sam", "mf", "rx"):
        records.append(
            bench_detector(
                cube,
                detector,
                target=target if detector in ("sam", "mf") else None,
                stats=stats if detector in ("mf", "rx") else None,
                repetitions=3,
                application="synthetic",
            )
        )
    table = render_bench_table(records)
    elapsed = time.perf_counter() - start
    header, *rows = table.splitlines()
    for column in ("Application", "Model", "Model Size", "Execution Time (s)"):
        assert column in header
    assert len(rows) == 3
    assert all(record.single_input_seconds > 0 for record in records)
    assert {record.model for record in records} == {"SAM", "MF", "RX"}
    assert elapsed < 60.0, f"bench took {elapsed:.1f}s"
    ok(10, f"bench harness rendered 3 live rows with the required columns in {elapsed:.1f}s")
