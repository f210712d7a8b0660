import json
from dataclasses import fields

import numpy as np
import pytest

from specscan import (
    BandMeta,
    BinaryMask,
    ConfigError,
    DataError,
    FormatError,
    PipelineConfig,
    RasterCube,
    StageError,
    SummaryMessage,
    TargetSpectrum,
    build_summary,
    connected_boxes,
    emit_summary,
    parse_summary,
    run_pipeline,
)
from specscan.pipeline import (
    APPLICATIONS,
    MAX_DETECTION_BOXES,
    SUMMARY_MAX_BYTES,
    Application,
    summary_to_bytes,
)
from oracles import flood_fill_boxes

RGBN_META = [
    BandMeta(name="b", role="blue"),
    BandMeta(name="g", role="green"),
    BandMeta(name="r", role="red"),
    BandMeta(name="n", role="nir"),
]


def hazy_scene(height=64, width=64, seed=0):
    """Clear background on a red/blue line, with a hazy top-left quadrant.

    The quadrant's blue channel is lifted well off the clear-sky relation, so
    a haze score thresholded by Otsu should label exactly that quadrant.
    """
    rng = np.random.default_rng(seed)
    blue = 0.05 + 0.2 * rng.random((height, width))
    red = 0.9 * blue + 0.02 + 0.001 * rng.random((height, width))
    green = 0.3 + 0.1 * rng.random((height, width))
    nir = 0.3 + 0.1 * rng.random((height, width))
    quad = (slice(0, height // 2), slice(0, width // 2))
    gradient = np.linspace(0.3, 0.45, width // 2)
    blue[quad] = blue[quad] + gradient
    data = np.stack([blue, green, red, nir]).astype(np.float32)
    return RasterCube(data=data, band_meta=list(RGBN_META))


def water_scene(height=32, width=32, seed=1):
    """Green > NIR on the left half, reversed on the right."""
    rng = np.random.default_rng(seed)
    green = np.empty((height, width))
    nir = np.empty((height, width))
    half = width // 2
    green[:, :half] = 0.55 + 0.05 * rng.random((height, half))
    nir[:, :half] = 0.15 + 0.05 * rng.random((height, half))
    green[:, half:] = 0.15 + 0.05 * rng.random((height, width - half))
    nir[:, half:] = 0.55 + 0.05 * rng.random((height, width - half))
    blue = 0.2 + 0.05 * rng.random((height, width))
    red = 0.2 + 0.05 * rng.random((height, width))
    data = np.stack([blue, green, red, nir]).astype(np.float32)
    return RasterCube(data=data, band_meta=list(RGBN_META))


def structured_masks():
    """Shapes random masks do not reach: long chains of runs, merges late in the scan."""
    comb = np.zeros((12, 25), dtype=np.uint8)
    comb[:, ::2] = 1
    comb[-1] = 1  # the teeth join only on the bottom row
    snake = np.zeros((13, 20), dtype=np.uint8)
    snake[::2] = 1
    snake[1::4, -1] = 1
    snake[3::4, 0] = 1
    spiral = np.zeros((21, 21), dtype=np.uint8)
    for k in range(0, 10, 2):
        spiral[k, k:21 - k] = 1
        spiral[k:21 - k, 20 - k] = 1
        spiral[20 - k, k:21 - k] = 1
        spiral[k + 2:21 - k, k] = 1
        spiral[k + 2, k + 1] = 1  # steps in to the next ring
    checkerboard = (np.add.outer(np.arange(10), np.arange(11)) % 2).astype(np.uint8)
    return [comb, comb[::-1], snake, spiral, np.ones((9, 14), dtype=np.uint8), checkerboard]


class TestConnectedBoxes:
    def test_empty_mask(self):
        mask = BinaryMask(data=np.zeros((4, 4), dtype=np.uint8))
        assert connected_boxes(mask) == []

    def test_single_pixel(self):
        data = np.zeros((6, 6), dtype=np.uint8)
        data[4, 3] = 1
        assert connected_boxes(BinaryMask(data=data)) == [(3, 4, 1, 1)]

    def test_two_blobs_match_flood_fill(self):
        data = np.zeros((8, 8), dtype=np.uint8)
        data[1:3, 1:3] = 1
        data[5:7, 4:6] = 1
        boxes = connected_boxes(BinaryMask(data=data))
        oracle = [box for _, box in flood_fill_boxes(data)]
        assert boxes == oracle
        assert len(boxes) == 2

    def test_randomized_against_flood_fill(self):
        rng = np.random.default_rng(27)
        masks = [(rng.random((12, 16)) > 0.7).astype(np.uint8) for _ in range(10)]
        masks += [(rng.random(shape) > 0.5).astype(np.uint8) for shape in ((1, 40), (40, 1))]
        for data in masks + structured_masks():
            boxes = connected_boxes(BinaryMask(data=data), max_boxes=16)
            oracle = [box for _, box in flood_fill_boxes(data)][:16]
            assert boxes == oracle

    def test_truncation_keeps_largest(self):
        data = np.zeros((5, 12), dtype=np.uint8)
        data[0, 0:4] = 1    # 4 px
        data[2, 0:2] = 1    # 2 px
        data[4, 6] = 1      # 1 px
        boxes = connected_boxes(BinaryMask(data=data), max_boxes=2)
        assert boxes == [(0, 0, 4, 1), (0, 2, 2, 1)]

    def test_size_ties_rank_by_box_not_label_order(self):
        data = np.zeros((5, 16), dtype=np.uint8)
        data[0:2, 1:11] = 1  # A: 20 px, labelled first, left edge 1
        data[0:4, 15] = 1    # B: 20 px, left edge 0
        data[4, :] = 1
        boxes = connected_boxes(BinaryMask(data=data))
        assert boxes == [(0, 0, 16, 5), (1, 0, 10, 2)]
        assert boxes == [box for _, box in flood_fill_boxes(data)]

    def test_diagonal_not_connected(self):
        data = np.zeros((3, 3), dtype=np.uint8)
        data[0, 0] = 1
        data[1, 1] = 1
        assert len(connected_boxes(BinaryMask(data=data))) == 2

    @pytest.mark.parametrize("max_boxes", [0, -1])
    def test_max_boxes_below_one_is_rejected(self, max_boxes):
        data = np.zeros((5, 5), dtype=np.uint8)
        data[0, 0] = data[2, 2] = data[4, 4] = 1
        with pytest.raises(ConfigError, match="max_boxes"):
            connected_boxes(BinaryMask(data=data), max_boxes)


class TestSummaryMessage:
    def make_message(self, boxes=(), scene_id="s1", pixel_count=100, positive=25):
        return SummaryMessage(
            scene_id=scene_id,
            application="clouds",
            pixel_count=pixel_count,
            positive_count=positive,
            positive_fraction=positive / pixel_count,
            threshold=0.5,
            detection_boxes=list(boxes),
            produced_at="2026-01-01T00:00:00+00:00",
            algorithm="hot[as_written]+otsu",
            version="0.1.0",
        )

    def test_minimal_message_under_512_bytes(self, tmp_path):
        message = self.make_message()
        emit_summary(message, tmp_path / "sum.json")
        assert (tmp_path / "sum.json").stat().st_size < 512

    def test_sixteen_boxes_within_cap(self, tmp_path):
        boxes = [(i * 60, i * 55, 123, 456) for i in range(16)]
        message = self.make_message(boxes=boxes, pixel_count=10_000_000, positive=9_999_999)
        emit_summary(message, tmp_path / "sum.json")
        assert (tmp_path / "sum.json").stat().st_size <= SUMMARY_MAX_BYTES

    def test_round_trip_exact(self, tmp_path):
        message = self.make_message(boxes=[(1, 2, 3, 4), (5, 6, 7, 8)])
        emit_summary(message, tmp_path / "sum.json")
        assert parse_summary(tmp_path / "sum.json") == message

    def test_oversized_summary_rejected(self, tmp_path):
        message = self.make_message(scene_id="x" * 3000)
        with pytest.raises(DataError, match="cap"):
            emit_summary(message, tmp_path / "sum.json")

    def test_key_order_fixed(self):
        blob = summary_to_bytes(self.make_message())
        keys = list(json.loads(blob))
        assert keys == [
            "scene_id",
            "application",
            "pixel_count",
            "positive_count",
            "positive_fraction",
            "threshold",
            "detection_boxes",
            "produced_at",
            "algorithm",
            "version",
        ]

    def test_parse_non_json_is_format_error(self, tmp_path):
        (tmp_path / "sum.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(FormatError, match="malformed summary"):
            parse_summary(tmp_path / "sum.json")

    def test_parse_missing_key_is_format_error(self, tmp_path):
        payload = json.loads(summary_to_bytes(self.make_message()))
        del payload["threshold"]
        (tmp_path / "sum.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match="threshold"):
            parse_summary(tmp_path / "sum.json")

    def test_parse_extra_key_is_format_error(self, tmp_path):
        payload = json.loads(summary_to_bytes(self.make_message()))
        payload["priority"] = 1
        (tmp_path / "sum.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match="priority"):
            parse_summary(tmp_path / "sum.json")

    def test_fraction_must_match(self):
        with pytest.raises(DataError, match="fraction"):
            SummaryMessage(
                scene_id="s",
                application="clouds",
                pixel_count=10,
                positive_count=5,
                positive_fraction=0.2,
                threshold=0.0,
                detection_boxes=[],
                produced_at="t",
                algorithm="a",
                version="v",
            )

    def test_build_summary_counts(self):
        data = np.zeros((10, 10), dtype=np.uint8)
        data[2:4, 2:4] = 1
        message = build_summary(
            BinaryMask(data=data), application="clouds", scene_id="s", threshold=0.1, algorithm="x"
        )
        assert message.positive_count == 4
        assert message.pixel_count == 100
        assert message.detection_boxes == [(2, 2, 2, 2)]


class TestRunPipeline:
    def test_clouds_labels_hazy_quadrant(self, tmp_path):
        cube = hazy_scene()
        config = PipelineConfig(application="clouds", scene_id="haze", output_dir=tmp_path / "run")
        result = run_pipeline(cube, config)
        assert result.summary.positive_fraction == pytest.approx(0.25, abs=0.05)
        quadrant = result.mask.data[:32, :32]
        assert quadrant.mean() > 0.95, "hazy quadrant should be labeled"
        assert result.mask.data[32:, 32:].mean() < 0.05
        assert (tmp_path / "run" / "report.json").exists()
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert "clear_sky_line" in report["diagnostics"]
        assert "otsu" in report["diagnostics"]

    def test_surface_water_labels_left_half(self):
        cube = water_scene()
        config = PipelineConfig(application="surface_water", scene_id="water")
        result = run_pipeline(cube, config)
        np.testing.assert_array_equal(result.mask.data[:, :16], 1)
        np.testing.assert_array_equal(result.mask.data[:, 16:], 0)
        assert result.scores.score_kind == "NDWI"

    def test_thermal_fixed_band_threshold(self):
        rng = np.random.default_rng(3)
        nir = 0.1 + 0.2 * rng.random((16, 16))
        nir[5:8, 5:8] = 0.95
        data = np.stack([np.full((16, 16), 0.2), np.full((16, 16), 0.2), np.full((16, 16), 0.2), nir])
        cube = RasterCube(data=data.astype(np.float32), band_meta=list(RGBN_META))
        config = PipelineConfig(
            application="thermal", stretch=None, thermal_band="nir", thermal_low=0.8
        )
        result = run_pipeline(cube, config)
        expected = np.zeros((16, 16), dtype=np.uint8)
        expected[5:8, 5:8] = 1
        np.testing.assert_array_equal(result.mask.data, expected)
        assert result.summary.threshold == 0.8
        assert result.scores.score_kind == "BandValue"

    def test_detector_application_runs(self):
        rng = np.random.default_rng(8)
        data = (0.3 + 0.1 * rng.random((4, 20, 20))).astype(np.float32)
        data[:, 4:6, 4:6] += 0.4
        cube = RasterCube(data=data, band_meta=list(RGBN_META))
        config = PipelineConfig(application="vegetation_rx", scene_id="rx")
        result = run_pipeline(cube, config)
        assert result.scores.score_kind == "RX"
        assert result.summary.positive_count == result.mask.positive_count()
        assert result.report["diagnostics"]["scene_stats"]["pixel_count"] == 400

    def test_sam_applications_compute_no_scene_stats(self, monkeypatch):
        import specscan.detectors as detectors_module
        import specscan.pipeline as pipeline_module

        def no_stats(*args, **kwargs):
            raise AssertionError("SAM does not use scene statistics")

        monkeypatch.setattr(pipeline_module, "compute_scene_stats", no_stats)
        monkeypatch.setattr(detectors_module, "compute_scene_stats", no_stats)
        target = TargetSpectrum(label="t", values=np.array([0.2, 0.6, 0.2, 0.1]))
        for application in ("vegetation_sam", "mineral_sam"):
            result = run_pipeline(water_scene(), PipelineConfig(application=application, target=target))
            assert result.scores.score_kind == "SAM"
            assert "scene_stats" not in result.report["diagnostics"]

    def test_mf_without_target_fails_before_compute(self, tmp_path):
        cube = water_scene()
        out = tmp_path / "nothing"
        config = PipelineConfig(application="vegetation_mf", output_dir=out)
        with pytest.raises(ConfigError, match="target"):
            run_pipeline(cube, config)
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        cube = hazy_scene(seed=5)
        runs = []
        for name in ("one", "two"):
            config = PipelineConfig(
                application="clouds", scene_id="same", output_dir=tmp_path / name
            )
            runs.append(run_pipeline(cube, config))
        mask_a = (tmp_path / "one" / "mask.pgm").read_bytes()
        mask_b = (tmp_path / "two" / "mask.pgm").read_bytes()
        assert mask_a == mask_b
        score_a = (tmp_path / "one" / "score.raw").read_bytes()
        score_b = (tmp_path / "two" / "score.raw").read_bytes()
        assert score_a == score_b
        summary_a = json.loads((tmp_path / "one" / "summary.json").read_text())
        summary_b = json.loads((tmp_path / "two" / "summary.json").read_text())
        summary_a.pop("produced_at")
        summary_b.pop("produced_at")
        assert summary_a == summary_b

    def test_summary_consistent_with_mask(self, tmp_path):
        cube = water_scene(seed=9)
        config = PipelineConfig(application="surface_water", output_dir=tmp_path / "w")
        result = run_pipeline(cube, config)
        assert result.summary.positive_count == result.mask.positive_count()
        assert len(summary_to_bytes(result.summary)) <= SUMMARY_MAX_BYTES

    def test_stage_failure_leaves_no_partial_outputs(self, tmp_path, monkeypatch):
        cube = water_scene(seed=11)
        out = tmp_path / "partial"
        config = PipelineConfig(application="surface_water", output_dir=out)

        import specscan.pipeline as pipeline_module

        def boom(message, path):
            raise DataError("forced failure after earlier writes")

        monkeypatch.setattr(pipeline_module, "emit_summary", boom)
        with pytest.raises(Exception, match="forced failure"):
            run_pipeline(cube, config)
        leftovers = list(out.glob("*")) if out.exists() else []
        assert leftovers == []

    @pytest.mark.parametrize("failure", ["forced", "oversize"])
    def test_failed_rerun_keeps_the_previous_run(self, tmp_path, monkeypatch, failure):
        out = tmp_path / "run"
        run_pipeline(water_scene(seed=11), PipelineConfig(application="surface_water", output_dir=out))
        first = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(first) == ["mask.pgm", "report.json", "score.json", "score.raw", "summary.json"]

        rerun = PipelineConfig(application="surface_water", output_dir=out)
        if failure == "forced":
            import specscan.pipeline as pipeline_module

            def boom(message, path):
                raise DataError("forced failure after earlier writes")

            monkeypatch.setattr(pipeline_module, "emit_summary", boom)
        else:
            rerun.scene_id = "s" * 2100
        with pytest.raises(StageError) as excinfo:
            run_pipeline(water_scene(seed=12), rerun)
        assert excinfo.value.stage == "write"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_stage_attribution(self):
        # clouds needs blue/red; a cube without them fails in the score stage
        rng = np.random.default_rng(12)
        cube = RasterCube(data=rng.random((2, 8, 8), dtype=np.float32))
        config = PipelineConfig(application="clouds")
        from specscan import StageError

        with pytest.raises(StageError) as excinfo:
            run_pipeline(cube, config)
        assert excinfo.value.stage == "score"

    def test_mf_application_with_target(self):
        rng = np.random.default_rng(21)
        background = 0.3 + 0.05 * rng.random((4, 24, 24))
        data = background.astype(np.float32)
        cube = RasterCube(data=data, band_meta=list(RGBN_META))
        target = TargetSpectrum(label="veg", values=np.array([0.1, 0.2, 0.15, 0.8]))
        config = PipelineConfig(application="mineral_mf", target=target, precision="double")
        result = run_pipeline(cube, config)
        assert result.scores.score_kind == "MF"
        assert result.summary.algorithm == "mf+otsu"

    def test_band_window_rejects_fixed_threshold(self):
        cube = water_scene()
        config = PipelineConfig(application="thermal", thermal_low=0.5, fixed_threshold=0.1)
        with pytest.raises(ConfigError, match="fixed_threshold"):
            run_pipeline(cube, config)

    def test_threshold_policy_comes_from_the_table(self, monkeypatch):
        # a new band-window entry gets the same checks as the built-in one
        entry = Application(APPLICATIONS["thermal"].score, command="threshold", band_window=True)
        monkeypatch.setitem(APPLICATIONS, "snowline", entry)
        with pytest.raises(ConfigError, match="fixed_threshold"):
            PipelineConfig(application="snowline", thermal_low=0.5, fixed_threshold=0.1).validate()
        with pytest.raises(ConfigError, match="bound"):
            PipelineConfig(application="snowline").validate()
        result = run_pipeline(water_scene(), PipelineConfig(application="snowline", stretch=None, thermal_low=0.5))
        assert result.summary.algorithm == "band_threshold"
        assert result.summary.threshold == 0.5

    def test_report_echoes_the_whole_config(self, tmp_path):
        target = TargetSpectrum(label="veg", values=np.array([0.2, 0.3, 0.4, 0.5]), source="lib.csv")
        config = PipelineConfig(application="vegetation_sam", target=target, output_dir=tmp_path / "r")
        run_pipeline(water_scene(), config)
        echo = json.loads((tmp_path / "r" / "report.json").read_text())["config"]
        assert echo["target"]["values"] == [0.2, 0.3, 0.4, 0.5]
        assert echo["stretch"] == {"v_min": 0.0, "v_max": 1.0, "q_low_fraction": 0.01, "q_high_fraction": 0.99}
        assert echo["output_dir"] == str(tmp_path / "r")
        assert set(echo) == {field.name for field in fields(PipelineConfig)}

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"application": "earthquakes"}, "application"),
            ({"hot_mode": "bogus"}, "HOT mode"),
            ({"precision": "quad"}, "precision"),
            ({"otsu_bins": 1}, "otsu_bins"),
            ({"max_boxes": 0}, "max_boxes"),
            ({"max_boxes": MAX_DETECTION_BOXES + 1}, "max_boxes"),
            ({"application": "thermal", "thermal_low": 0.7, "thermal_high": 0.2}, "exceeds"),
        ],
        ids=["application", "hot-mode", "precision", "otsu-bins", "no-boxes", "too-many-boxes", "inverted-window"],
    )
    def test_invalid_config(self, fields, message):
        config = PipelineConfig(**{"application": "surface_water", **fields})
        with pytest.raises(ConfigError, match=message):
            run_pipeline(water_scene(), config)

    def test_other_exceptions_leave_the_stage_unwrapped(self, monkeypatch):
        import specscan.pipeline as pipeline_module

        def broken(scene):
            raise ValueError("not a package error")

        monkeypatch.setattr(pipeline_module, "ndwi", broken)
        with pytest.raises(ValueError, match="not a package error") as excinfo:
            run_pipeline(water_scene(), PipelineConfig(application="surface_water"))
        assert type(excinfo.value) is ValueError

    def test_sam_application_labels_matching_pixels(self):
        # left half points along the target in band space, right half along a
        # very different direction; small angles must come out as label 1
        rng = np.random.default_rng(31)
        height, width = 20, 24
        target_dir = np.array([0.1, 0.6, 0.2, 0.9])
        other_dir = np.array([0.9, 0.1, 0.8, 0.05])
        data = np.empty((4, height, width), dtype=np.float32)
        half = width // 2
        scale = 0.5 + 0.4 * rng.random((height, width))
        for band in range(4):
            data[band, :, :half] = (scale[:, :half] * target_dir[band]).astype(np.float32)
            data[band, :, half:] = (scale[:, half:] * other_dir[band]).astype(np.float32)
        cube = RasterCube(data=data, band_meta=list(RGBN_META))
        target = TargetSpectrum(label="t", values=target_dir)
        config = PipelineConfig(application="vegetation_sam", target=target, stretch=None)
        result = run_pipeline(cube, config)
        assert result.scores.score_kind == "SAM"
        np.testing.assert_array_equal(result.mask.data[:, :half], 1)
        np.testing.assert_array_equal(result.mask.data[:, half:], 0)
        assert result.summary.algorithm == "sam+otsu"

    def test_fixed_threshold_skips_otsu(self):
        cube = water_scene(seed=13)
        config = PipelineConfig(
            application="surface_water", fixed_threshold=0.0, stretch=None
        )
        result = run_pipeline(cube, config)
        assert result.summary.threshold == 0.0
        assert result.summary.algorithm == "ndwi+fixed"
        assert "otsu" not in result.report["diagnostics"]
        np.testing.assert_array_equal(result.mask.data[:, :16], 1)
