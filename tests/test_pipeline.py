import json
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, replace

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
    ScoreMap,
    StageError,
    StretchParams,
    SummaryMessage,
    TargetSpectrum,
    build_summary,
    connected_boxes,
    emit_summary,
    load_cube,
    parse_summary,
    run_pipeline,
    save_cube,
    save_mask,
    save_score_map,
    stretch_cube,
)
from specscan import labeling, pipeline
from specscan.pipeline import (
    APPLICATIONS,
    MAX_DETECTION_BOXES,
    SUMMARY_MAX_BYTES,
    Application,
    emit_summary,
    summary_to_bytes,
)
from oracles import flood_fill_boxes

RGBN_META = [
    BandMeta(name="b", role="blue"),
    BandMeta(name="g", role="green"),
    BandMeta(name="r", role="red"),
    BandMeta(name="n", role="nir"),
]


def on_grid(cube, wavelengths):
    """`cube` with its bands at `wavelengths` (nm)."""
    meta = [replace(m, wavelength_nm=wl) for m, wl in zip(cube.band_meta, wavelengths)]
    return RasterCube(data=cube.data, band_meta=meta, nodata=cube.nodata)


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


def overlap_masks():
    """16-wide masks for both ways of finding the runs above: dense noise, sparse strips, and both."""
    rng = np.random.default_rng(29)
    noise = (rng.random((13, 16)) < 0.5).astype(np.uint8)
    strips = np.zeros((24, 16), dtype=np.uint8)
    strips[2:9, 1:15] = 1
    strips[11, :] = 1
    strips[12:22, 3:5] = strips[12:22, 9:16] = 1  # two legs hanging from the row-11 strip
    strips[21, 3:16] = 1  # which close into a ring
    # Noise above a few long runs: with 2- and 5-row blocks the noise blocks
    # count edges and those below search, and runs join across that change.
    mixed = np.zeros((20, 16), dtype=np.uint8)
    mixed[:10] = rng.random((10, 16)) < 0.5
    mixed[10:, 2:14] = 1
    mixed[15, :] = 0
    return {"noise": noise, "strips": strips, "mixed": mixed}


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

    @pytest.mark.parametrize("shape", ["noise", "comb"])
    def test_peak_is_a_few_arrays_per_run(self, shape):
        # Each per-run array is freed once dead: the peak stays below eleven
        # 8-byte values per run, the mask's own bool planes included.
        if shape == "noise":
            data = (np.random.default_rng(65).random((512, 512)) < 0.5).astype(np.uint8)
        else:
            data = np.zeros((256, 512), dtype=np.uint8)
            data[:, ::2] = 1
            data[-1] = 1  # one component, chains of runs 255 deep
        mask = BinaryMask(data=data)
        runs = int(np.count_nonzero(np.diff(data, axis=1, prepend=0, append=0) == 1))
        tracemalloc.start()
        try:
            connected_boxes(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 8 * runs

    @pytest.mark.parametrize("block_bytes", [1, 40, 100])
    def test_row_blocks_do_not_change_the_boxes(self, monkeypatch, block_bytes):
        # 1 byte still takes one row per block; 40 and 100 split 16-wide rows
        # into blocks of 2 and 5 rows
        monkeypatch.setattr("specscan.pipeline._EDGE_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(28)
        masks = [(rng.random((13, 16)) > 0.6).astype(np.uint8) for _ in range(10)]
        for data in masks + structured_masks():
            boxes = connected_boxes(BinaryMask(data=data), max_boxes=16)
            assert boxes == [box for _, box in flood_fill_boxes(data)][:16]

    @pytest.mark.parametrize("max_boxes", [1, 3, 16])
    @pytest.mark.parametrize("block_bytes", [1, 40, 100, pipeline._EDGE_BLOCK_BYTES])
    @pytest.mark.parametrize(
        "positions_per_edge", [0, pipeline._COUNT_EDGE_POSITIONS, 10**9], ids=["search", "crossover", "count"]
    )
    @pytest.mark.parametrize("shape", ["noise", "strips", "mixed"])
    def test_both_overlap_paths_match_flood_fill(self, monkeypatch, shape, positions_per_edge, block_bytes, max_boxes):
        # 0 sends every block to the binary search and 10**9 every block with
        # an edge to the running count; the module's crossover sends each
        # block its own way.
        monkeypatch.setattr("specscan.pipeline._COUNT_EDGE_POSITIONS", positions_per_edge)
        monkeypatch.setattr("specscan.pipeline._EDGE_BLOCK_BYTES", block_bytes)
        data = overlap_masks()[shape]
        boxes = connected_boxes(BinaryMask(data=data), max_boxes=max_boxes)
        assert boxes == [box for _, box in flood_fill_boxes(data)][:max_boxes]

    @pytest.mark.parametrize("block_bytes", [40, 100])
    def test_the_mixed_mask_changes_path_between_blocks(self, block_bytes):
        # Each block of rows counts its edges when it holds at least one per
        # _COUNT_EDGE_POSITIONS positions of its plane, else it searches.
        data = overlap_masks()["mixed"]
        stride = data.shape[1] + 1
        block_rows = block_bytes // stride
        edges = np.diff(data, axis=1, prepend=0, append=0) != 0
        dense = [
            np.count_nonzero(edges[top : top + block_rows]) * pipeline._COUNT_EDGE_POSITIONS
            >= edges[top : top + block_rows].size
            for top in range(0, data.shape[0], block_rows)
        ]
        assert dense == [top < 10 for top in range(0, data.shape[0], block_rows)]

    def test_few_runs_peak_well_below_one_mask_plane(self):
        # Run edges are found a block of rows at a time, so a 2048 x 2048 mask
        # of three blobs peaks below an eighth of its own bytes.
        data = np.zeros((2048, 2048), dtype=np.uint8)
        data[100:400, 200:900] = 1
        data[1500:, :] = 1
        data[1000, 1000] = 1
        mask = BinaryMask(data=data)
        tracemalloc.start()
        try:
            boxes = connected_boxes(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert boxes == [(0, 1500, 2048, 548), (200, 100, 700, 300), (1000, 1000, 1, 1)]
        assert peak < data.nbytes // 8

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

    def test_parse_unreadable_file_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read summary .*absent.json"):
            parse_summary(tmp_path / "absent.json")
        (tmp_path / "sum.json").write_bytes(b"\xff\xfe\x80")
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

    @pytest.mark.parametrize(
        "pixel_count, positive, message",
        [
            (-1, -5, "lie in"),
            (10, -1, "lie in"),
            (10, 11, "lie in"),
            (10.5, 5, "integers"),
            (True, 1, "integers"),
            (10, 5.0, "integers"),
        ],
    )
    def test_counts_must_be_possible(self, tmp_path, pixel_count, positive, message):
        fields = {**vars(self.make_message()), "pixel_count": pixel_count, "positive_count": positive}
        fields["positive_fraction"] = positive / pixel_count
        with pytest.raises(DataError, match=message):
            SummaryMessage(**fields)
        (tmp_path / "sum.json").write_text(json.dumps(fields), encoding="utf-8")
        with pytest.raises(FormatError, match=message):
            parse_summary(tmp_path / "sum.json")

    @pytest.mark.parametrize(
        "boxes, message",
        [([[i, 0, 1, 1] for i in range(17)], "at most 16"), ([[0, 0, 0, 1]], "invalid detection box")],
        ids=["17-boxes", "zero-width"],
    )
    def test_boxes_must_be_possible(self, tmp_path, boxes, message):
        with pytest.raises(DataError, match=message):
            SummaryMessage(**{**vars(self.make_message()), "detection_boxes": boxes})
        payload = json.loads(summary_to_bytes(self.make_message()))
        payload["detection_boxes"] = boxes
        (tmp_path / "sum.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match=message):
            parse_summary(tmp_path / "sum.json")

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_threshold_must_be_finite(self, tmp_path, threshold):
        with pytest.raises(DataError, match="threshold must be finite"):
            SummaryMessage(**{**vars(self.make_message()), "threshold": threshold})
        payload = json.loads(summary_to_bytes(self.make_message()))
        payload["threshold"] = threshold
        (tmp_path / "sum.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match="threshold must be finite"):
            parse_summary(tmp_path / "sum.json")

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
        with pytest.raises(ConfigError, match="target"):
            run_pipeline(cube, PipelineConfig(application="vegetation_mf", output_dir=out))
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
            rerun = replace(rerun, scene_id="s" * 2100)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(water_scene(seed=12), rerun)
        assert excinfo.value.stage == "write"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    def test_a_map_float32_cannot_hold_fails_the_write_and_keeps_the_previous_run(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        run_pipeline(water_scene(seed=11), PipelineConfig(application="surface_water", output_dir=out))
        first = {path.name: path.read_bytes() for path in out.iterdir()}

        def beyond_float32(scene, out=None):
            data = np.zeros((scene.height, scene.width))
            data[0, 0] = 1e39
            return ScoreMap(data=data, score_kind="HOT")

        monkeypatch.setattr(pipeline, "ndwi", beyond_float32)
        with pytest.raises(StageError, match="does not fit float32") as excinfo:
            run_pipeline(water_scene(seed=12), PipelineConfig(application="surface_water", output_dir=out))
        assert excinfo.value.stage == "write"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == first

    @pytest.mark.parametrize(
        "rerun, failing_call", [(True, call) for call in range(1, 11)] + [(False, call) for call in range(1, 6)]
    )
    def test_a_failed_rename_leaves_one_run_or_nothing(self, tmp_path, monkeypatch, rerun, failing_call):
        # A re-run moves the five previous files aside and the five new ones
        # in, a first run just the new ones: whichever rename fails, the
        # directory holds the previous run, or nothing.
        out = tmp_path / "run"
        if rerun:
            run_pipeline(water_scene(seed=11), PipelineConfig(application="surface_water", output_dir=out))
        before = {path.name: path.read_bytes() for path in out.iterdir()} if rerun else {}
        real_replace, calls = pipeline.os.replace, []

        def flaky_replace(src, dst):
            calls.append(src)
            if len(calls) == failing_call:
                raise OSError("rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(pipeline.os, "replace", flaky_replace)
        config = PipelineConfig(application="surface_water", scene_id="b", output_dir=out)
        with pytest.raises(StageError, match="rename failed") as excinfo:
            run_pipeline(water_scene(seed=12), config)
        assert excinfo.value.stage == "write"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("forward, undo", [(f, f + k) for f in range(1, 11) for k in range(1, 12)])
    def test_a_failed_undo_keeps_the_previous_run(self, tmp_path, monkeypatch, forward, undo):
        # Rename call `forward` of a re-run fails, and so does call `undo`
        # when the rollback gets that far (it makes forward - 1 calls). Each
        # previous file is then back in place or in the directory the error
        # names; after a clean rollback the directory holds the previous run alone.
        out = tmp_path / "run"
        run_pipeline(water_scene(seed=11), PipelineConfig(application="surface_water", output_dir=out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        real_replace, calls = pipeline.os.replace, []

        def flaky_replace(src, dst):
            calls.append(src)
            if len(calls) in (forward, undo):
                raise OSError(f"rename {len(calls)} failed")
            real_replace(src, dst)

        monkeypatch.setattr(pipeline.os, "replace", flaky_replace)
        config = PipelineConfig(application="surface_water", scene_id="b", output_dir=out)
        with pytest.raises(StageError, match=f"rename {forward} failed") as excinfo:
            run_pipeline(water_scene(seed=12), config)
        assert excinfo.value.stage == "write"
        if undo >= 2 * forward:
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before
            return
        assert f"rename {undo} failed" in str(excinfo.value)
        kept = out / str(excinfo.value).rpartition("previous run kept in ")[2]
        assert kept.parent == out and kept.is_dir()
        found = {name: (kept / name if (kept / name).exists() else out / name).read_bytes() for name in before}
        assert found == before
        assert sorted(path.name for path in out.iterdir() if path.is_dir()) == [kept.name]

    def test_a_rerun_leaves_its_five_files_and_nothing_else(self, tmp_path):
        out = tmp_path / "run"
        for seed, scene_id in [(11, "a"), (12, "b")]:
            config = PipelineConfig(application="surface_water", scene_id=scene_id, output_dir=out)
            run_pipeline(water_scene(seed=seed), config)
        assert sorted(path.name for path in out.iterdir()) == sorted(pipeline._RUN_OUTPUTS)
        assert parse_summary(out / "summary.json").scene_id == "b"

    def test_stage_attribution(self):
        # A band the score step reads but the cube lacks fails in the score
        # stage, although a run stretches only the bands the score step reads.
        rng = np.random.default_rng(12)
        no_roles = RasterCube(data=rng.random((2, 8, 8), dtype=np.float32))
        no_green = RasterCube(
            data=rng.random((3, 8, 8), dtype=np.float32),
            band_meta=[RGBN_META[0], RGBN_META[2], RGBN_META[3]],
        )
        cases = [
            (no_roles, {"application": "clouds"}, "cube has no band with role 'blue'"),
            (no_green, {"application": "surface_water"}, "cube has no band with role 'green'"),
            (water_scene(), {"application": "thermal", "thermal_band": 7, "thermal_low": 0.5},
             "band index 7 out of range for 4 bands"),
            # The target is fitted onto the scene's bands in the score step too.
            (on_grid(water_scene(), [480.0, 560.0, 660.0, 830.0]),
             {"application": "vegetation_mf", "target": TargetSpectrum("t", [0.1, 0.2, 0.3], "", [500.0, 600.0, 900.0])},
             "band grid [480.0, 830.0] nm extends outside target 't' coverage [500.0, 900.0] nm"),
            (RasterCube(data=rng.random((6, 8, 8), dtype=np.float32)),
             {"application": "vegetation_mf", "target": TargetSpectrum("t", [0.1, 0.2, 0.3, 0.4])},
             "target 't' has 4 samples, band grid expects 6"),
        ]
        for cube, fields, message in cases:
            for stretch in (StretchParams(), None):
                with pytest.raises(StageError) as excinfo:
                    run_pipeline(cube, PipelineConfig(**fields, stretch=stretch))
                assert excinfo.value.stage == "score"
                assert str(excinfo.value) == f"stage 'score': {message}"

    @pytest.mark.parametrize(
        "application, fields",
        [
            ("surface_water", {}), ("clouds", {}), ("vegetation_rx", {}),
            ("thermal", {}), ("thermal", {"thermal_band": 3}),
        ],
        ids=["surface_water", "clouds", "vegetation_rx", "thermal-role", "thermal-index"],
    )
    def test_a_cube_file_runs_as_its_loaded_cube(self, tmp_path, application, fields):
        # Given a path, a run reads only the bands its entry scores; an index
        # names a band of the file, as it does of the whole cube.
        save_cube(bordered_scene(), tmp_path / "scene.json")
        config = app_config(application, **fields)
        run_pipeline(load_cube(tmp_path / "scene.json"), replace(config, output_dir=tmp_path / "cube"))
        run_pipeline(tmp_path / "scene.json", replace(config, output_dir=tmp_path / "path"))
        assert written_outputs(tmp_path / "path") == written_outputs(tmp_path / "cube")

    @pytest.mark.parametrize("header", ["score.json", "mask.pgm"])
    def test_outputs_over_the_cube_file_are_a_config_error(self, tmp_path, header):
        cube = tmp_path / header
        save_cube(water_scene(), cube)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(ConfigError, match=f"output .*{header} would overwrite the input"):
            run_pipeline(cube, PipelineConfig(application="surface_water", output_dir=tmp_path))
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("broken", ["short-payload", "unknown-role"])
    def test_a_cube_file_that_cannot_be_read_is_a_format_error(self, tmp_path, broken):
        # Not a score-stage error: the file is at fault, not the entry's bands.
        path = tmp_path / "scene.json"
        save_cube(water_scene(), path)
        if broken == "short-payload":
            path.with_suffix(".raw").write_bytes(path.with_suffix(".raw").read_bytes()[:-4])
        else:
            header = json.loads(path.read_text())
            header["bands_meta"][0]["role"] = "ultraviolet"
            path.write_text(json.dumps(header))
        with pytest.raises(FormatError):
            run_pipeline(path, PipelineConfig(application="surface_water"))

    @pytest.mark.parametrize(
        "application, scorer", [("surface_water", "ndwi"), ("vegetation_rx", "compute_scene_stats")]
    )
    def test_one_scene_buffer(self, monkeypatch, tmp_path, application, scorer):
        # Given a path, the stretch writes over the bands the run loaded, and
        # the stretched scene is dropped once the score step returns. NDWI
        # writes its map over that buffer, which then outlives the scene.
        save_cube(bordered_scene(), tmp_path / "scene.json")
        loaded, shared, scored, alive = [], [], [], []
        load, score, otsu = pipeline.load_cube, getattr(pipeline, scorer), pipeline.otsu_threshold

        def spy_load(*args, **kwargs):
            cube = load(*args, **kwargs)
            loaded.append(weakref.ref(cube.data))
            return cube

        def spy_score(scene, *args, **kwargs):
            shared.append(np.shares_memory(scene.data, loaded[0]()))
            scored.extend([weakref.ref(scene), weakref.ref(scene.data)])
            return score(scene, *args, **kwargs)

        def spy_otsu(*args, **kwargs):
            alive.append([ref() is not None for ref in scored])
            return otsu(*args, **kwargs)

        monkeypatch.setattr(pipeline, "load_cube", spy_load)
        monkeypatch.setattr(pipeline, scorer, spy_score)
        monkeypatch.setattr(pipeline, "otsu_threshold", spy_otsu)
        result = run_pipeline(tmp_path / "scene.json", app_config(application))
        assert shared == [True]
        if scorer == "ndwi":
            assert alive == [[False, True]]
            assert np.shares_memory(result.scores.data, loaded[0]())
        else:
            assert alive == [[False, False]]

    @pytest.mark.parametrize("application", list(APPLICATIONS))
    def test_a_cube_object_is_never_modified(self, application):
        # surface_water and thermal score a view of the cube (evenly spaced
        # bands); the detectors score the cube itself.
        cube = bordered_scene()
        before = cube.data.tobytes()
        run_pipeline(cube, app_config(application))
        assert cube.data.tobytes() == before

    @pytest.mark.parametrize("application", ["surface_water", "clouds"])
    def test_an_unstretched_cube_object_is_never_modified(self, application):
        # Unstretched, the scene is a view of the caller's cube: the map is a new array.
        cube = bordered_scene()
        before = cube.data.tobytes()
        result = run_pipeline(cube, app_config(application, stretch=None))
        assert cube.data.tobytes() == before
        assert not np.shares_memory(result.scores.data, cube.data)

    @pytest.mark.parametrize("stretch", [StretchParams(), None], ids=["stretched", "unstretched"])
    @pytest.mark.parametrize("application", ["surface_water", "clouds"])
    def test_a_spent_scene_gives_the_bits_of_a_fresh_map(self, monkeypatch, tmp_path, application, stretch):
        # From a path the map is written over the loaded bands, from a cube
        # object into a new array; 7-pixel chunks make many of either.
        monkeypatch.setattr(labeling, "_CHUNK", 7)
        save_cube(bordered_scene(height=41, width=47), tmp_path / "scene.json")
        config = app_config(application, stretch=stretch)
        spent = run_pipeline(tmp_path / "scene.json", replace(config, output_dir=tmp_path / "path"))
        fresh = run_pipeline(load_cube(tmp_path / "scene.json"), replace(config, output_dir=tmp_path / "cube"))
        assert written_outputs(tmp_path / "path") == written_outputs(tmp_path / "cube")
        assert spent.scores.data.tobytes() == fresh.scores.data.tobytes()
        assert spent.report["diagnostics"] == fresh.report["diagnostics"]

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
        with pytest.raises(ConfigError, match="fixed_threshold"):
            run_pipeline(cube, PipelineConfig(application="thermal", thermal_low=0.5, fixed_threshold=0.1))
        with pytest.raises(ConfigError, match="fixed_threshold"):
            replace(PipelineConfig(application="thermal", thermal_low=0.5), fixed_threshold=0.1)

    def test_threshold_policy_comes_from_the_table(self, monkeypatch):
        # a new band-window entry gets the same checks as the built-in one
        thermal = APPLICATIONS["thermal"]
        entry = Application(thermal.score, command="threshold", bands=thermal.bands, band_window=True)
        monkeypatch.setitem(APPLICATIONS, "snowline", entry)
        with pytest.raises(ConfigError, match="fixed_threshold"):
            PipelineConfig(application="snowline", thermal_low=0.5, fixed_threshold=0.1)
        with pytest.raises(ConfigError, match="bound"):
            PipelineConfig(application="snowline")
        with pytest.raises(ConfigError, match="bound"):
            replace(PipelineConfig(application="snowline", thermal_low=0.5), thermal_low=None)
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
            ({"fixed_threshold": float("nan")}, "fixed_threshold must be finite"),
            ({"fixed_threshold": float("-inf")}, "fixed_threshold must be finite"),
            ({"application": "thermal", "thermal_low": float("nan")}, "thermal_low must be finite"),
            ({"application": "thermal", "thermal_high": float("inf")}, "thermal_high must be finite"),
            ({"stretch": StretchParams(v_max=1e39)}, "finite float32"),
            ({"stretch": StretchParams(v_min=float(np.finfo(np.float32).min))}, "finite float32"),
        ],
        ids=[
            "application", "hot-mode", "precision", "otsu-bins", "no-boxes", "too-many-boxes", "inverted-window",
            "nan-threshold", "infinite-threshold", "nan-low", "infinite-high", "v-max-beyond-float32",
            "nodata-beyond-float32",
        ],
    )
    def test_invalid_config(self, fields, message):
        # A config is checked when it is built, and again when it is derived.
        with pytest.raises(ConfigError, match=message):
            run_pipeline(water_scene(), PipelineConfig(**{"application": "surface_water", **fields}))
        with pytest.raises(ConfigError, match=message):
            replace(PipelineConfig(application="surface_water"), **fields)

    def test_config_is_frozen(self):
        config = PipelineConfig(application="surface_water")
        with pytest.raises(FrozenInstanceError):
            config.scene_id = "other"

    def test_other_exceptions_leave_the_stage_unwrapped(self, monkeypatch):
        import specscan.pipeline as pipeline_module

        def broken(scene, out=None):
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


def bordered_scene(height=40, width=48, seed=7):
    """A hazy scene with a nodata border and a fifth, ``other`` band."""
    cube = hazy_scene(height, width, seed)
    rng = np.random.default_rng(seed)
    extra = (0.3 + 0.4 * rng.random((1, height, width))).astype(np.float32)
    data = np.concatenate([cube.data, extra])
    data[:, :3] = data[:, :, -5:] = -9999.0
    return RasterCube(data=data, band_meta=[*RGBN_META, BandMeta(name="x", role="other")], nodata=-9999.0)


def app_config(application, **fields):
    """A runnable config of `application` for :func:`bordered_scene`."""
    app = APPLICATIONS[application]
    if app.needs_target:
        fields.setdefault("target", TargetSpectrum(label="t", values=np.array([0.2, 0.3, 0.25, 0.6, 0.4])))
    if app.band_window:
        fields.setdefault("thermal_low", 0.5)
    return PipelineConfig(application=application, **fields)


def written_outputs(out_dir):
    """Mask bytes, score payload bytes and the summary without ``produced_at``."""
    summary = json.loads((out_dir / "summary.json").read_text())
    summary.pop("produced_at")
    return (out_dir / "mask.pgm").read_bytes(), (out_dir / "score.raw").read_bytes(), summary


def whole_cube_route(cube, config, out_dir):
    """Stretch every band, then run the entry's score and label steps; write the outputs."""
    app = APPLICATIONS[config.application]
    stretched = stretch_cube(cube, config.stretch) if app.stretch and config.stretch is not None else cube
    diagnostics = {}
    scene, config = app.select(stretched, config)
    scores, algorithm = app.score(scene, config, diagnostics)
    mask, threshold, suffix = app.label(scores, config, diagnostics)
    out_dir.mkdir()
    save_score_map(scores, out_dir / "score.json")
    save_mask(mask, out_dir / "mask.pgm")
    summary = build_summary(mask, config.application, config.scene_id, threshold, algorithm + suffix, config.max_boxes)
    emit_summary(summary, out_dir / "summary.json")
    return written_outputs(out_dir)


class TestBandsRead:
    @pytest.mark.parametrize("application", list(APPLICATIONS))
    def test_outputs_match_the_whole_cube_stretch(self, application, tmp_path):
        cube = bordered_scene()
        config = app_config(application, output_dir=tmp_path / "run")
        run_pipeline(cube, config)
        assert written_outputs(tmp_path / "run") == whole_cube_route(cube, config, tmp_path / "whole")

    @pytest.mark.parametrize("stretch", [StretchParams(), None], ids=["stretched", "unstretched"])
    def test_integer_band_matches_its_role(self, stretch, tmp_path):
        cube = bordered_scene()
        for band in ("nir", 3):
            run_pipeline(cube, app_config("thermal", thermal_band=band, stretch=stretch, output_dir=tmp_path / str(band)))
        assert written_outputs(tmp_path / "3") == written_outputs(tmp_path / "nir")

    def test_numpy_integer_band_matches_its_role(self, tmp_path):
        # The report, which echoes the key, writes it as a JSON number.
        cube = bordered_scene()
        for band in ("nir", np.int64(3)):
            run_pipeline(cube, app_config("thermal", thermal_band=band, output_dir=tmp_path / str(band)))
        assert written_outputs(tmp_path / "3") == written_outputs(tmp_path / "nir")
        report = json.loads((tmp_path / "3" / "report.json").read_text())
        assert report["config"]["thermal_band"] == report["diagnostics"]["band_threshold"]["band"] == 3

    def test_bool_band_is_a_score_stage_error(self):
        with pytest.raises(StageError, match="band key True is a bool"):
            run_pipeline(bordered_scene(), app_config("thermal", thermal_band=True))

    @pytest.mark.parametrize("stretch", [StretchParams(), None], ids=["stretched", "unstretched"])
    def test_other_band_by_index(self, stretch):
        cube = bordered_scene()
        result = run_pipeline(cube, app_config("thermal", thermal_band=4, stretch=stretch))
        scene = cube if stretch is None else stretch_cube(cube, stretch)
        assert result.scores.data.tobytes() == scene.data[4].astype(np.float64).tobytes()
        assert result.mask.data.tolist() == (scene.data[4] >= 0.5).tolist()
        assert result.report["diagnostics"]["stretched_bands"] == ([] if stretch is None else ["x"])

    @pytest.mark.parametrize(
        "application, stretched",
        [
            ("clouds", []),
            ("surface_water", ["g", "n"]),
            ("thermal", ["n"]),
            ("vegetation_rx", ["b", "g", "r", "n", "x"]),
            ("mineral_sam", ["b", "g", "r", "n", "x"]),
        ],
    )
    def test_report_names_the_stretched_bands(self, application, stretched, tmp_path):
        run_pipeline(bordered_scene(), app_config(application, output_dir=tmp_path))
        diagnostics = json.loads((tmp_path / "report.json").read_text())["diagnostics"]
        assert diagnostics["stretched_bands"] == stretched
        assert diagnostics["stretch_applied"] == (application != "clouds")
        unstretched = run_pipeline(bordered_scene(), app_config(application, stretch=None))
        assert unstretched.report["diagnostics"]["stretched_bands"] == []

    def test_thermal_run_stretches_one_band(self, monkeypatch):
        import specscan.pipeline as pipeline_module

        data = np.random.default_rng(63).random((4, 512, 512), dtype=np.float32)
        cube = RasterCube(data=data, band_meta=list(RGBN_META))
        peaks = []

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                scene = stretch_cube(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return scene

        monkeypatch.setattr(pipeline_module, "stretch_cube", traced)
        result = run_pipeline(cube, PipelineConfig(application="thermal", thermal_low=0.5))
        assert result.report["diagnostics"]["stretched_bands"] == ["n"]
        assert len(peaks) == 1 and peaks[0] < 2 * cube.data[0].nbytes
