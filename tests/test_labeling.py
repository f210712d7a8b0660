import tracemalloc

import numpy as np
import pytest

from specscan import (
    BandMeta,
    ClearSkyLine,
    ComputeError,
    ConfigError,
    DataError,
    PipelineConfig,
    RasterCube,
    band_threshold_label,
    binarize,
    fit_clear_sky_line,
    hot,
    ndwi,
    otsu_threshold,
    run_pipeline,
)
from conftest import cube_from_planes, score_map
from oracles import clear_sky_fit, clear_sky_line_argsort, otsu_exhaustive


class TestNdwi:
    def test_simple_values(self, make_cube):
        cube = make_cube({"green": [[0.3, 0.2, 0.1]], "nir": [[0.1, 0.2, 0.3]]})
        scores = ndwi(cube).data.ravel()
        assert scores[0] == pytest.approx(0.5, abs=1e-7)
        assert scores[1] == 0.0
        assert scores[2] == pytest.approx(-0.5, abs=1e-7)

    def test_zero_denominator_convention(self, make_cube):
        cube = make_cube({"green": [[0.0, 0.2]], "nir": [[0.0, 0.2]]})
        scores = ndwi(cube)
        assert scores.data[0, 0] == 0.0
        assert scores.flags is not None
        assert scores.flags.tolist() == [[True, False]]

    def test_antisymmetry(self, make_cube):
        rng = np.random.default_rng(13)
        green = rng.random((6, 6))
        nir = rng.random((6, 6))
        forward = ndwi(make_cube({"green": green, "nir": nir})).data
        swapped = ndwi(make_cube({"green": nir, "nir": green})).data
        np.testing.assert_array_equal(forward, -swapped)

    def test_range_and_extremes(self, make_cube):
        cube = make_cube({"green": [[1.0, 0.5]], "nir": [[0.0, 0.5]]})
        scores = ndwi(cube).data
        assert scores.max() <= 1.0 and scores.min() >= -1.0
        assert scores[0, 0] == 1.0

    def test_missing_role(self, make_cube):
        cube = make_cube({"green": [[0.1]], "red": [[0.1]]})
        with pytest.raises(DataError, match="nir"):
            ndwi(cube)


@pytest.mark.parametrize("score", ["ndwi", "hot"])
def test_map_over_its_bands_peaks_below_six_tenths_of_them(score):
    # Band 1's saved first half (a quarter of the bytes), NDWI's flag plane
    # and two chunk buffers: a new float64 map would take all of them.
    rng = np.random.default_rng(75)
    roles = ("green", "nir") if score == "ndwi" else ("blue", "red")
    cube = cube_from_planes({role: rng.random((1024, 1024), dtype=np.float32) for role in roles})
    line = ClearSkyLine(slope=0.8, intercept=0.05, n_fit_points=2, fit_residual_rms=0.0)
    tracemalloc.start()
    try:
        scores = ndwi(cube, out=cube.data) if score == "ndwi" else hot(cube, line, out=cube.data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.data.shape == (1024, 1024)
    assert peak < 0.6 * cube.data.nbytes


def scene_with_planted_line(
    height=50, width=80, slope=2.0, intercept=0.0625, n_planted=6, seed=0
):
    """Scene whose lowest-blue subset lies exactly (in float64) on a line.

    Planted blue values are small dyadics so float32 storage is exact and
    red = slope*blue + intercept stays exact too.
    """
    rng = np.random.default_rng(seed)
    blue = (0.5 + 0.4 * rng.random((height, width))).astype(np.float32)
    red = rng.random((height, width)).astype(np.float32)
    positions = [(3 + 5 * i, 7 + 3 * i) for i in range(n_planted)]
    for i, (y, x) in enumerate(positions):
        b = (i + 1) / 256.0
        blue[y, x] = b
        red[y, x] = slope * b + intercept
    data = np.stack([blue, red])
    meta = [BandMeta(name="b", role="blue"), BandMeta(name="r", role="red")]
    return RasterCube(data=data, band_meta=meta)


class TestClearSkyLine:
    def test_exact_line_recovery(self):
        cube = scene_with_planted_line()
        line = fit_clear_sky_line(cube)
        assert line.slope == pytest.approx(2.0, abs=1e-9)
        assert line.intercept == pytest.approx(0.0625, abs=1e-9)
        assert line.n_fit_points == 6
        assert line.fit_residual_rms < 1e-9

    def test_single_valid_pixel_errors(self):
        data = np.full((2, 2, 2), -9999.0, dtype=np.float32)
        data[:, 0, 0] = 0.5
        cube = RasterCube(
            data=data,
            band_meta=[BandMeta(name="b", role="blue"), BandMeta(name="r", role="red")],
            nodata=-9999.0,
        )
        with pytest.raises(ComputeError, match="2 valid"):
            fit_clear_sky_line(cube)

    def test_identical_blue_is_vertical(self, make_cube):
        cube = make_cube({"blue": np.full((4, 4), 0.25), "red": np.arange(16, dtype=float).reshape(4, 4)})
        with pytest.raises(ComputeError, match="vertical"):
            fit_clear_sky_line(cube)

    def test_matches_independent_oracle_on_random_scenes(self):
        rng = np.random.default_rng(42)
        for i in range(10):
            height = int(rng.integers(40, 90))
            width = int(rng.integers(40, 120))
            blue = rng.random((height, width), dtype=np.float32)
            red = (0.8 * blue + 0.1 + 0.05 * rng.standard_normal((height, width))).astype(np.float32)
            nodata = None
            if i % 3 == 0:
                nodata = -9999.0
                holes = rng.random((height, width)) < 0.1
                blue[holes] = nodata
                red[holes] = nodata
            cube = RasterCube(
                data=np.stack([blue, red]),
                band_meta=[BandMeta(name="b", role="blue"), BandMeta(name="r", role="red")],
                nodata=nodata,
            )
            line = fit_clear_sky_line(cube)
            valid = None if cube.validity is None else cube.validity
            slope, intercept, n_points, _ = clear_sky_fit(
                cube.plane("blue").astype(np.float64),
                cube.plane("red").astype(np.float64),
                valid,
            )
            assert line.n_fit_points == n_points
            assert abs(line.slope - slope) <= 1e-10 * max(1.0, abs(slope))
            assert abs(line.intercept - intercept) <= 1e-10 * max(1.0, abs(intercept))

    def test_deterministic_with_ties(self, make_cube):
        # 3600 px -> subset of 5: three distinct lows plus two drawn from a
        # large pool tied at 0.25, which exercises the index tie-break
        rng = np.random.default_rng(9)
        blue = np.full((60, 60), 0.5, dtype=np.float32)
        blue[rng.random((60, 60)) > 0.5] = 0.25
        blue[7, 3], blue[20, 11], blue[41, 55] = 0.05, 0.1, 0.15
        red = rng.random((60, 60)).astype(np.float32)
        cube = make_cube({"blue": blue, "red": red})
        first = fit_clear_sky_line(cube)
        second = fit_clear_sky_line(cube)
        assert (first.slope, first.intercept) == (second.slope, second.intercept)
        slope, intercept, n_points, _ = clear_sky_fit(
            blue.astype(np.float64), red.astype(np.float64), None
        )
        assert first.n_fit_points == n_points
        assert first.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("nodata", [None, -1.0], ids=["all-valid", "nodata"])
    @pytest.mark.parametrize("chunk", [1, 3, 7, None], ids=["chunk-1", "chunk-3", "chunk-7", "default"])
    def test_ties_straddling_chunk_boundaries(self, monkeypatch, chunk, nodata):
        # 3600 px -> a subset of 5: the three lows, then the first valid
        # pixels of forty tied at the cut, placed on both sides of chunk
        # boundaries; some of the tied pixels and one low are nodata.
        if chunk is not None:
            monkeypatch.setattr("specscan.labeling._CHUNK", chunk)
        rng = np.random.default_rng(23)
        blue = 0.5 + 0.4 * rng.random(3600)
        blue[[1500, 8, 2999]] = [0.05, 0.1, 0.15]
        tied = np.sort(np.concatenate([[6, 7, 20, 21], rng.choice(np.arange(22, 3600), 36, replace=False)]))
        tied = tied[~np.isin(tied, [1500, 8, 2999])]
        blue[tied] = 0.25
        nir = np.ones(3600)
        if nodata is not None:
            nir[[7, 20, 1500]] = nodata
        planes = {name: plane.reshape(60, 60) for name, plane in (("blue", blue), ("red", rng.random(3600)), ("nir", nir))}
        cube = cube_from_planes(planes, nodata=nodata)
        line = fit_clear_sky_line(cube)
        expected = clear_sky_line_argsort(cube.plane("blue"), cube.plane("red"), cube.validity)
        assert (line.slope, line.intercept, line.n_fit_points, line.fit_residual_rms) == expected
        slope, intercept, n_points, _ = clear_sky_fit(cube.plane("blue"), cube.plane("red"), cube.validity)
        assert line.n_fit_points == n_points == 5
        assert line.slope == pytest.approx(slope, rel=1e-10)
        assert line.intercept == pytest.approx(intercept, rel=1e-10)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000], ids=["chunk-1", "chunk-3", "chunk-7", "chunk-1000"])
    def test_random_scenes_at_any_chunk(self, monkeypatch, chunk):
        # The darkest pixels fall in any chunk, before or after the candidate
        # buffer is first cut back.
        monkeypatch.setattr("specscan.labeling._CHUNK", chunk)
        rng = np.random.default_rng(25)
        for size in [(60, 60), (40, 91), (100, 137), (7, 3000)]:
            planes = {"blue": rng.random(size), "red": rng.random(size)}
            cube = cube_from_planes(planes)
            line = fit_clear_sky_line(cube)
            expected = clear_sky_line_argsort(cube.plane("blue"), cube.plane("red"))
            assert (line.slope, line.intercept, line.n_fit_points, line.fit_residual_rms) == expected

    def test_peaks_below_one_megabyte(self):
        # The subset is found a chunk at a time: no copy or flag plane of
        # the 2048 x 2048 scene.
        rng = np.random.default_rng(24)
        planes = {role: rng.random((2048, 2048), dtype=np.float32) for role in ("blue", "red", "nir")}
        planes["nir"][:, :3] = -1.0
        cube = cube_from_planes(planes, nodata=-1.0)
        tracemalloc.start()
        try:
            line = fit_clear_sky_line(cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert line.n_fit_points == 400
        assert peak < 1 << 20

    def test_fit_point_cap(self):
        # 400_000 pixels -> subset of 600, 20 bins x 20 points cap = 400
        rng = np.random.default_rng(3)
        blue = rng.random((500, 800), dtype=np.float32)
        red = rng.random((500, 800), dtype=np.float32)
        cube = RasterCube(
            data=np.stack([blue, red]),
            band_meta=[BandMeta(name="b", role="blue"), BandMeta(name="r", role="red")],
        )
        line = fit_clear_sky_line(cube)
        assert line.n_fit_points <= 400


@pytest.mark.parametrize(
    "fields, message",
    [
        ((float("nan"), 0.0, 5, 0.0), "clear-sky line parameters must be finite"),
        ((1.0, float("inf"), 5, 0.0), "clear-sky line parameters must be finite"),
        ((1.0, 0.0, 1, 0.0), "clear-sky line needs at least 2 fit points"),
    ],
    ids=["nan-slope", "infinite-intercept", "one-fit-point"],
)
def test_clear_sky_line_checks_its_fields(fields, message):
    with pytest.raises(DataError) as excinfo:
        ClearSkyLine(*fields)
    assert str(excinfo.value) == message


class TestHot:
    def line(self, slope, intercept):
        return ClearSkyLine(slope=slope, intercept=intercept, n_fit_points=2, fit_residual_rms=0.0)

    def test_zero_when_terms_vanish(self, make_cube):
        cube = make_cube({"blue": [[0.4]], "red": [[0.4]]})
        scores = hot(cube, self.line(1.0, 0.0))
        assert scores.data[0, 0] == 0.0

    def test_direct_substitution(self, make_cube):
        cube = make_cube({"blue": [[0.7]], "red": [[0.2]]})
        scores = hot(cube, self.line(0.0, 0.1))
        assert scores.data[0, 0] == pytest.approx(0.3, abs=1e-7)

    def test_point_on_line_both_modes(self, make_cube):
        # dyadic values: exact in float32, so the line is exact in float64
        cube = make_cube({"blue": [[0.25]], "red": [[0.375]]})
        line = self.line(1.0, 0.125)
        as_written = hot(cube, line, mode="as_written").data[0, 0]
        distance = hot(cube, line, mode="point_line_distance").data[0, 0]
        assert as_written == pytest.approx(0.125 + 0.125 / np.sqrt(2.0), rel=1e-12)
        assert distance == 0.0

    def test_depends_only_on_blue_and_red(self, make_cube):
        rng = np.random.default_rng(1)
        blue = rng.random((5, 5))
        red = rng.random((5, 5))
        line = self.line(0.9, 0.05)
        one = hot(make_cube({"blue": blue, "red": red, "green": rng.random((5, 5)), "nir": rng.random((5, 5))}), line)
        two = hot(make_cube({"blue": blue, "red": red, "green": rng.random((5, 5)), "nir": rng.random((5, 5))}), line)
        np.testing.assert_array_equal(one.data, two.data)

    def test_unknown_mode(self, make_cube):
        cube = make_cube({"blue": [[0.1]], "red": [[0.1]]})
        with pytest.raises(ConfigError):
            hot(cube, self.line(1.0, 0.0), mode="sideways")


class TestOtsu:
    def test_bimodal_matches_exhaustive_oracle(self):
        values = np.concatenate([np.full(500, 10.0), np.full(500, 200.0)])
        result = otsu_threshold(score_map(values), bins=256)
        assert 10.0 < result.threshold < 200.0
        _, threshold, variance = otsu_exhaustive(values, 256)
        assert result.threshold == threshold
        assert result.inter_class_variance == pytest.approx(variance, rel=1e-9)

    def test_constant_input_degenerate(self):
        result = otsu_threshold(score_map(np.full(100, 3.5)))
        assert result.degenerate
        assert result.threshold == 3.5
        assert result.inter_class_variance == 0.0

    def test_two_values_two_bins(self):
        values = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        result = otsu_threshold(score_map(values), bins=2)
        mask = binarize(score_map(values), result.threshold)
        assert mask.data.ravel().tolist() == [0, 1, 0, 1, 1]
        _, threshold, _ = otsu_exhaustive(values, 2)
        assert result.threshold == threshold

    def test_randomized_optimality(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(10, 3000))
            mode = rng.integers(0, 3)
            if mode == 0:
                values = rng.normal(size=n)
            elif mode == 1:
                values = np.concatenate(
                    [rng.normal(0, 1, size=n), rng.normal(rng.uniform(3, 8), 1, size=n)]
                )
            else:
                values = rng.integers(0, 12, size=n).astype(float)
            if values.min() == values.max():
                continue
            result = otsu_threshold(score_map(values), bins=256)
            edge_index, threshold, variance = otsu_exhaustive(values, 256)
            assert result.threshold == threshold, f"edge {edge_index} expected"
            assert result.inter_class_variance >= variance - 1e-12 * max(1.0, variance)
            assert values.min() <= result.threshold <= values.max()

    def test_shift_invariance(self):
        rng = np.random.default_rng(23)
        values = np.concatenate(
            [rng.integers(0, 10, 300), rng.integers(40, 50, 200)]
        ).astype(np.float64)
        shifted = values + 64.0
        base = otsu_threshold(score_map(values), bins=256)
        moved = otsu_threshold(score_map(shifted), bins=256)
        assert moved.threshold == base.threshold + 64.0
        np.testing.assert_array_equal(
            binarize(score_map(values), base.threshold).data,
            binarize(score_map(shifted), moved.threshold).data,
        )

    def test_bins_validation(self):
        with pytest.raises(ConfigError, match="otsu_bins"):
            otsu_threshold(score_map([1.0, 2.0]), bins=1)


class TestBinarize:
    def test_above_is_strict(self):
        mask = binarize(score_map([[-1.0, 0.0, 1.0]]), 0.0, polarity="above")
        assert mask.data.ravel().tolist() == [0, 0, 1]

    def test_below_is_strict(self):
        mask = binarize(score_map([[-1.0, 0.0, 1.0]]), 0.0, polarity="below")
        assert mask.data.ravel().tolist() == [1, 0, 0]

    def test_idempotent_on_binary_map(self):
        rng = np.random.default_rng(2)
        binary = (rng.random((4, 4)) > 0.5).astype(np.float64)
        mask = binarize(score_map(binary), 0.5)
        np.testing.assert_array_equal(mask.data, binary.astype(np.uint8))

    def test_unknown_polarity(self):
        with pytest.raises(ConfigError):
            binarize(score_map([[0.0]]), 0.0, polarity="sideways")


class TestBandThreshold:
    def test_low_only(self, make_cube):
        cube = make_cube({"nir": [[0.1, 0.5, 0.9]]})
        mask = band_threshold_label(score_map(cube.plane("nir")), low=0.6)
        assert mask.data.ravel().tolist() == [0, 0, 1]

    def test_window(self, make_cube):
        cube = make_cube({"nir": [[0.1, 0.5, 0.9]]})
        mask = band_threshold_label(score_map(cube.plane("nir")), low=0.2, high=0.6)
        assert mask.data.ravel().tolist() == [0, 1, 0]

    def test_low_above_high(self, make_cube):
        cube = make_cube({"nir": [[0.1]]})
        with pytest.raises(ConfigError, match="exceeds"):
            band_threshold_label(score_map(cube.plane("nir")), low=0.6, high=0.2)

    def test_no_bounds(self, make_cube):
        cube = make_cube({"nir": [[0.1]]})
        with pytest.raises(ConfigError, match="at least one"):
            band_threshold_label(score_map(cube.plane("nir")))

    def test_by_index(self, make_cube):
        cube = make_cube({"nir": [[0.1, 0.9]]})
        config = PipelineConfig(application="thermal", stretch=None, thermal_band=0, thermal_low=0.5)
        mask = run_pipeline(cube, config).mask
        assert mask.data.ravel().tolist() == [0, 1]
