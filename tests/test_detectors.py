import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from specscan import (
    ComputeError,
    DataError,
    RasterCube,
    SceneStats,
    TargetSpectrum,
    compute_scene_stats,
    detect_map,
    mf,
    rx,
    sam,
    scene_stats_from_moments,
)
from specscan.detectors import _TILE_PIXELS
from conftest import random_cube
from oracles import covariance_bruteforce, gauss_jordan_inverse, mf_bruteforce, pixel_spectra, rx_bruteforce, sam_arccos


def cube_from_pixels(pixels, width=None, nodata=None):
    """Cube whose pixel spectra (N, B) are laid out row-major."""
    pixels = np.asarray(pixels, dtype=np.float32)
    n, bands = pixels.shape
    width = width or n
    height = n // width
    data = pixels.T.reshape(bands, height, width)
    return RasterCube(data=data, nodata=nodata)


class TestSceneStats:
    def test_two_pixel_analytic_case(self):
        stats = compute_scene_stats(cube_from_pixels([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_array_equal(stats.mean, [1.0, 1.0])
        np.testing.assert_allclose(stats.covariance, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)
        assert stats.ridge > 0.0, "singular covariance must engage the ridge"
        assert stats.pixel_count == 2

    def test_constant_scene(self):
        stats = compute_scene_stats(cube_from_pixels(np.full((10, 3), 0.5)))
        np.testing.assert_array_equal(stats.covariance, np.zeros((3, 3)))
        assert stats.ridge > 0.0

    def test_ridge_escalates_once_past_a_small_negative_eigenvalue(self):
        # The first ridge, 1e-6 of the mean variance (~5e-7), leaves -1e-6 negative; ten times it does not.
        stats = scene_stats_from_moments(np.zeros(2), np.diag([1.0, -1e-6]))
        assert stats.ridge == pytest.approx(5e-6, rel=1e-5)

    def test_covariance_beyond_the_maximum_ridge_is_a_compute_error(self):
        with pytest.raises(ComputeError, match="even with maximum ridge"):
            scene_stats_from_moments(np.zeros(2), np.diag([1.0, -1.0]))

    def test_matches_bruteforce_covariance(self):
        rng = np.random.default_rng(31)
        pixels = rng.random((50, 4)).astype(np.float32)
        stats = compute_scene_stats(cube_from_pixels(pixels, width=10))
        mean, cov = covariance_bruteforce(pixels.astype(np.float64))
        np.testing.assert_allclose(stats.mean, mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(stats.covariance, cov, rtol=1e-12, atol=1e-15)

    def test_too_few_pixels(self):
        cube = RasterCube(data=np.zeros((2, 1, 1), dtype=np.float32))
        with pytest.raises(ComputeError, match=">= 2"):
            compute_scene_stats(cube)

    def test_validity_mask_excludes_pixels(self):
        pixels = np.array([[0.0, 0.0], [2.0, 2.0], [100.0, -100.0]])
        cube = cube_from_pixels(pixels, width=3, nodata=-100.0)
        assert cube.validity.tolist() == [[True, True, False]]
        stats = compute_scene_stats(cube)
        np.testing.assert_array_equal(stats.mean, [1.0, 1.0])
        assert stats.pixel_count == 2

    def test_factorization_reconstructs(self):
        rng = np.random.default_rng(5)
        pixels = rng.random((200, 5))
        stats = compute_scene_stats(cube_from_pixels(pixels, width=20))
        regularized = stats.covariance + stats.ridge * np.eye(5)
        np.testing.assert_allclose(
            stats.factor_lower @ stats.factor_lower.T, regularized, rtol=1e-9, atol=1e-15
        )


class TestSam:
    def test_identical_spectra(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.random(6) + 0.01
            assert sam(x, x) == 0.0

    def test_orthogonal(self):
        assert sam(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_forty_five_degrees(self):
        assert sam(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(np.pi / 4, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = rng.random(5) + 0.1
            y = rng.random(5) + 0.1
            a, b = rng.uniform(0.01, 100, size=2)
            assert sam(a * x, b * y) == pytest.approx(sam(x, y), abs=1e-12)
            assert sam(x, 3.7 * x) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        x, y = rng.random(4), rng.random(4)
        assert sam(x, y) == sam(y, x)

    def test_range(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            angle = sam(rng.normal(size=3), rng.normal(size=3))
            assert 0.0 <= angle <= np.pi

    def test_antiparallel(self):
        x = np.array([0.3, 0.7])
        assert sam(x, -x) == pytest.approx(np.pi, abs=1e-15)

    def test_zero_norm_errors(self):
        with pytest.raises(ComputeError, match="zero"):
            sam(np.zeros(3), np.ones(3))

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            sam(np.ones(3), np.ones(4))

    def test_accepts_target_spectrum(self):
        target = TargetSpectrum(label="t", values=np.array([1.0, 0.0]))
        assert sam(np.array([1.0, 0.0]), target) == 0.0


class TestMf:
    def identity_stats(self, mean):
        mean = np.asarray(mean, dtype=np.float64)
        return scene_stats_from_moments(mean, np.eye(mean.size))

    def test_target_scores_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            pixels = rng.random((40, 3))
            stats = compute_scene_stats(cube_from_pixels(pixels, width=8))
            target = rng.random(3) + 0.5
            assert mf(target, target, stats) == pytest.approx(1.0, abs=1e-9)

    def test_mean_scores_zero(self):
        rng = np.random.default_rng(14)
        pixels = rng.random((40, 3))
        stats = compute_scene_stats(cube_from_pixels(pixels, width=8))
        target = rng.random(3) + 0.5
        assert mf(stats.mean, target, stats) == pytest.approx(0.0, abs=1e-9)

    def test_identity_covariance_hand_case(self):
        stats = self.identity_stats([0.0, 0.0])
        score = mf(np.array([0.5, 3.0]), np.array([1.0, 0.0]), stats)
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_linearity_in_x(self):
        rng = np.random.default_rng(15)
        pixels = rng.random((60, 4))
        stats = compute_scene_stats(cube_from_pixels(pixels, width=12))
        target = rng.random(4)
        x1, x2 = rng.random(4), rng.random(4)
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            blend = alpha * x1 + (1 - alpha) * x2
            expected = alpha * mf(x1, target, stats) + (1 - alpha) * mf(x2, target, stats)
            assert mf(blend, target, stats) == pytest.approx(expected, abs=1e-9)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            bands = int(rng.integers(2, 7))
            pixels = rng.random((int(rng.integers(bands + 2, 60)), bands))
            stats = compute_scene_stats(cube_from_pixels(pixels, width=1))
            inverse = gauss_jordan_inverse(stats.covariance + stats.ridge * np.eye(bands))
            target = rng.random(bands)
            x = rng.random(bands)
            want = mf_bruteforce(x, target, stats.mean, inverse)
            assert mf(x, target, stats) == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_target_equal_mean_errors(self):
        stats = self.identity_stats([0.3, 0.3])
        with pytest.raises(ComputeError, match="mean"):
            mf(np.array([1.0, 1.0]), np.array([0.3, 0.3]), stats)

    def test_dimension_mismatch(self):
        stats = self.identity_stats([0.0, 0.0])
        with pytest.raises(DataError):
            mf(np.ones(3), np.ones(2), stats)


class TestRx:
    def test_mean_scores_zero(self):
        rng = np.random.default_rng(18)
        pixels = rng.random((30, 3))
        stats = compute_scene_stats(cube_from_pixels(pixels, width=6))
        assert rx(stats.mean, stats) == 0.0

    def test_diagonal_covariance(self):
        stats = scene_stats_from_moments(np.zeros(2), np.diag([4.0, 1.0]))
        assert rx(np.array([2.0, 1.0]), stats) == pytest.approx(2.0, abs=1e-12)

    def test_identity_reduces_to_squared_norm(self):
        rng = np.random.default_rng(19)
        stats = scene_stats_from_moments(np.zeros(4), np.eye(4))
        for _ in range(20):
            x = rng.normal(size=4)
            assert rx(x, stats) == pytest.approx(float(x @ x), rel=1e-12, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(20)
        pixels = rng.random((50, 3))
        stats = compute_scene_stats(cube_from_pixels(pixels, width=10))
        for _ in range(50):
            assert rx(rng.normal(size=3), stats) >= 0.0

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            bands = int(rng.integers(2, 7))
            pixels = rng.random((int(rng.integers(bands + 2, 80)), bands))
            stats = compute_scene_stats(cube_from_pixels(pixels, width=1))
            inverse = gauss_jordan_inverse(stats.covariance + stats.ridge * np.eye(bands))
            x = rng.random(bands)
            want = rx_bruteforce(x, stats.mean, inverse)
            assert rx(x, stats) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestDetectMap:
    def test_sam_map_of_target_is_zero(self):
        target = np.array([0.25, 0.5, 0.125], dtype=np.float32)
        pixels = np.tile(target, (12, 1))
        cube = cube_from_pixels(pixels, width=4)
        scores = detect_map(cube, "sam", target=target.astype(np.float64))
        assert (scores.data == 0.0).all()
        assert scores.score_kind == "SAM"

    def test_rx_map_of_constant_scene_is_zero(self):
        cube = cube_from_pixels(np.full((16, 3), 0.7), width=4)
        scores = detect_map(cube, "rx")
        assert (scores.data == 0.0).all()

    def test_mf_planted_targets_beat_background(self):
        rng = np.random.default_rng(33)
        bands, n = 8, 3600
        background = rng.random(bands) * 0.3 + 0.2
        pixels = background + 0.02 * rng.standard_normal((n, bands))
        target = background + np.linspace(0.4, -0.3, bands)
        planted = rng.choice(n, size=15, replace=False)
        pixels[planted] = target + 0.005 * rng.standard_normal((15, bands))
        cube = cube_from_pixels(pixels, width=60)
        scores = detect_map(cube, "mf", target=target, precision="double").data.ravel()
        background_scores = np.delete(scores, planted)
        assert scores[planted].min() > np.quantile(background_scores, 0.99)

    def test_rx_single_anomaly_is_strict_max(self):
        pixels = np.full((100, 4), 0.4)
        pixels[57] = [0.9, 0.1, 0.8, 0.2]
        cube = cube_from_pixels(pixels, width=10)
        scores = detect_map(cube, "rx").data.ravel()
        assert np.argmax(scores) == 57
        assert scores[57] > np.delete(scores, 57).max()

    def test_sam_zero_norm_pixel_flagged_pi(self):
        pixels = np.array([[0.0, 0.0], [0.5, 0.5], [0.2, 0.8]])
        cube = cube_from_pixels(pixels, width=3)
        scores = detect_map(cube, "sam", target=np.array([1.0, 1.0]))
        assert scores.data.ravel()[0] == pytest.approx(np.pi)
        assert scores.flags.ravel().tolist() == [True, False, False]

    def test_sam_requires_target(self):
        cube = cube_from_pixels(np.ones((4, 2)), width=2)
        with pytest.raises(DataError, match="target"):
            detect_map(cube, "sam")

    @pytest.mark.parametrize("detector", ["sam", "mf"])
    def test_target_of_another_length_is_a_data_error(self, detector):
        cube = cube_from_pixels(np.random.default_rng(41).random((16, 3)), width=4)
        with pytest.raises(DataError, match="^target has 4 bands, cube has 3$"):
            detect_map(cube, detector, target=np.array([0.1, 0.2, 0.3, 0.4]))

    def test_stats_computed_on_demand(self):
        rng = np.random.default_rng(40)
        cube = cube_from_pixels(rng.random((36, 3)), width=6)
        explicit = detect_map(cube, "rx", stats=compute_scene_stats(cube))
        implicit = detect_map(cube, "rx")
        np.testing.assert_array_equal(explicit.data, implicit.data)

    @pytest.mark.parametrize("detector", ["rx", "mf"])
    def test_factor_singular_in_single_precision_is_a_compute_error(self, detector):
        # A diagonal of 1e-50 is below float32's smallest subnormal, so the
        # working-precision factor holds an exact zero there.
        stats = scene_stats_from_moments(np.zeros(3), np.diag([1.0, 1e-100, 1.0]))
        assert stats.factor_lower[1, 1] == 1e-50
        cube = cube_from_pixels(np.random.default_rng(42).random((16, 3)), width=4)
        target = np.array([0.3, 0.2, 0.1]) if detector == "mf" else None
        with pytest.raises(ComputeError, match="^covariance factor is singular in single precision$"):
            detect_map(cube, detector, target=target, stats=stats)
        assert np.isfinite(detect_map(cube, detector, target=target, stats=stats, precision="double").data).all()

    def test_unknown_detector(self):
        cube = cube_from_pixels(np.ones((4, 2)), width=2)
        with pytest.raises(DataError, match="detector"):
            detect_map(cube, "ace")

    def test_single_vs_double_precision_close(self):
        rng = np.random.default_rng(44)
        cube = random_cube(rng, bands=4, height=24, width=24)
        target = TargetSpectrum(label="t", values=rng.random(4) + 0.2)
        for detector in ("sam", "mf", "rx"):
            kwargs = {"target": target} if detector in ("sam", "mf") else {}
            single = detect_map(cube, detector, precision="single", **kwargs)
            double = detect_map(cube, detector, precision="double", **kwargs)
            diff = np.abs(single.data - double.data)
            assert diff.mean() < 1e-5, detector
            assert diff.max() < 1e-3, detector

    def test_sam_matches_arccos_oracle(self):
        rng = np.random.default_rng(46)
        cube = cube_from_pixels(rng.normal(size=(80, 5)), width=10)
        target = rng.normal(size=5)
        sam_map = detect_map(cube, "sam", target=target, precision="double").data.ravel()
        checked = 0
        for spectrum, mapped in zip(pixel_spectra(cube).astype(np.float64), sam_map):
            want = sam_arccos(spectrum, target)
            if not 0.01 < want < np.pi - 0.01:
                continue
            assert sam(spectrum, target) == pytest.approx(want, rel=1e-9)
            assert mapped == pytest.approx(want, rel=1e-9)
            checked += 1
        assert checked >= 70

    def test_map_matches_scalar_kernels(self):
        rng = np.random.default_rng(45)
        pixels = rng.random((24, 3))
        cube = cube_from_pixels(pixels, width=6)
        stats = compute_scene_stats(cube)
        target = rng.random(3) + 0.2
        mf_map = detect_map(cube, "mf", target=target, stats=stats, precision="double").data.ravel()
        rx_map = detect_map(cube, "rx", stats=stats, precision="double").data.ravel()
        sam_map = detect_map(cube, "sam", target=target, precision="double").data.ravel()
        spectra = pixel_spectra(cube).astype(np.float64)
        for i in (0, 7, 23):
            assert mf_map[i] == pytest.approx(mf(spectra[i], target, stats), rel=1e-12, abs=1e-12)
            assert rx_map[i] == pytest.approx(rx(spectra[i], stats), rel=1e-12, abs=1e-12)
            assert sam_map[i] == pytest.approx(sam(spectra[i], target), rel=1e-12, abs=1e-12)


# Two-band statistics of 5 pixels, and a 3-band cube they do not fit.
_STATS2 = SceneStats(mean=np.zeros(2), covariance=np.eye(2), factor_lower=np.eye(2), ridge=0.0, pixel_count=5)
_CUBE3 = RasterCube(data=np.arange(1, 13, dtype=np.float32).reshape(3, 2, 2))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SceneStats(np.zeros(2), np.eye(3), np.eye(3), 0.0, 5), DataError,
         "stats shapes disagree: mean (B,), covariance and factor (B, B)"),
        (lambda: SceneStats(np.zeros(2), np.eye(2), np.eye(2), 0.0, 1), DataError,
         "scene statistics need >= 2 pixels, got 1"),
        (lambda: SceneStats(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), 0.0, 5), DataError,
         "covariance is not symmetric"),
        (lambda: SceneStats(np.zeros(2), np.eye(2), 2 * np.eye(2), 0.0, 5), DataError,
         "factor does not reproduce the regularized covariance"),
        (lambda: rx(np.zeros(3), _STATS2), DataError, "spectrum length (3,) must match the 2-band statistics"),
        (lambda: detect_map(_CUBE3, "rx", precision="half"), DataError,
         "unknown precision 'half'; expected one of ('single', 'double')"),
        (lambda: detect_map(_CUBE3, "sam", target=np.zeros(3)), ComputeError,
         "spectral angle is undefined for a zero target"),
        (lambda: detect_map(_CUBE3, "rx", stats=_STATS2), DataError, "statistics cover 2 bands, cube has 3"),
    ],
    ids=["stats-shapes", "stats-one-pixel", "stats-asymmetric", "stats-factor", "rx-length",
         "map-unknown-precision", "map-zero-sam-target", "map-stats-bands"],
)
def test_each_check_raises_its_error(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda bad: rx(np.array([0.3, bad]), _STATS2), "spectrum must be finite"),
        (lambda bad: mf(np.array([0.3, bad]), np.array([0.5, 0.1]), _STATS2), "spectrum must be finite"),
        (lambda bad: mf(np.array([0.5, 0.1]), np.array([0.3, bad]), _STATS2), "target must be finite"),
        (lambda bad: sam(np.array([0.3, bad]), np.array([1.0, 1.0])), "spectrum must be finite"),
        (lambda bad: sam(np.array([1.0, 1.0]), np.array([0.3, bad])), "target must be finite"),
        (lambda bad: detect_map(_CUBE3, "mf", target=np.array([0.1, 0.2, bad])), "target must be finite"),
        (lambda bad: detect_map(_CUBE3, "sam", target=np.array([0.1, 0.2, bad])), "target must be finite"),
        (lambda bad: SceneStats(np.array([0.0, bad]), np.eye(2), np.eye(2), 0.0, 5), "scene statistics must be finite"),
        (lambda bad: SceneStats(np.zeros(2), np.eye(2), np.diag([1.0, bad]), 0.0, 5),
         "scene statistics must be finite"),
    ],
    ids=["rx-spectrum", "mf-spectrum", "mf-target", "sam-spectrum", "sam-target", "map-mf-target", "map-sam-target", "stats-mean", "stats-factor"],
)
def test_a_non_finite_value_is_a_data_error(build, message, bad):
    # The triangular solves check nothing: unchecked, a NaN would come out as a score.
    with pytest.raises(DataError) as excinfo:
        build(bad)
    assert str(excinfo.value) == message


def nodata_scene(rng, bands, height, width, invalid=()):
    """Random cube whose pixels at the flat indices `invalid` hold the nodata value."""
    pixels = rng.random((height * width, bands))
    pixels[list(invalid), 0] = -1.0
    return cube_from_pixels(pixels, width=width, nodata=-1.0 if len(invalid) else None)


class TestTiles:
    """Statistics and maps over pixel tiles, with the tile made small."""

    @pytest.mark.parametrize("tile", [2, 7, 64, 10_000])
    @pytest.mark.parametrize("nodata", [False, True], ids=["validity-none", "nodata"])
    def test_stats_match_bruteforce(self, monkeypatch, tile, nodata):
        monkeypatch.setattr("specscan.detectors._TILE_PIXELS", tile)
        rng = np.random.default_rng(91)
        # 150 pixels: not a multiple of 7 or 64, and fewer than one tile of 10,000
        invalid = rng.choice(150, size=40, replace=False) if nodata else ()
        cube = nodata_scene(rng, 5, 10, 15, invalid)
        stats = compute_scene_stats(cube)
        valid_pixels = np.delete(pixel_spectra(cube).astype(np.float64), np.asarray(invalid, dtype=int), axis=0)
        mean, cov = covariance_bruteforce(valid_pixels)
        assert stats.pixel_count == 150 - len(invalid)
        np.testing.assert_allclose(stats.mean, mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(stats.covariance, cov, rtol=1e-12, atol=1e-15)

    def test_tile_with_no_valid_pixel(self, monkeypatch):
        monkeypatch.setattr("specscan.detectors._TILE_PIXELS", 10)
        rng = np.random.default_rng(92)
        invalid = list(range(10, 30)) + [55]   # the second and third tiles are all nodata
        cube = nodata_scene(rng, 4, 6, 10, invalid)
        stats = compute_scene_stats(cube)
        valid_pixels = np.delete(pixel_spectra(cube).astype(np.float64), invalid, axis=0)
        mean, cov = covariance_bruteforce(valid_pixels)
        assert stats.pixel_count == 39
        np.testing.assert_allclose(stats.mean, mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(stats.covariance, cov, rtol=1e-12, atol=1e-15)
        inverse = gauss_jordan_inverse(stats.covariance)
        rx_map = detect_map(cube, "rx", stats=stats, precision="double").data.ravel()
        for i in (0, 10, 29, 55, 59):
            assert rx_map[i] == pytest.approx(rx_bruteforce(pixel_spectra(cube)[i], stats.mean, inverse), rel=1e-9)

    def test_one_valid_pixel_is_too_few(self, monkeypatch):
        monkeypatch.setattr("specscan.detectors._TILE_PIXELS", 4)
        cube = nodata_scene(np.random.default_rng(93), 3, 3, 5, invalid=[i for i in range(15) if i != 6])
        with pytest.raises(ComputeError, match="have 1"):
            compute_scene_stats(cube)

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("tile", [2, 7, 64, 10_000])
    def test_maps_do_not_depend_on_the_tile(self, monkeypatch, precision, tile):
        rng = np.random.default_rng(94)
        cube = nodata_scene(rng, 6, 20, 9, invalid=range(0, 180, 11))
        target = rng.random(6) + 0.1
        stats = compute_scene_stats(cube)
        maps = {}
        for patched in (None, tile):
            if patched is not None:
                monkeypatch.setattr("specscan.detectors._TILE_PIXELS", patched)
            maps[patched] = {
                "sam": detect_map(cube, "sam", target=target, precision=precision),
                "mf": detect_map(cube, "mf", target=target, stats=stats, precision=precision),
                "rx": detect_map(cube, "rx", stats=stats, precision=precision),
            }
        whole, tiled = maps[None], maps[tile]
        # sam sums each pixel over the bands alone; mf and rx go through a triangular
        # solve per tile, whose bits can vary with the tile's width
        assert whole["sam"].data.tobytes() == tiled["sam"].data.tobytes()
        rtol = 1e-5 if precision == "single" else 1e-12
        np.testing.assert_allclose(tiled["mf"].data, whole["mf"].data, rtol=rtol)
        np.testing.assert_allclose(tiled["rx"].data, whole["rx"].data, rtol=rtol)

    @pytest.mark.parametrize("tile", [3, 64])
    def test_maps_match_the_explicit_inverse_oracle(self, monkeypatch, tile):
        monkeypatch.setattr("specscan.detectors._TILE_PIXELS", tile)
        rng = np.random.default_rng(95)
        cube = nodata_scene(rng, 5, 13, 11, invalid=range(5, 143, 4))
        stats = compute_scene_stats(cube)
        inverse = gauss_jordan_inverse(stats.covariance + stats.ridge * np.eye(5))
        target = rng.random(5) + 0.2
        mf_map = detect_map(cube, "mf", target=target, stats=stats, precision="double").data.ravel()
        rx_map = detect_map(cube, "rx", stats=stats, precision="double").data.ravel()
        for spectrum, mf_score, rx_score in zip(pixel_spectra(cube), mf_map, rx_map):
            assert mf_score == pytest.approx(mf_bruteforce(spectrum, target, stats.mean, inverse), rel=1e-9, abs=1e-12)
            assert rx_score == pytest.approx(rx_bruteforce(spectrum, stats.mean, inverse), rel=1e-9, abs=1e-12)


# Prints one digest of the scene statistics and of the named detector maps
# in both precisions, on a height x width x bands scene with an 8-column
# nodata strip.
_DIGEST_PROBE = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from specscan import RasterCube, compute_scene_stats, detect_map
height, width, bands = map(int, sys.argv[2:5])
rng = np.random.default_rng(2024)
data = rng.random((bands, height, width), dtype=np.float32)
data[:, :, :8] = -1.0
cube = RasterCube(data=data, nodata=-1.0)
target = rng.random(bands) + 0.1
stats = compute_scene_stats(cube)
digest = hashlib.sha256()
for part in (stats.mean, stats.covariance, stats.factor_lower, np.float64(stats.ridge)):
    digest.update(part.tobytes())
for precision in ("single", "double"):
    for detector in sys.argv[5].split(","):
        kwargs = {} if detector == "rx" else {"target": target}
        digest.update(detect_map(cube, detector, stats=stats, precision=precision, **kwargs).data.tobytes())
print(digest.hexdigest())
"""


def digests_at_one_and_two_blas_threads(*probe_args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_PROBE, src, *map(str, probe_args)],
            env=env, check=True, capture_output=True, text=True,
        )
        digests.add(done.stdout.strip())
    return digests


def test_outputs_do_not_depend_on_the_blas_thread_count():
    assert len(digests_at_one_and_two_blas_threads(256, 256, 32, "rx,mf,sam")) == 1


# A single partial tile of 48 bands: the mf product ``whitened_t @ whitened``
# rounds differently on one and two BLAS threads (ROADMAP item 5).
@pytest.mark.xfail(strict=True, reason="mf's BLAS product depends on the thread count on this shape")
def test_mf_on_a_single_partial_tile_does_not_depend_on_the_blas_thread_count():
    assert len(digests_at_one_and_two_blas_threads(101, 103, 48, "mf")) == 1


@pytest.mark.parametrize("detector", ["rx", "mf", "sam"])
def test_map_peaks_below_the_cube_size(detector):
    """The float64 map plus one and a half tile buffers bounds the peak, in each precision."""
    rng = np.random.default_rng(96)
    cube = random_cube(rng, bands=32, height=256, width=256, roles=False)
    target = None if detector == "rx" else rng.random(32)
    # Statistics come first: their own float64 tiles are not the map's working memory.
    stats = compute_scene_stats(cube)
    # The first whitening call imports scipy.linalg; import it here so the peak is the map's alone.
    import scipy.linalg  # noqa: F401

    for precision, itemsize in (("single", 4), ("double", 8)):
        tracemalloc.start()
        try:
            detect_map(cube, detector, target=target, stats=stats, precision=precision)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tile_buffer = cube.bands * _TILE_PIXELS * itemsize
        assert peak < cube.height * cube.width * 8 + 1.5 * tile_buffer, precision


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("detector", ["rx", "mf"])
def test_map_with_its_statistics_peaks_below_the_cube_size(detector, precision):
    # The statistics are computed inside, so their float64 tiles count too:
    # a float64 copy of the scene would take twice the cube.
    rng = np.random.default_rng(96)
    cube = random_cube(rng, bands=32, height=256, width=256, roles=False)
    target = rng.random(32) if detector == "mf" else None
    import scipy.linalg  # noqa: F401

    tracemalloc.start()
    try:
        detect_map(cube, detector, target=target, precision=precision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube.data.nbytes
