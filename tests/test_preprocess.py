import numpy as np
import pytest

from specscan import (
    ComputeError,
    ConfigError,
    RasterCube,
    StretchParams,
    band_quantiles,
    stretch_band,
    stretch_cube,
)
from oracles import quantile_sorted


class TestStretchParams:
    def test_defaults(self):
        params = StretchParams()
        assert (params.v_min, params.v_max) == (0.0, 1.0)
        assert (params.q_low_fraction, params.q_high_fraction) == (0.01, 0.99)

    def test_bad_range(self):
        with pytest.raises(ConfigError):
            StretchParams(v_min=1.0, v_max=1.0)

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            StretchParams(q_low_fraction=0.9, q_high_fraction=0.1)

    @pytest.mark.parametrize(
        "v_min, v_max",
        [(0.0, np.inf), (-np.inf, 1.0), (0.0, 1e39), (-1e39, 0.0), (float(np.finfo(np.float32).min), 0.0)],
    )
    def test_stretch_cube_needs_a_float32_range_and_nodata(self, v_min, v_max):
        # float32's lowest value has no float32 below it for the nodata value.
        cube = RasterCube(data=np.arange(8, dtype=np.float32).reshape(2, 2, 2), nodata=7.0)
        with pytest.raises(ConfigError, match="finite float32"):
            stretch_cube(cube, StretchParams(v_min=v_min, v_max=v_max))


class TestBandQuantiles:
    def test_hundred_values(self):
        plane = np.arange(100, dtype=np.float64).reshape(10, 10)
        assert band_quantiles(plane) == (pytest.approx(0.99), pytest.approx(98.01))

    def test_constant_plane(self):
        assert band_quantiles(np.full((3, 3), 7.0)) == (7.0, 7.0)

    def test_single_pixel(self):
        assert band_quantiles(np.array([[3.0]])) == (3.0, 3.0)

    def test_validity_excludes_pixels(self):
        plane = np.array([[0.0, 100.0], [1.0, 2.0]])
        validity = np.array([[True, False], [True, True]])
        _, q_high = band_quantiles(plane, validity, (0.0, 1.0))
        assert q_high == 2.0

    def test_zero_valid_pixels(self):
        with pytest.raises(ComputeError):
            band_quantiles(np.array([[1.0]]), np.array([[False]]))

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 10_000))
            values = rng.normal(size=n) * rng.uniform(0.1, 100)
            low_f = float(rng.uniform(0, 0.4))
            high_f = float(rng.uniform(0.6, 1.0))
            q_low, q_high = band_quantiles(values.reshape(1, -1), fractions=(low_f, high_f))
            for got, fraction in ((q_low, low_f), (q_high, high_f)):
                want = quantile_sorted(values, fraction)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestStretchBand:
    def test_endpoints_exact(self):
        params = StretchParams(v_min=0.25, v_max=0.75)
        out = stretch_band(np.array([[10.0, 90.0]]), params, 10.0, 90.0)
        assert out[0, 0] == 0.25
        assert out[0, 1] == 0.75

    def test_midpoint(self):
        out = stretch_band(np.array([[50.0]]), StretchParams(), 10.0, 90.0)
        assert out[0, 0] == pytest.approx(0.5)

    def test_clamps_below(self):
        out = stretch_band(np.array([[10.0 - 100.0]]), StretchParams(), 10.0, 90.0)
        assert out[0, 0] == 0.0

    def test_clamps_above(self):
        out = stretch_band(np.array([[1e6]]), StretchParams(), 10.0, 90.0)
        assert out[0, 0] == 1.0

    def test_degenerate_band_maps_to_v_min(self):
        out = stretch_band(np.full((2, 2), 5.0), StretchParams(), 5.0, 5.0)
        assert (out == 0.0).all()

    def test_randomized_range_monotonic_endpoints(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            v_min = float(rng.uniform(-2, 0.4))
            v_max = v_min + float(rng.uniform(0.1, 3))
            params = StretchParams(v_min=v_min, v_max=v_max)
            plane = np.sort(rng.normal(size=257) * 10)
            q_low, q_high = band_quantiles(plane.reshape(1, -1))
            out = stretch_band(plane.reshape(1, -1), params, q_low, q_high).ravel()
            assert out.min() >= v_min and out.max() <= v_max
            assert (np.diff(out) >= 0).all(), "monotone in sorted input"
            at_low = stretch_band(np.array([[q_low]]), params, q_low, q_high)[0, 0]
            at_high = stretch_band(np.array([[q_high]]), params, q_low, q_high)[0, 0]
            assert at_low == v_min and at_high == v_max


class TestStretchCube:
    def test_constant_cube_goes_to_v_min(self, make_cube):
        cube = make_cube({"blue": np.full((3, 3), 0.6)})
        out = stretch_cube(cube, StretchParams())
        assert (out.data == 0.0).all()

    def test_bands_stretched_independently(self):
        band0 = np.linspace(0, 1, 16, dtype=np.float32).reshape(4, 4)
        band1 = np.linspace(10, 20, 16, dtype=np.float32).reshape(4, 4)
        cube = RasterCube(data=np.stack([band0, band1]))
        out = stretch_cube(cube, StretchParams(q_low_fraction=0.0, q_high_fraction=1.0))
        assert out.data[0].min() == 0.0 and out.data[0].max() == 1.0
        assert out.data[1].min() == 0.0 and out.data[1].max() == 1.0

    def test_metadata_preserved(self, make_cube):
        cube = make_cube({"green": [[0.2, 0.4]], "nir": [[0.1, 0.9]]}, wavelengths=[560.0, 860.0])
        out = stretch_cube(cube, StretchParams())
        assert out.band_meta == cube.band_meta

    def test_second_stretch_matches_quantile_oracle(self):
        rng = np.random.default_rng(5)
        params = StretchParams()
        fractions = (params.q_low_fraction, params.q_high_fraction)
        for _ in range(10):
            data = rng.random((2, 12, 12), dtype=np.float32) * 3
            once = stretch_cube(RasterCube(data=data), params)
            twice = stretch_cube(once, params)
            for band in range(2):
                plane = once.data[band]
                q_low = quantile_sorted(plane.ravel(), fractions[0])
                q_high = quantile_sorted(plane.ravel(), fractions[1])
                predicted = stretch_band(plane, params, q_low, q_high).astype(np.float32)
                np.testing.assert_allclose(twice.data[band], predicted, rtol=0, atol=2e-7)

    def test_nodata_pixels_remapped_and_excluded(self):
        data = np.array([[[0.1, 0.5], [0.9, -9999.0]]], dtype=np.float32)
        cube = RasterCube(data=data, nodata=-9999.0)
        out = stretch_cube(cube, StretchParams(q_low_fraction=0.0, q_high_fraction=1.0))
        assert out.nodata == -1.0
        assert out.validity.tolist() == [[True, True], [True, False]]
        assert out.data[0, 1, 1] == -1.0
        # quantiles came from the three valid pixels only
        assert out.data[0, 0, 0] == 0.0 and out.data[0, 1, 0] == 1.0

    def test_validity_kept_where_the_sentinel_rounds_onto_v_min(self):
        # float32(2**25 - 1) == float32(2**25): valid pixels stretched to v_min
        # hold the same value as the nodata sentinel.
        data = np.arange(20, dtype=np.float32).reshape(1, 4, 5)
        data[0, 0, 0] = -9999.0
        cube = RasterCube(data=data, nodata=-9999.0)
        out = stretch_cube(cube, StretchParams(v_min=2.0**25, v_max=2.0**25 + 1.0))
        assert out.validity.tolist() == cube.validity.tolist()
        assert out.valid_pixel_count() == 19

    def test_all_invalid_cube_propagates_error(self):
        data = np.full((1, 2, 2), -9999.0, dtype=np.float32)
        cube = RasterCube(data=data, nodata=-9999.0)
        with pytest.raises(ComputeError, match="valid"):
            stretch_cube(cube, StretchParams())
