import resource
import tracemalloc

import numpy as np
import pytest

from specscan import (
    BandMeta,
    ComputeError,
    ConfigError,
    DataError,
    RasterCube,
    StretchParams,
    band_quantiles,
    stretch_band,
    stretch_cube,
)
from specscan import preprocess
from oracles import quantile_sorted, quantiles_numpy, valid_pixel_count


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


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: band_quantiles(np.ones((2, 2)), fractions=(0.9, 0.1)), DataError,
         "fractions must satisfy 0 <= low <= high <= 1, got (0.9, 0.1)"),
        (lambda: band_quantiles(np.ones((2, 2)), fractions=(-0.5, 0.5)), DataError,
         "fractions must satisfy 0 <= low <= high <= 1, got (-0.5, 0.5)"),
        (lambda: band_quantiles(np.ones((2, 3)), np.ones((3, 2), dtype=bool)), DataError,
         "validity shape (3, 2) does not match the plane's (2, 3)"),
        (lambda: stretch_band(np.ones((2, 2)), StretchParams(), 0.5, 0.25), ComputeError,
         "q_high (0.25) below q_low (0.5)"),
    ],
    ids=["quantiles-reversed", "quantiles-negative", "quantiles-validity-shape", "stretch-reversed"],
)
def test_each_check_raises_its_error(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert str(excinfo.value) == message


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
        assert valid_pixel_count(out) == 19

    @pytest.mark.parametrize("nodata", [None, -9999.0])
    def test_result_is_not_checked_again(self, monkeypatch, nodata):
        # The stretch keeps the checked input's validity; nothing rescans
        # the stretched samples.
        data = np.arange(20, dtype=np.float32).reshape(1, 4, 5)
        data[0, 0, 0] = -9999.0
        cube = RasterCube(data=data, nodata=nodata)
        checked = []
        monkeypatch.setattr(RasterCube, "__post_init__", lambda self: checked.append(self))
        out = stretch_cube(cube, StretchParams())
        assert checked == []
        assert out.validity is cube.validity

    def test_all_invalid_cube_propagates_error(self):
        data = np.full((1, 2, 2), -9999.0, dtype=np.float32)
        cube = RasterCube(data=data, nodata=-9999.0)
        with pytest.raises(ComputeError, match="valid"):
            stretch_cube(cube, StretchParams())

    def test_bands_stretch_as_in_the_whole_cube(self):
        # A band's quantiles come from its own values and the validity alone.
        rng = np.random.default_rng(8)
        data = rng.gamma(2.0, size=(5, 30, 40)).astype(np.float32)
        data[:, :, :4] = -9999.0
        roles = ("blue", "green", "red", "nir", "other")
        cube = RasterCube(data=data, band_meta=[BandMeta(f"b{i}", role) for i, role in enumerate(roles)], nodata=-9999.0)
        params = StretchParams()
        whole = stretch_cube(cube, params)
        for bands in [("green", "nir"), (3,), (4,), ("nir", 0), (4, 2, 0), range(5)]:
            part = stretch_cube(cube.select(bands), params)
            indices = [cube.band_index(band) for band in bands]
            assert part.data.tobytes() == whole.data[indices].tobytes()
            assert part.band_meta == [cube.band_meta[i] for i in indices]
            assert part.nodata == whole.nodata and part.validity is cube.validity

    @pytest.mark.parametrize("bands, message", [(("green",), "no band with role 'green'"), ((2,), "out of range")])
    def test_missing_band_is_a_data_error(self, bands, message):
        cube = RasterCube(data=np.ones((2, 3, 3), dtype=np.float32))
        with pytest.raises(DataError, match=message):
            stretch_cube(cube.select(bands), StretchParams())

    @pytest.mark.parametrize("nodata", [None, -9999.0])
    @pytest.mark.parametrize("shape", [(1, 300, 300), (48, 260, 260)], ids=["1-band", "48-band"])
    @pytest.mark.parametrize(
        "params", [StretchParams(), StretchParams(v_min=-0.0, v_max=3.0, q_low_fraction=0.2, q_high_fraction=0.7)],
        ids=["default", "pinned-low"],
    )
    def test_stretch_into_its_own_data_equals_a_fresh_output(self, nodata, shape, params):
        # Bands larger than one row chunk of stretch_band, so the chunks
        # written back precede chunks still to be read.
        data = np.random.default_rng(63).gamma(2.0, size=shape).astype(np.float32)
        if nodata is not None:
            data[:, :5] = nodata
        cube = RasterCube(data=data, nodata=nodata)
        fresh = stretch_cube(cube, params)
        in_place = stretch_cube(cube, params, out=cube.data)
        assert in_place.data is cube.data
        assert in_place.data.tobytes() == fresh.data.tobytes()
        assert (in_place.nodata, in_place.band_meta) == (fresh.nodata, fresh.band_meta)
        assert in_place.validity is fresh.validity

    @pytest.mark.parametrize(
        "out",
        [np.zeros((2, 4, 4), dtype=np.float32), np.zeros((3, 4, 5), dtype=np.float32),
         np.zeros((3, 4, 4), dtype=np.float64), np.zeros((3, 4, 4)).tolist()],
        ids=["bands", "width", "float64", "list"],
    )
    def test_out_must_be_float32_of_the_cube_shape(self, out):
        cube = RasterCube(data=np.random.default_rng(64).random((3, 4, 4), dtype=np.float32))
        before = cube.data.tobytes()
        with pytest.raises(DataError, match="out must be a float32 array"):
            stretch_cube(cube, StretchParams(), out=out)
        assert cube.data.tobytes() == before


def _cube_512x512x4(nodata):
    data = np.random.default_rng(61).random((4, 512, 512), dtype=np.float32)
    if nodata is not None:
        data[:, :, :8] = nodata
    return RasterCube(data=data, nodata=nodata)


@pytest.mark.parametrize("nodata", [None, -9999.0])
def test_stretch_cube_peaks_below_the_output_and_one_band(nodata):
    # Each band is stretched straight into the float32 output, a few rows at
    # a time: no float64 plane, and no mask of a whole band.
    cube = _cube_512x512x4(nodata)
    tracemalloc.start()
    try:
        out = stretch_cube(cube, StretchParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + cube.data[0].nbytes


@pytest.mark.parametrize("nodata", [None, -9999.0])
def test_stretch_into_its_own_data_peaks_below_one_band(nodata):
    # A band's valid values for its quantiles, or the invalid-pixel plane and
    # stretch_band's row chunks: never a second cube.
    cube = _cube_512x512x4(nodata)
    tracemalloc.start()
    try:
        stretch_cube(cube, StretchParams(), out=cube.data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cube.data[0].nbytes + 2**20


def test_band_quantiles_peaks_below_an_eighth_of_the_band():
    # Two tails and one flag step of the band, not a copy of its valid values.
    plane = np.random.default_rng(65).random((2048, 2048), dtype=np.float32)
    validity = np.zeros(plane.shape, dtype=bool)
    validity[8:-8, 8:-8] = True
    plane[~validity] = -9999.0
    tracemalloc.start()
    try:
        quantiles = band_quantiles(plane, validity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < plane.nbytes / 8
    assert quantiles == quantiles_numpy(plane, validity)


def test_a_nan_in_the_sample_gives_nan_without_a_copy():
    # A valid NaN proves (nan, nan), as from np.quantile: the band takes
    # neither the tails nor the copy of its values.
    rng = np.random.default_rng(68)
    plane = rng.random((1024, 1024), dtype=np.float32)
    plane[rng.random(plane.shape) < 0.05] = np.nan
    tracemalloc.start()
    try:
        quantiles = band_quantiles(plane)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isnan(quantiles).all() and np.isnan(quantiles_numpy(plane, None)).all()
    assert peak < plane.nbytes


@pytest.mark.parametrize("layout", ["constant", "mostly-zero", "mostly-zero-negative"])
@pytest.mark.parametrize("fractions", [(0.01, 0.99), (0.5, 0.5), (0.6, 0.9)])
def test_tied_band_quantiles_peak_below_one_copy(layout, fractions):
    # A band whose ties fill its tails takes no more than the one copy of its
    # valid values that the whole-copy fallback holds.
    rng = np.random.default_rng(67)
    plane = np.zeros((1024, 1024), dtype=np.float32)
    if layout != "constant":
        rest = rng.random(plane.shape) < 0.05
        plane[rest] = rng.random(int(rest.sum()), dtype=np.float32) * (1 if layout == "mostly-zero" else -1)
    validity = np.zeros(plane.shape, dtype=bool)
    validity[8:-8, 8:-8] = True
    plane[~validity] = -9999.0
    tracemalloc.start()
    try:
        quantiles = band_quantiles(plane, validity, fractions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < plane.nbytes + 2**20
    assert quantiles == quantiles_numpy(plane, validity, fractions)


def structured_cube(rng, bands=8, size=512, border=8):
    """Smooth fields, discs and sensor noise per band, inside a nodata border."""
    y, x = np.mgrid[0:size, 0:size] / size
    data = np.empty((bands, size, size), dtype=np.float32)
    for band in data:
        field = sum(np.cos(2 * np.pi * (fy * y + fx * x) + phase) for fy, fx, phase in rng.uniform(0.5, 3.0, (4, 3)))
        for cy, cx, radius, value in zip(*rng.uniform(0.1, 0.9, (2, 12)), rng.uniform(0.01, 0.06, 12), rng.random(12)):
            field[(y - cy) ** 2 + (x - cx) ** 2 < radius**2] = value
        band[...] = 0.1 * field + rng.normal(0.0, 0.004, field.shape)
    data[:, :border] = data[:, -border:] = data[:, :, :border] = data[:, :, -border:] = -9999.0
    return RasterCube(data=data, nodata=-9999.0)


def test_structured_bands_take_the_tails(monkeypatch):
    # The copy of every valid value is the fallback, not the path a scene takes.
    results, real_tails = [], preprocess._tails
    monkeypatch.setattr(preprocess, "_tails", lambda *args: results.append(real_tails(*args)) or results[-1])
    cube = structured_cube(np.random.default_rng(66))
    stretch_cube(cube, StretchParams())
    assert len(results) == cube.bands
    assert sum(result is None for result in results) == 0


def test_stretch_cube_faults_no_more_pages_than_writing_its_output():
    # Freeing a whole stretched band before the next one let the allocator
    # trim the heap and fault the pages in again for every band; row chunks
    # leave nothing of that size to free.
    cube = RasterCube(data=np.random.default_rng(62).random((8, 1024, 1024), dtype=np.float32))
    params = StretchParams()
    stretch_cube(cube, params)

    def minor_faults(work):
        counts = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            work()
            counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return min(counts)

    writing = minor_faults(lambda: np.empty_like(cube.data).fill(0.0))
    band_pages = cube.data[0].nbytes // resource.getpagesize()
    assert minor_faults(lambda: stretch_cube(cube, params)) < writing + band_pages
