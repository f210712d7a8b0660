"""Bit-identity of the pixel kernels against their earlier formulas.

Each reference in ``oracles.py`` is the formula the kernel used before it
was rewritten to partition instead of sort, bin by floor instead of binary
search, work in place or in chunks, or walk the cube in pixel tiles. The
rewrites promise the same bits, so every comparison here is exact.
"""

import itertools

import numpy as np
import pytest

from specscan import (
    ClearSkyLine,
    DataError,
    RasterCube,
    StretchParams,
    band_quantiles,
    compute_scene_stats,
    detect_map,
    fit_clear_sky_line,
    hot,
    mf,
    ndwi,
    rx,
    stretch_band,
)
from specscan import labeling, preprocess
from specscan.detectors import _SAM_BLOCK, _TILE_PIXELS
from specscan.labeling import _CHUNK, _otsu_bins, _otsu_chunk_bins
from conftest import cube_from_planes
from oracles import (
    clear_sky_line_argsort,
    hot_float64,
    mf_map_whole,
    ndwi_where,
    otsu_bins_searchsorted,
    quantiles_numpy,
    sam_map_whole,
    stretch_band_masks,
    whitened_scores_solve_triangular,
)

FRACTIONS = [(0.01, 0.99), (0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.25, 0.75), (0.013, 0.9871)]
TAIL_FRACTIONS = [*FRACTIONS, (0.0, 0.01), (0.99, 1.0), (0.6, 0.9)]
TAIL_PARAMS = [StretchParams(), StretchParams(v_min=-0.0, v_max=3.0, q_low_fraction=0.2, q_high_fraction=0.7)]
TAIL_LAYOUTS = ["normal", "sorted", "cauchy", "striped", "ties", "signed-zeros"]


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def float32_neighbours(values):
    """Each value and the float32 values one ulp either side of it."""
    values = np.asarray(values, dtype=np.float32)
    return np.concatenate(
        [values, np.nextafter(values, np.float32(-np.inf)), np.nextafter(values, np.float32(np.inf))]
    )


def fuzz_plane(rng, layout, shape=(160, 256)):
    """A float32 band of one layout, large enough for band_quantiles' tail path."""
    if layout == "normal":
        return rng.normal(size=shape).astype(np.float32)
    if layout == "sorted":
        return np.sort(rng.normal(size=shape[0] * shape[1])).reshape(shape).astype(np.float32)
    if layout == "cauchy":
        return rng.standard_cauchy(size=shape).astype(np.float32)
    if layout == "striped":  # columns repeat every 64 pixels, as a 64-periodic sensor pattern would
        stripes = np.tile(rng.normal(size=64), (shape[0], shape[1] // 64))
        return (stripes + rng.normal(0.0, 1e-3, shape)).astype(np.float32)
    if layout == "ties":  # a few integer levels, so each bracket value is tied many times
        return rng.integers(0, 5, size=shape).astype(np.float32)
    # mixed signed zeros, with a few ones either side
    plane = np.where(rng.random(shape) < 0.5, np.float32(0.0), np.float32(-0.0))
    plane[rng.random(shape) < 0.03] = 1.0
    plane[rng.random(shape) < 0.03] = -1.0
    return plane


class TestBandQuantiles:
    @pytest.mark.parametrize("fractions", FRACTIONS)
    def test_random_planes(self, fractions):
        rng = np.random.default_rng(11)
        # the largest size takes numpy's vectorised single-index selection
        for shape in [(1, 1), (1, 2), (1, 3), (7, 9), (64, 64), (300, 401)]:
            for plane in (rng.normal(size=shape).astype(np.float32), rng.normal(size=shape)):
                assert band_quantiles(plane, fractions=fractions) == quantiles_numpy(plane, fractions=fractions)

    @pytest.mark.parametrize("fractions", FRACTIONS)
    def test_tie_heavy_planes(self, fractions):
        rng = np.random.default_rng(12)
        for size, levels in [(2, 1), (2, 2), (50, 2), (999, 3), (20_000, 4), (120_000, 5)]:
            plane = (rng.integers(0, levels, size=(1, size)) * 0.37).astype(np.float32)
            assert band_quantiles(plane, fractions=fractions) == quantiles_numpy(plane, fractions=fractions)

    def test_random_fractions_and_sizes(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            size = int(rng.integers(1, 400))
            if rng.random() < 0.5:
                plane = rng.random((1, size), dtype=np.float32)
            else:
                plane = rng.integers(0, 3, size=(1, size)).astype(np.float32)
            fractions = tuple(sorted(rng.random(2)))
            assert band_quantiles(plane, fractions=fractions) == quantiles_numpy(plane, fractions=fractions)

    @pytest.mark.parametrize("fractions", FRACTIONS)
    def test_nodata_mask(self, fractions):
        rng = np.random.default_rng(14)
        plane = rng.normal(size=(128, 96)).astype(np.float32)
        validity = rng.random(plane.shape) < 0.7
        plane[~validity] = -9999.0
        got = band_quantiles(plane, validity, fractions)
        assert got == quantiles_numpy(plane, validity, fractions)
        assert got == quantiles_numpy(plane[validity], fractions=fractions)

    def test_every_order_of_small_planes(self):
        """Wherever the first selection leaves the values, the second finds its statistics."""
        fractions = [(a, b) for a in (0.0, 0.2, 0.45, 0.5, 0.7, 1.0) for b in (0.0, 0.3, 0.5, 0.8, 0.95, 1.0) if a <= b]
        for size in range(1, 7):
            for order in itertools.permutations(range(size)):
                plane = np.array([order], dtype=np.float32) * np.float32(0.7)
                for pair in fractions:
                    assert band_quantiles(plane, fractions=pair) == quantiles_numpy(plane, fractions=pair)

    def test_negative_zero_keeps_its_sign(self):
        for size in (1, 2, 3, 4):
            plane = np.full((1, size), -0.0, dtype=np.float32)
            for fractions in FRACTIONS:
                assert_same_bits(band_quantiles(plane, fractions=fractions), quantiles_numpy(plane, fractions=fractions))

    def test_plane_is_not_modified(self):
        plane = np.random.default_rng(15).random((32, 32), dtype=np.float32)
        before = plane.copy()
        band_quantiles(plane)
        assert_same_bits(plane, before)

    def test_nan_gives_nan_as_np_quantile_does(self):
        plane = np.random.default_rng(16).random((1, 5000), dtype=np.float32)
        plane[0, 17] = np.nan
        assert np.isnan(quantiles_numpy(plane)).all()
        assert np.isnan(band_quantiles(plane)).all()

    @pytest.mark.parametrize("nan_rate", [0.0, 0.001, 0.05, 0.5])
    @pytest.mark.parametrize("with_validity", [False, True], ids=["all-valid", "validity"])
    @pytest.mark.parametrize("layout", TAIL_LAYOUTS)
    def test_tails_match_np_quantile(self, monkeypatch, layout, with_validity, nan_rate):
        """The statistics come from the band's two tails, or from one copy of its values; they stay numpy's."""
        rng = np.random.default_rng(TAIL_LAYOUTS.index(layout))
        plane = fuzz_plane(rng, layout)
        plane[rng.random(plane.shape) < nan_rate] = np.nan
        validity = rng.random(plane.shape) < 0.7 if with_validity else None
        tails, real_tails = [], preprocess._tails
        monkeypatch.setattr(preprocess, "_tails", lambda *args: tails.append(real_tails(*args)) or tails[-1])
        for fractions in TAIL_FRACTIONS:
            got = band_quantiles(plane, validity, fractions)
            expected = quantiles_numpy(plane, validity, fractions)
            assert got == expected or (np.isnan(got).all() and np.isnan(expected).all()), fractions
            for params in TAIL_PARAMS:
                assert_same_bits(stretch_band(plane, params, *got), stretch_band(plane, params, *expected))
        sample = plane.ravel()[:: preprocess._SAMPLE_STEP]
        if np.isnan(sample if validity is None else sample[validity.ravel()[:: preprocess._SAMPLE_STEP]]).any():
            # A NaN in the sample proves (nan, nan): no tail is gathered and no value copied.
            assert tails == []
        elif nan_rate <= 0.001 and layout != "signed-zeros":
            # The default pair takes the tails. (0, 0) needs every value in its
            # high tail, (0, 0.01) a bracket below rank 1% that a sample of a
            # few hundred values cannot give, and (0.5, 0.5) and (0.25, 0.75)
            # tails of half the values, so those copy every value. So does a
            # band whose zeros fill both brackets.
            assert tails[0] is not None and sum(tail is None for tail in tails) <= 5


class TestClearSkyLine:
    @staticmethod
    def tied_scene(rng, nodata):
        """Blue on a few levels, so that the subset's cut falls inside a tie."""
        height, width = 200, 200          # 40,000 pixels: a subset of 60, or fewer with nodata
        blue = rng.uniform(0.5, 1.0, size=height * width)
        levels = [(0.10, 15), (0.12, 10), (0.15, 20), (0.20, 400)]
        spots = rng.permutation(blue.size)
        start = 0
        for value, count in levels:
            blue[spots[start : start + count]] = value
            start += count
        red = np.round(rng.uniform(0.0, 0.3, size=blue.size), 2)   # ties in red too
        planes = {"blue": blue.reshape(height, width), "red": red.reshape(height, width)}
        planes["nir"] = np.ones((height, width))
        if nodata is not None:
            # declare nodata on pixels of every low level, including the cut
            planes["nir"].ravel()[spots[: start : 7]] = nodata
        return cube_from_planes(planes, nodata=nodata)

    @pytest.mark.parametrize("nodata", [None, -1.0], ids=["all-valid", "nodata"])
    def test_ties_straddling_the_cut(self, nodata):
        rng = np.random.default_rng(21)
        for _ in range(5):
            cube = self.tied_scene(rng, nodata)
            line = fit_clear_sky_line(cube)
            expected = clear_sky_line_argsort(cube.plane("blue"), cube.plane("red"), cube.validity)
            assert (line.slope, line.intercept, line.n_fit_points, line.fit_residual_rms) == expected

    def test_random_scenes(self):
        rng = np.random.default_rng(22)
        for size in [(1, 2), (2, 1), (4, 4), (30, 70), (256, 256)]:
            planes = {role: rng.random(size, dtype=np.float32) for role in ("blue", "red")}
            cube = cube_from_planes(planes)
            line = fit_clear_sky_line(cube)
            expected = clear_sky_line_argsort(planes["blue"], planes["red"])
            assert (line.slope, line.intercept, line.n_fit_points, line.fit_residual_rms) == expected


def assert_otsu_bins(values, edges, lo, hi):
    """Each value's bin is the binary search's, and `_otsu_bins` counts and sums those bins.

    The sums are those of one weighted ``np.bincount`` over all the values,
    bit for bit: each bin adds its values in the same order.
    """
    expected = otsu_bins_searchsorted(values, edges)
    assert_same_bits(_otsu_chunk_bins(values, edges, lo, hi), expected)
    counts, sums = _otsu_bins(values, edges, lo, hi)
    assert_same_bits(counts, np.bincount(expected, minlength=edges.size - 1))
    assert_same_bits(sums, np.bincount(expected, weights=values, minlength=edges.size - 1))


class TestOtsuBins:
    @staticmethod
    def edge_values(lo, hi, bins):
        """Every edge, one ulp either side of it, and random values, inside [lo, hi]."""
        edges = np.linspace(lo, hi, bins + 1)
        values = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                np.random.default_rng(bins).uniform(lo, hi, size=1000),
                [lo, hi],
            ]
        )
        return np.clip(values, lo, hi), edges

    @pytest.mark.parametrize("bins", [2, 3, 7, 256, 1000])
    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 1.0), (-1.0, 1.0), (-3.7, 12.1), (1e6, 1e6 + 3.0), (-2.5e-3, -1e-3), (0.1, 0.3), (-1e300, 1e300)],
    )
    def test_edges_and_their_neighbours(self, lo, hi, bins):
        values, edges = self.edge_values(lo, hi, bins)
        assert_otsu_bins(values, edges, lo, hi)

    @pytest.mark.parametrize("ulps", [1, 2, 3, 5, 40, 1000, 2**12, 2**13, 2**14])
    @pytest.mark.parametrize("lo", [1.0, 0.3, -7.0, 1e-310])
    def test_range_a_few_ulps_wide(self, lo, ulps):
        values = [lo]
        for _ in range(ulps):
            values.append(np.nextafter(values[-1], np.inf))
        values = np.array(values)
        hi = float(values[-1])
        for bins in (2, 256):
            edges = np.linspace(lo, hi, bins + 1)
            assert_otsu_bins(values, edges, lo, hi)

    def test_chunks_cover_every_value(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=3 * _CHUNK + 123)
        lo, hi = float(values.min()), float(values.max())
        edges = np.linspace(lo, hi, 257)
        values[[0, _CHUNK - 1, _CHUNK, 2 * _CHUNK, values.size - 1]] = edges[[5, 100, 101, 200, 256]]
        assert_otsu_bins(values, edges, lo, hi)

    @pytest.mark.parametrize("size", [1, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_chunked_sums_add_in_pixel_order(self, size):
        # Values of many magnitudes, so a bin's sum depends on the order its
        # values are added in.
        rng = np.random.default_rng(size)
        values = rng.normal(size=size) * 10.0 ** rng.integers(-12, 13, size=size)
        lo, hi = float(values.min()), float(values.max())
        for bins in (2, 256):
            assert_otsu_bins(values, np.linspace(lo, hi, bins + 1), lo, hi)

    def test_chunk_bins_reuse_the_buffers_they_are_given(self):
        values = np.linspace(-1.0, 1.0, 1000)
        edges = np.linspace(-1.0, 1.0, 9)
        buffers = labeling._otsu_buffers(values.size + 24)
        idx = _otsu_chunk_bins(values, edges, -1.0, 1.0, buffers)
        assert np.shares_memory(idx, buffers[0])
        assert_same_bits(idx, otsu_bins_searchsorted(values, edges))

    @pytest.mark.parametrize("chunk, size", [(1, 200), (3, 500), (7, 1000), (64, 5000), (_CHUNK, 2 * _CHUNK + 77)])
    def test_values_on_edges_across_chunks(self, monkeypatch, chunk, size):
        # An NDWI map's clipped -1 and +1 and the 0 of its zero-sum pixels sit
        # on edges; here most values do, in runs that cross chunk boundaries.
        monkeypatch.setattr(labeling, "_CHUNK", chunk)
        rng = np.random.default_rng(32)
        values = np.repeat(rng.choice([-1.0, 0.0, 1.0], size=size // 5 + 1), 5)[:size]
        off_edges = rng.random(size) < 0.2
        values[off_edges] = rng.uniform(-1.0, 1.0, size=int(off_edges.sum()))
        values[[0, -1]] = -1.0, 1.0
        for bins in (2, 8, 256):
            edges = np.linspace(-1.0, 1.0, bins + 1)
            assert np.isin(values, edges).mean() > 0.7
            assert_otsu_bins(values, edges, -1.0, 1.0)


class TestStretchBand:
    @pytest.mark.parametrize(
        "v_min, v_max",
        [(0.0, 1.0), (-1000.0, 3.5e6), (1e7, 1e7 + 255.0), (-2.0**25, -2.0**24), (-0.0, 1.0), (-1e308, 1e308)],
    )
    def test_at_and_around_the_quantiles(self, v_min, v_max):
        rng = np.random.default_rng(41)
        plane = rng.uniform(-2.0, 5.0, size=(1, 4000)).astype(np.float32)
        q_low, q_high = (float(q) for q in np.float32([0.25, 3.5]))
        plane[0, :2000] = rng.choice(float32_neighbours([q_low, q_high, 0.0]), size=2000)
        params = StretchParams(v_min=v_min, v_max=v_max)
        with np.errstate(invalid="ignore", over="ignore"):
            for quantiles in [(q_low, q_high), (q_low + 1e-9, q_high - 1e-9), (0.0, q_high), (q_low, q_low)]:
                expected = stretch_band_masks(plane, v_min, v_max, *quantiles)
                assert_same_bits(stretch_band(plane, params, *quantiles), expected)

    def test_random_ranges(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            v_min = float(rng.choice([0.0, rng.uniform(-1e6, 1e6), rng.normal()]))
            v_max = v_min + float(rng.choice([1.0, rng.uniform(1e-3, 1e4)]))
            q_low, q_high = (float(q) for q in np.sort(rng.normal(scale=10.0, size=2)).astype(np.float32))
            if q_low == q_high:
                continue
            plane = np.concatenate([float32_neighbours([q_low, q_high]), rng.normal(scale=10.0, size=20)])
            plane = plane.astype(np.float32).reshape(2, -1)
            expected = stretch_band_masks(plane, v_min, v_max, q_low, q_high)
            assert_same_bits(stretch_band(plane, StretchParams(v_min=v_min, v_max=v_max), q_low, q_high), expected)

    def test_float64_plane_one_ulp_around(self):
        q_low, q_high = 0.1, 0.9
        plane = np.array([[q_low, q_high, *np.nextafter([q_low, q_high], -np.inf), *np.nextafter([q_low, q_high], np.inf)]])
        params = StretchParams(v_min=-40.0, v_max=40.0)
        before = plane.copy()
        assert_same_bits(stretch_band(plane, params, q_low, q_high), stretch_band_masks(plane, -40.0, 40.0, q_low, q_high))
        assert_same_bits(plane, before)

    @pytest.mark.parametrize("v_min, v_max", [(0.0, 1.0), (-0.0, 1.0), (-1e308, 1e308), (-1000.0, 3.5e6)])
    @pytest.mark.parametrize("chunk", [1, 3, 7, 64, 10_000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_into_out_by_row_chunks(self, monkeypatch, v_min, v_max, chunk, dtype):
        # stretch_cube once rounded the whole float64 band into its float32
        # output; rows written chunk by chunk into `out` must round the same.
        monkeypatch.setattr(preprocess, "_STRETCH_PIXELS", chunk)
        rng = np.random.default_rng(44)
        q_low, q_high = (float(q) for q in np.float32([0.25, 3.5]))
        params = StretchParams(v_min=v_min, v_max=v_max)
        for shape in [(13, 11), (1, 300), (300,), (), (5, 1)]:
            plane = rng.uniform(-2.0, 5.0, size=shape).astype(np.float32)
            flat = plane.reshape(-1)
            flat[::2] = rng.choice(float32_neighbours([q_low, q_high]), size=flat[::2].size)
            with np.errstate(invalid="ignore", over="ignore"):
                for quantiles in [(q_low, q_high), (q_low, q_low)]:
                    expected = stretch_band_masks(flat, v_min, v_max, *quantiles).reshape(shape)
                    out = np.full(shape, np.nan, dtype=dtype)
                    assert stretch_band(plane, params, *quantiles, out=out) is out
                    assert_same_bits(out, expected.astype(dtype))
                    assert_same_bits(stretch_band(plane, params, *quantiles), expected)

    def test_out_must_match_the_plane(self):
        with pytest.raises(DataError, match="out shape"):
            stretch_band(np.zeros((2, 3)), StretchParams(), 0.0, 1.0, out=np.empty((3, 2)))

    def test_band_quantiles_of_scenes(self):
        rng = np.random.default_rng(42)
        for params in [StretchParams(), StretchParams(v_min=-5.0, v_max=2.0**24, q_low_fraction=0.1, q_high_fraction=0.6)]:
            plane = rng.gamma(2.0, size=(90, 110)).astype(np.float32)
            quantiles = band_quantiles(plane, fractions=(params.q_low_fraction, params.q_high_fraction))
            expected = stretch_band_masks(plane, params.v_min, params.v_max, *quantiles)
            assert_same_bits(stretch_band(plane, params, *quantiles), expected)


class TestNdwi:
    def test_zero_totals(self):
        rng = np.random.default_rng(51)
        green = rng.uniform(-1.0, 1.0, size=(64, 64)).astype(np.float32)
        nir = rng.uniform(-1.0, 1.0, size=(64, 64)).astype(np.float32)
        nir[::3] = -green[::3]                     # green + nir == 0
        green[5, :] = nir[5, :] = 0.0
        green[6, :8], nir[6, :8] = 0.0, -0.0
        nir[7, ::2] = green[7, ::2] * -1.0000001   # totals near zero, scores beyond [-1, 1]
        scores = ndwi(cube_from_planes({"green": green, "nir": nir}))
        expected, zero = ndwi_where(green, nir)
        assert zero.sum() > 64 * 21
        assert_same_bits(scores.data, expected)
        assert_same_bits(scores.flags, zero)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64, 5000])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        monkeypatch.setattr(labeling, "_CHUNK", chunk)
        rng = np.random.default_rng(53)
        green = rng.uniform(-1.0, 1.0, size=(37, 64)).astype(np.float32)
        nir = rng.uniform(-1.0, 1.0, size=(37, 64)).astype(np.float32)
        flat_green, flat_nir = green.reshape(-1), nir.reshape(-1)
        # Zero sums on the first and last pixel of every other chunk and of
        # the map, and 0 / 0 over the whole second chunk.
        for at in (0, chunk - 1, green.size - 1):
            ends = np.arange(at, green.size, 2 * chunk)
            flat_nir[ends] = -flat_green[ends]
        flat_green[chunk : 2 * chunk] = flat_nir[chunk : 2 * chunk] = 0.0
        scores = ndwi(cube_from_planes({"green": green, "nir": nir}))
        expected, zero = ndwi_where(green, nir)
        assert zero[0, 0] and zero[-1, -1]
        assert_same_bits(scores.data, expected)
        assert_same_bits(scores.flags, zero)

    def test_no_zero_total_sets_no_flags(self):
        rng = np.random.default_rng(52)
        green, nir = rng.uniform(0.1, 1.0, size=(2, 33, 17)).astype(np.float32)
        scores = ndwi(cube_from_planes({"green": green, "nir": nir}))
        assert scores.flags is None
        assert_same_bits(scores.data, ndwi_where(green, nir)[0])


class TestHot:
    @pytest.mark.parametrize("mode", ["as_written", "point_line_distance"])
    def test_random_planes_and_lines(self, mode):
        rng = np.random.default_rng(61)
        for shape in [(1, 1), (3, 5), (64, 64), (257, 129)]:
            blue = rng.uniform(-0.5, 2.0, size=shape).astype(np.float32)
            red = rng.normal(size=shape).astype(np.float32)
            red[0, 0] = blue[0, 0] = 0.0
            cube = cube_from_planes({"blue": blue, "red": red})
            for slope, intercept in [(0.0, 0.0), (1.0, -0.25), (-3.7, 1e-3), (1e-9, 5.0), (2.5e4, -1e6)]:
                line = ClearSkyLine(slope=slope, intercept=intercept, n_fit_points=2, fit_residual_rms=0.0)
                expected = hot_float64(blue, red, slope, intercept, mode)
                assert_same_bits(hot(cube, line, mode).data, expected)

    @pytest.mark.parametrize("mode", ["as_written", "point_line_distance"])
    def test_fitted_line_on_a_scene(self, mode):
        rng = np.random.default_rng(62)
        blue = rng.gamma(2.0, 0.1, size=(120, 90)).astype(np.float32)
        red = (0.8 * blue + rng.normal(scale=0.05, size=blue.shape)).astype(np.float32)
        cube = cube_from_planes({"blue": blue, "red": red})
        line = fit_clear_sky_line(cube)
        expected = hot_float64(blue, red, line.slope, line.intercept, mode)
        assert_same_bits(hot(cube, line, mode).data, expected)

    def test_planes_are_not_modified(self):
        rng = np.random.default_rng(63)
        cube = cube_from_planes({"blue": rng.random((9, 9)), "red": rng.random((9, 9))})
        before = cube.data.copy()
        hot(cube, ClearSkyLine(slope=1.5, intercept=0.1, n_fit_points=2, fit_residual_rms=0.0))
        assert_same_bits(cube.data, before)


SPENT_SHAPES = [(1, 1), (1, 3), (3, 5), (257, 255), (256, 256), (301, 701), (300, 700)]


def two_band_cube(rng, shape, roles, nodata=None):
    """Two float32 planes in `roles` order, with zero sums on every 7th pixel and 0 + 0 on every 11th."""
    x, y = rng.uniform(-1.0, 1.0, size=(2, *shape)).astype(np.float32)
    flat_x, flat_y = x.reshape(-1), y.reshape(-1)
    flat_y[::7] = -flat_x[::7]
    flat_x[::11] = flat_y[::11] = 0.0
    if nodata is not None:
        flat_x[3::13] = flat_y[3::13] = nodata
    return cube_from_planes(dict(zip(roles, (x, y))), nodata=nodata)


def spent_map(cube, score):
    """`score` of `cube` into a new array, then over `cube`'s own data; the two maps."""
    fresh = score(cube)
    before = cube.data.copy()
    spent = score(cube, out=cube.data)
    assert np.shares_memory(spent.data, cube.data)
    return fresh, spent, before


class TestMapOverItsBands:
    """ndwi and hot written over their two-band cube give a fresh map's bits."""

    @pytest.mark.parametrize("nodata", [None, -9999.0], ids=["no-nodata", "nodata"])
    @pytest.mark.parametrize("roles", [("green", "nir"), ("nir", "green")], ids="-".join)
    @pytest.mark.parametrize("shape", SPENT_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_ndwi(self, shape, roles, nodata):
        cube = two_band_cube(np.random.default_rng(71), shape, roles, nodata)
        fresh, spent, before = spent_map(cube, ndwi)
        green, nir = before[roles.index("green")], before[roles.index("nir")]
        expected, zero = ndwi_where(green, nir)
        assert zero.any()
        assert_same_bits(fresh.data, expected)
        assert_same_bits(spent.data, expected)
        assert_same_bits(spent.flags, fresh.flags)
        assert spent.value_range == fresh.value_range

    @pytest.mark.parametrize("mode", ["as_written", "point_line_distance"])
    @pytest.mark.parametrize("roles", [("blue", "red"), ("red", "blue")], ids="-".join)
    @pytest.mark.parametrize("shape", SPENT_SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    def test_hot(self, shape, roles, mode):
        cube = two_band_cube(np.random.default_rng(72), shape, roles)
        line = ClearSkyLine(slope=-3.7, intercept=0.125, n_fit_points=2, fit_residual_rms=0.0)
        fresh, spent, before = spent_map(cube, lambda cube, out=None: hot(cube, line, mode, out=out))
        expected = hot_float64(before[roles.index("blue")], before[roles.index("red")], -3.7, 0.125, mode)
        assert_same_bits(fresh.data, expected)
        assert_same_bits(spent.data, expected)
        assert spent.flags is None

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (3, 5), (16, 16), (37, 64)], ids=lambda s: "x".join(map(str, s)))
    def test_every_chunk_order(self, monkeypatch, chunk, shape):
        # Small chunks put chunk edges at the middle pixel, the last upper
        # chunk and pixel 0 in every arrangement.
        monkeypatch.setattr(labeling, "_CHUNK", chunk)
        for roles in [("green", "nir"), ("nir", "green")]:
            fresh, spent, _ = spent_map(two_band_cube(np.random.default_rng(73), shape, roles), ndwi)
            assert_same_bits(spent.data, fresh.data)
            assert_same_bits(spent.flags, fresh.flags)

    def test_out_must_be_the_data_of_a_two_band_cube(self):
        rng = np.random.default_rng(74)
        line = ClearSkyLine(slope=1.0, intercept=0.0, n_fit_points=2, fit_residual_rms=0.0)
        pair = two_band_cube(rng, (4, 6), ("blue", "red"))
        four = cube_from_planes({role: rng.random((4, 6)) for role in ("blue", "green", "red", "nir")})
        strided = four.select(["blue", "red"])  # every other band: a view, not contiguous
        for cube, out in [(pair, pair.data.copy()), (four, four.data), (strided, strided.data)]:
            before = cube.data.copy()
            with pytest.raises(DataError, match="two-band cube"):
                hot(cube, line, out=out)
            assert_same_bits(cube.data, before)


class TestSamMap:
    @staticmethod
    def scene(rng, bands, height, width):
        """Normal spectra with zero, tiny and huge pixels, so that both precisions flag some."""
        data = rng.normal(size=(bands, height, width)).astype(np.float32)
        data[:, 0, :3] = 0.0
        data[:, -1, -1] = -0.0
        data[:, 1, 1] = 1e-25     # squares underflow in float32, not in float64
        data[:, 1, 2] = 3e37
        data[0, 2, 0] = 0.0
        return RasterCube(data=data)

    @pytest.mark.parametrize("precision, dtype", [("single", np.float32), ("double", np.float64)])
    @pytest.mark.parametrize("tile", [None, 2, 5, 64, 1 << 20])
    def test_tiled_map_equals_the_whole_scene_formula(self, monkeypatch, precision, dtype, tile):
        if tile is not None:
            monkeypatch.setattr("specscan.detectors._TILE_PIXELS", tile)
        rng = np.random.default_rng(71)
        # 321 pixels leave one column after the last whole tile of 2, 5 and 64
        for bands, height, width in [(2, 3, 4), (5, 3, 107), (48, 40, 41)]:
            cube = self.scene(rng, bands, height, width)
            target = rng.normal(size=bands)
            expected, zero = sam_map_whole(cube, target, dtype)
            got = detect_map(cube, "sam", target=target, precision=precision)
            assert_same_bits(got.data.ravel(), expected)
            assert zero.sum() >= 4
            assert_same_bits(got.flags.ravel(), zero)

    @pytest.mark.parametrize("precision, dtype", [("single", np.float32), ("double", np.float64)])
    def test_one_pixel_scenes(self, precision, dtype):
        rng = np.random.default_rng(74)
        for bands in (1, 2, 7, 48):
            for spectrum in (rng.normal(size=bands), np.zeros(bands)):
                cube = RasterCube(data=spectrum.astype(np.float32).reshape(bands, 1, 1))
                target = rng.normal(size=bands)
                expected, zero = sam_map_whole(cube, target, dtype)
                got = detect_map(cube, "sam", target=target, precision=precision)
                assert_same_bits(got.data.ravel(), expected)
                assert (got.flags is not None) == bool(zero[0])

    def test_default_tile_on_a_scene_of_several_tiles(self):
        rng = np.random.default_rng(72)
        cube = self.scene(rng, 6, 3, 10923)     # 32,769 pixels: two whole tiles and one column
        target = rng.uniform(0.1, 1.0, size=6)
        for precision, dtype in [("single", np.float32), ("double", np.float64)]:
            expected, zero = sam_map_whole(cube, target, dtype)
            got = detect_map(cube, "sam", target=target, precision=precision)
            assert_same_bits(got.data.ravel(), expected)
            assert_same_bits(got.flags.ravel(), zero)

    # Tiles of 7 and 64 end in a one-column block of 2 and 7, once per tile.
    @pytest.mark.parametrize("tile, block", [(None, None), (None, 2), (None, 1000), (7, 2), (64, 7)])
    def test_tile_not_a_multiple_of_the_block(self, monkeypatch, tile, block):
        if tile is not None:
            monkeypatch.setattr("specscan.detectors._TILE_PIXELS", tile)
        if block is not None:
            monkeypatch.setattr("specscan.detectors._SAM_BLOCK", block)
        rng = np.random.default_rng(76)
        # 3,131 pixels leave a partial last block of every block tried; 3,073
        # and 3,131 leave one column at the default block and at 2.
        assert (3131 % _SAM_BLOCK, 3073 % _SAM_BLOCK, 3131 % 2) == (59, 1, 1)
        for height, width in [(31, 101), (7, 439)]:
            cube = self.scene(rng, 48, height, width)
            target = rng.normal(size=48)
            for precision, dtype in [("single", np.float32), ("double", np.float64)]:
                expected, zero = sam_map_whole(cube, target, dtype)
                got = detect_map(cube, "sam", target=target, precision=precision)
                assert_same_bits(got.data.ravel(), expected)
                assert_same_bits(got.flags.ravel(), zero)

    def test_no_zero_norm_pixel_sets_no_flags(self):
        rng = np.random.default_rng(73)
        cube = RasterCube(data=rng.uniform(0.1, 1.0, size=(4, 10, 10)).astype(np.float32))
        target = rng.random(4)
        got = detect_map(cube, "sam", target=target)
        assert got.flags is None
        assert_same_bits(got.data.ravel(), sam_map_whole(cube, target, np.float32)[0])


class TestMfMap:
    @pytest.mark.parametrize("precision, dtype", [("single", np.float32), ("double", np.float64)])
    def test_tiled_products_equal_one_whole_scene_product(self, precision, dtype):
        # 65,536 pixels: four whole tiles, so every tile's product covers the
        # same columns as a block of the whole-scene product
        rng = np.random.default_rng(75)
        data = rng.normal(0.5, 0.1, size=(48, 256, 256)).astype(np.float32)
        data[:, :, :8] = -1.0
        cube = RasterCube(data=data, nodata=-1.0)
        assert cube.height * cube.width % _TILE_PIXELS == 0
        target = rng.random(48)
        stats = compute_scene_stats(cube)
        got = detect_map(cube, "mf", target=target, stats=stats, precision=precision)
        assert_same_bits(got.data.ravel(), mf_map_whole(cube, target, stats, dtype, _TILE_PIXELS))


def nodata_strip_scene(rng, height, width, bands=48):
    """Normal spectra around 0.5 with the left 8 columns declared nodata."""
    data = rng.normal(0.5, 0.1, size=(bands, height, width)).astype(np.float32)
    data[:, :, :8] = -1.0
    return RasterCube(data=data, nodata=-1.0)


class TestInPlaceWhitening:
    """Tiles centred and whitened in one reused buffer against one ``solve_triangular`` copy per tile."""

    @pytest.mark.parametrize("precision, dtype", [("single", np.float32), ("double", np.float64)])
    # 16,385 pixels end in a one-column tile, which OpenBLAS's trtrs solves by trsv
    @pytest.mark.parametrize("height, width", [(101, 103), (300, 77), (129, 129), (512, 37), (5, 3277)])
    def test_maps_equal_solve_triangular(self, precision, dtype, height, width):
        rng = np.random.default_rng(height * width)
        cube = nodata_strip_scene(rng, height, width)
        target = rng.random(48)
        stats = compute_scene_stats(cube)
        matrix = cube.data.reshape(cube.bands, -1)
        for detector in ("rx", "mf"):
            got = detect_map(cube, detector, target=target, stats=stats, precision=precision)
            expected = whitened_scores_solve_triangular(matrix, detector, target, stats, dtype, _TILE_PIXELS)
            assert_same_bits(got.data.ravel(), expected)

    def test_scalar_kernels_equal_solve_triangular(self):
        rng = np.random.default_rng(77)
        stats = compute_scene_stats(nodata_strip_scene(rng, 20, 30))
        target = rng.random(48)
        for x in rng.normal(0.5, 0.1, size=(5, 48)):
            column = x[:, np.newaxis]
            assert mf(x, target, stats) == whitened_scores_solve_triangular(column, "mf", target, stats, np.float64, 1)[0]
            assert rx(x, stats) == whitened_scores_solve_triangular(column, "rx", None, stats, np.float64, 1)[0]

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_every_tile_is_solved_in_the_one_buffer(self, monkeypatch, precision):
        import scipy.linalg

        solved = []   # (right-hand side given, result) of every trsm and trsv call
        get_blas_funcs = scipy.linalg.get_blas_funcs

        def recording(names, arrays):
            def record(func, position):
                def call(*args, **kwargs):
                    result = func(*args, **kwargs)
                    solved.append((args[position], result))
                    return result
                return call
            return tuple(record(func, 2 if name == "trsm" else 1) for func, name in zip(get_blas_funcs(names, arrays), names))

        monkeypatch.setattr(scipy.linalg, "get_blas_funcs", recording)
        rng = np.random.default_rng(78)
        cube = nodata_strip_scene(rng, 3, 10923, bands=8)   # 32,769 pixels: two whole tiles and one column
        stats = compute_scene_stats(cube)
        detect_map(cube, "rx", stats=stats, precision=precision)
        detect_map(cube, "mf", target=rng.random(8), stats=stats, precision=precision)
        # rx's three tiles, then mf's target and its three tiles
        assert len(solved) == 7
        for given, result in solved:
            assert np.shares_memory(given, result)
        rx_tiles, mf_tiles = solved[:3], solved[4:]
        for tiles in (rx_tiles, mf_tiles):
            buffer = tiles[0][0]
            assert buffer.flags.f_contiguous and buffer.shape == (8, _TILE_PIXELS)
            assert all(np.shares_memory(given, buffer) for given, _ in tiles)
