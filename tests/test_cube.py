import json
import tracemalloc

import numpy as np
import pytest

from specscan import (
    BandMeta,
    BinaryMask,
    DataError,
    FormatError,
    RasterCube,
    ScoreMap,
    TargetSpectrum,
    load_cube,
    load_mask,
    load_score_map,
    load_spectral_library,
    save_cube,
    save_mask,
    save_score_map,
)
from specscan.cube import _json_default
from conftest import RGBN, random_cube
from oracles import valid_pixel_count

# A valid 2x1x2 header for tests that break one part of it.
HEADER = {"width": 2, "height": 1, "bands": 2, "payload": "m.raw"}
# Bytes that are not UTF-8 text.
NOT_UTF8 = b"\xff\xfe\x80 binary \x00\x81"


def cubes_equal(a: RasterCube, b: RasterCube) -> bool:
    if a.data.dtype != b.data.dtype or not np.array_equal(a.data, b.data):
        return False
    if a.band_meta != b.band_meta or a.nodata != b.nodata:
        return False
    if (a.validity is None) != (b.validity is None):
        return False
    return a.validity is None or np.array_equal(a.validity, b.validity)


class TestCubeRoundTrip:
    def test_constant_cube_round_trip(self, tmp_path):
        cube = RasterCube(data=np.full((1, 2, 2), 0.5, dtype=np.float32))
        save_cube(cube, tmp_path / "c.json")
        loaded = load_cube(tmp_path / "c.json")
        assert loaded.width == 2 and loaded.height == 2 and loaded.bands == 1
        assert np.array_equal(loaded.data, np.full((1, 2, 2), 0.5, dtype=np.float32))

    def test_randomized_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        for i in range(25):
            bands = int(rng.integers(1, 7))
            height = int(rng.integers(1, 9))
            width = int(rng.integers(1, 9))
            data = rng.random((bands, height, width), dtype=np.float32) * 2 - 0.5
            nodata = None
            if i % 3 == 0:
                nodata = -9999.0
                holes = rng.random((height, width)) < 0.2
                data[:, holes] = nodata
            meta = [
                BandMeta(
                    name=f"b{j}",
                    role=RGBN[j] if j < 4 and bands >= 4 else "other",
                    wavelength_nm=float(400 + 50 * j) if j % 2 == 0 else None,
                )
                for j in range(bands)
            ]
            cube = RasterCube(data=data, band_meta=meta, nodata=nodata)
            save_cube(cube, tmp_path / f"cube_{i}.json")
            assert cubes_equal(cube, load_cube(tmp_path / f"cube_{i}.json"))

    def test_payload_length_mismatch(self, tmp_path):
        header = {
            "width": 2,
            "height": 2,
            "bands": 4,
            "dtype": "f32",
            "interleave": "bsq",
            "byte_order": "little",
            "payload": "short.raw",
        }
        (tmp_path / "short.json").write_text(json.dumps(header))
        (tmp_path / "short.raw").write_bytes(np.zeros(2 * 2 * 3, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="bytes"):
            load_cube(tmp_path / "short.json")

    @pytest.mark.parametrize("extra", [-15, -3, -1, 1, 2, 16])
    def test_payload_length_reported_in_bytes(self, tmp_path, extra):
        (tmp_path / "m.json").write_text(json.dumps(HEADER))
        (tmp_path / "m.raw").write_bytes(bytes(16 + extra))
        with pytest.raises(FormatError, match=f"holds {16 + extra} bytes, header implies 16"):
            load_cube(tmp_path / "m.json")

    def test_unwritable_destination(self):
        cube = RasterCube(data=np.zeros((1, 1, 1), dtype=np.float32))
        with pytest.raises(FormatError):
            save_cube(cube, "")

    def test_missing_header(self, tmp_path):
        with pytest.raises(FormatError, match="read"):
            load_cube(tmp_path / "absent.json")

    def test_header_that_is_not_utf8_is_format_error(self, tmp_path):
        (tmp_path / "bin.json").write_bytes(NOT_UTF8)
        with pytest.raises(FormatError, match="cannot read cube header .*bin.json"):
            load_cube(tmp_path / "bin.json")

    def test_save_returns_the_payload_path(self, tmp_path):
        cube = random_cube(np.random.default_rng(3), bands=2, height=3, width=4)
        assert save_cube(cube, tmp_path / "c.json") == tmp_path / "c.raw"
        scores = ScoreMap(data=np.zeros((2, 2)), score_kind="HOT")
        assert save_score_map(scores, tmp_path / "s.json") == tmp_path / "s.raw"

    @pytest.mark.parametrize("writer", ["cube", "score_map"])
    def test_header_named_like_its_payload_is_refused_before_any_write(self, tmp_path, writer):
        # The payload is <stem>.raw: written after the header, it would overwrite it.
        with pytest.raises(FormatError, match="overwritten by its payload"):
            if writer == "cube":
                save_cube(random_cube(np.random.default_rng(4), bands=2, height=4, width=4), tmp_path / "y.raw")
            else:
                save_score_map(ScoreMap(data=np.zeros((4, 4)), score_kind="HOT"), tmp_path / "y.raw")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "nodata, message",
        [
            (10**400, "nodata must be finite, got inf"),
            (1e308, "nodata must be a finite float32 value"),
            (-3.5e38, "nodata must be a finite float32 value"),
        ],
        ids=["401-digit-int", "1e308", "below-float32"],
    )
    def test_nodata_float32_cannot_hold_is_format_error(self, tmp_path, nodata, message):
        # No float32 sample can hold it, so it would match none.
        (tmp_path / "m.json").write_text(json.dumps({**HEADER, "nodata": nodata}))
        (tmp_path / "m.raw").write_bytes(np.zeros(4, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match=f"invalid: {message}"):
            load_cube(tmp_path / "m.json")
        with pytest.raises(DataError, match=message):
            RasterCube(data=np.zeros((2, 1, 2), dtype=np.float32), nodata=nodata)

    def test_map_float32_cannot_hold_is_refused_before_any_write(self, tmp_path):
        with pytest.raises(DataError, match="does not fit float32"):
            save_score_map(ScoreMap(data=[[1e39, 0.0]], score_kind="RX"), tmp_path / "s.json")
        with pytest.raises(DataError, match="does not fit float32"):
            save_score_map(ScoreMap(data=[[0.0, -1e39]], score_kind="HOT"), tmp_path / "s.json")
        assert list(tmp_path.iterdir()) == []

    def test_malformed_header(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(FormatError, match="malformed"):
            load_cube(tmp_path / "bad.json")

    def test_nonfinite_payload_rejected(self, tmp_path):
        header = {"width": 2, "height": 1, "bands": 1, "payload": "nan.raw"}
        (tmp_path / "nan.json").write_text(json.dumps(header))
        (tmp_path / "nan.raw").write_bytes(
            np.array([1.0, np.nan], dtype="<f4").tobytes()
        )
        with pytest.raises(FormatError, match="non-finite"):
            load_cube(tmp_path / "nan.json")

    def test_duplicate_role_rejected_at_load(self, tmp_path):
        header = {
            "width": 1,
            "height": 1,
            "bands": 2,
            "payload": "dup.raw",
            "bands_meta": [
                {"name": "a", "role": "red"},
                {"name": "b", "role": "red"},
            ],
        }
        (tmp_path / "dup.json").write_text(json.dumps(header))
        (tmp_path / "dup.raw").write_bytes(np.zeros(2, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="duplicated"):
            load_cube(tmp_path / "dup.json")


    def test_header_bytes(self, tmp_path):
        meta = [BandMeta(name="g", role="green", wavelength_nm=560.0), BandMeta(name="x")]
        cube = RasterCube(data=np.zeros((2, 1, 3), dtype=np.float32), band_meta=meta, nodata=-1.0)
        save_cube(cube, tmp_path / "h.json")
        assert (tmp_path / "h.json").read_bytes() == (
            b'{\n  "width": 3,\n  "height": 1,\n  "bands": 2,\n  "dtype": "f32",\n'
            b'  "interleave": "bsq",\n  "byte_order": "little",\n  "payload": "h.raw",\n'
            b'  "nodata": -1.0,\n  "bands_meta": [\n'
            b'    {\n      "name": "g",\n      "role": "green",\n      "wavelength_nm": 560.0\n    },\n'
            b'    {\n      "name": "x",\n      "role": "other",\n      "wavelength_nm": null\n    }\n'
            b'  ]\n}\n'
        )

    @pytest.mark.parametrize(
        "header, message",
        [
            ([1, 2], "JSON object"),
            ({k: v for k, v in HEADER.items() if k != "width"}, "missing field 'width'"),
            ({**HEADER, "dtype": "f64"}, "dtype"),
            ({**HEADER, "interleave": "bip"}, "interleave"),
            ({**HEADER, "byte_order": "big"}, "byte order"),
            ({**HEADER, "height": "two"}, "height 'two' must be an integer"),
            ({**HEADER, "bands": 0}, ">= 1"),
            ({**HEADER, "bands_meta": [{"name": "a"}]}, "entries for 2 bands"),
            ({**HEADER, "bands_meta": ["a", "b"]}, "must be objects"),
            ({**HEADER, "payload": "absent.raw"}, "cannot read cube payload"),
            ({**HEADER, "nodata": float("inf")}, "finite"),
            ({**HEADER, "nodata": "abc"}, "nodata .* must be a number"),
            ({**HEADER, "nodata": [1]}, "nodata .* must be a number"),
            ({**HEADER, "bands_meta": 3}, "must be a list"),
            ({**HEADER, "bands_meta": [{"name": "a", "wavelength_nm": "abc"}, {"name": "b"}]}, "malformed bands_meta"),
            ({**HEADER, "width": 3.9}, "width 3.9 must be an integer"),
            ({**HEADER, "bands": True}, "bands True must be an integer"),
            ({**HEADER, "height": "2"}, "height '2' must be an integer"),
            ({**HEADER, "nodata": True}, "nodata .* must be a number"),
            ({**HEADER, "nodata": "0"}, "nodata .* must be a number"),
            ({**HEADER, "bands_meta": [{"name": "a", "role": "ultraviolet"}, {"name": "b"}]}, "malformed bands_meta"),
            ({**HEADER, "bands_meta": [{"name": "a", "wavelength_nm": 5000}, {"name": "b"}]}, "malformed bands_meta"),
        ],
        ids=[
            "non-object", "missing-field", "dtype", "interleave", "byte-order", "non-integer-dims",
            "zero-dims", "meta-length", "meta-entry", "missing-payload", "non-finite-nodata",
            "string-nodata", "list-nodata", "meta-not-list", "string-wavelength", "float-width",
            "bool-bands", "numeric-string-height", "bool-nodata", "numeric-string-nodata", "unknown-role",
            "wavelength-out-of-range",
        ],
    )
    def test_malformed_header_is_format_error(self, tmp_path, header, message):
        (tmp_path / "m.json").write_text(json.dumps(header))
        (tmp_path / "m.raw").write_bytes(np.zeros(4, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match=message):
            load_cube(tmp_path / "m.json")

    @pytest.mark.parametrize("meta", [{}, 0, "", False, 3, "ab"], ids=repr)
    def test_bands_meta_other_than_a_list_is_format_error(self, tmp_path, meta):
        # Checked by type: an empty or false value is not a list either.
        (tmp_path / "m.json").write_text(json.dumps({**HEADER, "bands_meta": meta}))
        (tmp_path / "m.raw").write_bytes(np.zeros(4, dtype="<f4").tobytes())
        with pytest.raises(FormatError, match=r"^bands_meta in .*m\.json must be a list$"):
            load_cube(tmp_path / "m.json")

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"wavelength_nm": "500"}, "wavelength_nm '500' must be a number"),
            ({"wavelength_nm": True}, "wavelength_nm True must be a number"),
            ({"wavelength_nm": [500]}, "wavelength_nm [500] must be a number"),
            ({"wavelength_nm": {}}, "wavelength_nm {} must be a number"),
            ({"name": 5}, "name 5 must be a string"),
            ({"name": False}, "name False must be a string"),
            ({"name": 1.5}, "name 1.5 must be a string"),
            ({"name": ["b"]}, "name ['b'] must be a string"),
            ({"wavelength_nm": 10**400}, "wavelength_nm must be finite, got inf"),
        ],
        ids=["string-wavelength", "bool-wavelength", "list-wavelength", "object-wavelength",
             "int-name", "bool-name", "float-name", "list-name", "huge-int-wavelength"],
    )
    def test_bands_meta_entry_fields_are_checked_by_type(self, tmp_path, entry, message):
        # A string wavelength is not read as a number, nor a number or null name as a string.
        (tmp_path / "m.json").write_text(json.dumps({**HEADER, "bands_meta": [{"name": "a"}, entry]}))
        (tmp_path / "m.raw").write_bytes(np.zeros(4, dtype="<f4").tobytes())
        with pytest.raises(FormatError) as excinfo:
            load_cube(tmp_path / "m.json")
        assert str(excinfo.value) == f"malformed bands_meta entry in {tmp_path / 'm.json'}: {message}"
        # The reader restates no rule: the same entry given straight to BandMeta fails the same way.
        with pytest.raises(DataError) as excinfo:
            BandMeta(**{"name": "b", **entry})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "entry, name, wavelength",
        [({}, "band_1", None), ({"name": None, "wavelength_nm": None}, "band_1", None),
         ({"name": "", "wavelength_nm": 500}, "", 500.0), ({"name": "b", "wavelength_nm": 860.5}, "b", 860.5)],
        ids=["absent", "null", "int-wavelength", "float-wavelength"],
    )
    def test_bands_meta_entry_fields_absent_null_or_typed_load(self, tmp_path, entry, name, wavelength):
        (tmp_path / "m.json").write_text(json.dumps({**HEADER, "bands_meta": [{"name": "a"}, entry]}))
        (tmp_path / "m.raw").write_bytes(np.zeros(4, dtype="<f4").tobytes())
        meta = load_cube(tmp_path / "m.json").band_meta[1]
        assert (meta.name, meta.wavelength_nm) == (name, wavelength)
        assert type(meta.wavelength_nm) is (float if wavelength is not None else type(None))

    @pytest.mark.parametrize("header", [HEADER, {**HEADER, "bands_meta": None}, {**HEADER, "bands_meta": []}],
                             ids=["absent", "null", "empty"])
    def test_absent_null_or_empty_bands_meta_gives_default_names(self, tmp_path, header):
        (tmp_path / "m.json").write_text(json.dumps(header))
        (tmp_path / "m.raw").write_bytes(np.zeros(4, dtype="<f4").tobytes())
        assert [meta.name for meta in load_cube(tmp_path / "m.json").band_meta] == ["band_0", "band_1"]


def five_band_file(tmp_path, nodata=-9999.0):
    """A saved 5-band cube (RGBN plus an ``other`` band) with nodata pixels in single bands."""
    rng = np.random.default_rng(17)
    data = rng.random((5, 6, 7), dtype=np.float32)
    if nodata is not None:
        data[0, 1, 2] = data[2, 4, 0] = data[4, 5, 6] = nodata
    meta = [*(BandMeta(name=f"b{i}", role=role) for i, role in enumerate(RGBN)), BandMeta(name="x")]
    save_cube(RasterCube(data=data, band_meta=meta, nodata=nodata), tmp_path / "five.json")
    return tmp_path / "five.json"


class TestBandSelectiveLoad:
    """``load_cube(path, bands=keys)`` reads every band but keeps only `keys`."""

    @pytest.mark.parametrize("nodata", [-9999.0, None])
    @pytest.mark.parametrize(
        "keys",
        [("green", "nir"), ("nir",), (3,), (1, 3), (3, 0, 2), ("other",), (4, "blue"), (0, 1, 2, 3, 4)],
    )
    def test_equals_the_selection_of_the_whole_cube(self, tmp_path, keys, nodata):
        path = five_band_file(tmp_path, nodata)
        assert cubes_equal(load_cube(path, bands=keys), load_cube(path).select(keys))

    def test_nodata_in_an_unscored_band_marks_the_pixel_invalid(self, tmp_path):
        cube = load_cube(five_band_file(tmp_path), bands=("green", "nir"))
        assert not (cube.data == np.float32(-9999.0)).any()
        expected = np.ones((6, 7), dtype=bool)
        expected[1, 2] = expected[4, 0] = expected[5, 6] = False
        assert np.array_equal(cube.validity, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_in_an_unscored_band_is_format_error(self, tmp_path, bad):
        path = five_band_file(tmp_path)
        payload = np.fromfile(path.with_suffix(".raw"), dtype="<f4")
        payload[2 * 42 + 5] = bad  # band 2, red
        payload.tofile(path.with_suffix(".raw"))
        with pytest.raises(FormatError, match=r"five\.json invalid: cube contains non-finite samples"):
            load_cube(path, bands=("green", "nir"))

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("green", "cyan"), "no band with role 'cyan'"),
            ((5,), "band index 5 out of range for 5 bands"),
            (("nir", 3), "distinct bands"),
            ((), "at least one"),
        ],
    )
    def test_a_key_the_file_lacks_is_the_selection_error(self, tmp_path, keys, message):
        path = five_band_file(tmp_path)
        with pytest.raises(DataError, match=message) as whole:
            load_cube(path).select(keys)
        with pytest.raises(DataError) as selective:
            load_cube(path, bands=keys)
        assert str(selective.value) == str(whole.value)

    @pytest.mark.parametrize("extra", [-5, 3])
    def test_payload_length_is_checked_before_the_keys(self, tmp_path, extra):
        (tmp_path / "m.json").write_text(json.dumps(HEADER))
        (tmp_path / "m.raw").write_bytes(bytes(16 + extra))
        with pytest.raises(FormatError, match=f"holds {16 + extra} bytes, header implies 16"):
            load_cube(tmp_path / "m.json", bands=(7,))

    def test_holds_the_kept_bands_and_the_validity(self, tmp_path):
        # A band left out is read a chunk at a time, not into a spare plane.
        data = np.random.default_rng(6).random((8, 512, 512), dtype=np.float32)
        data[:, :, :4] = -9999.0
        save_cube(RasterCube(data=data, nodata=-9999.0), tmp_path / "wide.json")
        tracemalloc.start()
        try:
            cube = load_cube(tmp_path / "wide.json", bands=(2, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cube.bands == 2
        assert peak < cube.data.nbytes + cube.validity.nbytes + (1 << 20)


def chunked_file(tmp_path, nodata=None):
    """A saved 3-band 11 x 2 cube: at 7 pixels a chunk, three rows, so its last chunk is partial."""
    data = np.random.default_rng(18).random((3, 11, 2), dtype=np.float32)
    save_cube(RasterCube(data=data, nodata=nodata), tmp_path / "chunked.json")
    return tmp_path / "chunked.json"


@pytest.mark.parametrize("chunk", [1, 3, 7, None], ids=["chunk-1", "chunk-3", "chunk-7", "default"])
class TestScanChunks:
    """The finiteness and nodata scan gives the same answer at any chunk size."""

    @pytest.fixture(autouse=True)
    def set_chunk(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr("specscan.cube._CHUNK", chunk)

    @pytest.mark.parametrize("band", [0, 1])
    def test_non_finite_sample_in_the_last_chunk_of_a_band_left_out(self, tmp_path, band):
        path = chunked_file(tmp_path)
        payload = np.fromfile(path.with_suffix(".raw"), dtype="<f4")
        payload[22 * band + 21] = np.nan
        payload.tofile(path.with_suffix(".raw"))
        with pytest.raises(FormatError, match="non-finite"):
            load_cube(path, bands=(2,))

    def test_nodata_only_in_bands_left_out(self, tmp_path):
        path = chunked_file(tmp_path, nodata=-1.0)
        payload = np.fromfile(path.with_suffix(".raw"), dtype="<f4")
        payload[[0, 5, 6, 13, 21, 22 + 2, 22 + 14, 22 + 21]] = -1.0
        payload.tofile(path.with_suffix(".raw"))
        cube = load_cube(path, bands=(2,))
        assert cubes_equal(cube, load_cube(path).select((2,)))
        assert np.count_nonzero(~cube.validity) == 7  # pixel 21 holds nodata in both bands

    def test_a_built_cube_scans_its_strided_planes(self):
        data = np.random.default_rng(20).random((3, 22, 6), dtype=np.float32)
        data[1, 20, 3] = data[0, 6, 0] = data[2, 21, 5] = -1.0  # the last is not in the view
        strided = data[:, ::2, ::3]
        cube = RasterCube(data=strided, nodata=-1.0)
        assert np.array_equal(cube.validity, ~np.any(strided == np.float32(-1.0), axis=0))
        assert np.count_nonzero(~cube.validity) == 2
        data[2, 20, 3] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            RasterCube(data=strided)


class TestBandAccess:
    def test_role_lookup(self, make_cube):
        cube = make_cube(
            {
                "blue": [[0.1]],
                "green": [[0.2]],
                "red": [[0.3]],
                "nir": [[0.4]],
            }
        )
        assert cube.band_index("green") == 1
        assert cube.plane("green")[0, 0] == np.float32(0.2)

    def test_plane_is_a_view(self, make_cube):
        cube = make_cube({"blue": [[0.1, 0.2]]})
        plane = cube.plane("blue")
        assert plane.base is cube.data
        assert plane.size == cube.width * cube.height

    def test_missing_role(self, make_cube):
        cube = make_cube({"blue": [[0.1]], "green": [[0.2]], "red": [[0.3]]})
        with pytest.raises(DataError, match="nir"):
            cube.band_index("nir")

    def test_duplicate_role_rejected_at_construction(self):
        meta = [BandMeta(name="a", role="red"), BandMeta(name="b", role="red")]
        with pytest.raises(DataError, match="duplicated"):
            RasterCube(data=np.zeros((2, 1, 1), dtype=np.float32), band_meta=meta)

    def test_band_index_out_of_range(self, make_cube):
        cube = make_cube({"blue": [[0.1]]})
        with pytest.raises(DataError, match="range"):
            cube.plane(3)

    @pytest.mark.parametrize("key", [np.int64(2), np.int32(2), np.uint8(2)], ids=lambda key: type(key).__name__)
    def test_numpy_integer_is_an_index(self, key, tmp_path):
        cube = load_cube(five_band_file(tmp_path))
        index = cube.band_index(key)
        assert index == 2 and type(index) is int
        assert cubes_equal(cube.select([key, np.int64(4)]), cube.select([2, 4]))
        assert cubes_equal(load_cube(tmp_path / "five.json", bands=[key]), cube.select([2]))

    @pytest.mark.parametrize("key", [True, False, np.bool_(True)], ids=repr)
    def test_bool_is_not_a_band_key(self, key, tmp_path):
        path = five_band_file(tmp_path)
        cube = load_cube(path)
        for select in (cube.band_index, lambda key: cube.select([key]), lambda key: load_cube(path, bands=[key])):
            with pytest.raises(DataError, match="is a bool"):
                select(key)


class TestInvariants:
    def test_nonfinite_data_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            RasterCube(data=np.array([[[np.inf]]], dtype=np.float32))

    def test_wavelength_range(self):
        with pytest.raises(DataError, match="wavelength"):
            BandMeta(name="x", role="other", wavelength_nm=100.0)

    def test_unknown_role(self):
        with pytest.raises(DataError, match="role"):
            BandMeta(name="x", role="ultraviolet")

    def test_validity_requires_nodata(self):
        # Validity comes from nodata alone: it is not a constructor argument.
        data = np.zeros((1, 1, 1), dtype=np.float32)
        with pytest.raises(TypeError, match="validity"):
            RasterCube(data=data, validity=np.ones((1, 1), dtype=bool))
        assert RasterCube(data=data).validity is None

    def test_nodata_derives_validity(self):
        data = np.array([[[1.0, -9999.0], [0.5, 0.25]]], dtype=np.float32)
        cube = RasterCube(data=data, nodata=-9999.0)
        assert cube.validity is not None
        assert cube.validity.tolist() == [[True, False], [True, True]]
        assert valid_pixel_count(cube) == 3

    def test_nodata_validity_holds_one_chunk_of_flags(self):
        # Scanned a chunk at a time: the validity and one chunk's comparison,
        # not a plane or a (bands, height, width) array of them.
        data = np.random.default_rng(5).random((4, 1024, 1024), dtype=np.float32)
        data[:, :, :8] = -9999.0
        tracemalloc.start()
        try:
            cube = RasterCube(data=data, nodata=-9999.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cube.validity.tolist() == (~np.any(data == np.float32(-9999.0), axis=0)).tolist()
        assert peak < cube.validity.nbytes + (1 << 18)

    def test_non_numeric_nodata_is_data_error(self):
        with pytest.raises(DataError, match="nodata 'abc' must be a number"):
            RasterCube(data=np.zeros((1, 1, 1), dtype=np.float32), nodata="abc")

    def test_mask_values_checked(self):
        with pytest.raises(DataError, match="0 or 1"):
            BinaryMask(data=np.array([[0, 2]], dtype=np.uint8))

    @pytest.mark.parametrize(
        "values",
        [
            np.array([[0, 1, 255]], dtype=np.uint8),
            np.array([[1, 0, 2]], dtype=np.uint16),
            np.array([[0, -1]], dtype=np.int8),
            np.array([[1, -128]], dtype=np.int8),
            np.array([[0, 1], [1, 2]], dtype=np.int64),
            np.array([[0, -(2**40)]], dtype=np.int64),
            np.array([[0.0, 0.5]]),
            np.array([[1.0, np.nan]]),
            np.array([[0.0, -1.0]], dtype=np.float32),
            np.array([["0", "1"]]),
        ],
        ids=["uint8-255", "uint16-2", "int8-minus-1", "int8-minimum", "int64-2", "int64-large-negative",
             "float-half", "float-nan", "float32-minus-1", "strings"],
    )
    def test_mask_rejects_every_value_but_0_and_1(self, values):
        with pytest.raises(DataError, match="0 or 1"):
            BinaryMask(data=values)

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 2), (0, 3), (3, 0)])
    def test_mask_must_be_2d_and_non_empty(self, shape):
        with pytest.raises(DataError, match="2-D and non-empty"):
            BinaryMask(data=np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize(
        "values",
        [
            np.array([[True, False]]),
            np.array([[0, 1]], dtype=np.uint8),
            np.array([[1, 0]], dtype=np.int8),
            np.array([[0, 1]], dtype=np.int64),
            np.array([[1, 0]], dtype=np.uint64),
            np.array([[1.0, -0.0]]),
            [[0, 1]],
        ],
        ids=["bool", "uint8", "int8", "int64", "uint64", "float", "list"],
    )
    def test_mask_accepts_0_and_1_of_any_type_as_uint8(self, values):
        mask = BinaryMask(data=values)
        assert mask.data.dtype == np.uint8
        assert mask.data.tolist() == (np.asarray(values) != 0).astype(np.uint8).tolist()

    def test_score_map_ranges(self):
        with pytest.raises(DataError, match="NDWI"):
            ScoreMap(data=np.array([[1.5]]), score_kind="NDWI")
        with pytest.raises(DataError, match="SAM"):
            ScoreMap(data=np.array([[-0.1]]), score_kind="SAM")

    @pytest.mark.parametrize("kind", ["NDWI", "HOT"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 17, -1])
    def test_score_map_rejects_non_finite(self, kind, bad, at):
        data = np.linspace(-0.5, 0.5, 35).reshape(5, 7)
        data.reshape(-1)[at] = bad
        with pytest.raises(DataError, match="non-finite"):
            ScoreMap(data=data, score_kind=kind)

    def test_target_spectrum_label(self):
        with pytest.raises(DataError, match="label"):
            TargetSpectrum(label="", values=np.array([1.0]))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: RasterCube(data=np.zeros((2, 2))), DataError,
             "cube data must be 3-D (bands, height, width), got shape (2, 2)"),
            (lambda: RasterCube(data=np.zeros((1, 0, 2))), DataError, "cube dimensions must all be >= 1, got (1, 0, 2)"),
            (lambda: RasterCube(data=np.zeros((2, 1, 1)), band_meta=[BandMeta("a")]), DataError,
             "band_meta has 1 entries for 2 bands"),
            (lambda: ScoreMap(data=np.zeros(3), score_kind="HOT"), DataError,
             "score data must be 2-D and non-empty, got shape (3,)"),
            (lambda: ScoreMap(data=np.zeros((1, 1)), score_kind="NIR"), DataError,
             "unknown score kind 'NIR'; expected one of ('NDWI', 'HOT', 'SAM', 'MF', 'RX', 'BandValue')"),
            (lambda: ScoreMap(data=np.zeros((2, 2)), score_kind="HOT", flags=np.zeros((1, 2), dtype=bool)),
             DataError, "flags shape must match score data shape"),
            (lambda: TargetSpectrum("t", []), DataError, "target spectrum must be a non-empty 1-D vector"),
            (lambda: TargetSpectrum("t", [[0.1, 0.2]]), DataError, "target spectrum must be a non-empty 1-D vector"),
            (lambda: TargetSpectrum("t", [0.1, np.inf]), DataError, "target 't' contains non-finite values"),
            (lambda: TargetSpectrum("t", [0.1, 0.2], wavelengths_nm=[500.0]), DataError,
             "wavelength grid must match spectrum length"),
            (lambda: TargetSpectrum("t", [0.1, 0.2], wavelengths_nm=[500.0, 500.0]).on_bands(np.array([500.0]), None),
             DataError, "target 't' repeats a wavelength"),
            (lambda: json.dumps({"x": object()}, default=_json_default), TypeError,
             "object is not JSON serializable"),
        ],
        ids=["cube-not-3d", "cube-zero-size", "cube-meta-count", "score-not-2d", "score-unknown-kind",
             "score-flags-shape", "target-empty", "target-2d", "target-non-finite", "target-grid-length",
             "target-repeated-wavelength", "json-unsupported-type"],
    )
    def test_each_check_raises_its_error(self, build, error, message):
        with pytest.raises(error) as excinfo:
            build()
        assert str(excinfo.value) == message


class TestMaskPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = BinaryMask(data=(rng.random((5, 7)) > 0.5).astype(np.uint8))
        save_mask(mask, tmp_path / "m.pgm")
        loaded = load_mask(tmp_path / "m.pgm")
        assert np.array_equal(loaded.data, mask.data)

    def test_written_bytes_are_0_and_255(self, tmp_path):
        mask = BinaryMask(data=np.array([[0, 1]], dtype=np.uint8))
        save_mask(mask, tmp_path / "m.pgm")
        raw = (tmp_path / "m.pgm").read_bytes()
        assert raw.startswith(b"P5\n2 1\n255\n")
        assert raw[-2:] == bytes([0, 255])

    def test_header_comments_are_skipped(self, tmp_path):
        header = b"P5\n# made by GIMP\n3 2 # w h\n255\n"
        (tmp_path / "c.pgm").write_bytes(header + bytes([0, 255, 0, 255, 255, 0]))
        assert load_mask(tmp_path / "c.pgm").data.tolist() == [[0, 1, 0], [1, 1, 0]]

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError, match="magic"):
            load_mask(tmp_path / "bad.pgm")

    def test_nonbinary_values_rejected(self, tmp_path):
        (tmp_path / "gray.pgm").write_bytes(b"P5\n2 1\n255\n" + bytes([0, 7]))
        with pytest.raises(FormatError, match="other than"):
            load_mask(tmp_path / "gray.pgm")

    def test_every_byte_but_0_and_255_rejected(self, tmp_path):
        for value in range(256):
            (tmp_path / "one.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([255, 0, value, 0]))
            if value in (0, 255):
                assert load_mask(tmp_path / "one.pgm").data.tolist() == [[1, 0], [value // 255, 0]]
            else:
                with pytest.raises(FormatError, match="other than"):
                    load_mask(tmp_path / "one.pgm")

    @pytest.mark.parametrize(
        "header, match",
        [
            (b"P5\n2 1\n15\n", "maxval 255"),
            (b"P5\n2 1\n", "malformed PGM header"),
            (b"P5\n2 x\n255\n", "malformed PGM header"),
            (b"P5\n0 1\n255\n", "dimensions must be >= 1"),
            (b"P5\n3 0\n255\n", "dimensions must be >= 1"),
            (b"P5\n3 1\n255\n", "header implies 3"),
        ],
        ids=["maxval", "truncated-header", "non-integer-height", "zero-width", "zero-height", "short-payload"],
    )
    def test_malformed_files_rejected(self, tmp_path, header, match):
        (tmp_path / "bad.pgm").write_bytes(header + bytes([0, 255]))
        with pytest.raises(FormatError, match=match):
            load_mask(tmp_path / "bad.pgm")

    @pytest.mark.parametrize(
        "file, expected",
        [
            (b"P5\t2\t1\t255\t\x00\xff", [[0, 1]]),
            (b"P5\x0b2\x0b1\x0b255\x0b\x00\xff", [[0, 1]]),
            (b"P5\x0c2\x0c1\x0c255\x0c\x00\xff", [[0, 1]]),
            (b"P5\r2\r1\r255\r\x00\xff", [[0, 1]]),
            (b"P5\n2 1\n255\r\n\x00\xff", "mask payload holds 3 bytes, header implies 2"),
            (b"#0\nP5 #1\n2 #2\n1 #3\n255\n\x00\xff", [[0, 1]]),
            (b"#0\nP5#1\n2#2\n1#3\n255\n\x00\xff", "{path} is not binary PGM (magic b'P5#1')"),
            (b"P5#c\n2 1\n255\n\x00\xff", "{path} is not binary PGM (magic b'P5#c')"),
            (b"P2\n2", "{path} is not binary PGM (magic b'P2')"),
            (b"P6", "{path} is not binary PGM (magic b'P6')"),
            (b"P5\n2#x 1\n255\n\x00\xff", "malformed PGM header in {path}"),
            (b"P5 2 1 255#\n\x00\xff", "malformed PGM header in {path}"),
            (b"P5\n2 1\n#c", "malformed PGM header in {path}"),
            (b"P5 2 1 #c\n", "malformed PGM header in {path}"),
            (b"P5 #c\r2 1 255\n\x00\xff", "malformed PGM header in {path}"),
            (b"# lead\nP5\n2 1\n255\n\x00\xff", [[0, 1]]),
            (b"P5 +2 1 2_55\n\x00\xff", [[0, 1]]),
            (b"", "malformed PGM header in {path}"),
            (b"# nothing\n", "malformed PGM header in {path}"),
        ],
        ids=["tab", "vertical-tab", "form-feed", "carriage-return", "crlf-after-maxval", "comment-between-fields",
             "comment-inside-fields", "comment-inside-magic", "wrong-magic-two-fields", "wrong-magic-alone",
             "comment-inside-width", "comment-inside-maxval", "comment-at-end", "comment-before-maxval",
             "comment-ends-at-newline-only", "leading-comment", "int-spellings", "empty", "comment-only"],
    )
    def test_header_edge_cases(self, tmp_path, file, expected):
        # Fields are separated by any ASCII whitespace; a comment starts a
        # field's place with '#' and runs to '\n' only; int() spellings count;
        # the payload starts one byte after maxval, so a CR LF there leaves one too many.
        path = tmp_path / "m.pgm"
        path.write_bytes(file)
        if isinstance(expected, list):
            assert load_mask(path).data.tolist() == expected
        else:
            with pytest.raises(FormatError) as excinfo:
                load_mask(path)
            assert str(excinfo.value) == expected.format(path=path)

    def test_header_that_ends_before_maxval(self, tmp_path):
        (tmp_path / "short.pgm").write_bytes(b"P5\n4 4\n")
        with pytest.raises(FormatError, match="malformed PGM header"):
            load_mask(tmp_path / "short.pgm")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read mask"):
            load_mask(tmp_path / "absent.pgm")


class TestPayloadBytes:
    """Payload files hold exactly the array's little-endian bytes."""

    def test_cube(self, tmp_path):
        cube = random_cube(np.random.default_rng(5), bands=3, height=4, width=6)
        save_cube(cube, tmp_path / "c.json")
        assert (tmp_path / "c.raw").read_bytes() == cube.data.astype("<f4").tobytes()

    def test_score_map(self, tmp_path):
        scores = ScoreMap(data=np.random.default_rng(6).normal(size=(5, 3)), score_kind="HOT")
        save_score_map(scores, tmp_path / "s.json")
        assert (tmp_path / "s.raw").read_bytes() == scores.data.astype("<f4").tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 131073), (300, 1000), (131073, 1)])
    def test_score_map_in_chunks(self, tmp_path, shape):
        # Written 131,072 values at a time, in row-major order: one value, a chunk and one more, and
        # several chunks with a remainder, in one row, one column or many of each.
        scores = ScoreMap(data=np.random.default_rng(8).normal(size=shape) * 1e30, score_kind="RX")
        save_score_map(scores, tmp_path / "s.json")
        assert (tmp_path / "s.raw").read_bytes() == scores.data.astype("<f4").tobytes()

    def test_score_map_of_a_strided_map(self, tmp_path):
        values = np.random.default_rng(9).normal(size=(40, 30))
        save_score_map(ScoreMap(data=values.T, score_kind="HOT"), tmp_path / "s.json")
        assert (tmp_path / "s.raw").read_bytes() == values.T.astype("<f4").tobytes()

    def test_score_map_streams_through_one_buffer(self, tmp_path):
        # No float32 copy of the map: a 1024 x 1024 map's is 4 MB.
        scores = ScoreMap(data=np.random.default_rng(10).normal(size=(1024, 1024)), score_kind="HOT")
        tracemalloc.start()
        try:
            save_score_map(scores, tmp_path / "s.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (tmp_path / "s.raw").read_bytes() == scores.data.astype("<f4").tobytes()

    def test_mask(self, tmp_path):
        data = (np.random.default_rng(7).random((4, 9)) > 0.5).astype(np.uint8)
        save_mask(BinaryMask(data=data), tmp_path / "m.pgm")
        assert (tmp_path / "m.pgm").read_bytes() == b"P5\n9 4\n255\n" + (data * np.uint8(255)).tobytes()

    def test_unwritable_mask(self, tmp_path):
        with pytest.raises(FormatError, match="cannot write mask"):
            save_mask(BinaryMask(data=np.zeros((1, 1))), tmp_path / "absent" / "m.pgm")


class TestScoreMapIO:
    def test_round_trip_kind_preserved(self, tmp_path):
        scores = ScoreMap(data=np.array([[0.25, -0.5]]), score_kind="NDWI")
        save_score_map(scores, tmp_path / "s.json")
        loaded = load_score_map(tmp_path / "s.json")
        assert loaded.score_kind == "NDWI"
        assert np.allclose(loaded.data, scores.data, atol=1e-7)

    def test_multiband_file_rejected(self, tmp_path):
        cube = random_cube(np.random.default_rng(0), bands=2, height=2, width=2)
        save_cube(cube, tmp_path / "two.json")
        with pytest.raises(FormatError, match="1 band"):
            load_score_map(tmp_path / "two.json")

    def test_holds_the_float64_map_and_one_float32_plane(self, tmp_path):
        # The float32 plane is dropped once converted and the clip is in place.
        values = np.random.default_rng(19).uniform(-1.0, 1.0, size=(1024, 1024))
        save_score_map(ScoreMap(data=values, score_kind="NDWI"), tmp_path / "ndwi.json")
        tracemalloc.start()
        try:
            loaded = load_score_map(tmp_path / "ndwi.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.data, values.astype(np.float32).astype(np.float64))
        assert peak < values.nbytes + values.nbytes // 2 + (1 << 20)

    def test_sam_map_clipped_after_f32(self, tmp_path):
        scores = ScoreMap(data=np.full((2, 2), np.pi), score_kind="SAM")
        save_score_map(scores, tmp_path / "sam.json")
        loaded = load_score_map(tmp_path / "sam.json")
        assert loaded.data.max() <= np.pi


class TestSpectralLibrary:
    def write(self, tmp_path, rows, header="label,wavelength_nm,value"):
        path = tmp_path / "lib.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return path

    def test_single_record_four_bands(self, tmp_path):
        path = self.write(
            tmp_path,
            ["grass,500,0.1", "grass,600,0.2", "grass,700,0.3", "grass,800,0.4"],
        )
        targets = load_spectral_library(path)
        assert len(targets) == 1
        assert targets[0].label == "grass"
        assert targets[0].values.tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_nan_reflectance_rejected(self, tmp_path):
        path = self.write(tmp_path, ["grass,500,nan"])
        with pytest.raises(FormatError, match="non-finite"):
            load_spectral_library(path)

    def test_labels_preserved_in_order(self, tmp_path):
        rows = []
        for label in ("calcite", "kaolinite", "alunite"):
            rows += [f"{label},500,0.1", f"{label},600,0.2"]
        targets = load_spectral_library(self.write(tmp_path, rows))
        assert [t.label for t in targets] == ["calcite", "kaolinite", "alunite"]

    def test_linear_resampling(self, tmp_path):
        path = self.write(tmp_path, ["t,500,0.0", "t,700,1.0"])
        targets = load_spectral_library(path, band_wavelengths=np.array([500.0, 600.0, 700.0]))
        assert targets[0].values.tolist() == [0.0, 0.5, 1.0]

    def test_out_of_range_band_rejected(self, tmp_path):
        path = self.write(tmp_path, ["t,500,0.0", "t,700,1.0"])
        with pytest.raises(DataError, match="outside"):
            load_spectral_library(path, band_wavelengths=np.array([450.0, 600.0]))

    def test_blank_rows_are_skipped(self, tmp_path):
        path = self.write(tmp_path, ["t,500,0.1", "", " , , ", "t,600,0.2"])
        assert load_spectral_library(path)[0].values.tolist() == [0.1, 0.2]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("t,500", "expected 3 columns, got 2"),
            (" ,500,0.1", "empty label"),
            ("t,blue,0.1", "non-numeric wavelength 'blue'"),
            ("t,inf,0.1", "non-finite wavelength for 't'"),
        ],
        ids=["two-columns", "empty-label", "non-numeric-wavelength", "non-finite-wavelength"],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        path = self.write(tmp_path, ["t,400,0.1", "", row])
        with pytest.raises(FormatError, match=f"lib.csv:4: {message}"):
            load_spectral_library(path)

    def test_missing_columns(self, tmp_path):
        path = self.write(tmp_path, ["t,0.5"], header="label,value")
        with pytest.raises(FormatError, match="header"):
            load_spectral_library(path)

    def test_library_that_is_not_utf8_is_format_error(self, tmp_path):
        (tmp_path / "lib.csv").write_bytes(NOT_UTF8)
        with pytest.raises(FormatError, match="cannot read spectral library .*lib.csv"):
            load_spectral_library(tmp_path / "lib.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_spectral_library(path)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, [])
        with pytest.raises(FormatError, match="no data rows"):
            load_spectral_library(path)

    def test_positional_count_mismatch(self, tmp_path):
        path = self.write(tmp_path, ["t,,0.1", "t,,0.2"])
        with pytest.raises(DataError, match="samples"):
            load_spectral_library(path, band_count=4)

    def test_mixed_wavelengths_rejected(self, tmp_path):
        path = self.write(tmp_path, ["t,500,0.1", "t,,0.2"])
        with pytest.raises(FormatError, match="mixes"):
            load_spectral_library(path)

    def test_non_numeric_value(self, tmp_path):
        path = self.write(tmp_path, ["t,500,abc"])
        with pytest.raises(FormatError, match="non-numeric"):
            load_spectral_library(path)
