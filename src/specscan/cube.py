"""Raster cubes, masks, score maps, and spectral libraries with bit-exact file I/O.

File conventions used throughout the package:

* **Cube header** -- JSON text file: ``{"width": int, "height": int,
  "bands": int, "dtype": "f32", "interleave": "bsq", "byte_order": "little",
  "payload": str, "nodata": float | null, "bands_meta": [{"name", "role",
  "wavelength_nm"}, ...]}``. The payload path is relative to the header's
  directory.
* **Cube payload** -- raw little-endian float32, band-sequential (all of
  band 0, then band 1, ...), row-major within each band.
* **Binary mask** -- 8-bit binary PGM (``P5``), 0 for label 0, 255 for label 1.
* **Score map** -- a single-band cube in the header+payload format; the band
  name records the score kind.
* **Spectral library** -- long-form CSV with the exact header
  ``label,wavelength_nm,value``, one row per band sample per target.

Cubes are not changed once loaded unless passed their own data as `out`
(``stretch_cube``, ``ndwi``, ``hot``), which spends them, so they are safe to share for reading.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import re
import sys
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DataError, FormatError, _check_int, _check_real

Spectrum = NDArray[np.floating]
"""One-dimensional vector of per-band values."""

BAND_ROLES = ("blue", "green", "red", "nir", "other")
SCORE_KINDS = ("NDWI", "HOT", "SAM", "MF", "RX", "BandValue")
# Bounded score kinds: their range and how error messages print it.
_SCORE_RANGES = {"NDWI": (-1.0, 1.0, "[-1, 1]"), "SAM": (0.0, math.pi, "[0, pi]")}

_WAVELENGTH_MIN_NM = 300.0
_WAVELENGTH_MAX_NM = 3000.0

# Pixels the finiteness and nodata scan checks per step. A selective load
# holds this many float32 samples of a band left out, and the scan as many
# bool flags. Smaller steps, each a few more numpy calls, slowed loads of
# 512 x 512 planes on two threads.
_CHUNK = 1 << 17


@dataclass(frozen=True)
class BandMeta:
    """Identity of one spectral band."""

    name: str
    role: str = "other"
    wavelength_nm: float | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"name {self.name!r} must be a string")
        role = str(self.role).strip().lower()
        if role not in BAND_ROLES:
            raise DataError(f"unknown band role {self.role!r}; expected one of {BAND_ROLES}")
        object.__setattr__(self, "role", role)
        if self.wavelength_nm is not None:
            wl = _check_real("wavelength_nm", self.wavelength_nm, DataError)
            if not (_WAVELENGTH_MIN_NM < wl < _WAVELENGTH_MAX_NM):
                raise DataError(
                    f"wavelength {wl} nm outside ({_WAVELENGTH_MIN_NM}, {_WAVELENGTH_MAX_NM})"
                )
            object.__setattr__(self, "wavelength_nm", wl)


@dataclass
class RasterCube:
    """A width x height x bands reflectance scene, band-sequential in memory.

    ``data`` has shape ``(bands, height, width)`` and dtype float32, matching
    the on-disk layout. ``validity`` comes from ``nodata`` alone: None without
    it, else a ``(height, width)`` bool plane, False where any band holds it.
    A band selection (:meth:`select`, ``load_cube(path, bands=...)``) keeps
    the validity of the whole cube, bands left out included. Invalid pixels
    are excluded from statistics and quantiles.
    """

    data: NDArray[np.float32]
    band_meta: list[BandMeta] = field(default_factory=list)
    nodata: float | None = None
    validity: NDArray[np.bool_] | None = field(default=None, init=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise DataError(f"cube data must be 3-D (bands, height, width), got shape {data.shape}")
        if min(data.shape) < 1:
            raise DataError(f"cube dimensions must all be >= 1, got {data.shape}")
        self.data = data
        self.band_meta, self.nodata = _checked_meta(self.band_meta, data.shape[0], self.nodata)
        self.validity = _scan_planes(((0, plane) for plane in data), self.nodata, data.shape[1:])

    @classmethod
    def _derived(
        cls,
        data: NDArray[np.float32],
        band_meta: list[BandMeta],
        nodata: float | None,
        validity: NDArray[np.bool_] | None,
    ) -> RasterCube:
        """A cube built without ``__post_init__``, whose caller vouches for what it would check.

        `data` is a finite float32 ``(len(band_meta), height, width)`` array,
        `band_meta` and `nodata` are checked, `validity` is None exactly when
        `nodata` is, and every pixel that holds `nodata` in any band of `data`
        is False in `validity`. Other pixels may be False too: a band
        selection, or a cube stretched from one, keeps the validity that the
        bands it leaves out contributed.
        """
        cube = cls.__new__(cls)
        cube.data, cube.band_meta, cube.nodata, cube.validity = data, list(band_meta), nodata, validity
        return cube

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def band_index(self, band: int | str) -> int:
        """Index of a band given by index (any integer but a bool) or by role; raises DataError if absent."""
        return _band_index(self.band_meta, band)

    def plane(self, band: int | str) -> NDArray[np.float32]:
        """The (height, width) plane of one band, as a view (no copy)."""
        return self.data[self.band_index(band)]

    def select(self, bands: Sequence[int | str]) -> RasterCube:
        """The given bands (by index or role, see :meth:`band_index`), in that order.

        The result keeps this cube's nodata and validity. Evenly spaced
        bands, which one or two bands always are, are a view of this cube's
        data; other selections are a copy.
        """
        indices = _band_indices(self.band_meta, bands)
        steps = {b - a for a, b in zip(indices, indices[1:])}
        if len(steps) <= 1:
            step = steps.pop() if steps else 1
            stop = indices[-1] + step
            data = self.data[indices[0] : stop if stop >= 0 else None : step]
        else:
            data = self.data[indices]
        return RasterCube._derived(data, [self.band_meta[i] for i in indices], self.nodata, self.validity)

    def wavelengths(self) -> NDArray[np.float64] | None:
        """Per-band wavelengths, or None unless every band declares one."""
        values = [m.wavelength_nm for m in self.band_meta]
        if any(v is None for v in values):
            return None
        return np.asarray(values, dtype=np.float64)


def _checked_meta(band_meta: list[BandMeta], bands: int, nodata) -> tuple[list[BandMeta], float | None]:
    """`band_meta` for `bands` bands (default names without it) and `nodata` as a float, both checked."""
    band_meta = list(band_meta) or [BandMeta(name=f"band_{i}") for i in range(bands)]
    if len(band_meta) != bands:
        raise DataError(f"band_meta has {len(band_meta)} entries for {bands} bands")
    roles = [m.role for m in band_meta if m.role != "other"]
    dupes = sorted({r for r in roles if roles.count(r) > 1})
    if dupes:
        raise DataError(f"duplicated band role(s): {dupes}")
    if nodata is not None:
        nodata = _check_real("nodata", nodata, DataError)
        # Float32 samples cannot match a value beyond float32.
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float32(nodata)):
                raise DataError("nodata must be a finite float32 value")
    return band_meta, nodata


def _scan_rows(width: int) -> int:
    """Rows per step of the scan of planes `width` pixels wide: about ``_CHUNK`` pixels, at least one row."""
    return max(1, _CHUNK // width)


def _scan_planes(
    blocks: Iterable[tuple[int, NDArray[np.float32]]], nodata: float | None, shape: tuple[int, int]
) -> NDArray[np.bool_] | None:
    """The validity of a cube whose band planes have `shape`, each sample checked to be finite.

    `blocks` yields each band's rows once, as ``(top, rows)``: rows from row
    `top` on. They are checked a step at a time through one small flag buffer.
    """
    step = _scan_rows(shape[1])
    flags = np.empty((min(step, shape[0]), shape[1]), dtype=bool)
    validity = None if nodata is None else np.ones(shape, dtype=bool)
    for top, rows in blocks:
        for start in range(0, rows.shape[0], step):
            block = rows[start : start + step]
            flag = flags[: block.shape[0]]
            if not np.isfinite(block, out=flag).all():
                raise DataError("cube contains non-finite samples")
            if validity is not None:
                validity[top + start : top + start + block.shape[0]] &= np.not_equal(
                    block, np.float32(nodata), out=flag
                )
    return validity


def _band_index(band_meta: list[BandMeta], band: int | str) -> int:
    """Index of a band of `band_meta` given by index (any integer but a bool) or by role; raises DataError if absent."""
    if isinstance(band, (bool, np.bool_)):
        raise DataError(f"band key {band!r} is a bool, not an index or a role")
    if isinstance(band, numbers.Integral):
        if not 0 <= band < len(band_meta):
            raise DataError(f"band index {band} out of range for {len(band_meta)} bands")
        return int(band)
    role = str(band).strip().lower()
    matches = [i for i, m in enumerate(band_meta) if m.role == role]
    if not matches:
        raise DataError(f"cube has no band with role {role!r}")
    return matches[0]


def _band_indices(band_meta: list[BandMeta], bands: Sequence[int | str]) -> list[int]:
    """Indices of distinct bands, at least one, each given as :func:`_band_index` takes it."""
    indices = [_band_index(band_meta, band) for band in bands]
    if not indices or len(set(indices)) < len(indices):
        raise DataError(f"select needs distinct bands, at least one, got {list(bands)}")
    return indices


@dataclass
class BinaryMask:
    """Per-pixel {0, 1} labels over a (height, width) grid."""

    data: NDArray[np.uint8]

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2 or min(data.shape) < 1:
            raise DataError(f"mask data must be 2-D and non-empty, got shape {data.shape}")
        # A bool array holds only 0 and 1 by type and an integer one when its
        # range does; only other types are checked value by value.
        if np.issubdtype(data.dtype, np.integer):
            binary = (data.dtype.kind == "u" or data.min() >= 0) and data.max() <= 1
        else:
            binary = data.dtype == bool or np.isin(data, (0, 1)).all()
        if not binary:
            raise DataError("mask values must be 0 or 1")
        self.data = data.astype(np.uint8)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def positive_count(self) -> int:
        return int(np.count_nonzero(self.data))


@dataclass
class ScoreMap:
    """Per-pixel continuous output of one detector or index.

    ``flags`` optionally marks pixels scored by a documented convention
    rather than the formula (zero-denominator NDWI pixels, zero-norm SAM
    pixels). ``value_range`` is the ``(min, max)`` of ``data``, taken when
    it is checked; ``data`` is not to be changed after construction.
    """

    data: NDArray[np.float64]
    score_kind: str
    flags: NDArray[np.bool_] | None = None
    value_range: tuple[float, float] = field(init=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or min(data.shape) < 1:
            raise DataError(f"score data must be 2-D and non-empty, got shape {data.shape}")
        # A NaN propagates through both, so the range is finite only when every score is.
        lowest, highest = float(data.min()), float(data.max())
        if not (math.isfinite(lowest) and math.isfinite(highest)):
            raise DataError("score map contains non-finite values")
        if self.score_kind not in SCORE_KINDS:
            raise DataError(f"unknown score kind {self.score_kind!r}; expected one of {SCORE_KINDS}")
        if self.score_kind in _SCORE_RANGES:
            low, high, printed = _SCORE_RANGES[self.score_kind]
            if lowest < low or highest > high:
                raise DataError(f"{self.score_kind} scores must lie in {printed}")
        self.data, self.value_range = data, (lowest, highest)
        if self.flags is not None:
            flags = np.asarray(self.flags, dtype=bool)
            if flags.shape != data.shape:
                raise DataError("flags shape must match score data shape")
            self.flags = flags


@dataclass
class TargetSpectrum:
    """A labeled reference spectrum drawn from a spectral library."""

    label: str
    values: NDArray[np.float64]
    source: str = ""
    wavelengths_nm: NDArray[np.float64] | None = None

    def __post_init__(self):
        if not str(self.label):
            raise DataError("target label must be non-empty")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise DataError("target spectrum must be a non-empty 1-D vector")
        if not np.isfinite(values).all():
            raise DataError(f"target {self.label!r} contains non-finite values")
        self.values = values
        if self.wavelengths_nm is not None:
            wl = np.asarray(self.wavelengths_nm, dtype=np.float64)
            if wl.shape != values.shape:
                raise DataError("wavelength grid must match spectrum length")
            self.wavelengths_nm = wl

    def on_bands(self, band_wavelengths: NDArray[np.floating] | None, band_count: int | None) -> TargetSpectrum:
        """This spectrum on a cube's bands.

        With wavelengths on both sides it is linearly interpolated onto
        `band_wavelengths`; a grid point outside its own range is an error.
        Otherwise it is taken positionally and must have `band_count` (or the
        grid length) samples when one is declared.
        """
        grid = None if band_wavelengths is None else np.asarray(band_wavelengths, dtype=np.float64)
        if self.wavelengths_nm is not None and grid is not None:
            order = np.argsort(self.wavelengths_nm, kind="stable")
            wl, values = self.wavelengths_nm[order], self.values[order]
            if np.any(np.diff(wl) == 0.0):
                raise DataError(f"target {self.label!r} repeats a wavelength")
            if grid.min() < wl[0] or grid.max() > wl[-1]:
                raise DataError(
                    f"band grid [{grid.min()}, {grid.max()}] nm extends outside "
                    f"target {self.label!r} coverage [{wl[0]}, {wl[-1]}] nm"
                )
            return replace(self, values=np.interp(grid, wl, values), wavelengths_nm=grid)
        expected_len = band_count if band_count is not None else (grid.size if grid is not None else None)
        if expected_len is not None and self.values.size != expected_len:
            raise DataError(
                f"target {self.label!r} has {self.values.size} samples, band grid expects {expected_len}"
            )
        return self


# ---------------------------------------------------------------------------
# Cube header + payload I/O

# The one payload layout written and read.
_LAYOUT = {"dtype": "f32", "interleave": "bsq", "byte_order": "little"}


def _json_default(value):
    """JSON hook: arrays become lists, numpy scalars numbers, paths strings."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: str | Path, payload) -> None:
    """Write `payload` to `path` as UTF-8 JSON indented by 2, with a trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, default=_json_default) + "\n", encoding="utf-8")


def save_cube(cube: RasterCube, header_path: str | Path) -> Path:
    """Write `cube` as a JSON header plus raw BSQ float32 payload; return the payload's path.

    The payload file is placed next to the header, named after its stem with
    a ``.raw`` suffix. Loading the header gives back a cube bit-identical to `cube`.

    Raises:
        FormatError: a file cannot be written, or the header is named ``*.raw`` and nothing is written.
    """
    payload = np.ascontiguousarray(cube.data, dtype="<f4")
    return _write_cube(header_path, cube.data.shape, cube.nodata, cube.band_meta, [payload])


def _write_cube(header_path: str | Path, shape: tuple, nodata: float | None, band_meta: list, blocks: Iterable) -> Path:
    """:func:`save_cube` of a `shape` cube whose payload is `blocks`, C-contiguous ``<f4`` arrays, in turn."""
    header_path = Path(header_path)
    payload_path = header_path.parent / f"{header_path.stem}.raw"
    if payload_path == header_path:
        raise FormatError(f"cube header {header_path} would be overwritten by its payload; name it other than *.raw")
    bands, height, width = shape
    header = {
        "width": width,
        "height": height,
        "bands": bands,
        **_LAYOUT,
        "payload": payload_path.name,
        "nodata": nodata,
        "bands_meta": [asdict(m) for m in band_meta],
    }
    try:
        _write_json(header_path, header)
        with open(payload_path, "wb") as payload:
            for block in blocks:
                payload.write(block)
    except OSError as exc:
        raise FormatError(f"cannot write cube to {header_path}: {exc}") from exc
    return payload_path


def _check_spares_input(header: str | Path, outputs: list[Path]) -> None:
    """Raise ConfigError if one of `outputs` is the cube header at `header` or the payload it names.

    Any other input file, such as a mask, is compared alone.
    """
    header = Path(header)
    try:
        inputs = [header, header.parent / str(json.loads(header.read_text(encoding="utf-8"))["payload"])]
    except (OSError, ValueError, KeyError, TypeError):
        inputs = [header]  # the loader reports what is wrong with the header
    inputs = [path for path in inputs if path.exists()]
    for output in outputs:
        if output.exists() and any(os.path.samefile(output, path) for path in inputs):
            raise ConfigError(f"output {output} would overwrite the input {header} or its payload")


def load_cube(header_path: str | Path, bands: Sequence[int | str] | None = None) -> RasterCube:
    """Load a cube written in the header+payload format.

    With `bands`, keys as :meth:`RasterCube.select` takes them, the result
    equals ``load_cube(header_path).select(bands)`` but holds only those
    bands. The keys are resolved against the header's band metadata, so an
    index names a band of the file. Every band is still read, checked to be
    finite and ANDed into the validity, about 131,072 pixels at a time: a
    kept band is read straight into the result, a band left out one chunk
    at a time into one small reused buffer. The result therefore keeps the
    whole cube's validity: a pixel that holds nodata in a band left out is
    invalid, as it is in the selection.

    Raises:
        FormatError: missing files, malformed header, unsupported layout,
            payload length mismatch, or non-finite samples.
        DataError: `bands` names a band the file lacks, or repeats one.
    """
    header_path = Path(header_path)
    try:
        text = header_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read cube header {header_path}: {exc}") from exc
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed cube header {header_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"cube header {header_path} must be a JSON object")

    for key in ("width", "height", "bands", "payload"):
        if key not in header:
            raise FormatError(f"cube header {header_path} missing field {key!r}")
    for key, only in _LAYOUT.items():
        if header.get(key, only) != only:
            raise FormatError(f"unsupported {key.replace('_', ' ')} {header[key]!r} (only {only!r})")

    width, height, count = (
        _check_int(f"cube header {header_path}: {key}", header[key], 1, error=FormatError)
        for key in ("width", "height", "bands")
    )

    meta_entries = [] if header.get("bands_meta") is None else header["bands_meta"]
    if not isinstance(meta_entries, list):
        raise FormatError(f"bands_meta in {header_path} must be a list")
    if meta_entries and len(meta_entries) != count:
        raise FormatError(
            f"bands_meta has {len(meta_entries)} entries for {count} bands in {header_path}"
        )
    band_meta = []
    for i, entry in enumerate(meta_entries):
        if not isinstance(entry, dict):
            raise FormatError(f"bands_meta entries must be objects in {header_path}")
        name = f"band_{i}" if entry.get("name") is None else entry["name"]
        try:
            band_meta.append(BandMeta(name, entry.get("role", "other"), entry.get("wavelength_nm")))
        except DataError as exc:
            raise FormatError(f"malformed bands_meta entry in {header_path}: {exc}") from exc
    try:
        band_meta, nodata = _checked_meta(band_meta, count, header.get("nodata"))
    except DataError as exc:
        raise FormatError(f"cube {header_path} invalid: {exc}") from exc

    payload_path = header_path.parent / str(header["payload"])
    expected = width * height * 4 * count
    try:
        with open(payload_path, "rb") as payload:
            size = os.fstat(payload.fileno()).st_size
            if size != expected:
                raise FormatError(f"payload {payload_path} holds {size} bytes, header implies {expected}")
            kept = range(count) if bands is None else _band_indices(band_meta, bands)
            data = np.empty((len(kept), height, width), dtype=np.float32)
            slots = dict(zip(kept, data))
            step = _scan_rows(width)
            spare = None if len(kept) == count else np.empty((min(step, height), width), dtype=np.float32)

            def read(rows):
                if payload.readinto(rows) != rows.nbytes:
                    raise FormatError(f"payload {payload_path} ended early, header implies {expected} bytes")
                if sys.byteorder == "big":
                    rows.byteswap(inplace=True)
                return rows

            def blocks():
                for b in range(count):
                    if b in slots:
                        yield 0, read(slots[b])
                    else:
                        for top in range(0, height, step):
                            yield top, read(spare[: min(step, height - top)])

            try:
                validity = _scan_planes(blocks(), nodata, (height, width))
            except DataError as exc:
                raise FormatError(f"cube {header_path} invalid: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"cannot read cube payload {payload_path}: {exc}") from exc
    return RasterCube._derived(data, [band_meta[b] for b in kept], nodata, validity)


# ---------------------------------------------------------------------------
# Binary mask (PGM) I/O

# Four optional header fields, so a bad magic is reported before a missing one. Each is a run of
# non-space bytes, kept whole by (?!\S), after whitespace and '#' comments that run to '\n' or the end.
_PGM_HEADER = re.compile(rb"(?:(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)(?!\S))?" * 4)


def save_mask(mask: BinaryMask, path: str | Path) -> None:
    """Write `mask` as binary PGM: 0 for label 0, 255 for label 1."""
    path = Path(path)
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    payload = mask.data * np.uint8(255)
    try:
        with path.open("wb") as file:
            file.write(header)
            file.write(payload)
    except OSError as exc:
        raise FormatError(f"cannot write mask to {path}: {exc}") from exc


def load_mask(path: str | Path) -> BinaryMask:
    """Load a binary mask from PGM written by :func:`save_mask`."""
    path = Path(path)
    try:
        buf = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read mask {path}: {exc}") from exc
    header = _PGM_HEADER.match(buf)
    magic, *fields = header.groups()
    if magic not in (None, b"P5"):
        raise FormatError(f"{path} is not binary PGM (magic {magic!r})")
    try:
        width, height, maxval = map(int, fields)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed PGM header in {path}") from exc
    if maxval != 255:
        raise FormatError(f"mask PGM must use maxval 255, got {maxval}")
    if min(width, height) < 1:
        raise FormatError(f"mask dimensions must be >= 1, got {width}x{height}")
    payload = buf[header.end() + 1 :]
    if len(payload) != width * height:
        raise FormatError(
            f"mask payload holds {len(payload)} bytes, header implies {width * height}"
        )
    # Read as int8, 255 is -1: the payload is binary when its range is [-1, 0].
    values = np.frombuffer(payload, dtype=np.int8).reshape(height, width)
    if values.min() < -1 or values.max() > 0:
        raise FormatError(f"mask {path} contains values other than 0 and 255")
    return BinaryMask(data=values < 0)


# ---------------------------------------------------------------------------
# Score map I/O (single-band cube in the cube format)


def save_score_map(scores: ScoreMap, header_path: str | Path) -> Path:
    """Write a score map as a single-band cube whose band name is its kind; return what :func:`save_cube` does.

    The scores are rounded to float32 and written 131,072 at a time.

    Raises:
        DataError: float32 cannot hold both ends of ``scores.value_range``, so
            (rounding being monotone) not every score; no file is written.
        FormatError: as :func:`save_cube`.
    """
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float32(scores.value_range)).all():
            raise DataError(f"score map range {scores.value_range} does not fit float32")
    # Row-major, whatever the map's strides, rounded into one reused buffer of _CHUNK values.
    blocks = np.nditer(
        scores.data, ["external_loop", "buffered"], op_dtypes=["<f4"], casting="same_kind", buffersize=_CHUNK, order="C"
    )
    meta = [BandMeta(name=scores.score_kind, role="other")]
    return _write_cube(header_path, (1, *scores.data.shape), None, meta, blocks)


def load_score_map(header_path: str | Path) -> ScoreMap:
    """Read back a score map written by :func:`save_score_map`.

    Float32 storage can land one ulp outside a bounded kind's range; scores
    are clipped back into it, in place. The float32 plane is dropped once
    converted, so the map holds the float64 scores and nothing else.
    """
    cube = load_cube(header_path)
    if cube.bands != 1:
        raise FormatError(f"score map {header_path} must have exactly 1 band, got {cube.bands}")
    name = cube.band_meta[0].name
    kind = name if name in SCORE_KINDS else "BandValue"
    data = cube.data[0].astype(np.float64)
    del cube
    if kind in _SCORE_RANGES:
        low, high, _ = _SCORE_RANGES[kind]
        np.clip(data, low, high, out=data)
    return ScoreMap(data=data, score_kind=kind)


# ---------------------------------------------------------------------------
# Spectral library


_LIBRARY_COLUMNS = ["label", "wavelength_nm", "value"]


def load_spectral_library(
    csv_path: str | Path,
    band_wavelengths: NDArray[np.floating] | None = None,
    band_count: int | None = None,
) -> list[TargetSpectrum]:
    """Load reference target spectra from a long-form CSV.

    Each target's rows are gathered in file order, and each target is fit
    onto `band_wavelengths` and `band_count` by :meth:`TargetSpectrum.on_bands`.
    """
    csv_path = Path(csv_path)
    try:
        text = csv_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read spectral library {csv_path}: {exc}") from exc

    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise FormatError(f"spectral library {csv_path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if header != _LIBRARY_COLUMNS:
        raise FormatError(
            f"spectral library {csv_path} must have header "
            f"{','.join(_LIBRARY_COLUMNS)!r}, got {','.join(header)!r}"
        )

    # A numeric cell as a finite float; its errors name the row being read (`lineno`, `label`).
    def number(cell: str, name: str, quantity: str) -> float:
        try:
            parsed = float(cell)
        except ValueError as exc:
            raise FormatError(f"{csv_path}:{lineno}: non-numeric {name} {cell!r}") from exc
        if not math.isfinite(parsed):
            raise FormatError(f"{csv_path}:{lineno}: non-finite {quantity} for {label!r}")
        return parsed

    records: dict[str, list[tuple[float | None, float]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise FormatError(f"{csv_path}:{lineno}: expected 3 columns, got {len(row)}")
        label, wl_cell, value_cell = (cell.strip() for cell in row)
        if not label:
            raise FormatError(f"{csv_path}:{lineno}: empty label")
        value = number(value_cell, "value", "reflectance")
        wavelength = number(wl_cell, "wavelength", "wavelength") if wl_cell else None
        records.setdefault(label, []).append((wavelength, value))

    if not records:
        raise FormatError(f"spectral library {csv_path} has no data rows")

    targets: list[TargetSpectrum] = []
    for label, samples in records.items():
        wavelengths = [wl for wl, _ in samples]
        has_wl = [wl is not None for wl in wavelengths]
        if any(has_wl) and not all(has_wl):
            raise FormatError(f"target {label!r} mixes rows with and without wavelengths")
        target = TargetSpectrum(label, [v for _, v in samples], str(csv_path), wavelengths if all(has_wl) else None)
        targets.append(target.on_bands(band_wavelengths, band_count))
    return targets
