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

Cubes are immutable once loaded: every operation that changes pixels returns
a new object, so cubes are safe to share across threads for reading.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, FormatError

Spectrum = NDArray[np.floating]
"""One-dimensional vector of per-band values."""

BAND_ROLES = ("blue", "green", "red", "nir", "other")
SCORE_KINDS = ("NDWI", "HOT", "SAM", "MF", "RX", "BandValue")
# Bounded score kinds: their range and how error messages print it.
_SCORE_RANGES = {"NDWI": (-1.0, 1.0, "[-1, 1]"), "SAM": (0.0, math.pi, "[0, pi]")}

_WAVELENGTH_MIN_NM = 300.0
_WAVELENGTH_MAX_NM = 3000.0


@dataclass(frozen=True)
class BandMeta:
    """Identity of one spectral band."""

    name: str
    role: str = "other"
    wavelength_nm: float | None = None

    def __post_init__(self):
        role = str(self.role).strip().lower()
        if role not in BAND_ROLES:
            raise DataError(f"unknown band role {self.role!r}; expected one of {BAND_ROLES}")
        object.__setattr__(self, "role", role)
        if self.wavelength_nm is not None:
            wl = float(self.wavelength_nm)
            if not (_WAVELENGTH_MIN_NM < wl < _WAVELENGTH_MAX_NM):
                raise DataError(
                    f"wavelength {wl} nm outside ({_WAVELENGTH_MIN_NM}, {_WAVELENGTH_MAX_NM})"
                )
            object.__setattr__(self, "wavelength_nm", wl)


@dataclass
class RasterCube:
    """A width x height x bands reflectance scene, band-sequential in memory.

    ``data`` has shape ``(bands, height, width)`` and dtype float32, matching
    the on-disk layout. ``validity`` is an optional ``(height, width)`` bool
    plane; False marks pixels with at least one sample equal to the declared
    nodata value. Invalid pixels are excluded from statistics and quantiles.
    """

    data: NDArray[np.float32]
    band_meta: list[BandMeta] = field(default_factory=list)
    nodata: float | None = None
    validity: NDArray[np.bool_] | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise DataError(f"cube data must be 3-D (bands, height, width), got shape {data.shape}")
        if min(data.shape) < 1:
            raise DataError(f"cube dimensions must all be >= 1, got {data.shape}")
        if not np.isfinite(data).all():
            raise DataError("cube contains non-finite samples")
        self.data = data
        if not self.band_meta:
            self.band_meta = [BandMeta(name=f"band_{i}") for i in range(data.shape[0])]
        self.band_meta = list(self.band_meta)
        if len(self.band_meta) != data.shape[0]:
            raise DataError(
                f"band_meta has {len(self.band_meta)} entries for {data.shape[0]} bands"
            )
        roles = [m.role for m in self.band_meta if m.role != "other"]
        dupes = sorted({r for r in roles if roles.count(r) > 1})
        if dupes:
            raise DataError(f"duplicated band role(s): {dupes}")
        if self.nodata is not None:
            try:
                nodata = float(self.nodata)
            except (TypeError, ValueError) as exc:
                raise DataError(f"nodata {self.nodata!r} must be a number") from exc
            if not math.isfinite(nodata):
                raise DataError("nodata value must be finite")
            self.nodata = nodata
            if self.validity is None:
                self.validity = ~np.any(data == np.float32(nodata), axis=0)
        if self.validity is not None:
            if self.nodata is None:
                raise DataError("a validity mask requires a declared nodata value")
            validity = np.asarray(self.validity, dtype=bool)
            if validity.shape != (self.height, self.width):
                raise DataError(
                    f"validity shape {validity.shape} does not match ({self.height}, {self.width})"
                )
            self.validity = validity

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def band_index(self, role: str) -> int:
        """Index of the single band holding `role`; raises if absent."""
        role = str(role).strip().lower()
        matches = [i for i, m in enumerate(self.band_meta) if m.role == role]
        if not matches:
            raise DataError(f"cube has no band with role {role!r}")
        return matches[0]

    def plane(self, band: int | str) -> NDArray[np.float32]:
        """The (height, width) plane of one band, as a view (no copy)."""
        index = band if isinstance(band, int) else self.band_index(band)
        if not 0 <= index < self.bands:
            raise DataError(f"band index {index} out of range for {self.bands} bands")
        return self.data[index]

    def pixels(self) -> NDArray[np.float32]:
        """All pixel spectra as an (N, bands) array, row-major pixel order."""
        return self.data.reshape(self.bands, -1).T

    def wavelengths(self) -> NDArray[np.float64] | None:
        """Per-band wavelengths, or None unless every band declares one."""
        values = [m.wavelength_nm for m in self.band_meta]
        if any(v is None for v in values):
            return None
        return np.asarray(values, dtype=np.float64)

    def valid_pixel_count(self) -> int:
        if self.validity is None:
            return self.height * self.width
        return int(np.count_nonzero(self.validity))


@dataclass
class BinaryMask:
    """Per-pixel {0, 1} labels over a (height, width) grid."""

    data: NDArray[np.uint8]

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2 or min(data.shape) < 1:
            raise DataError(f"mask data must be 2-D and non-empty, got shape {data.shape}")
        if not np.isin(data, (0, 1)).all():
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
    pixels).
    """

    data: NDArray[np.float64]
    score_kind: str
    flags: NDArray[np.bool_] | None = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or min(data.shape) < 1:
            raise DataError(f"score data must be 2-D and non-empty, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise DataError("score map contains non-finite values")
        if self.score_kind not in SCORE_KINDS:
            raise DataError(f"unknown score kind {self.score_kind!r}; expected one of {SCORE_KINDS}")
        if self.score_kind in _SCORE_RANGES:
            low, high, printed = _SCORE_RANGES[self.score_kind]
            if data.min() < low or data.max() > high:
                raise DataError(f"{self.score_kind} scores must lie in {printed}")
        self.data = data
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


def save_cube(cube: RasterCube, header_path: str | Path) -> None:
    """Write `cube` as a JSON header plus raw BSQ float32 payload.

    The payload file is placed next to the header, named after its stem with
    a ``.raw`` suffix. ``load_cube(save_cube(c))`` is bit-identical to ``c``.
    """
    header_path = Path(header_path)
    payload_name = header_path.stem + ".raw"
    header = {
        "width": cube.width,
        "height": cube.height,
        "bands": cube.bands,
        **_LAYOUT,
        "payload": payload_name,
        "nodata": cube.nodata,
        "bands_meta": [asdict(m) for m in cube.band_meta],
    }
    raw = np.ascontiguousarray(cube.data).astype("<f4", copy=False).tobytes()
    try:
        header_path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
        (header_path.parent / payload_name).write_bytes(raw)
    except OSError as exc:
        raise FormatError(f"cannot write cube to {header_path}: {exc}") from exc


def load_cube(header_path: str | Path) -> RasterCube:
    """Load a cube written in the header+payload format.

    Raises:
        FormatError: missing files, malformed header, unsupported layout,
            payload length mismatch, or non-finite samples.
    """
    header_path = Path(header_path)
    try:
        text = header_path.read_text(encoding="utf-8")
    except OSError as exc:
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

    try:
        width = int(header["width"])
        height = int(header["height"])
        bands = int(header["bands"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"cube header {header_path} has non-integer dimensions") from exc
    if min(width, height, bands) < 1:
        raise FormatError(f"cube dimensions must be >= 1, got {width}x{height}x{bands}")

    meta_entries = header.get("bands_meta") or []
    if not isinstance(meta_entries, list):
        raise FormatError(f"bands_meta in {header_path} must be a list")
    if meta_entries and len(meta_entries) != bands:
        raise FormatError(
            f"bands_meta has {len(meta_entries)} entries for {bands} bands in {header_path}"
        )
    try:
        band_meta = [
            BandMeta(
                name=str(entry.get("name", f"band_{i}")),
                role=entry.get("role", "other"),
                wavelength_nm=entry.get("wavelength_nm"),
            )
            for i, entry in enumerate(meta_entries)
        ]
    except AttributeError as exc:
        raise FormatError(f"bands_meta entries must be objects in {header_path}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed bands_meta entry in {header_path}: {exc}") from exc

    payload_path = header_path.parent / str(header["payload"])
    try:
        raw = np.fromfile(payload_path, dtype=np.uint8)
    except OSError as exc:
        raise FormatError(f"cannot read cube payload {payload_path}: {exc}") from exc
    expected = width * height * bands * 4
    if raw.size != expected:
        raise FormatError(
            f"payload {payload_path} holds {raw.size} bytes, header implies {expected}"
        )
    # The one copy is the read: on a little-endian host the view needs none.
    data = raw.view("<f4").astype(np.float32, copy=False).reshape(bands, height, width)
    try:
        return RasterCube(data=data, band_meta=band_meta, nodata=header.get("nodata"))
    except DataError as exc:
        raise FormatError(f"cube {header_path} invalid: {exc}") from exc


# ---------------------------------------------------------------------------
# Binary mask (PGM) I/O


def save_mask(mask: BinaryMask, path: str | Path) -> None:
    """Write `mask` as binary PGM: 0 for label 0, 255 for label 1."""
    path = Path(path)
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    payload = (mask.data * np.uint8(255)).tobytes()
    try:
        path.write_bytes(header + payload)
    except OSError as exc:
        raise FormatError(f"cannot write mask to {path}: {exc}") from exc


def _pgm_tokens(buf: bytes):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    pos = 0
    while True:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield buf[start:pos], pos


def load_mask(path: str | Path) -> BinaryMask:
    """Load a binary mask from PGM written by :func:`save_mask`."""
    path = Path(path)
    try:
        buf = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read mask {path}: {exc}") from exc
    tokens = _pgm_tokens(buf)
    try:
        magic, _ = next(tokens)
        if magic != b"P5":
            raise FormatError(f"{path} is not binary PGM (magic {magic!r})")
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, end = next(tokens)
        width, height, maxval = int(width), int(height), int(maxval)
    except (StopIteration, ValueError) as exc:
        raise FormatError(f"malformed PGM header in {path}") from exc
    if maxval != 255:
        raise FormatError(f"mask PGM must use maxval 255, got {maxval}")
    payload = buf[end + 1 :]
    if len(payload) != width * height:
        raise FormatError(
            f"mask payload holds {len(payload)} bytes, header implies {width * height}"
        )
    values = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if not np.isin(values, (0, 255)).all():
        raise FormatError(f"mask {path} contains values other than 0 and 255")
    return BinaryMask(data=(values == 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# Score map I/O (single-band cube in the cube format)


def save_score_map(scores: ScoreMap, header_path: str | Path) -> None:
    """Write a score map as a single-band cube; the band name is the kind."""
    cube = RasterCube(
        data=scores.data.astype(np.float32)[np.newaxis, :, :],
        band_meta=[BandMeta(name=scores.score_kind, role="other")],
    )
    save_cube(cube, header_path)


def load_score_map(header_path: str | Path) -> ScoreMap:
    """Read back a score map written by :func:`save_score_map`.

    Float32 storage can land one ulp outside a bounded kind's range; scores
    are clipped back into it.
    """
    cube = load_cube(header_path)
    if cube.bands != 1:
        raise FormatError(f"score map {header_path} must have exactly 1 band, got {cube.bands}")
    name = cube.band_meta[0].name
    kind = name if name in SCORE_KINDS else "BandValue"
    data = cube.data[0].astype(np.float64)
    if kind in _SCORE_RANGES:
        low, high, _ = _SCORE_RANGES[kind]
        data = np.clip(data, low, high)
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
    except OSError as exc:
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

    records: dict[str, list[tuple[float | None, float]]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise FormatError(f"{csv_path}:{lineno}: expected 3 columns, got {len(row)}")
        label, wl_cell, value_cell = (cell.strip() for cell in row)
        if not label:
            raise FormatError(f"{csv_path}:{lineno}: empty label")
        try:
            value = float(value_cell)
        except ValueError as exc:
            raise FormatError(f"{csv_path}:{lineno}: non-numeric value {value_cell!r}") from exc
        if not math.isfinite(value):
            raise FormatError(f"{csv_path}:{lineno}: non-finite reflectance for {label!r}")
        wavelength: float | None = None
        if wl_cell:
            try:
                wavelength = float(wl_cell)
            except ValueError as exc:
                raise FormatError(
                    f"{csv_path}:{lineno}: non-numeric wavelength {wl_cell!r}"
                ) from exc
            if not math.isfinite(wavelength):
                raise FormatError(f"{csv_path}:{lineno}: non-finite wavelength for {label!r}")
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
