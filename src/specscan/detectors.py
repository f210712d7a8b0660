"""Scene statistics and spectral detectors.

Three per-pixel detectors over band space:

* ``sam`` -- spectral angle between two spectra,
  ``arccos(x . y / (|x| |y|))``; 0 means identical direction.
* ``mf`` -- matched filter against a target ``t`` under scene statistics,
  ``((t - mean)' C^-1 (x - mean)) / ((t - mean)' C^-1 (t - mean))``;
  normalized so the target scores 1 and the scene mean scores 0.
* ``rx`` -- Reed-Xiaoli anomaly score, the squared Mahalanobis distance
  ``(x - mean)' C^-1 (x - mean)``.

The covariance inverse is never formed explicitly: a lower-triangular
Cholesky factor of the (ridge-regularized when needed) covariance is stored
in :class:`SceneStats` and every quadratic form goes through triangular
solves. Statistics accumulate in double precision in a fixed order; per-pixel
map kernels run in a configurable working precision, single by default, to
mirror accelerator arithmetic against a double-precision reference path.

The cube is band-sequential, so its data reshaped to (bands, pixels) is
already the band matrix the kernels read. Statistics and maps walk it in
fixed-order column tiles of ``_TILE_PIXELS`` pixels. The statistics and
all three detectors work in memory bounded by the tile: each call centres
every tile into one reused buffer. ``mf`` and ``rx`` whiten it there, in
place, by BLAS ``trsm`` on a Fortran-order buffer: the call that scipy's
``solve_triangular`` reaches through OpenBLAS's ``trtrs``, without its
finiteness scan or its copy of the tile. ``sam`` forms each tile's
difference from the target ``_SAM_BLOCK`` columns at a time. Each tile goes
through the triangular solve, sum of squares and matrix-vector product that
a whole scene would, so a tile boundary can move a score only in the last
bits of a BLAS call. Scalar ``mf`` and ``rx`` are one-pixel float64
calls of the map kernel.
Scalar ``sam`` is the reference the SAM map is tested against: the map's
pixel norms can differ from ``np.linalg.norm`` in the last bit, so it does
not return exactly 0 for identical spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cube import RasterCube, ScoreMap, Spectrum, TargetSpectrum
from .errors import ComputeError, DataError, _check_int

DETECTORS = ("sam", "mf", "rx")
TARGET_DETECTORS = ("sam", "mf")
STATS_DETECTORS = ("mf", "rx")
# Side of a threshold that holds the detections: a small spectral angle is a close match.
POLARITY = {"sam": "below", "mf": "above", "rx": "above"}
PRECISIONS = ("single", "double")

_RIDGE_BASE_FRACTION = 1e-6
_RIDGE_MAX_FRACTION = 1e-2
_RIDGE_ABS_FLOOR = 1e-12  # engaged only when trace(cov) == 0 (constant scene)
# Pixels per column tile of the (bands, pixels) matrix; the working memory
# of the statistics and the detectors grows with it.
_TILE_PIXELS = 1 << 14
# Columns per block of a SAM tile's difference from the target (at least 2,
# see _sam_tile).
_SAM_BLOCK = 1 << 10


@dataclass(frozen=True)
class SceneStats:
    """Mean spectrum and band covariance of a scene's valid pixels.

    ``factor_lower`` is a lower-triangular L with
    ``L L' = covariance + ridge * I``; ``ridge`` is 0 when the covariance
    factorized without regularization.
    """

    mean: NDArray[np.float64]
    covariance: NDArray[np.float64]
    factor_lower: NDArray[np.float64]
    ridge: float
    pixel_count: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        factor = np.asarray(self.factor_lower, dtype=np.float64)
        n_bands = mean.size
        if mean.ndim != 1 or cov.shape != (n_bands, n_bands) or factor.shape != cov.shape:
            raise DataError("stats shapes disagree: mean (B,), covariance and factor (B, B)")
        object.__setattr__(self, "pixel_count", _check_int("pixel_count", self.pixel_count, 2, error=DataError))
        # Every check below compares, and a NaN compares False.
        _check_finite("scene statistics", mean, cov, factor, np.float64(self.ridge))
        scale = max(float(np.abs(cov).max()), 1.0)
        if float(np.abs(cov - cov.T).max()) > 1e-12 * scale:
            raise DataError("covariance is not symmetric")
        reconstructed = factor @ factor.T
        regularized = cov + self.ridge * np.eye(n_bands)
        ref = max(float(np.abs(regularized).max()), self.ridge, 1e-300)
        if float(np.abs(reconstructed - regularized).max()) > 1e-9 * ref:
            raise DataError("factor does not reproduce the regularized covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "factor_lower", factor)

    @property
    def n_bands(self) -> int:
        return self.mean.size

    def condition_estimate(self) -> float:
        """Cheap condition estimate of the regularized covariance from L's diagonal."""
        diag = np.diag(self.factor_lower)
        return float((diag.max() / diag.min()) ** 2)

    def describe(self, covariance: bool = False) -> dict:
        """JSON-ready digest: pixel and band counts, ridge, condition estimate, mean; `covariance` adds the matrix."""
        digest = dict(pixel_count=self.pixel_count, bands=self.n_bands, ridge=self.ridge)
        digest.update(condition_estimate=self.condition_estimate(), mean=self.mean.tolist())
        if covariance:
            digest["covariance"] = self.covariance.tolist()
        return digest


def _factorize(cov: NDArray[np.float64]) -> tuple[NDArray[np.float64], float]:
    """Cholesky with escalating ridge fallback for singular covariances."""
    try:
        return np.linalg.cholesky(cov), 0.0
    except np.linalg.LinAlgError:
        pass
    n_bands = cov.shape[0]
    trace = float(np.trace(cov))
    base = _RIDGE_BASE_FRACTION * trace / n_bands if trace > 0.0 else _RIDGE_ABS_FLOOR
    identity = np.eye(n_bands)
    ridge = base
    while ridge <= base * (_RIDGE_MAX_FRACTION / _RIDGE_BASE_FRACTION) * (1 + 1e-12):
        try:
            return np.linalg.cholesky(cov + ridge * identity), ridge
        except np.linalg.LinAlgError:
            ridge *= 10.0
    raise ComputeError("covariance cannot be factorized even with maximum ridge")


def scene_stats_from_moments(
    mean: Spectrum,
    covariance: NDArray[np.floating],
    pixel_count: int = 2,
) -> SceneStats:
    """Build SceneStats from an explicit mean and covariance."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(covariance, dtype=np.float64)
    cov = (cov + cov.T) / 2.0
    factor, ridge = _factorize(cov)
    return SceneStats(mean=mean, covariance=cov, factor_lower=factor, ridge=ridge, pixel_count=pixel_count)


def _centered_tiles(
    matrix: NDArray[np.float32],
    offset: NDArray[np.floating],
    dtype: type,
    valid: NDArray[np.bool_] | None = None,
    order: str = "C",
):
    """Yield (columns, tile) over the column tiles of a (B, N) matrix, in order.

    Each tile is its columns minus `offset`, in `dtype`, with the columns
    that `valid` marks False set to zero. The tiles share one buffer, laid
    out in `order`, so each is overwritten by the next.
    """
    n_pixels = matrix.shape[1]
    buffer = np.empty((matrix.shape[0], min(n_pixels, _TILE_PIXELS)), dtype=dtype, order=order)
    for start in range(0, n_pixels, _TILE_PIXELS):
        cols = slice(start, min(start + _TILE_PIXELS, n_pixels))
        tile = buffer[:, : cols.stop - start]
        np.subtract(matrix[:, cols], offset[:, np.newaxis], out=tile)
        if valid is not None:
            np.copyto(tile, 0.0, where=~valid[cols])
        yield cols, tile


def compute_scene_stats(cube: RasterCube) -> SceneStats:
    """Mean and population (1/N) covariance over a cube's valid pixels.

    Two passes over float64 column tiles: the first sums them for the mean,
    the second sums the centred cross-products. Invalid columns are set to
    zero, not gathered out, so they add nothing to either sum.
    """
    matrix = cube.data.reshape(cube.bands, -1)
    valid = None if cube.validity is None else cube.validity.ravel()
    n_pixels = matrix.shape[1] if valid is None else int(np.count_nonzero(valid))
    if n_pixels < 2:
        raise ComputeError(f"scene statistics need >= 2 valid pixels, have {n_pixels}")
    tiles = _centered_tiles(matrix, np.zeros(cube.bands), np.float64, valid)
    mean = sum(tile.sum(axis=1) for _, tile in tiles) / n_pixels
    cross = sum(tile @ tile.T for _, tile in _centered_tiles(matrix, mean, np.float64, valid))
    return scene_stats_from_moments(mean, cross / n_pixels, n_pixels)


def _check_finite(what: str, *arrays: NDArray[np.floating]) -> None:
    """DataError naming `what` unless every value of `arrays` is finite.

    The triangular solves check nothing, so a NaN or an infinity would come out as a score.
    """
    if not all(np.isfinite(values).all() for values in arrays):
        raise DataError(f"{what} must be finite")


def _target_values(target: TargetSpectrum | Spectrum) -> NDArray[np.float64]:
    values = target.values if isinstance(target, TargetSpectrum) else target
    return np.asarray(values, dtype=np.float64)


def sam(x: Spectrum, y: Spectrum | TargetSpectrum) -> float:
    """Spectral angle between two spectra, in radians within [0, pi].

    The angle whose cosine is ``x . y / (|x| |y|)``, evaluated through the
    two-argument arctangent of the normalized sum/difference vectors. That
    identity returns exactly 0 for identical spectra and stays accurate for
    tiny angles, where the arccosine of a rounded cosine loses ~8 digits.
    A NaN or an infinity in either spectrum is a DataError.
    """
    x = np.asarray(x, dtype=np.float64)
    y = _target_values(y)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"spectra must be 1-D and equal length, got {x.shape} and {y.shape}")
    _check_finite("spectrum", x)
    _check_finite("target", y)
    norm_x = float(np.linalg.norm(x))
    norm_y = float(np.linalg.norm(y))
    if norm_x == 0.0 or norm_y == 0.0:
        raise ComputeError("spectral angle is undefined for a zero spectrum")
    u = x / norm_x
    v = y / norm_y
    return 2.0 * math.atan2(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))


def _whitened_scores(
    matrix: NDArray[np.floating],
    detector: str,
    target: TargetSpectrum | Spectrum | None,
    stats: SceneStats,
    dtype: type,
) -> NDArray[np.float64]:
    """``mf`` or ``rx`` scores of the columns of a (B, N) matrix of spectra, computed in `dtype`.

    Each tile is centred into one Fortran-order buffer and whitened there,
    in place, by the BLAS call that scipy's ``solve_triangular`` reaches
    through OpenBLAS's ``trtrs`` (``trsv`` for one column, else ``trsm``, on
    ``factor.T`` read as upper and transposed), so the bits are the same.
    ``trtrs`` refuses an exact zero on the factor's diagonal, and so does this.
    """
    # Imported here, not at module level, so that the applications that never
    # whiten (clouds, surface_water, thermal, *_sam) never load scipy.
    from scipy.linalg import get_blas_funcs

    factor = stats.factor_lower.astype(dtype)
    if not np.diag(factor).all():
        precision = "single" if dtype == np.float32 else "double"
        raise ComputeError(f"covariance factor is singular in {precision} precision")
    trsm, trsv = get_blas_funcs(("trsm", "trsv"), (factor,))

    def whiten(block):
        """Solve L x = block in place; `block` is a Fortran-order (B, k) array in `dtype`."""
        if block.shape[1] == 1:
            trsv(factor.T, block[:, 0], lower=0, trans=1, overwrite_x=1)
            return block
        return trsm(1.0, factor.T, block, lower=0, trans_a=1, overwrite_b=1)

    tiles = (
        (cols, whiten(centered))
        for cols, centered in _centered_tiles(matrix, stats.mean.astype(dtype), dtype, order="F")
    )
    scores = np.empty(matrix.shape[1])
    if detector == "rx":
        for cols, whitened in tiles:
            scores[cols] = np.einsum("ij,ij->j", whitened, whitened)
        return scores
    t_dev = (_target_values(target) - stats.mean).astype(dtype)
    if not t_dev.any():
        raise ComputeError("matched filter is undefined when the target equals the scene mean")
    whitened_t = whiten(t_dev[:, np.newaxis])[:, 0]
    norm = np.dot(whitened_t, whitened_t)
    for cols, whitened in tiles:
        scores[cols] = (whitened_t @ whitened) / norm
    return scores


def mf(x: Spectrum, target: TargetSpectrum | Spectrum, stats: SceneStats) -> float:
    """Matched-filter score of `x` against `target` under `stats`.

    Exactly 1 at the target and 0 at the scene mean.
    """
    x = np.asarray(x, dtype=np.float64)
    t = _target_values(target)
    if x.shape != (stats.n_bands,) or t.shape != (stats.n_bands,):
        raise DataError(f"spectrum lengths must match the {stats.n_bands}-band statistics")
    _check_finite("spectrum", x)
    _check_finite("target", t)
    return float(_whitened_scores(x[:, np.newaxis], "mf", t, stats, np.float64)[0])


def rx(x: Spectrum, stats: SceneStats) -> float:
    """Squared Mahalanobis distance of `x` from the scene statistics (>= 0)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (stats.n_bands,):
        raise DataError(f"spectrum length {x.shape} must match the {stats.n_bands}-band statistics")
    _check_finite("spectrum", x)
    return float(_whitened_scores(x[:, np.newaxis], "rx", None, stats, np.float64)[0])


def detect_map(
    cube: RasterCube,
    detector: str,
    target: TargetSpectrum | Spectrum | None = None,
    stats: SceneStats | None = None,
    precision: str = "single",
) -> ScoreMap:
    """Per-pixel detector score map over a whole cube.

    ``sam`` and ``mf`` require a target; ``mf`` and ``rx`` use scene
    statistics, computed from the cube's valid pixels when not supplied.
    Zero-norm pixels under ``sam`` score pi (worst match) and are flagged
    rather than aborting the scene.
    """
    detector = str(detector).lower()
    if detector not in DETECTORS:
        raise DataError(f"unknown detector {detector!r}; expected one of {DETECTORS}")
    if precision not in PRECISIONS:
        raise DataError(f"unknown precision {precision!r}; expected one of {PRECISIONS}")
    dtype = np.float32 if precision == "single" else np.float64

    if detector in TARGET_DETECTORS:
        if target is None:
            raise DataError(f"detector {detector!r} requires a target spectrum")
        t = _target_values(target)
        if t.size != cube.bands:
            raise DataError(f"target has {t.size} bands, cube has {cube.bands}")
        _check_finite("target", t)
    if detector in STATS_DETECTORS and stats is None:
        stats = compute_scene_stats(cube)

    matrix = cube.data.reshape(cube.bands, -1)
    flags = None

    if detector == "sam":
        t = t.astype(dtype)
        norm_t = np.linalg.norm(t)
        if norm_t == 0.0:
            raise ComputeError("spectral angle is undefined for a zero target")
        unit_target = t / norm_t
        scores = np.empty(matrix.shape[1])
        zero = np.empty(matrix.shape[1], dtype=bool)
        for cols, tile in _centered_tiles(matrix, np.zeros(cube.bands, dtype=dtype), dtype):
            scores[cols], zero[cols] = _sam_tile(tile, unit_target)
        flags = zero.reshape(cube.height, cube.width) if zero.any() else None
    else:
        if stats.n_bands != cube.bands:
            raise DataError(f"statistics cover {stats.n_bands} bands, cube has {cube.bands}")
        scores = _whitened_scores(matrix, detector, target, stats, dtype)

    return ScoreMap(
        data=scores.reshape(cube.height, cube.width),
        score_kind=detector.upper(),
        flags=flags,
    )


def _sam_tile(
    unit: NDArray[np.floating], unit_target: NDArray[np.floating]
) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
    """Spectral angles of a (B, T) tile of spectra to a unit target, and its zero-norm pixels.

    The same two-argument arctangent as :func:`sam`, in the tile's dtype,
    with each pixel's sums taken over the bands in order; zero-norm pixels
    score pi. The tile is overwritten; its difference from the target is
    formed ``_SAM_BLOCK`` columns at a time in one reused buffer.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", unit, unit))
    zero = norms == 0.0
    unit /= np.where(zero, unit.dtype.type(1.0), norms)
    n_bands, n_pixels = unit.shape
    away = np.empty(n_pixels, dtype=unit.dtype)
    # Each block is a view of one buffer, so a last block of one column keeps
    # the buffer's row stride and einsum sums its bands in order, as it does
    # each column of a wider one; a contiguous column sums in another order.
    buffer = np.empty((n_bands, min(n_pixels, _SAM_BLOCK)), dtype=unit.dtype)
    for start in range(0, n_pixels, _SAM_BLOCK):
        cols = slice(start, min(start + _SAM_BLOCK, n_pixels))
        diff = buffer[:, : cols.stop - start]
        np.subtract(unit[:, cols], unit_target[:, np.newaxis], out=diff)
        away[cols] = np.einsum("ij,ij->j", diff, diff)
    np.sqrt(away, out=away)
    unit += unit_target[:, np.newaxis]
    toward = np.sqrt(np.einsum("ij,ij->j", unit, unit))
    angles = np.arctan2(away, toward, out=away)
    angles *= 2.0
    angles[zero] = np.pi
    scores = angles.astype(np.float64)
    return np.clip(scores, 0.0, math.pi, out=scores), zero
