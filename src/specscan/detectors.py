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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_triangular

from .cube import RasterCube, ScoreMap, Spectrum, TargetSpectrum
from .errors import ComputeError, DataError

DETECTORS = ("sam", "mf", "rx")
TARGET_DETECTORS = ("sam", "mf")
# Side of a threshold that holds the detections: a small spectral angle is a close match.
POLARITY = {"sam": "below", "mf": "above", "rx": "above"}
PRECISIONS = ("single", "double")

_RIDGE_BASE_FRACTION = 1e-6
_RIDGE_MAX_FRACTION = 1e-2
_RIDGE_ABS_FLOOR = 1e-12  # engaged only when trace(cov) == 0 (constant scene)


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
        if self.pixel_count < 2:
            raise DataError(f"scene statistics need >= 2 pixels, got {self.pixel_count}")
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

    def describe(self, bands: bool = False, covariance: bool = False) -> dict:
        """JSON-ready digest: pixel count, ridge, condition estimate and mean.

        `bands` adds the band count after the pixel count; `covariance`
        appends the full matrix.
        """
        digest = {"pixel_count": self.pixel_count}
        if bands:
            digest["bands"] = self.n_bands
        digest.update(ridge=self.ridge, condition_estimate=self.condition_estimate(), mean=self.mean.tolist())
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


def compute_scene_stats(
    cube: RasterCube,
    validity: NDArray[np.bool_] | None = None,
) -> SceneStats:
    """Mean and population (1/N) covariance over a cube's valid pixels.

    `validity` further restricts the cube's own validity mask when given.
    """
    mask = cube.validity
    if validity is not None:
        extra = np.asarray(validity, dtype=bool)
        if extra.shape != (cube.height, cube.width):
            raise DataError(f"validity shape {extra.shape} does not match cube plane")
        mask = extra if mask is None else (mask & extra)
    pixels = cube.pixels().astype(np.float64)
    if mask is not None:
        pixels = pixels[mask.ravel()]
    n_pixels = pixels.shape[0]
    if n_pixels < 2:
        raise ComputeError(f"scene statistics need >= 2 valid pixels, have {n_pixels}")
    mean = pixels.mean(axis=0)
    centered = pixels - mean
    cov = centered.T @ centered / n_pixels
    cov = (cov + cov.T) / 2.0
    factor, ridge = _factorize(cov)
    return SceneStats(mean=mean, covariance=cov, factor_lower=factor, ridge=ridge, pixel_count=n_pixels)


def _target_values(target: TargetSpectrum | Spectrum) -> NDArray[np.float64]:
    values = target.values if isinstance(target, TargetSpectrum) else target
    return np.asarray(values, dtype=np.float64)


def sam(x: Spectrum, y: Spectrum | TargetSpectrum) -> float:
    """Spectral angle between two spectra, in radians within [0, pi].

    The angle whose cosine is ``x . y / (|x| |y|)``, evaluated through the
    two-argument arctangent of the normalized sum/difference vectors. That
    identity returns exactly 0 for identical spectra and stays accurate for
    tiny angles, where the arccosine of a rounded cosine loses ~8 digits.
    """
    x = np.asarray(x, dtype=np.float64)
    y = _target_values(y)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"spectra must be 1-D and equal length, got {x.shape} and {y.shape}")
    norm_x = float(np.linalg.norm(x))
    norm_y = float(np.linalg.norm(y))
    if norm_x == 0.0 or norm_y == 0.0:
        raise ComputeError("spectral angle is undefined for a zero spectrum")
    u = x / norm_x
    v = y / norm_y
    return 2.0 * math.atan2(float(np.linalg.norm(u - v)), float(np.linalg.norm(u + v)))


def mf(x: Spectrum, target: TargetSpectrum | Spectrum, stats: SceneStats) -> float:
    """Matched-filter score of `x` against `target` under `stats`.

    Exactly 1 at the target and 0 at the scene mean.
    """
    x = np.asarray(x, dtype=np.float64)
    t = _target_values(target)
    if x.shape != (stats.n_bands,) or t.shape != (stats.n_bands,):
        raise DataError(f"spectrum lengths must match the {stats.n_bands}-band statistics")
    t_dev = t - stats.mean
    if not t_dev.any():
        raise ComputeError("matched filter is undefined when the target equals the scene mean")
    whitened_t = solve_triangular(stats.factor_lower, t_dev, lower=True)
    whitened_x = solve_triangular(stats.factor_lower, x - stats.mean, lower=True)
    return float(np.dot(whitened_t, whitened_x) / np.dot(whitened_t, whitened_t))


def rx(x: Spectrum, stats: SceneStats) -> float:
    """Squared Mahalanobis distance of `x` from the scene statistics (>= 0)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (stats.n_bands,):
        raise DataError(f"spectrum length {x.shape} must match the {stats.n_bands}-band statistics")
    whitened = solve_triangular(stats.factor_lower, x - stats.mean, lower=True)
    return float(np.dot(whitened, whitened))


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

    if detector in TARGET_DETECTORS and target is None:
        raise DataError(f"detector {detector!r} requires a target spectrum")
    if detector in ("mf", "rx") and stats is None:
        stats = compute_scene_stats(cube)

    pixels = cube.pixels().astype(dtype)
    flags = None

    if detector == "sam":
        t = _target_values(target)
        if t.size != cube.bands:
            raise DataError(f"target has {t.size} bands, cube has {cube.bands}")
        t = t.astype(dtype)
        norm_t = np.linalg.norm(t)
        if norm_t == 0.0:
            raise ComputeError("spectral angle is undefined for a zero target")
        norms = np.sqrt(np.einsum("ij,ij->i", pixels, pixels))
        zero = norms == 0.0
        unit = pixels / np.where(zero, dtype(1.0), norms)[:, np.newaxis]
        v = t / norm_t
        diff = unit - v
        total = unit + v
        away = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        toward = np.sqrt(np.einsum("ij,ij->i", total, total))
        scores = 2.0 * np.arctan2(away, toward)
        scores[zero] = np.pi
        scores = np.clip(scores.astype(np.float64), 0.0, math.pi)
        flags = zero.reshape(cube.height, cube.width) if zero.any() else None
    else:
        if stats.n_bands != cube.bands:
            raise DataError(f"statistics cover {stats.n_bands} bands, cube has {cube.bands}")
        mean = stats.mean.astype(dtype)
        factor = stats.factor_lower.astype(dtype)
        whitened = solve_triangular(factor, (pixels - mean).T, lower=True)
        if detector == "rx":
            scores = np.einsum("ij,ij->j", whitened, whitened).astype(np.float64)
        else:
            t_dev = (_target_values(target) - stats.mean).astype(dtype)
            if not t_dev.any():
                raise ComputeError("matched filter is undefined when the target equals the scene mean")
            whitened_t = solve_triangular(factor, t_dev, lower=True)
            scores = ((whitened_t @ whitened) / np.dot(whitened_t, whitened_t)).astype(np.float64)

    return ScoreMap(
        data=scores.reshape(cube.height, cube.width),
        score_kind=detector.upper(),
        flags=flags,
    )
