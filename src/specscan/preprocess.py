"""Per-band contrast stretching between low/high quantiles.

Each band is mapped linearly so that its low quantile lands on ``v_min`` and
its high quantile on ``v_max``, with values outside that quantile window
clamped to the bounds. Quantiles use linear interpolation between the two
closest order statistics over valid pixels only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .cube import RasterCube
from .errors import ComputeError, ConfigError, DataError

_STRETCH_PIXELS = 1 << 16  # pixels stretch_band maps per step; its 576 KB of buffers fit a 2 MB L2 cache
_SAMPLE_STEP = 61  # band_quantiles samples every 61st pixel: a prime, so no column period aliases it


@dataclass(frozen=True)
class StretchParams:
    """Target range and quantile fractions for a band stretch."""

    v_min: float = 0.0
    v_max: float = 1.0
    q_low_fraction: float = 0.01
    q_high_fraction: float = 0.99

    def __post_init__(self):
        if not self.v_min < self.v_max:
            raise ConfigError(f"v_min ({self.v_min}) must be < v_max ({self.v_max})")
        if not 0.0 <= self.q_low_fraction < self.q_high_fraction <= 1.0:
            raise ConfigError(
                "quantile fractions must satisfy 0 <= low < high <= 1, got "
                f"({self.q_low_fraction}, {self.q_high_fraction})"
            )

    def check_float32(self) -> None:
        """Raise ConfigError unless float32 holds the stretched range and the nodata value.

        :func:`stretch_band` works in float64 and takes any range;
        :func:`stretch_cube` stores bands within ``[v_min, v_max]``, and
        nodata below ``v_min``, as float32.
        """
        with np.errstate(over="ignore"):
            nodata = self.nodata
            stored = np.float32([nodata, self.v_max])
        if not np.isfinite(stored).all():
            raise ConfigError(
                f"v_min ({self.v_min}) and v_max ({self.v_max}) must stretch to finite float32 values, "
                f"nodata ({nodata}) included"
            )

    @property
    def nodata(self) -> float:
        """The value :func:`stretch_cube` writes for nodata pixels.

        It is ``v_min - 1``, or the next float32 below ``v_min`` where that
        is lower: above ``|v_min| = 2**24``, float32 can round ``v_min - 1``
        onto ``v_min``, and a reload of the written cube would take valid
        pixels stretched to ``v_min`` for nodata.
        """
        return min(self.v_min - 1.0, float(np.nextafter(np.float32(self.v_min), np.float32(-np.inf))))


def band_quantiles(
    plane: NDArray[np.floating],
    validity: NDArray[np.bool_] | None = None,
    fractions: tuple[float, float] = (0.01, 0.99),
) -> tuple[float, float]:
    """Low/high quantiles of a band plane over its valid pixels.

    Linear interpolation between the two closest order statistics, Hyndman &
    Fan (1996) type 7, equal to ``np.quantile(values.astype(np.float64),
    fractions, method="linear")``; the interpolation is numpy's, in float64.

    The order statistics are selected exactly from the band's two tails, as
    in Floyd & Rivest's (1975) sampled selection. A sorted sample of every
    61st valid pixel gives a bracket four binomial standard deviations (plus
    two) beyond each wanted rank. The valid values ``<= b`` hold the
    smallest ranks, and those not ``< a``, NaN included, the largest; they
    are gathered 65,536 pixels at a time and partitioned in place. A count
    proves that each tail holds its ranks. Where it does not, the brackets
    overlap, or ties fill the tails past half the valid values, every valid
    value is copied once, in its own dtype: no band holds more than that.
    The high span always reads the high tail, so a NaN gives NaN for both,
    as ``np.quantile`` does; a low span in the upper half reads it too. A
    zero at a selected rank may come back with the other sign.
    """
    low_f, high_f = fractions
    if not 0.0 <= low_f <= high_f <= 1.0:
        raise DataError(f"fractions must satisfy 0 <= low <= high <= 1, got {fractions}")
    if validity is not None and np.shape(validity) != np.shape(plane):
        raise DataError(f"validity shape {np.shape(validity)} does not match the plane's {np.shape(plane)}")
    flat = np.asarray(plane).ravel()
    valid = None if validity is None else np.asarray(validity).ravel()
    n = flat.size if valid is None else int(np.count_nonzero(valid))
    if n == 0:
        raise ComputeError("no valid pixels to take quantiles over")
    # numpy's linear method: the virtual index (n - 1) * q lies between the
    # order statistics at its floor and floor + 1; at or beyond n - 1 it reads
    # the last one, index -1, with weight (n - 1) * q - (-1).
    spans = []
    for fraction in (low_f, high_f):
        position = (n - 1) * fraction
        if position >= n - 1:
            spans.append((n - 1, n - 1, position + 1))
        else:
            below = math.floor(position)
            spans.append((below, below + 1, position - below))
    (low_below, low_above, _), (high_below, _, _) = spans
    split = 2 * low_below < n - 1  # the low span lies in the lower half
    low_rank, high_rank = (low_above, high_below) if split else (-1, low_below)
    sample = flat[::_SAMPLE_STEP].copy() if valid is None else flat[::_SAMPLE_STEP][valid[::_SAMPLE_STEP]]
    sample.sort()
    # A NaN sorts last, into the sample's end and the high tail; one valid
    # NaN makes np.quantile give NaN for both.
    if sample.size and math.isnan(sample[-1]):
        return math.nan, math.nan
    bracket = _bracket(sample, n, low_rank, high_rank)
    del sample  # freed before the tails are gathered
    low, high = _tails(flat, valid, n, bracket, low_rank, high_rank) or (
        (flat.copy() if valid is None else flat[valid],) * 2  # every valid value, copied once for both spans
    )
    q_low = _quantile(low, 0, *spans[0]) if split else _quantile(high, n - high.size, *spans[0])
    q_high = _quantile(high, n - high.size, *spans[1])
    if math.isnan(q_high):
        return math.nan, math.nan
    return q_low, q_high


def _bracket(sample, n, low_rank, high_rank):
    """Values ``(b, a)`` of the sorted `sample` that bracket ranks `low_rank` and `high_rank` of `n`.

    Each lies beyond its rank by four binomial standard deviations of the
    sample's count, plus two; `b` is None for a negative `low_rank`. None
    where the brackets overlap.
    """
    m = sample.size

    def margin(p):  # four binomial standard deviations of the sample's count below rank p * n, plus two
        return 4.0 * math.sqrt(m * p * (1.0 - p)) + 2.0

    top = math.ceil(m * (low_rank + 1) / n + margin((low_rank + 1) / n)) if low_rank >= 0 else -1
    bottom = math.floor(m * high_rank / n - margin(high_rank / n))
    if top >= m or bottom < 0 or (top >= 0 and not sample[top] < sample[bottom]):  # overlapping brackets
        return None
    return (sample[top] if top >= 0 else None), sample[bottom]


def _tails(flat, valid, n, bracket, low_rank, high_rank):
    """The valid values ``<= b`` and those not ``< a``, if they hold ranks ``<= low_rank`` and ``>= high_rank``.

    ``(b, a)`` is the `bracket` from the band's sample (:func:`_bracket`),
    of the band's dtype; no low tail is gathered for a `b` of None. None if
    no bracket is proven, or once the tails hold half the valid values:
    joined, they hold no more.
    """
    if bracket is None:
        return None
    b, a = bracket
    flag = np.empty(min(flat.size, _STRETCH_PIXELS), dtype=bool)
    lows, highs, held = [flat[:0]], [], 0
    for start in range(0, flat.size, _STRETCH_PIXELS):
        chunk = flat[start : start + _STRETCH_PIXELS]
        at = flag[: chunk.size]
        ok = True if valid is None else valid[start : start + _STRETCH_PIXELS]
        if b is not None:
            np.less_equal(chunk, b, out=at)
            lows.append(chunk[at if valid is None else np.logical_and(at, ok, out=at)])
        np.less(chunk, a, out=at)
        highs.append(chunk[np.greater(ok, at, out=at)])  # valid and not below a
        held += lows[-1].size + highs[-1].size
        if 2 * held > n:
            return None
    lows = np.concatenate(lows)  # each tail's steps freed before the next is joined
    highs = np.concatenate(highs)
    return None if lows.size <= low_rank or n - highs.size > high_rank else (lows, highs)


def _quantile(values, offset, below, above, t):
    """A span's quantile from `values`, which holds the ranks it reads from rank `offset` on."""
    # One partition puts the floor in place; the statistic one past it is the least value after it.
    values.partition(below - offset)
    return _lerp(float(values[below - offset]), float(values[above - offset :].min()), t)


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's quantile interpolation, evaluated in the same order."""
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def stretch_band(
    plane: NDArray[np.floating],
    params: StretchParams,
    q_low: float,
    q_high: float,
    out: NDArray[np.floating] | None = None,
) -> NDArray[np.floating]:
    """Linearly map [q_low, q_high] onto [v_min, v_max], clamping outside.

    The endpoints map exactly: every pixel at or below ``q_low`` becomes
    ``v_min`` and every pixel at or above ``q_high`` becomes ``v_max``.
    A degenerate band (``q_high == q_low``) maps entirely to ``v_min``.

    The map is computed in float64, a few rows at a time, and returned as a
    new float64 array, or written into `out`, an array of the plane's
    shape, rounded to its dtype. Either way each value has the bits that
    mapping the whole plane at once, then rounding it, would give. `out`
    may be `plane` itself: each chunk of rows is copied before it is written.
    """
    if q_high < q_low:
        raise ComputeError(f"q_high ({q_high}) below q_low ({q_low})")
    plane = np.asarray(plane)
    if out is None:
        out = np.empty(plane.shape, dtype=np.float64)
    elif out.shape != plane.shape:
        raise DataError(f"out shape {out.shape} does not match the plane's {plane.shape}")
    if q_high == q_low or plane.size == 0:
        out[...] = params.v_min
        return out
    scale = (params.v_max - params.v_min) / (q_high - q_low)
    # With a finite scale every pixel at or below q_low lands at or below
    # v_min, and the clip pins it there. Only an infinite scale, which turns
    # p == q_low into NaN, or a v_min of -0.0, which -0.0 + 0.0 turns into
    # +0.0, needs the mask.
    pin_low = not math.isfinite(scale) or (params.v_min == 0.0 and math.copysign(1.0, params.v_min) < 0)
    # Rows along the first axis (a 0-d plane is one row of one value); both
    # reshapes are views.
    source = plane.reshape(-1, *plane.shape[1:])
    target = out.reshape(source.shape)
    rows = max(1, _STRETCH_PIXELS * len(source) // source.size)
    chunk = np.empty((min(rows, len(source)), *source.shape[1:]), dtype=np.float64)
    high = np.empty(chunk.shape, dtype=bool)
    low = np.empty(chunk.shape, dtype=bool) if pin_low else None
    for start in range(0, len(source), rows):
        n = min(rows, len(source) - start)
        values, at_high = chunk[:n], high[:n]
        values[...] = source[start : start + n]
        np.greater_equal(values, q_high, out=at_high)
        if low is not None:
            np.less_equal(values, q_low, out=low[:n])
        values -= q_low
        values *= scale
        values += params.v_min
        np.clip(values, params.v_min, params.v_max, out=values)
        if low is not None:
            np.copyto(values, params.v_min, where=low[:n])
        np.copyto(values, params.v_max, where=at_high)
        target[start : start + n] = values
    return out


def stretch_cube(cube: RasterCube, params: StretchParams, out: NDArray[np.float32] | None = None) -> RasterCube:
    """Stretch every band of `cube` independently, each with its own quantiles.

    A band's quantiles come from its own values and the cube's validity
    alone, so a band stretches to the same bits whichever other bands are
    stretched with it. A pipeline run therefore stretches just the scene its
    score step reads (``Application.select``): green and NIR for
    ``surface_water``, the ``thermal_band`` for ``thermal``, every band for
    the detectors.

    The result keeps the input's band metadata and validity. If the input
    declares nodata, invalid pixels are written as ``params.nodata`` and the
    output declares that value as its nodata.

    The stretched bands go into a new array, or into `out`, a float32 array
    of ``cube.data``'s shape, which may be ``cube.data`` itself: each band's
    quantiles come from that band alone, before it is written, so the bits
    are the same either way, and the result holds `out`. A `cube` stretched
    into its own data is spent: its data holds the stretched values, which
    its nodata no longer describes, so only the result may be used afterwards.

    Raises:
        ConfigError: float32 cannot hold the stretched range or the nodata
            value (:meth:`StretchParams.check_float32`).
        DataError: `out` is not a float32 array of ``cube.data``'s shape.
    """
    params.check_float32()
    if out is not None and (np.shape(out) != cube.data.shape or getattr(out, "dtype", None) != np.float32):
        raise DataError(f"out must be a float32 array of the cube's shape {cube.data.shape}")
    fractions = (params.q_low_fraction, params.q_high_fraction)
    if out is None:
        out = np.empty(cube.data.shape, dtype=np.float32)
    nodata = None if cube.nodata is None else params.nodata
    invalid = None if nodata is None else ~cube.validity
    for i in range(cube.bands):
        # stretch_band clamps to [v_min, v_max]; rounding to float32 is
        # monotonic, so the stored band stays within the rounded bounds.
        stretch_band(cube.plane(i), params, *band_quantiles(cube.plane(i), cube.validity, fractions), out=out[i])
        if invalid is not None:
            np.copyto(out[i], np.float32(nodata), where=invalid)
    # Valid pixels lie in [v_min, v_max] and nodata below v_min, all finite
    # in float32 (check_float32), so the result needs no new check.
    return RasterCube._derived(out, cube.band_meta, nodata, cube.validity)
