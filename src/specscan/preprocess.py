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
    fractions, method="linear")``. The valid values are copied once, in their
    own dtype, and partitioned in place at the order statistics that method
    reads; the interpolation is numpy's, in float64.
    """
    low_f, high_f = fractions
    if not 0.0 <= low_f <= high_f <= 1.0:
        raise DataError(f"fractions must satisfy 0 <= low <= high <= 1, got {fractions}")
    plane = np.asarray(plane)
    values = plane[validity] if validity is not None else plane.ravel().copy()
    n = values.size
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
    (low_below, _, _), (high_below, _, _) = spans
    # Two single-index partitions put both floors in sorted place, so
    # values[:low_below] <= values[low_below] <= values[low_below + 1:high_below]
    # <= values[high_below] <= values[high_below + 1:]. The statistic one past
    # a floor is then the least value up to the next floor placed.
    values.partition(high_below)
    if low_below < high_below:
        values[:high_below].partition(low_below)

    def statistic(k):
        if k in (low_below, high_below):
            return float(values[k])
        return float(values[k : high_below + 1 if k <= high_below else n].min())

    q_low, q_high = (_lerp(statistic(below), statistic(above), t) for below, above, t in spans)
    # A NaN sorts last, so it reaches the high statistics; np.quantile then
    # gives NaN for both.
    if math.isnan(q_high):
        return math.nan, math.nan
    return q_low, q_high


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
    of ``cube.data``'s shape, which may be ``cube.data`` itself: every
    quantile is taken before any band is written, so the bits are the same
    either way, and the result holds `out`. A `cube` stretched into its own
    data is spent: its data holds the stretched values, which its nodata no
    longer describes, so only the result may be used afterwards.

    Raises:
        ConfigError: float32 cannot hold the stretched range or the nodata
            value (:meth:`StretchParams.check_float32`).
        DataError: `out` is not a float32 array of ``cube.data``'s shape.
    """
    params.check_float32()
    if out is not None and (np.shape(out) != cube.data.shape or getattr(out, "dtype", None) != np.float32):
        raise DataError(f"out must be a float32 array of the cube's shape {cube.data.shape}")
    fractions = (params.q_low_fraction, params.q_high_fraction)
    # All quantiles first: each takes a copy of one band's valid values,
    # which is freed before the output is allocated, and none reads a band
    # already written when `out` is the cube's data.
    quantiles = [band_quantiles(cube.plane(i), cube.validity, fractions) for i in range(cube.bands)]
    if out is None:
        out = np.empty(cube.data.shape, dtype=np.float32)
    nodata = None if cube.nodata is None else params.nodata
    invalid = None if nodata is None else ~cube.validity
    for i in range(cube.bands):
        # stretch_band clamps to [v_min, v_max]; rounding to float32 is
        # monotonic, so the stored band stays within the rounded bounds.
        stretch_band(cube.plane(i), params, *quantiles[i], out=out[i])
        if invalid is not None:
            np.copyto(out[i], np.float32(nodata), where=invalid)
    # Valid pixels lie in [v_min, v_max] and nodata below v_min, all finite
    # in float32 (check_float32), so the result needs no new check.
    return RasterCube._derived(out, cube.band_meta, nodata, cube.validity)
