"""Automated label generation.

Water labeling uses the normalized difference water index over the green and
NIR bands; cloud/haze labeling uses the haze optimized transform against a
clear-sky line fitted from the scene's darkest blue pixels; thermal labeling
uses fixed band thresholds. Continuous products are binarized either at a
fixed threshold or at one chosen by Otsu's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cube import BinaryMask, RasterCube, ScoreMap
from .errors import ComputeError, ConfigError, DataError

HOT_MODES = ("as_written", "point_line_distance")
POLARITIES = ("above", "below")

CLEAR_SKY_SUBSET_FRACTION = 0.0015
CLEAR_SKY_BIN_COUNT = 20
CLEAR_SKY_POINTS_PER_BIN = 20

_CHUNK = 1 << 16  # values ndwi and hot score, otsu_threshold bins and fit_clear_sky_line scans per step


@dataclass(frozen=True)
class ClearSkyLine:
    """Linear red-vs-blue relationship fitted to presumed clear pixels."""

    slope: float
    intercept: float
    n_fit_points: int
    fit_residual_rms: float

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise DataError("clear-sky line parameters must be finite")
        if self.n_fit_points < 2:
            raise DataError("clear-sky line needs at least 2 fit points")


@dataclass(frozen=True)
class OtsuResult:
    """Threshold maximizing inter-class variance over a score histogram."""

    threshold: float
    inter_class_variance: float
    histogram_bins: int
    degenerate: bool = False


def ndwi(cube: RasterCube, out: np.ndarray | None = None) -> ScoreMap:
    """(green - nir) / (green + nir) per pixel.

    Pixels with green + nir == 0 score 0 by convention and are flagged.
    Scores are clipped into [-1, 1]. The map is computed in float64,
    65,536 pixels at a time, into a new array or, with `out` the data of a
    two-band `cube`, over it (:func:`_band_pair_map`), which spends the
    cube; the bits are the same either way.
    """
    flags = np.empty((cube.height, cube.width), dtype=bool)
    total = np.empty(min(_CHUNK, flags.size), dtype=np.float64)

    def kernel(green, nir, scores, pixels):
        sums, at_zero = total[: scores.size], flags.reshape(-1)[pixels]
        np.add(green, nir, out=sums, dtype=np.float64)
        np.equal(sums, 0.0, out=at_zero)
        np.subtract(green, nir, out=scores, dtype=np.float64)
        scores /= sums
        np.copyto(scores, 0.0, where=at_zero)
        np.clip(scores, -1.0, 1.0, out=scores)

    # A zero total divides to an infinity or NaN that the flag then overwrites.
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _band_pair_map(cube, ("green", "nir"), kernel, out)
    return ScoreMap(data=scores, score_kind="NDWI", flags=flags if flags.any() else None)


def _band_pair_map(cube: RasterCube, bands: tuple[str, str], kernel, out: np.ndarray | None) -> np.ndarray:
    """The float64 map that ``kernel(x, y, scores, pixels)`` writes, `pixels` of two `bands` at a time.

    `pixels` is a slice of ``_CHUNK`` or fewer flat pixels. With `out` None the map is a new
    array. Else `out` is ``cube.data``, two bands, C-contiguous, and map pixel ``p`` takes samples
    ``2p`` and ``2p + 1``. Band 1's first ``half = ceil(N / 2)`` samples are set aside; the pixels
    from `half` on (in band 1) go first, in ascending chunks, then the rest in descending chunks,
    reading band 1 from the copy. No chunk writes what a later one reads; one that overwrites its
    own inputs (the last upper chunk, the one at pixel 0) goes through a buffer.
    """
    x, y = (cube.plane(band).reshape(-1) for band in bands)
    if out is None:
        scores, half, lower = np.empty(x.size), 0, (x, y)
    elif out is cube.data and cube.bands == 2 and out.flags.c_contiguous:
        scores, half = out.reshape(-1).view(np.float64), (x.size + 1) // 2
        saved = [out[0].reshape(-1), out[1].reshape(-1)[:half].copy()]
        lower = [saved[cube.band_index(band)] for band in bands]
    else:
        raise DataError("out must be the data of a two-band cube, C-contiguous")
    chunks = [(slice(start, min(start + _CHUNK, x.size)), x, y) for start in range(half, x.size, _CHUNK)]
    chunks += [(slice(start, min(start + _CHUNK, half)), *lower) for start in reversed(range(0, half, _CHUNK))]
    buffer = np.empty(min(_CHUNK, x.size))
    for pixels, xs, ys in chunks:
        xs, ys, target = xs[pixels], ys[pixels], scores[pixels]
        shared = np.may_share_memory(target, xs) or np.may_share_memory(target, ys)
        kernel(xs, ys, buffer[: target.size] if shared else target, pixels)
        if shared:
            target[...] = buffer[: target.size]
    return scores.reshape(cube.height, cube.width)


def fit_clear_sky_line(cube: RasterCube) -> ClearSkyLine:
    """Fit the clear-sky red = slope * blue + intercept line.

    Procedure: take the 0.15% of valid pixels with the smallest blue value
    (at least 2), split them into 20 equal-width bins over the subset's blue
    range, keep the 20 highest-red points of each bin, and fit red on blue
    by ordinary least squares over the retained points. Ties in blue or red
    are broken by lower linear pixel index, so identical scenes yield
    bit-identical fits. The subset is found 65,536 pixels at a time, so the
    fit holds no scene-sized scratch: at most two subsets and one chunk of
    candidate values.
    """
    blue = cube.plane("blue").ravel()
    red = cube.plane("red").ravel()
    valid = cube.validity.ravel() if cube.validity is not None else None
    n_valid = blue.size if valid is None else int(np.count_nonzero(valid))
    if n_valid < 2:
        raise ComputeError(f"clear-sky fit needs at least 2 valid pixels, have {n_valid}")
    subset_count = max(2, int(CLEAR_SKY_SUBSET_FRACTION * n_valid))
    subset = _darkest_blue(blue, valid, subset_count)
    blue_sub = blue[subset].astype(np.float64)

    lo = float(blue_sub.min())
    hi = float(blue_sub.max())
    if hi == lo:
        raise ComputeError("all selected blue values identical; clear-sky line is vertical")
    width = (hi - lo) / CLEAR_SKY_BIN_COUNT
    bins = np.floor((blue_sub - lo) / width).astype(np.int64)
    np.clip(bins, 0, CLEAR_SKY_BIN_COUNT - 1, out=bins)

    retained: list[np.ndarray] = []
    for b in range(CLEAR_SKY_BIN_COUNT):
        members = subset[bins == b]
        if members.size == 0:
            continue
        # primary key: red descending; secondary: pixel index ascending
        ranking = np.lexsort((members, -red[members]))
        retained.append(members[ranking[:CLEAR_SKY_POINTS_PER_BIN]])
    # lo and hi fall in the first and last bins: 2 or more points, not all of one blue value.
    points = np.concatenate(retained)

    x = blue[points].astype(np.float64)
    y = red[points].astype(np.float64)
    x_mean = x.mean()
    y_mean = y.mean()
    xc = x - x_mean
    slope = float(np.dot(xc, y - y_mean) / np.dot(xc, xc))
    intercept = float(y_mean - slope * x_mean)
    residuals = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(residuals * residuals)))
    return ClearSkyLine(slope=slope, intercept=intercept, n_fit_points=int(points.size), fit_residual_rms=rms)


def _darkest_blue(blue: np.ndarray, valid: np.ndarray | None, count: int) -> np.ndarray:
    """Indices of the valid pixels below the cut, the `count`-th smallest valid value, then the first at it.

    Each chunk's valid values below the bound join the candidates, which are
    partitioned back to the `count` smallest whenever they pass ``2 * count``.
    The float32 cut compares with the float32 plane, so no value is rounded.
    """
    flags = np.empty(min(_CHUNK, blue.size), dtype=bool)

    def marked(compare, start, value):  # flags of the chunk's valid pixels where compare(blue, value)
        values = blue[start : start + _CHUNK]
        flag = compare(values, value, out=flags[: values.size])
        if valid is not None:
            flag &= valid[start : start + values.size]
        return flag

    candidates, bound = blue[:0], np.inf
    for start in range(0, blue.size, _CHUNK):
        # The bound is the count-th smallest candidate: no value at or above it lowers the cut.
        candidates = np.concatenate([candidates, blue[start : start + _CHUNK][marked(np.less, start, bound)]])
        if candidates.size > 2 * count:
            candidates.partition(count - 1)
            candidates, bound = candidates[:count], candidates[count - 1]
    cut = np.partition(candidates, count - 1)[count - 1]

    # Fewer than count pixels lie below the cut; no more than count at it are needed.
    below, at_cut, taken = [], [], 0
    for start in range(0, blue.size, _CHUNK):
        below.append(np.flatnonzero(marked(np.less, start, cut)) + start)
        if taken < count:
            at_cut.append(np.flatnonzero(marked(np.equal, start, cut))[: count - taken] + start)
            taken += at_cut[-1].size
    below = np.concatenate(below)
    return np.concatenate([below, np.concatenate(at_cut)[: count - below.size]])


def hot(cube: RasterCube, line: ClearSkyLine, mode: str = "as_written", out: np.ndarray | None = None) -> ScoreMap:
    """Haze optimized transform of the blue and red planes against `line`.

    ``as_written`` scores |slope*blue - red| + intercept/sqrt(1 + slope^2).
    ``point_line_distance`` scores |slope*blue - red + intercept| /
    sqrt(1 + slope^2), the textbook distance from the pixel to the line.
    The map is computed, and `out` taken, as in :func:`ndwi`.
    """
    if mode not in HOT_MODES:
        raise ConfigError(f"unknown HOT mode {mode!r}; expected one of {HOT_MODES}")
    norm = math.sqrt(1.0 + line.slope * line.slope)

    def kernel(blue, red, scores, pixels):
        np.multiply(blue, line.slope, out=scores, dtype=np.float64)
        scores -= red
        if mode == "as_written":
            np.abs(scores, out=scores)
            scores += line.intercept / norm
        else:
            scores += line.intercept
            np.abs(scores, out=scores)
            scores /= norm

    return ScoreMap(data=_band_pair_map(cube, ("blue", "red"), kernel, out), score_kind="HOT")


def _check_otsu_bins(bins: int) -> None:
    if bins < 2:
        raise ConfigError("otsu_bins must be >= 2")


def otsu_threshold(scores: ScoreMap, bins: int = 256) -> OtsuResult:
    """Histogram threshold maximizing inter-class variance.

    Builds `bins` equal-width bins over the observed score range and returns
    the lower edge of the best split bin; ties pick the lowest edge. Class
    means use the actual score values falling in each bin, so the result
    matches an exhaustive search over all bin edges. A constant input is
    degenerate: the threshold is that value.
    """
    _check_otsu_bins(bins)
    values = scores.data.ravel()
    lo, hi = scores.value_range
    if lo == hi:
        return OtsuResult(threshold=lo, inter_class_variance=0.0, histogram_bins=bins, degenerate=True)

    edges = np.linspace(lo, hi, bins + 1)
    counts, sums = _otsu_bins(values, edges, lo, hi)
    counts = counts.astype(np.float64)

    n_total = float(values.size)
    sum_total = float(values.sum())
    n0 = np.cumsum(counts)[:-1]          # class sizes left of edges 1..bins-1
    s0 = np.cumsum(sums)[:-1]
    n1 = n_total - n0
    s1 = sum_total - s0
    valid = (n0 > 0) & (n1 > 0)
    mean0 = np.divide(s0, n0, out=np.zeros_like(s0), where=valid)
    mean1 = np.divide(s1, n1, out=np.zeros_like(s1), where=valid)
    variance = np.where(valid, (n0 * n1) / (n_total * n_total) * (mean0 - mean1) ** 2, 0.0)

    best = int(np.argmax(variance))      # first maximum: lowest edge wins ties
    return OtsuResult(
        threshold=float(edges[best + 1]),
        inter_class_variance=float(variance[best]),
        histogram_bins=bins,
        degenerate=False,
    )


def _otsu_bins(values: np.ndarray, edges: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Each bin's count and sum of `values`, binned by :func:`_otsu_chunk_bins`.

    Values are binned ``_CHUNK`` at a time into reused buffers, so no
    per-value index of the whole map is kept. Each chunk is counted, which
    integer counts allow exactly under any split, and added into the sums
    value by value with ``np.add.at``: each bin's sum adds its values in
    pixel order, as one weighted ``np.bincount`` of the whole map would.
    """
    bins = edges.size - 1
    counts = np.zeros(bins, dtype=np.intp)
    sums = np.zeros(bins, dtype=np.float64)
    buffers = _otsu_buffers(min(_CHUNK, values.size))
    for start in range(0, values.size, _CHUNK):
        v = values[start : start + _CHUNK]
        idx = _otsu_chunk_bins(v, edges, lo, hi, buffers)
        counts += np.bincount(idx, minlength=bins)
        np.add.at(sums, idx, v)
    return counts, sums


def _otsu_buffers(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Buffers for :func:`_otsu_chunk_bins` of up to `size` values: bins, two fractions, flags."""
    return np.empty(size, dtype=np.intp), np.empty(size), np.empty(size), np.empty(size, dtype=bool)


def _otsu_chunk_bins(v: np.ndarray, edges: np.ndarray, lo: float, hi: float, buffers=None) -> np.ndarray:
    """Bin of each value of `v`, the last edge at or below it with the top bin closed.

    The bins equal ``searchsorted(edges, v, side="right") - 1`` clipped
    to ``[0, bins - 1]``. ``edges[j]`` is ``j * width + lo`` rounded twice, as
    ``np.linspace`` builds it, and a value's bin fraction is
    ``t = (v - lo) / width``, also rounded twice. With ``M = max(|lo|, |hi|,
    tiny)``, each rounding errs by at most ``2**-53`` of ``M`` or of its
    result, subnormals included, so ``t`` and the edges together lie within
    ``5 * 2**-53 * M / width + 2**-53 * (bins + 1)`` bins of their exact
    places: under half of ``delta = 2**-49 * (M / width + bins)``.

    * Where ``t`` lies at least ``delta`` from every integer, ``v`` lies
      strictly between the same two edges as ``t``'s exact value, so
      ``floor(t)`` is its bin. A ``t`` at or past ``bins`` is within
      ``delta`` of ``bins``.
    * Where ``t`` lies within ``delta`` of an integer ``k``, ``v`` lies
      strictly between edges ``k - 1`` and ``k + 1``, so one comparison with
      ``edges[k]`` settles its bin.
    * A ``delta`` of 1/4 or more (a width under about ``2**-47 * M``) falls
      back to the binary search.

    The bins are written into the first of `buffers` (from
    :func:`_otsu_buffers`, at least ``v.size`` long; new ones by default),
    and a view of it is returned.
    """
    idx, t, k, near = (b[: v.size] for b in buffers or _otsu_buffers(v.size))
    bins = edges.size - 1
    width = (hi - lo) / bins
    delta = 2.0**-49 * (max(abs(lo), abs(hi), np.finfo(np.float64).tiny) / width + bins) if width else math.inf
    if not delta < 0.25:
        idx[...] = np.searchsorted(edges, v, side="right")
        idx -= 1
        return np.clip(idx, 0, bins - 1, out=idx)
    np.subtract(v, lo, out=t)
    t /= width
    np.copyto(idx, t, casting="unsafe")  # t >= 0, so truncation is floor
    np.rint(t, out=k)
    t -= k
    np.less(np.abs(t, out=t), delta, out=near)
    at = np.flatnonzero(near)
    if at.size:
        fixed = k[at].astype(np.intp)
        fixed -= v[at] < edges[fixed]
        idx[at] = np.clip(fixed, 0, bins - 1, out=fixed)
    return idx


def binarize(scores: ScoreMap, threshold: float, polarity: str = "above") -> BinaryMask:
    """Label pixels strictly beyond `threshold` as 1.

    ``above`` labels scores > threshold; ``below`` labels scores < threshold.
    The comparison is strict so a threshold sitting on a constant background
    never labels that background.
    """
    if polarity not in POLARITIES:
        raise ConfigError(f"unknown polarity {polarity!r}; expected one of {POLARITIES}")
    if polarity == "above":
        labels = scores.data > threshold
    else:
        labels = scores.data < threshold
    return BinaryMask(data=labels)


def band_threshold_label(scores: ScoreMap, low: float | None = None, high: float | None = None) -> BinaryMask:
    """Label pixels whose score lies within [low, high], bounds inclusive.

    A missing bound leaves that side unbounded; at least one bound is
    required.
    """
    if low is None and high is None:
        raise ConfigError("band threshold needs at least one of low/high")
    if low is not None and high is not None and low > high:
        raise ConfigError(f"low ({low}) exceeds high ({high})")
    labels = np.ones(scores.data.shape, dtype=bool)
    if low is not None:
        labels &= scores.data >= low
    if high is not None:
        labels &= scores.data <= high
    return BinaryMask(data=labels)
