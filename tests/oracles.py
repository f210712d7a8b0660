"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written along a different route than the
library code: explicit sorts, explicit Gauss-Jordan inversion, explicit
loops, breadth-first flood fill. Slow and obvious on purpose.
"""

import math
import sys
from collections import deque

import numpy as np


def pixel_spectra(cube):
    """All pixel spectra of `cube` as an (N, bands) array, row-major pixel order."""
    return cube.data.reshape(cube.bands, -1).T


def valid_pixel_count(cube):
    """Pixels of `cube` its validity mask keeps: all of them without one."""
    if cube.validity is None:
        return cube.height * cube.width
    return int(np.count_nonzero(cube.validity))


def quantile_sorted(values, fraction):
    """Type-7 quantile via an explicit sort and linear interpolation."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    position = (n - 1) * fraction
    below = math.floor(position)
    above = min(below + 1, n - 1)
    weight = position - below
    return ordered[below] * (1.0 - weight) + ordered[above] * weight


def covariance_bruteforce(pixels):
    """Population mean/covariance via explicit loops over pixels and bands."""
    pixels = [list(map(float, p)) for p in pixels]
    n = len(pixels)
    bands = len(pixels[0])
    mean = [sum(p[j] for p in pixels) / n for j in range(bands)]
    cov = np.zeros((bands, bands))
    for p in pixels:
        dev = [p[j] - mean[j] for j in range(bands)]
        for i in range(bands):
            for j in range(bands):
                cov[i, j] += dev[i] * dev[j]
    return np.array(mean), cov / n


def gauss_jordan_inverse(matrix):
    """Explicit Gauss-Jordan inversion with partial pivoting."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    aug = np.concatenate([matrix.copy(), np.eye(n)], axis=1)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if aug[pivot, col] == 0.0:
            raise ValueError("singular matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def sam_arccos(x, y):
    """Spectral angle as the arccosine of the clipped cosine, from loop dot products.

    Loses digits near 0 and pi, where the cosine is flat; compare away from them.
    """
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    dot = sum(a * b for a, b in zip(x, y))
    norm_x = math.sqrt(sum(a * a for a in x))
    norm_y = math.sqrt(sum(b * b for b in y))
    return math.acos(max(-1.0, min(1.0, dot / (norm_x * norm_y))))


def mf_bruteforce(x, target, mean, cov_inverse):
    t_dev = np.asarray(target, dtype=np.float64) - mean
    x_dev = np.asarray(x, dtype=np.float64) - mean
    return float(t_dev @ cov_inverse @ x_dev) / float(t_dev @ cov_inverse @ t_dev)


def rx_bruteforce(x, mean, cov_inverse):
    dev = np.asarray(x, dtype=np.float64) - mean
    return float(dev @ cov_inverse @ dev)


def otsu_exhaustive(values, bins):
    """Try every internal bin edge; return (edge_index, threshold, variance).

    The equal-width edges over [min, max] are part of the documented
    histogram convention, so both routes share them; the class statistics
    here come from masking the raw values at each edge, not from histogram
    accumulation. Ties pick the lowest edge.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    edges = np.linspace(values.min(), values.max(), bins + 1)
    n = values.size
    best = (None, None, -1.0)
    for k in range(1, bins):
        low = values[values < edges[k]]
        high = values[values >= edges[k]]
        if low.size == 0 or high.size == 0:
            variance = 0.0
        else:
            weight = (low.size * high.size) / (n * n)
            variance = weight * (low.mean() - high.mean()) ** 2
        if variance > best[2]:
            best = (k, float(edges[k]), variance)
    return best


def clear_sky_fit(blue, red, valid=None, subset_fraction=0.0015, bin_count=20, per_bin=20):
    """Straightforward reimplementation of the clear-sky selection and fit.

    Pure-python selection (sorted with explicit tie-break keys), least
    squares via numpy's polyfit.
    """
    blue = [float(v) for v in np.asarray(blue).ravel()]
    red = [float(v) for v in np.asarray(red).ravel()]
    if valid is None:
        indices = list(range(len(blue)))
    else:
        indices = [i for i, ok in enumerate(np.asarray(valid).ravel()) if ok]
    count = max(2, int(subset_fraction * len(indices)))
    subset = sorted(indices, key=lambda i: (blue[i], i))[:count]
    low = min(blue[i] for i in subset)
    high = max(blue[i] for i in subset)
    if high == low:
        raise ValueError("vertical line")
    width = (high - low) / bin_count
    binned = {}
    for i in subset:
        b = min(int((blue[i] - low) / width), bin_count - 1)
        binned.setdefault(b, []).append(i)
    kept = []
    for b in sorted(binned):
        members = sorted(binned[b], key=lambda i: (-red[i], i))
        kept.extend(members[:per_bin])
    xs = np.array([blue[i] for i in kept])
    ys = np.array([red[i] for i in kept])
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    rms = float(np.sqrt(np.mean(residuals**2)))
    return float(slope), float(intercept), len(kept), rms


def flood_fill_boxes(mask):
    """BFS flood fill over 4-connected label-1 pixels.

    Returns [(pixel_count, (x, y, w, h)), ...] sorted by count descending,
    ties by top-most then left-most box.
    """
    mask = np.asarray(mask)
    height, width = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    results = []
    for start_y in range(height):
        for start_x in range(width):
            if not mask[start_y, start_x] or seen[start_y, start_x]:
                continue
            queue = deque([(start_y, start_x)])
            seen[start_y, start_x] = True
            count = 0
            min_x = max_x = start_x
            min_y = max_y = start_y
            while queue:
                y, x = queue.popleft()
                count += 1
                min_x, max_x = min(min_x, x), max(max_x, x)
                min_y, max_y = min(min_y, y), max(max_y, y)
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < height and 0 <= nx < width and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            results.append((count, (min_x, min_y, max_x - min_x + 1, max_y - min_y + 1)))
    results.sort(key=lambda item: (-item[0], item[1][1], item[1][0]))
    return results


def confusion_loop(pred, truth):
    """Per-pixel counting with a plain python loop."""
    tp = fp = fn = tn = 0
    for p, t in zip(np.asarray(pred).ravel().tolist(), np.asarray(truth).ravel().tolist()):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif not p and t:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


# ---------------------------------------------------------------------------
# Earlier formulas of the pixel kernels, kept as bit-identity references.


def quantiles_numpy(plane, validity=None, fractions=(0.01, 0.99)):
    """Type-7 quantiles from np.quantile over a float64 copy of the valid values."""
    plane = np.asarray(plane)
    values = plane[validity] if validity is not None else plane.ravel()
    q_low, q_high = np.quantile(values.astype(np.float64), list(fractions), method="linear")
    return float(q_low), float(q_high)


def clear_sky_line_argsort(blue, red, valid=None, subset_fraction=0.0015, bin_count=20, per_bin=20):
    """(slope, intercept, n_fit_points, rms) with the subset from a stable argsort of valid blue."""
    blue = np.asarray(blue, dtype=np.float64).ravel()
    red = np.asarray(red, dtype=np.float64).ravel()
    valid_idx = np.arange(blue.size) if valid is None else np.flatnonzero(np.asarray(valid).ravel())
    count = max(2, int(subset_fraction * valid_idx.size))
    subset = valid_idx[np.argsort(blue[valid_idx], kind="stable")[:count]]
    blue_sub = blue[subset]
    lo = float(blue_sub.min())
    hi = float(blue_sub.max())
    width = (hi - lo) / bin_count
    bins = np.clip(np.floor((blue_sub - lo) / width).astype(np.int64), 0, bin_count - 1)
    retained = []
    for b in range(bin_count):
        members = subset[bins == b]
        if members.size:
            retained.append(members[np.lexsort((members, -red[members]))[:per_bin]])
    points = np.concatenate(retained)
    x = blue[points]
    y = red[points]
    x_mean = x.mean()
    y_mean = y.mean()
    xc = x - x_mean
    slope = float(np.dot(xc, y - y_mean) / float(np.dot(xc, xc)))
    intercept = float(y_mean - slope * x_mean)
    residuals = y - (slope * x + intercept)
    return slope, intercept, int(points.size), float(np.sqrt(np.mean(residuals * residuals)))


def otsu_bins_searchsorted(values, edges):
    """Histogram bin of each value by binary search over the edges, top bin closed."""
    bins = len(edges) - 1
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, bins - 1)


def stretch_band_masks(plane, v_min, v_max, q_low, q_high):
    """Stretch with both endpoint masks applied after the clip."""
    p = np.asarray(plane, dtype=np.float64)
    if q_high == q_low:
        return np.full(p.shape, v_min, dtype=np.float64)
    scale = (v_max - v_min) / (q_high - q_low)
    out = v_min + scale * (p - q_low)
    np.clip(out, v_min, v_max, out=out)
    out[p <= q_low] = v_min
    out[p >= q_high] = v_max
    return out


def ndwi_where(green, nir):
    """(green - nir) / (green + nir) in float64; zero totals score 0."""
    green = np.asarray(green, dtype=np.float64)
    nir = np.asarray(nir, dtype=np.float64)
    total = green + nir
    zero = total == 0.0
    scores = np.where(zero, 0.0, (green - nir) / np.where(zero, 1.0, total))
    return np.clip(scores, -1.0, 1.0), zero


def hot_float64(blue, red, slope, intercept, mode):
    """HOT from float64 copies of the planes, one full-size temporary per operation."""
    blue = np.asarray(blue).astype(np.float64)
    red = np.asarray(red).astype(np.float64)
    norm = math.sqrt(1.0 + slope * slope)
    if mode == "as_written":
        return np.abs(slope * blue - red) + intercept / norm
    return np.abs(slope * blue - red + intercept) / norm


def sam_map_whole(cube, target, dtype):
    """SAM map of a cube from one (N, B) copy of all its spectra in `dtype`.

    Zero-norm pixels score pi. Returns the float64 angles clipped into
    [0, pi] and the zero-norm flags, both flat.
    """
    spectra = pixel_spectra(cube).astype(dtype)
    t = np.asarray(target, dtype=np.float64).astype(dtype)
    norm_t = np.linalg.norm(t)
    norms = np.sqrt(np.einsum("ij,ij->i", spectra, spectra))
    zero = norms == 0.0
    unit = spectra / np.where(zero, dtype(1.0), norms)[:, np.newaxis]
    v = t / norm_t
    diff = unit - v
    total = unit + v
    away = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    toward = np.sqrt(np.einsum("ij,ij->i", total, total))
    scores = 2.0 * np.arctan2(away, toward)
    scores[zero] = np.pi
    return np.clip(scores.astype(np.float64), 0.0, math.pi), zero


def mf_map_whole(cube, target, stats, dtype, tile):
    """Matched-filter map from one F-order (B, N) whitened copy of the scene and one product.

    Each `tile`-column block is centred and whitened by its own triangular
    solve into the copy; the scores are then a single vector-matrix product
    over all of it. Returns the float64 scores, flat.
    """
    from scipy.linalg import solve_triangular

    matrix = cube.data.reshape(cube.bands, -1)
    factor = stats.factor_lower.astype(dtype)
    mean = stats.mean.astype(dtype)
    whitened = np.empty(matrix.shape, dtype=dtype, order="F")
    for start in range(0, matrix.shape[1], tile):
        cols = slice(start, start + tile)
        whitened[:, cols] = solve_triangular(factor, matrix[:, cols] - mean[:, np.newaxis], lower=True)
    t_dev = (np.asarray(target, dtype=np.float64) - stats.mean).astype(dtype)
    whitened_t = solve_triangular(factor, t_dev, lower=True)
    return ((whitened_t @ whitened) / np.dot(whitened_t, whitened_t)).astype(np.float64)


def whitened_scores_solve_triangular(matrix, detector, target, stats, dtype, tile):
    """``mf`` or ``rx`` scores of a (B, N) matrix, each `tile`-column block whitened by ``solve_triangular``.

    Each block is centred in a new C-order array and solved by scipy's
    ``solve_triangular``, which copies it to Fortran order for LAPACK's
    ``trtrs``; ``rx`` sums the squares of each whitened column and ``mf``
    divides each block's product with the whitened target by the target's
    squared norm. Returns the float64 scores, flat.
    """
    from scipy.linalg import solve_triangular

    factor = stats.factor_lower.astype(dtype)
    mean = stats.mean.astype(dtype)
    if detector == "mf":
        t_dev = (np.asarray(target, dtype=np.float64) - stats.mean).astype(dtype)
        whitened_t = solve_triangular(factor, t_dev, lower=True)
    scores = np.empty(matrix.shape[1])
    for start in range(0, matrix.shape[1], tile):
        cols = slice(start, start + tile)
        whitened = solve_triangular(factor, matrix[:, cols] - mean[:, np.newaxis], lower=True)
        if detector == "rx":
            scores[cols] = np.einsum("ij,ij->j", whitened, whitened)
        else:
            scores[cols] = (whitened_t @ whitened) / np.dot(whitened_t, whitened_t)
    return scores


SUMMARY_KEYS = (
    "scene_id", "application", "pixel_count", "positive_count", "positive_fraction",
    "threshold", "detection_boxes", "produced_at", "algorithm", "version",
)


def summary_is_valid(payload):
    """Whether a decoded summary.json obeys README "Summary message", checked key by key."""
    def is_int(value):
        return type(value) is int

    def is_real(value):  # a number a double holds as a finite value
        return type(value) is float and math.isfinite(value) or is_int(value) and abs(value) <= sys.float_info.max

    if type(payload) is not dict or sorted(payload) != sorted(SUMMARY_KEYS):
        return False
    if not all(type(payload[key]) is str for key in ("scene_id", "application", "produced_at", "algorithm", "version")):
        return False
    pixels, positive, fraction = payload["pixel_count"], payload["positive_count"], payload["positive_fraction"]
    if not (is_int(pixels) and is_int(positive) and 0 <= positive <= pixels):
        return False
    if not (is_real(fraction) and is_real(payload["threshold"])):
        return False
    if abs(fraction - (positive / pixels if pixels else 0.0)) > 1e-12:
        return False
    boxes = payload["detection_boxes"]
    if type(boxes) is not list or len(boxes) > 16:
        return False
    for box in boxes:
        if type(box) is not list or len(box) != 4 or not all(is_int(v) for v in box):
            return False
        x, y, w, h = box
        if x < 0 or y < 0 or w < 1 or h < 1:
            return False
    return True
