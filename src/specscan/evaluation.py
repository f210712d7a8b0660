"""Segmentation metrics, dual-path error analysis, and the benchmark harness."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .cube import BinaryMask, RasterCube, ScoreMap, TargetSpectrum
from .detectors import (
    DETECTORS,
    STATS_DETECTORS,
    TARGET_DETECTORS,
    SceneStats,
    compute_scene_stats,
    detect_map,
)
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class SegMetrics:
    """Pixelwise confusion counts and derived scores for a binary mask pair.

    Positive refers to label 1 and negative to label 0. When a class is
    absent from both masks its IoU is 1 (perfect agreement on the 0/0 case).
    """

    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    positive_iou: float
    negative_iou: float

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise DataError("confusion counts must be nonnegative")
        for value in (self.accuracy, self.positive_iou, self.negative_iou):
            if not 0.0 <= value <= 1.0:
                raise DataError("derived metrics must lie in [0, 1]")


def seg_metrics(pred: BinaryMask, truth: BinaryMask) -> SegMetrics:
    """Accuracy and per-class IoU of `pred` against `truth`."""
    if (pred.height, pred.width) != (truth.height, truth.width):
        raise DataError(
            f"mask dimensions disagree: {pred.width}x{pred.height} vs {truth.width}x{truth.height}"
        )
    p = pred.data.astype(bool)
    t = truth.data.astype(bool)
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    tn = int(np.count_nonzero(~p & ~t))
    total = tp + fp + fn + tn
    pos_union = tp + fp + fn
    neg_union = tn + fn + fp
    return SegMetrics(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        accuracy=(tp + tn) / total,
        positive_iou=tp / pos_union if pos_union else 1.0,
        negative_iou=tn / neg_union if neg_union else 1.0,
    )


def render_metrics_table(metrics_by_application: dict[str, SegMetrics]) -> str:
    """Plain-text metrics table: one application per column, one metric per row."""
    applications = list(metrics_by_application)
    rows = [
        ("Accuracy", lambda m: m.accuracy),
        ("Positive IoU", lambda m: m.positive_iou),
        ("Negative IoU", lambda m: m.negative_iou),
    ]
    table = [["Application", *applications]]
    for label, getter in rows:
        table.append([label, *(f"{getter(metrics_by_application[a]):.4f}" for a in applications)])
    return _render_columns(table)


def _render_columns(table: list[list[str]]) -> str:
    """Rows of cells, each column left-aligned to its widest cell, two spaces apart."""
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table)


# ---------------------------------------------------------------------------
# Dual-path error reports


@dataclass(frozen=True)
class ErrorReport:
    """Elementwise |a - b| statistics between two score maps."""

    mean_abs_error: float
    max_abs_error: float
    histogram_edges: NDArray[np.float64]
    histogram_counts: NDArray[np.int64]
    n: int

    def __post_init__(self):
        if self.mean_abs_error > self.max_abs_error:
            raise DataError("mean absolute error cannot exceed the max")
        if int(np.sum(self.histogram_counts)) != self.n:
            raise DataError("histogram counts must sum to the sample count")


def _check_histogram_bins(bins: int) -> None:
    if bins < 1:
        raise ConfigError(f"histogram needs at least 1 bin, got {bins}")


def compare_paths(scores_a: ScoreMap, scores_b: ScoreMap, bins: int = 32) -> ErrorReport:
    """Absolute-difference statistics between two score maps of the same kind."""
    if scores_a.score_kind != scores_b.score_kind:
        raise DataError(
            f"score kinds disagree: {scores_a.score_kind} vs {scores_b.score_kind}"
        )
    if scores_a.data.shape != scores_b.data.shape:
        raise DataError(f"score shapes disagree: {scores_a.data.shape} vs {scores_b.data.shape}")
    _check_histogram_bins(bins)
    diff = np.abs(scores_a.data - scores_b.data).ravel()
    max_err = float(diff.max())
    if max_err == 0.0:
        edges = np.zeros(bins + 1)
        counts = np.zeros(bins, dtype=np.int64)
        counts[0] = diff.size
    else:
        counts, edges = np.histogram(diff, bins=bins, range=(0.0, max_err))
        counts = counts.astype(np.int64)
    return ErrorReport(
        mean_abs_error=float(diff.mean()),
        max_abs_error=max_err,
        histogram_edges=edges.astype(np.float64),
        histogram_counts=counts,
        n=int(diff.size),
    )


_BAR_WIDTH = 40  # characters in the longest bar of a rendered error report


def render_error_report(report: ErrorReport) -> str:
    """Text rendering of an error report with a bar-chart histogram."""
    lines = [
        f"n = {report.n}",
        f"mean |a-b| = {report.mean_abs_error:.3e}",
        f"max  |a-b| = {report.max_abs_error:.3e}",
    ]
    peak = max(int(report.histogram_counts.max()), 1)
    for i, count in enumerate(report.histogram_counts):
        lo = report.histogram_edges[i]
        hi = report.histogram_edges[i + 1]
        bar = "#" * int(round(_BAR_WIDTH * count / peak))
        lines.append(f"[{lo:.3e}, {hi:.3e}) {int(count):>8d} {bar}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Benchmark harness


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row: artifact size plus median single-input wall time."""

    name: str
    application: str
    model: str
    artifact_bytes: int
    single_input_seconds: float
    inputs_shape: str
    repetitions: int

    def __post_init__(self):
        _check_repetitions(self.repetitions)


def serialize_detector_params(
    detector: str,
    target: TargetSpectrum | NDArray[np.floating] | None = None,
    stats: SceneStats | None = None,
) -> bytes:
    """Deterministic byte serialization of a detector's parameters.

    Layout: one JSON header line naming the arrays and their shapes, then the
    arrays concatenated as raw little-endian float64.
    """
    detector = str(detector).lower()
    if detector not in DETECTORS:
        raise DataError(f"unknown detector {detector!r}")
    arrays: list[tuple[str, np.ndarray]] = []
    if detector in TARGET_DETECTORS:
        if target is None:
            raise DataError(f"{detector} serialization requires a target")
        values = target.values if isinstance(target, TargetSpectrum) else np.asarray(target)
        arrays.append(("target", np.asarray(values, dtype=np.float64)))
    if detector in STATS_DETECTORS:
        if stats is None:
            raise DataError(f"{detector} serialization requires statistics")
        arrays += [("mean", stats.mean), ("covariance", stats.covariance)]
    header = {
        "detector": detector,
        "dtype": "f64",
        "arrays": {name: list(arr.shape) for name, arr in arrays},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    for _, arr in arrays:
        blob += np.ascontiguousarray(arr).astype("<f8", copy=False).tobytes()
    return blob


def _timed_median(fn: Callable[[], object], repetitions: int) -> float:
    fn()  # warm-up, excluded
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def _check_repetitions(repetitions: int) -> None:
    if repetitions < 3:
        raise ConfigError(f"benchmarks need >= 3 repetitions, got {repetitions}")


def bench_detector(
    cube: RasterCube,
    detector: str,
    target: TargetSpectrum | NDArray[np.floating] | None = None,
    stats: SceneStats | None = None,
    precision: str = "single",
    repetitions: int = 5,
    application: str = "synthetic",
) -> BenchRecord:
    """Benchmark one detector's whole-map run on `cube`.

    Statistics and targets are treated as a prebuilt model: they are prepared
    before timing, sized via :func:`serialize_detector_params`, and the timed
    region covers exactly one full-scene detection. Wall time is the median
    over `repetitions` runs after one warm-up.
    """
    _check_repetitions(repetitions)
    detector = str(detector).lower()
    if detector in STATS_DETECTORS and stats is None:
        stats = compute_scene_stats(cube)
    artifact = serialize_detector_params(detector, target=target, stats=stats)
    seconds = _timed_median(
        lambda: detect_map(cube, detector, target=target, stats=stats, precision=precision),
        repetitions,
    )
    return BenchRecord(
        name=f"{application}/{detector}",
        application=application,
        model=detector.upper(),
        artifact_bytes=len(artifact),
        single_input_seconds=seconds,
        inputs_shape=f"{cube.width}x{cube.height}x{cube.bands}",
        repetitions=repetitions,
    )


def _format_bytes(count: int) -> str:
    if count < 1024:
        return f"{count} B"
    if count < 1024 * 1024:
        return f"{count / 1024:.1f} KB"
    return f"{count / (1024 * 1024):.1f} MB"


def render_bench_table(records: list[BenchRecord]) -> str:
    """Aligned table with columns Application, Model, Model Size, Execution Time (s)."""
    table = [["Application", "Model", "Model Size", "Execution Time (s)"]]
    previous_app = None
    for record in records:
        app = record.application if record.application != previous_app else ""
        previous_app = record.application
        table.append(
            [app, record.model, _format_bytes(record.artifact_bytes), f"{record.single_input_seconds:.4f}"]
        )
    return _render_columns(table)
