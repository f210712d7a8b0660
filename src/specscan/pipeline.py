"""End-to-end scene processing: scene in, mask + score map + summary out.

A pipeline run stretches the scene, produces one continuous product (water
index, haze transform, detector map, or raw band), thresholds it (Otsu or a
fixed/banded threshold), extracts detection boxes from the mask, and emits a
compact JSON summary suitable for a low-bandwidth link, alongside a full run
report. Identical inputs yield bit-identical masks and summaries (timestamp
aside).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import ndimage

from ._version import __version__
from .cube import (
    BinaryMask,
    RasterCube,
    ScoreMap,
    TargetSpectrum,
    save_mask,
    save_score_map,
)
from .detectors import (
    POLARITY,
    PRECISIONS,
    STATS_DETECTORS,
    TARGET_DETECTORS,
    compute_scene_stats,
    detect_map,
)
from .errors import ConfigError, DataError, FormatError, SpecScanError, StageError
from .labeling import (
    HOT_MODES,
    band_threshold_label,
    binarize,
    fit_clear_sky_line,
    hot,
    ndwi,
    otsu_threshold,
)
from .preprocess import StretchParams, stretch_cube

SUMMARY_MAX_BYTES = 2048
MAX_DETECTION_BOXES = 16


@dataclass(frozen=True)
class Application:
    """How one application turns a scene into a mask.

    ``score(scene, config, diagnostics)`` returns the score map and the
    algorithm name recorded in the summary; it may add entries to the run
    report's diagnostics. :meth:`label` thresholds that map. ``command``
    names the ``specscan label`` or ``specscan detect`` subcommand that
    computes the same score.
    """

    score: Callable[[RasterCube, PipelineConfig, dict], tuple[ScoreMap, str]]
    command: str
    polarity: str = "above"
    band_window: bool = False
    stretch: bool = True
    needs_target: bool = False

    def label(self, scores: ScoreMap, config: PipelineConfig, diagnostics: dict) -> tuple[BinaryMask, float, str]:
        """The mask, its threshold and the suffix of the algorithm name.

        A band-window entry labels the scores (the ``thermal_band`` values)
        within ``[thermal_low, thermal_high]``; every other one labels the
        ``polarity`` side of ``fixed_threshold`` or, without one, of the Otsu
        threshold of `scores`.
        """
        if self.band_window:
            low, high = config.thermal_low, config.thermal_high
            mask = band_threshold_label(scores, low=low, high=high)
            diagnostics["band_threshold"] = {"band": config.thermal_band, "low": low, "high": high}
            return mask, low if low is not None else high, ""
        if config.fixed_threshold is not None:
            threshold, suffix = config.fixed_threshold, "+fixed"
        else:
            otsu = otsu_threshold(scores, bins=config.otsu_bins)
            diagnostics["otsu"] = asdict(otsu)
            threshold, suffix = otsu.threshold, "+otsu"
        return binarize(scores, threshold, polarity=self.polarity), threshold, suffix


def _score_haze(scene: RasterCube, config: PipelineConfig, diagnostics: dict) -> tuple[ScoreMap, str]:
    line = fit_clear_sky_line(scene)
    diagnostics["clear_sky_line"] = asdict(line)
    return hot(scene, line, mode=config.hot_mode), f"hot[{config.hot_mode}]"


def _score_water(scene: RasterCube, config: PipelineConfig, diagnostics: dict) -> tuple[ScoreMap, str]:
    return ndwi(scene), "ndwi"


def _score_band(scene: RasterCube, config: PipelineConfig, diagnostics: dict) -> tuple[ScoreMap, str]:
    plane = scene.plane(config.thermal_band).astype(np.float64)
    return ScoreMap(data=plane, score_kind="BandValue"), "band_threshold"


def _score_detector(
    detector: str, scene: RasterCube, config: PipelineConfig, diagnostics: dict
) -> tuple[ScoreMap, str]:
    stats = None
    if detector in STATS_DETECTORS:
        stats = compute_scene_stats(scene)
        diagnostics["scene_stats"] = stats.describe()
    scores = detect_map(scene, detector, target=config.target, stats=stats, precision=config.precision)
    return scores, detector


def _detector(name: str) -> Application:
    return Application(
        partial(_score_detector, name),
        command=name,
        polarity=POLARITY[name],
        needs_target=name in TARGET_DETECTORS,
    )


APPLICATIONS: dict[str, Application] = {
    # The clear-sky fit regresses over the darkest 0.15% of blue values; the
    # quantile clamp collapses the darkest 1% to v_min, which would make that
    # fit vertical on every scene. Cloud labeling therefore sees the original
    # bands.
    "clouds": Application(_score_haze, command="hot", stretch=False),
    "surface_water": Application(_score_water, command="ndwi"),
    "thermal": Application(_score_band, command="threshold", band_window=True),
    "vegetation_sam": _detector("sam"),
    "vegetation_mf": _detector("mf"),
    "vegetation_rx": _detector("rx"),
    "mineral_sam": _detector("sam"),
    "mineral_mf": _detector("mf"),
    "mineral_rx": _detector("rx"),
}


@dataclass
class PipelineConfig:
    """Everything one pipeline run needs besides the scene itself."""

    application: str
    scene_id: str = "scene"
    stretch: StretchParams | None = field(default_factory=StretchParams)
    otsu_bins: int = 256
    hot_mode: str = "as_written"
    fixed_threshold: float | None = None
    target: TargetSpectrum | None = None
    thermal_band: int | str = "nir"
    thermal_low: float | None = None
    thermal_high: float | None = None
    precision: str = "single"
    max_boxes: int = MAX_DETECTION_BOXES
    output_dir: str | Path | None = None

    def validate(self) -> None:
        app = APPLICATIONS.get(self.application)
        if app is None:
            raise ConfigError(
                f"unknown application {self.application!r}; expected one of {tuple(APPLICATIONS)}"
            )
        if self.hot_mode not in HOT_MODES:
            raise ConfigError(f"unknown HOT mode {self.hot_mode!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"unknown precision {self.precision!r}")
        if self.otsu_bins < 2:
            raise ConfigError("otsu_bins must be >= 2")
        if not 1 <= self.max_boxes <= MAX_DETECTION_BOXES:
            raise ConfigError(f"max_boxes must be in [1, {MAX_DETECTION_BOXES}]")
        if app.needs_target and self.target is None:
            raise ConfigError(
                f"application {self.application!r} requires a target spectrum (--library and --target)"
            )
        if app.band_window:
            if self.thermal_low is None and self.thermal_high is None:
                raise ConfigError(
                    f"application {self.application!r} requires at least one band threshold bound"
                )
            if self.fixed_threshold is not None:
                raise ConfigError(
                    f"application {self.application!r} labels a band window; fixed_threshold "
                    "(--threshold) does not apply, set thermal_low/thermal_high (--low/--high)"
                )
        if (
            self.thermal_low is not None
            and self.thermal_high is not None
            and self.thermal_low > self.thermal_high
        ):
            raise ConfigError("thermal_low exceeds thermal_high")


@dataclass
class SummaryMessage:
    """Compact per-scene digest for a low-bandwidth link.

    Fields serialize in declaration order (see :func:`summary_to_bytes`).
    """

    scene_id: str
    application: str
    pixel_count: int
    positive_count: int
    positive_fraction: float
    threshold: float
    detection_boxes: list[tuple[int, int, int, int]]
    produced_at: str
    algorithm: str
    version: str

    def __post_init__(self):
        if self.positive_count > self.pixel_count:
            raise DataError("positive_count cannot exceed pixel_count")
        expected = self.positive_count / self.pixel_count if self.pixel_count else 0.0
        if not math.isclose(self.positive_fraction, expected, rel_tol=0.0, abs_tol=1e-12):
            raise DataError("positive_fraction must equal positive_count / pixel_count")
        if len(self.detection_boxes) > MAX_DETECTION_BOXES:
            raise DataError(f"at most {MAX_DETECTION_BOXES} detection boxes allowed")
        self.detection_boxes = [tuple(int(v) for v in box) for box in self.detection_boxes]
        for x, y, w, h in self.detection_boxes:
            if x < 0 or y < 0 or w < 1 or h < 1:
                raise DataError(f"invalid detection box ({x}, {y}, {w}, {h})")


def connected_boxes(mask: BinaryMask, max_boxes: int = MAX_DETECTION_BOXES) -> list[tuple[int, int, int, int]]:
    """Bounding boxes (x, y, w, h) of 4-connected label-1 components.

    Sorted by component pixel count descending (ties: top-most, then
    left-most box, then label order), truncated to `max_boxes`.
    """
    labeled, count = ndimage.label(mask.data)
    objects = ndimage.find_objects(labeled)
    sizes = np.bincount(labeled.ravel())[1:]
    tops = np.fromiter((rows.start for rows, _ in objects), dtype=np.intp, count=count)
    lefts = np.fromiter((cols.start for _, cols in objects), dtype=np.intp, count=count)
    ranked = np.lexsort((lefts, tops, -sizes))[:max_boxes]
    return [
        (cols.start, rows.start, cols.stop - cols.start, rows.stop - rows.start)
        for rows, cols in (objects[i] for i in ranked)
    ]


def build_summary(
    mask: BinaryMask,
    application: str,
    scene_id: str,
    threshold: float,
    algorithm: str,
    max_boxes: int = MAX_DETECTION_BOXES,
) -> SummaryMessage:
    """Summarize a mask: counts, threshold, and largest detection boxes."""
    pixel_count = mask.height * mask.width
    positive = mask.positive_count()
    return SummaryMessage(
        scene_id=scene_id,
        application=application,
        pixel_count=pixel_count,
        positive_count=positive,
        positive_fraction=positive / pixel_count,
        threshold=float(threshold),
        detection_boxes=connected_boxes(mask, max_boxes),
        produced_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        algorithm=algorithm,
        version=__version__,
    )


def summary_to_bytes(message: SummaryMessage) -> bytes:
    """Canonical UTF-8 JSON encoding with a fixed key order."""
    return json.dumps(asdict(message), separators=(",", ":")).encode("utf-8")


def emit_summary(message: SummaryMessage, path: str | Path) -> None:
    """Write the canonical summary JSON, enforcing the size cap.

    Raises:
        DataError: the encoded summary exceeds SUMMARY_MAX_BYTES; reduce
            max_boxes or shorten identifiers.
    """
    blob = summary_to_bytes(message)
    if len(blob) > SUMMARY_MAX_BYTES:
        raise DataError(
            f"summary is {len(blob)} bytes, cap is {SUMMARY_MAX_BYTES}; reduce max_boxes"
        )
    Path(path).write_bytes(blob)


def parse_summary(path: str | Path) -> SummaryMessage:
    """Read back a summary written by :func:`emit_summary`.

    Raises:
        FormatError: the file is not JSON, or its keys are not exactly the
            summary's fields.
    """
    try:
        return SummaryMessage(**json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, TypeError) as exc:
        raise FormatError(f"malformed summary {path}: {exc}") from exc


@dataclass
class PipelineResult:
    mask: BinaryMask
    scores: ScoreMap
    summary: SummaryMessage
    report: dict


def _json_default(value):
    """JSON hook for the run report: arrays become lists, paths strings."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@contextmanager
def _stage(stages: list[dict], name: str):
    """Append ``{"name", "seconds"}`` to `stages` when the block succeeds.

    A package or OS error in the block is re-raised as a StageError naming
    the stage; any other exception passes through untimed.
    """
    start = time.perf_counter()
    try:
        yield
    except (SpecScanError, OSError) as exc:
        raise StageError(name, str(exc)) from exc
    stages.append({"name": name, "seconds": time.perf_counter() - start})


def run_pipeline(cube: RasterCube, config: PipelineConfig) -> PipelineResult:
    """Run one scene through stretch, scoring, thresholding, and summary.

    When ``config.output_dir`` is set, writes ``score.json``/``score.raw``,
    ``mask.pgm``, ``summary.json``, and ``report.json`` into a ``.staging-*``
    directory inside it and renames them into place only once all five are
    written. A run that fails therefore leaves the directory as it was: empty
    or absent for a first run, the previous run's files for a re-run.
    """
    config.validate()
    app = APPLICATIONS[config.application]

    diagnostics: dict = {}
    stages: list[dict] = []
    stage = partial(_stage, stages)
    report: dict = {
        "scene_id": config.scene_id,
        "config": asdict(config),
        "diagnostics": diagnostics,
        "stages": stages,
    }

    with stage("stretch"):
        use_stretch = config.stretch is not None and app.stretch
        scene = stretch_cube(cube, config.stretch) if use_stretch else cube
        diagnostics["stretch_applied"] = use_stretch

    with stage("score"):
        scores, algorithm = app.score(scene, config, diagnostics)

    with stage("threshold"):
        mask, threshold, suffix = app.label(scores, config, diagnostics)
        algorithm += suffix

    with stage("summarize"):
        summary = build_summary(
            mask,
            application=config.application,
            scene_id=config.scene_id,
            threshold=float(threshold),
            algorithm=algorithm,
            max_boxes=config.max_boxes,
        )

    if config.output_dir is not None:
        out_dir = Path(config.output_dir)
        with stage("write"):
            out_dir.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=out_dir, prefix=".staging-") as staging:
                staging = Path(staging)
                save_score_map(scores, staging / "score.json")
                save_mask(mask, staging / "mask.pgm")
                emit_summary(summary, staging / "summary.json")
                report["outputs"] = {"score": "score.json", "mask": "mask.pgm", "summary": "summary.json"}
                report_text = json.dumps(report, indent=2, default=_json_default) + "\n"
                (staging / "report.json").write_text(report_text, encoding="utf-8")
                for path in sorted(staging.iterdir()):
                    os.replace(path, out_dir / path.name)

    return PipelineResult(mask=mask, scores=scores, summary=summary, report=report)
