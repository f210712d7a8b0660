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


def _check_max_boxes(max_boxes: int) -> None:
    if not 1 <= max_boxes <= MAX_DETECTION_BOXES:
        raise ConfigError(f"max_boxes must be in [1, {MAX_DETECTION_BOXES}], got {max_boxes}")


def _check_finite(name: str, value: float | None) -> None:
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


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
        _check_max_boxes(self.max_boxes)
        if self.stretch is not None:
            self.stretch.check_float32()
        for name in ("fixed_threshold", "thermal_low", "thermal_high"):
            _check_finite(name, getattr(self, name))
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
        if not math.isfinite(self.threshold):
            raise DataError(f"threshold must be finite, got {self.threshold}")
        if len(self.detection_boxes) > MAX_DETECTION_BOXES:
            raise DataError(f"at most {MAX_DETECTION_BOXES} detection boxes allowed")
        self.detection_boxes = [tuple(int(v) for v in box) for box in self.detection_boxes]
        for x, y, w, h in self.detection_boxes:
            if x < 0 or y < 0 or w < 1 or h < 1:
                raise DataError(f"invalid detection box ({x}, {y}, {w}, {h})")


def _find_roots(parent: np.ndarray) -> np.ndarray:
    """Each node's root, by pointer jumping; no pointer goes to a larger index."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def connected_boxes(mask: BinaryMask, max_boxes: int = MAX_DETECTION_BOXES) -> list[tuple[int, int, int, int]]:
    """Bounding boxes (x, y, w, h) of 4-connected label-1 components.

    Sorted by component pixel count descending (ties: top-most, then
    left-most box, then the component whose first pixel comes first in
    row-major order), truncated to `max_boxes`.

    Run-based labelling (He, Chao & Suzuki 2008): a component is a union of
    row runs, and runs in adjacent rows join where they overlap. The joins
    are merged by min-label hooking and pointer jumping (Shiloach & Vishkin
    1982), so each component ends up named by its first run.
    """
    if max_boxes < 1:
        raise ConfigError(f"max_boxes must be at least 1, got {max_boxes}")
    height, width = mask.data.shape
    stride = width + 1
    # Runs as row-major keys row * stride + column: along each zero-padded
    # row the value changes at a run's start and again one past its end.
    padded = np.zeros((height, width + 2), dtype=bool)
    padded[:, 1:-1] = mask.data
    changes = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    starts, stops = changes[0::2], changes[1::2]
    rows, run_lefts = np.divmod(starts, stride)
    # Runs lo .. hi - 1 of the row above overlap each run.
    lo = np.searchsorted(stops, starts - stride, side="right")
    hi = np.searchsorted(starts, stops - stride, side="left")
    # Hooking each run to the first run it overlaps above gives a forest
    # whose roots are the runs with nothing above them.
    parent = np.arange(starts.size)
    joined = hi > lo
    parent[joined] = lo[joined]
    root = _find_roots(parent)
    is_root = root == np.arange(root.size)
    tree = (np.cumsum(is_root) - 1)[root]
    # A run that overlaps several runs above also joins their trees.
    bridges = np.flatnonzero(hi - lo > 1)
    extra = hi[bridges] - lo[bridges] - 1
    below = np.repeat(bridges, extra)
    above = np.repeat(lo[bridges] + 1 - (np.cumsum(extra) - extra), extra) + np.arange(below.size)
    u, v = tree[above], tree[below]
    merged = np.arange(int(is_root.sum()))
    while True:
        apart = u != v
        if not apart.any():
            break
        u, v = u[apart], v[apart]
        # u and v are roots, so whichever write to a root lands is a valid merge.
        merged[np.maximum(u, v)] = np.minimum(u, v)
        merged = _find_roots(merged)
        u, v = merged[u], merged[v]
    is_first = merged == np.arange(merged.size)
    component = (np.cumsum(is_first) - 1)[merged][tree]
    count = int(is_first.sum())
    sizes = np.bincount(component, weights=stops - starts, minlength=count).astype(np.intp)
    tops = rows[np.flatnonzero(is_root)[is_first]]
    lefts = np.full(count, width)
    np.minimum.at(lefts, component, run_lefts)
    # Only components at least as large as the max_boxes-th largest can rank.
    ranked = np.arange(count)
    if max_boxes < count:
        ranked = np.flatnonzero(sizes >= np.partition(sizes, count - max_boxes)[count - max_boxes])
    ranked = ranked[np.lexsort((lefts[ranked], tops[ranked], -sizes[ranked]))][:max_boxes]
    # Right and bottom edges only for the boxes kept.
    slot = np.full(count, -1)
    slot[ranked] = np.arange(ranked.size)
    in_ranked = np.flatnonzero(slot[component] >= 0)
    owner = slot[component[in_ranked]]
    rights = np.zeros(ranked.size, dtype=np.intp)
    bottoms = np.zeros(ranked.size, dtype=np.intp)
    np.maximum.at(rights, owner, (run_lefts + stops - starts)[in_ranked])
    np.maximum.at(bottoms, owner, rows[in_ranked])
    return [
        (int(lefts[c]), int(tops[c]), int(right - lefts[c]), int(bottom - tops[c] + 1))
        for c, right, bottom in zip(ranked, rights, bottoms)
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
    _check_max_boxes(max_boxes)
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
        FormatError: the file is not JSON, its keys are not exactly the
            summary's fields, or its values break a summary invariant.
    """
    try:
        return SummaryMessage(**json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, TypeError, DataError) as exc:
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
