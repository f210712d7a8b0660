"""Command-line surface for batch use and reproduction scripts.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; machine output goes to files or, with ``--json``, to stdout as a
single JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._version import __version__
from .cube import (
    BandMeta,
    RasterCube,
    load_cube,
    load_mask,
    load_score_map,
    load_spectral_library,
    save_cube,
    save_mask,
    save_score_map,
)
from .detectors import compute_scene_stats, detect_map
from .errors import ConfigError, SpecScanError
from .evaluation import (
    bench_detector,
    compare_paths,
    error_report_to_dict,
    metrics_to_dict,
    render_bench_table,
    render_error_report,
    render_metrics_table,
    seg_metrics,
)
from .labeling import band_threshold_label, binarize, fit_clear_sky_line, hot, ndwi
from .pipeline import (
    APPLICATIONS,
    Application,
    PipelineConfig,
    _otsu_mask,
    build_summary,
    emit_summary,
    run_pipeline,
    summary_to_bytes,
)
from .preprocess import StretchParams, stretch_cube

_HOT_MODE_FLAGS = {"as-written": "as_written", "point-line": "point_line_distance"}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(args, payload: dict, text: str | None = None) -> None:
    """Print `payload` as JSON under --json, else the optional text rendering."""
    if getattr(args, "json", False):
        print(json.dumps(payload))
    elif text is not None:
        print(text)


def _stretch_params(args) -> StretchParams:
    return StretchParams(
        v_min=args.v_min,
        v_max=args.v_max,
        q_low_fraction=args.q_low,
        q_high_fraction=args.q_high,
    )


def _add_stretch_flags(parser) -> None:
    parser.add_argument("--v-min", type=float, default=0.0, help="stretched range lower bound")
    parser.add_argument("--v-max", type=float, default=1.0, help="stretched range upper bound")
    parser.add_argument("--q-low", type=float, default=0.01, help="low quantile fraction")
    parser.add_argument("--q-high", type=float, default=0.99, help="high quantile fraction")


def _application(command: str) -> Application:
    """The application entry whose score ``specscan label|detect <command>`` computes."""
    return next(app for app in APPLICATIONS.values() if app.command == command)


def _write_score_outputs(scores, out_prefix: str, do_otsu: bool, bins: int, polarity: str) -> dict:
    """Write score map (header+payload) and, optionally, an Otsu mask."""
    score_header = Path(str(out_prefix) + ".json")
    save_score_map(scores, score_header)
    outputs = {"score": str(score_header), "payload": str(score_header.with_suffix(".raw"))}
    if do_otsu:
        otsu, mask = _otsu_mask(scores, bins, polarity)
        mask_path = Path(str(out_prefix) + "_mask.pgm")
        save_mask(mask, mask_path)
        outputs["mask"] = str(mask_path)
        outputs["threshold"] = otsu.threshold
        outputs["positive_count"] = mask.positive_count()
    return outputs


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_stretch(args) -> int:
    cube = load_cube(args.cube)
    params = _stretch_params(args)
    stretched = stretch_cube(cube, params)
    save_cube(stretched, args.out)
    _emit(args, {"out": str(args.out), "width": cube.width, "height": cube.height, "bands": cube.bands})
    return 0


def _cmd_label_ndwi(args) -> int:
    cube = load_cube(args.cube)
    scores = ndwi(cube)
    outputs = _write_score_outputs(scores, args.out, args.otsu, args.bins, _application("ndwi").polarity)
    _emit(args, outputs)
    return 0


def _cmd_label_hot(args) -> int:
    cube = load_cube(args.cube)
    line = fit_clear_sky_line(cube)
    scores = hot(cube, line, mode=_HOT_MODE_FLAGS[args.mode])
    outputs = _write_score_outputs(scores, args.out, args.otsu, args.bins, _application("hot").polarity)
    outputs["clear_sky_line"] = asdict(line)
    _emit(args, outputs)
    return 0


def _parse_band(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _cmd_label_threshold(args) -> int:
    if args.low is None and args.high is None:
        args.parser.error("at least one of --low/--high is required")
    cube = load_cube(args.cube)
    mask = band_threshold_label(cube, _parse_band(args.band), low=args.low, high=args.high)
    mask_path = Path(str(args.out) + ".pgm") if not str(args.out).endswith(".pgm") else Path(args.out)
    save_mask(mask, mask_path)
    _emit(args, {"mask": str(mask_path), "positive_count": mask.positive_count()})
    return 0


def _cmd_stats(args) -> int:
    cube = load_cube(args.cube)
    payload = compute_scene_stats(cube).describe(bands=True, covariance=args.full)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        _emit(args, {"out": str(args.out)})
    else:
        print(json.dumps(payload))
    return 0


def _load_target(args, cube: RasterCube):
    targets = load_spectral_library(
        args.library, band_wavelengths=cube.wavelengths(), band_count=cube.bands
    )
    matches = [t for t in targets if t.label == args.target]
    if not matches:
        available = ", ".join(t.label for t in targets)
        raise ConfigError(f"target {args.target!r} not in library (have: {available})")
    return matches[0]


def _cmd_detect(args) -> int:
    app = _application(args.detector)
    if app.needs_target and not args.target:
        args.parser.error(f"detect {args.detector} requires --target")
    if app.needs_target and not args.library:
        args.parser.error(f"detect {args.detector} requires --library")
    cube = load_cube(args.cube)
    target = _load_target(args, cube) if app.needs_target else None
    scores = detect_map(cube, args.detector, target=target, precision=args.precision)
    outputs = _write_score_outputs(scores, args.out, args.otsu, args.bins, app.polarity)
    if scores.flags is not None:
        outputs["flagged_pixels"] = int(scores.flags.sum())
    _emit(args, outputs)
    return 0


def _cmd_binarize(args) -> int:
    scores = load_score_map(args.scores)
    mask = binarize(scores, args.threshold, polarity=args.polarity)
    save_mask(mask, args.out)
    _emit(args, {"mask": str(args.out), "positive_count": mask.positive_count()})
    return 0


def _cmd_eval(args) -> int:
    pred = load_mask(args.pred)
    truth = load_mask(args.truth)
    metrics = seg_metrics(pred, truth)
    payload = metrics_to_dict(metrics)
    payload["application"] = args.application
    if args.table and not args.json:
        print(render_metrics_table({args.application: metrics}))
    else:
        print(json.dumps(payload))
    return 0


def _cmd_compare_paths(args) -> int:
    map_a = load_score_map(args.a)
    map_b = load_score_map(args.b)
    report = compare_paths(map_a, map_b, bins=args.bins)
    payload = error_report_to_dict(report)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if args.json:
        print(json.dumps(payload))
    else:
        print(render_error_report(report))
    return 0


def _synthetic_bench_cube(width: int, height: int, bands: int, seed: int) -> RasterCube:
    rng = np.random.default_rng(seed)
    data = rng.random((bands, height, width), dtype=np.float32)
    roles = ["blue", "green", "red", "nir"]
    meta = [
        BandMeta(
            name=f"band_{i}",
            role=roles[i] if i < len(roles) and bands >= 4 else "other",
            wavelength_nm=400.0 + 500.0 * i / max(bands - 1, 1),
        )
        for i in range(bands)
    ]
    return RasterCube(data=data, band_meta=meta)


def _cmd_bench(args) -> int:
    cube = _synthetic_bench_cube(args.width, args.height, args.bands, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    target = rng.random(args.bands)
    stats = compute_scene_stats(cube)
    records = []
    for detector in ("sam", "mf", "rx"):
        records.append(
            bench_detector(
                cube,
                detector,
                target=target if detector in ("sam", "mf") else None,
                stats=stats if detector in ("mf", "rx") else None,
                precision=args.precision,
                repetitions=args.repetitions,
                application=args.application,
            )
        )
    payload = [asdict(r) for r in records]
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    if args.json:
        print(json.dumps(payload))
    else:
        print(render_bench_table(records))
    return 0


def _pipeline_config(args, cube: RasterCube, scene_id: str) -> PipelineConfig:
    target = None
    if APPLICATIONS[args.application].needs_target and args.library and args.target:
        target = _load_target(args, cube)
    stretch = None if args.no_stretch else _stretch_params(args)
    return PipelineConfig(
        application=args.application,
        scene_id=scene_id,
        stretch=stretch,
        otsu_bins=args.otsu_bins,
        hot_mode=_HOT_MODE_FLAGS[args.hot_mode],
        fixed_threshold=args.threshold,
        target=target,
        thermal_band=_parse_band(args.band),
        thermal_low=args.low,
        thermal_high=args.high,
        precision=args.precision,
        max_boxes=args.max_boxes,
        output_dir=None,
    )


def _cmd_pipeline_run(args) -> int:
    if args.scene_id and len(args.cube) > 1:
        args.parser.error("--scene-id only applies to a single --cube")
    if len(args.cube) > 1:
        shared = sorted(stem for stem, n in Counter(Path(p).stem for p in args.cube).items() if n > 1)
        if shared:
            args.parser.error(
                f"--cube files share the stem {', '.join(shared)}: each scene needs its own output directory"
            )
    out_root = Path(args.out)

    def run_one(cube_path: str) -> dict:
        cube = load_cube(cube_path)
        scene_id = args.scene_id or Path(cube_path).stem
        config = _pipeline_config(args, cube, scene_id)
        config.output_dir = out_root / scene_id if len(args.cube) > 1 else out_root
        result = run_pipeline(cube, config)
        return {
            "scene_id": scene_id,
            "output_dir": str(config.output_dir),
            "positive_count": result.summary.positive_count,
            "positive_fraction": result.summary.positive_fraction,
            "threshold": result.summary.threshold,
            "summary_bytes": len(summary_to_bytes(result.summary)),
        }

    if args.jobs > 1 and len(args.cube) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_one, args.cube))
    else:
        results = [run_one(path) for path in args.cube]
    for item in results:
        _note(f"scene {item['scene_id']}: {item['positive_count']} positive pixels")
    _emit(args, {"scenes": results})
    return 0


def _cmd_summary(args) -> int:
    mask = load_mask(args.mask)
    message = build_summary(
        mask,
        application=args.application,
        scene_id=args.scene_id,
        threshold=args.threshold,
        algorithm=args.algorithm,
        max_boxes=args.max_boxes,
    )
    emit_summary(message, args.out)
    _emit(args, {"out": str(args.out), "bytes": len(summary_to_bytes(message))})
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(
        prog="specscan",
        description="Spectral scene analysis: stretching, labeling, detection, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    formatter = argparse.ArgumentDefaultsHelpFormatter
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text, **kwargs):
        p = sub.add_parser(name, help=help_text, formatter_class=formatter, **kwargs)
        p.set_defaults(func=func, parser=p)
        return p

    p = add("stretch", _cmd_stretch, "quantile-stretch every band of a cube")
    p.add_argument("--cube", required=True, help="input cube header (JSON)")
    p.add_argument("--out", required=True, help="output cube header path")
    _add_stretch_flags(p)
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    label = sub.add_parser("label", help="automated label generation", formatter_class=formatter)
    label.set_defaults(parser=label)
    label_sub = label.add_subparsers(dest="labeler", required=True, metavar="LABELER")

    def add_label(name, func, help_text):
        p = label_sub.add_parser(name, help=help_text, formatter_class=formatter)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--cube", required=True, help="input cube header (JSON)")
        return p

    p = add_label("ndwi", _cmd_label_ndwi, "water index from green/NIR bands")
    p.add_argument("--out", required=True, help="output prefix (<out>.json/.raw, <out>_mask.pgm)")
    p.add_argument("--otsu", action="store_true", help="also write an Otsu-thresholded mask")
    p.add_argument("--bins", type=int, default=256, help="Otsu histogram bins")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    p = add_label("hot", _cmd_label_hot, "haze transform against a fitted clear-sky line")
    p.add_argument("--out", required=True, help="output prefix (<out>.json/.raw, <out>_mask.pgm)")
    p.add_argument("--mode", choices=sorted(_HOT_MODE_FLAGS), default="as-written", help="HOT formula variant")
    p.add_argument("--otsu", action="store_true", help="also write an Otsu-thresholded mask")
    p.add_argument("--bins", type=int, default=256, help="Otsu histogram bins")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    p = add_label("threshold", _cmd_label_threshold, "label pixels inside a band-value window")
    p.add_argument("--band", required=True, help="band role (blue/green/red/nir) or index")
    p.add_argument("--low", type=float, default=None, help="lower bound (inclusive)")
    p.add_argument("--high", type=float, default=None, help="upper bound (inclusive)")
    p.add_argument("--out", required=True, help="output mask path (.pgm)")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    p = add("stats", _cmd_stats, "scene mean/covariance statistics")
    p.add_argument("--cube", required=True, help="input cube header (JSON)")
    p.add_argument("--out", default=None, help="write statistics JSON here instead of stdout")
    p.add_argument("--full", action="store_true", help="include the full covariance matrix")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    detect = sub.add_parser("detect", help="per-pixel spectral detector maps", formatter_class=formatter)
    detect.set_defaults(parser=detect)
    detect_sub = detect.add_subparsers(dest="detector", required=True, metavar="DETECTOR")
    for name, help_text in (
        ("sam", "spectral angle against a library target"),
        ("mf", "matched filter against a library target"),
        ("rx", "anomaly score against scene statistics"),
    ):
        p = detect_sub.add_parser(name, help=help_text, formatter_class=formatter)
        p.set_defaults(func=_cmd_detect, parser=p, detector=name)
        p.add_argument("--cube", required=True, help="input cube header (JSON)")
        p.add_argument("--library", default=None, help="spectral library CSV")
        p.add_argument("--target", default=None, help="target label within the library")
        p.add_argument("--out", required=True, help="output prefix (<out>.json/.raw, <out>_mask.pgm)")
        p.add_argument("--precision", choices=("single", "double"), default="single", help="kernel precision")
        p.add_argument("--otsu", action="store_true", help="also write an Otsu-thresholded mask")
        p.add_argument("--bins", type=int, default=256, help="Otsu histogram bins")
        p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    p = add("binarize", _cmd_binarize, "threshold a score map into a mask")
    p.add_argument("--scores", required=True, help="score map header (JSON)")
    p.add_argument("--threshold", type=float, required=True, help="decision threshold")
    p.add_argument("--polarity", choices=("above", "below"), default="above", help="which side becomes label 1")
    p.add_argument("--out", required=True, help="output mask path (.pgm)")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    p = add("eval", _cmd_eval, "segmentation metrics for a mask pair")
    p.add_argument("--pred", required=True, help="predicted mask (.pgm)")
    p.add_argument("--truth", required=True, help="reference mask (.pgm)")
    p.add_argument("--application", default="masks", help="label for reports")
    p.add_argument("--table", action="store_true", help="render a metrics table instead of JSON")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    p = add("compare-paths", _cmd_compare_paths, "elementwise error between two score maps")
    p.add_argument("--a", required=True, help="first score map header")
    p.add_argument("--b", required=True, help="second score map header")
    p.add_argument("--bins", type=int, default=32, help="error histogram bins")
    p.add_argument("--out", default=None, help="also write the report JSON here")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    p = add("bench", _cmd_bench, "time detector maps on a synthetic scene")
    p.add_argument("--width", type=int, default=128, help="synthetic scene width")
    p.add_argument("--height", type=int, default=128, help="synthetic scene height")
    p.add_argument("--bands", type=int, default=48, help="synthetic scene bands")
    p.add_argument("--repetitions", type=int, default=5, help="timed repetitions (after 1 warm-up)")
    p.add_argument("--seed", type=int, default=0, help="synthetic data seed")
    p.add_argument("--precision", choices=("single", "double"), default="single", help="kernel precision")
    p.add_argument("--application", default="synthetic", help="application label for the table")
    p.add_argument("--out", default=None, help="also write records JSON here")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    pipeline = sub.add_parser("pipeline", help="end-to-end scene runs", formatter_class=formatter)
    pipeline.set_defaults(parser=pipeline)
    pipeline_sub = pipeline.add_subparsers(dest="pipeline_command", required=True, metavar="ACTION")
    p = pipeline_sub.add_parser("run", help="scene -> mask + score map + summary", formatter_class=formatter)
    p.set_defaults(func=_cmd_pipeline_run, parser=p)
    p.add_argument("--cube", required=True, action="append", help="input cube header; repeat for multiple scenes")
    p.add_argument("--application", required=True, choices=APPLICATIONS, help="what to detect")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scene-id", default=None, help="scene identifier (default: cube file stem)")
    p.add_argument("--library", default=None, help="spectral library CSV (sam/mf applications)")
    p.add_argument("--target", default=None, help="target label within the library")
    p.add_argument("--no-stretch", action="store_true", help="skip the quantile stretch")
    _add_stretch_flags(p)
    p.add_argument("--otsu-bins", type=int, default=256, help="Otsu histogram bins")
    p.add_argument("--hot-mode", choices=sorted(_HOT_MODE_FLAGS), default="as-written", help="HOT formula variant")
    p.add_argument("--threshold", type=float, default=None, help="fixed threshold instead of Otsu")
    p.add_argument("--band", default="nir", help="band for the thermal application")
    p.add_argument("--low", type=float, default=None, help="thermal lower bound (inclusive)")
    p.add_argument("--high", type=float, default=None, help="thermal upper bound (inclusive)")
    p.add_argument("--precision", choices=("single", "double"), default="single", help="detector kernel precision")
    p.add_argument("--max-boxes", type=int, default=16, help="detection boxes kept in the summary")
    p.add_argument("--jobs", type=int, default=1, help="concurrent scenes")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    p = add("summary", _cmd_summary, "build a summary message from a mask")
    p.add_argument("--mask", required=True, help="input mask (.pgm)")
    p.add_argument("--scene-id", required=True, help="scene identifier")
    p.add_argument("--application", required=True, help="application name recorded in the summary")
    p.add_argument("--threshold", type=float, default=0.0, help="threshold recorded in the summary")
    p.add_argument("--algorithm", default="external", help="algorithm recorded in the summary")
    p.add_argument("--max-boxes", type=int, default=16, help="detection boxes kept")
    p.add_argument("--out", required=True, help="output summary path (.json)")
    p.add_argument("--json", action="store_true", help="print a JSON result to stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:  # nested parser.error from a subcommand
        return int(exc.code or 0)
    except ConfigError as exc:
        _note(f"specscan: error: {exc}")
        return 1
    except (SpecScanError, OSError) as exc:
        _note(f"specscan: data error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
