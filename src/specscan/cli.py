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
from dataclasses import asdict, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from ._version import __version__
from .cube import (
    BandMeta,
    RasterCube,
    TargetSpectrum,
    _check_spares_input,
    _json_default,
    _write_json,
    load_cube,
    load_mask,
    load_score_map,
    load_spectral_library,
    save_cube,
    save_mask,
    save_score_map,
)
from .detectors import DETECTORS, PRECISIONS, compute_scene_stats
from .errors import ConfigError, SpecScanError, _check_int, _check_real
from .evaluation import (
    _MIN_REPETITIONS,
    bench_detector,
    compare_paths,
    render_bench_table,
    render_error_report,
    render_metrics_table,
    seg_metrics,
)
from .labeling import POLARITIES, binarize
from .pipeline import (
    APPLICATIONS,
    MAX_DETECTION_BOXES,
    _RUN_OUTPUTS,
    PipelineConfig,
    build_summary,
    emit_summary,
    run_pipeline,
    summary_to_bytes,
)
from .preprocess import StretchParams, stretch_cube

_HOT_MODE_FLAGS = {"as-written": "as_written", "point-line": "point_line_distance"}
_HOT_MODE_DEFAULT = next(flag for flag, mode in _HOT_MODE_FLAGS.items() if mode == PipelineConfig.hot_mode)
# Flags of the commands that build a config and set a field of another name.
_FIELD_OF_FLAG = {
    "band": "thermal_band", "low": "thermal_low", "high": "thermal_high", "threshold": "fixed_threshold",
    "bins": "otsu_bins", "mode": "hot_mode", "q_low": "q_low_fraction", "q_high": "q_high_fraction",
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(args, payload) -> None:
    """Print `payload` as JSON under --json."""
    if args.json:
        print(json.dumps(payload, default=_json_default))


def _from_flags(cls, args, **given):
    """A `cls` dataclass from the flags that set its fields, HOT modes translated, and `given` on top."""
    flags = {_FIELD_OF_FLAG.get(name, name): value for name, value in vars(args).items()}
    values = {f.name: flags[f.name] for f in fields(cls) if f.name in flags}
    if "hot_mode" in values:
        values["hot_mode"] = _HOT_MODE_FLAGS[values["hot_mode"]]
    return cls(**{**values, **given})


def _add_stretch_flags(parser) -> None:
    parser.add_argument("--v-min", type=float, default=StretchParams.v_min, help="stretched range lower bound")
    parser.add_argument("--v-max", type=float, default=StretchParams.v_max, help="stretched range upper bound")
    parser.add_argument("--q-low", type=float, default=StretchParams.q_low_fraction, help="low quantile fraction")
    parser.add_argument("--q-high", type=float, default=StretchParams.q_high_fraction, help="high quantile fraction")


def _add_score_flags(parser) -> None:
    parser.add_argument("--out", required=True, help="output prefix (<out>.json/.raw, <out>_mask.pgm)")
    parser.add_argument("--otsu", action="store_true", help="also write an Otsu-thresholded mask")
    parser.add_argument("--bins", type=int, default=PipelineConfig.otsu_bins, help="Otsu histogram bins")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_stretch(args) -> int:
    params = _from_flags(StretchParams, args)
    params.check_float32()
    out = Path(args.out)
    _check_spares_input(args.cube, [out, out.with_suffix(".raw")])
    cube = load_cube(args.cube)
    stretched = stretch_cube(cube, params, out=cube.data)  # one cube in memory, not two
    save_cube(stretched, out)
    _emit(args, {"out": str(out), "width": stretched.width, "height": stretched.height, "bands": stretched.bands})
    return 0


def _parse_band(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _cmd_stats(args) -> int:
    if args.out:
        _check_spares_input(args.cube, [Path(args.out)])
    cube = load_cube(args.cube)
    payload = compute_scene_stats(cube).describe(covariance=args.full)
    if args.out:
        _write_json(args.out, payload)
        _emit(args, {"out": str(args.out)})
    else:
        print(json.dumps(payload))
    return 0


def _target(args, app) -> TargetSpectrum | None:
    """The ``--target`` spectrum of ``--library`` when `app` needs one and both flags are set.

    The library is read once, on its own grid, which is enough to build, and
    so check, a config before any payload is read; ``Application.select`` fits the target
    onto each cube. Other targets of the library need not fit the cube.
    """
    if not (app.needs_target and args.library and args.target):
        return None
    targets = load_spectral_library(args.library)
    matches = [t for t in targets if t.label == args.target]
    if not matches:
        available = ", ".join(t.label for t in targets)
        raise ConfigError(f"target {args.target!r} not in library (have: {available})")
    return matches[0]


def _cmd_score(args) -> int:
    """``label ndwi|hot|threshold`` and ``detect sam|mf|rx``: the score and label steps of the matching application.

    ``label threshold`` writes the band window's mask alone.
    """
    name, app = next((name, entry) for name, entry in APPLICATIONS.items() if entry.command == args.score)
    config = _from_flags(PipelineConfig, args, application=name, target=_target(args, app))
    if app.band_window:
        mask_path = Path(args.out) if str(args.out).endswith(".pgm") else Path(f"{args.out}.pgm")
        _check_spares_input(args.cube, [mask_path])
    else:
        score_header, mask_path = Path(f"{args.out}.json"), Path(f"{args.out}_mask.pgm")
        _check_spares_input(args.cube, [score_header, score_header.with_suffix(".raw"), mask_path])
    scene, config = app.select(args.cube, config)
    diagnostics: dict = {}
    scores, _ = app.score(scene, config, diagnostics, out=scene.data)  # the scene was loaded here: spend it
    del scene
    if app.band_window:
        mask, _, _ = app.label(scores, config, diagnostics)
        save_mask(mask, mask_path)
        _emit(args, {"mask": str(mask_path), "positive_count": mask.positive_count()})
        return 0
    outputs = {"score": str(score_header), "payload": str(save_score_map(scores, score_header))}
    if args.otsu:
        mask, threshold, _ = app.label(scores, config, diagnostics)
        save_mask(mask, mask_path)
        outputs.update(mask=str(mask_path), threshold=threshold, positive_count=mask.positive_count())
    if "clear_sky_line" in diagnostics:
        outputs["clear_sky_line"] = diagnostics["clear_sky_line"]
    if scores.flags is not None:
        outputs["flagged_pixels"] = int(scores.flags.sum())
    _emit(args, outputs)
    return 0


def _cmd_binarize(args) -> int:
    _check_spares_input(args.scores, [Path(args.out)])
    scores = load_score_map(args.scores)
    mask = binarize(scores, args.threshold, polarity=args.polarity)
    save_mask(mask, args.out)
    _emit(args, {"mask": str(args.out), "positive_count": mask.positive_count()})
    return 0


def _cmd_eval(args) -> int:
    pred = load_mask(args.pred)
    truth = load_mask(args.truth)
    metrics = seg_metrics(pred, truth)
    if args.table and not args.json:
        print(render_metrics_table({args.application: metrics}))
    else:
        print(json.dumps({**asdict(metrics), "application": args.application}))
    return 0


def _cmd_compare_paths(args) -> int:
    _check_int("bins", args.bins, 1)
    if args.out:
        for header in (args.a, args.b):
            _check_spares_input(header, [Path(args.out)])
    map_a = load_score_map(args.a)
    map_b = load_score_map(args.b)
    report = compare_paths(map_a, map_b, bins=args.bins)
    payload = asdict(report)
    if args.out:
        _write_json(args.out, payload)
    _emit(args, payload)
    if not args.json:
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
    if min(args.width, args.height, args.bands) < 1:
        args.parser.error(f"--width, --height and --bands must be >= 1, got {args.width}x{args.height}x{args.bands}")
    _check_int("repetitions", args.repetitions, _MIN_REPETITIONS)
    cube = _synthetic_bench_cube(args.width, args.height, args.bands, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    target = rng.random(args.bands)
    stats = compute_scene_stats(cube)
    records = [
        bench_detector(
            cube,
            detector,
            target=target,
            stats=stats,
            precision=args.precision,
            repetitions=args.repetitions,
            application=args.application,
        )
        for detector in DETECTORS
    ]
    payload = [asdict(r) for r in records]
    if args.out:
        _write_json(args.out, payload)
    _emit(args, payload)
    if not args.json:
        print(render_bench_table(records))
    return 0


def _cmd_pipeline_run(args) -> int:
    if args.scene_id and len(args.cube) > 1:
        args.parser.error("--scene-id only applies to a single --cube")
    if args.jobs < 1:
        args.parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if len(args.cube) > 1:
        shared = sorted(stem for stem, n in Counter(Path(p).stem for p in args.cube).items() if n > 1)
        if shared:
            args.parser.error(
                f"--cube files share the stem {', '.join(shared)}: each scene needs its own output directory"
            )
    stretch = None if args.no_stretch else _from_flags(StretchParams, args)
    config = _from_flags(PipelineConfig, args, target=_target(args, APPLICATIONS[args.application]), stretch=stretch)
    out_root = Path(args.out)
    output_dirs = {path: out_root / Path(path).stem if len(args.cube) > 1 else out_root for path in args.cube}
    for cube_path, output_dir in output_dirs.items():
        _check_spares_input(cube_path, [output_dir / name for name in _RUN_OUTPUTS])

    def run_one(cube_path: str) -> dict:
        """One scene's result entry, or its error: a failed scene does not stop the batch."""
        scene_id = args.scene_id or Path(cube_path).stem
        output_dir = output_dirs[cube_path]
        item = {"scene_id": scene_id, "output_dir": str(output_dir)}
        try:
            # Given the path, the run loads only the bands it scores, stretches into them and frees them once scored.
            summary = run_pipeline(cube_path, replace(config, scene_id=scene_id, output_dir=output_dir)).summary
        except (SpecScanError, OSError) as exc:
            return {**item, "error": str(exc)}
        return {
            **item,
            "positive_count": summary.positive_count,
            "positive_fraction": summary.positive_fraction,
            "threshold": summary.threshold,
            "summary_bytes": len(summary_to_bytes(summary)),
        }

    # A single scene or --jobs 1 runs on the main thread: running one scene on a
    # worker thread raised peak RSS by 11% (fragmented) and 19% (wide4) in perfbench.
    if args.jobs > 1 and len(args.cube) > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here: only a batch needs it

        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_one, args.cube))
    else:
        results = [run_one(path) for path in args.cube]
    for item in results:
        if "error" in item:
            _note(f"specscan: data error: {item['error']}")
        else:
            _note(f"scene {item['scene_id']}: {item['positive_count']} positive pixels")
    _emit(args, {"scenes": results})
    return 2 if any("error" in item for item in results) else 0


def _cmd_summary(args) -> int:
    _check_int("max_boxes", args.max_boxes, 1, MAX_DETECTION_BOXES)
    _check_real("threshold", args.threshold)
    _check_spares_input(args.mask, [Path(args.out)])
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


@cache
def build_parser() -> _Parser:
    """The ``specscan`` parser, built once per process and shared by every :func:`main` call."""
    parser = _Parser(
        prog="specscan",
        description="Spectral scene analysis: stretching, labeling, detection, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    leaves = []

    def add(subparsers, name, help_text, func=None, cube=False):
        """A subcommand parser; one with `func` is a leaf that runs it."""
        p = subparsers.add_parser(name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if func is not None:
            p.set_defaults(func=func, parser=p)
            leaves.append(p)
        if cube:
            p.add_argument("--cube", required=True, help="input cube header (JSON)")
        return p

    p = add(sub, "stretch", "quantile-stretch every band of a cube", _cmd_stretch, cube=True)
    p.add_argument("--out", required=True, help="output cube header path")
    _add_stretch_flags(p)

    label_sub = add(sub, "label", "automated label generation").add_subparsers(
        dest="score", required=True, metavar="LABELER"
    )
    p = add(label_sub, "ndwi", "water index from green/NIR bands", _cmd_score, cube=True)
    _add_score_flags(p)

    p = add(label_sub, "hot", "haze transform against a fitted clear-sky line", _cmd_score, cube=True)
    p.add_argument("--mode", choices=sorted(_HOT_MODE_FLAGS), default=_HOT_MODE_DEFAULT, help="HOT formula variant")
    _add_score_flags(p)

    p = add(label_sub, "threshold", "label pixels inside a band-value window", _cmd_score, cube=True)
    p.add_argument("--band", type=_parse_band, required=True, help="band role (blue/green/red/nir) or index")
    p.add_argument("--low", type=float, help="lower bound (inclusive)")
    p.add_argument("--high", type=float, help="upper bound (inclusive)")
    p.add_argument("--out", required=True, help="output mask path (.pgm)")

    p = add(sub, "stats", "scene mean/covariance statistics", _cmd_stats, cube=True)
    p.add_argument("--out", default=None, help="write statistics JSON here instead of stdout")
    p.add_argument("--full", action="store_true", help="include the full covariance matrix")

    detect_sub = add(sub, "detect", "per-pixel spectral detector maps").add_subparsers(
        dest="score", required=True, metavar="DETECTOR"
    )
    for name, help_text in (
        ("sam", "spectral angle against a library target"),
        ("mf", "matched filter against a library target"),
        ("rx", "anomaly score against scene statistics"),
    ):
        p = add(detect_sub, name, help_text, _cmd_score, cube=True)
        p.add_argument("--library", default=None, help="spectral library CSV")
        p.add_argument("--target", default=None, help="target label within the library")
        p.add_argument("--precision", choices=PRECISIONS, default=PipelineConfig.precision, help="kernel precision")
        _add_score_flags(p)

    p = add(sub, "binarize", "threshold a score map into a mask", _cmd_binarize)
    p.add_argument("--scores", required=True, help="score map header (JSON)")
    p.add_argument("--threshold", type=float, required=True, help="decision threshold")
    p.add_argument("--polarity", choices=POLARITIES, default="above", help="which side becomes label 1")
    p.add_argument("--out", required=True, help="output mask path (.pgm)")

    p = add(sub, "eval", "segmentation metrics for a mask pair", _cmd_eval)
    p.add_argument("--pred", required=True, help="predicted mask (.pgm)")
    p.add_argument("--truth", required=True, help="reference mask (.pgm)")
    p.add_argument("--application", default="masks", help="label for reports")
    p.add_argument("--table", action="store_true", help="render a metrics table instead of JSON")

    p = add(sub, "compare-paths", "elementwise error between two score maps", _cmd_compare_paths)
    p.add_argument("--a", required=True, help="first score map header")
    p.add_argument("--b", required=True, help="second score map header")
    p.add_argument("--bins", type=int, default=32, help="error histogram bins")
    p.add_argument("--out", default=None, help="also write the report JSON here")

    p = add(sub, "bench", "time detector maps on a synthetic scene", _cmd_bench)
    p.add_argument("--width", type=int, default=128, help="synthetic scene width")
    p.add_argument("--height", type=int, default=128, help="synthetic scene height")
    p.add_argument("--bands", type=int, default=48, help="synthetic scene bands")
    p.add_argument("--repetitions", type=int, default=5, help="timed repetitions (after 1 warm-up)")
    p.add_argument("--seed", type=int, default=0, help="synthetic data seed")
    p.add_argument("--precision", choices=PRECISIONS, default=PipelineConfig.precision, help="kernel precision")
    p.add_argument("--application", default="synthetic", help="application label for the table")
    p.add_argument("--out", default=None, help="also write records JSON here")

    pipeline_sub = add(sub, "pipeline", "end-to-end scene runs").add_subparsers(
        dest="pipeline_command", required=True, metavar="ACTION"
    )
    p = add(pipeline_sub, "run", "scene -> mask + score map + summary", _cmd_pipeline_run)
    p.add_argument("--cube", required=True, action="append", help="input cube header; repeat for multiple scenes")
    p.add_argument("--application", required=True, choices=APPLICATIONS, help="what to detect")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--scene-id", default=None, help="scene identifier (default: cube file stem)")
    p.add_argument("--library", default=None, help="spectral library CSV (sam/mf applications)")
    p.add_argument("--target", default=None, help="target label within the library")
    p.add_argument("--no-stretch", action="store_true", help="skip the quantile stretch")
    _add_stretch_flags(p)
    p.add_argument("--otsu-bins", type=int, default=PipelineConfig.otsu_bins, help="Otsu histogram bins")
    p.add_argument("--hot-mode", choices=sorted(_HOT_MODE_FLAGS), default=_HOT_MODE_DEFAULT, help="HOT formula variant")
    p.add_argument("--threshold", type=float, help="fixed threshold instead of Otsu")
    p.add_argument(
        "--band", type=_parse_band, default=PipelineConfig.thermal_band, help="band for the thermal application"
    )
    p.add_argument("--low", type=float, help="thermal lower bound (inclusive)")
    p.add_argument("--high", type=float, help="thermal upper bound (inclusive)")
    p.add_argument(
        "--precision", choices=PRECISIONS, default=PipelineConfig.precision, help="detector kernel precision"
    )
    p.add_argument("--max-boxes", type=int, default=MAX_DETECTION_BOXES, help="detection boxes kept in the summary")
    p.add_argument("--jobs", type=int, default=1, help="concurrent scenes")

    p = add(sub, "summary", "build a summary message from a mask", _cmd_summary)
    p.add_argument("--mask", required=True, help="input mask (.pgm)")
    p.add_argument("--scene-id", required=True, help="scene identifier")
    p.add_argument("--application", required=True, help="application name recorded in the summary")
    p.add_argument("--threshold", type=float, default=0.0, help="threshold recorded in the summary")
    p.add_argument("--algorithm", default="external", help="algorithm recorded in the summary")
    p.add_argument("--max-boxes", type=int, default=MAX_DETECTION_BOXES, help="detection boxes kept")
    p.add_argument("--out", required=True, help="output summary path (.json)")

    for p in leaves:  # last, so --json ends every usage line
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
