"""Output checks behind ``failed_frac``, run after each operation outside the timed region.

Imported only after ``src`` is on ``sys.path``; it binds the specscan readers
at import, before any tracer rebinds them, so checks record no spans.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from scipy import ndimage

from specscan.cube import load_mask, load_score_map
from specscan.pipeline import SUMMARY_MAX_BYTES, parse_summary

OUTPUT_FILES = ("score.json", "score.raw", "mask.pgm", "summary.json", "report.json")


def output_digest(out_dir: Path) -> str:
    """Digest of mask, score payload and summary with ``produced_at`` removed."""
    summary = json.loads((out_dir / "summary.json").read_bytes())
    summary.pop("produced_at", None)
    h = hashlib.sha256()
    for part in (
        (out_dir / "mask.pgm").read_bytes(),
        (out_dir / "score.raw").read_bytes(),
        json.dumps(summary, sort_keys=True).encode(),
    ):
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def check_scene(out_dir: Path, scene: dict) -> dict:
    """Read one scene's outputs back and check them against each other and the scene.

    Returns ``problems`` (empty when the outputs pass) plus the digest and
    the counts the benchmark reports.
    """
    height, width, border = scene["height"], scene["width"], scene["border"]
    result = {"problems": []}
    problems = result["problems"]
    try:
        mask = load_mask(out_dir / "mask.pgm")
        scores = load_score_map(out_dir / "score.json")
        summary = parse_summary(out_dir / "summary.json")
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        result["digest"] = output_digest(out_dir)
    except Exception as exc:  # any unreadable output is a failed operation
        problems.append(f"unreadable outputs: {exc!r}")
        return result
    if mask.data.shape != (height, width) or scores.data.shape != (height, width):
        problems.append("output shape differs from the scene")
    positives = mask.positive_count()
    if summary.positive_count != positives:
        problems.append(f"summary positive_count {summary.positive_count} != mask count {positives}")
    if summary.pixel_count != height * width:
        problems.append(f"summary pixel_count {summary.pixel_count} != {height * width}")
    for x, y, w, h in summary.detection_boxes:
        if x < 0 or y < 0 or x + w > width or y + h > height:
            problems.append(f"box {(x, y, w, h)} outside the image")
    summary_bytes = (out_dir / "summary.json").stat().st_size
    if summary_bytes > SUMMARY_MAX_BYTES:
        problems.append(f"summary is {summary_bytes} bytes")
    interior = mask.data[border : height - border, border : width - border]
    result.update(
        stages={s["name"]: s["seconds"] for s in report["stages"]},
        nodata_positive_px=positives - int(interior.sum()),
        components=int(ndimage.label(mask.data)[1]),
        bytes_written=sum((out_dir / name).stat().st_size for name in OUTPUT_FILES),
    )
    return result
