"""Scalar fields of records and summaries: one integer rule and one number rule.

Every `int` field of a record takes integers, numpy's included, and refuses
bools, floats and strings with a typed error. A summary.json generated from
a valid one, with one or two fields replaced, either reads back to equal
values or is a FormatError, and which of the two agrees with the independent
reading of README "Summary message" in `oracles.summary_is_valid`.
"""

import json
import random
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from specscan import (
    BandMeta,
    BenchRecord,
    BinaryMask,
    FormatError,
    PipelineConfig,
    RasterCube,
    SceneStats,
    SpecScanError,
    SummaryMessage,
    connected_boxes,
    parse_summary,
    run_pipeline,
)
from specscan.pipeline import summary_to_bytes
from conftest import random_cube
from oracles import summary_is_valid

_SUMMARY = dict(
    scene_id="s1",
    application="clouds",
    pixel_count=100,
    positive_count=25,
    positive_fraction=0.25,
    threshold=0.5,
    detection_boxes=[[0, 0, 5, 5], [7, 1, 1, 3]],
    produced_at="2026-01-01T00:00:00+00:00",
    algorithm="hot[as_written]+otsu",
    version="0.1.0",
)

# One valid build of each record that has `int` fields.
_RECORDS = {
    PipelineConfig: dict(application="surface_water"),
    SummaryMessage: _SUMMARY,
    SceneStats: dict(mean=np.zeros(2), covariance=np.eye(2), factor_lower=np.eye(2), ridge=0.0, pixel_count=5),
    BenchRecord: dict(
        name="a/rx", application="a", model="RX", artifact_bytes=10, single_input_seconds=0.1,
        inputs_shape="4x4x3", repetitions=3,
    ),
}


@pytest.mark.parametrize("record", list(_RECORDS), ids=lambda record: record.__name__)
def test_every_int_field_takes_integers_only(record):
    # The fields come from the annotations, so an int field added later is checked too.
    valid = _RECORDS[record]
    names = [f.name for f in fields(record) if f.type == "int"]
    assert names
    for name in names:
        value = getattr(record(**valid), name)
        for bad in (True, float(value), str(value)):
            with pytest.raises(SpecScanError, match=f"{name} {bad!r} must be an integer"):
                record(**{**valid, name: bad})
        assert getattr(record(**{**valid, name: np.int64(value)}), name) == value


def test_numpy_numbers_are_accepted():
    assert PipelineConfig(application="surface_water", fixed_threshold=np.float32(0.5)).fixed_threshold == 0.5
    assert BandMeta("b", wavelength_nm=np.float32(500.0)).wavelength_nm == 500.0
    assert RasterCube(data=np.zeros((1, 1, 2), dtype=np.float32), nodata=np.float32(-9999.0)).nodata == -9999.0
    # A box of numpy integers and a float32 threshold still encode.
    boxes = [tuple(np.int64(v) for v in box) for box in _SUMMARY["detection_boxes"]]
    numpy_fields = {"pixel_count": np.int64(100), "threshold": np.float32(0.5), "detection_boxes": boxes}
    assert json.loads(summary_to_bytes(SummaryMessage(**{**_SUMMARY, **numpy_fields}))) == _SUMMARY
    # More components than a uint8 holds.
    dots = np.zeros((40, 40), dtype=np.uint8)
    dots[::2, ::2] = 1
    assert connected_boxes(BinaryMask(dots), np.uint8(4)) == connected_boxes(BinaryMask(dots), 4)
    # A run takes numpy integers for its integer fields and numpy floats for its bounds.
    scene = random_cube(np.random.default_rng(0), height=32, width=32)
    plain = run_pipeline(scene, PipelineConfig(application="surface_water", otsu_bins=16, max_boxes=4)).summary
    numpy = run_pipeline(
        scene, PipelineConfig(application="surface_water", otsu_bins=np.int32(16), max_boxes=np.uint8(4))
    ).summary
    assert (numpy.threshold, numpy.detection_boxes) == (plain.threshold, plain.detection_boxes)
    window = PipelineConfig(application="thermal", stretch=None, thermal_low=np.float32(0.25), thermal_high=0.75)
    assert run_pipeline(scene, window).summary.threshold == 0.25


# JSON values, and raw tokens that only a hand-written file holds, that a
# generated summary puts in place of a field.
_POOL = [
    0, 1, -1, 25, 100, 2**63, 0.0, -0.0, 0.25, 0.5, 0.7, 25.0, 1e300, True, False, "", "1", "0.25", "s1", None, {},
    [], [0, 0, 1, 1], [[0, 0, 1, 1]], [[0, 0, 1]], [[0, 0, 1, "1"]], [[0.7, 0, 1, 1]], [[0, 0, True, 1]],
    [[-1, 0, 1, 1]], [[0, 0, 1, 1.0]], [[i, 0, 1, 1] for i in range(17)],
]
_RAW = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]
SEED, CASES = 29, 3000


def summary_cases(seed, count):
    """`count` summary.json texts: the valid summary with one or two fields replaced from the pools."""
    rng = random.Random(seed)
    for _ in range(count):
        payload, raw = dict(_SUMMARY), {}
        for key in rng.sample(list(_SUMMARY), rng.choice((1, 2))):
            pick = rng.randrange(len(_POOL) + len(_RAW))
            if pick < len(_POOL):
                payload[key] = _POOL[pick]
            else:
                payload[key] = placeholder = f"@raw-{key}@"
                raw[json.dumps(placeholder)] = _RAW[pick - len(_POOL)]
        text = json.dumps(payload)
        for placeholder, token in raw.items():
            text = text.replace(placeholder, token)
        yield text


def test_every_generated_summary_reads_back_or_is_a_format_error(tmp_path):
    path = tmp_path / "summary.json"
    outcomes = Counter()
    for text in summary_cases(SEED, CASES):
        path.write_text(text, encoding="utf-8")
        payload = json.loads(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                message = parse_summary(path)
            except FormatError:
                assert not summary_is_valid(payload), text
                outcomes["refused"] += 1
                continue
        assert summary_is_valid(payload), text
        assert json.loads(summary_to_bytes(message)) == payload, text
        outcomes["read"] += 1
    assert outcomes["read"] > 100 and outcomes["refused"] > 100, outcomes
