"""Self-tests for the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import scenes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        check=True, capture_output=True, text=True, timeout=180,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace):
    result = _result(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["metrics"]["outputs_changed"]["value"] == 0


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    sys.path.insert(0, str(run.SRC))
    workload = WORKLOADS["fragmented"]
    manifest = run.generate_scenes(workload.name, 2, "tiny", tmp_path / "scenes")
    bench = run.Bench(workload, tmp_path / "scenes", manifest, tmp_path / "out", jobs=1)
    real_run_op = run.Bench.run_op

    def corrupting_run_op(self, k, jobs=None):
        seconds, error = real_run_op(self, k, jobs)
        if k == 1:  # flip every mask pixel of the second operation
            path = self.out_root / self.workload.operations[1][0] / "mask.pgm"
            blob = bytearray(path.read_bytes())
            header_end = len(blob) - manifest["scenes"][0]["height"] * manifest["scenes"][0]["width"]
            blob[header_end:] = bytes(255 - b for b in blob[header_end:])
            path.write_bytes(bytes(blob))
        return seconds, error

    monkeypatch.setattr(run.Bench, "run_op", corrupting_run_op)
    records = bench.loop(0.0)
    assert len(records) == len(workload.operations)
    failed = [r["k"] for r in records if not run.ok(r)]
    assert failed == [1]
    assert "positive_count" in records[1]["problems"][0]


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in WORKLOADS:
        first = scenes.generate(workload, 7, tmp_path / f"{workload}-a", "tiny")
        scenes.generate(workload, 7, tmp_path / f"{workload}-b", "tiny")
        scenes.generate(workload, 8, tmp_path / f"{workload}-c", "tiny")
        names = sorted(p.name for p in (tmp_path / f"{workload}-a").iterdir())
        assert len(names) >= 3
        for name in names:
            assert (tmp_path / f"{workload}-a" / name).read_bytes() == (tmp_path / f"{workload}-b" / name).read_bytes()
        payload = first["scenes"][0]["header"].replace(".json", ".raw")
        assert (tmp_path / f"{workload}-a" / payload).read_bytes() != (tmp_path / f"{workload}-c" / payload).read_bytes()
