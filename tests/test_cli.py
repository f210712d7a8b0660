import json
from pathlib import Path

import numpy as np
import pytest

from specscan import BinaryMask, save_cube, save_mask
from specscan.cli import main
from specscan.detectors import DETECTORS
from specscan.pipeline import APPLICATIONS
from test_pipeline import hazy_scene, water_scene


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    save_cube(water_scene(), path)
    return path


def write_library(tmp_path, bands=4):
    rows = ["label,wavelength_nm,value"]
    for i in range(bands):
        rows.append(f"veg,,{0.2 + 0.1 * i}")
    path = tmp_path / "lib.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys, scene_path):
        code = main(["stretch", "--cube", str(scene_path), "--out", "x.json", "--bogus"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["stretch"]) == 1

    def test_detect_mf_without_target_names_flag(self, capsys, scene_path, tmp_path):
        code = main(
            ["detect", "mf", "--cube", str(scene_path), "--library",
             str(write_library(tmp_path)), "--out", str(tmp_path / "mf")]
        )
        assert code == 1
        assert "--target" in capsys.readouterr().err

    def test_data_error_is_exit_two(self, capsys, tmp_path):
        code = main(["stretch", "--cube", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o.json")])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["label", "--help"]) == 0
        out = capsys.readouterr().out
        assert "ndwi" in out

    def test_subcommand_help_lists_defaults(self, capsys):
        assert main(["label", "ndwi", "--help"]) == 0
        help_text = capsys.readouterr().out
        assert "--bins" in help_text and "256" in help_text


class TestStretch:
    def test_writes_cube_and_json(self, capsys, scene_path, tmp_path):
        out = tmp_path / "stretched.json"
        code = main(["stretch", "--cube", str(scene_path), "--out", str(out), "--json"])
        assert code == 0
        assert out.exists() and out.with_suffix(".raw").exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["out"] == str(out)


class TestLabel:
    def test_ndwi_writes_scores_and_mask(self, capsys, scene_path, tmp_path):
        prefix = tmp_path / "ndwi"
        code = main(["label", "ndwi", "--cube", str(scene_path), "--out", str(prefix), "--otsu", "--json"])
        assert code == 0
        assert (tmp_path / "ndwi.json").exists()
        assert (tmp_path / "ndwi.raw").exists()
        assert (tmp_path / "ndwi_mask.pgm").exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["positive_count"] == 16 * 32

    def test_ndwi_without_otsu_writes_no_mask(self, scene_path, tmp_path):
        prefix = tmp_path / "plain"
        assert main(["label", "ndwi", "--cube", str(scene_path), "--out", str(prefix)]) == 0
        assert not (tmp_path / "plain_mask.pgm").exists()

    def test_hot_reports_line(self, capsys, tmp_path):
        scene = tmp_path / "hazy.json"
        save_cube(hazy_scene(), scene)
        code = main(["label", "hot", "--cube", str(scene), "--out", str(tmp_path / "hot"), "--otsu", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "clear_sky_line" in payload

    def test_threshold_label(self, capsys, scene_path, tmp_path):
        out = tmp_path / "thermal.pgm"
        code = main(
            ["label", "threshold", "--cube", str(scene_path), "--band", "nir",
             "--low", "0.5", "--out", str(out), "--json"]
        )
        assert code == 0
        assert out.exists()

    def test_threshold_requires_a_bound(self, capsys, scene_path, tmp_path):
        code = main(
            ["label", "threshold", "--cube", str(scene_path), "--band", "nir",
             "--out", str(tmp_path / "t.pgm")]
        )
        assert code == 1
        assert not (tmp_path / "t.pgm").exists()


class TestStatsAndDetect:
    def test_stats_to_stdout(self, capsys, scene_path):
        assert main(["stats", "--cube", str(scene_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bands"] == 4
        assert len(payload["mean"]) == 4

    def test_stats_full_to_file(self, scene_path, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["stats", "--cube", str(scene_path), "--out", str(out), "--full"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["covariance"]) == 4

    def test_detect_rx(self, capsys, scene_path, tmp_path):
        code = main(["detect", "rx", "--cube", str(scene_path), "--out", str(tmp_path / "rx"), "--json"])
        assert code == 0
        assert (tmp_path / "rx.json").exists()

    def test_detect_mf_with_library(self, capsys, scene_path, tmp_path):
        library = write_library(tmp_path)
        code = main(
            ["detect", "mf", "--cube", str(scene_path), "--library", str(library),
             "--target", "veg", "--out", str(tmp_path / "mf"), "--otsu", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "mask" in payload

    def test_detect_unknown_target_label(self, capsys, scene_path, tmp_path):
        library = write_library(tmp_path)
        code = main(
            ["detect", "sam", "--cube", str(scene_path), "--library", str(library),
             "--target", "granite", "--out", str(tmp_path / "sam")]
        )
        assert code == 1
        assert "granite" in capsys.readouterr().err
        assert not (tmp_path / "sam.json").exists()


class TestBinarizeEvalCompare:
    def test_binarize_then_eval(self, capsys, scene_path, tmp_path):
        assert main(["label", "ndwi", "--cube", str(scene_path), "--out", str(tmp_path / "n")]) == 0
        code = main(
            ["binarize", "--scores", str(tmp_path / "n.json"), "--threshold", "0",
             "--out", str(tmp_path / "pred.pgm")]
        )
        assert code == 0
        truth = np.zeros((32, 32), dtype=np.uint8)
        truth[:, :16] = 1
        save_mask(BinaryMask(data=truth), tmp_path / "truth.pgm")
        code = main(["eval", "--pred", str(tmp_path / "pred.pgm"), "--truth", str(tmp_path / "truth.pgm")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"] == 1.0

    def test_eval_table_mode(self, capsys, tmp_path):
        truth = np.zeros((4, 4), dtype=np.uint8)
        save_mask(BinaryMask(data=truth), tmp_path / "m.pgm")
        code = main(
            ["eval", "--pred", str(tmp_path / "m.pgm"), "--truth", str(tmp_path / "m.pgm"), "--table"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("Application")

    def test_compare_paths(self, capsys, scene_path, tmp_path):
        assert main(["label", "ndwi", "--cube", str(scene_path), "--out", str(tmp_path / "a")]) == 0
        assert main(["label", "ndwi", "--cube", str(scene_path), "--out", str(tmp_path / "b")]) == 0
        code = main(
            ["compare-paths", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_abs_error"] == 0.0


class TestBenchCli:
    def test_small_bench_table(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        code = main(
            ["bench", "--width", "16", "--height", "16", "--bands", "5",
             "--repetitions", "3", "--out", str(out)]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("Application")
        records = json.loads(out.read_text())
        assert [r["model"] for r in records] == ["SAM", "MF", "RX"]


class TestPipelineCli:
    def test_run_single_scene(self, capsys, tmp_path):
        scene = tmp_path / "w.json"
        save_cube(water_scene(), scene)
        out = tmp_path / "out"
        code = main(
            ["pipeline", "run", "--cube", str(scene), "--application", "surface_water",
             "--out", str(out), "--json"]
        )
        assert code == 0
        for name in ("mask.pgm", "score.json", "score.raw", "summary.json", "report.json"):
            assert (out / name).exists(), name
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenes"][0]["positive_count"] == 16 * 32

    def test_run_multiple_scenes_with_jobs(self, tmp_path):
        paths = []
        for i in range(3):
            path = tmp_path / f"scene_{i}.json"
            save_cube(water_scene(seed=i), path)
            paths.append(path)
        args = ["pipeline", "run", "--application", "surface_water", "--out", str(tmp_path / "multi"),
                "--jobs", "2"]
        for path in paths:
            args += ["--cube", str(path)]
        assert main(args) == 0
        for i in range(3):
            assert (tmp_path / "multi" / f"scene_{i}" / "summary.json").exists()

    def test_validation_failure_writes_nothing(self, capsys, tmp_path):
        scene = tmp_path / "w.json"
        save_cube(water_scene(), scene)
        out = tmp_path / "never"
        code = main(
            ["pipeline", "run", "--cube", str(scene), "--application", "vegetation_mf",
             "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_scene_id_with_multiple_cubes_is_usage_error(self, capsys, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"s{i}.json"
            save_cube(water_scene(seed=i), path)
            paths.append(str(path))
        code = main(
            ["pipeline", "run", "--cube", paths[0], "--cube", paths[1],
             "--application", "surface_water", "--out", str(tmp_path / "o"),
             "--scene-id", "dup"]
        )
        assert code == 1
        assert "--scene-id" in capsys.readouterr().err

    def test_cubes_sharing_a_stem_are_usage_error(self, capsys, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"dir{i}" / "scene.json"
            path.parent.mkdir()
            save_cube(water_scene(seed=i), path)
            paths.append(str(path))
        out = tmp_path / "o"
        code = main(
            ["pipeline", "run", "--cube", paths[0], "--cube", paths[1],
             "--application", "surface_water", "--out", str(out)]
        )
        assert code == 1
        assert "scene" in capsys.readouterr().err
        assert not out.exists()

    def test_band_window_rejects_threshold_flag(self, capsys, tmp_path):
        scene = tmp_path / "t.json"
        save_cube(water_scene(), scene)
        out = tmp_path / "thermal_run"
        code = main(
            ["pipeline", "run", "--cube", str(scene), "--application", "thermal",
             "--out", str(out), "--threshold", "0.1", "--low", "0.6"]
        )
        assert code == 1
        assert "fixed_threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_thermal_run_with_band_flags(self, tmp_path):
        scene = tmp_path / "t.json"
        save_cube(water_scene(), scene)
        out = tmp_path / "thermal_run"
        code = main(
            ["pipeline", "run", "--cube", str(scene), "--application", "thermal",
             "--out", str(out), "--no-stretch", "--band", "nir", "--low", "0.5"]
        )
        assert code == 0
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["threshold"] == 0.5
        assert summary["algorithm"] == "band_threshold"


class TestSummaryCli:
    def test_summary_from_mask(self, capsys, tmp_path):
        data = np.zeros((8, 8), dtype=np.uint8)
        data[1:3, 1:5] = 1
        save_mask(BinaryMask(data=data), tmp_path / "m.pgm")
        out = tmp_path / "sum.json"
        code = main(
            ["summary", "--mask", str(tmp_path / "m.pgm"), "--scene-id", "s9",
             "--application", "clouds", "--out", str(out), "--json"]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["positive_count"] == 8
        assert summary["detection_boxes"] == [[1, 1, 4, 2]]
        payload = json.loads(capsys.readouterr().out)
        assert payload["bytes"] == out.stat().st_size


@pytest.mark.parametrize("application", list(APPLICATIONS))
def test_cli_scores_agree_with_the_application_table(application, tmp_path):
    """`label`/`detect` and `pipeline run` label the same pixels for every entry.

    Entries sharing a score command (vegetation_X and mineral_X) also give
    identical outputs, so only the target spectrum tells them apart.
    """
    app = APPLICATIONS[application]
    scene = tmp_path / "hazy.json"
    save_cube(hazy_scene(), scene)
    library = write_library(tmp_path)
    target = ["--library", str(library), "--target", "veg"] if app.needs_target else []
    band = ["--band", "nir", "--low", "0.35"] if app.band_window else []

    def pipeline(name, out, *extra):
        argv = ["pipeline", "run", "--cube", str(scene), "--application", name, "--out", str(out)]
        assert main(argv + target + band + list(extra)) == 0
        return out / "mask.pgm", out / "score.raw"

    mask, score = pipeline(application, tmp_path / "run", "--no-stretch")
    prefix = tmp_path / "cli"
    if app.band_window:
        argv, cli_mask, cli_score = ["label", "threshold", *band], Path(f"{prefix}.pgm"), None
    else:
        argv = ["detect" if app.command in DETECTORS else "label", app.command, "--otsu", *target]
        cli_mask, cli_score = Path(f"{prefix}_mask.pgm"), Path(f"{prefix}.raw")
    assert main(argv + ["--cube", str(scene), "--out", str(prefix)]) == 0
    assert cli_mask.read_bytes() == mask.read_bytes()
    if cli_score is not None:
        assert cli_score.read_bytes() == score.read_bytes()

    twin = next(name for name, entry in APPLICATIONS.items() if entry.command == app.command)
    ours = pipeline(application, tmp_path / "ours")
    theirs = pipeline(twin, tmp_path / "twin")
    assert [p.read_bytes() for p in ours] == [p.read_bytes() for p in theirs]
