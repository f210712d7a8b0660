import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from specscan import (
    BandMeta,
    BinaryMask,
    ErrorReport,
    RasterCube,
    ScoreMap,
    SegMetrics,
    load_cube,
    load_spectral_library,
    save_cube,
    save_mask,
    save_score_map,
    __version__,
)
from specscan.cli import main
from specscan.detectors import DETECTORS
from specscan.pipeline import APPLICATIONS, PipelineConfig, run_pipeline
from oracles import quantiles_numpy, stretch_band_masks, valid_pixel_count
from test_pipeline import bordered_scene, hazy_scene, on_grid, water_scene, written_outputs


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    save_cube(water_scene(), path)
    return path


# Bytes that are not UTF-8 text.
NOT_UTF8 = b"\xff\xfe\x80 binary \x00\x81"


def write_library(tmp_path, bands=4):
    rows = ["label,wavelength_nm,value"]
    for i in range(bands):
        rows.append(f"veg,,{0.2 + 0.1 * i}")
    path = tmp_path / "lib.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def snapshot(root):
    """Every file and directory under `root` by relative path, with a file's bytes."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def save_cube_with_payload(cube, header, payload_name):
    """`save_cube` at `header`, then rename its payload to `payload_name` and point the header at it."""
    save_cube(cube, header).rename(header.parent / payload_name)
    header.write_text(json.dumps({**json.loads(header.read_text()), "payload": payload_name}))


class TestExitCodes:
    def test_python_m_specscan_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "specscan", "--version"], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (0, f"specscan {__version__}\n")

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

    def test_header_that_is_not_utf8_is_exit_two(self, capsys, tmp_path):
        (tmp_path / "bin.json").write_bytes(NOT_UTF8)
        assert main(["stats", "--cube", str(tmp_path / "bin.json")]) == 2
        assert capsys.readouterr().err.startswith("specscan: data error: cannot read cube header")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["label", "--help"]) == 0
        out = capsys.readouterr().out
        assert "ndwi" in out

    @pytest.mark.parametrize(
        "field, value, message",
        [("interleave", "bip", "interleave"), ("nodata", "abc", "nodata")],
        ids=["interleave", "string-nodata"],
    )
    def test_malformed_cube_is_exit_two(self, capsys, scene_path, tmp_path, field, value, message):
        header = json.loads(scene_path.read_text())
        header[field] = value
        scene_path.write_text(json.dumps(header))
        assert main(["label", "ndwi", "--cube", str(scene_path), "--out", str(tmp_path / "n")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "nodata, message",
        [(10**400, "nodata must be finite, got inf"), (1e308, "nodata must be a finite float32 value")],
        ids=["401-digit-int", "1e308"],
    )
    def test_nodata_float32_cannot_hold_is_exit_two(self, capsys, scene_path, tmp_path, nodata, message):
        header = json.loads(scene_path.read_text())
        scene_path.write_text(json.dumps({**header, "nodata": nodata}))
        assert main(["stretch", "--cube", str(scene_path), "--out", str(tmp_path / "o.json")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["label", "ndwi"], ["label", "ndwi", "--otsu"], ["label", "hot", "--otsu"], ["detect", "rx", "--otsu"]],
        ids=" ".join,
    )
    def test_bins_below_two_is_usage_error_before_any_write(self, capsys, scene_path, tmp_path, argv):
        out = tmp_path / "out"
        out.mkdir()
        code = main(argv + ["--cube", str(scene_path), "--out", str(out / "n"), "--bins", "1"])
        assert code == 1
        assert "otsu_bins" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    def test_every_band_matches_the_quantile_oracle(self, tmp_path):
        # `stretch` writes every band, each rounded from the float64 stretch
        # between its own quantiles over the valid pixels.
        source = tmp_path / "scene.json"
        cube = bordered_scene()
        save_cube(cube, source)
        out = tmp_path / "stretched.json"
        assert main(["stretch", "--cube", str(source), "--out", str(out), "--v-min", "-2", "--v-max", "5"]) == 0
        expected = np.empty_like(cube.data)
        for band, plane in enumerate(cube.data):
            quantiles = quantiles_numpy(plane, cube.validity)
            expected[band] = stretch_band_masks(plane, -2.0, 5.0, *quantiles)
        expected[:, ~cube.validity] = -3.0
        assert out.with_suffix(".raw").read_bytes() == expected.astype("<f4").tobytes()
        header = json.loads(out.read_text())
        assert header["nodata"] == -3.0
        assert [band["name"] for band in header["bands_meta"]] == ["b", "g", "r", "n", "x"]

    def test_out_named_like_its_payload_is_exit_two_and_writes_nothing(self, capsys, scene_path, tmp_path):
        out = tmp_path / "y.raw"
        assert main(["stretch", "--cube", str(scene_path), "--out", str(out)]) == 2
        assert "overwritten by its payload" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_range_is_usage_error_before_the_payload_is_read(self, capsys, scene_path, tmp_path):
        scene_path.with_suffix(".raw").unlink()
        out = tmp_path / "stretched.json"
        code = main(["stretch", "--cube", str(scene_path), "--out", str(out), "--v-min", "1", "--v-max", "0"])
        assert code == 1
        assert "specscan: error: v_min" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--v-max", "inf"], ["--v-min=-inf"], ["--v-max", "1e39"]], ids=" ".join)
    def test_range_beyond_float32_is_usage_error_before_the_payload_is_read(self, capsys, scene_path, tmp_path, flags):
        scene_path.with_suffix(".raw").unlink()
        out = tmp_path / "stretched.json"
        assert main(["stretch", "--cube", str(scene_path), "--out", str(out)] + flags) == 1
        assert "finite float32" in capsys.readouterr().err
        assert not out.exists()

    def test_reload_keeps_validity_where_v_min_is_beyond_float32_integers(self, tmp_path):
        # float32(2**25 - 1) == float32(2**25): a v_min - 1 sentinel would
        # reload valid pixels stretched to v_min as nodata.
        data = np.random.default_rng(5).random((4, 64, 64), dtype=np.float32)
        data[:, :, :6] = -9999.0
        source = tmp_path / "scene.json"
        save_cube(RasterCube(data=data, nodata=-9999.0), source)
        out = tmp_path / "stretched.json"
        code = main(["stretch", "--cube", str(source), "--out", str(out),
                     "--v-min", "33554432", "--v-max", "33554440"])
        assert code == 0
        assert valid_pixel_count(load_cube(out)) == valid_pixel_count(load_cube(source)) == 64 * 58

    def test_stretches_into_the_cube_it_loaded(self, tmp_path):
        # One cube in memory, not the loaded one and a stretched copy.
        source = tmp_path / "scene.json"
        cube = RasterCube(data=np.random.default_rng(6).random((8, 512, 512), dtype=np.float32))
        save_cube(cube, source)
        tracemalloc.start()
        try:
            assert main(["stretch", "--cube", str(source), "--out", str(tmp_path / "stretched.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cube.data.nbytes + cube.data[0].nbytes + 2 * 2**20


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

    def test_ndwi_reports_zero_sum_pixels(self, capsys, tmp_path):
        cube = water_scene()
        data = cube.data.copy()
        data[[1, 3], 4, 7] = 0.0  # green and nir
        scene = tmp_path / "zero.json"
        save_cube(RasterCube(data=data, band_meta=cube.band_meta), scene)
        assert main(["label", "ndwi", "--cube", str(scene), "--out", str(tmp_path / "ndwi"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["flagged_pixels"] == 1

    def test_json_names_the_written_payload(self, capsys, scene_path, tmp_path):
        assert main(["label", "ndwi", "--cube", str(scene_path), "--out", str(tmp_path / "n.v2"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["score"] == str(tmp_path / "n.v2.json")
        assert payload["payload"] == str(tmp_path / "n.v2.raw")
        assert load_cube(payload["score"]).data.tobytes() == Path(payload["payload"]).read_bytes()

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

    def test_hot_line_matches_the_pipeline_report(self, capsys, tmp_path):
        scene = tmp_path / "hazy.json"
        save_cube(hazy_scene(), scene)
        argv = ["label", "hot", "--cube", str(scene), "--out", str(tmp_path / "hot"), "--mode", "point-line", "--json"]
        assert main(argv) == 0
        line = json.loads(capsys.readouterr().out)["clear_sky_line"]
        run = tmp_path / "run"
        argv = ["pipeline", "run", "--cube", str(scene), "--application", "clouds", "--hot-mode", "point-line",
                "--out", str(run)]
        assert main(argv) == 0
        report = json.loads((run / "report.json").read_text())
        assert line == report["diagnostics"]["clear_sky_line"]
        assert (tmp_path / "hot.raw").read_bytes() == (run / "score.raw").read_bytes()

    def test_threshold_label(self, capsys, scene_path, tmp_path):
        out = tmp_path / "thermal.pgm"
        code = main(
            ["label", "threshold", "--cube", str(scene_path), "--band", "nir",
             "--low", "0.5", "--out", str(out), "--json"]
        )
        assert code == 0
        assert out.exists()

    def test_threshold_integer_band_matches_its_role(self, capsys, tmp_path):
        scene = tmp_path / "scene.json"
        save_cube(bordered_scene(), scene)
        outputs = []
        for band in ("nir", "3"):
            out = tmp_path / f"{band}.pgm"
            argv = ["label", "threshold", "--cube", str(scene), "--band", band, "--low", "0.5",
                    "--out", str(out), "--json"]
            assert main(argv) == 0
            outputs.append((out.read_bytes(), json.loads(capsys.readouterr().out)["positive_count"]))
        assert outputs[0] == outputs[1]

    def test_threshold_requires_a_bound(self, capsys, scene_path, tmp_path):
        code = main(
            ["label", "threshold", "--cube", str(scene_path), "--band", "nir",
             "--out", str(tmp_path / "t.pgm")]
        )
        assert code == 1
        assert not (tmp_path / "t.pgm").exists()

    def test_threshold_config_error_comes_before_the_payload_is_read(self, capsys, scene_path, tmp_path):
        scene_path.with_suffix(".raw").unlink()
        out = tmp_path / "out"
        out.mkdir()
        code = main(
            ["label", "threshold", "--cube", str(scene_path), "--band", "nir",
             "--low", "0.6", "--high", "0.2", "--out", str(out / "t.pgm")]
        )
        assert code == 1
        assert "thermal_low exceeds thermal_high" in capsys.readouterr().err
        assert list(out.iterdir()) == []


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
        assert payload["bands"] == 4

    def test_stats_and_the_rx_report_carry_the_band_count(self, capsys, tmp_path):
        scene = tmp_path / "scene.json"
        save_cube(bordered_scene(), scene)
        assert main(["stats", "--cube", str(scene)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert main(["pipeline", "run", "--cube", str(scene), "--application", "vegetation_rx",
                     "--out", str(tmp_path / "rx")]) == 0
        report = json.loads((tmp_path / "rx" / "report.json").read_text())
        assert stats["bands"] == report["diagnostics"]["scene_stats"]["bands"] == 5

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

    def test_detect_sam_counts_zero_norm_pixels(self, capsys, tmp_path):
        cube = water_scene()
        data = cube.data.copy()
        data[:, 3, 5] = 0.0
        scene = tmp_path / "zero.json"
        save_cube(RasterCube(data=data, band_meta=cube.band_meta), scene)
        code = main(
            ["detect", "sam", "--cube", str(scene), "--library", str(write_library(tmp_path)),
             "--target", "veg", "--out", str(tmp_path / "sam"), "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["flagged_pixels"] == 1

    def test_detect_library_that_is_not_utf8_is_exit_two(self, capsys, scene_path, tmp_path):
        (tmp_path / "lib.csv").write_bytes(NOT_UTF8)
        code = main(
            ["detect", "sam", "--cube", str(scene_path), "--library", str(tmp_path / "lib.csv"),
             "--target", "veg", "--out", str(tmp_path / "sam")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("specscan: data error: cannot read spectral library")
        assert not (tmp_path / "sam.json").exists()

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
        assert list(payload) == [f.name for f in fields(SegMetrics)] + ["application"]
        assert (payload["tp"], payload["fp"], payload["fn"], payload["tn"]) == (512, 0, 0, 512)

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
        out = tmp_path / "report.json"
        code = main(
            ["compare-paths", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"), "--json",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_abs_error"] == 0.0
        assert list(payload) == [f.name for f in fields(ErrorReport)]
        assert payload == json.loads(out.read_text())
        assert payload["histogram_counts"] == [32 * 32] + [0] * 31

    def test_compare_paths_text_mode(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        for name in "ab":
            save_score_map(ScoreMap(data=rng.random((6, 5)), score_kind="RX"), tmp_path / f"{name}.json")
        code = main(["compare-paths", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
                     "--bins", "4"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n = 30"
        assert lines[1].startswith("mean |a-b| = ")
        assert len(lines) == 3 + 4
        assert all(line.startswith("[") for line in lines[3:])
        assert sum(int(line.split(")")[1].split()[0]) for line in lines[3:]) == 30

    def test_compare_paths_bins_below_one_is_usage_error_before_any_read(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["compare-paths", "--a", str(tmp_path / "missing.json"), "--b", str(tmp_path / "missing.json"),
             "--bins", "0", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "bins must be >= 1, got 0" in err and "missing" not in err
        assert not out.exists()


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

    def test_json_stdout_equals_the_out_file(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        argv = ["bench", "--width", "8", "--height", "8", "--bands", "4", "--repetitions", "3", "--json",
                "--out", str(out)]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        assert records == json.loads(out.read_text())
        assert [r["inputs_shape"] for r in records] == ["8x8x4"] * 3

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--repetitions", "2"], "repetitions must be >= 3, got 2"),
            (["--width", "0"], "--width"),
            (["--height", "0"], "--height"),
            (["--bands", "0"], "--bands"),
        ],
        ids=["repetitions", "width", "height", "bands"],
    )
    def test_usage_errors_exit_one(self, capsys, tmp_path, flags, message):
        out = tmp_path / "bench.json"
        assert main(["bench", "--width", "8", "--height", "8", "--bands", "4", "--out", str(out)] + flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("stretch", [[], ["--no-stretch"]], ids=["stretched", "unstretched"])
    def test_integer_band_matches_its_role(self, tmp_path, stretch):
        scene = tmp_path / "scene.json"
        save_cube(bordered_scene(), scene)
        for band in ("nir", "3"):
            argv = ["pipeline", "run", "--cube", str(scene), "--application", "thermal", "--band", band,
                    "--low", "0.5", "--out", str(tmp_path / band)]
            assert main(argv + stretch) == 0
        assert written_outputs(tmp_path / "3") == written_outputs(tmp_path / "nir")

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_scene_does_not_stop_the_batch(self, capsys, tmp_path, jobs):
        for i, name in enumerate("acb"):
            save_cube(water_scene(seed=i), tmp_path / f"{name}.json")
        (tmp_path / "c.raw").write_bytes(b"12345")
        out = tmp_path / "multi"
        argv = ["pipeline", "run", "--application", "surface_water", "--out", str(out), "--jobs", jobs, "--json"]
        for name in "acb":
            argv += ["--cube", str(tmp_path / f"{name}.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        for name in "ab":
            files = sorted(path.name for path in (out / name).iterdir())
            assert files == ["mask.pgm", "report.json", "score.json", "score.raw", "summary.json"]
        assert not (out / "c").exists()
        scenes = json.loads(captured.out)["scenes"]
        assert [scene["scene_id"] for scene in scenes] == ["a", "c", "b"]
        assert ["error" in scene for scene in scenes] == [False, True, False]
        assert "5 bytes" in scenes[1]["error"]
        assert scenes[0]["positive_count"] == scenes[2]["positive_count"] == 16 * 32
        lines = captured.err.splitlines()
        assert lines[0] == "scene a: 512 positive pixels"
        assert lines[1] == f"specscan: data error: {scenes[1]['error']}"
        assert lines[2] == "scene b: 512 positive pixels"

    def test_header_that_is_not_utf8_does_not_stop_the_batch(self, capsys, tmp_path):
        save_cube(water_scene(), tmp_path / "a.json")
        (tmp_path / "b.json").write_bytes(NOT_UTF8)
        out = tmp_path / "multi"
        argv = ["pipeline", "run", "--application", "surface_water", "--out", str(out)]
        for name in "ab":
            argv += ["--cube", str(tmp_path / f"{name}.json")]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0] == "scene a: 512 positive pixels"
        assert lines[1].startswith(f"specscan: data error: cannot read cube header {tmp_path / 'b.json'}")
        files = sorted(path.name for path in (out / "a").iterdir())
        assert files == ["mask.pgm", "report.json", "score.json", "score.raw", "summary.json"]
        assert not (out / "b").exists()

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

    @pytest.mark.parametrize(
        "application, flags, message",
        [
            ("thermal", ["--low", "0.6", "--threshold", "0.1"], "fixed_threshold"),
            ("vegetation_mf", [], "requires a target spectrum"),
            ("surface_water", ["--v-min", "1", "--v-max", "0"], "v_min"),
            ("surface_water", ["--q-low", "0.9", "--q-high", "0.1"], "quantile fractions"),
            ("surface_water", ["--max-boxes", "0"], "max_boxes"),
            ("surface_water", ["--jobs", "0"], "--jobs"),
            ("surface_water", ["--jobs", "-3"], "--jobs"),
            ("surface_water", ["--threshold", "nan"], "fixed_threshold must be finite"),
            ("surface_water", ["--threshold=-inf"], "fixed_threshold must be finite"),
            ("thermal", ["--low", "nan"], "thermal_low must be finite"),
            ("surface_water", ["--v-max", "inf"], "finite float32"),
            ("surface_water", ["--v-min=-inf"], "finite float32"),
            ("surface_water", ["--v-max", "1e39"], "finite float32"),
        ],
        ids=[
            "thermal-threshold", "mf-without-target", "v-range", "quantiles", "no-boxes", "jobs-0", "jobs-negative",
            "nan-threshold", "infinite-threshold", "nan-low", "infinite-v-max", "infinite-v-min", "v-max-beyond-float32",
        ],
    )
    def test_config_errors_come_before_the_payload_is_read(self, capsys, tmp_path, application, flags, message):
        scene = tmp_path / "w.json"
        save_cube(water_scene(), scene)
        scene.with_suffix(".raw").unlink()
        out = tmp_path / "never"
        code = main(["pipeline", "run", "--cube", str(scene), "--application", application, "--out", str(out)] + flags)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_target_is_resampled_onto_the_cube_wavelengths(self, tmp_path):
        cube = water_scene()
        grid = [480.0, 560.0, 660.0, 830.0]
        meta = [BandMeta(name=m.name, role=m.role, wavelength_nm=wl) for m, wl in zip(cube.band_meta, grid)]
        scene = tmp_path / "w.json"
        save_cube(RasterCube(data=cube.data, band_meta=meta), scene)
        library_wl, library_values = [900.0, 400.0, 550.0, 700.0], [0.5, 0.05, 0.1, 0.3]
        library = tmp_path / "lib.csv"
        rows = [f"veg,{wl},{v}" for wl, v in zip(library_wl, library_values)]
        library.write_text("\n".join(["label,wavelength_nm,value", *rows]) + "\n")
        out = tmp_path / "run"
        code = main(
            ["pipeline", "run", "--cube", str(scene), "--application", "vegetation_mf",
             "--library", str(library), "--target", "veg", "--out", str(out)]
        )
        assert code == 0
        target = json.loads((out / "report.json").read_text())["config"]["target"]
        assert target["wavelengths_nm"] == grid
        order = np.argsort(library_wl)
        expected = np.interp(grid, np.array(library_wl)[order], np.array(library_values)[order])
        np.testing.assert_array_equal(target["values"], expected)

    @pytest.mark.parametrize("application", ["vegetation_mf", "mineral_sam"])
    def test_library_caller_writes_what_the_cli_writes(self, tmp_path, application):
        # The library target is on its own grid, in another order than the
        # cube's bands: run_pipeline fits it onto them as pipeline run does.
        cube = on_grid(water_scene(), [480.0, 560.0, 660.0, 830.0])
        save_cube(cube, tmp_path / "w.json")
        library = tmp_path / "lib.csv"
        rows = [f"veg,{wl},{v}" for wl, v in zip([900.0, 400.0, 550.0, 700.0], [0.5, 0.05, 0.1, 0.3])]
        library.write_text("\n".join(["label,wavelength_nm,value", *rows]) + "\n")
        code = main(
            ["pipeline", "run", "--cube", str(tmp_path / "w.json"), "--application", application,
             "--library", str(library), "--target", "veg", "--out", str(tmp_path / "cli")]
        )
        assert code == 0
        (target,) = load_spectral_library(library)
        run_pipeline(cube, PipelineConfig(application, scene_id="w", target=target, output_dir=tmp_path / "lib"))

        def report(out_dir):
            report = json.loads((out_dir / "report.json").read_text())
            report["config"].pop("output_dir")
            for stage in report["stages"]:
                stage.pop("seconds")
            return report

        assert written_outputs(tmp_path / "lib") == written_outputs(tmp_path / "cli")
        assert report(tmp_path / "lib") == report(tmp_path / "cli")

    @pytest.mark.parametrize(
        "rows",
        [
            [*(f"veg,{wl},{0.1 + wl / 2000}" for wl in (400.0, 600.0, 900.0)), "short,500.0,0.2", "short,600.0,0.3"],
            [*(f"veg,,{v}" for v in (0.2, 0.3, 0.4, 0.5)), "other,,0.2", "other,,0.3"],
        ],
        ids=["wavelengths", "positional"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["pipeline", "run", "--application", "vegetation_mf"], ["detect", "sam"]],
        ids=["pipeline-run", "detect-sam"],
    )
    def test_only_the_chosen_target_must_fit_the_cube(self, capsys, tmp_path, rows, argv):
        cube = water_scene()
        meta = [
            BandMeta(name=m.name, role=m.role, wavelength_nm=wl)
            for m, wl in zip(cube.band_meta, [480.0, 560.0, 660.0, 860.0])
        ]
        scene = tmp_path / "w.json"
        save_cube(RasterCube(data=cube.data, band_meta=meta), scene)
        library = tmp_path / "lib.csv"
        library.write_text("\n".join(["label,wavelength_nm,value", *rows]) + "\n")
        out = tmp_path / "run"
        code = main(argv + ["--cube", str(scene), "--library", str(library), "--target", "veg", "--out", str(out)])
        assert code == 0, capsys.readouterr().err

    def test_library_is_read_once_per_command(self, monkeypatch, tmp_path):
        import specscan.cli as cli_module

        reads = []

        def counting(*args, **kwargs):
            reads.append(args)
            return load_spectral_library(*args, **kwargs)

        monkeypatch.setattr(cli_module, "load_spectral_library", counting)
        argv = ["pipeline", "run", "--application", "vegetation_sam", "--library", str(write_library(tmp_path)),
                "--target", "veg", "--out", str(tmp_path / "multi")]
        for i in range(3):
            save_cube(water_scene(seed=i), tmp_path / f"s{i}.json")
            argv += ["--cube", str(tmp_path / f"s{i}.json")]
        assert main(argv) == 0
        assert len(reads) == 1

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

    @pytest.mark.parametrize("max_boxes", ["0", "-1", "17"])
    def test_max_boxes_out_of_range_is_usage_error(self, capsys, tmp_path, max_boxes):
        data = np.zeros((8, 8), dtype=np.uint8)
        data[1:3, 1:5] = data[5, 5] = data[7, 0] = 1
        save_mask(BinaryMask(data=data), tmp_path / "m.pgm")
        out = tmp_path / "sum.json"
        code = main(
            ["summary", "--mask", str(tmp_path / "m.pgm"), "--scene-id", "s9",
             "--application", "clouds", "--out", str(out), "--max-boxes", max_boxes]
        )
        assert code == 1
        assert "max_boxes" in capsys.readouterr().err
        assert not out.exists()

    def test_max_boxes_is_checked_before_the_mask_is_read(self, capsys, tmp_path):
        out = tmp_path / "sum.json"
        code = main(
            ["summary", "--mask", str(tmp_path / "missing.pgm"), "--scene-id", "s9",
             "--application", "clouds", "--out", str(out), "--max-boxes", "0"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "specscan: error:" in err and "max_boxes" in err
        assert "cannot read mask" not in err
        assert not out.exists()


    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error_before_the_mask_is_read(self, capsys, tmp_path, threshold):
        out = tmp_path / "sum.json"
        code = main(
            ["summary", "--mask", str(tmp_path / "missing.pgm"), "--scene-id", "s9",
             "--application", "clouds", "--out", str(out), f"--threshold={threshold}"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "threshold must be finite" in err and "cannot read mask" not in err
        assert not out.exists()


@pytest.mark.parametrize("application", list(APPLICATIONS))
def test_cli_scores_agree_with_the_application_table(application, tmp_path):
    """`label`/`detect` and `pipeline run` label the same pixels for every entry.

    ``--bins`` is the Otsu step's ``--otsu-bins``.

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

    mask, score = pipeline(application, tmp_path / "run", "--no-stretch", "--otsu-bins", "7")
    prefix = tmp_path / "cli"
    if app.band_window:
        argv, cli_mask, cli_score = ["label", "threshold", *band], Path(f"{prefix}.pgm"), None
    else:
        argv = ["detect" if app.command in DETECTORS else "label", app.command, "--otsu", "--bins", "7", *target]
        cli_mask, cli_score = Path(f"{prefix}_mask.pgm"), Path(f"{prefix}.raw")
    assert main(argv + ["--cube", str(scene), "--out", str(prefix)]) == 0
    assert cli_mask.read_bytes() == mask.read_bytes()
    if cli_score is not None:
        assert cli_score.read_bytes() == score.read_bytes()

    twin = next(name for name, entry in APPLICATIONS.items() if entry.command == app.command)
    ours = pipeline(application, tmp_path / "ours")
    theirs = pipeline(twin, tmp_path / "twin")
    assert [p.read_bytes() for p in ours] == [p.read_bytes() for p in theirs]


class TestOutputsSpareTheInput:
    """A command that would write over its input (a cube header, its payload, a mask) exits 1 and writes nothing."""

    @pytest.mark.parametrize("header, payload", [("score.json", None), ("cube.json", "mask.pgm")],
                             ids=["header", "payload"])
    def test_pipeline_run(self, capsys, tmp_path, header, payload):
        cube = tmp_path / header
        if payload:
            save_cube_with_payload(water_scene(), cube, payload)
        else:
            save_cube(water_scene(), cube)
        before = snapshot(tmp_path)
        argv = ["pipeline", "run", "--cube", str(cube), "--application", "surface_water", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("specscan: error: output ")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_with_one_such_scene_runs_no_scene(self, capsys, tmp_path, jobs):
        save_cube(water_scene(), tmp_path / "a.json")
        (tmp_path / "score").mkdir()
        save_cube(water_scene(seed=2), tmp_path / "score" / "score.json")
        before = snapshot(tmp_path)
        argv = ["pipeline", "run", "--cube", str(tmp_path / "a.json"), "--cube", str(tmp_path / "score" / "score.json"),
                "--application", "surface_water", "--out", str(tmp_path), "--jobs", jobs]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"specscan: error: output {tmp_path / 'score' / 'score.json'}")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["label", "ndwi"], None),
            (["label", "hot", "--otsu"], None),
            (["detect", "rx", "--otsu"], None),
            (["label", "ndwi"], "e_mask.pgm"),
            (["detect", "rx"], "e.raw"),
            (["label", "threshold", "--band", "nir", "--low", "0.5"], "e.pgm"),
        ],
        ids=["ndwi", "hot", "rx", "ndwi-mask", "rx-payload", "threshold-mask"],
    )
    def test_label_and_detect(self, capsys, tmp_path, argv, payload):
        cube = tmp_path / ("c.json" if payload else "e.json")
        if payload:
            save_cube_with_payload(water_scene(), cube, payload)
        else:
            save_cube(water_scene(), cube)
        before = snapshot(tmp_path)
        assert main(argv + ["--cube", str(cube), "--out", str(tmp_path / "e")]) == 1
        assert capsys.readouterr().err.startswith("specscan: error: output ")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize(
        "payload, out",
        [(None, "e.json"), ("e.raw", "e.json"), ("e.json", "e.json")],
        ids=["header", "payload", "header-over-payload"],
    )
    def test_stretch(self, capsys, tmp_path, payload, out):
        cube = tmp_path / ("c.json" if payload else "e.json")
        if payload:
            save_cube_with_payload(water_scene(), cube, payload)
        else:
            save_cube(water_scene(), cube)
        before = snapshot(tmp_path)
        assert main(["stretch", "--cube", str(cube), "--out", str(tmp_path / out)]) == 1
        assert capsys.readouterr().err.startswith("specscan: error: output ")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("payload, out", [(None, "n.json"), ("m.pgm", "m.pgm")], ids=["header", "payload"])
    def test_binarize(self, capsys, tmp_path, payload, out):
        scores = tmp_path / "n.json"
        score_map = ScoreMap(data=np.linspace(-1.0, 1.0, 64).reshape(8, 8), score_kind="NDWI")
        if payload:
            save_score_map(score_map, scores).rename(tmp_path / payload)
            scores.write_text(json.dumps({**json.loads(scores.read_text()), "payload": payload}))
        else:
            save_score_map(score_map, scores)
        before = snapshot(tmp_path)
        argv = ["binarize", "--scores", str(scores), "--threshold", "0", "--out", str(tmp_path / out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("specscan: error: output ")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("payload", [None, "o.json"], ids=["header", "payload"])
    def test_stats(self, capsys, tmp_path, payload):
        cube = tmp_path / ("c.json" if payload else "o.json")
        if payload:
            save_cube_with_payload(water_scene(), cube, payload)
        else:
            save_cube(water_scene(), cube)
        before = snapshot(tmp_path)
        assert main(["stats", "--cube", str(cube), "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err.startswith("specscan: error: output ")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("out", ["a.json", "b.raw"])
    def test_compare_paths(self, capsys, tmp_path, out):
        for name in ("a", "b"):
            save_score_map(ScoreMap(data=np.linspace(-1.0, 1.0, 64).reshape(8, 8), score_kind="NDWI"),
                           tmp_path / f"{name}.json")
        before = snapshot(tmp_path)
        argv = ["compare-paths", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json"),
                "--out", str(tmp_path / out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("specscan: error: output ")
        assert snapshot(tmp_path) == before

    def test_summary(self, capsys, tmp_path):
        save_mask(BinaryMask(data=np.eye(8, dtype=np.uint8)), tmp_path / "m.pgm")
        before = snapshot(tmp_path)
        argv = ["summary", "--mask", str(tmp_path / "m.pgm"), "--scene-id", "s", "--application", "a",
                "--out", str(tmp_path / "." / "m.pgm")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("specscan: error: output ")
        assert snapshot(tmp_path) == before
