"""End-to-end benchmark of ``specscan pipeline run``, with a traced run for per-layer numbers.

    python3 perfbench/run.py --workload hyper48 --seed 1 --seconds 15 --trace 0

One operation is one in-process ``specscan.cli.main(["pipeline", "run", ...])``
call, timed from cube headers on disk to score, mask, summary and report
files on disk. The load is a closed loop with one client: the next operation
starts when the previous one returns. Operations cycle through the
workload's applications and the loop ends on a whole cycle once ``--seconds``
of operation time have been measured. Each operation's outputs are checked
after its timer stops (see ``checks.py``).

Scenes are generated from ``--seed`` by a separate process (``scenes.py``),
so the measured process receives only files and generates nothing.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs whole cycles
in turn untraced and with every public specscan function wrapped in a span
recorder (``spans.py``), half of ``--seconds`` each, then one ``tracemalloc``
pass per application, and prints the per-layer metrics. The
last line of stdout is one JSON object; the lines before it name every metric
with its unit. A workload with ``--jobs`` above 1 caps BLAS at CPUs / jobs
threads unless ``OPENBLAS_NUM_THREADS`` is already set.

The metric names and units are read from ``BENCHMARK.json``.

After each operation of the untraced loop, and outside its timer, a fixed
kernel that does not use specscan is timed (``calibration.py``). The host's
speed drifts by 10-30% over minutes, and the kernel slows with it, so an
operation's time over the kernel's time does not drift.

End-to-end, in the result line: ``op_cal.mean``, the mean operation seconds
over the mean kernel seconds, both over the loop's whole cycles (means, not
medians: a slow stretch of the host then weighs the same in both, and
cancels); ``peak_rss_mb``, this process's ``ru_maxrss``; ``setup_s``, the
median over fresh interpreters of the time to import ``specscan.cli`` and load
the workload's targets, with the launches spread evenly between the operations
of the untraced loop so that they sample the same stretch of time as the
operations.

Printed by name but left out of the result line, because they drift with the
host or are 0: ``op_s.p50``, the median over the loop's whole cycles of the
mean operation seconds in the cycle (applications differ in cost, and a plain
median of a two-application mix falls in the gap between the two);
``throughput_msamples_s``, pixels x bands of the scenes of passing operations
over the timed seconds; ``calibration_s.mean``, the kernel's mean seconds;
``op_s.tail``, the highest percentile of operation time with at least ten
operations above it (with 15 s of one-second operations that is far below
p90, so it is not a tail); and ``failed_frac``, 0 at the seed.

Per layer: ``<module>.<function>_s`` is the median, over the traced operations
that call the function, of its time in the operation, and counts follow the
same rule; ``self_share.<module>`` is the module's share of all self time;
``pipeline.nodata_positive_px`` sums, over (scene, application), the positive
mask pixels inside the declared nodata border; ``outputs_changed`` counts the
(scene, application) output digests of the seed-0 scenes that differ from
``reference_digests.json``.

A fuller record (failure details, computed work counts, the environment,
per-function self times) goes to ``.perfbench_work/results/`` and, for traced
runs, the spans to a ``.spans.jsonl`` file beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from calibration import kernel_seconds
from spans import MEMORY_SPANS, Tracer, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 7
SPEEDUP_REPEATS = 2

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Functions whose per-operation time is a per-layer metric "<name>_s".
TIMED_FUNCTIONS = (
    "cube.load_cube", "cube.save_score_map", "cube.save_mask",
    "preprocess.stretch_cube", "preprocess.band_quantiles", "preprocess.stretch_band",
    "detectors.compute_scene_stats", "detectors.detect_map",
    "labeling.fit_clear_sky_line", "labeling.hot", "labeling.ndwi", "labeling.otsu_threshold",
    "labeling.binarize", "labeling.band_threshold_label",
    "pipeline.connected_boxes", "pipeline.build_summary", "pipeline.emit_summary",
)
SELF_TIMED = {"pipeline.run_pipeline_self_s": "pipeline.run_pipeline", "cli.main_self_s": "cli.main"}
SPAN_COUNTS = {
    "detectors.ridge_fired": "detectors.compute_scene_stats",
    "detectors.flagged_px": "detectors.detect_map",
    "labeling.otsu_degenerate": "labeling.otsu_threshold",
}
SHARE_LAYERS = ("cube", "preprocess", "detectors", "labeling", "pipeline", "cli")
# run_pipeline stage -> the wrapped functions it calls.
STAGE_SPANS = {
    "stretch": ("preprocess.stretch_cube",),
    "score": ("labeling.fit_clear_sky_line", "labeling.hot", "labeling.ndwi",
              "detectors.compute_scene_stats", "detectors.detect_map"),
    "threshold": ("labeling.otsu_threshold", "labeling.binarize", "labeling.band_threshold_label"),
    "summarize": ("pipeline.build_summary",),
}

# Metrics that are not timed: "computed" from shapes and file sizes, "counted" from spans and outputs.
KIND = {
    **dict.fromkeys(("cube.load_bytes", "cube.write_bytes", "computed.samples", "computed.detector_madds"),
                    "computed"),
    **dict.fromkeys((*SPAN_COUNTS, "pipeline.components", "pipeline.nodata_positive_px", "outputs_changed"),
                    "counted"),
}

_SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import specscan.cli as cli
if len(sys.argv) > 2:
    meta = json.load(open(sys.argv[2]))["bands_meta"]
    wavelengths = [band["wavelength_nm"] for band in meta]
    cli.load_spectral_library(sys.argv[3], band_wavelengths=wavelengths, band_count=len(meta))
print(time.monotonic())
"""


def generate_scenes(workload: str, seed: int, size: str, out: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "scenes.py"), "--workload", workload, "--seed", str(seed),
         "--size", size, "--out", str(out)],
        check=True,
    )
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def setup_argv(scene_dir: Path, manifest: dict) -> list[str]:
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC)]
    if manifest["library"]:
        argv += [str(scene_dir / manifest["scenes"][0]["header"]), str(scene_dir / manifest["library"])]
    return argv


def time_setup(argv: list[str]) -> float:
    """Seconds from spawning a fresh interpreter to specscan.cli imported and targets loaded."""
    start = time.monotonic()
    done = subprocess.run(argv, check=True, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - start


class Bench:
    """Runs and checks operations on one workload's generated scenes."""

    def __init__(self, workload, scene_dir: Path, manifest: dict, out_root: Path, jobs: int):
        import checks
        import specscan.cli

        self.cli = specscan.cli
        self.checks = checks
        self.workload = workload
        self.scene_dir = scene_dir
        self.manifest = manifest
        self.out_root = out_root
        self.jobs = jobs
        self.seen: dict[str, str] = {}  # "scene/application" -> first digest
        self.cycle = len(workload.operations)
        scenes = manifest["scenes"]
        self.samples = sum(s["height"] * s["width"] * s["bands"] for s in scenes)
        self.load_bytes = sum(
            (scene_dir / s["header"]).stat().st_size + (scene_dir / s["header"]).with_suffix(".raw").stat().st_size
            for s in scenes
        )

    def argv(self, k: int, jobs: int) -> list[str]:
        application, *flags = self.workload.operations[k % self.cycle]
        library = str(self.scene_dir / (self.manifest["library"] or ""))
        argv = ["pipeline", "run", "--application", application, "--out", str(self.out_root / application)]
        argv += [flag.replace("{library}", library) for flag in flags]
        for scene in self.manifest["scenes"]:
            argv += ["--cube", str(self.scene_dir / scene["header"])]
        return argv + ["--jobs", str(jobs)]

    def run_op(self, k: int, jobs: int | None = None) -> tuple[float, str | None]:
        """Run operation `k`; returns its wall seconds and an error, if any."""
        argv = self.argv(k, jobs or self.jobs)
        shutil.rmtree(self.out_root / self.workload.operations[k % self.cycle][0], ignore_errors=True)
        error = None
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an operation that raises is a failed operation
                code, error = None, repr(exc)
            seconds = time.perf_counter() - start
        if code != 0 and error is None:
            error = f"exit code {code}: {stderr.getvalue().strip()[-500:]}"
        return seconds, error

    def check(self, k: int, seconds: float, error: str | None) -> dict:
        application = self.workload.operations[k % self.cycle][0]
        record = {"k": k, "application": application, "seconds": seconds, "problems": [], "scenes": []}
        if error is not None:
            record["problems"].append(error)
            return record
        scenes = self.manifest["scenes"]
        for scene in scenes:
            out_dir = self.out_root / application
            if len(scenes) > 1:
                out_dir = out_dir / scene["id"]
            result = self.checks.check_scene(out_dir, scene)
            result["key"] = f"{scene['id']}/{application}"
            digest = result.get("digest")
            if digest is not None and self.seen.setdefault(result["key"], digest) != digest:
                result["problems"].append("outputs differ from an earlier repeat")
            record["problems"] += [f"{result['key']}: {p}" for p in result["problems"]]
            record["scenes"].append(result)
        return record

    def op(self, k: int, jobs: int | None = None) -> dict:
        seconds, error = self.run_op(k, jobs)
        return self.check(k, seconds, error)

    def loop(self, seconds: float, setup: list[float] | None = None, argv=()) -> list[dict]:
        """Closed loop until `seconds` of operation time, ending on a whole cycle.

        Each operation's record gets ``cal_s``, the calibration kernel's
        seconds measured right after it at the workload's --jobs. With a
        `setup` list, SETUP_REPEATS set-up launches of `argv` run between
        operations, one each time another SETUP_REPEATS-th of `seconds` has been
        measured, and their times are appended to it.
        """
        records, timed = [], 0.0
        while not records or timed < seconds or len(records) % self.cycle:
            if setup is not None and len(setup) < SETUP_REPEATS and timed >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(time_setup(argv))
            records.append(self.op(len(records)))
            records[-1]["cal_s"] = kernel_seconds(self.jobs)
            timed += records[-1]["seconds"]
        while setup is not None and len(setup) < SETUP_REPEATS:
            setup.append(time_setup(argv))
        return records

    def alternate(self, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
        """Whole cycles untraced and traced in turn, until each side has `seconds` of operation time.

        Taking turns keeps slow drifts in host speed out of the traced / untraced ratio.
        """
        untraced, traced = [], []
        while min(sum(r["seconds"] for r in side) for side in (untraced, traced)) < seconds:
            for side in (untraced, traced):
                if side is traced:
                    tracer.install()
                try:
                    for _ in range(self.cycle):
                        tracer.op = len(untraced) + len(traced)
                        side.append(self.op(tracer.op))
                finally:
                    tracer.uninstall()
        return untraced, traced


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def detector_madds(application: str, manifest: dict) -> int:
    """Multiply-adds of the detector kernels, computed from shapes."""
    detector = application.rsplit("_", 1)[-1]
    if detector not in ("sam", "mf", "rx"):
        return 0
    total = 0
    for s in manifest["scenes"]:
        n, b = s["height"] * s["width"], s["bands"]
        valid = (s["height"] - 2 * s["border"]) * (s["width"] - 2 * s["border"])
        if detector == "sam":
            total += 3 * n * b  # pixel norm, difference and sum norms
        else:
            total += valid * b * b + n * b * b // 2 + n * b  # covariance, whitening solve, dot
    return total


def ok(record: dict) -> bool:
    return not record["problems"]


def op_p50(records: list[dict], cycle: int) -> float:
    """Median over whole cycles of the cycle's mean operation seconds."""
    times = [r["seconds"] for r in records]
    return statistics.median(statistics.fmean(times[i:i + cycle]) for i in range(0, len(times), cycle))


def end_to_end(records: list[dict], bench: Bench, setup: list[float]) -> tuple[dict, dict]:
    """The result line's metrics, and the ones printed beside them that drift with the host."""
    times = [r["seconds"] for r in records]
    done = [r["seconds"] for r in records if ok(r)]
    gated = {
        "op_cal.mean": statistics.fmean(times) / statistics.fmean(r["cal_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    tail_s, percentile = tail(times)
    printed = {
        "op_s.p50": (op_p50(records, bench.cycle), "s", f"{len(records) // bench.cycle} cycles of {bench.cycle}"),
        "throughput_msamples_s": (bench.samples * len(done) / sum(times) / 1e6, "Msamples/s", ""),
        "calibration_s.mean": (statistics.fmean(r["cal_s"] for r in records), "s", f"threads={bench.jobs}"),
        "op_s.tail": (tail_s, "s", f"p{percentile:.0f} of n={len(times)}"),
    }
    return gated, printed


def _per_op_median(per_op: dict) -> float:
    """Median over the operations that have a value; 0 when none do."""
    return statistics.median(per_op.values()) if per_op else 0


def per_layer(traced, untraced, spans, self_time, memory_spans, bench, speedup, outputs_changed) -> dict:
    metrics = {}
    inclusive = defaultdict(dict)  # name -> {op: seconds}
    own = defaultdict(dict)
    counts = defaultdict(dict)
    layer_self = defaultdict(float)
    for span in spans:
        name, op = span["name"], span["op"]
        inclusive[name][op] = inclusive[name].get(op, 0.0) + span["end"] - span["start"]
        own[name][op] = own[name].get(op, 0.0) + self_time[span["id"]]
        layer_self[name.split(".")[0]] += self_time[span["id"]]
        for metric, source in SPAN_COUNTS.items():
            if name == source:
                counts[metric][op] = counts[metric].get(op, 0) + span.get(metric.split(".")[1], 0)
    for name in TIMED_FUNCTIONS:
        metrics[f"{name}_s"] = _per_op_median(inclusive[name])
    for metric, name in SELF_TIMED.items():
        metrics[metric] = _per_op_median(own[name])
    for name in MEMORY_SPANS:
        peaks = [s["peak_mb"] for s in memory_spans if s["name"] == name]
        metrics[f"{name}_peak_mb"] = max(peaks, default=0.0)
    for metric in SPAN_COUNTS:
        metrics[metric] = _per_op_median(counts[metric])

    good = [r for r in traced if ok(r)]
    metrics["cube.load_bytes"] = bench.load_bytes
    metrics["cube.write_bytes"] = _per_op_median({r["k"]: sum(s["bytes_written"] for s in r["scenes"]) for r in good})
    metrics["pipeline.components"] = _per_op_median({r["k"]: sum(s["components"] for s in r["scenes"]) for r in good})
    nodata = {s["key"]: s["nodata_positive_px"] for r in good for s in r["scenes"]}
    metrics["pipeline.nodata_positive_px"] = sum(nodata.values())
    metrics["computed.samples"] = bench.samples
    madds = {r["k"]: detector_madds(r["application"], bench.manifest) for r in traced}
    metrics["computed.detector_madds"] = _per_op_median({k: v for k, v in madds.items() if v})
    metrics["cli.parallel_speedup"] = speedup
    metrics["trace.overhead_frac"] = (
        op_p50(traced, bench.cycle) / op_p50(untraced, bench.cycle) - 1.0
    )
    metrics["trace.stage_agreement"] = stage_agreement(traced, spans)
    total_self = sum(layer_self.values())
    for layer in SHARE_LAYERS:
        metrics[f"self_share.{layer}"] = layer_self[layer] / total_self
    metrics["outputs_changed"] = outputs_changed
    return metrics


def stage_agreement(records: list[dict], spans: list[dict]) -> float:
    """Lowest, over stages, of wrapped-call time / the stage time run_pipeline recorded.

    Only (scene, stage) pairs that called a wrapped function count. The
    ``write`` stage is left out: ``report.json`` is written inside it, before
    its own time is known.
    """
    scene_span = {(s["op"], s["scene_id"]): s["id"] for s in spans if s["name"] == "pipeline.run_pipeline"}
    under = defaultdict(lambda: defaultdict(float))  # run_pipeline span id -> name -> seconds
    for s in spans:
        if s["parent"] is not None:
            under[s["parent"]][s["name"]] += s["end"] - s["start"]
    covered, recorded = defaultdict(float), defaultdict(float)
    for r in records:
        for scene in r["scenes"]:
            if "stages" not in scene:
                continue
            children = under[scene_span[(r["k"], scene["key"].split("/")[0])]]
            for stage, names in STAGE_SPANS.items():
                seconds = sum(children[n] for n in names)
                if seconds > 0:
                    covered[stage] += seconds
                    recorded[stage] += scene["stages"][stage]
    return min((covered[s] / recorded[s] for s in covered), default=0.0)


def parallel_speedup(bench: Bench) -> tuple[float, list[dict]]:
    """Operation wall time at --jobs 1 over that at the workload's --jobs, alternating, untraced."""
    if bench.jobs < 2 or len(bench.manifest["scenes"]) < 2:
        return 1.0, []
    records = []
    serial = parallel = 0.0
    for _ in range(SPEEDUP_REPEATS):
        for k in range(bench.cycle):
            records.append(bench.op(k, jobs=1))
            serial += records[-1]["seconds"]
            records.append(bench.op(k))
            parallel += records[-1]["seconds"]
    return serial / parallel, records


def memory_pass(bench: Bench) -> tuple[list[dict], list[dict]]:
    """One operation per application under tracemalloc, one scene at a time."""
    tracer = Tracer(memory=True)
    tracer.install()
    tracemalloc.start()
    try:
        records = [bench.op(k, jobs=1) for k in range(bench.cycle)]
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    return tracer.spans, records


def reference_digests(workload, size: str, scene_dir: Path, work: Path, jobs: int) -> tuple[dict, list[dict]]:
    """Digest of every (scene, application) of the reference-seed scenes."""
    manifest = generate_scenes(workload.name, REFERENCE_SEED, size, scene_dir)
    bench = Bench(workload, scene_dir, manifest, work, jobs)
    records = [bench.op(k) for k in range(bench.cycle)]
    return bench.seen, records


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}


def blas_libraries() -> dict:
    """Config string and current thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return {}
    libraries = {}
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                libraries[Path(path).name] = {"config": config().decode(), "threads": threads()}
                break
    return libraries


def environment(jobs: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, so it is listed too)

    caches = {}
    for level in ("L2", "L3"):
        try:
            size = subprocess.run(["getconf", f"LEVEL{level[1]}_CACHE_SIZE"],
                                  capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            size = ""
        caches[level] = f"{int(size) / 2**20:g} MiB" if size.isdigit() else "unknown"
    thread_vars = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v in os.environ}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "caches": caches,
        "blas": blas_libraries(),
        "blas_thread_env": thread_vars,
        "cli_jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def cli_jobs(workload) -> int:
    """The workload's --jobs, never more than the CPUs this process may use."""
    return min(workload.jobs, len(os.sched_getaffinity(0)))


def run(workload, seed: int, seconds: float, trace: bool, size: str, run_dir: Path) -> dict:
    """Generate, set up, measure and check one workload; returns the full record."""
    jobs = cli_jobs(workload)
    scene_dir = run_dir / "scenes"
    manifest = generate_scenes(workload.name, seed, size, scene_dir)
    sys.path.insert(0, str(SRC))
    bench = Bench(workload, scene_dir, manifest, run_dir / "out", jobs)
    warmup = [bench.op(k) for k in range(bench.cycle)]
    # A traced run splits its time between untraced and traced cycles, and skips set-up timing.
    if trace:
        setup, tracer = None, Tracer()
        untraced, traced = bench.alternate(seconds / 2, tracer)
    else:
        setup = []
        untraced = bench.loop(seconds, setup=setup, argv=setup_argv(scene_dir, manifest))
    record = {
        "workload": workload.name, "seed": seed, "size": size, "seconds": seconds, "jobs": jobs, "cycle": bench.cycle,
        "setup_runs_s": setup, "op_s": [r["seconds"] for r in untraced],
        "calibration_s": [r.get("cal_s") for r in untraced],
        "environment": environment(jobs),
    }
    checked = [*warmup, *untraced]
    if not trace:
        record["metrics"], record["printed"] = end_to_end(untraced, bench, setup)
    else:
        memory_spans, memory_records = memory_pass(bench)
        speedup, speedup_records = parallel_speedup(bench)
        if seed == REFERENCE_SEED:
            digests, reference_records = bench.seen, []
        else:
            digests, reference_records = reference_digests(
                workload, size, run_dir / "reference_scenes", run_dir / "reference_out", jobs
            )
        recorded = load_reference().get(size, {}).get(workload.name, {})
        changed = sum(digests.get(key) != value for key, value in recorded.items())
        changed += sum(key not in recorded for key in digests)
        checked += [*traced, *memory_records, *speedup_records, *reference_records]
        self_time = self_times(tracer.spans)
        record["metrics"] = per_layer(traced, untraced, tracer.spans, self_time, memory_spans, bench, speedup, changed)
        record["self_s_by_function"] = function_self_times(tracer.spans, self_time)
        record["spans"] = tracer
    record["attempted"] = len(checked)
    record["failed"] = sum(not ok(r) for r in checked)
    record["failed_frac"] = record["failed"] / record["attempted"]
    record["failures"] = [{"k": r["k"], "problems": r["problems"]} for r in checked if not ok(r)][:20]
    return record


def function_self_times(spans: list[dict], self_time: dict) -> dict:
    own = defaultdict(float)
    for span in spans:
        own[span["name"]] += self_time[span["id"]]
    return dict(sorted(own.items(), key=lambda item: -item[1]))


def report(record: dict, trace: bool) -> list[str]:
    """Human-readable lines naming every metric with its unit."""
    table = PER_LAYER if trace else END_TO_END
    n = len(record["op_s"])
    lines = [
        f"workload {record['workload']} seed {record['seed']} size {record['size']}: "
        f"{n} untraced operations, closed loop, 1 client, --jobs {record['jobs']}"
    ]
    notes = {"op_cal.mean": f"{n // record['cycle']} cycles of {record['cycle']}", "setup_s": f"median of {SETUP_REPEATS}"}
    for name, unit in table.items():
        lines.append(f"  {name:38s} {record['metrics'][name]:>16.6g} {unit:11s} {KIND.get(name, 'measured'):9s} "
                     f"{notes.get(name, '')}")
    for name, (value, unit, note) in record.get("printed", {}).items():
        lines.append(f"  {name:38s} {value:>16.6g} {unit:11s} measured  {note + ', ' if note else ''}not gated")
    lines.append(f"  {'failed_frac':38s} {record['failed_frac']:>16.6g} {'ratio':11s} measured  "
                 f"{record['failed']}/{record['attempted']} operations")
    env = record["environment"]
    blas = ", ".join(f"{' '.join(lib['config'].split()[:2])} threads={lib['threads']}" for lib in env["blas"].values())
    lines.append(
        f"  env: nproc {env['nproc']}, BLAS {blas or 'not found'} (env {env['blas_thread_env'] or 'unset'}), "
        f"caches {env['caches']}, python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}"
    )
    if trace:
        top = list(record["self_s_by_function"].items())[:6]
        total = sum(record["self_s_by_function"].values())
        lines.append("  largest self time: " + ", ".join(f"{n} {s / total:.0%}" for n, s in top))
    return lines


def record_reference(workload, size: str, run_dir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    digests, records = reference_digests(workload, size, run_dir / "scenes", run_dir / "out", cli_jobs(workload))
    if any(not ok(r) for r in records):
        raise SystemExit(f"reference operations failed: {[r['problems'] for r in records]}")
    table = load_reference()
    table.setdefault(size, {})[workload.name] = dict(sorted(digests.items()))
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="operation time measured per loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test scenes")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"record the seed-{REFERENCE_SEED} output digests into {REFERENCE.name} and exit")
    args = parser.parse_args(argv)
    if not (SRC / "specscan" / "cli.py").is_file():
        print(f"perfbench: no specscan sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    jobs = cli_jobs(workload)
    if jobs > 1:
        # Keep scenes in flight x BLAS threads within the CPUs; numpy is not imported yet.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0)) // jobs))
    run_dir = WORK / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        if args.record_reference:
            digests = record_reference(workload, args.size, run_dir)
            print(f"recorded {len(digests)} digests for {args.size}/{args.workload}")
            return 0
        record = run(workload, args.seed, args.seconds, bool(args.trace), args.size, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / run_dir.name
    tracer = record.pop("spans", None)
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    table = PER_LAYER if args.trace else END_TO_END
    for line in report(record, bool(args.trace)):
        print(line)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
