"""Generate a workload's scenes from a seed, as files only.

    python3 perfbench/scenes.py --workload hyper48 --seed 1 --out DIR [--size tiny]

Writes ``scene*.json`` cube headers with raw little-endian float32 BSQ
payloads, an optional ``library.csv``, and ``manifest.json``. The cube format
is written here directly, not through specscan, so the inputs do not change
when the program under test does. The same (workload, seed, size) always
yields byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from workloads import BORDER_PX, NODATA, WORKLOADS

_ROLE_WAVELENGTHS = {"blue": 480.0, "green": 560.0, "red": 660.0, "nir": 860.0}
_GRID_8 = [480.0, 560.0, 660.0, 860.0, 1240.0, 1640.0, 2130.0, 2200.0]


def band_grid(bands: int) -> list[tuple[float, str]]:
    """(wavelength_nm, role) per band."""
    if bands == 4:
        wavelengths = list(_ROLE_WAVELENGTHS.values())
    elif bands == 8:
        wavelengths = _GRID_8
    else:
        wavelengths = [float(v) for v in np.linspace(400.0, 2450.0, bands)]
    roles = ["other"] * bands
    for role, target in _ROLE_WAVELENGTHS.items():
        roles[int(np.argmin([abs(wl - target) for wl in wavelengths]))] = role
    return list(zip(wavelengths, roles))


def _gauss(wl, centre, width):
    return np.exp(-0.5 * ((wl - centre) / width) ** 2)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def endmembers(wl: np.ndarray) -> dict[str, np.ndarray]:
    """Reflectance spectra of the scene materials at wavelengths `wl` (nm)."""
    leafy = 0.04 + 0.42 * _sigmoid((wl - 715.0) / 12.0) - 0.25 * _sigmoid((wl - 1350.0) / 60.0)
    leafy = leafy - 0.1 * _gauss(wl, 1450.0, 40.0) - 0.1 * _gauss(wl, 1950.0, 50.0)
    return {
        "soil": 0.12 + 0.18 * (wl - 400.0) / 2100.0 - 0.03 * _gauss(wl, 2200.0, 60.0),
        "grass": np.maximum(leafy + 0.06 * _gauss(wl, 550.0, 35.0), 0.01),
        "vegetation": np.maximum(0.8 * leafy + 0.12 * _gauss(wl, 560.0, 30.0) + 0.05, 0.01),
        "mineral": 0.35 + 0.05 * (wl - 400.0) / 2100.0 - 0.15 * _gauss(wl, 2200.0, 40.0)
        - 0.08 * _gauss(wl, 900.0, 80.0),
        "water": 0.09 * np.exp(-np.maximum(wl - 450.0, 0.0) / 250.0),
        "haze": 0.3 * (480.0 / wl) ** 2,
    }


def _smooth_field(rng, height, width, terms=4):
    y = np.arange(height) / height
    x = np.arange(width) / width
    field = np.zeros((height, width))
    for _ in range(terms):
        fy, fx = rng.uniform(0.5, 3.0, 2)
        py, px = rng.uniform(0.0, 2.0 * np.pi, 2)
        field += np.outer(np.cos(2 * np.pi * fy * y + py), np.cos(2 * np.pi * fx * x + px))
    return (field - field.min()) / (field.max() - field.min())


def _add_blobs(rng, fraction, count, r_lo, r_hi, value):
    height, width = fraction.shape
    for _ in range(count):
        r = rng.uniform(r_lo, r_hi)
        cy = rng.uniform(BORDER_PX + r, height - BORDER_PX - r)
        cx = rng.uniform(BORDER_PX + r, width - BORDER_PX - r)
        y0, y1 = int(cy - r), int(cy + r) + 1
        x0, x1 = int(cx - r), int(cx + r) + 1
        yy, xx = np.ogrid[y0:y1, x0:x1]
        inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        fraction[y0:y1, x0:x1][inside] = value


def structured_scene(rng, height, width, bands) -> np.ndarray:
    """Smooth grass/soil mix with haze, target and water blobs, nodata border."""
    wl = np.array([w for w, _ in band_grid(bands)])
    spectra = endmembers(wl)
    scale = max(height, width) / 512.0
    area_units = max(1, height * width // 65536)
    materials = ("grass", "soil", "haze", "vegetation", "mineral", "water")
    grass = _smooth_field(rng, height, width)
    haze = 0.15 * _smooth_field(rng, height, width) ** 4
    targets = {name: np.zeros((height, width)) for name in ("vegetation", "mineral", "water")}
    _add_blobs(rng, targets["vegetation"], 4 * area_units, 3 * scale, 9 * scale, 0.8)
    _add_blobs(rng, targets["mineral"], 4 * area_units, 3 * scale, 9 * scale, 0.8)
    _add_blobs(rng, targets["water"], 2 * area_units, 10 * scale, 30 * scale, 1.0)
    covered = np.clip(targets["vegetation"] + targets["mineral"] + targets["water"], 0.0, 1.0)
    rest = 1.0 - covered
    abundance = np.stack(
        [grass * rest, (1.0 - grass) * rest, haze, targets["vegetation"], targets["mineral"], targets["water"]]
    ).reshape(len(materials), -1)
    matrix = np.stack([spectra[name] for name in materials], axis=1)  # (bands, materials)
    data = (matrix @ abundance).reshape(bands, height, width).astype(np.float32)
    data += rng.normal(0.0, 0.004, data.shape).astype(np.float32)
    np.maximum(data, np.float32(0.001), out=data)
    data[:, :BORDER_PX, :] = NODATA
    data[:, -BORDER_PX:, :] = NODATA
    data[:, :, :BORDER_PX] = NODATA
    data[:, :, -BORDER_PX:] = NODATA
    return data


def noise_scene(rng, height, width, bands) -> np.ndarray:
    return rng.random((bands, height, width), dtype=np.float32)


def write_cube(header_path: Path, data: np.ndarray, nodata: float | None) -> None:
    bands, height, width = data.shape
    header = {
        "width": width,
        "height": height,
        "bands": bands,
        "dtype": "f32",
        "interleave": "bsq",
        "byte_order": "little",
        "payload": header_path.stem + ".raw",
        "nodata": nodata,
        "bands_meta": [
            {"name": f"band_{i}", "role": role, "wavelength_nm": wl}
            for i, (wl, role) in enumerate(band_grid(bands))
        ],
    }
    header_path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
    data.astype("<f4", copy=False).tofile(header_path.with_suffix(".raw"))


def write_library(path: Path) -> None:
    wl = np.arange(350.0, 2551.0, 10.0)
    spectra = endmembers(wl)
    lines = ["label,wavelength_nm,value"]
    for label in ("vegetation", "mineral"):
        lines += [f"{label},{w:.1f},{v:.6f}" for w, v in zip(wl, spectra[label])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload_name: str, seed: int, out: Path, size: str = "full") -> dict:
    """Write the workload's scenes into `out` and return the manifest."""
    workload = WORKLOADS[workload_name]
    height, width, bands = workload.shapes[size]
    out.mkdir(parents=True, exist_ok=True)
    stream = list(WORKLOADS).index(workload_name)
    scenes = []
    for index in range(workload.scene_count):
        rng = np.random.default_rng([seed, stream, index])
        name = "scene" if workload.scene_count == 1 else f"scene{index}"
        if workload.kind == "noise":
            data, nodata, border = noise_scene(rng, height, width, bands), None, 0
        else:
            data, nodata, border = structured_scene(rng, height, width, bands), NODATA, BORDER_PX
        write_cube(out / f"{name}.json", data, nodata)
        scenes.append(
            {"id": name, "header": f"{name}.json", "height": height, "width": width,
             "bands": bands, "border": border}
        )
    library = None
    if workload.uses_library:
        library = "library.csv"
        write_library(out / library)
    manifest = {"workload": workload_name, "seed": seed, "size": size, "scenes": scenes, "library": library}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
