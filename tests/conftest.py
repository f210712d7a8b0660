import numpy as np
import pytest

from specscan import BandMeta, RasterCube, ScoreMap

RGBN = ("blue", "green", "red", "nir")


def cube_from_planes(planes, nodata=None, wavelengths=None):
    """Build a cube from a {role: 2-D plane} mapping (band order = dict order)."""
    roles = list(planes)
    data = np.stack([np.asarray(planes[r], dtype=np.float32) for r in roles])
    meta = [
        BandMeta(
            name=f"{role}_band",
            role=role,
            wavelength_nm=None if wavelengths is None else wavelengths[i],
        )
        for i, role in enumerate(roles)
    ]
    return RasterCube(data=data, band_meta=meta, nodata=nodata)


def score_map(values):
    """A ``BandValue`` score map of `values`; a 1-D array becomes one row."""
    values = np.asarray(values, dtype=np.float64)
    return ScoreMap(data=values.reshape(1, -1) if values.ndim == 1 else values, score_kind="BandValue")


def random_cube(rng, bands=4, height=8, width=8, roles=True):
    """Uniform [0, 1) cube; first four bands get blue/green/red/nir roles."""
    data = rng.random((bands, height, width), dtype=np.float32)
    meta = []
    for i in range(bands):
        role = RGBN[i] if roles and i < 4 and bands >= 4 else "other"
        meta.append(BandMeta(name=f"band_{i}", role=role))
    return RasterCube(data=data, band_meta=meta)


@pytest.fixture
def make_cube():
    return cube_from_planes


@pytest.fixture
def make_random_cube():
    return random_cube
