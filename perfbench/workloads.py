"""The benchmark's workloads: scene shapes and the pipeline operations cycled on them.

Each operation is one ``specscan pipeline run`` over every scene of the
workload. ``{library}`` in an operation's flags stands for the generated
spectral library CSV.
"""

from __future__ import annotations

from dataclasses import dataclass

NODATA = -9999.0
BORDER_PX = 16


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "structured" (smooth background, blobs, nodata border) or "noise"
    shapes: dict  # size name -> (height, width, bands)
    scene_count: int
    operations: tuple  # each: (application, *extra pipeline-run flags)
    jobs: int = 1

    @property
    def uses_library(self) -> bool:
        return any("{library}" in op for op in self.operations)


_LIB = ("--library", "{library}")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hyper48",
            kind="structured",
            shapes={"full": (512, 512, 48), "tiny": (64, 64, 48)},
            scene_count=1,
            operations=(
                ("vegetation_mf", *_LIB, "--target", "vegetation"),
                ("vegetation_rx",),
                ("mineral_sam", *_LIB, "--target", "mineral"),
            ),
        ),
        Workload(
            name="fragmented",
            kind="noise",
            shapes={"full": (1024, 1024, 8), "tiny": (64, 64, 8)},
            scene_count=1,
            operations=(("vegetation_rx",), ("surface_water",), ("thermal", "--low", "0.6")),
        ),
        Workload(
            name="wide4",
            kind="structured",
            shapes={"full": (2048, 2048, 4), "tiny": (96, 96, 4)},
            scene_count=1,
            operations=(("clouds",), ("surface_water",), ("thermal", "--low", "0.6")),
        ),
        Workload(
            name="batch",
            kind="structured",
            shapes={"full": (512, 512, 8), "tiny": (48, 48, 8)},
            scene_count=8,
            operations=(("vegetation_rx",), ("surface_water",)),
            jobs=2,
        ),
    )
}
