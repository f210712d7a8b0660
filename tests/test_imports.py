"""Imports: every name a module imports is used, and scipy loads only to whiten."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from specscan import save_cube
from test_cli import write_library
from test_pipeline import hazy_scene

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "specscan"


# __init__.py is exempt: it imports names to re-export them.
@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


# Runs in a fresh interpreter: prints the scipy modules loaded after the
# import, then after each pipeline run, in order.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import specscan, specscan.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")

loaded = [["import", 0, scipy_modules()]]
cube, out = sys.argv[2:4]
for application, *flags in json.loads(sys.argv[4]):
    argv = ["pipeline", "run", "--application", application, "--cube", cube, "--out", f"{out}/{application}"]
    loaded.append([application, specscan.cli.main(argv + flags), scipy_modules()])
print(json.dumps(loaded))
"""


def test_scipy_loads_only_when_an_application_whitens(tmp_path):
    cube = tmp_path / "scene.json"
    save_cube(hazy_scene(), cube)
    target = ["--library", str(write_library(tmp_path)), "--target", "veg"]
    runs = [["surface_water"], ["thermal", "--low", "0.5"], ["clouds"], ["vegetation_sam", *target], ["vegetation_rx"]]
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(PACKAGE.parent), str(cube), str(tmp_path / "out"), json.dumps(runs)],
        check=True, capture_output=True, text=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded[:-1] == [[step, 0, []] for step in ("import", "surface_water", "thermal", "clouds", "vegetation_sam")]
    step, code, modules = loaded[-1]
    assert (step, code) == ("vegetation_rx", 0) and "scipy.linalg" in modules


def test_cli_import_loads_neither_statistics_nor_concurrent_futures():
    # statistics pulls in fractions and decimal, and the thread pool logging;
    # only a batch of scenes on more than one job needs the pool.
    probe = "import json, sys; sys.path.insert(0, sys.argv[1]); import specscan.cli; print(json.dumps(list(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent)], check=True, capture_output=True, text=True)
    loaded = json.loads(done.stdout)
    assert "specscan.cli" in loaded
    assert [name for name in ("statistics", "concurrent.futures") if name in loaded] == []
