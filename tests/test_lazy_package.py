"""The package imports numpy only when the geometry is first used.

The fresh-interpreter checks run in a subprocess, since this test process
has loaded numpy and the geometry long before.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import edgebalance

SRC = os.path.dirname(os.path.dirname(os.path.abspath(edgebalance.__file__)))
GEOMETRY = ("montecarlo", "ndim", "planar", "svg")
HOMES = ("polynomials", "sequences", "report", "montecarlo", "ndim", "planar")


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_number_commands_never_import_numpy():
    code = """
import contextlib, io, json, sys
from edgebalance import cli
for argv in (["constant", "3"], ["table", "--k-max", "64"], ["seq", "4", "--seeds", "doubling"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout))
    assert "numpy" not in loaded
    assert not loaded & {f"edgebalance.{module}" for module in GEOMETRY}


def test_geometry_import_does_not_load_numpy_random():
    # compared with what numpy loads itself: numpy 1.24 imports numpy.random
    code = """
import json, sys
import numpy
before = set(sys.modules)
import edgebalance.planar, edgebalance.montecarlo
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    assert "edgebalance.montecarlo" in loaded
    assert [m for m in loaded if m == "numpy.random" or m.startswith("numpy.random.")] == []


@pytest.mark.parametrize("name", ["Circle", "McEstimate", "volume_kd", "ndim", "shapes"])
def test_one_geometry_name_loads_the_whole_group(name):
    code = f"""
import json, sys
import edgebalance
before = [m for m in {GEOMETRY!r} if "edgebalance." + m in sys.modules]
getattr(edgebalance, {name!r})
after = [m for m in {GEOMETRY!r} if "edgebalance." + m in sys.modules]
print(json.dumps([before, after]))
"""
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [[], list(GEOMETRY)]


def test_missing_shape_file_exits_two_in_a_fresh_interpreter(tmp_path):
    run = run_python("-m", "edgebalance.cli", "excise", "--shape", str(tmp_path / "missing.json"))
    assert run.returncode == 2
    assert run.stdout == ""
    assert "cannot read shape file" in run.stderr


def test_every_public_name_is_its_module_attribute():
    for name in edgebalance.__all__:
        value = getattr(edgebalance, name)
        homes = [
            module
            for module in (importlib.import_module(f"edgebalance.{m}") for m in HOMES)
            if hasattr(module, name)
        ]
        assert homes, name
        assert all(getattr(module, name) is value for module in homes), name


def test_dir_and_star_import_cover_all():
    assert set(edgebalance.__all__) <= set(dir(edgebalance))
    namespace = {}
    exec("from edgebalance import *", namespace)
    assert set(edgebalance.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(edgebalance, name) for name in edgebalance.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        edgebalance.no_such_name  # noqa: B018
    assert not hasattr(edgebalance, "no_such_name")
