"""The package's own namespace: ``import ratecert`` loads its re-exports on
first access, so importing it costs no numpy, and each name is still the
object its module defines."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ratecert

README = Path(__file__).resolve().parents[1] / "README.md"


def test_import_ratecert_loads_no_numpy():
    # Nothing imports model or simulator before the script reads them, so
    # both go through the package's lazy submodule attribute.
    script = ("import sys, ratecert\n"
              "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
              "ratecert.model\n"
              "assert 'numpy' not in sys.modules, 'numpy loaded by model'\n"
              "ratecert.certify\n"
              "assert 'numpy' not in sys.modules, 'numpy loaded by certify'\n"
              "ratecert.augment\n"
              "assert 'numpy' in sys.modules\n"
              "assert ratecert.simulator is sys.modules['ratecert.simulator']\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ratecert.__all__)
def test_every_export_is_the_object_its_module_defines(name):
    obj = getattr(ratecert, name)
    if isinstance(obj, types.ModuleType):
        assert obj is importlib.import_module(f"ratecert.{name}")
    elif isinstance(obj, str):  # the multiplier kinds
        assert obj is getattr(importlib.import_module("ratecert.search"), name)
    else:
        assert obj.__module__.startswith("ratecert.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from ratecert import *", namespace)
    assert set(ratecert.__all__) <= namespace.keys()
    assert set(ratecert.__all__) <= set(dir(ratecert))
    with pytest.raises(AttributeError):
        ratecert.no_such_name


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(from ratecert import .*?)```", text, re.S)
    exec(compile(code, str(README), "exec"), {})
