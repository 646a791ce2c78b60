"""The benchmark reads module-level names of ratecert: its per-layer spans
wrap some, and its loop, output checks and quality summary call or read
others.  A wrapped name that disappears is only recorded as missing there,
which blanks its metrics without failing the run, and any other missing name
crashes every benchmark run; these tests make both fail here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ratecert.model import FunctionClass, interval_from_c
from ratecert.search import certify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# What perfbench/run.py's load_program imports, and what its loop and
# oracle.py call on those modules outside the tracing hooks.
LOADED_MODULES = ("cli", "certifier", "ellipsoid", "simulator")
CALLED = (("cli", "main"), ("cli", "certify"),
          ("certifier", "verify_certificate"), ("certifier", "closed_form_rate"))
# Certificate attributes read by oracle.py's checks and run.py's quality().
CERT_ATTRS = ("grid", "rho_star", "rho_tol", "interval", "fc", "feasible")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing_callables(names):
    return [
        f"{mod}.{attr}"
        for mod, attr in names
        if not callable(getattr(importlib.import_module(f"ratecert.{mod}"), attr, None))
    ]


def test_every_wrapped_name_exists():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    assert _missing_callables((mod, attr) for mod, attr, _ in wrapped) == []


@pytest.mark.parametrize("mod", LOADED_MODULES)
def test_loaded_module_imports(mod):
    importlib.import_module(f"ratecert.{mod}")


def test_every_called_name_exists():
    assert _missing_callables(CALLED) == []


@pytest.mark.parametrize("c", [1.2, 2.1], ids=["certified", "uncertified"])
def test_certificate_attributes_read_by_the_benchmark(c):
    fc = FunctionClass(1.0, 10.0)
    cert = certify(fc, interval_from_c(fc, c))
    missing = [name for name in CERT_ATTRS if not hasattr(cert, name)]
    assert missing == []
    assert len(cert.grid) == 2


def test_simulate_reaches_every_wrapped_simulator_name(tmp_path, capsys, monkeypatch):
    # The simulator's per-layer metrics (step_us, sample_alpha_frac,
    # runs_per_op) read the spans of these names; a simulate that stops
    # calling one blanks them without failing the benchmark.
    names = [(mod, attr) for mod, attr, layer in _load_tracing().WRAPPED
             if layer == "simulator"]
    assert names
    calls = dict.fromkeys(names, 0)
    for mod, attr in names:
        module = importlib.import_module(f"ratecert.{mod}")
        original = getattr(module, attr)

        def counting(*args, _key=(mod, attr), _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    cli = importlib.import_module("ratecert.cli")
    assert cli.main(["simulate", "--kappa", "5", "--c", "1.2", "--trials", "7",
                     "--steps", "20", "--policy", "uniform",
                     "--out", str(tmp_path / "sim.csv")]) == 0
    capsys.readouterr()
    assert [name for name, count in calls.items() if count == 0] == []


def test_certify_reaches_every_wrapped_certifier_and_ellipsoid_name(monkeypatch):
    # The per-layer metrics of certify-dynamic read the spans of these names;
    # a name kept only so that it exists would blank them without failing
    # the benchmark.  Between them, a wob1 and a zf:2 certify, a replay and
    # a sector certificate's slack must call every one.
    names = [(mod, attr) for mod, attr, _ in _load_tracing().WRAPPED
             if mod in ("certifier", "ellipsoid")]
    assert names
    calls = dict.fromkeys(names, 0)
    for mod, attr in names:
        module = importlib.import_module(f"ratecert.{mod}")
        original = getattr(module, attr)

        def counting(*args, _key=(mod, attr), _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    fc = FunctionClass(1.0, 10.0)
    interval = interval_from_c(fc, 1.2)
    wob1 = certify(fc, interval, iqc_kind="wob1")
    certify(fc, interval, iqc_kind="zf", zf_order=2)
    certifier = importlib.import_module("ratecert.certifier")
    assert certifier.verify_certificate(wob1)
    assert certify(fc, interval).slack <= 0.0
    assert [name for name, count in calls.items() if count == 0] == []
