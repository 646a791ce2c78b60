"""The benchmark's per-layer spans wrap module-level names of ratecert.  A
wrapped name that disappears is only recorded as missing there, which blanks
its metrics without failing the run; this test makes it fail here instead."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(f"ratecert.{mod}"), attr, None))
    ]
    assert missing == []
