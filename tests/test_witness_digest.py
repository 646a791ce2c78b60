"""tools/witness_digest.py, the check behind every claim of bit-identical
certificates, runs end to end on a few draws of each family."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "witness_digest.py"


@pytest.mark.parametrize("family", ["dynamic", "sector", "sweep-c"])
def test_witness_digest_runs(family):
    proc = subprocess.run([sys.executable, str(TOOL), "--family", family, "--draws", "10"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("draws 10, seed 2026, certified "), lines
    assert re.fullmatch(r"[0-9a-f]{64}", lines[-1]), lines
    if family == "dynamic":
        spread = r"mean \d+\.\d{4}, max \d+"
        assert re.fullmatch(f"Newton steps per certification: {spread}", lines[1]), lines
        assert re.fullmatch(f"solves per certification: {spread}", lines[2]), lines
