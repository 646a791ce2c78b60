"""tools/witness_digest.py, the check behind every claim of bit-identical
certificates, runs end to end on a few draws of each family, and its
digests, sector solve totals and the dynamic family's barrier solves and
Newton steps are pinned: a change that moves one rate, one bisection
step or one byte a simulate command writes, adds a sector solve, or moves
the barrier solver's work, fails here.  The same draws sweep soundness: no certificate they make is below
the exact worst-case rate."""

import functools
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ratecert.search import closed_form_rate

TOOL = Path(__file__).resolve().parents[1] / "tools" / "witness_digest.py"

# family -> (draws, digest) at seed 2026: the whole digest of the sector,
# sweep-c and simulate families, and the dynamic family's rates-only digest, since
# its witness P depends on each solve's start by design.  A change that
# moves rates on purpose re-pins them.
PINNED_DIGESTS = {
    "sector": (3000, "f9c20843d66055e5b7b876adaf6dd9b296885a31e8f3ada1419b68ef2cc103ad"),
    "dynamic": (300, "981089082158edf9896dc81043b82a07fb8ecc0313a621e528d2e55e02167d62"),
    "sweep-c": (300, "c87b55be1a598018ea9f03178a4b1f7d86342583d6cea3fb994023f2bed269bb"),
    "simulate": (300, "b60f8ff13ecfa6882fc20cc2fe9879b4fc965a87a8993cdce81685b2e632b8d5"),
}
# family -> sector solves (calls of ``search.sector_lambda``) over the same
# draws, so a change that adds a solve without moving a rate fails too.  A
# change that moves them on purpose re-pins them.
PINNED_SOLVES = {"sector": 9621, "sweep-c": 1812}
# The dynamic family's barrier solves and Newton steps (calls of
# ``ellipsoid._newton_system``) over the same draws: the solver's work, which
# moves when it walks a different path even where no rate does.  A change
# that moves it re-pins it with both values.
PINNED_DYNAMIC_WORK = (721, 9250)


@functools.cache
def _tool():
    """The tool, imported in-process once."""
    spec = importlib.util.spec_from_file_location("witness_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family", ["dynamic", "sector", "sweep-c", "simulate"])
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
        assert re.fullmatch(rf"Newton steps per solve: first \(cold\) {spread}; "
                            rf"later \(warm\) {spread}", lines[3]), lines
        assert re.fullmatch(f"Newton steps per solve: feasible {spread}; "
                            f"infeasible {spread}", lines[4]), lines
        assert re.fullmatch(r"rates [0-9a-f]{64}", lines[5]), lines


@pytest.mark.parametrize("family", list(PINNED_DIGESTS))
def test_witness_digest_is_pinned_and_no_rate_is_below_the_exact_rate(family, monkeypatch):
    tool = _tool()
    draws, pinned = PINNED_DIGESTS[family]
    # The certify the family calls: the tool's own, or the CLI's for the
    # command families.
    module = tool.cli if family in ("sweep-c", "simulate") else tool
    certify, certs = module.certify, []

    def recording(*args, **kwargs):
        certs.append(certify(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(module, "certify", recording)
    hexdigest, certified, counts, rates, _ = tool.digest(draws, 2026, family)
    found = [cert for cert in certs if cert.feasible]
    assert len(found) == certified > 0
    below = [cert for cert in found if cert.rho_star < max(
        closed_form_rate(cert.interval.lo, cert.fc), closed_form_rate(cert.interval.hi, cert.fc))]
    assert below == []
    assert (rates if family == "dynamic" else hexdigest) == pinned
    if family in PINNED_SOLVES:
        assert sum(map(sum, counts)) == PINNED_SOLVES[family]
    if family == "dynamic":
        assert (sum(map(len, counts)), sum(map(sum, counts))) == PINNED_DYNAMIC_WORK
