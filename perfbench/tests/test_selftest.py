"""Self-test of the benchmark on a tiny deck of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(wob1=2, zf2=(0, 1), sweeps=1, simulations=4, setup_repeats=1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _run_main(capsys, monkeypatch, workload: str, trace: int) -> tuple[dict, dict]:
    monkeypatch.setattr(workloads, "FULL", TINY)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == tracing.UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, capsys, monkeypatch):
    info, line = _run_main(capsys, monkeypatch, workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")
    assert all(isinstance(v["value"], float) and v["value"] > 0
               for v in line["metrics"].values())

    traced_info, traced = _run_main(capsys, monkeypatch, workload, 1)
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units("per_layer")
    assert traced["correct"] and traced["failed"] == 0
    # Tracing must not change what the program writes.
    assert traced_info["digest"] == info["digest"]
    assert traced_info["missing"] == {"span_names": [], "metrics": []}


def test_digest_repeats_for_the_same_seed():
    a = run.execute("simulate-validate", 5, 0, False, TINY)
    b = run.execute("simulate-validate", 5, 0, False, TINY)
    assert a["digest"] == b["digest"]
    assert a["instances"] == b["instances"]


def test_lowered_certificate_counts_as_failed(monkeypatch):
    """The oracle can fail: every captured certificate is moved below the
    exact worst-case rate by twice the bisection tolerance."""
    take = oracle.Capture.take
    modules = run.load_program(ROOT)
    closed_form_rate = modules["certifier"].closed_form_rate

    def lowered(self):
        return [dataclasses.replace(
                    c, rho_star=oracle.exact_rate(c, closed_form_rate) - 2 * c.rho_tol)
                if c.rho_star is not None else c
                for c in take(self)]

    monkeypatch.setattr(oracle.Capture, "take", lowered)
    record = run.execute("simulate-validate", 5, 0, False, TINY)
    assert record["failed"] == record["attempted"] > 0
    assert not run.final_line(record)["correct"]
    reasons = [r for f in record["failures"] for r in f["reasons"]]
    assert any("below exact rate" in r for r in reasons)


def test_missing_layer_name_is_reported_and_names_restored(monkeypatch):
    """Emulate a program without ``ellipsoid._jacobi_batch``: the cut search
    keeps working, the traced run marks the metrics that need the name as
    missing, and every wrapped name is restored afterwards."""
    modules = run.load_program(ROOT)
    ell = modules["ellipsoid"]
    cut = ell._first_violated_cut
    rebound = types.FunctionType(cut.__code__, {**ell.__dict__}, cut.__name__)
    monkeypatch.setattr(ell, "_first_violated_cut", rebound)
    monkeypatch.delattr(ell, "_jacobi_batch")
    before = {(m, a): getattr(modules[m], a, None) for m, a, _ in tracing.WRAPPED}

    record = run.execute("certify-dynamic", 2, 0, True, TINY)

    assert record["failed"] == 0
    assert record["missing"]["span_names"] == ["ellipsoid._jacobi_batch"]
    assert "linalg.eig_batch_us" in record["missing"]["metrics"]
    assert record["metrics"]["linalg.eig_batch_us"] is None
    assert record["metrics"]["ellipsoid.cuts_per_probe"] is not None
    assert {(m, a): getattr(modules[m], a, None) for m, a, _ in tracing.WRAPPED} == before


def test_decks_are_seeded_and_stratified():
    for name in workloads.WORKLOADS:
        assert workloads.make_deck(name, 7) == workloads.make_deck(name, 7)
        assert workloads.make_deck(name, 7) != workloads.make_deck(name, 8)
    for n in range(1, 16):
        pts = workloads.antithetic(n, 0.3)
        assert all(i / n <= p < (i + 1) / n for i, p in enumerate(pts))
        s = workloads.lattice_pairing(n)
        assert sorted(s) == list(range(n))
        assert all(s[n - 1 - i] == n - 1 - s[i] for i in range(n))


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep-sector",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
