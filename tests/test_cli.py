import hashlib
import json

import pytest

from ratecert import cli
from ratecert.cli import Resolved, build_parser, format_sweep_csv, main, parse_sweep_csv


def run_cli(*argv):
    return main(list(argv))


def test_certify_exit_codes(capsys, tmp_path):
    assert run_cli("certify", "--m", "1", "--L", "10", "--c", "1",
                   "--iqc", "sector") == 0
    out = capsys.readouterr().out
    rho = float(next(ln for ln in out.splitlines() if ln.startswith("rho_star")).split()[1])
    assert abs(rho - 0.9) <= 2e-3

    assert run_cli("certify", "--m", "1", "--L", "10", "--c", "2.1",
                   "--iqc", "sector") == 2
    assert "no certificate" in capsys.readouterr().out

    assert run_cli("certify", "--m", "1", "--L", "0.5") == 1
    assert "error:" in capsys.readouterr().err


def test_certify_json_record(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--kappa", "10", "--c", "1.4",
                   "--out", str(out)) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())
    assert record["feasible"] is True
    assert record["kappa"] == 10.0
    assert 0.9 < record["rho_star"] < 1.0
    assert record["lambda"] > 0.0
    assert record["rho_tol"] == 1e-4
    assert "grid_size" not in record


def test_certify_asymmetric_interval(capsys):
    assert run_cli("certify", "--L", "10", "--c1", "2", "--c2", "1") == 0
    capsys.readouterr()
    assert run_cli("certify", "--c1", "2") == 1  # c2 missing
    capsys.readouterr()
    assert run_cli("certify", "--c", "1.2", "--c1", "2", "--c2", "1") == 1
    capsys.readouterr()


def test_sweep_kappa_values_and_reference(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-kappa", "--c", "1", "--kappa-min", "2",
                   "--kappa-max", "50", "--points", "3",
                   "--out", str(out)) == 0
    capsys.readouterr()
    rows = parse_sweep_csv(out.read_text())
    assert [pytest.approx(r.kappa, rel=1e-12) for r in rows] == [2.0, 10.0, 50.0]
    for r in rows:
        assert r.feasible and abs(r.rho_star - (1.0 - 1.0 / r.kappa)) <= 2e-4


def test_sweep_kappa_infeasible_row(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-kappa", "--c", "1.8", "--kappa-min", "50",
                   "--kappa-max", "50", "--points", "1",
                   "--out", str(out)) == 0
    capsys.readouterr()
    (row,) = parse_sweep_csv(out.read_text())
    assert not row.feasible and row.rho_star is None and row.cond_p is None
    # Sentinel is an empty field, not a magic number.
    assert ",,false," in out.read_text().splitlines()[1] + ","


def test_sweep_c_feasible_below_two(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-c", "--kappa", "2", "--c-min", "1.0",
                   "--c-max", "1.95", "--points", "20",
                   "--out", str(out)) == 0
    capsys.readouterr()
    rows = parse_sweep_csv(out.read_text())
    assert len(rows) == 20 and all(r.feasible for r in rows)


def test_sweep_c_onset_for_kappa_ten(tmp_path, capsys):
    # Scanning c in 0.01 steps: the first infeasible c for kappa = 10 sits
    # in [1.50, 1.60] (and certification still succeeds at 1.40).
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-c", "--kappa", "10", "--c-min", "1.40",
                   "--c-max", "1.60", "--points", "21",
                   "--out", str(out)) == 0
    capsys.readouterr()
    rows = parse_sweep_csv(out.read_text())
    assert rows[0].feasible
    first_bad = next(r.c for r in rows if not r.feasible)
    assert 1.50 <= first_bad <= 1.60


def test_sweep_c_range_validation(capsys):
    assert run_cli("sweep-c", "--kappa", "2", "--c-min", "0.5") == 1
    capsys.readouterr()
    assert run_cli("sweep-c", "--kappa", "2", "--c-max", "2.6") == 1
    capsys.readouterr()


def test_csv_round_trip_idempotent(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep-kappa", "--c", "1.2", "--kappa-min", "1.5",
                   "--kappa-max", "40", "--points", "7",
                   "--out", str(out)) == 0
    capsys.readouterr()
    text = out.read_text()
    rows = parse_sweep_csv(text)
    assert format_sweep_csv(rows) == text
    reparsed = parse_sweep_csv(format_sweep_csv(rows))
    for a, b in zip(rows, reparsed):
        assert a.kappa == b.kappa and a.c == b.c and a.rho_star == b.rho_star
        assert a.feasible == b.feasible and a.cond_p == b.cond_p
    assert text.count("\r") == 0


def test_svg_is_pure_side_output(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    with_svg = tmp_path / "with_svg.csv"
    svg = tmp_path / "chart.svg"
    args = ["sweep-kappa", "--c", "1", "--kappa-min", "2", "--kappa-max", "20",
            "--points", "4"]
    assert run_cli(*args, "--out", str(plain)) == 0
    assert run_cli(*args, "--out", str(with_svg), "--svg", str(svg)) == 0
    capsys.readouterr()
    assert plain.read_bytes() == with_svg.read_bytes()
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body and "1 - 1/kappa" in body


def test_simulate_clean_run(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--kappa", "10", "--c", "1", "--trials", "20",
                   "--steps", "50", "--seed", "1", "--out", str(out)) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,seed,max_ratio,violated"
    assert len(lines) == 21
    for ln in lines[1:]:
        trial, seed, ratio, violated = ln.split(",")
        assert violated == "false"
        assert float(ratio) <= 1.0 + 1e-9


def test_simulate_no_certificate(capsys):
    assert run_cli("simulate", "--kappa", "10", "--c", "2.1") == 2
    capsys.readouterr()


def test_simulate_zero_steps_ratio_one(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--kappa", "10", "--c", "1", "--trials", "5",
                   "--steps", "0", "--out", str(out)) == 0
    capsys.readouterr()
    for ln in out.read_text().splitlines()[1:]:
        assert float(ln.split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_simulate_policies(tmp_path, capsys):
    for pol in ("endpoints", "alternating", "adversarial", "constant:0.1"):
        assert run_cli("simulate", "--kappa", "10", "--c", "1", "--trials", "5",
                       "--steps", "20", "--policy", pol,
                       "--out", str(tmp_path / "sim.csv")) == 0
    # Steps drawn from the two endpoints attain the worst-case rate, so this
    # run exposes a certificate that did not check both endpoints.
    assert run_cli("simulate", "--kappa", "10", "--c", "1.4", "--policy", "endpoints",
                   "--trials", "20", "--out", str(tmp_path / "sim.csv")) == 0
    capsys.readouterr()
    assert run_cli("simulate", "--kappa", "10", "--c", "1",
                   "--policy", "bogus") == 1
    capsys.readouterr()


def test_simulate_constant_outside_interval_rejected_before_certify(
        tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("certify ran for an out-of-interval constant step")

    monkeypatch.setattr(cli, "_certify", no_solve)
    out = tmp_path / "sim.csv"
    for steps in ("0", "5"):
        assert run_cli("simulate", "--kappa", "5", "--c", "1.3", "--policy", "constant:99",
                       "--steps", steps, "--out", str(out)) == 1
        assert "outside" in capsys.readouterr().err
        assert not out.exists()


# sha256 of the simulate CSV at kappa 10, c 1.4, seed 7, 20 trials of 50 steps.
# The digest is the same for every policy: on a quadratic each coordinate
# contracts by at most the exact rate <= rho_star per step, so every trial's
# max_ratio is its k = 0 value 1/sqrt(cond_p) = 1; the rows carry the trial
# seeds, the formatting and the verdicts.
SIMULATE_CSV_SHA256 = "cc0cab4ba8243264200aa836d9cb6d768d5cc4275c71d828552253e31236eab7"


@pytest.mark.parametrize("policy", ["uniform", "endpoints", "alternating", "adversarial",
                                    "constant:0.1"])
def test_simulate_csv_bytes_pinned(tmp_path, capsys, policy):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--kappa", "10", "--c", "1.4", "--seed", "7", "--trials", "20",
                   "--steps", "50", "--policy", policy, "--out", str(out)) == 0
    assert capsys.readouterr().out == "20 trial(s), rho_star 0.962221765137, violations: no\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_CSV_SHA256


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "ratecert.cfg"
    cfg.write_text("# comment\nrho-tol=1e-3\nzf-order=3\n")
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--kappa", "10", "--c", "1.2",
                   "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads(out.read_text())["rho_tol"] == 1e-3
    assert run_cli("certify", "--kappa", "10", "--c", "1.2",
                   "--config", str(cfg), "--rho-tol", "1e-2", "--out", str(out)) == 0
    assert json.loads(out.read_text())["rho_tol"] == 1e-2
    capsys.readouterr()

    def resolved(*argv):
        return Resolved(build_parser().parse_args(["certify", "--config", str(cfg), *argv]))

    assert resolved()["zf-order"] == 3
    assert resolved("--zf-order", "4")["zf-order"] == 4

    # Step sizes are not configurable: `grid` is an unknown key.
    stale = tmp_path / "stale.cfg"
    stale.write_text("grid=10\n")
    assert run_cli("certify", "--kappa", "10", "--config", str(stale)) == 1
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense-key=1\n")
    assert run_cli("certify", "--kappa", "10", "--config", str(bad)) == 1
    capsys.readouterr()


def test_show_config(capsys):
    assert run_cli("--show-config") == 0
    out = capsys.readouterr().out
    assert not any(ln.startswith("grid=") for ln in out.splitlines())
    assert "zf-order=2" in out
    assert "rho-tol=0.0001" in out
    assert "policy=uniform" in out
    assert "iqc=sector" in out


def test_usage_errors(capsys, tmp_path):
    assert run_cli() == 1
    capsys.readouterr()
    assert run_cli("certify", "--grid", "10") == 1  # unknown flag
    capsys.readouterr()
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli("sweep-kappa", "--c", "1", "--points", "2",
                   "--out", str(missing_dir)) == 1
    capsys.readouterr()


def test_certify_ellipsoid_kinds(capsys):
    assert run_cli("certify", "--kappa", "4", "--c", "1", "--iqc", "wob1") == 0
    assert run_cli("certify", "--kappa", "4", "--c", "1", "--iqc", "zf:2",
                   "--rho-tol", "1e-3") == 0
    capsys.readouterr()
    assert run_cli("certify", "--kappa", "4", "--iqc", "zf:x") == 1
    capsys.readouterr()


# sha256 of the bytes each command writes with --out.  The sector rows and
# records come from the closed-form backend; the wob1 ones also pin the
# ellipsoid's stopping point (cond_p) under this numpy/LAPACK build.
PINNED_OUTPUTS = {
    "sweep-kappa-sector": (
        ("sweep-kappa", "--c", "1.4", "--kappa-min", "1", "--kappa-max", "100",
         "--points", "40"),
        "e0d88df0551b349ccb1db130928e9f700157f1d36761e8ab92939f2f34e94ef0"),
    "sweep-c-sector": (
        ("sweep-c", "--kappa", "10", "--c-min", "1", "--c-max", "2", "--points", "101"),
        "a46436a8f7d65620deb40fa135f3a6b25bc208b97615a288220830d9c256c3df"),
    "sweep-c-wob1": (
        ("sweep-c", "--kappa", "10", "--points", "12", "--iqc", "wob1"),
        "230c213b2121bd39f41669190084e0498c1ef3798e52a48b04c711543c17209e"),
    "certify-sector": (
        ("certify", "--kappa", "10", "--c", "1.2", "--iqc", "sector"),
        "b34b4c466a34b535c69fa38759add0e11a82377814878df541fe42424e075e2f"),
    "certify-wob1": (
        ("certify", "--kappa", "10", "--c", "1.2", "--iqc", "wob1"),
        "8c1fe1b0bc0bbeca40affd9bd5fda18c32d06d8e496ae291ff535787d0a1ba69"),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_output_bytes_pinned(tmp_path, capsys, name):
    argv, digest = PINNED_OUTPUTS[name]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
