import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratecert import certifier, cli, search, simulator
from ratecert.certifier import _weights, augment, feasible_at_rho
from ratecert.cli import Resolved, build_parser, format_sweep_csv, main, parse_sweep_csv
from ratecert.model import reduced
from ratecert.search import default_eps_feas


def run_cli(*argv):
    return main(list(argv))


def test_certify_exit_codes(capsys, tmp_path):
    assert run_cli("certify", "--m", "1", "--L", "10", "--c", "1",
                   "--iqc", "sector") == 0
    out = capsys.readouterr().out
    rho = float(next(ln for ln in out.splitlines() if ln.startswith("rho_star")).split()[1])
    assert abs(rho - 0.9) <= 2e-3
    # No grid line: the step sizes checked are always the two endpoints.
    assert [ln.split()[0] for ln in out.splitlines()] == [
        "rho_star", "cond_P", "lambda", "iterations"]

    assert run_cli("certify", "--m", "1", "--L", "10", "--c", "2.1",
                   "--iqc", "sector") == 2
    assert capsys.readouterr().out == "no certificate at rho = 0.9999\n"

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


@settings(max_examples=300, deadline=None)
@given(start=st.floats(-1e6, 1e6), stop=st.floats(-1e6, 1e6), num=st.integers(1, 200))
@example(start=1.0, stop=2.0, num=1)
@example(start=-0.0, stop=0.0, num=1)
@example(start=-0.0, stop=-0.0, num=3)
@example(start=0.0, stop=-1.0, num=4)
@example(start=1.0, stop=2.0, num=2)
@example(start=1.3, stop=1.3, num=7)
@example(start=0.0, stop=5e-324, num=3)  # a step that rounds to 0
def test_linspace_is_numpy_linspace_bit_for_bit(start, stop, num):
    expected = [float(x).hex() for x in np.linspace(start, stop, num)]
    assert [x.hex() for x in cli.linspace(start, stop, num)] == expected


@settings(max_examples=60, deadline=None)
@given(k_min=st.floats(1.0, 60.0), ratio=st.floats(1.0, 50.0),
       points=st.integers(1, 40), c=st.floats(1.0, 1.7))
@example(k_min=1.0, ratio=100.0, points=40, c=1.3)
@example(k_min=7.0, ratio=1.0, points=5, c=1.2)
# Kappa 5 is 1.97794399074 here and 1.97794399073 from np.logspace.
@example(k_min=1.1, ratio=42.742148430388866, points=33, c=1.2)
def test_sweep_kappa_csv_is_that_of_the_cli_float_grid(k_min, ratio, points, c):
    # The grid is the CLI's own: 10 ** y over cli.linspace of the log10
    # range in libm's pow, and [k_min] for one point.  np.logspace's last
    # bit comes from numpy's vectorized pow, so it cross-checks each kappa
    # to within an ulp only.
    k_max = k_min * ratio
    argv = ["sweep-kappa", "--c", repr(c), "--kappa-min", repr(k_min),
            "--kappa-max", repr(k_max), "--points", str(points)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lo, hi = math.log10(k_min), math.log10(k_max)
    kappas = [k_min] if points == 1 else [10.0 ** y for y in cli.linspace(lo, hi, points)]
    res = Resolved(build_parser().parse_args(argv))
    assert out.getvalue() == format_sweep_csv(cli._sweep_rows([(k, c) for k in kappas], res))
    if points > 1:
        for k, ref in zip(kappas, np.logspace(lo, hi, points).tolist()):
            assert abs(k - ref) <= math.ulp(ref), (k, ref)


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
    for bad in ("", text.replace("rho_star", "rho", 1), text.split("\n", 1)[1]):
        with pytest.raises(ValueError, match="header"):
            parse_sweep_csv(bad)
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
    assert capsys.readouterr().out.startswith("no certificate at rho = 0.9999")


def test_exit_2_names_only_the_rate_tested(capsys):
    # wob1 at (50, 1.1) is infeasible at the top rate 1 - rho_tol, yet
    # feasible at 0.99: an exit 2 shows no certificate at the rate tested,
    # not that none exists below 1.
    fc = cli.FunctionClass(1.0, 50.0)
    interval = cli.interval_from_c(fc, 1.1)
    fc_n, alphas = reduced(fc, interval)
    lmi, eps = augment(fc_n.kappa(), alphas, 1), default_eps_feas(fc_n.kappa())
    at = {rho: feasible_at_rho(lmi, rho, _weights(rho, 1, None), eps)
          for rho in (0.99, 0.9999)}
    assert at[0.99] is not None and at[0.9999] is None
    for command in ("certify", "simulate"):
        assert run_cli(command, "--kappa", "50", "--c", "1.1", "--iqc", "wob1") == 2
        out = capsys.readouterr().out
        assert out.startswith("no certificate at rho = 0.9999"), out
        assert "every" not in out and "infeasible" not in out


# Run in a fresh process: sector commands, --show-config and a usage error
# must leave numpy and xml unloaded; the commands and library calls that
# need numpy must then still load it and work.
_IMPORT_AUDIT = """
import sys
from ratecert.cli import main

assert "json" not in sys.modules  # only certify --out imports it
out = sys.argv[1]
for code, argv in [
    (0, ["certify", "--kappa", "10", "--c", "1.2", "--out", out + "/cert.json"]),
    (0, ["sweep-kappa", "--c", "1.3", "--points", "9", "--out", out + "/k.csv",
         "--svg", out + "/k.svg"]),
    (0, ["sweep-c", "--kappa", "8", "--points", "9", "--out", out + "/c.csv"]),
    (0, ["--show-config"]),
    (1, ["certify", "--kappa", "10", "--no-such-flag"]),
]:
    assert main(argv) == code, argv
loaded = sorted(m for m in ("numpy", "xml") if m in sys.modules)
assert loaded == [], f"loaded {loaded}"

assert main(["certify", "--kappa", "10", "--c", "1.2", "--iqc", "wob1"]) == 0
assert "numpy" in sys.modules and "numpy.random" not in sys.modules
assert main(["simulate", "--kappa", "10", "--c", "1.2", "--trials", "7",
             "--steps", "20", "--out", out + "/sim.csv"]) == 0
from ratecert import FunctionClass, certify, interval_from_c, verify_certificate

fc = FunctionClass(1.0, 10.0)
cert = certify(fc, interval_from_c(fc, 1.2))
assert cert.slack <= 0.0 and verify_certificate(cert)
print("ok")
"""


def test_commands_that_draw_nothing_leave_numpy_random_unloaded(tmp_path):
    # numpy.random costs about 2.4 MiB and 20 ms to import: only a command
    # that draws random numbers loads it.  numpy itself (about 130 ms) and
    # xml (about 40 ms) load only for a command that uses them, so no
    # sector command loads either.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_AUDIT, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("ok\n")


def test_negative_seed_rejected_before_certify(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("certify ran for a negative seed")

    monkeypatch.setattr(cli, "certify", no_solve)
    assert run_cli("simulate", "--kappa", "10", "--c", "1.2", "--seed", "-1") == 1
    assert capsys.readouterr().err == "error: need --seed >= 0, got -1\n"


def test_simulate_zero_steps_ratio_one(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--kappa", "10", "--c", "1", "--trials", "5",
                   "--steps", "0", "--out", str(out)) == 0
    capsys.readouterr()
    for ln in out.read_text().splitlines()[1:]:
        assert float(ln.split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_simulate_steps_are_capped_so_one_trial_fits_a_chunk(tmp_path, capsys, monkeypatch):
    # One trial of dimension 5 holds (steps + 1) * 8 floats, and a chunk
    # holds at least one trial, so past 131,071 steps a chunk outgrows the
    # 2^20-float budget.  The limit is checked before anything is certified.
    def no_solve(*args):
        raise AssertionError("certify ran for a rejected --steps")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_certify", no_solve)
        assert run_cli("simulate", "--kappa", "10", "--c", "1.2", "--steps", "131072") == 1
        assert capsys.readouterr().err == "error: need --steps <= 131071, got 131072\n"
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--kappa", "10", "--c", "1.2", "--steps", "131071",
                   "--trials", "1", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 2


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
# numbers, the --seed, the formatting and the verdicts.
SIMULATE_CSV_SHA256 = "755aca3a836bed25283b704381ecafbc72949f7f57680b7ab896f4b169fe6109"


@pytest.mark.parametrize("policy", ["uniform", "endpoints", "alternating", "adversarial",
                                    "constant:0.1"])
def test_simulate_csv_bytes_pinned(tmp_path, capsys, policy):
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--kappa", "10", "--c", "1.4", "--seed", "7", "--trials", "20",
                   "--steps", "50", "--policy", policy, "--out", str(out)) == 0
    assert capsys.readouterr().out == "20 trial(s), rho_star 0.962221765137, violations: no\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_CSV_SHA256


def test_trial_spectrum_builds_a_generator_only_to_draw(monkeypatch, capsys):
    # One spectrum PCG64 per dimension group that draws spectra, for the
    # whole command however it is chunked and whatever the policy;
    # dimension 2 draws no spectrum and gets none.
    monkeypatch.setattr(simulator, "CHUNK_FLOATS", 100)
    made, pcg64 = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *a: made.append(a) or pcg64(*a))
    spectra = [([7, cli.SPECTRUM_STREAM, d],) for d in (1, 3, 4, 5)]
    for policy in ("uniform", "endpoints", "alternating", "adversarial", "constant:0.1"):
        made.clear()
        assert run_cli("simulate", "--kappa", "10", "--c", "1.4", "--seed", "7",
                       "--trials", "23", "--steps", "30", "--policy", policy) == 0
        drawn = [a for a in made if a[0][1] == cli.SPECTRUM_STREAM]
        assert sorted(drawn) == spectra, policy
    capsys.readouterr()


@pytest.mark.parametrize("policy", ["uniform", "endpoints", "adversarial"])
def test_repeated_simulate_writes_the_same_bytes(tmp_path, capsys, policy):
    # No generator state outlives a command.
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert run_cli("simulate", "--kappa", "10", "--c", "1.4", "--seed", "11",
                       "--trials", "12", "--steps", "40", "--policy", policy,
                       "--out", str(out)) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "ratecert.cfg"
    cfg.write_text("# comment\nrho-tol=1e-3\niqc=zf:3\n")
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--kappa", "10", "--c", "1.2",
                   "--config", str(cfg), "--out", str(out)) == 0
    record = json.loads(out.read_text())
    assert record["rho_tol"] == 1e-3
    assert (record["iqc"], record["zf_order"]) == ("zf", 3)
    assert run_cli("certify", "--kappa", "10", "--c", "1.2",
                   "--config", str(cfg), "--rho-tol", "1e-2", "--out", str(out)) == 0
    assert json.loads(out.read_text())["rho_tol"] == 1e-2
    capsys.readouterr()

    def resolved(*argv):
        return Resolved(build_parser().parse_args(["certify", "--config", str(cfg), *argv]))

    assert resolved()["iqc"] == "zf:3"
    assert resolved("--iqc", "zf:4")["iqc"] == "zf:4"

    # Step sizes are not configurable: `grid` is an unknown key.
    stale = tmp_path / "stale.cfg"
    stale.write_text("grid=10\n")
    assert run_cli("certify", "--kappa", "10", "--config", str(stale)) == 1
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense-key=1\n")
    assert run_cli("certify", "--kappa", "10", "--config", str(bad)) == 1
    capsys.readouterr()



def _certify_record(tmp_path, config, *argv):
    """The exit code and --out record of a certify with ``config`` as its
    config file."""
    cfg, out = tmp_path / "spelling.cfg", tmp_path / "spelling.json"
    cfg.write_text(config)
    out.unlink(missing_ok=True)
    code = run_cli("certify", "--config", str(cfg), "--out", str(out), *argv)
    return code, json.loads(out.read_text()) if out.exists() else None


def test_command_line_class_replaces_the_config_kappa(tmp_path, capsys):
    # Within the file kappa wins over m/L; --m/--L on the command line
    # replace the file's kappa.
    code, record = _certify_record(tmp_path, "kappa=5\nm=1\nL=20\n")
    assert code == 0 and (record["m"], record["L"]) == (1.0, 5.0)
    code, record = _certify_record(tmp_path, "kappa=5\n", "--m", "1", "--L", "20")
    assert code == 0 and (record["m"], record["L"]) == (1.0, 20.0)
    capsys.readouterr()


def test_both_class_spellings_on_the_command_line_are_a_usage_error(capsys):
    assert run_cli("certify", "--kappa", "5", "--L", "20") == 1
    assert "--kappa is mutually exclusive with --m/--L" in capsys.readouterr().err


def test_command_line_c_replaces_the_config_c1_c2(tmp_path, capsys):
    # Within the file c1/c2 win over c; --c on the command line replaces
    # the file's c1/c2.
    code, record = _certify_record(tmp_path, "kappa=10\nc=1.4\nc1=1.2\nc2=1.3\n")
    assert code == 0 and record["interval_hi"] == 1.3 / 10.0
    code, record = _certify_record(tmp_path, "kappa=10\nc1=1.2\nc2=1.3\n", "--c", "1.4")
    assert code == 0 and (record["interval_lo"], record["interval_hi"]) == (
        1.0 / (1.4 * 10.0), 1.4 / 10.0)
    capsys.readouterr()


def test_a_lone_c1_or_c2_names_where_it_came_from(tmp_path, capsys):
    # A c1 from the config file used to be reported as "--c1 and --c2 must
    # be given together", naming a flag that was never given.
    cfg = tmp_path / "lone.cfg"
    cfg.write_text("kappa=10\nc1=1.2\n")
    assert run_cli("certify", "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert f"c1 in config file {str(cfg)!r} sets c1 but c2 is not set" in err, err
    assert "--c1" not in err, err
    assert run_cli("certify", "--kappa", "10", "--c2", "1.3") == 1
    err = capsys.readouterr().err
    assert "--c2 sets c2 but c1 is not set" in err, err
    # A c2 from the file completes a --c1 from the command line.
    code, record = _certify_record(tmp_path, "kappa=10\nc2=1.3\n", "--c1", "1.2")
    assert code == 0 and (record["interval_lo"], record["interval_hi"]) == (
        1.0 / (1.2 * 10.0), 1.3 / 10.0)
    capsys.readouterr()


def test_repeated_main_calls_match_fresh_parsers(tmp_path, capsys):
    # main builds its parser once per process; a config file read by one
    # call must not reach the next.  Each call's outputs are compared with
    # the same call on a freshly built parser, and the plain certify after
    # the config call with a plain certify made before it.
    cfg = tmp_path / "ratecert.cfg"
    cfg.write_text("kappa=20\nc=1.3\nrho-tol=1e-3\niqc=wob1\n")
    commands = [
        ["certify", "--config", str(cfg)],
        ["certify"],
        ["simulate", "--kappa", "5", "--c", "1.2", "--trials", "3", "--steps", "20"],
    ]

    def call(argv, rebuild):
        if rebuild:
            cli._parser.cache_clear()
        return main(argv), capsys.readouterr()

    plain_alone = call(["certify"], rebuild=True)
    cli._parser.cache_clear()
    once = [call(argv, rebuild=False) for argv in commands]
    assert cli._parser.cache_info().misses == 1
    assert once == [call(argv, rebuild=True) for argv in commands]
    assert once[1] == plain_alone
    assert [code for code, _ in once] == [0, 0, 0]
    assert once[0][1].out != once[1][1].out


def test_show_config(capsys):
    assert run_cli("--show-config") == 0
    out = capsys.readouterr().out
    assert not any(ln.startswith("grid=") for ln in out.splitlines())
    assert not any(ln.startswith("zf-order=") for ln in out.splitlines())
    assert "points=25" in out
    assert "rho-tol=0.0001" in out
    assert "policy=uniform" in out
    assert "iqc=sector" in out


def test_usage_errors(capsys, tmp_path):
    assert run_cli() == 1
    capsys.readouterr()
    assert run_cli("certify", "--grid", "10") == 1  # unknown flag
    capsys.readouterr()
    # A zero tolerance made the bisection loop forever.
    assert run_cli("certify", "--kappa", "10", "--c", "1.2", "--rho-tol", "0") == 1
    assert "rho_tol" in capsys.readouterr().err
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert run_cli("sweep-kappa", "--c", "1", "--points", "2",
                   "--out", str(missing_dir)) == 1
    capsys.readouterr()
    # A sweep has no use for its swept axis or an asymmetric interval; these
    # flags used to be dropped without a word (sweep-kappa --c1 1.2 --c2 3.0
    # swept at c = 1 and exited 0).
    for flags in (("--c1", "1.2", "--c2", "3.0"), ("--kappa", "5"), ("--m", "2"),
                  ("--L", "20")):
        assert run_cli("sweep-kappa", "--c", "1.2", "--points", "2", *flags) == 1, flags
        assert "error" in capsys.readouterr().err
    for flags in (("--c", "1.2"), ("--c1", "1.2", "--c2", "3.0")):
        assert run_cli("sweep-c", "--kappa", "10", "--points", "2", *flags) == 1, flags
        assert "error" in capsys.readouterr().err
    # `--iqc zf:<k>` is the only way to set the filter order.
    assert run_cli("certify", "--kappa", "4", "--zf-order", "3") == 1
    assert "--zf-order" in capsys.readouterr().err
    for iqc in ("zf", "zf:0"):
        assert run_cli("certify", "--kappa", "4", "--iqc", iqc) == 1, iqc
        err = capsys.readouterr().err
        assert "zf:<k>" in err and "k >= 1" in err, err
    for iqc in ("foo", "wob1:2"):
        assert run_cli("certify", "--kappa", "4", "--iqc", iqc) == 1, iqc
        assert capsys.readouterr().err.startswith(f"error: unknown --iqc value {iqc!r}")
    # simulate's own ranges.
    for flag, value, least in (("trials", "0", 1), ("steps", "-1", 0), ("seed", "-1", 0)):
        assert run_cli("simulate", "--kappa", "10", "--c", "1.2", f"--{flag}", value) == 1
        assert capsys.readouterr().err == f"error: need --{flag} >= {least}, got {value}\n"


def test_zf_order_above_the_cap_is_rejected_before_any_solve(monkeypatch, capsys):
    # Nothing used to cap the order: at zf:200 the data of one probe alone
    # took gigabytes.  An order above the cap stops before anything is built.
    def no_solve(*args, **kwargs):
        raise AssertionError("an over-cap order reached the solver")

    monkeypatch.setattr(certifier, "feasible_at_rho", no_solve)
    monkeypatch.setattr(certifier, "augment", no_solve)
    fc = cli.FunctionClass(1.0, 10.0)
    with pytest.raises(search.InvalidInput, match="zf_order"):
        search.certify(fc, cli.interval_from_c(fc, 1.2), iqc_kind="zf", zf_order=7)
    # The CLI rejects it in the flag's own words, as its help states the cap.
    for command in ("certify", "sweep-c"):
        assert run_cli(command, "--kappa", "10", "--iqc", "zf:7") == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: bad --iqc value 'zf:7'") and "k <= 6" in err, err
    assert cli._iqc_spec("zf:6") == {"iqc_kind": "zf", "zf_order": 6}


# Flags a subcommand does not read; --svg and --seed used to be accepted by
# every subcommand and then ignored.
@pytest.mark.parametrize("command, flag, value", [
    ("certify", "--svg", "x.svg"),
    ("simulate", "--svg", "x.svg"),
    ("certify", "--seed", "3"),
    ("sweep-kappa", "--seed", "3"),
    ("sweep-c", "--seed", "3"),
])
def test_unread_flag_rejected(capsys, command, flag, value):
    assert run_cli(command, flag, value) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "sweep-kappa", "sweep-c", "simulate"])
def test_config_keys_shared_by_every_command(tmp_path, capsys, command):
    # The --show-config output is a config file with every key; a later line
    # wins.  Each command accepts it whole and uses only what it reads.
    assert run_cli("--show-config") == 0
    svg = tmp_path / "x.svg"
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(capsys.readouterr().out + f"seed=3\nsvg={svg}\npoints=3\n"
                   f"trials=3\nsteps=5\nout={tmp_path / 'out'}\n")
    assert run_cli(command, "--config", str(cfg)) == 0
    capsys.readouterr()
    assert (tmp_path / "out").exists()
    assert svg.exists() == command.startswith("sweep")


def test_config_values_take_the_flag_types(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("points=abc\n")
    assert run_cli("sweep-kappa", "--config", str(bad)) == 1
    assert "config key points" in capsys.readouterr().err
    bad.write_text("# a comment\npoints 3\n")
    assert run_cli("sweep-kappa", "--config", str(bad)) == 1
    assert "bad.cfg:2: expected key=value, got 'points 3'" in capsys.readouterr().err

    cfg = tmp_path / "typed.cfg"
    cfg.write_text("kappa=\ntrials=\nc=1.5\npoints=7\nseed=3\niqc=wob1\n")
    res = Resolved(build_parser().parse_args(["simulate", "--config", str(cfg)]))
    # An empty value leaves the default.
    assert res["kappa"] is None and res["trials"] == 100
    assert [(res[key], type(res[key])) for key in ("c", "points", "seed", "iqc")] == [
        (1.5, float), (7, int), (3, int), ("wob1", str)]
    assert res.explicit == set()

    # A UTF-8 byte-order mark is not part of the first key.
    for text in ("kappa=5\nc=1.2\n", "\ufeffkappa=5\nc=1.2\n"):
        cfg.write_text(text, encoding="utf-8")
        assert run_cli("certify", "--config", str(cfg)) == 0
        assert "rho_star    0.833518280029\n" in capsys.readouterr().out


def test_certify_ellipsoid_kinds(capsys):
    assert run_cli("certify", "--kappa", "4", "--c", "1", "--iqc", "wob1") == 0
    assert run_cli("certify", "--kappa", "4", "--c", "1", "--iqc", "zf:2",
                   "--rho-tol", "1e-3") == 0
    capsys.readouterr()
    assert run_cli("certify", "--kappa", "4", "--iqc", "zf:x") == 1
    capsys.readouterr()


@pytest.mark.parametrize("iqc", ["sector", "wob1", "zf:2"])
def test_certify_at_the_largest_kappa_has_no_certificate(capsys, iqc):
    # At kappa 1e308 the exact rate rounds to 1, so no rate is solved, for
    # every kind.  The sector tolerance 1e-9 * (1 + 2 kappa) is inf there:
    # it must come from floats, not from a numpy Qf, whose entries overflow.
    # At kappa 1e200 the exact rate also rounds to 1, and a rho_tol below
    # ~1.1e-16 must not make the top probe 1 - rho_tol round to 1 either.
    for argv in (("--kappa", "1e308"), ("--kappa", "1e200", "--rho-tol", "1e-17")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("certify", *argv, "--c", "1.2", "--iqc", iqc) == 2
        out, err = capsys.readouterr()
        assert "no certificate" in out and err == "", argv


def test_sweep_kappa_up_to_the_largest_kappa(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep-kappa", "--kappa-max", "1e308", "--out", str(out),
                       "--svg", str(tmp_path / "sweep.svg")) == 0
    assert capsys.readouterr().err == ""
    rows = parse_sweep_csv(out.read_text())
    assert len(rows) == 25 and rows[-1].kappa == 1e308
    assert rows[0].feasible and not rows[-1].feasible


@pytest.mark.parametrize("flag", ["--kappa-min", "--kappa-max"])
@pytest.mark.parametrize("value", ["inf", "1e309"])
def test_sweep_kappa_rejects_an_infinite_bound_by_name(capsys, flag, value):
    # 1 <= kappa-min <= kappa-max admitted inf, and the sweep then failed
    # with "m and L must be finite", naming flags never given.
    argv = ["sweep-kappa", "--points", "3", flag, value]
    if flag == "--kappa-min":
        argv += ["--kappa-max", value]
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "--kappa-min" in err and "--kappa-max" in err, err
    assert "m and L" not in err


@pytest.mark.parametrize("command", [
    ("certify", "--c", "1.2"),
    ("sweep-c", "--points", "2"),
    ("simulate", "--c", "1.2", "--trials", "1", "--steps", "2"),
], ids=["certify", "sweep-c", "simulate"])
def test_overflowing_condition_number_is_rejected_by_name(capsys, command):
    # m and L are finite, but L/m is not: the class itself is rejected, and
    # the message names the condition number.
    assert run_cli(*command, "--m", "1e-300", "--L", "1e300") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: condition number kappa = L/m must be finite, "
                   "got m=1e-300, L=1e+300\n")


def _solves_per_row(monkeypatch):
    """Per sweep row (one ``cli.certify`` call each), the solves it made:
    ``sector_lambda`` and ``feasible_at_rho`` calls, one per probe."""
    solves, per_row = [], []
    sector_lambda, feasible_at_rho = search.sector_lambda, certifier.feasible_at_rho
    certify_row = cli.certify

    def sector(rho, *args):
        solves.append(rho)
        return sector_lambda(rho, *args)

    def matrix(lmi, rho, *args, **kwargs):
        solves.append(rho)
        return feasible_at_rho(lmi, rho, *args, **kwargs)

    def row(*args, **kwargs):
        solves.clear()
        cert = certify_row(*args, **kwargs)
        per_row.append((len(solves), cert.feasible))
        return cert

    monkeypatch.setattr(search, "sector_lambda", sector)
    monkeypatch.setattr(certifier, "feasible_at_rho", matrix)
    monkeypatch.setattr(cli, "certify", row)
    return per_row


def test_sweep_rows_settle_in_at_most_two_sector_solves(monkeypatch, capsys):
    # The benchmark's sweep shapes at the default rho_tol.  Sector's closed-
    # form threshold predicts each row's bisection path, and two solves, at
    # its end g and its lower end, settle it: g's feasible verdict decides
    # the top, and the exact rate the bottom probe.
    per_row = _solves_per_row(monkeypatch)
    for c in ("1.3", "1.4", "1.5"):
        assert run_cli("sweep-kappa", "--c", c, "--kappa-min", "1", "--kappa-max", "100",
                       "--points", "40") == 0
    for kappa in ("6", "8", "10"):
        assert run_cli("sweep-c", "--kappa", kappa, "--c-min", "1", "--c-max", "2",
                       "--points", "41") == 0
    capsys.readouterr()
    assert len(per_row) == 3 * 40 + 3 * 41
    assert max(solves for solves, _ in per_row) <= 2


@pytest.mark.parametrize("argv", [
    ("--kappa", "10", "--c-min", "1", "--c-max", "2.5", "--points", "31"),
    ("--kappa", "30", "--c-min", "1", "--c-max", "1.4", "--points", "5", "--iqc", "wob1"),
], ids=["sector", "wob1"])
def test_sweep_c_makes_no_solve_past_its_onset(monkeypatch, capsys, argv):
    # The intervals of a sweep-c are nested, so once a row has no
    # certificate at the top rate, no later row has one: each later row is
    # still one certify call, and its top rate lies at or below the rate it
    # is passed as known infeasible, so it is rejected before any set-up.
    per_row = _solves_per_row(monkeypatch)
    assert run_cli("sweep-c", *argv) == 0
    rows = parse_sweep_csv(capsys.readouterr().out)
    onset = [feasible for _, feasible in per_row].index(False)
    assert len(per_row) == len(rows) > onset + 1
    assert [row.feasible for row in rows] == [feasible for _, feasible in per_row]
    assert per_row[onset][0] >= 1 and not any(rows[i].feasible for i in range(onset, len(rows)))
    assert [solves for solves, _ in per_row[onset + 1:]] == [0] * (len(rows) - onset - 1)


def test_sweep_c_rows_rejected_at_the_top_build_no_data(monkeypatch, capsys):
    # Each wob1 row builds its data (``certifier.augment``) once, at set-up;
    # a row told that its top rate is infeasible is rejected before set-up.
    builds, per_row = [], []
    augment, certify_row = certifier.augment, cli.certify

    def counted(*args):
        builds.append(args)
        return augment(*args)

    def row(*args, **kwargs):
        builds.clear()
        cert = certify_row(*args, **kwargs)
        per_row.append((kwargs["known_infeasible"] is not None, len(builds)))
        return cert

    monkeypatch.setattr(certifier, "augment", counted)
    monkeypatch.setattr(cli, "certify", row)
    assert run_cli("sweep-c", "--kappa", "30", "--c-min", "1", "--c-max", "1.4",
                   "--points", "5", "--iqc", "wob1") == 0
    capsys.readouterr()
    told = [t for t, _ in per_row]
    assert len(per_row) == 5 and True in told and told[0] is False
    assert [n for _, n in per_row] == [0 if t else 1 for t in told]


@settings(max_examples=60, deadline=None)
@given(log_kappa=st.floats(0.0, 3.0), c_min=st.floats(1.0, 2.5), width=st.floats(0.0, 1.0),
       points=st.integers(1, 31), log_tol=st.floats(-10.0, -3.0))
@example(log_kappa=1.0, c_min=1.0, width=1.0, points=31, log_tol=-4.0)
def test_sweep_c_rows_are_standalone_certificates(log_kappa, c_min, width, points, log_tol):
    # Passing a row what earlier rows proved changes how many solves it
    # makes, never what it returns: each row's certificate is that of a
    # standalone certify of its (kappa, c), bit for bit.
    c_max = c_min + (2.5 - c_min) * width
    argv = ["sweep-c", "--kappa", repr(10.0 ** log_kappa), "--c-min", repr(c_min),
            "--c-max", repr(c_max), "--points", str(points),
            "--rho-tol", repr(10.0 ** log_tol)]
    certs = []
    certify_row = cli.certify

    def row(*args, **kwargs):
        certs.append(certify_row(*args, **kwargs))
        return certs[-1]

    out = io.StringIO()
    with mock.patch.object(cli, "certify", row), contextlib.redirect_stdout(out):
        assert main(argv) == 0
    rows = parse_sweep_csv(out.getvalue())
    assert len(rows) == len(certs) == points
    for cert in certs:
        alone = search.certify(cert.fc, cert.interval, rho_tol=10.0 ** log_tol)
        lam = None if cert.witness is None else cert.witness.lam
        alone_lam = None if alone.witness is None else alone.witness.lam
        assert (cert.rho_star, lam, cert.bisection_iters) == (
            alone.rho_star, alone_lam, alone.bisection_iters)


def test_interval_constant_times_the_largest_kappa_overflows_to_no_certificate(
        capsys, tmp_path):
    # c * L overflows at kappa 1e308 and c 2, so the interval's lower end is
    # 1/c/L there, not 1/inf = 0: certify finds no certificate, and the
    # sweep keeps its rows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("certify", "--kappa", "1e308", "--c", "2") == 2
    out, err = capsys.readouterr()
    assert "no certificate" in out and err == ""
    csv = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep-kappa", "--kappa-max", "1e308", "--c", "2", "--points", "3",
                       "--out", str(csv)) == 0
    assert capsys.readouterr().err == ""
    rows = parse_sweep_csv(csv.read_text())
    assert len(rows) == 3 and rows[-1].kappa == 1e308 and not rows[-1].feasible


# sha256 of the bytes each command writes with --out.  The sector rows and
# records come from the closed-form backend; the wob1 and zf ones also pin
# the barrier solver's stopping point (cond_p) under this numpy/LAPACK build, for
# filters of order 1, 2 and 3.
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
        "06dc949d6298c28cf8a5cb7a4ce0c00bcf0ef1420537452a6d90310ec3cabcb1"),
    "certify-sector": (
        ("certify", "--kappa", "10", "--c", "1.2", "--iqc", "sector"),
        "b34b4c466a34b535c69fa38759add0e11a82377814878df541fe42424e075e2f"),
    "certify-wob1": (
        ("certify", "--kappa", "10", "--c", "1.2", "--iqc", "wob1"),
        "a4f227c78441ff6585d698b693d72a6f0df6753a8a1213d493e18e370ae06649"),
    "certify-zf2": (
        ("certify", "--kappa", "10", "--c", "1.2", "--iqc", "zf:2"),
        "e19f0b474b15d66f81d86e8eb58c02834a19291934545a134192a3ece6e077ab"),
    "certify-zf3": (
        ("certify", "--kappa", "10", "--c", "1.2", "--iqc", "zf:3"),
        "a98a22de3d90d15533019dc3277748cedbf89ee12ac5bdfeb631b7345ae91623"),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_output_bytes_pinned(tmp_path, capsys, name):
    argv, digest = PINNED_OUTPUTS[name]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the SVG chart each sweep writes with --svg: also for one row,
# a single x, and for rows with no certificate, where no point is drawn.
PINNED_SVGS = {
    "sweep-kappa": (
        ("sweep-kappa", "--c", "1.3", "--points", "40"),
        "61d1d790829ee47452291264e5056dc4b42fec6c28000d378de63bcafe45d659"),
    "sweep-c": (
        ("sweep-c", "--kappa", "7", "--points", "41"),
        "10c244cd9d3de441011a2d191b429f5148c47a6b1b2ba4951362fa19fdef1e10"),
    "sweep-c-single-x": (
        ("sweep-c", "--kappa", "7", "--points", "1"),
        "2186aa29dd07644dc16d8b9e0068418316215e5c9db0b66997b5aba1bbd409e5"),
    "sweep-c-no-point": (
        ("sweep-c", "--kappa", "10", "--c-min", "2.2", "--c-max", "2.5", "--points", "3"),
        "790b78dcbdddfc3cc49123784e5a1ec160e4c42eebad6217109814a644a5f079"),
}


@pytest.mark.parametrize("name", list(PINNED_SVGS))
def test_svg_bytes_pinned(tmp_path, capsys, name):
    argv, digest = PINNED_SVGS[name]
    svg = tmp_path / "chart.svg"
    assert run_cli(*argv, "--out", str(tmp_path / "out"), "--svg", str(svg)) == 0
    capsys.readouterr()
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest
