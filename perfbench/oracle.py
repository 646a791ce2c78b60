"""Output checks run on every op after its clock stops.

The certificates an op builds are captured through a pass-through wrapper on
``ratecert.cli.certify`` (the name every CLI command looks up at call time).
An op fails when any of these holds:

* the command raised;
* its exit code is outside {0, 2};
* ``verify_certificate`` rejects a certificate it built;
* a certificate's ``rho_star`` lies below the exact worst-case rate
  ``max(closed_form_rate(lo), closed_form_rate(hi))`` by more than ``rho_tol``;
* the ``rho_star`` the command printed or wrote differs from its certificate's;
* a simulate row reports ``violated=true``.

Failures are returned as reasons and never raise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class OpResult:
    """What one op produced; filled in by the benchmark loop."""

    argv: list[str]
    outputs: dict[str, bytes]      # kind -> file bytes (json, csv, svg)
    stdout: str
    exit_code: int | None          # None when the command raised
    error: str | None
    certs: list = field(default_factory=list)


class Capture:
    """Pass-through on ``cli.certify`` that keeps every certificate built."""

    def __init__(self, cli_module):
        self._cli = cli_module
        self._orig = None
        self.certs: list = []

    def __enter__(self):
        orig = self._orig = self._cli.certify
        sink = self.certs

        def certify(*args, **kwargs):
            cert = orig(*args, **kwargs)
            sink.append(cert)  # list.append is atomic: sweep rows run on threads
            return cert

        self._cli.certify = certify
        return self

    def __exit__(self, *exc):
        self._cli.certify = self._orig
        return False

    def take(self) -> list:
        certs, self.certs[:] = list(self.certs), []
        return certs


def exact_rate(cert, closed_form_rate) -> float:
    iv = cert.interval
    return max(closed_form_rate(iv.lo, cert.fc), closed_form_rate(iv.hi, cert.fc))


def _fmt(x: float | None) -> str:
    # The CLI writes CSV numbers with 12 significant digits.
    return "" if x is None else f"{x:.12g}"


class Oracle:
    def __init__(self, certifier_module):
        self._verify = certifier_module.verify_certificate
        self._closed_form_rate = certifier_module.closed_form_rate

    def check(self, res: OpResult) -> list[str]:
        """Reasons the op failed; empty when every check passes."""
        if res.error is not None:
            return [f"raised {res.error}"]
        reasons = []
        if res.exit_code not in (0, 2):
            reasons.append(f"exit code {res.exit_code}")
        for cert in res.certs:
            reasons += self._check_cert(cert)
        command = res.argv[0]
        try:
            if command == "certify":
                reasons += self._check_certify(res)
            elif command in ("sweep-kappa", "sweep-c"):
                reasons += self._check_sweep(res)
            elif command == "simulate":
                reasons += self._check_simulate(res)
        except (KeyError, ValueError, IndexError, UnicodeDecodeError) as exc:
            reasons.append(f"unreadable output: {exc!r}")
        return reasons

    def _check_cert(self, cert) -> list[str]:
        if cert.rho_star is None:
            return []
        reasons = []
        try:
            if not self._verify(cert):
                reasons.append(f"verify_certificate rejected rho_star {cert.rho_star!r}")
        except Exception as exc:  # a raising verifier is a failed check, not a crash
            reasons.append(f"verify_certificate raised {exc!r}")
        r_exact = exact_rate(cert, self._closed_form_rate)
        if cert.rho_star < r_exact - cert.rho_tol:
            reasons.append(
                f"rho_star {cert.rho_star!r} below exact rate {r_exact!r} - rho_tol"
            )
        return reasons

    def _check_certify(self, res: OpResult) -> list[str]:
        if len(res.certs) != 1:
            return [f"built {len(res.certs)} certificates, expected 1"]
        record = json.loads(res.outputs["json"])
        cert = res.certs[0]
        if record["rho_star"] != cert.rho_star or record["feasible"] != cert.feasible:
            return [f"JSON rho_star {record['rho_star']!r} != certificate {cert.rho_star!r}"]
        return []

    def _check_sweep(self, res: OpResult) -> list[str]:
        lines = res.outputs["csv"].decode().split("\n")
        rows = [ln.split(",") for ln in lines[1:] if ln]
        if len(rows) != len(res.certs):
            return [f"{len(rows)} CSV rows for {len(res.certs)} certificates"]
        # Rows come out in input order, ascending in kappa and then c, while
        # the pool finishes rows in any order; c is increasing in interval.hi.
        certs = sorted(res.certs, key=lambda ct: (ct.fc.L / ct.fc.m, ct.interval.hi))
        reasons = []
        for row, cert in zip(rows, certs):
            kappa, _c, rho, feasible = row[0], row[1], row[2], row[3]
            if not math.isclose(float(kappa), cert.fc.kappa(), rel_tol=1e-9):
                reasons.append(f"CSV row kappa {kappa} has no certificate")
            elif rho != _fmt(cert.rho_star) or (feasible == "true") != cert.feasible:
                reasons.append(f"CSV rho_star {rho!r} != certificate {cert.rho_star!r}")
        return reasons

    def _check_simulate(self, res: OpResult) -> list[str]:
        if len(res.certs) != 1:
            return [f"built {len(res.certs)} certificates, expected 1"]
        cert = res.certs[0]
        if cert.rho_star is None:
            return []
        reasons = []
        printed = res.stdout.split("rho_star ", 1)[1].split(",", 1)[0]
        if printed != _fmt(cert.rho_star):
            reasons.append(f"printed rho_star {printed!r} != certificate {cert.rho_star!r}")
        rows = [ln.split(",") for ln in res.outputs["csv"].decode().split("\n")[1:] if ln]
        violated = sum(row[3] == "true" for row in rows)
        if violated:
            reasons.append(f"{violated} simulated trajectories violated the bound")
        return reasons
