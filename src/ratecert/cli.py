"""Command-line surface: certify single instances, sweep the condition
number or the interval constant, and validate certificates by simulation.

Exit codes: 0 success (certified / no violations), 1 usage or I/O error,
2 no certificate below rate 1, 3 a simulated trajectory violated its bound.

Every flag can be pre-set from a key=value config file (``--config``);
explicit command-line flags win.  ``--show-config`` prints every default.
CSV is the authoritative output of the sweep and simulate commands; SVG
charts are an optional side output that never affects CSV content or exit
codes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .certifier import Certificate, CertifyOptions, certify
from .ellipsoid import SolverBudgetExceeded
from .iqc import KINDS, ZAMES_FALB
from .model import (
    FunctionClass,
    StepSizeInterval,
    interval_asymmetric,
    interval_from_c,
)
from .simulator import (
    QuadraticProblem,
    policy_from_name,
    run,
    sample_alpha,
    trial_seed,
)
from .svg import Series, line_chart

CSV_NEWLINE = "\n"

# Factory defaults for every flag, keyed by flag name (no leading dashes).
DEFAULTS: dict[str, object] = {
    "rho-tol": 1e-4,
    "seed": 0,
    "out": None,
    "svg": None,
    "m": 1.0,
    "L": 10.0,
    "kappa": None,
    "c": 1.0,
    "c1": None,
    "c2": None,
    "iqc": "sector",
    "zf-order": 2,
    "kappa-min": 1.0,
    "kappa-max": 100.0,
    "c-min": 1.0,
    "c-max": 2.0,
    "points": 25,
    "policy": "uniform",
    "steps": 200,
    "trials": 100,
}

_INT_KEYS = {"seed", "zf-order", "points", "steps", "trials"}
_FLOAT_KEYS = {
    "rho-tol", "m", "L", "kappa", "c", "c1", "c2",
    "kappa-min", "kappa-max", "c-min", "c-max",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


@dataclass
class SweepRow:
    """One line of a sweep CSV; ``rho_star``/``cond_p`` are None when no
    certificate exists (written as empty fields, never magic numbers)."""

    kappa: float
    c: float
    rho_star: float | None
    feasible: bool
    cond_p: float | None


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def format_sweep_csv(rows: list[SweepRow]) -> str:
    out = StringIO()
    out.write("kappa,c,rho_star,feasible,cond_p" + CSV_NEWLINE)
    for r in rows:
        out.write(
            f"{_fmt(r.kappa)},{_fmt(r.c)},{_fmt(r.rho_star)},"
            f"{'true' if r.feasible else 'false'},{_fmt(r.cond_p)}" + CSV_NEWLINE
        )
    return out.getvalue()


def parse_sweep_csv(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.split(CSV_NEWLINE) if ln]
    if not lines or lines[0] != "kappa,c,rho_star,feasible,cond_p":
        raise ValueError("missing or malformed sweep CSV header")
    rows = []
    for ln in lines[1:]:
        kappa, c, rho, feas, cond = ln.split(",")
        rows.append(
            SweepRow(
                kappa=float(kappa),
                c=float(c),
                rho_star=float(rho) if rho else None,
                feasible=feas == "true",
                cond_p=float(cond) if cond else None,
            )
        )
    return rows


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--rho-tol", type=float, default=None, help="bisection tolerance on the rate")
    p.add_argument("--out", default=None, help="output path (CSV or JSON record)")
    p.add_argument("--svg", default=None, help="also write an SVG chart here")
    p.add_argument("--seed", type=int, default=None, help="master seed for simulations")
    p.add_argument("--config", default=None, help="key=value file pre-setting any flag")


def _add_problem(p: argparse.ArgumentParser, fixed_class: bool = True,
                 fixed_c: bool = True):
    """Problem flags; a sweep omits its swept axis and --c1/--c2 (usage errors)."""
    if fixed_class:
        p.add_argument("--m", type=float, default=None, help="strong convexity modulus")
        p.add_argument("--L", type=float, default=None, help="gradient Lipschitz constant")
        p.add_argument("--kappa", type=float, default=None,
                       help="condition number; shorthand for --m 1 --L kappa")
    if fixed_c:
        p.add_argument("--c", type=float, default=None,
                       help="interval constant: steps in [1/(cL), c/L]")
    if fixed_class and fixed_c:
        p.add_argument("--c1", type=float, default=None,
                       help="asymmetric interval: lo = 1/(c1 L)")
        p.add_argument("--c2", type=float, default=None,
                       help="asymmetric interval: hi = c2/L")
    p.add_argument("--iqc", default=None,
                   help="multiplier: sector | wob1 | zf:<k>")
    p.add_argument("--zf-order", type=int, default=None, help="filter order for --iqc zf")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="ratecert", description=__doc__.split("\n\n")[0])
    top.add_argument("--show-config", action="store_true",
                     help="print every default as key=value and exit")
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("certify", parents=[], help="certify one configuration")
    _add_common(p)
    _add_problem(p)

    p = sub.add_parser("sweep-kappa", help="rate vs condition number at fixed c")
    _add_common(p)
    _add_problem(p, fixed_class=False)
    p.add_argument("--kappa-min", type=float, default=None)
    p.add_argument("--kappa-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None, help="log-spaced kappa count")

    p = sub.add_parser("sweep-c", help="rate vs interval constant at fixed kappa")
    _add_common(p)
    _add_problem(p, fixed_c=False)
    p.add_argument("--c-min", type=float, default=None)
    p.add_argument("--c-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None, help="linearly spaced c count")

    p = sub.add_parser("simulate", help="validate a certificate on sampled trajectories")
    _add_common(p)
    _add_problem(p)
    p.add_argument("--policy", default=None,
                   help="uniform | endpoints | alternating | constant:<a> | adversarial")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            cfg[key] = value.strip()
    return cfg


def _convert(key: str, value: str):
    if value == "":
        return None
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


class Resolved:
    """Flag values after merging command line > config file > defaults.

    ``explicit`` records which keys were given on the command line, which
    matters for mutually exclusive flags with non-None defaults (--c vs
    --c1/--c2)."""

    def __init__(self, args: argparse.Namespace):
        cfg = {}
        if getattr(args, "config", None):
            cfg = _read_config(args.config)
        self.explicit: set[str] = set()
        self._values: dict[str, object] = {}
        for key, factory in DEFAULTS.items():
            attr = key.replace("-", "_")
            cli_val = getattr(args, attr, None)
            if cli_val is not None:
                self._values[key] = cli_val
                self.explicit.add(key)
            elif key in cfg:
                try:
                    self._values[key] = _convert(key, cfg[key])
                except ValueError as exc:
                    raise UsageError(f"config key {key}: {exc}") from exc
            else:
                self._values[key] = factory

    def __getitem__(self, key: str):
        return self._values[key]


def _function_class(res: Resolved) -> FunctionClass:
    if res["kappa"] is not None:
        return FunctionClass(1.0, float(res["kappa"]))
    return FunctionClass(float(res["m"]), float(res["L"]))


def _interval(res: Resolved, fc: FunctionClass) -> StepSizeInterval:
    c1, c2 = res["c1"], res["c2"]
    if (c1 is None) != (c2 is None):
        raise UsageError("--c1 and --c2 must be given together")
    if c1 is not None:
        if "c" in res.explicit:
            raise UsageError("--c is mutually exclusive with --c1/--c2")
        return interval_asymmetric(fc, float(c1), float(c2))
    return interval_from_c(fc, float(res["c"]))


def _iqc_spec(res: Resolved) -> tuple[str, int]:
    name = str(res["iqc"])
    zf_order = int(res["zf-order"])
    if name.startswith("zf:"):
        try:
            zf_order = int(name.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad --iqc value {name!r}") from None
        name = ZAMES_FALB
    if name not in KINDS:
        raise UsageError(
            f"unknown --iqc value {name!r}; expected sector, wob1 or zf:<k>"
        )
    if zf_order < 1:
        raise UsageError(f"zf order must be >= 1, got {zf_order}")
    return name, zf_order


def _certify(res: Resolved, fc: FunctionClass, interval: StepSizeInterval) -> Certificate:
    kind, zf_order = _iqc_spec(res)
    return certify(
        fc,
        interval,
        iqc_kind=kind,
        zf_order=zf_order,
        options=CertifyOptions(rho_tol=float(res["rho-tol"])),
    )


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_certify(res: Resolved) -> int:
    fc = _function_class(res)
    interval = _interval(res, fc)
    cert = _certify(res, fc, interval)
    record = {
        "m": fc.m,
        "L": fc.L,
        "kappa": fc.kappa(),
        "interval_lo": interval.lo,
        "interval_hi": interval.hi,
        "iqc": cert.iqc_kind,
        "zf_order": cert.zf_order,
        "feasible": cert.feasible,
        "rho_star": cert.rho_star,
        "lambda": cert.witness.lam if cert.witness else None,
        "cond_p": cert.cond_p,
        "bisection_iters": cert.bisection_iters,
        "rho_tol": cert.rho_tol,
    }
    if res["out"] is not None:
        _write_text(str(res["out"]), json.dumps(record, indent=2) + "\n")
    if not cert.feasible:
        print("no certificate: the rate inequality family is infeasible "
              "for every rho < 1")
        return 2
    print(f"rho_star    {_fmt(cert.rho_star)}")
    print(f"cond_P      {_fmt(cert.cond_p)}")
    print(f"lambda      {_fmt(cert.witness.lam)}")
    print(f"grid        {len(cert.grid)} point(s) in "
          f"[{_fmt(interval.lo)}, {_fmt(interval.hi)}]")
    print(f"iterations  {cert.bisection_iters}")
    return 0


def _sweep_rows(params: list[tuple[float, float]], res: Resolved) -> list[SweepRow]:
    """Certify one row per (kappa, c), serially and in input order."""

    def one(kappa: float, c: float) -> SweepRow:
        fc = FunctionClass(1.0, kappa)
        cert = _certify(res, fc, interval_from_c(fc, c))
        return SweepRow(kappa, c, cert.rho_star, cert.feasible, cert.cond_p)

    return [one(kappa, c) for kappa, c in params]


def cmd_sweep_kappa(res: Resolved) -> int:
    k_min, k_max = float(res["kappa-min"]), float(res["kappa-max"])
    points = int(res["points"])
    if not (1.0 <= k_min <= k_max) or points < 1:
        raise UsageError("need 1 <= kappa-min <= kappa-max and points >= 1")
    c = float(res["c"])
    if points == 1:
        kappas = [k_min]
    else:
        kappas = [float(k) for k in np.logspace(math.log10(k_min), math.log10(k_max), points)]
    rows = _sweep_rows([(k, c) for k in kappas], res)
    _write_text(res["out"], format_sweep_csv(rows))
    if res["svg"] is not None:
        data = [(r.kappa, r.rho_star) for r in rows]
        ref = [(k, 1.0 - 1.0 / k) for k in kappas]
        chart = line_chart(
            [
                Series(f"certified rate (c={c:g})", data, color="#000000"),
                Series("1 - 1/kappa", ref, color="#cc0000", dashed=True),
            ],
            title="Certified rate vs condition number",
            x_label="kappa",
            y_label="rho",
            log_x=True,
        )
        _write_text(str(res["svg"]), chart)
    return 0


def cmd_sweep_c(res: Resolved) -> int:
    c_min, c_max = float(res["c-min"]), float(res["c-max"])
    points = int(res["points"])
    if not (1.0 <= c_min <= c_max <= 2.5) or points < 1:
        raise UsageError("need 1 <= c-min <= c-max <= 2.5 and points >= 1")
    fc = _function_class(res)
    kappa = fc.kappa()
    cs = [c_min] if points == 1 else [
        float(c) for c in np.linspace(c_min, c_max, points)
    ]
    rows = _sweep_rows([(kappa, c) for c in cs], res)
    _write_text(res["out"], format_sweep_csv(rows))
    if res["svg"] is not None:
        data = [(r.c, r.rho_star) for r in rows]
        chart = line_chart(
            [Series(f"certified rate (kappa={kappa:g})", data, color="#000000")],
            title="Certified rate vs interval constant",
            x_label="c",
            y_label="rho",
        )
        _write_text(str(res["svg"]), chart)
    return 0


def cmd_simulate(res: Resolved) -> int:
    fc = _function_class(res)
    interval = _interval(res, fc)
    policy_name = str(res["policy"])
    steps, trials, seed = int(res["steps"]), int(res["trials"]), int(res["seed"])
    sample_alpha(policy_from_name(policy_name, spectrum=(fc.m,)), interval, 0,
                 np.random.default_rng(seed))  # validate early (constant in range)
    if steps < 0 or trials < 1:
        raise UsageError("need steps >= 0 and trials >= 1")

    cert = _certify(res, fc, interval)
    if not cert.feasible:
        print("no certificate to validate (rate inequality family infeasible)")
        return 2

    out = StringIO()
    out.write("trial,seed,max_ratio,violated" + CSV_NEWLINE)
    any_violated = False
    for i in range(trials):
        dim = 1 + i % 5
        spectrum = _trial_spectrum(fc, dim, seed, i)
        policy = policy_from_name(policy_name, spectrum=spectrum)
        report = run(
            QuadraticProblem(spectrum),
            interval,
            policy,
            steps,
            np.ones(dim),
            cert,
            trial_seed(seed, i),
        )
        any_violated = any_violated or report.violated
        out.write(
            f"{i},{report.seed},{_fmt(report.max_ratio)},"
            f"{'true' if report.violated else 'false'}" + CSV_NEWLINE
        )
    _write_text(res["out"], out.getvalue())
    if res["out"] is not None:
        print(f"{trials} trial(s), rho_star {_fmt(cert.rho_star)}, "
              f"violations: {'yes' if any_violated else 'no'}")
    return 3 if any_violated else 0


def _trial_spectrum(fc: FunctionClass, dim: int, seed: int, index: int) -> tuple[float, ...]:
    """Hessian spectrum for one trial: random inside [m, L], with the class
    endpoints pinned in dimension >= 2 and pure-endpoint problems cycled in
    dimension 1 (those attain the worst rates).  The generator is built only
    for a spectrum that draws from it."""

    def draw(size=None):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index, 1])))
        return rng.uniform(fc.m, fc.L, size=size)

    if dim == 1:
        pick = index % 3
        if pick == 0:
            return (fc.m,)
        if pick == 1:
            return (fc.L,)
        return (float(draw()),)
    rest = map(float, draw(dim - 2)) if dim > 2 else ()
    return (fc.m, fc.L, *rest)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "show_config", False):
            for key in sorted(DEFAULTS):
                value = DEFAULTS[key]
                print(f"{key}={'' if value is None else value}")
            return 0
        if args.command is None:
            raise UsageError("a subcommand is required "
                             "(certify, sweep-kappa, sweep-c, simulate)")
        res = Resolved(args)
        handler = {
            "certify": cmd_certify,
            "sweep-kappa": cmd_sweep_kappa,
            "sweep-c": cmd_sweep_c,
            "simulate": cmd_simulate,
        }[args.command]
        return handler(res)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, SolverBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
