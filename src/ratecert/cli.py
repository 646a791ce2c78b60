"""Command-line surface: certify single instances, sweep the condition
number or the interval constant, and validate certificates by simulation.

Exit codes: 0 success (certified / no violations), 1 usage or I/O error,
2 no certificate at the top rate tried, 3 a simulated trajectory violated
its bound.

``FLAGS`` declares every flag once, with its type, default and help, and
``COMMANDS`` names the flags each subcommand reads; a subcommand rejects
any other flag.  Any flag can be pre-set from a key=value config file
(``--config``), which every subcommand accepts whole and converts with the
table's types; explicit command-line flags win.  ``--show-config`` prints
every default.  CSV is the authoritative output of the sweep and simulate
commands; SVG charts are an optional side output of the sweeps that never
affects CSV content or exit codes.

Start-up loads only what a command uses.  This module imports ``model``,
``search`` (the rate search in plain floats) and ``svg``, none of which
imports numpy or xml, and it computes the sweep grids in plain floats, so
sector ``certify``, ``sweep-kappa`` and ``sweep-c``, ``--show-config`` and
usage errors run without numpy, and only ``certify --out`` imports
``json``.  A dynamic multiplier (``--iqc wob1`` or ``zf:<k>``) loads numpy
with ``certifier`` at its ``certify``'s set-up; ``simulate`` imports the
simulator (and numpy) when it starts, and ``run``, its call per chunk,
imports ``simulator.run`` when first called.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from io import StringIO
from typing import TYPE_CHECKING

from .model import (
    FunctionClass,
    StepSizeInterval,
    interval_asymmetric,
    interval_from_c,
)
from .search import (
    KINDS,
    MAX_ZF_ORDER,
    ZAMES_FALB,
    Certificate,
    SolverBudgetExceeded,
    certify,
    top_rate,
)
from .svg import Series, line_chart

if TYPE_CHECKING:
    import numpy as np


def run(*args):
    """``simulator.run``, imported when first called: the call cmd_simulate
    makes per chunk, looked up in this module so that it can be wrapped or
    replaced here."""
    from .simulator import run as simulate

    return simulate(*args)


CSV_NEWLINE = "\n"

# Every flag, keyed by name (no leading dashes): (type, default, help).  The
# names are also the config-file keys, converted with the same types.
FLAGS: dict[str, tuple[type, object, str | None]] = {
    "rho-tol": (float, 1e-4, "bisection tolerance on the rate"),
    "out": (str, None, "output path (CSV or JSON record)"),
    "svg": (str, None, "also write an SVG chart here"),
    "seed": (int, 0, "master seed for simulations"),
    "m": (float, 1.0, "strong convexity modulus"),
    "L": (float, 10.0, "gradient Lipschitz constant"),
    "kappa": (float, None, "condition number; shorthand for --m 1 --L kappa"),
    "c": (float, 1.0, "interval constant: steps in [1/(cL), c/L]"),
    "c1": (float, None, "asymmetric interval: lo = 1/(c1 L)"),
    "c2": (float, None, "asymmetric interval: hi = c2/L"),
    "iqc": (str, "sector", f"multiplier: sector | wob1 | zf:<k>, 1 <= k <= {MAX_ZF_ORDER}"),
    "kappa-min": (float, 1.0, None),
    "kappa-max": (float, 100.0, None),
    "c-min": (float, 1.0, None),
    "c-max": (float, 2.0, None),
    "points": (int, 25, "swept point count (log-spaced kappa, linear c)"),
    "policy": (str, "uniform",
               "uniform | endpoints | alternating | constant:<a> | adversarial"),
    "steps": (int, 200, None),
    "trials": (int, 100, None),
}

_CLASS = ("m", "L", "kappa")
_INTERVAL = ("c", "c1", "c2")
# Subcommand -> (help, the flags it reads).  A sweep omits its swept axis and
# --c1/--c2; only the sweeps chart, and only simulate draws random numbers.
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "certify": ("certify one configuration",
                ("rho-tol", "out", *_CLASS, *_INTERVAL, "iqc")),
    "sweep-kappa": ("rate vs condition number at fixed c",
                    ("rho-tol", "out", "svg", "c", "iqc",
                     "kappa-min", "kappa-max", "points")),
    "sweep-c": ("rate vs interval constant at fixed kappa",
                ("rho-tol", "out", "svg", *_CLASS, "iqc", "c-min", "c-max", "points")),
    "simulate": ("validate a certificate on sampled trajectories",
                 ("rho-tol", "out", "seed", *_CLASS, *_INTERVAL, "iqc",
                  "policy", "steps", "trials")),
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


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes the ``COMMANDS`` flags, typed from ``FLAGS``.
    No flag has an argparse default, so the parsed namespace holds exactly
    the flags given on the command line."""
    top = _Parser(prog="ratecert", description=__doc__.split("\n\n")[0])
    top.add_argument("--show-config", action="store_true",
                     help="print every default as key=value and exit")
    sub = top.add_subparsers(dest="command")
    for command, (help_, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="key=value file pre-setting any flag")
        for flag in flags:
            type_, _, flag_help = FLAGS[flag]
            p.add_argument(f"--{flag}", dest=flag, type=type_,
                           default=argparse.SUPPRESS, help=flag_help)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _read_config(path: str) -> dict[str, object]:
    """Config values, converted with the flag types."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in FLAGS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if not value:
                continue  # an empty value leaves the default
            try:
                cfg[key] = FLAGS[key][0](value)
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: config key {key}: {exc}") from exc
    return cfg


# The two spellings of the class and of the interval.  Within the config
# file kappa wins over m/L and c1/c2 over c, as in ``_function_class`` and
# ``_interval``; a spelling on the command line replaces the file's other one.
_SPELLINGS = ((("kappa",), ("m", "L")), (("c",), ("c1", "c2")))


class Resolved(dict):
    """Flag values: the ``FLAGS`` defaults, overridden by the config file,
    overridden by the command line.  ``explicit`` holds the keys given on
    the command line, and ``config`` the config file's path, if any.
    Giving both spellings of the class (--kappa and --m/--L) or of the
    interval (--c and --c1/--c2) there is a usage error."""

    def __init__(self, args: argparse.Namespace):
        given = vars(args)
        self.explicit = given.keys() & FLAGS.keys()
        self.config = given.get("config")
        super().__init__((key, default) for key, (_, default, _) in FLAGS.items())
        if self.config:
            self.update(_read_config(self.config))
        for first, second in _SPELLINGS:
            if self.explicit.intersection(first) and self.explicit.intersection(second):
                raise UsageError(f"--{'/--'.join(first)} is mutually exclusive "
                                 f"with --{'/--'.join(second)}")
            for keys, rival in ((first, second), (second, first)):
                if self.explicit.intersection(keys):
                    self.update((key, FLAGS[key][1]) for key in rival)
        self.update((key, given[key]) for key in self.explicit)


def _function_class(res: Resolved) -> FunctionClass:
    if res["kappa"] is not None:
        return FunctionClass(1.0, res["kappa"])
    return FunctionClass(res["m"], res["L"])


def _interval(res: Resolved, fc: FunctionClass) -> StepSizeInterval:
    c1, c2 = res["c1"], res["c2"]
    if (c1 is None) != (c2 is None):
        given, missing = ("c1", "c2") if c2 is None else ("c2", "c1")
        where = f"--{given}" if given in res.explicit else f"{given} in config file {res.config!r}"
        raise UsageError(f"{where} sets {given} but {missing} is not set; "
                         "c1 and c2 must be given together")
    if c1 is not None:
        return interval_asymmetric(fc, c1, c2)
    return interval_from_c(fc, res["c"])


def _iqc_spec(name: str) -> dict:
    """certify's multiplier arguments for an --iqc value."""
    kind, colon, order = name.partition(":")
    if kind == ZAMES_FALB:
        try:
            zf_order = int(order)
        except ValueError:
            zf_order = 0
        if not 1 <= zf_order <= MAX_ZF_ORDER:
            raise UsageError(f"bad --iqc value {name!r}; expected zf:<k> with "
                             f"k >= 1 and k <= {MAX_ZF_ORDER}")
        return {"iqc_kind": kind, "zf_order": zf_order}
    if colon or kind not in KINDS:
        raise UsageError(f"unknown --iqc value {name!r}; expected sector, wob1 or zf:<k>")
    return {"iqc_kind": kind}


def _certify(res: Resolved, fc: FunctionClass, interval: StepSizeInterval) -> Certificate:
    return certify(fc, interval, **_iqc_spec(res["iqc"]), rho_tol=res["rho-tol"])


def _no_certificate(cert: Certificate) -> str:
    """What an exit 2 has shown: the family is infeasible at the top rate
    tried, which alone does not rule out a certificate at a lower rate."""
    return f"no certificate at rho = {top_rate(cert.rho_tol)!r}"


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
        import json  # only a record written to --out needs it

        _write_text(res["out"], json.dumps(record, indent=2) + "\n")
    if not cert.feasible:
        print(_no_certificate(cert))
        return 2
    print(f"rho_star    {_fmt(cert.rho_star)}")
    print(f"cond_P      {_fmt(cert.cond_p)}")
    print(f"lambda      {_fmt(cert.witness.lam)}")
    print(f"iterations  {cert.bisection_iters}")
    return 0


def _sweep_rows(params: list[tuple[float, float]], res: Resolved,
                nested: bool = False) -> list[SweepRow]:
    """Certify one row per (kappa, c), serially and in input order, each
    with one ``certify`` call.  ``nested``: each row's interval contains
    the ones before it, so once a row has no certificate at the top rate,
    no later row has one there either, and each later row is told so."""
    spec = _iqc_spec(res["iqc"])
    rho_tol = res["rho-tol"]
    known_infeasible = None
    rows = []
    for kappa, c in params:
        fc = FunctionClass(1.0, kappa)
        cert = certify(fc, interval_from_c(fc, c), **spec, rho_tol=rho_tol,
                       known_infeasible=known_infeasible)
        if nested and not cert.feasible:
            known_infeasible = top_rate(rho_tol)
        rows.append(SweepRow(kappa, c, cert.rho_star, cert.feasible, cert.cond_p))
    return rows


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` for num >= 1, bit for bit, in plain
    floats: i * step + start with step = (stop - start) / (num - 1) (i / (num
    - 1) * (stop - start) + start when that step is 0), the last point stop."""
    div, delta = num - 1, stop - start
    if div == 0:
        return [0.0 * delta + start]  # numpy's sum: -0.0 comes out as 0.0
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _sweep(res: Resolved, params: list[tuple[float, float]], x: str, label: str,
           title: str, reference: tuple[Series, ...] = (), nested: bool = False) -> int:
    """The body of both sweeps: the rows of ``params`` (``_sweep_rows``), then
    their CSV, then with --svg a chart of the certified rate, curve
    ``label``, over column ``x`` ("kappa", on a log axis, or "c") beside the
    ``reference`` curves."""
    rows = _sweep_rows(params, res, nested)
    _write_text(res["out"], format_sweep_csv(rows))
    if res["svg"] is not None:
        data = [(getattr(r, x), r.rho_star) for r in rows]
        chart = line_chart([Series(label, data, color="#000000"), *reference],
                           title=title, x_label=x, y_label="rho", log_x=x == "kappa")
        _write_text(res["svg"], chart)
    return 0


def cmd_sweep_kappa(res: Resolved) -> int:
    k_min, k_max, points = res["kappa-min"], res["kappa-max"], res["points"]
    if not (1.0 <= k_min <= k_max < math.inf) or points < 1:
        raise UsageError("need 1 <= --kappa-min <= --kappa-max, both finite, and --points >= 1")
    c = res["c"]
    if points == 1:
        kappas = [k_min]
    else:
        # The CLI's own grid: libm's 10 ** y over ``linspace``.  Each kappa
        # is within an ulp of np.logspace's, whose last bit depends on
        # numpy's vectorized power and so on the platform.
        kappas = [10.0 ** y for y in linspace(math.log10(k_min), math.log10(k_max), points)]
    ref = Series("1 - 1/kappa", [(k, 1.0 - 1.0 / k) for k in kappas], color="#cc0000",
                 dashed=True)
    return _sweep(res, [(k, c) for k in kappas], "kappa", f"certified rate (c={c:g})",
                  "Certified rate vs condition number", (ref,))


def cmd_sweep_c(res: Resolved) -> int:
    c_min, c_max, points = res["c-min"], res["c-max"], res["points"]
    if not (1.0 <= c_min <= c_max <= 2.5) or points < 1:
        raise UsageError("need 1 <= c-min <= c-max <= 2.5 and points >= 1")
    kappa = _function_class(res).kappa()
    # The intervals [1/(cL), c/L] grow with c, and a witness for an interval
    # holds on every interval inside it: a rate infeasible for one row is
    # infeasible for every later row, whatever the multiplier.
    return _sweep(res, [(kappa, c) for c in linspace(c_min, c_max, points)], "c",
                  f"certified rate (kappa={kappa:g})", "Certified rate vs interval constant",
                  nested=True)


# The purposes of simulate's random streams: entropy [seed, purpose, dim].
STEP_STREAM, SPECTRUM_STREAM = 0, 1


def cmd_simulate(res: Resolved) -> int:
    import numpy as np

    from . import simulator

    fc = _function_class(res)
    interval = _interval(res, fc)
    policy = simulator.policy_from_name(res["policy"])
    steps, trials, seed = res["steps"], res["trials"], res["seed"]
    if isinstance(policy, simulator.Constant):  # the one policy an interval can reject
        simulator.sample_alpha(policy, interval, 0, None)
    # numpy's own error for a negative seed names no flag.
    for flag, value, least in (("steps", steps, 0), ("trials", trials, 1), ("seed", seed, 0)):
        if value < least:
            raise UsageError(f"need --{flag} >= {least}, got {value}")
    if steps > simulator.MAX_STEPS:  # one trial must fit in a chunk's budget
        raise UsageError(f"need --steps <= {simulator.MAX_STEPS}, got {steps}")

    # Trial i has dimension 1 + i % 5 and is row i // 5 of its dimension
    # group.  Each group draws from one PCG64 stream per purpose, seeded
    # with [seed, purpose, dim] and read in row order, so trial i's step
    # sizes are words [row * steps, (row + 1) * steps) of its group's step
    # stream and its spectrum row i // 5 of the group's spectrum draws,
    # whatever --trials is.  Only random policies get a step stream, and
    # dimension 2 draws no spectrum.
    def stream(purpose, dim):
        return np.random.Generator(np.random.PCG64([seed, purpose, dim]))

    draws_steps = isinstance(policy, simulator.RANDOM_POLICIES)
    streams = {dim: (stream(STEP_STREAM, dim) if draws_steps else None,
                     stream(SPECTRUM_STREAM, dim) if _spectrum_width(dim) else None)
               for dim in range(1, min(trials, 5) + 1)}

    cert = _certify(res, fc, interval)
    if not cert.feasible:
        print(f"{_no_certificate(cert)}, so none to validate")
        return 2

    # Each dimension's trials run in chunks of chunk_trials, one run call
    # (one array pass) per chunk, so only one chunk's arrays and reports
    # are alive at a time, however many trials there are.
    rows = [""] * trials
    any_violated = False
    for dim, (step_rng, spectrum_rng) in streams.items():
        group = range(dim - 1, trials, 5)
        per_chunk = simulator.chunk_trials(steps, dim)
        for lo in range(0, len(group), per_chunk):
            indices = group[lo:lo + per_chunk]
            spectra = _trial_spectra(fc, dim, indices, spectrum_rng)
            for i, report in zip(indices, run(spectra, cert, policy, steps, None, step_rng)):
                any_violated = any_violated or report.violated
                rows[i] = (f"{i},{seed},{_fmt(report.max_ratio)},"
                           f"{'true' if report.violated else 'false'}" + CSV_NEWLINE)
    out = StringIO()
    out.write("trial,seed,max_ratio,violated" + CSV_NEWLINE)
    out.writelines(rows)
    _write_text(res["out"], out.getvalue())
    if res["out"] is not None:
        print(f"{trials} trial(s), rho_star {_fmt(cert.rho_star)}, "
              f"violations: {'yes' if any_violated else 'no'}")
    return 3 if any_violated else 0


def _spectrum_width(dim: int) -> int:
    """Spectrum draws per trial of dimension ``dim``."""
    return 1 if dim == 1 else dim - 2


def _trial_spectra(fc: FunctionClass, dim: int, indices: range,
                   rng: np.random.Generator | None) -> np.ndarray:
    """Hessian spectra of the trials ``indices``, all of dimension ``dim``,
    as the rows of one (len(indices), dim) array: random inside [m, L],
    with the class endpoints pinned in dimension >= 2 and pure-endpoint
    problems cycled in dimension 1 (those attain the worst rates).  The
    trials take the next ``len(indices)`` rows of ``_spectrum_width(dim)``
    uniform draws from ``rng``, one row each, even where dimension 1 pins
    the value; dimension 2 reads no ``rng``."""
    import numpy as np

    ends = np.tile((fc.m, fc.L), (len(indices), 1))
    if dim == 2:
        return ends
    draws = rng.uniform(fc.m, fc.L, size=(len(indices), _spectrum_width(dim)))
    if dim == 1:
        cycle = np.array(indices)[:, None] % 3
        return np.where(cycle == 0, fc.m, np.where(cycle == 1, fc.L, draws))
    return np.hstack((ends, draws))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
        if args.show_config:
            for key, (_, default, _) in sorted(FLAGS.items()):
                print(f"{key}={'' if default is None else default}")
            return 0
        if args.command is None:
            raise UsageError(f"a subcommand is required ({', '.join(COMMANDS)})")
        handler = {
            "certify": cmd_certify,
            "sweep-kappa": cmd_sweep_kappa,
            "sweep-c": cmd_sweep_c,
            "simulate": cmd_simulate,
        }[args.command]
        return handler(Resolved(args))
    except (UsageError, ValueError, OSError, SolverBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
