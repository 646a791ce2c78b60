"""sha256 over a fixed set of random certifications.

    python3 tools/witness_digest.py                   # dynamic, 3,000 draws, seed 2026
    python3 tools/witness_digest.py --family sector   # sector, 3,000 draws, seed 2026
    python3 tools/witness_digest.py --family sweep-c  # sweep-c commands
    python3 tools/witness_digest.py --family simulate # simulate commands
    python3 tools/witness_digest.py --draws 300

Two checkouts whose certifier, barrier solver and eigen path give the same bits
print the same digest, so a change that claims bit-identical certificates
runs this script at both commits and compares the last line.  The program
is imported from ``src/`` of the checkout that holds this script.  Floats
are hashed as their 8 little-endian IEEE bytes, ints as 8 little-endian
bytes and None as the byte string ``none``.

``--family dynamic`` (the default) draws, in order, each from
``numpy.random.default_rng(seed)`` (one draw is four generator calls in
this order):

* kind: uniform over wob1, zf:2 and zf:3 (``rng.integers(3)``);
* kappa: log-uniform in [1, 100] (``10 ** rng.uniform(0, 2)``);
* c: uniform in [1, 1.6] (``rng.uniform(1, 1.6)``);
* rho_tol: log-uniform in [1e-6, 1e-3] (``10 ** rng.uniform(-6, -3)``).

Each draw certifies ``FunctionClass(1, kappa)`` on ``interval_from_c(fc,
c)`` with ``certify(..., rho_tol=rho_tol)``.  Hashed per draw: the kind,
zf order, kappa, c and rho_tol; ``rho_star``, ``cond_p``, ``weights`` and
``bisection_iters``; and, for a certificate with a witness, ``lam``,
``slack`` and the bytes of P in C order.  Five lines come before the
digest: the mean and the largest number of Newton steps (calls of
``ellipsoid._newton_system``) per certification; the same for barrier
solves (calls of ``certifier.ellipsoid_feasibility``) per certification;
the same for Newton steps per solve, over the first solve of each
certification (from the cold start) and over the later ones (started from
the lowest-rate witness found so far); the same again, over the solves
that returned a point (feasible) and over those that returned None
(infeasible); and a rates-only digest over the kind, zf order, kappa, c
and rho_tol and ``rho_star`` and ``bisection_iters``, hashed as above.  A
change that moves witness bits but no rate leaves that digest equal at
both commits.

``--family sector`` draws, in order (one draw is seven generator calls in
this order, all made whichever are used):

* near: ``rng.integers(4)``; 0, 1 and 2 pick kappa 1, 1 + 1e-12 and
  1 + 1e-9, and 3 the kappa drawn next;
* kappa: log-uniform in [1, 1e6] (``10 ** rng.uniform(0, 6)``);
* m: log-uniform in [1e-3, 1e3] (``10 ** rng.uniform(-3, 3)``);
* shape: ``rng.integers(2)``; 0 is the symmetric ``interval_from_c(fc,
  c2)``, 1 the asymmetric ``interval_asymmetric(fc, c1, c2)``, never empty;
* c1: uniform in [1, 3] (``rng.uniform(1, 3)``);
* c2: uniform in [1, 2] (``rng.uniform(1, 2)``);
* rho_tol: log-uniform in [1e-12, 1e-3] (``10 ** rng.uniform(-12, -3)``).

Each draw certifies ``FunctionClass(m, m * kappa)`` with the sector
multiplier and ``certify(..., rho_tol=rho_tol)``.  Hashed per draw: m,
the class's L, the shape, c1, c2 and rho_tol; then ``rho_star``, ``lam``
(None without a witness) and ``bisection_iters``.  The line before the
digest gives the mean and the largest number of solves (calls of
``search.sector_lambda``) per certification.

``--family sweep-c`` draws ``ratecert sweep-c`` commands, in order (one
draw is five generator calls in this order, all made whichever are used):

* kappa: log-uniform in [1, 1e3] (``10 ** rng.uniform(0, 3)``);
* c-min: uniform in [1, 2.5] (``rng.uniform(1, 2.5)``);
* width: ``rng.uniform(0, 1)``, so that c-max = c-min + width * (2.5 - c-min);
* points: ``1 + rng.integers(41)``, or ``1 + rng.integers(4)`` for wob1;
* rho-tol: log-uniform in [1e-10, 1e-3] (``10 ** rng.uniform(-10, -3)``),
  or ``1e-3`` for wob1.

Draw i runs ``sweep-c --kappa K --c-min C0 --c-max C1 --points N --rho-tol
T`` with ``--iqc sector``, or ``--iqc wob1`` when i % 10 == 9; numbers are
passed as ``repr`` of their float.  Hashed per draw: the argument list
(UTF-8, NUL-separated), the exit code and the CSV bytes written to stdout.
The line before the digest gives the mean and the largest number of sector
solves (calls of ``search.sector_lambda``) per command; a wob1 command
makes none.

``--family simulate`` draws ``ratecert simulate`` commands, in order (one
draw is eight generator calls in this order, all made whichever are used):

* kappa: log-uniform in [1, 100] (``10 ** rng.uniform(0, 2)``);
* c: uniform in [1, 1.6] (``rng.uniform(1, 1.6)``);
* policy: ``rng.integers(5)`` over uniform, endpoints, alternating,
  adversarial and ``constant:<a>``;
* frac: ``rng.uniform(-0.1, 1.1)``, the constant step ``a = lo + frac *
  (hi - lo)`` on the interval [1/(c kappa), c/kappa], so that some
  constant steps lie outside it;
* trials: ``1 + rng.integers(100)``;
* steps: ``rng.integers(201)``;
* seed: ``rng.integers(2**63)``;
* rho-tol: log-uniform in [1e-8, 1e-3] (``10 ** rng.uniform(-8, -3)``),
  or ``1e-3`` for wob1.

Draw i runs ``simulate --kappa K --c C --policy P --trials N --steps S
--seed D --rho-tol T`` with ``--iqc sector``, or ``--iqc wob1`` when i % 10
== 9; floats are passed as ``repr``.  Hashed per draw: the argument list
(UTF-8, NUL-separated), the exit code and the bytes written to stdout (the
CSV, or the line of an exit 2); what goes to stderr is dropped.  The line
before the digest gives the mean and the largest number of sector solves
per command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from ratecert import certifier, cli, ellipsoid, search  # noqa: E402
from ratecert.model import (  # noqa: E402
    FunctionClass,
    interval_asymmetric,
    interval_from_c,
)
from ratecert.search import certify  # noqa: E402

KINDS = (("wob1", 1), ("zf", 2), ("zf", 3))
NEAR_ONE = (1.0, 1.0 + 1e-12, 1.0 + 1e-9)


def _bytes(*values) -> bytes:
    """Each value as 8 float bytes, an int as 8 int bytes, None as b'none'."""
    out = []
    for v in values:
        if v is None:
            out.append(b"none")
        elif isinstance(v, int):
            out.append(struct.pack("<q", v))
        else:
            out.append(struct.pack("<d", v))
    return b"".join(out)


def _dynamic_draw(rng, sha, rates, index: int) -> bool:
    """Certify and hash one dynamic draw, its rate also into ``rates``; True
    when it certified a rate."""
    kind, order = KINDS[int(rng.integers(3))]
    kappa = 10.0 ** float(rng.uniform(0.0, 2.0))
    c = float(rng.uniform(1.0, 1.6))
    rho_tol = 10.0 ** float(rng.uniform(-6.0, -3.0))
    fc = FunctionClass(1.0, kappa)
    cert = certify(fc, interval_from_c(fc, c), iqc_kind=kind, zf_order=order,
                   rho_tol=rho_tol)
    draw = kind.encode() + _bytes(order, kappa, c, rho_tol)
    sha.update(draw)
    sha.update(_bytes(cert.rho_star, cert.cond_p, *cert.weights, cert.bisection_iters))
    rates.update(draw + _bytes(cert.rho_star, cert.bisection_iters))
    if cert.witness is None:
        return False
    sha.update(_bytes(cert.witness.lam, cert.slack))
    sha.update(np.ascontiguousarray(cert.witness.p).tobytes())
    return True


def _sector_draw(rng, sha, rates, index: int) -> bool:
    """Certify and hash one sector draw; True when it certified a rate."""
    near = int(rng.integers(4))
    kappa = 10.0 ** float(rng.uniform(0.0, 6.0))
    m = 10.0 ** float(rng.uniform(-3.0, 3.0))
    shape = int(rng.integers(2))
    c1 = float(rng.uniform(1.0, 3.0))
    c2 = float(rng.uniform(1.0, 2.0))
    rho_tol = 10.0 ** float(rng.uniform(-12.0, -3.0))
    fc = FunctionClass(m, m * (NEAR_ONE[near] if near < 3 else kappa))
    interval = interval_asymmetric(fc, c1, c2) if shape else interval_from_c(fc, c2)
    cert = certify(fc, interval, rho_tol=rho_tol)
    lam = None if cert.witness is None else cert.witness.lam
    sha.update(_bytes(fc.m, fc.L, shape, c1, c2, rho_tol))
    sha.update(_bytes(cert.rho_star, lam, cert.bisection_iters))
    return cert.witness is not None


def _sweep_c_draw(rng, sha, rates, index: int) -> int:
    """Run and hash one sweep-c draw; the number of rows it certified."""
    wob1 = index % 10 == 9
    kappa = 10.0 ** float(rng.uniform(0.0, 3.0))
    c_min = float(rng.uniform(1.0, 2.5))
    c_max = c_min + float(rng.uniform(0.0, 1.0)) * (2.5 - c_min)
    points = 1 + int(rng.integers(4 if wob1 else 41))
    rho_tol = 10.0 ** float(rng.uniform(-10.0, -3.0))
    argv = ["sweep-c", "--kappa", repr(kappa), "--c-min", repr(c_min),
            "--c-max", repr(c_max), "--points", str(points),
            "--rho-tol", repr(1e-3 if wob1 else rho_tol),
            "--iqc", "wob1" if wob1 else "sector"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    sha.update("\0".join(argv).encode() + _bytes(code) + out.getvalue().encode())
    return out.getvalue().count(",true,")


POLICIES = ("uniform", "endpoints", "alternating", "adversarial", "constant")


def _simulate_draw(rng, sha, rates, index: int) -> bool:
    """Run and hash one simulate draw; True when it had a certificate to
    validate."""
    wob1 = index % 10 == 9
    kappa = 10.0 ** float(rng.uniform(0.0, 2.0))
    c = float(rng.uniform(1.0, 1.6))
    policy = POLICIES[int(rng.integers(5))]
    frac = float(rng.uniform(-0.1, 1.1))
    trials = 1 + int(rng.integers(100))
    steps = int(rng.integers(201))
    seed = int(rng.integers(2**63))
    rho_tol = 10.0 ** float(rng.uniform(-8.0, -3.0))
    if policy == "constant":
        lo, hi = 1.0 / (c * kappa), c / kappa
        policy = f"constant:{lo + frac * (hi - lo)!r}"
    argv = ["simulate", "--kappa", repr(kappa), "--c", repr(c), "--policy", policy,
            "--trials", str(trials), "--steps", str(steps), "--seed", str(seed),
            "--rho-tol", repr(1e-3 if wob1 else rho_tol),
            "--iqc", "wob1" if wob1 else "sector"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    sha.update("\0".join(argv).encode() + _bytes(code) + out.getvalue().encode())
    return code in (0, 3)


FAMILIES = {"dynamic": _dynamic_draw, "sector": _sector_draw, "sweep-c": _sweep_c_draw,
            "simulate": _simulate_draw}
# The call each family counts per draw: Newton steps for dynamic, solves
# otherwise.
COUNTED = {"dynamic": (ellipsoid, "_newton_system"), "sector": (search, "sector_lambda"),
           "sweep-c": (search, "sector_lambda"), "simulate": (search, "sector_lambda")}


def digest(draws: int, seed: int, family: str = "dynamic"
           ) -> tuple[str, int, list[list[int]], str, list[list[bool]]]:
    """The sha256 hex digest over ``draws`` draws of ``family``, how many
    rates they certified, the counted calls each draw made (``COUNTED``),
    the rates-only hex digest (fed by the dynamic family alone), and each
    barrier solve's verdict, True where it returned a point.  A dynamic
    draw's counts and verdicts are split by barrier solve, one entry per
    solve; any other draw has one count and no verdict."""
    rng = np.random.default_rng(seed)
    sha, rates = hashlib.sha256(), hashlib.sha256()
    draw = FAMILIES[family]
    module, name = COUNTED[family]
    call, solve = getattr(module, name), certifier.ellipsoid_feasibility
    counts, found = [], []

    def counted(*args):
        counts[-1][-1] += 1
        return call(*args)

    def solved(*args, **kwargs):
        counts[-1].append(0)
        point = solve(*args, **kwargs)
        found[-1].append(point is not None)
        return point

    setattr(module, name, counted)
    if family == "dynamic":
        certifier.ellipsoid_feasibility = solved
    try:
        certified = 0
        for index in range(draws):
            counts.append([] if family == "dynamic" else [0])
            found.append([])
            certified += draw(rng, sha, rates, index)
    finally:
        setattr(module, name, call)
        certifier.ellipsoid_feasibility = solve
    return sha.hexdigest(), certified, counts, rates.hexdigest(), found


def _spread(values: list[int]) -> str:
    return f"mean {sum(values) / max(len(values), 1):.4f}, max {max(values, default=0)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--family", choices=sorted(FAMILIES), default="dynamic")
    args = parser.parse_args(argv)
    hexdigest, certified, counts, rates, found = digest(args.draws, args.seed, args.family)
    print(f"draws {args.draws}, seed {args.seed}, certified {certified}")
    what = "Newton steps" if args.family == "dynamic" else "solves"
    per = "command" if args.family in ("sweep-c", "simulate") else "certification"
    print(f"{what} per {per}: {_spread([sum(c) for c in counts])}")
    if args.family == "dynamic":
        print(f"solves per certification: {_spread([len(c) for c in counts])}")
        print(f"Newton steps per solve: first (cold) {_spread([c[0] for c in counts if c])}; "
              f"later (warm) {_spread([n for c in counts for n in c[1:]])}")
        steps = [(n, ok) for c, f in zip(counts, found) for n, ok in zip(c, f)]
        print(f"Newton steps per solve: feasible {_spread([n for n, ok in steps if ok])}; "
              f"infeasible {_spread([n for n, ok in steps if not ok])}")
        print(f"rates {rates}")
    print(hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
