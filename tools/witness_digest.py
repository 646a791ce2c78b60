"""sha256 over a fixed set of random dynamic-multiplier certifications.

    python3 tools/witness_digest.py                 # 3,000 draws, seed 2026
    python3 tools/witness_digest.py --draws 300

Two checkouts whose certifier, ellipsoid and eigen path give the same bits
print the same digest, so a change that claims bit-identical certificates
runs this script at both commits and compares the last line.  The program
is imported from ``src/`` of the checkout that holds this script.

Draws, in order, each from ``numpy.random.default_rng(seed)`` (one draw is
four generator calls in this order):

* kind: uniform over wob1, zf:2 and zf:3 (``rng.integers(3)``);
* kappa: log-uniform in [1, 100] (``10 ** rng.uniform(0, 2)``);
* c: uniform in [1, 1.6] (``rng.uniform(1, 1.6)``);
* rho_tol: log-uniform in [1e-6, 1e-3] (``10 ** rng.uniform(-6, -3)``).

Each draw certifies ``FunctionClass(1, kappa)`` on ``interval_from_c(fc,
c)`` with ``CertifyOptions(rho_tol=rho_tol)``.  Hashed per draw, floats as
their 8 little-endian IEEE bytes and None as the byte string ``none``: the
kind, zf order, kappa, c and rho_tol; ``rho_star``, ``cond_p``,
``weights`` and ``bisection_iters``; and, for a certificate with a
witness, ``lam``, ``slack`` and the bytes of P in C order.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from ratecert.certifier import CertifyOptions, certify  # noqa: E402
from ratecert.model import FunctionClass, interval_from_c  # noqa: E402

KINDS = (("wob1", 1), ("zf", 2), ("zf", 3))


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


def digest(draws: int, seed: int) -> tuple[str, int]:
    """The sha256 hex digest over ``draws`` certifications, and how many
    of them certified a rate."""
    rng = np.random.default_rng(seed)
    sha = hashlib.sha256()
    certified = 0
    for _ in range(draws):
        kind, order = KINDS[int(rng.integers(3))]
        kappa = 10.0 ** float(rng.uniform(0.0, 2.0))
        c = float(rng.uniform(1.0, 1.6))
        rho_tol = 10.0 ** float(rng.uniform(-6.0, -3.0))
        fc = FunctionClass(1.0, kappa)
        cert = certify(fc, interval_from_c(fc, c), iqc_kind=kind, zf_order=order,
                       options=CertifyOptions(rho_tol=rho_tol))
        sha.update(kind.encode() + _bytes(order, kappa, c, rho_tol))
        sha.update(_bytes(cert.rho_star, cert.cond_p, *cert.weights, cert.bisection_iters))
        if cert.witness is not None:
            certified += 1
            sha.update(_bytes(cert.witness.lam, cert.slack))
            sha.update(np.ascontiguousarray(cert.witness.p).tobytes())
    return sha.hexdigest(), certified


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    hexdigest, certified = digest(args.draws, args.seed)
    print(f"draws {args.draws}, seed {args.seed}, certified {certified}")
    print(hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
