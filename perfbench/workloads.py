"""Seeded workload decks for the ratecert benchmark.

A deck is the list of CLI commands one pass of a workload runs.  Every
instance parameter is drawn by antithetic systematic sampling: the range is
cut into ``n`` equal cells, the lower half of the cells take the point at
offset ``u`` inside the cell and the upper half the mirrored point, with one
``u`` per parameter drawn from the seed.  Each seed therefore gives other
inputs, but every deck covers its ranges evenly, so a deck's total work (and
with it the run-to-run spread of the benchmark) does not hinge on a few lucky
draws.  Two-parameter instances pair the cells by a fixed lattice rule that
maps mirrored cells to mirrored cells.

Only ``random.Random`` is used, so a seed gives the same deck on every
platform and numpy version.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

KAPPA_RANGE = (2.0, 50.0)        # log-uniform
C_RANGE = (1.05, 1.9)            # uniform
# zf:2 takes kappa from one band below and one above its certification onset
# (kappa ~ 19): a zf:2 certificate costs as much as ten wob1 ops while an
# uncertifiable instance stops after one probe, so a deck holds a fixed
# number of each instead of letting the seed decide half of the op time.
ZF_BANDS = ((2.0, 10.0), (25.0, 50.0))
# simulate needs a certificate; the sector multiplier certifies every
# (kappa, c) in this box (its onset at kappa 10 is c ~ 1.52).
SIM_KAPPA_RANGE = (2.0, 10.0)    # log-uniform
SIM_C_RANGE = (1.05, 1.45)       # uniform
# Sweeps take C and K where both commands cost about the same (0.6-0.9 s on
# a 2-CPU machine): the rows of an op run on the CLI's thread pool, whose
# timing noise leaves a run's median and tail no margin for ops that differ
# by 2-6x, as they do over the full ranges.  At K in [6, 10], 30-45% of
# the sweep-c rows lie past the onset and stop after one probe.
SWEEP_C_RANGE = (1.3, 1.5)       # uniform, for sweep-kappa
SWEEP_KAPPA_RANGE = (6.0, 10.0)  # log-uniform, for sweep-c
POLICIES = ("uniform", "endpoints", "alternating", "adversarial")
SIM_TRIALS = 100
SIM_STEPS = 200


@dataclass(frozen=True)
class Sizes:
    """Instance counts of one deck; ``FULL`` is what the benchmark runs."""

    wob1: int = 8            # certify-dynamic, --iqc wob1
    zf2: tuple = (2, 1)      # certify-dynamic, --iqc zf:2, per band of ZF_BANDS
    sweeps: int = 5          # sweep-sector, of each of sweep-kappa and sweep-c
    simulations: int = 24    # simulate-validate, cycling the four policies
    setup_repeats: int = 7   # set-up measurements per run


FULL = Sizes()


@dataclass(frozen=True)
class Instance:
    """One CLI command, without its output paths."""

    command: str
    params: dict = field(default_factory=dict)

    def argv(self, out_dir: str, index: int) -> tuple[list[str], dict[str, str]]:
        """The CLI argument list and the output files it writes, by kind."""
        p = self.params
        stem = f"{out_dir}/op{index:03d}"
        if self.command == "certify":
            outs = {"json": stem + ".json"}
            args = ["certify", "--kappa", _num(p["kappa"]), "--c", _num(p["c"]),
                    "--iqc", p["iqc"], "--out", outs["json"]]
        elif self.command == "sweep-kappa":
            outs = {"csv": stem + ".csv", "svg": stem + ".svg"}
            args = ["sweep-kappa", "--c", _num(p["c"]), "--kappa-min", "1",
                    "--kappa-max", "100", "--points", "40",
                    "--out", outs["csv"], "--svg", outs["svg"]]
        elif self.command == "sweep-c":
            outs = {"csv": stem + ".csv"}
            args = ["sweep-c", "--kappa", _num(p["kappa"]), "--c-min", "1",
                    "--c-max", "2", "--points", "41", "--out", outs["csv"]]
        elif self.command == "simulate":
            outs = {"csv": stem + ".csv"}
            args = ["simulate", "--kappa", _num(p["kappa"]), "--c", _num(p["c"]),
                    "--policy", p["policy"], "--trials", str(p["trials"]),
                    "--steps", str(p["steps"]), "--seed", str(p["seed"]),
                    "--out", outs["csv"]]
        else:
            raise ValueError(f"unknown command {self.command!r}")
        return args, outs


def _num(x: float) -> str:
    return repr(float(x))


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def antithetic(n: int, u: float) -> list[float]:
    """Ascending points in [0, 1), one per cell of width 1/n, mirrored about
    1/2 (an odd middle cell takes offset ``u``)."""
    half = [(i + u) / n for i in range(n // 2)]
    mid = [(n // 2 + u) / n] if n % 2 else []
    return half + mid + [1.0 - p for p in reversed(half)]


def lattice_pairing(n: int) -> list[int]:
    """A fixed permutation s of range(n) with s(n-1-i) == n-1-s(i), so that
    mirrored cells of one parameter meet mirrored cells of the other."""
    if n < 2:
        return list(range(n))
    g = next(g for g in range(3, 2 * n + 3, 2) if math.gcd(g, n) == 1)
    return [(g * i + (g - 1) // 2) % n for i in range(n)]


def _log_points(lo: float, hi: float, n: int, u: float) -> list[float]:
    return [_round(lo * (hi / lo) ** p) for p in antithetic(n, u)]


def _lin_points(lo: float, hi: float, n: int, u: float) -> list[float]:
    return [_round(lo + (hi - lo) * p) for p in antithetic(n, u)]


def _pairs(rng: random.Random, n: int, krange, crange) -> list[tuple[float, float]]:
    kappas = _log_points(*krange, n, rng.random())
    cs = _lin_points(*crange, n, rng.random())
    return [(k, cs[j]) for k, j in zip(kappas, lattice_pairing(n))]


def _certify_dynamic(rng: random.Random, sizes: Sizes) -> list[Instance]:
    deck = [Instance("certify", {"kappa": k, "c": c, "iqc": "wob1"})
            for k, c in _pairs(rng, sizes.wob1, KAPPA_RANGE, C_RANGE)]
    for band, n in zip(ZF_BANDS, sizes.zf2):
        deck += [Instance("certify", {"kappa": k, "c": c, "iqc": "zf:2"})
                 for k, c in _pairs(rng, n, band, C_RANGE)]
    rng.shuffle(deck)
    return deck


def _sweep_sector(rng: random.Random, sizes: Sizes) -> list[Instance]:
    by_kappa = [Instance("sweep-kappa", {"c": c})
                for c in _lin_points(*SWEEP_C_RANGE, sizes.sweeps, rng.random())]
    by_c = [Instance("sweep-c", {"kappa": k})
            for k in _log_points(*SWEEP_KAPPA_RANGE, sizes.sweeps, rng.random())]
    rng.shuffle(by_kappa)
    rng.shuffle(by_c)
    # Ops alternate between the two commands.
    return [op for pair in zip(by_kappa, by_c) for op in pair]


def _simulate_validate(rng: random.Random, sizes: Sizes) -> list[Instance]:
    pairs = _pairs(rng, sizes.simulations, SIM_KAPPA_RANGE, SIM_C_RANGE)
    rng.shuffle(pairs)
    return [
        Instance("simulate", {
            "kappa": k, "c": c, "policy": POLICIES[i % len(POLICIES)],
            "trials": SIM_TRIALS, "steps": SIM_STEPS,
            "seed": rng.randrange(2**31),
        })
        for i, (k, c) in enumerate(pairs)
    ]


# Op time of one pass of the full deck at the reference speed, in seconds.
# A run is a fixed number of passes, so two runs of one program (or the
# runs of two programs that are compared) measure the same ops.
PASS_SECONDS = {"certify-dynamic": 12.5, "sweep-sector": 7.5, "simulate-validate": 5.0}


def passes(workload: str, seconds: float, trace: bool) -> int:
    """Passes for a run of about ``seconds``; a traced run needs an untraced
    pass to compare its traced one with."""
    return max(2 if trace else 1, round(seconds / PASS_SECONDS[workload]))


WORKLOADS = {
    # The ellipsoid backend and its batched eigen-solves do the work; wob1
    # (3x3 blocks) sets the median op, zf:2 (4x4 blocks) most of the time.
    "certify-dynamic": _certify_dynamic,
    # Many closed-form sector rows per op on the CLI thread pool, plus SVG.
    "sweep-sector": _sweep_sector,
    # Per-step Python in the simulator; the control for certifier changes.
    "simulate-validate": _simulate_validate,
}


def make_deck(workload: str, seed: int, sizes: Sizes = FULL) -> list[Instance]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(seed), sizes)
