"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from ratecert.certifier import _runs, _start, eig_sym
from ratecert.cli import SweepRow, format_sweep_csv, parse_sweep_csv
from ratecert.ellipsoid import ellipsoid_feasibility
from ratecert.iqc import (
    augment,
    quad_form,
    sector,
    weighted_off_by_1,
    zames_falb,
)
from ratecert.model import (
    FunctionClass,
    StepSizeInterval,
    interval_from_c,
    reduced,
)
from ratecert.search import (
    SECTOR,
    WEIGHTED_OFF_BY_1,
    ZAMES_FALB,
    certify,
    closed_form_rate,
    default_eps_feas,
    sector_lambda,
)
from ratecert.simulator import (
    AdversarialGreedy,
    Alternating,
    Constant,
    Endpoints,
    QuadraticProblem,
    Uniform,
    run,
)


def _report(num: int, ok: bool, detail: str, t0: float):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} "
          f"({time.perf_counter() - t0:.2f}s) - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rate(kappa: float, c: float, kind: str = SECTOR, zf_order: int = 2):
    fc = FunctionClass(1.0, kappa)
    return certify(fc, interval_from_c(fc, c), iqc_kind=kind,
                   zf_order=zf_order).rho_star


def test_criterion_1_constant_step_recovery():
    t0 = time.perf_counter()
    errs = {}
    for kappa in (1.5, 2.0, 5.0, 10.0, 50.0, 100.0):
        rho = _rate(kappa, 1.0)
        errs[kappa] = abs(rho - (1.0 - 1.0 / kappa))
    worst = max(errs.values())
    _report(1, worst <= 2e-3, f"max |rho* - (1 - 1/kappa)| = {worst:.2e}", t0)


def test_criterion_2_closed_form_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        m = float(rng.uniform(0.1, 5.0))
        L = m * float(rng.uniform(1.0, 50.0))
        fc = FunctionClass(m, L)
        alpha = float(rng.uniform(0.2 / L, 1.8 / L))
        cert = certify(fc, StepSizeInterval(alpha, alpha))
        # The bisection never reports below its bracket floor rho_lo = 1e-3.
        target = max(closed_form_rate(alpha, fc), 1e-3)
        worst = max(worst, abs(cert.rho_star - target))
    _report(2, worst <= 2e-3, f"max |rho* - closed form| = {worst:.2e} over 50 draws", t0)


def test_criterion_3_c_threshold_at_two():
    t0 = time.perf_counter()
    fc = FunctionClass(1.0, 1.001)
    ok_low = certify(fc, interval_from_c(fc, 1.95)).rho_star is not None
    ok_high = certify(fc, interval_from_c(fc, 2.05)).rho_star is None
    _report(3, ok_low and ok_high,
            f"c=1.95 certified: {ok_low}, c=2.05 no certificate: {ok_high}", t0)


def test_criterion_4_transition_condition_numbers():
    t0 = time.perf_counter()
    largest = {}
    for c, lo, hi in ((1.4, 15, 21), (1.8, 4, 7)):
        last = None
        for kappa in range(2, 30):
            if _rate(float(kappa), c) is not None:
                last = kappa
        largest[c] = last
    ok = 15 <= largest[1.4] <= 21 and 4 <= largest[1.8] <= 7
    _report(4, ok, f"largest feasible integer kappa: c=1.4 -> {largest[1.4]}, "
                   f"c=1.8 -> {largest[1.8]}", t0)


def test_criterion_5_divergence_onsets_in_c():
    t0 = time.perf_counter()

    def first_infeasible(kappa):
        c = 1.00
        while c <= 2.5:
            if _rate(kappa, round(c, 2)) is None:
                return round(c, 2)
            c += 0.01
        return None

    onset_10 = first_infeasible(10.0)
    onset_50 = first_infeasible(50.0)
    k2_cs = [round(1.0 + 0.01 * i, 2) for i in range(101)]
    k2_certified = {c: _rate(2.0, c) is not None for c in k2_cs}
    k2_below_two = all(k2_certified[c] for c in k2_cs if c < 2.0)
    k2_not_at_two = not k2_certified[2.0]
    # Larger kappa diverges at smaller c: with L = 1, mu = 1/kappa and steps
    # a in {1/c, c}, the shared-lambda block determinant
    # (2 mu lam - eps)(2 lam - a^2) - ((1 + mu) lam - a)^2 has mu-derivative
    # 2 lam (lam (1 - mu) + a (1 - a)) > 0 on 2 lam >= a^2 when c (1 + mu) < 2,
    # and its (1,1) entry loosens as mu grows, so onset(50) <= onset(10).
    # c = 2.00 is excluded for kappa = 2: the step 2/L maps x to -x on
    # f = L x^2 / 2, so the exact worst-case rate is 1 and no rho < 1 is sound.
    ok = (onset_10 is not None and 1.50 <= onset_10 <= 1.60
          and onset_50 is not None and 1.20 <= onset_50 <= 1.30
          and k2_below_two and k2_not_at_two)
    _report(5, ok, f"first infeasible c: kappa=10 -> {onset_10} (expected "
                   f"[1.50, 1.60]), kappa=50 -> {onset_50} (expected "
                   f"[1.20, 1.30]); kappa=2 certified for all c in "
                   f"[1.00, 1.99]: {k2_below_two}, not certified at c=2.00: "
                   f"{k2_not_at_two}", t0)


def test_criterion_6_saturation_near_kappa_one():
    t0 = time.perf_counter()
    rho = _rate(1.001, 1.8)
    ok = rho is not None and 0.78 <= rho <= 0.82
    _report(6, ok, f"rho* = {rho} at kappa=1.001, c=1.8 (band [0.78, 0.82])", t0)


def test_criterion_7_dynamic_iqcs_no_improvement():
    t0 = time.perf_counter()
    gaps = {}
    ok = True
    for kappa in (2.0, 10.0):
        for c in (1.0, 1.2):
            r_sector = _rate(kappa, c)
            r_wob1 = _rate(kappa, c, WEIGHTED_OFF_BY_1)
            r_zf2 = _rate(kappa, c, ZAMES_FALB, zf_order=2)
            gaps[(kappa, c)] = (r_sector - r_wob1, r_sector - r_zf2)
            ok = ok and r_wob1 >= r_sector - 2e-3 and r_zf2 >= r_sector - 2e-3
    detail = ", ".join(
        f"(kappa={k}, c={c}): sector-wob1={g[0]:+.2e}, sector-zf2={g[1]:+.2e}"
        for (k, c), g in gaps.items()
    )
    _report(7, ok, f"improvement beyond the 2e-3 band counts as failure; {detail}", t0)


def test_criterion_8_certificate_soundness_fuzz():
    t0 = time.perf_counter()
    policies = ("uniform", "endpoints", "alternating", "constant", "adversarial")
    violations = 0
    total = 0
    for kappa in (2.0, 10.0):
        fc = FunctionClass(1.0, kappa)
        for c in (1.0, 1.4):
            interval = interval_from_c(fc, c)
            cert = certify(fc, interval)
            assert cert.rho_star is not None
            rng = np.random.default_rng(int(kappa) * 1000 + int(100 * c))
            for trial in range(1000):
                dim = 1 + (trial // 5) % 5
                kind = trial % 8
                if kind == 0:
                    spectrum = (fc.m,) * dim
                elif kind == 1:
                    spectrum = (fc.L,) * dim
                elif kind == 2 and dim >= 2:
                    fill = rng.uniform(fc.m, fc.L, size=dim - 2)
                    spectrum = (fc.m, fc.L, *map(float, fill))
                else:
                    spectrum = tuple(map(float, rng.uniform(fc.m, fc.L, size=dim)))
                name = policies[trial % 5]
                if name == "uniform":
                    pol = Uniform()
                elif name == "endpoints":
                    pol = Endpoints()
                elif name == "alternating":
                    pol = Alternating()
                elif name == "constant":
                    pol = Constant(float(rng.uniform(interval.lo, interval.hi)))
                else:
                    pol = AdversarialGreedy()
                rep = run(QuadraticProblem(spectrum), cert, pol, 200,
                          np.ones(dim), rng=np.random.default_rng([trial, dim]))
                total += 1
                violations += rep.violated
    _report(8, violations == 0,
            f"{violations} violations in {total} trajectories "
            f"(ratio tolerance 1 + 1e-9)", t0)


def test_criterion_9_scale_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    agree = True
    for _ in range(20):
        m = float(10.0 ** rng.uniform(-2, 2))
        kappa = float(rng.uniform(1.0, 60.0))
        c = float(rng.uniform(1.0, 2.0))
        fc = FunctionClass(m, m * kappa)
        fc1 = FunctionClass(1.0, kappa)
        r = certify(fc, interval_from_c(fc, c)).rho_star
        r1 = certify(fc1, interval_from_c(fc1, c)).rho_star
        if (r is None) != (r1 is None):
            agree = False
        elif r is not None:
            worst = max(worst, abs(r - r1))
    _report(9, agree and worst <= 2e-4,
            f"verdicts agree: {agree}, max |rho*(m,L,c) - rho*(1,kappa,c)| = {worst:.2e}", t0)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    notes = []

    # Backend agreement on sector instances.
    rng = np.random.default_rng(1)
    agree = True
    for _ in range(8):
        m = float(rng.uniform(0.5, 2.0))
        fc = FunctionClass(m, m * float(rng.uniform(2.0, 20.0)))
        alpha = float(rng.uniform(0.3 / fc.L, 1.7 / fc.L))
        base = closed_form_rate(alpha, fc)
        fc_n, alphas = reduced(fc, StepSizeInterval(alpha, alpha))
        lmi = augment(fc_n.kappa(), alphas, 0)  # state dimension 1
        eps = default_eps_feas(fc_n.kappa())
        for rho in (min(base + 0.03, 0.9999), max(base - 0.03, 1e-3)):
            a = sector_lambda(rho, alphas, fc_n, eps) is not None
            runs = _runs(lmi, rho, (), eps)
            b = ellipsoid_feasibility(runs, start=_start(1)) is not None
            agree = agree and (a == b)
    notes.append(f"backend agreement: {agree}")

    # Feasibility monotone in rho.
    fc = FunctionClass(1.0, 8.0)
    interval = interval_from_c(fc, 1.3)
    cert = certify(fc, interval)
    fc_n, alphas = reduced(fc, interval)
    eps = default_eps_feas(fc_n.kappa())
    mono = all(
        sector_lambda(cert.rho_star + b, alphas, fc_n, eps) is not None
        for b in (1e-4, 1e-3, 1e-2, 0.05)
    ) and sector_lambda(cert.rho_star - 2 * cert.rho_tol, alphas, fc_n, eps) is None
    notes.append(f"rho-monotonicity: {mono}")

    # Multiplier reduction chain, exact.
    alphas = (0.1,)
    q_s = quad_form(augment(10.0, alphas, 0), sector())
    q_w = quad_form(augment(10.0, alphas, 1), weighted_off_by_1(0.8, 0.3))
    q_z = quad_form(augment(10.0, alphas, 2), zames_falb(0.8, [0.3, 0.0]))
    q_z0 = quad_form(augment(10.0, alphas, 1), zames_falb(0.8, [0.0]))
    chain = (
        np.array_equal(q_z[np.ix_([0, 1, 3], [0, 1, 3])], q_w)
        and np.array_equal(q_z0[np.ix_([0, 2], [0, 2])], q_s)
    )
    notes.append(f"reduction chain: {chain}")

    # Eigensolver reconstruction and orthogonality.
    rng = np.random.default_rng(4)
    eig_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1, 1, size=(n, n))
        sym = 0.5 * a + 0.5 * a.T
        wv, qm = eig_sym(sym)
        eig_ok = eig_ok and (
            np.linalg.norm(qm @ np.diag(wv) @ qm.T - sym)
            <= 1e-10 * max(1.0, np.linalg.norm(sym))
            and np.linalg.norm(qm.T @ qm - np.eye(n)) <= 1e-10
        )
    notes.append(f"eigensolver bounds: {eig_ok}")

    # CSV round-trip.
    rows = [
        SweepRow(kappa=10.0, c=1.4, rho_star=0.962221765137, feasible=True,
                 cond_p=1.0),
        SweepRow(kappa=50.0, c=1.8, rho_star=None, feasible=False, cond_p=None),
    ]
    text = format_sweep_csv(rows)
    back = parse_sweep_csv(text)
    csv_ok = format_sweep_csv(back) == text and back[0].rho_star == rows[0].rho_star
    notes.append(f"csv round-trip: {csv_ok}")

    ok = agree and mono and chain and eig_ok and csv_ok
    _report(10, ok, "; ".join(notes), t0)
