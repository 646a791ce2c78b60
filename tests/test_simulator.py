import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ratecert import cli, simulator
from ratecert.certifier import CertifyOptions, certify
from ratecert.model import FunctionClass, StepSizeInterval, interval_from_c
from ratecert.simulator import (
    AdversarialGreedy,
    Alternating,
    CertificateMissing,
    Constant,
    Endpoints,
    QuadraticProblem,
    Uniform,
    UnknownPolicy,
    VIOLATION_SLACK,
    pcg64_generator,
    policy_from_name,
    run,
    sample_alpha,
    seed_words,
    step,
    trial_seed,
    trial_seeds,
)

FC10 = FunctionClass(1.0, 10.0)


def _cert(fc=FC10, c=1.0, **kw):
    return certify(fc, interval_from_c(fc, c), **kw)


def test_step_examples():
    q = np.array([1.0, 10.0])
    assert_allclose(step(np.array([1.0, 1.0]), np.array([0.1]), q),
                    [[1.0, 1.0], [0.9, 0.0]], atol=0)
    xi = np.array([0.3, -0.7])
    assert_allclose(step(xi, np.zeros(2), q), [xi, xi, xi], atol=0)
    assert_allclose(step(xi, np.zeros(0), q), [xi], atol=0)
    assert_allclose(step(np.array([1.0]), np.array([0.1]), np.array([10.0])),
                    [[1.0], [0.0]], atol=0)
    with pytest.raises(ValueError):
        step(xi, np.array([0.1, -0.1]), q)


def test_quadratic_problem_validation():
    with pytest.raises(ValueError):
        QuadraticProblem(())
    with pytest.raises(ValueError):
        QuadraticProblem((0.0,))
    assert QuadraticProblem((1.0, 5.0)).dim == 2


def test_constant_policy():
    rng = np.random.default_rng(0)
    iv = StepSizeInterval(0.05, 0.2)
    assert sample_alpha(Constant(0.1), iv, 3, rng).tolist() == [0.1, 0.1, 0.1]
    for steps in (0, 3):
        with pytest.raises(ValueError):
            sample_alpha(Constant(0.5), iv, steps, rng)


def test_alternating_policy():
    rng = np.random.default_rng(0)
    iv = StepSizeInterval(0.1, 0.14)
    assert sample_alpha(Alternating(), iv, 3, rng).tolist() == [0.1, 0.14, 0.1]


def test_uniform_and_endpoints_policies():
    iv = StepSizeInterval(0.1, 0.14)
    draws = sample_alpha(Uniform(), iv, 200, np.random.default_rng(1))
    assert draws.shape == (200,)
    assert np.all((iv.lo <= draws) & (draws <= iv.hi))
    ends = sample_alpha(Endpoints(), iv, 50, np.random.default_rng(2))
    assert set(ends.tolist()) == {0.1, 0.14}


@pytest.mark.parametrize("policy", [Uniform(), Endpoints()], ids=["uniform", "endpoints"])
def test_sequence_draw_consumes_stream_like_scalar_draws(policy):
    # One whole-sequence draw must equal one scalar draw per step from an
    # identically seeded generator, and leave the stream at the same place.
    iv = StepSizeInterval(0.1, 0.14)
    for n in (0, 1, 2, 7, 200):
        fast = np.random.Generator(np.random.PCG64(n))
        slow = np.random.Generator(np.random.PCG64(n))
        if isinstance(policy, Uniform):
            ref = [float(slow.uniform(iv.lo, iv.hi)) for _ in range(n)]
        else:
            ref = [iv.hi if slow.integers(0, 2) else iv.lo for _ in range(n)]
        assert sample_alpha(policy, iv, n, fast).tolist() == ref
        assert fast.bit_generator.state == slow.bit_generator.state


def test_adversarial_greedy_two_endpoint_comparison():
    rng = np.random.default_rng(0)
    iv = StepSizeInterval(1.0 / 14.0, 0.14)
    # Spectrum (1, 10): the small step leaves the slow coordinate at
    # |1 - lo*1| = 0.9286 > |1 - hi*1| = 0.86, so lo wins.
    assert (sample_alpha(AdversarialGreedy(), iv, 3, rng, (1.0, 10.0)).tolist()
            == [iv.lo] * 3)
    # Spectrum (10,): overshoot at the big step dominates, so hi wins.
    assert sample_alpha(AdversarialGreedy(), iv, 3, rng, (10.0,)).tolist() == [iv.hi] * 3


def test_policy_from_name():
    assert isinstance(policy_from_name("uniform"), Uniform)
    assert policy_from_name("constant:0.125") == Constant(0.125)
    assert policy_from_name("adversarial") == AdversarialGreedy()
    with pytest.raises(UnknownPolicy):
        policy_from_name("nope")
    with pytest.raises(UnknownPolicy):
        policy_from_name("constant:abc")


def test_run_hand_example():
    cert = _cert()
    assert cert.cond_p == pytest.approx(1.0)
    prob = QuadraticProblem((1.0, 10.0))
    rep = run(prob, cert.interval, Constant(0.1), 1, np.array([1.0, 1.0]), cert, seed=0)
    assert rep.norms[0] == pytest.approx(np.sqrt(2.0))
    assert rep.norms[1] == pytest.approx(0.9)
    assert rep.bound[1] == pytest.approx(np.sqrt(cert.cond_p) * cert.rho_star * np.sqrt(2.0))
    assert not rep.violated
    assert rep.max_ratio <= 1.0 + 1e-9


def test_run_zero_start_never_violates():
    cert = _cert()
    rep = run(QuadraticProblem((1.0,)), cert.interval, Uniform(), 50,
              np.zeros(1), cert, seed=3)
    assert rep.max_ratio == 0.0
    assert not rep.violated
    assert np.all(rep.norms == 0.0)


def test_run_requires_certificate_and_matching_class():
    infeasible = _cert(c=2.1)
    with pytest.raises(CertificateMissing):
        run(QuadraticProblem((1.0,)), infeasible.interval, Uniform(), 5,
            np.ones(1), infeasible, seed=0)
    cert = _cert()
    with pytest.raises(ValueError):
        run(QuadraticProblem((0.5,)), cert.interval, Uniform(), 5,
            np.ones(1), cert, seed=0)


def test_run_deterministic():
    cert = _cert(c=1.4)
    prob = QuadraticProblem((1.0, 4.0, 10.0))
    a = run(prob, cert.interval, Uniform(), 100, np.ones(3), cert, seed=42)
    b = run(prob, cert.interval, Uniform(), 100, np.ones(3), cert, seed=42)
    assert np.array_equal(a.norms, b.norms)
    assert a.max_ratio == b.max_ratio and a.seed == b.seed


def test_tightness_probe_constant_step():
    # The slow eigenvalue at alpha = 1/L attains the certified envelope when
    # the bisection and feasibility tolerances are driven to the floor.
    for kappa in (2.0, 10.0):
        fc = FunctionClass(1.0, kappa)
        cert = certify(fc, interval_from_c(fc, 1.0),
                       options=CertifyOptions(rho_tol=1e-9, eps_feas=1e-12))
        prob = QuadraticProblem((fc.m,))
        rep = run(prob, cert.interval, Constant(1.0 / fc.L), 200,
                  np.ones(1), cert, seed=0)
        ratios = rep.norms / (cert.rho_star ** np.arange(201) * rep.norms[0])
        assert np.min(ratios) >= 1.0 - 1e-6
        assert not rep.violated


def test_soundness_small_fuzz():
    cert = _cert(c=1.4)
    policies = [Uniform(), Endpoints(), Alternating(), Constant(0.1)]
    rng = np.random.default_rng(7)
    for trial in range(60):
        dim = 1 + trial % 3
        spectrum = tuple(float(q) for q in rng.uniform(1.0, 10.0, size=dim))
        prob = QuadraticProblem(spectrum)
        for pol in policies + [AdversarialGreedy()]:
            rep = run(prob, cert.interval, pol, 80, np.ones(dim), cert,
                      seed=trial_seed(7, trial))
            assert not rep.violated, (spectrum, pol)


@functools.lru_cache(maxsize=None)
def _sector_cert(kappa, c):
    fc = FunctionClass(1.0, kappa)
    return certify(fc, interval_from_c(fc, c))


def _reference_run(prob, interval, policy, steps, xi0, cert, seed):
    """``run`` as a per-step loop: one scalar draw and one 1-D norm per step."""
    lo, hi = interval.lo, interval.hi
    q = np.asarray(prob.eigenvalues)
    rng = np.random.Generator(np.random.PCG64(seed))
    xi = np.array(xi0, dtype=float)
    norms = [np.linalg.norm(xi)]
    for k in range(steps):
        if isinstance(policy, Uniform):
            alpha = float(rng.uniform(lo, hi))
        elif isinstance(policy, Endpoints):
            alpha = hi if rng.integers(0, 2) else lo
        elif isinstance(policy, Alternating):
            alpha = hi if k % 2 else lo
        elif isinstance(policy, Constant):
            alpha = policy.alpha
        else:
            worst = [np.max(np.abs(1.0 - a * q)) for a in (lo, hi)]
            alpha = lo if worst[0] > worst[1] else hi
        xi = (1.0 - alpha * q) * xi
        norms.append(np.linalg.norm(xi))
    norms = np.array(norms)
    bound = math.sqrt(cert.cond_p) * cert.rho_star ** np.arange(steps + 1) * norms[0]
    max_ratio = 0.0 if norms[0] == 0.0 else float(np.max(norms / bound))
    return norms, bound, max_ratio, max_ratio > 1.0 + VIOLATION_SLACK


def _policy(kind, interval, frac):
    """The policy of a property example: ``frac`` places a constant step."""
    lo, hi = interval.lo, interval.hi
    return {
        "uniform": Uniform(),
        "endpoints": Endpoints(),
        "alternating": Alternating(),
        "constant": Constant(min(hi, lo + frac * (hi - lo))),
        "adversarial": AdversarialGreedy(),
    }[kind]


@settings(max_examples=80, deadline=None)
@given(
    point=st.sampled_from([(2.0, 1.0), (10.0, 1.4), (10.0, 1.2), (50.0, 1.1)]),
    policy_kind=st.sampled_from(["uniform", "endpoints", "alternating", "constant",
                                 "adversarial"]),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**63 - 1),
    frac=st.floats(0.0, 1.0),
)
def test_run_matches_per_step_reference_loop(point, policy_kind, dim, seed, frac):
    # The array pass must reproduce stepping bit for bit: same draws, same
    # iterates, same norms, hence the same bound, ratio and verdict.
    cert = _sector_cert(*point)
    fc, iv = cert.fc, cert.interval
    draw = np.random.default_rng(seed)
    spectrum = tuple(map(float, draw.uniform(fc.m, fc.L, size=dim)))
    prob = QuadraticProblem(spectrum)
    policy = _policy(policy_kind, iv, frac)
    for xi0 in (np.ones(dim), draw.normal(size=dim), np.zeros(dim)):
        for steps in (0, 1, 2, 200):
            rep = run(prob, iv, policy, steps, xi0, cert, seed=seed)
            norms, bound, max_ratio, violated = _reference_run(
                prob, iv, policy, steps, xi0, cert, seed)
            assert np.array_equal(rep.norms, norms), (steps, xi0)
            assert np.array_equal(rep.bound, bound), (steps, xi0)
            assert rep.max_ratio == max_ratio and rep.violated == violated


def test_run_builds_a_generator_only_for_random_policies(monkeypatch):
    # One generator per drawing trial, none for the other policies, and each
    # draws what PCG64(seed) draws.
    cert = _cert(c=1.2)
    probs = [QuadraticProblem((1.0, 10.0)), QuadraticProblem((2.0, 3.0))]
    made, pcg64 = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *a: made.append(a) or pcg64(*a))
    for policy, draws in [(Uniform(), True), (Endpoints(), True), (Alternating(), False),
                          (Constant(cert.interval.lo), False),
                          (AdversarialGreedy(), False)]:
        made.clear()
        run(probs[0], cert.interval, policy, 20, cert=cert, seed=5)
        assert len(made) == (1 if draws else 0), policy
        if draws:
            built = np.random.Generator(pcg64(*made[0])).random(4)
            assert np.array_equal(built, np.random.Generator(pcg64(5)).random(4))
        made.clear()
        run(probs, cert.interval, policy, 20, None, cert, [5, 6])
        assert len(made) == (2 if draws else 0), policy


def test_trial_seed_deterministic_and_spread():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    seeds = {trial_seed(5, i) for i in range(100)}
    assert len(seeds) == 100


# Word and row boundaries of SeedSequence's integer split and of its
# four-word pool: entropy of 1 to 7 words, one to three of them mixed in
# after the pool is full.
SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5]
ENTROPY_LAYOUTS = [("master",), ("index",), ("master", "index"), ("index", "master"),
                   ("master", "index", "one")]


def _check_seed_words(master, indices, layout, n_words, dtype):
    columns = {"master": master, "index": indices, "one": 1}
    got = seed_words([columns[name] for name in layout], n_words, dtype)
    per_row = indices if "index" in layout else [None]
    assert got.shape == (len(per_row), n_words) and got.dtype == np.dtype(dtype)
    for row, index in zip(got, per_row):
        entropy = [index if name == "index" else columns[name] for name in layout]
        want = np.random.SeedSequence(entropy).generate_state(n_words, dtype)
        assert np.array_equal(row, want), entropy


@settings(max_examples=150, deadline=None)
@given(
    master=st.integers(0, 2**130 - 1) | st.sampled_from(SEED_EDGES),
    indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    layout=st.sampled_from(ENTROPY_LAYOUTS),
    n_words=st.sampled_from([2, 8]),
    dtype=st.sampled_from([np.uint32, np.uint64]),
)
def test_seed_words_is_numpys_seed_sequence(master, indices, layout, n_words, dtype):
    _check_seed_words(master, indices, layout, n_words, dtype)


@pytest.mark.parametrize("master", SEED_EDGES)
def test_seed_words_at_the_word_edges(master):
    # Rows of 1 to 6 words in one call: the shorter rows skip the mixing
    # rounds of the longer ones.
    indices = [0, 5, 2**32 - 1]
    for layout in ENTROPY_LAYOUTS:
        for n_words in (2, 8):
            for dtype in (np.uint32, np.uint64):
                _check_seed_words(master, indices, layout, n_words, dtype)
    _check_seed_words(master, SEED_EDGES, ("index", "master"), 8, np.uint32)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**130 - 1) | st.sampled_from(SEED_EDGES),
                      min_size=1, max_size=4))
def test_hashed_generator_draws_as_pcg64_of_the_seed(seeds):
    states = seed_words([seeds], 4, np.uint64)
    for seed, state in zip(seeds, states):
        want = np.random.Generator(np.random.PCG64(seed))
        got = pcg64_generator(state)
        assert np.array_equal(got.random(5), want.random(5))
        assert np.array_equal(got.integers(0, 2, size=9), want.integers(0, 2, size=9))


def test_trial_seeds_are_the_seed_sequence_values():
    indices = [0, 1, 2, 99, 2**32 - 1]
    for master in SEED_EDGES:
        want = [int(np.random.SeedSequence([master, i]).generate_state(1, np.uint64)[0])
                for i in indices]
        assert trial_seeds(master, indices) == want
        assert [trial_seed(master, i) for i in indices] == want


@pytest.mark.parametrize("call", [
    lambda: seed_words([-1], 2),
    lambda: seed_words([3, [0, -2**70]], 2),
    lambda: trial_seeds(-1, range(3)),
    lambda: run(QuadraticProblem((1.0,)), _cert().interval, Uniform(), 5, cert=_cert(), seed=-1),
])
def test_negative_entropy_raises_like_numpy(call):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        call()


def _group_batches(cert, trials, seed):
    """The trials of one simulate command, as ``cmd_simulate`` groups them:
    trial i has dimension 1 + i % 5 and its own spectrum, start and seed."""
    fc = cert.fc
    draw = np.random.default_rng(seed)
    groups = {}
    for i in range(trials):
        dim = 1 + i % 5
        spectrum = tuple(map(float, draw.uniform(fc.m, fc.L, size=dim)))
        xi0 = np.zeros(dim) if i == 3 else draw.normal(size=dim)
        groups.setdefault(dim, []).append(
            (QuadraticProblem(spectrum), xi0, trial_seed(seed, i)))
    return groups


@settings(max_examples=60, deadline=None)
@given(
    point=st.sampled_from([(2.0, 1.0), (10.0, 1.4), (50.0, 1.1)]),
    policy_kind=st.sampled_from(["uniform", "endpoints", "alternating", "constant",
                                 "adversarial"]),
    trials=st.integers(1, 23).filter(lambda n: n % 5 != 0),
    steps=st.sampled_from([0, 1, 2, 200]),
    seed=st.integers(0, 2**63 - 1),
    frac=st.floats(0.0, 1.0),
)
def test_batched_run_matches_single_runs_and_reference_loop(
        point, policy_kind, trials, steps, seed, frac):
    # One array pass over a dimension group under one policy must reproduce
    # each trial run alone and stepped one step at a time, bit for bit.
    cert = _sector_cert(*point)
    iv = cert.interval
    policy = _policy(policy_kind, iv, frac)
    for dim, batch in _group_batches(cert, trials, seed).items():
        probs, xi0s, seeds = map(list, zip(*batch))
        reports = run(probs, iv, policy, steps, xi0s, cert, seeds)
        assert len(reports) == len(batch)
        for rep, (prob, xi0, trial) in zip(reports, batch):
            alone = run(prob, iv, policy, steps, xi0, cert, seed=trial)
            norms, bound, max_ratio, violated = _reference_run(
                prob, iv, policy, steps, xi0, cert, trial)
            for other in (alone.norms, norms):
                assert np.array_equal(rep.norms, other), (dim, trial)
            for other in (alone.bound, bound):
                assert np.array_equal(rep.bound, other), (dim, trial)
            assert rep.max_ratio == alone.max_ratio == max_ratio
            assert rep.violated == alone.violated == violated
            assert rep.seed == trial


def test_batched_run_rejects_mixed_or_mismatched_batches():
    cert = _cert()
    iv = cert.interval
    one, two = QuadraticProblem((1.0,)), QuadraticProblem((1.0, 10.0))
    with pytest.raises(ValueError, match="one dimension"):
        run([one, two], iv, Uniform(), 5, None, cert, [0, 1])
    with pytest.raises(ValueError, match="one seed"):
        run([one, one], iv, Uniform(), 5, None, cert, [0])
    with pytest.raises(ValueError, match="outside"):
        run([one, QuadraticProblem((0.5,))], iv, Uniform(), 5, None, cert, [0, 1])


# sha256 over the norms of all 20 trials, in trial order, of
# `simulate --kappa 10 --c 1.4 --seed 7 --trials 20 --steps 50` per policy,
# recorded from the per-trial loop before trials were batched.  Unlike the
# CSV pin, these see every iterate of every trajectory.
NORMS_SHA256 = {
    "uniform": "a72f5d6edc127235cfe28f9c767f0a70ac1cf66a67130d43ac6d29deba2bf2de",
    "endpoints": "b5e95e6486f45bd0404a799e8f41ddf82a5538965481895a4dd41d6a6a001642",
    "alternating": "e98afdaba68893bb17fd79aeb9b4f111c0bed3bc82e5fb54a0afcf58ba2c78a3",
    "constant:0.1": "a47b8d8acffb0bef6de9631c658712a3000178ba94725d8b5ff30de4295a891e",
    "adversarial": "b25ebcf986b3ab425bd20bb2e2043c811f4ef477920c512b88d8af239b7ff705",
}


@pytest.mark.parametrize("policy, chunk_floats", [
    pytest.param(policy, chunk_floats, id=policy + suffix)
    for policy in sorted(NORMS_SHA256)
    for chunk_floats, suffix in [(simulator.CHUNK_FLOATS, ""), (1, "-one-trial-chunks"),
                                 (800, "-small-chunks")]
])
def test_simulate_norms_pinned(tmp_path, capsys, monkeypatch, policy, chunk_floats):
    # The same norms wherever simulate's chunk boundaries fall in a
    # dimension group: one trial per run call, a few, or the whole group.
    monkeypatch.setattr(simulator, "CHUNK_FLOATS", chunk_floats)
    reports, batch_run = [], cli.run

    def recording_run(*args):
        got = batch_run(*args)
        reports.extend(got)
        return got

    monkeypatch.setattr(cli, "run", recording_run)
    assert cli.main(["simulate", "--kappa", "10", "--c", "1.4", "--seed", "7",
                     "--trials", "20", "--steps", "50", "--policy", policy,
                     "--out", str(tmp_path / "sim.csv")]) == 0
    capsys.readouterr()
    index = {trial_seed(7, i): i for i in range(20)}
    reports.sort(key=lambda rep: index[rep.seed])
    assert len(reports) == 20
    digest = hashlib.sha256()
    for rep in reports:
        digest.update(rep.norms.tobytes())
    assert digest.hexdigest() == NORMS_SHA256[policy]


@pytest.mark.parametrize("kappa,c,steps,policy", [
    ("2", "1.1", "2000", "alternating"),
    ("10", "1.4", "20000", "uniform"),
])
def test_simulate_ratio_finite_after_envelope_underflows(tmp_path, capsys,
                                                        kappa, c, steps, policy):
    # rho_star^k underflows to 0 long before the last step; the trajectory
    # has underflowed too, so no step beats its bound.
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--kappa", kappa, "--c", c, "--steps", steps,
                     "--trials", "3", "--policy", policy, "--out", str(out)]) == 0
    assert "violations: no" in capsys.readouterr().out
    for line in out.read_text().splitlines()[1:]:
        _, _, ratio, violated = line.split(",")
        assert math.isfinite(float(ratio)) and float(ratio) <= 1.0 + VIOLATION_SLACK
        assert violated == "false"


def test_violation_in_the_underflow_tail_is_flagged(monkeypatch):
    # A trajectory that stays inside its bound until the envelope underflows
    # and is nonzero at the last step, where the bound reads 0.
    cert = _sector_cert(2.0, 1.1)
    prob = QuadraticProblem((1.0, 2.0))
    steps = 2000
    assert math.sqrt(cert.cond_p) * cert.rho_star ** steps == 0.0
    clean = run(prob, cert.interval, Alternating(), steps, None, cert)
    assert not clean.violated

    real_step = simulator.step

    def planted(xi, alphas, q):
        traj = real_step(xi, alphas, q)
        traj[..., -1, :] = 1e-100
        return traj

    monkeypatch.setattr(simulator, "step", planted)
    rep = run(prob, cert.interval, Alternating(), steps, None, cert)
    assert rep.bound[-1] == 0.0 and rep.norms[-1] > 0.0
    assert rep.violated and rep.max_ratio > 1.0


def test_simulate_memory_stays_within_the_chunk_budget(tmp_path, capsys):
    # 2000 trials of 2000 steps: one unchunked group of dimension 5 alone
    # would be a 400 x 2001 x 5 trajectory, 32 MB.  Twice the trials must
    # fit the same budget: only one chunk's norms may be alive at a time.
    for trials in ("2000", "4000"):
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--kappa", "10", "--c", "1.4", "--trials", trials,
                             "--steps", "2000", "--out", str(tmp_path / "sim.csv")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 2 * simulator.CHUNK_FLOATS * 8, trials
