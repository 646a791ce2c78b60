import contextlib
import functools
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ratecert import cli, simulator
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
    policy_from_name,
    run,
    sample_alpha,
    step,
)
from ratecert.search import certify

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
    # A (trials, steps) shape is filled, with or without an rng.
    assert sample_alpha(Constant(0.1), iv, (2, 3), None).tolist() == [[0.1] * 3] * 2
    assert sample_alpha(Constant(0.1), iv, (2, 0), None).shape == (2, 0)
    for steps in (0, 3, (2, 3)):
        with pytest.raises(ValueError):
            sample_alpha(Constant(0.5), iv, steps, rng)


def test_alternating_policy():
    rng = np.random.default_rng(0)
    iv = StepSizeInterval(0.1, 0.14)
    assert sample_alpha(Alternating(), iv, 3, rng).tolist() == [0.1, 0.14, 0.1]
    # Every row of a (trials, steps) shape alternates along the step axis.
    assert (sample_alpha(Alternating(), iv, (2, 5), None).tolist()
            == [[0.1, 0.14, 0.1, 0.14, 0.1]] * 2)
    assert sample_alpha(Alternating(), iv, (3, 1), None).tolist() == [[0.1]] * 3


def test_uniform_and_endpoints_policies():
    iv = StepSizeInterval(0.1, 0.14)
    draws = sample_alpha(Uniform(), iv, 200, np.random.default_rng(1))
    assert draws.shape == (200,)
    assert np.all((iv.lo <= draws) & (draws <= iv.hi))
    ends = sample_alpha(Endpoints(), iv, 50, np.random.default_rng(2))
    assert set(ends.tolist()) == {0.1, 0.14}
    # Without a generator a random policy names itself and rng.
    for policy, name in ((Uniform(), "Uniform"), (Endpoints(), "Endpoints")):
        for steps in (3, (2, 3)):
            with pytest.raises(ValueError, match=rf"{name}\(\).*rng"):
                sample_alpha(policy, iv, steps, None)


@pytest.mark.parametrize("policy", [Uniform(), Endpoints()], ids=["uniform", "endpoints"])
def test_sequence_draw_consumes_stream_like_scalar_draws(policy):
    # One whole-sequence draw, or one (trials, steps) draw, must equal one
    # scalar draw per step, row by row, from an identically seeded
    # generator, and take exactly one stream word per step size.
    iv = StepSizeInterval(0.1, 0.14)
    for shape in (0, 1, 2, 7, 200, (3, 7), (2, 0)):
        n = int(np.prod(shape))
        fast = np.random.Generator(np.random.PCG64(n))
        slow = np.random.Generator(np.random.PCG64(n))
        if isinstance(policy, Uniform):
            ref = [float(slow.uniform(iv.lo, iv.hi)) for _ in range(n)]
        else:
            ref = [iv.hi if slow.random() < 0.5 else iv.lo for _ in range(n)]
        got = sample_alpha(policy, iv, shape, fast)
        assert got.shape == np.shape(np.empty(shape)) and got.ravel().tolist() == ref
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.bit_generator.state == np.random.PCG64(n).advance(n).state


def test_adversarial_greedy_two_endpoint_comparison():
    rng = np.random.default_rng(0)
    iv = StepSizeInterval(1.0 / 14.0, 0.14)
    # Spectrum (1, 10): the small step leaves the slow coordinate at
    # |1 - lo*1| = 0.9286 > |1 - hi*1| = 0.86, so lo wins.
    assert (sample_alpha(AdversarialGreedy(), iv, 3, rng, (1.0, 10.0)).tolist()
            == [iv.lo] * 3)
    # Spectrum (10,): overshoot at the big step dominates, so hi wins.
    assert sample_alpha(AdversarialGreedy(), iv, 3, rng, (10.0,)).tolist() == [iv.hi] * 3
    # A (trials, dim) spectrum gives each row the step a one-row call gives
    # that trial; an exact tie picks hi.
    for iv, spectra in [
        (iv, [(1.0, 10.0), (10.0, 10.0), (1.0, 1.0)]),
        # At q = 1, |1 - 0.5| == |1 - 1.5| exactly.
        (StepSizeInterval(0.5, 1.5), [(1.0, 1.0), (0.5, 1.0), (1.0, 1.9), (0.2, 0.5)]),
    ]:
        rows = [sample_alpha(AdversarialGreedy(), iv, 4, None, q).tolist() for q in spectra]
        batch = sample_alpha(AdversarialGreedy(), iv, (len(spectra), 4), None,
                             np.array(spectra))
        assert batch.shape == (len(spectra), 4) and batch.tolist() == rows
        assert {row[0] for row in rows} == {iv.lo, iv.hi}
    assert rows[0] == [1.5] * 4
    assert sample_alpha(AdversarialGreedy(), iv, (3, 0), None, np.ones((3, 2))).shape == (3, 0)


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
    rep = run(prob, cert, Constant(0.1), 1, np.array([1.0, 1.0]))
    assert rep.norms[0] == pytest.approx(np.sqrt(2.0))
    assert rep.norms[1] == pytest.approx(0.9)
    assert rep.bound[1] == pytest.approx(np.sqrt(cert.cond_p) * cert.rho_star * np.sqrt(2.0))
    assert not rep.violated
    assert rep.max_ratio <= 1.0 + 1e-9


def test_run_zero_start_never_violates():
    cert = _cert()
    rep = run(QuadraticProblem((1.0,)), cert, Uniform(), 50,
              np.zeros(1), np.random.default_rng(3))
    assert rep.max_ratio == 0.0
    assert not rep.violated
    assert np.all(rep.norms == 0.0)


def test_run_requires_certificate_and_matching_class():
    infeasible = _cert(c=2.1)
    with pytest.raises(CertificateMissing):
        run(QuadraticProblem((1.0,)), infeasible, Uniform(), 5,
            np.ones(1), np.random.default_rng(0))
    cert = _cert()
    with pytest.raises(ValueError):
        run(QuadraticProblem((0.5,)), cert, Uniform(), 5,
            np.ones(1), np.random.default_rng(0))


def test_run_deterministic():
    cert = _cert(c=1.4)
    prob = QuadraticProblem((1.0, 4.0, 10.0))
    a = run(prob, cert, Uniform(), 100, np.ones(3),
            rng=np.random.default_rng(42))
    b = run(prob, cert, Uniform(), 100, np.ones(3),
            rng=np.random.default_rng(42))
    assert np.array_equal(a.norms, b.norms)
    assert a.max_ratio == b.max_ratio


def test_tightness_probe_constant_step():
    # The slow eigenvalue at alpha = 1/L attains the certified envelope when
    # the bisection and feasibility tolerances are driven to the floor.
    for kappa in (2.0, 10.0):
        fc = FunctionClass(1.0, kappa)
        cert = certify(fc, interval_from_c(fc, 1.0), rho_tol=1e-9, eps_feas=1e-12)
        prob = QuadraticProblem((fc.m,))
        rep = run(prob, cert, Constant(1.0 / fc.L), 200, np.ones(1))
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
            rep = run(prob, cert, pol, 80, np.ones(dim),
                      rng=np.random.default_rng([7, trial]))
            assert not rep.violated, (spectrum, pol)


@functools.lru_cache(maxsize=None)
def _sector_cert(kappa, c):
    fc = FunctionClass(1.0, kappa)
    return certify(fc, interval_from_c(fc, c))


def _stream(seed, words=0):
    """A PCG64 generator seeded with ``seed``, ``words`` draws along."""
    return np.random.Generator(np.random.PCG64(seed).advance(words))


def _reference_run(prob, interval, policy, steps, xi0, cert, rng):
    """``run`` as a per-step loop: one scalar draw and one 1-D norm per step."""
    lo, hi = interval.lo, interval.hi
    q = np.asarray(prob.eigenvalues)
    xi = np.array(xi0, dtype=float)
    norms = [np.linalg.norm(xi)]
    for k in range(steps):
        if isinstance(policy, Uniform):
            alpha = float(rng.uniform(lo, hi))
        elif isinstance(policy, Endpoints):
            alpha = hi if rng.random() < 0.5 else lo
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
            rep = run(prob, cert, policy, steps, xi0, rng=_stream(seed))
            norms, bound, max_ratio, violated = _reference_run(
                prob, iv, policy, steps, xi0, cert, _stream(seed))
            assert np.array_equal(rep.norms, norms), (steps, xi0)
            assert np.array_equal(rep.bound, bound), (steps, xi0)
            assert rep.max_ratio == max_ratio and rep.violated == violated


def test_run_builds_a_generator_only_for_random_policies(monkeypatch, capsys):
    # run builds no generator: a random policy reads the one rng it is
    # handed and the others never read it.  Every policy takes a batch's
    # step sizes from one sample_alpha call, also where the adversarial
    # policy picks both endpoints (its four spectra have distinct extremes).
    # The simulate command builds one step PCG64 per dimension group for a
    # random policy, however it is chunked, and none for the others.
    cert = _cert(c=1.2)
    probs = [QuadraticProblem(q) for q in [(1.0, 10.0), (2.0, 3.0), (10.0, 10.0), (1.0, 1.0)]]
    made, pcg64 = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *a: made.append(a) or pcg64(*a))
    shapes, draw = [], simulator.sample_alpha

    def recording_draw(*args):
        got = draw(*args)
        shapes.append(got.shape)
        return got

    monkeypatch.setattr(simulator, "sample_alpha", recording_draw)
    rng = np.random.Generator(pcg64(5))
    for policy, draws in [(Uniform(), True), (Endpoints(), True), (Alternating(), False),
                          (Constant(cert.interval.lo), False),
                          (AdversarialGreedy(), False)]:
        run(probs[0], cert, policy, 20, rng=rng)
        shapes.clear()
        run(probs, cert, policy, 20, None, rng)
        assert shapes == [(len(probs), 20)], policy
        if draws:
            with pytest.raises(ValueError, match="rng"):
                run(probs, cert, policy, 20, None, None)
        else:
            run(probs, cert, policy, 20, None, None)
    assert made == []

    monkeypatch.setattr(simulator, "CHUNK_FLOATS", 100)
    steps = [([7, cli.STEP_STREAM, d],) for d in range(1, 6)]
    for policy in ("uniform", "endpoints", "alternating", "adversarial", "constant:0.1"):
        made.clear()
        assert cli.main(["simulate", "--kappa", "10", "--c", "1.4", "--seed", "7",
                         "--trials", "23", "--steps", "30", "--policy", policy]) == 0
        drawn = [a for a in made if a[0][1] == cli.STEP_STREAM]
        assert sorted(drawn) == (steps if policy in ("uniform", "endpoints") else []), policy
    capsys.readouterr()


def _simulate_command(*argv):
    return cli.cmd_simulate(cli.Resolved(cli.build_parser().parse_args(
        ["simulate", "--kappa", "10", "--c", "1.2", *argv])))


@pytest.mark.parametrize("call", [
    lambda: _simulate_command("--seed", "-1", "--policy", "uniform"),
    lambda: _simulate_command("--seed", "-1", "--policy", "endpoints"),
    lambda: _simulate_command("--seed", "-1", "--policy", "alternating"),
    lambda: _simulate_command("--seed", "-1", "--policy", "adversarial", "--trials", "1"),
    lambda: _simulate_command("--seed", "-1", "--policy", "constant:0.1", "--trials", "1"),
])
def test_negative_entropy_raises_like_numpy(monkeypatch, call):
    # numpy's SeedSequence refuses a negative --seed when simulate seeds its
    # streams, under every policy and before anything is certified.
    def no_solve(*args, **kwargs):
        raise AssertionError("certify ran for a negative seed")

    monkeypatch.setattr(cli, "certify", no_solve)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        call()


def _group_batches(cert, trials, seed):
    """The trials of one simulate command, as ``cmd_simulate`` groups them:
    trial i has dimension 1 + i % 5 and its own spectrum and start."""
    fc = cert.fc
    draw = np.random.default_rng(seed)
    groups = {}
    for i in range(trials):
        dim = 1 + i % 5
        spectrum = tuple(map(float, draw.uniform(fc.m, fc.L, size=dim)))
        xi0 = np.zeros(dim) if i == 3 else draw.normal(size=dim)
        groups.setdefault(dim, []).append((QuadraticProblem(spectrum), xi0))
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
    # each trial run alone and stepped one step at a time, bit for bit; trial
    # j of a batch draws the stream's words [j * steps, (j + 1) * steps).
    cert = _sector_cert(*point)
    iv = cert.interval
    policy = _policy(policy_kind, iv, frac)
    for dim, batch in _group_batches(cert, trials, seed).items():
        probs, xi0s = map(list, zip(*batch))
        rng = _stream([seed, dim])
        reports = run(probs, cert, policy, steps, xi0s, rng)
        assert len(reports) == len(batch)
        for j, (rep, (prob, xi0)) in enumerate(zip(reports, batch)):
            alone = run(prob, cert, policy, steps, xi0, _stream([seed, dim], j * steps))
            norms, bound, max_ratio, violated = _reference_run(
                prob, iv, policy, steps, xi0, cert, _stream([seed, dim], j * steps))
            for other in (alone.norms, norms):
                assert np.array_equal(rep.norms, other), (dim, j)
            for other in (alone.bound, bound):
                assert np.array_equal(rep.bound, other), (dim, j)
            assert rep.max_ratio == alone.max_ratio == max_ratio
            assert rep.violated == alone.violated == violated
        # A random policy's batch takes one word per step size, no more.
        words = len(batch) * steps if policy_kind in ("uniform", "endpoints") else 0
        assert rng.bit_generator.state == _stream([seed, dim], words).bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    point=st.sampled_from([(10.0, 1.0), (2.0, 1.0), (10.0, 1.4), (50.0, 1.1)]),
    policy_kind=st.sampled_from(["uniform", "endpoints", "alternating", "constant",
                                 "adversarial"]),
    trials=st.integers(1, 6),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**63 - 1),
    frac=st.floats(0.0, 1.0),
)
@example(point=(10.0, 1.0), policy_kind="endpoints", trials=3, dim=2, seed=0, frac=0.0)
def test_run_steps_only_inside_the_certified_interval(point, policy_kind, trials, dim,
                                                      seed, frac):
    # run takes its step sizes from the certificate's interval, the one its
    # rate holds over, for a single trial and a batch alike; (10, 1.0) is
    # the one-point interval [0.1, 0.1].
    cert = _sector_cert(*point)
    fc, iv = cert.fc, cert.interval
    policy = _policy(policy_kind, iv, frac)
    draw = np.random.default_rng(seed)
    probs = [QuadraticProblem(tuple(map(float, draw.uniform(fc.m, fc.L, size=dim))))
             for _ in range(trials)]
    stepped, real_step = [], simulator.step

    def spy(xi, alphas, q):
        stepped.append(alphas.copy())
        return real_step(xi, alphas, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "step", spy)
        run(probs[0], cert, policy, 30, None, _stream(seed))
        run(probs, cert, policy, 30, None, _stream(seed))
    assert [alphas.shape for alphas in stepped] == [(1, 30), (trials, 30)]
    for alphas in stepped:
        assert np.all((iv.lo <= alphas) & (alphas <= iv.hi)), policy


def test_batched_run_rejects_mixed_or_mismatched_batches():
    cert = _cert()
    one, two = QuadraticProblem((1.0,)), QuadraticProblem((1.0, 10.0))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="need a problem"):
        run([], cert, Uniform(), 5, None, rng)
    with pytest.raises(ValueError, match="one dimension"):
        run([one, two], cert, Uniform(), 5, None, rng)
    with pytest.raises(ValueError, match="outside"):
        run([one, QuadraticProblem((0.5,))], cert, Uniform(), 5, None, rng)
    for policy in (Uniform(), Endpoints()):
        with pytest.raises(ValueError, match="draws from rng"):
            run([one, one], cert, policy, 5, None)


# sha256 over the norms of all 20 trials, in trial order, of
# `simulate --kappa 10 --c 1.4 --seed 7 --trials 20 --steps 50` per policy,
# recorded from the per-step reference loop on each trial's replay (``_replay``
# and ``_reference_run``) when the streams became one per purpose and
# dimension group.  Unlike the CSV pin, these see every iterate of every
# trajectory.
NORMS_SHA256 = {
    "uniform": "cf833758824044016caa9268c66f51febca99dc6f7dfdf69de4f972dcfe3b015",
    "endpoints": "f62f40317125129b2963c2705649cd3e0ef19425e8465f6dfc5512349a27b6fe",
    "alternating": "a46712b2d02a7774e020283cf762443af294150b868486019821ce534dab24fc",
    "constant:0.1": "4936001d9b10563307d28a1babed540e3bd83a85774f507f4ce85ae5494fadf2",
    "adversarial": "0ecac5c4e5fdafe852ecc63b472153a68a5cdace51617dad1716a23e50a5637d",
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
    assert len(reports) == 20
    by_trial = dict(zip(_run_order(20), reports))
    digest = hashlib.sha256()
    for i in range(20):
        digest.update(by_trial[i].norms.tobytes())
    assert digest.hexdigest() == NORMS_SHA256[policy]


def _run_order(trials):
    """The trials in the order simulate runs them: by dimension group, then
    in order within a group."""
    return sorted(range(trials), key=lambda i: (i % 5, i))


def _replay(seed, i, steps, policy, iv, fc):
    """Trial i of a simulate command, alone: its step sizes and spectrum
    from its dimension group's streams, advanced to the trial's row."""
    dim, row = 1 + i % 5, i // 5
    step_rng = _stream([seed, 0, dim], row * steps)
    if isinstance(policy, Uniform):
        alphas = step_rng.uniform(iv.lo, iv.hi, steps)
    else:
        alphas = np.where(step_rng.random(steps) < 0.5, iv.hi, iv.lo)
    width = 1 if dim == 1 else dim - 2
    draws = _stream([seed, 1, dim], row * width).uniform(fc.m, fc.L, width).tolist()
    if dim == 1:
        spectrum = ((fc.m,), (fc.L,), tuple(draws))[i % 3]
    else:
        spectrum = (fc.m, fc.L, *draws)
    return alphas, spectrum, _stream([seed, 0, dim], row * steps)


def _check_replay(seed, trials, steps, policy_kind, chunk_floats):
    """Trial i's step sizes and spectrum in a simulate command are the
    README's replay of trial i alone, and its norms are those of a
    single-trial run on them; the CSV records --seed."""
    cert = _sector_cert(10.0, 1.4)
    fc, iv = cert.fc, cert.interval
    policy = _policy(policy_kind, iv, 0.0)
    probs, reports, alphas = [], [], []
    batch_run, draw = cli.run, simulator.sample_alpha

    def recording_run(*args):
        got = batch_run(*args)
        probs.extend(args[0])
        reports.extend(got)
        return got

    def recording_draw(*args):
        got = draw(*args)
        alphas.extend(got)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "CHUNK_FLOATS", chunk_floats)
        mp.setattr(cli, "run", recording_run)
        mp.setattr(simulator, "sample_alpha", recording_draw)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["simulate", "--kappa", "10", "--c", "1.4", "--seed", str(seed),
                             "--trials", str(trials), "--steps", str(steps),
                             "--policy", policy_kind]) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    assert [row[:2] for row in rows] == [[str(i), str(seed)] for i in range(trials)]
    assert len(probs) == len(reports) == len(alphas) == trials
    for i, prob, rep, used in zip(_run_order(trials), probs, reports, alphas):
        want_alphas, spectrum, rng = _replay(seed, i, steps, policy, iv, fc)
        assert np.array_equal(used, want_alphas), i
        assert prob.eigenvalues == spectrum, i
        alone = run(QuadraticProblem(spectrum), cert, policy, steps, rng=rng)
        assert np.array_equal(rep.norms, alone.norms), i
        assert rows[i][2] == cli._fmt(rep.max_ratio)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    trials=st.integers(1, 40),
    steps=st.integers(0, 60),
    policy_kind=st.sampled_from(["uniform", "endpoints"]),
    chunk_floats=st.integers(1, 2000),
)
def test_simulate_trial_replays_alone(seed, trials, steps, policy_kind, chunk_floats):
    # Wherever the chunk boundaries fall and however many trials run.
    _check_replay(seed, trials, steps, policy_kind, chunk_floats)


# Seeds at the edges of the 32-bit words numpy's SeedSequence splits them
# into: one to four words.
SEED_EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5]


@pytest.mark.parametrize("seed", SEED_EDGES)
def test_simulate_replays_at_seed_word_edges(seed):
    for policy_kind in ("uniform", "endpoints"):
        _check_replay(seed, 13, 9, policy_kind, 150)


def _simulated_steps(monkeypatch, policy, seed):
    """Every step size a 100-trial, 200-step simulate command draws."""
    draws, draw = [], simulator.sample_alpha

    def recording_draw(*args):
        got = draw(*args)
        draws.append(got)
        return got

    monkeypatch.setattr(simulator, "sample_alpha", recording_draw)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--kappa", "10", "--c", "1.4", "--seed", str(seed),
                         "--policy", policy]) == 0
    return np.concatenate([d.ravel() for d in draws])


# Chi-square quantiles at 0.999 for 19 degrees of freedom (20 bins) and 1.
CHI2_999 = {19: 43.82, 1: 10.83}


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_uniform_steps_are_uniform_on_the_interval(monkeypatch, seed):
    iv = _sector_cert(10.0, 1.4).interval
    draws = _simulated_steps(monkeypatch, "uniform", seed)
    assert draws.size == 100 * 200
    assert np.all((iv.lo <= draws) & (draws <= iv.hi))
    counts, _ = np.histogram(draws, bins=20, range=(iv.lo, iv.hi))
    expected = draws.size / 20
    assert np.sum((counts - expected) ** 2 / expected) < CHI2_999[19]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_endpoint_steps_are_fair_coin_flips(monkeypatch, seed):
    iv = _sector_cert(10.0, 1.4).interval
    draws = _simulated_steps(monkeypatch, "endpoints", seed)
    assert draws.size == 100 * 200
    assert set(draws.tolist()) == {iv.lo, iv.hi}
    n_hi = np.count_nonzero(draws == iv.hi)
    assert (2 * n_hi - draws.size) ** 2 / draws.size < CHI2_999[1]


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
    clean = run(prob, cert, Alternating(), steps, None)
    assert not clean.violated

    real_step = simulator.step

    def planted(xi, alphas, q):
        traj = real_step(xi, alphas, q)
        traj[..., -1, :] = 1e-100
        return traj

    monkeypatch.setattr(simulator, "step", planted)
    rep = run(prob, cert, Alternating(), steps, None)
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
