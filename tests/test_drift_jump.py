"""`run_admm` jumps across the prox's zero band in closed form.

While prox(Q) is all-zero the ADMM is an affine drift: after one step Q
gains Z0 = project(0) at every iteration.  `solve` hands `run_admm` the
band where its prox is zero, and the loop moves Q by s Z0 at once instead
of running s steps.  These tests run the drift as plain Douglas-Rachford
steps, with no Anderson step and no `run_admm`, on every relaxation shape
(moment matrices, one partial block, block stacks and the dense
`project_C` reference), and check that the jump lands where the steps do.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorpca import (SolverConfig, matr, project_C, random_gaussian,
                       solve_leading_pc)
from tensorpca import admm, extensions
from tensorpca.admm import Relaxation, _symmetric_relaxation, solve
from tensorpca.extensions import random_partial_symmetric, solve_biquadratic
from tensorpca.projection import project_psd, shrink_nuclear


def routed(monkeypatch, run):
    # the Relaxation a bi-quadratic route hands to solve
    problems = []
    real = extensions.solve

    def spy(problem, *args):
        problems.append(problem)
        return real(problem, *args)

    monkeypatch.setattr(extensions, "solve", spy)
    run()
    monkeypatch.undo()
    return problems[0]


def dense_reference(n, d):
    # the relaxation of test_moment_solve_equals_dense_solve on n**d x n**d
    # matrices, whose Z0 is singular
    F = random_gaussian(n, 2 * d, 11)
    best = max(range(n), key=lambda i: F[(i,) * (2 * d)])
    p = int(np.ravel_multi_index((best,) * d, (n,) * d))
    Y0 = np.zeros((n ** d, n ** d))
    Y0[p, p] = 1.0
    return Relaxation(matr(F), lambda Z: project_C(Z, n, d), Y0)


CASES = {
    "symmetric-6-4": lambda mp: _symmetric_relaxation(random_gaussian(6, 4, 0)),
    "symmetric-4-6": lambda mp: _symmetric_relaxation(random_gaussian(4, 6, 1)),
    "partial-4-6": lambda mp: routed(mp, lambda: solve_biquadratic(
        random_partial_symmetric(4, 6, 2), "nnp")),
    "stack-3333": lambda mp: routed(mp, lambda: solve_leading_pc(
        np.random.default_rng(0).standard_normal((3, 3, 3, 3)), "nnp")),
    "stack-2x6": lambda mp: routed(mp, lambda: solve_leading_pc(
        np.random.default_rng(1).standard_normal((2,) * 6), "nnp")),
    "dense-4-2": lambda mp: dense_reference(4, 2),
}


def plain_drift(problem, cfg, at=(), Q=None, k=1):
    # the plain Douglas-Rachford steps while Y = 0, from the start or from
    # Q at iteration k: the first iteration whose Y is nonzero, Q there,
    # and (Q, rel + primal) at each iteration `at` lists before it (rel +
    # primal only from the start, where X is known)
    tau = cfg.mu * cfg.rho
    mu_C = cfg.mu * problem.C
    X_prev = X = None
    if Q is None:
        X_prev, X = problem.start, problem.project(problem.start)
        Q = X + mu_C
    kept = {}
    for k in range(k, cfg.max_iter + 1):
        if k in at:
            kept[k] = (Q, None if X is None else
                       np.linalg.norm(X - X_prev) / np.linalg.norm(X_prev)
                       + np.linalg.norm(X))
        if shrink_nuclear(Q, tau).any():
            return k, Q, kept
        X_next = problem.project(mu_C - Q)
        Q = Q + X_next
        X_prev, X = X, X_next
    raise AssertionError("the drift did not leave the band")


def prox_calls(monkeypatch):
    # (Q, Y nonzero) for each call of the nnp prox through admm
    calls = []

    def spy(Q, tau):
        Y = shrink_nuclear(Q, tau)
        calls.append((Q.copy(), bool(Y.any())))
        return Y

    monkeypatch.setattr(admm, "shrink_nuclear", spy)
    return calls


def close(A, B):
    return float(np.linalg.norm(A - B)) <= 1e-12 * float(np.linalg.norm(B))


@pytest.mark.parametrize("rho", [10.0, 100.0])
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_jump_lands_where_the_plain_drift_does(monkeypatch, case, rho):
    problem = CASES[case](monkeypatch)
    cfg = SolverConfig(rho=rho)
    first, Q_first, _ = plain_drift(problem, cfg)
    assert first >= 5  # the drift is long enough to jump
    # caps at 2 (no room to jump), 3 (a jump of one step) and further in
    middle = sorted({2, 3, first // 2, first - 1})
    _, _, kept = plain_drift(problem, cfg, at=middle)
    calls = prox_calls(monkeypatch)
    # capped at the first nonzero Y: every call before it was zero, and
    # the last one sees the reference's Q
    report = solve(problem, "nnp", replace(cfg, max_iter=first))
    assert report.termination == "iter_cap" and report.iterations == first
    assert [nonzero for _, nonzero in calls] == [False] * (len(calls) - 1) + [True]
    assert close(calls[-1][0], Q_first)
    # and the prox ran at most three times to get there
    assert len(calls) <= 3
    # capped inside the drift: the cap is met exactly, at the reference's
    # Q, X and X_prev (as rel + primal)
    for k in middle:
        calls.clear()
        report = solve(problem, "nnp", replace(cfg, max_iter=k))
        assert report.termination == "iter_cap" and report.iterations == k
        assert not any(nonzero for _, nonzero in calls)
        Q, total = kept[k]
        assert close(calls[-1][0], Q)
        assert report.rel_change + report.primal_residual == pytest.approx(
            total, rel=0, abs=1e-12)


def test_a_jump_after_anderson_steps_follows_the_plain_drift(monkeypatch):
    # on a trace-0.05 set with a small cost, Y is nonzero at the first
    # iteration and zero from the second: the jump there clears the
    # Anderson memory, so the loop still lands where the plain steps from
    # that iteration's Q do
    base = _symmetric_relaxation(random_gaussian(7, 4, 0))
    eps = 0.05
    problem = Relaxation(0.01 * base.C, lambda Z: eps * base.project(Z / eps),
                         eps * base.start)
    cfg = SolverConfig(rho=0.1)
    calls = prox_calls(monkeypatch)
    solve(problem, "nnp", replace(cfg, max_iter=2))
    assert [nonzero for _, nonzero in calls] == [True, False]
    first, Q_first, _ = plain_drift(problem, cfg, Q=calls[-1][0], k=2)
    assert first >= 5
    calls.clear()
    solve(problem, "nnp", replace(cfg, max_iter=first))
    assert [nonzero for _, nonzero in calls] == [True, False, False, True]
    assert close(calls[-1][0], Q_first)


@pytest.mark.parametrize("rho", [100.0, 1000.0])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_large_rho_sees_at_most_two_zero_prox_outputs(monkeypatch, case, rho):
    problem = CASES[case](monkeypatch)
    calls = prox_calls(monkeypatch)
    report = solve(problem, "nnp", SolverConfig(rho=rho))
    assert report.termination == "converged"
    zeros = sum(not nonzero for _, nonzero in calls)
    assert 1 <= zeros <= 2
    # every iteration the prox did not run was jumped over
    assert report.iterations > len(calls)


def test_sdp_jumps_its_zero_band_too(monkeypatch):
    # a negative definite form puts Q below zero, where the PSD projection
    # is zero, until the drift lifts it
    F = random_gaussian(3, 4, 0)
    problem = _symmetric_relaxation(F)
    problem = replace(problem, C=problem.C - 20.0 * np.eye(len(problem.C)))
    cfg = SolverConfig()
    mu_C = cfg.mu * problem.C
    Q = problem.project(problem.start) + mu_C
    first = 1
    while not project_psd(Q).any():
        Q, first = Q + problem.project(mu_C - Q), first + 1
    assert first >= 3
    calls = []

    def spy(Q):
        Y = project_psd(Q)
        calls.append(bool(Y.any()))
        return Y

    monkeypatch.setattr(admm, "project_psd", spy)
    report = solve(problem, "sdp", replace(cfg, max_iter=first))
    assert report.iterations == first
    assert calls[-1] and not any(calls[:-1]) and len(calls) <= 3


# the band solve hands run_admm for each method, read off its call
def band(monkeypatch, method, cfg):
    seen = []
    real = admm.run_admm

    def spy(*args, **kwargs):
        seen.append(kwargs["band"])
        return real(*args, **kwargs)

    monkeypatch.setattr(admm, "run_admm", spy)
    solve(_symmetric_relaxation(random_gaussian(2, 4, 0)), method,
          replace(cfg, max_iter=1))
    monkeypatch.undo()
    return seen[0]


PROX = {"sdp": lambda Q, cfg: project_psd(Q),
        "nnp": lambda Q, cfg: shrink_nuclear(Q, cfg.mu * cfg.rho)}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(method=st.sampled_from(sorted(PROX)), n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16), rho=st.sampled_from([0.1, 10.0, 1e3]),
       edge=st.sampled_from(["lo", "hi"]), inside=st.booleans())
def test_the_prox_is_zero_exactly_inside_the_band(method, n, seed, rho, edge,
                                                  inside):
    cfg = SolverConfig(rho=rho)
    with pytest.MonkeyPatch.context() as mp:
        lo, hi = band(mp, method, cfg)
    assert (lo, hi) == {"sdp": (-math.inf, 0.0),
                        "nnp": (-cfg.mu * rho, cfg.mu * rho)}[method]
    if edge == "lo" and lo == -math.inf:
        edge = "hi"
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    # a spectrum inside the band, its extreme pushed to just inside or
    # just outside one edge, by 1e-9 of the band's scale
    scale = max(abs(lo) if lo > -math.inf else 0.0, abs(hi), 1.0)
    margin = (-1e-9 if inside else 1e-9) * scale
    low = lo if lo > -math.inf else hi - 10.0
    w = rng.uniform(low + 0.1 * (hi - low), hi - 0.1 * (hi - low), n)
    w[0] = hi + margin if edge == "hi" else lo - margin
    Q = (V * w) @ V.T
    assert (not PROX[method](Q, cfg).any()) == inside


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), blocks=st.integers(1, 3), rank=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16), finite_lo=st.booleans(),
       limit=st.integers(0, 400))
def test_drift_steps_counts_the_steps_inside_the_band(n, blocks, rank, seed,
                                                      finite_lo, limit):
    # against stepping Q + t Z0 one t at a time, on a stack of blocks and a
    # PSD Z0 of any rank; a Q outside the band at either edge gets 0
    rng = np.random.default_rng(seed)
    tau = 5.0
    band = (-tau if finite_lo else -math.inf, tau)
    V = np.linalg.qr(rng.standard_normal((blocks, n, n)))[0]

    def symmetric(spectrum):
        return (V * spectrum[:, None, :]) @ V.swapaxes(-1, -2)

    w = rng.uniform(-0.9 * tau, 0.9 * tau, (blocks, n))
    Q = symmetric(w)
    Z = symmetric(np.where(np.arange(n) < rank,
                           rng.uniform(0.0, 0.1, (blocks, n)), 0.0))

    def top(t):
        return np.linalg.eigvalsh(Q + t * Z)[..., -1].max()

    s = admm._drift_steps(Q, Z, band, limit)
    assert 0 <= s <= limit
    assert top(s) < tau + 1e-9
    assert s == limit or top(s + 1) >= tau - 1e-9
    above, below = w.copy(), w.copy()
    above[-1, 0], below[-1, 0] = 1.01 * tau, -1.01 * tau
    assert admm._drift_steps(symmetric(above), Z, band, limit) == 0
    if finite_lo:
        assert admm._drift_steps(symmetric(below), Z, band, limit) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(check_at=st.floats(1e-6, 1e-2),
       sums=st.tuples(*[st.floats(1e-6, 2e-2)] * 3),
       first=st.integers(1, 12), skip=st.integers(0, 12),
       early=st.sets(st.integers(1, 30), max_size=4))
def test_the_schedule_of_a_jump_is_that_of_the_steps(check_at, sums, first,
                                                     skip, early):
    # the closed form against run_admm's schedule rule run at each
    # iteration passed over, whose sums are sums[0], sums[1], then sums[2]
    expected = check_at
    for k in range(first, first + skip):
        total = sums[min(k - first, 2)]
        if total <= expected or k in early:
            expected = min(expected, 0.5 * total)
    assert admm._passed_schedule(check_at, sums, first, skip,
                                 tuple(early)) == expected
