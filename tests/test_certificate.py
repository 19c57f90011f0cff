"""The dual bound on every solve, and the certificate that reads it.

`report.bound` is lambda_max(C + S) - <S, X> with S taken from the ADMM's
last multiplier: an upper bound on the form's maximum at any iterate,
capped by the bound at S = 0, lambda_max(C), which is exact on
orthogonally decomposable forms.  A route's value lambda is certified
iff the iteration cap did not stop the solve and bound - lambda <=
rank_tol * |bound|; a rank-one X certifies nothing by itself.  The
fallback skips its restarts once the ascent from the read-out point
closes the gap.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorpca import (SolverConfig, eval_homogeneous, multistart_local,
                       random_gaussian, random_partial_symmetric,
                       solve_biquadratic, solve_leading_pc, solve_nnp,
                       solve_sdp, symmetrize)
from tensorpca import admm, extensions, extraction
from tensorpca.admm import certifies
from tensorpca.matricize import _leading_factors
from tensorpca.extraction import RESTARTS


def odeco(q, weights, m):
    # sum_j w_j q_j^(x)m over orthonormal columns q_j of q
    dense = np.zeros((len(q),) * m)
    for j, w in enumerate(weights):
        term = q[:, j]
        for _ in range(m - 1):
            term = np.multiply.outer(term, q[:, j])
        dense += w * term
    return symmetrize(dense)


def tied(rng, n, m):
    # two orthonormal rank-one terms, as in the benchmark's files-mixed:
    # the maximum 1 is attained at both, so no relaxation is rank one
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return odeco(q, (1.0, 1.0), m)


def biquadratic_lower(G, starts=10, sweeps=200):
    # max of G(x, y, x, y) over unit x, y from below: the best of seeded
    # alternating ascents, each block set to the top eigenvector of the
    # quadratic form the other block leaves
    rng = np.random.default_rng(0)
    best = -np.inf
    for _ in range(starts):
        y = rng.standard_normal(G.shape[1])
        y /= np.linalg.norm(y)
        for _ in range(sweeps):
            x = np.linalg.eigh(np.einsum("ijkl,j,l->ik", G, y, y))[1][:, -1]
            y = np.linalg.eigh(np.einsum("ijkl,i,k->jl", G, x, x))[1][:, -1]
        best = max(best, float(np.einsum("ijkl,i,j,k,l->", G, x, y, x, y)))
    return best


@st.composite
def bound_case(draw):
    method = draw(st.sampled_from(("sdp", "nnp")))
    max_iter = draw(st.sampled_from((1, 2, 5)))
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        m = draw(st.sampled_from((4, 6)))
        n = draw(st.integers(1, 4 if m == 4 else 3))
        return ("symmetric", (n, m), seed), method, max_iter
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    return ("partial", (n, m), seed), method, max_iter


@settings(max_examples=30, deadline=None, derandomize=True)
@given(bound_case())
def test_bound_is_above_the_oracle_at_any_iterate(case):
    (route, (n, m), seed), method, max_iter = case
    cfg = SolverConfig(max_iter=max_iter)
    if route == "symmetric":
        F = random_gaussian(n, m, seed)
        report = {"sdp": solve_sdp, "nnp": solve_nnp}[method](F, cfg)
        lower = multistart_local(F, 20, 0).value
    else:
        G = random_partial_symmetric(n, m, seed)
        _, report = solve_biquadratic(G, method, cfg)
        lower = biquadratic_lower(G)
    assert np.isfinite(report.bound)
    assert report.bound >= lower - 1e-9 * max(abs(lower), abs(report.bound))


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_tied_instances_certify_by_gap(method):
    # the bound at S = 0 is lambda_max of the unfolding, 1 on a tied form,
    # so under sdp the first check whose polished read-out reaches 1
    # closes, by iteration 8
    for s in range(20):
        for n, m in ((6, 4), (5, 3)):
            pc, report = solve_leading_pc(
                tied(np.random.default_rng(s), n, m), method)
            assert report.termination == "gap"
            assert not report.rank_one  # X is not rank one
            assert pc.certified
            assert abs(pc.lambda_star - 1.0) <= 1e-12, (s, n, m)
            assert -1e-12 <= report.gap <= 1e-6 * abs(report.bound)
            assert method == "nnp" or report.iterations <= 8, (s, n, m)


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_quadrilinear_arrays_certify_by_gap(method):
    # the stacked embedding's sign flip keeps X rank two (0 of 20 rank
    # one), and the fallback's value closes the gap on every seed
    for s in range(20):
        F = np.random.default_rng(s).standard_normal((3, 3, 3, 3))
        comp, report = solve_leading_pc(F, method)
        assert not report.rank_one
        assert comp.certified, s
        assert report.gap <= 1e-6 * abs(report.bound)


def count_ascents(monkeypatch, module):
    # wrap every ascent of the restart policy that `module` calls
    calls = []
    original = extraction._ascend_with_restarts

    def spy(ascend, *args):
        def counted(*blocks):
            calls.append(blocks)
            return ascend(*blocks)
        return original(counted, *args)

    monkeypatch.setattr(module, "_ascend_with_restarts", spy)
    return calls


def quadrilinear():
    return np.random.default_rng(0).standard_normal((3, 3, 3, 3))


def tied_quartic():
    return tied(np.random.default_rng(123), 6, 4)


def generic_quartic(s):
    return symmetrize(np.random.default_rng(s).standard_normal((6,) * 4))


def quartic_fallback(F, cfg):
    # the pipeline stops a quartic on the gap before any fallback, so the
    # fallback runs here from a solve_sdp report and its bound.  Not on a
    # tied quartic: its bound at S = 0 closes the gap from the first
    # iteration on
    report = solve_sdp(F, cfg)
    x = extraction._refine_not_rank_one(F, report.extracted_x, cfg.seed,
                                        report.bound, cfg.rank_tol)
    report = replace(report, extracted_lambda=eval_homogeneous(F, x))
    return certifies(report, cfg.rank_tol), report


def quadrilinear_fallback(cfg, calls):
    # a certified quadri-linear solve runs no fallback, so the fallback runs
    # here from the block solve's read-out and bound; the solve's own
    # fallback, when it ran one, is not counted
    dims = (3, 3, 3, 3)
    G = extensions.stack_multilinear(quadrilinear())
    i, j = np.divmod(np.arange(36), 6)
    _, report = solve_biquadratic(G, "sdp", cfg,
                                  odd_rows=(i >= dims[0]) != (j >= dims[1]))
    calls.clear()
    x, y = extensions._mbi_biquadratic(
        G, _leading_factors(report.extracted_x,
                            (dims[0] + dims[2], dims[1] + dims[3])),
        cfg.seed, report.bound, cfg.rank_tol)
    report = replace(report,
                     extracted_lambda=extensions.biquadratic_form(G, x, y))
    return certifies(report, cfg.rank_tol), report


@pytest.mark.parametrize("run, module", [
    *[(lambda cfg, calls, s=s: quartic_fallback(generic_quartic(s), cfg),
       extraction) for s in range(3)],
    (quadrilinear_fallback, extensions)],
    ids=[f"generic_quartic_{s}-tensorpca.extraction" for s in range(3)]
    + ["quadrilinear-tensorpca.extensions"])
def test_fallback_stops_at_the_first_ascent_once_the_gap_closes(
        monkeypatch, run, module):
    calls = count_ascents(monkeypatch, module)
    certified, report = run(SolverConfig(), calls)
    assert certified and len(calls) == 1
    # one iteration leaves the gap open: the read-out start and every restart
    calls.clear()
    certified, report = run(SolverConfig(max_iter=1), calls)
    assert report.gap > 1e-6 * abs(report.bound)
    assert not certified and len(calls) == 1 + RESTARTS


def without_gap_stop(monkeypatch):
    # the pipeline with its gap stop switched off, on both routes: the gap
    # stop certifies at a corrected bound the capped iterate does not have
    for method, solver in (("sdp", solve_sdp), ("nnp", solve_nnp)):
        monkeypatch.setattr(admm, f"solve_{method}",
                            lambda F, cfg, stop_on_gap, solver=solver:
                            solver(F, cfg))
    original = extensions.solve_biquadratic
    monkeypatch.setattr(extensions, "solve_biquadratic",
                        lambda G, method, cfg, stop_on_gap, **kwargs:
                        original(G, method, cfg, **kwargs))


@pytest.mark.parametrize("make", [tied_quartic, quadrilinear])
@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_capped_solve_is_never_certified_when_its_gap_closes(monkeypatch,
                                                             make, method):
    # run to convergence and capped one iteration short, where the bound
    # is already tight
    without_gap_stop(monkeypatch)
    _, converged = solve_leading_pc(make(), method)
    assert converged.termination == "converged"
    cfg = SolverConfig(max_iter=converged.iterations - 1)
    comp, report = solve_leading_pc(make(), method, cfg)
    assert report.termination == "iter_cap"
    assert report.gap <= 1e-6 * abs(report.bound)
    assert not comp.certified


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_a_rank_one_report_is_not_certified_below_its_bound(method):
    # a converged rank-one X whose value sits below the bound by more than
    # rank_tol certifies nothing: only the gap vouches for a value
    cfg = SolverConfig()
    report = {"sdp": solve_sdp, "nnp": solve_nnp}[method](
        random_gaussian(4, 4, 7), cfg)
    assert report.termination == "converged" and report.rank_one
    assert certifies(report, cfg.rank_tol)
    low = report.bound - 10 * cfg.rank_tol * abs(report.bound)
    assert not certifies(replace(report, extracted_lambda=low), cfg.rank_tol)


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_an_iteration_cap_is_never_certified(method):
    # capped at 1, 2 and 5 iterations, even with the value set on the bound
    for max_iter in (1, 2, 5):
        cfg = SolverConfig(max_iter=max_iter)
        report = {"sdp": solve_sdp, "nnp": solve_nnp}[method](
            random_gaussian(4, 4, 7), cfg)
        assert report.termination == "iter_cap" and not report.rank_one
        assert not certifies(report, cfg.rank_tol)
        exact = replace(report, extracted_lambda=report.bound)
        assert not certifies(exact, cfg.rank_tol)


@pytest.mark.parametrize("m", [3, 4, 6])
@pytest.mark.parametrize("n", [6, 8])
def test_odeco_bound_is_the_largest_weight(n, m):
    # weights distinct in (0.2, 1) on an orthonormal basis: the form's
    # maximum is the largest.  matr(F) has eigenvalues w_j on orthonormal
    # q_j^(x)(m/2), so its lambda_max is that maximum, a bound exact at
    # every iterate, the first included (an odd order is squared into
    # weights w_j^2)
    for s, method in ((0, "sdp"), (1, "nnp")):
        rng = np.random.default_rng(s)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = rng.uniform(0.2, 1.0, n)
        F, top = odeco(q, w, m), w.max()
        for cfg in (SolverConfig(max_iter=1), SolverConfig()):
            pc, report = solve_leading_pc(F, method, cfg)
            assert abs(pc.bound - top) <= 1e-12 * top, (s, cfg.max_iter)
        assert pc.certified and abs(pc.lambda_star - top) <= 1e-12 * top


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("max_iter", [1, 5, 20, 50_000])
def test_no_bound_is_above_lambda_max_of_the_matricization(method, max_iter):
    # the dense unfolding's top eigenvalue, built here: the bound at S = 0
    for s in range(5):
        F = random_gaussian(4, 4, s)
        top = np.linalg.eigvalsh(F.to_dense().reshape(16, 16))[-1]
        report = {"sdp": solve_sdp, "nnp": solve_nnp}[method](
            F, SolverConfig(max_iter=max_iter))
        assert report.bound <= top + 1e-12 * abs(top), s


def test_one_by_one_quartic_arrays_certify_under_sdp():
    # a (1, 1, 1, 1) array's maximum is |F|, and its sign-flip stack's
    # lambda_max(C) is exactly that
    for s in range(20):
        F = np.random.default_rng(s).standard_normal((1, 1, 1, 1))
        comp, _ = solve_leading_pc(F, "sdp")
        assert comp.certified, s
        assert abs(comp.lambda_star - abs(F.item())) <= 1e-12 * abs(F.item())


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("make", [
    lambda: random_gaussian(4, 4, 0),
    lambda: random_gaussian(4, 3, 0),
    lambda: tied(np.random.default_rng(0), 5, 4),
    lambda: np.random.default_rng(0).standard_normal((3, 3, 3)),
    lambda: np.random.default_rng(0).standard_normal((2, 2, 2, 2))],
    ids=["quartic", "cubic", "tied", "trilinear", "stacked"])
def test_the_bound_at_zero_is_solved_once_per_solve(monkeypatch, make,
                                                    method):
    # a spy on every bound: the eigenproblem of C itself, S = 0, runs once
    # per ADMM solve, whatever the route and however many checks ran
    solves, at_zero = [], []
    original_bound, original_solve = admm._bound_at, admm.solve

    def bound_at(problem, X, S):
        if np.array_equal(problem.C + S, problem.C):
            at_zero.append(problem)
        return original_bound(problem, X, S)

    def solve(problem, *args, **kwargs):
        solves.append(problem)
        return original_solve(problem, *args, **kwargs)

    monkeypatch.setattr(admm, "_bound_at", bound_at)
    monkeypatch.setattr(admm, "solve", solve)
    monkeypatch.setattr(extensions, "solve", solve)
    solve_leading_pc(make(), method)
    assert solves and [id(p) for p in at_zero] == [id(p) for p in solves]
