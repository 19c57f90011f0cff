"""The dual bound on every solve, and the certificate that reads it.

`report.bound` is lambda_max(C + S) - <S, X> with S taken from the ADMM's
last multiplier: an upper bound on the form's maximum at any iterate.  A
route's value lambda is certified iff the iteration cap did not stop the
solve and bound - lambda <= rank_tol * |bound|; a rank-one X certifies
nothing by itself.  The fallback skips its restarts once the ascent from
the read-out point closes the gap.
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


def tied(rng, n, m):
    # two orthonormal rank-one terms, as in the benchmark's files-mixed:
    # the maximum 1 is attained at both, so no relaxation is rank one
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    dense = np.zeros((n,) * m)
    for j in range(2):
        term = q[:, j]
        for _ in range(m - 1):
            term = np.multiply.outer(term, q[:, j])
        dense += term
    return symmetrize(dense)


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
    rng = np.random.default_rng(123)
    for n, m in ((6, 4), (5, 3)) * 2:
        pc, report = solve_leading_pc(tied(rng, n, m), method)
        assert report.termination == "gap"
        assert not report.rank_one  # X is not rank one
        assert pc.certified
        assert pc.lambda_star == pytest.approx(1.0, abs=1e-6)
        assert -1e-12 <= report.gap <= 1e-6 * abs(report.bound)


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


def tied_quartic_fallback(cfg):
    # the pipeline stops the tied quartic on the gap before any fallback, so
    # the fallback runs here from a solve_sdp report and its bound
    F = tied_quartic()
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
    (lambda cfg, calls: tied_quartic_fallback(cfg), extraction),
    (quadrilinear_fallback, extensions)],
    ids=["tied_quartic-tensorpca.extraction",
         "quadrilinear-tensorpca.extensions"])
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
