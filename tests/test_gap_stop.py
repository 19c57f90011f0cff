"""The symmetric pipeline stops its ADMM once the duality gap closes.

`solve_leading_pc` asks `solve_sdp`/`solve_nnp` for `stop_on_gap`: at the
iterations EARLY_CHECKS lists, from rel + primal <= GAP_CHECK_START, and
each time that sum halves, the read-out of the iterate is polished by
safeguarded Newton steps and compared with the dual bound corrected at
it, and the solve stops once it closes the gap.  A check whose prox output
Y is zero (nnp's shrinkage phase, which `run_admm` mostly jumps over) is
skipped.  `extract` returns that polished read-out, and the report reuses
the last check's eigendecomposition.  Direct solver calls keep running to
convergence.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorpca import (SolverConfig, eval_homogeneous, random_gaussian,
                       solve_leading_pc, solve_nnp, solve_sdp)
from tensorpca import admm, extensions
from tensorpca.admm import (EARLY_CHECKS, GAP_CHECK_START,
                            _symmetric_relaxation, solve)
from tensorpca.extensions import (biquadratic_form, random_partial_symmetric,
                                  solve_biquadratic)
from tensorpca.extraction import newton_refine

SOLVERS = {"sdp": solve_sdp, "nnp": solve_nnp}

# the symmetric solves of the 114-solve comparison set: Gaussian order-2d
# tensors at these (n, d), seeds 0-3, both methods, and order-3 tensors
# at n = 6, seeds 0-5, through the squared route
EVEN_SIZES = ((6, 2), (4, 3), (8, 2), (10, 2), (5, 2), (3, 3), (1, 2), (3, 1),
              (2, 4))
ODD_CASES = [(6, 3, seed, "sdp") for seed in range(6)]


def run_to_convergence(monkeypatch):
    # the pipeline with the gap stop switched off: solve_even_order looks
    # its solver up on admm
    for method, solver in SOLVERS.items():
        monkeypatch.setattr(admm, f"solve_{method}",
                            lambda F, cfg, stop_on_gap, solver=solver:
                            solver(F, cfg))


@pytest.mark.parametrize("n, d", EVEN_SIZES)
def test_gap_stop_keeps_the_converged_answer(monkeypatch, n, d):
    cases = [(n, 2 * d, seed, method) for seed in range(4)
             for method in ("sdp", "nnp")]
    if (n, d) == (6, 2):
        cases += ODD_CASES
    stopped = [solve_leading_pc(random_gaussian(*case[:3]), case[3])
               for case in cases]
    run_to_convergence(monkeypatch)
    for case, (pc, report) in zip(cases, stopped):
        F = random_gaussian(*case[:3])
        reference, converged = solve_leading_pc(F, case[3])
        assert converged.termination == "converged", case
        assert pc.certified == reference.certified, case
        assert pc.lambda_star == pytest.approx(reference.lambda_star,
                                               rel=1e-10, abs=0), case
        assert report.iterations <= converged.iterations, case


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("n, m, seed", [(3, 4, 0), (4, 4, 2), (2, 6, 1),
                                        (5, 4, 7)])
def test_direct_solves_are_bitwise_unchanged_by_the_gap_check(n, m, seed,
                                                              method):
    # a check that runs on the pipeline's schedule but never closes the gap
    # leaves every iterate as it was: the report of a direct call, which
    # runs no check, is bitwise the report of that solve
    F = random_gaussian(n, m, seed)
    cfg = SolverConfig()
    checks = []

    def never(X, v):
        checks.append(X)
        return -math.inf, None

    checked = solve(_symmetric_relaxation(F), method, cfg, never)
    direct = SOLVERS[method](F, cfg)
    plain = solve(_symmetric_relaxation(F), method, cfg)
    assert checks and checked.termination == direct.termination == "converged"
    for report in (checked, plain):
        assert report.iterations == direct.iterations
        for name in ("objective", "bound", "rank_one_ratio", "rel_change",
                     "primal_residual", "nuclear_norm", "neg_eig_mass"):
            assert getattr(report, name) == getattr(direct, name), name
        assert np.array_equal(report.values, direct.values)


@st.composite
def form_and_point(draw):
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4 if m <= 4 else 3))
    seed = draw(st.integers(0, 2 ** 16))
    x = np.random.default_rng(seed + 1).standard_normal(n)
    return random_gaussian(n, m, seed), x / np.linalg.norm(x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(form_and_point())
def test_newton_refinement_never_lowers_the_form(case):
    F, x = case
    refined = newton_refine(F, x)
    assert np.linalg.norm(refined) == pytest.approx(1.0, abs=1e-12)
    assert eval_homogeneous(F, refined) >= eval_homogeneous(F, x)


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_newton_refinement_reaches_the_converged_value(method):
    # the gap stop's value, polished at its last check, matches the
    # converged rank-one read-out to rounding.  Capped at that iteration
    # (no check runs at the cap) the solve reports the unpolished read-out
    # of the same iterate, below the optimum, and its polish matches too
    F = random_gaussian(6, 4, 2)
    stopped = SOLVERS[method](F, stop_on_gap=True)
    converged = SOLVERS[method](F)
    assert stopped.termination == "gap" and converged.certified
    assert stopped.extracted_lambda == pytest.approx(
        converged.extracted_lambda, rel=1e-13)
    early = SOLVERS[method](F, SolverConfig(max_iter=stopped.iterations))
    assert early.termination == "iter_cap"
    assert early.extracted_lambda < converged.extracted_lambda - 1e-12
    value = eval_homogeneous(F, newton_refine(F, early.extracted_x))
    assert value == pytest.approx(converged.extracted_lambda, rel=1e-13)


PROX = {"sdp": "project_psd", "nnp": "shrink_nuclear"}
TOLS = (1e-6, 1e-9, 1e-2)


def spy_prox(monkeypatch, method):
    # whether each iteration's prox output Y was nonzero: True or False
    # per call through the lookup site on admm that benchmarks/tracer.py
    # times, and None per iteration a jump across the prox's zero band
    # passed over (`admm._drift_steps`), where Y is zero and no call runs
    nonzero = []
    real = getattr(admm, PROX[method])
    drift = admm._drift_steps

    def spy(*args):
        Y = real(*args)
        nonzero.append(bool(Y.any()))
        return Y

    def jump(*args):
        skip = drift(*args)
        nonzero.extend([None] * skip)
        return skip

    monkeypatch.setattr(admm, PROX[method], spy)
    monkeypatch.setattr(admm, "_drift_steps", jump)
    return nonzero


@functools.lru_cache(maxsize=None)
def residual_sums(n, m, seed, method):
    # rel + primal at each iteration k but the last of the plain symmetric
    # solve at the smallest tested tol, read from the same solve capped at
    # k.  Neither a check nor a larger tol changes an iterate before the
    # stop, so this serves every tol and every checked run
    problem = _symmetric_relaxation(random_gaussian(n, m, seed))
    cfg = SolverConfig(tol=min(TOLS))
    sums = []
    for k in range(1, solve(problem, method, cfg).iterations):
        capped = solve(problem, method, replace(cfg, max_iter=k))
        sums.append(capped.rel_change + capped.primal_residual)
    return tuple(sums)


def gap_schedule(sums, iterations):
    # the iterations run_admm schedules a check at, from rel + primal:
    # EARLY_CHECKS, then each time the sum reaches GAP_CHECK_START or half
    # its value at the last scheduled iteration that had reached it
    scheduled, check_at = [], GAP_CHECK_START
    for k in range(1, iterations):
        if sums[k - 1] <= check_at or k in EARLY_CHECKS:
            check_at = min(check_at, 0.5 * sums[k - 1])
            scheduled.append(k)
    return scheduled


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_gap_checks_are_spaced_by_halving(monkeypatch, method, tol):
    calls = []
    read_out = admm._read_out

    def spy(F, v):
        calls.append(v)
        return read_out(F, v)

    monkeypatch.setattr(admm, "_read_out", spy)
    cfg = SolverConfig(tol=tol)
    halvings = math.ceil(math.log2(GAP_CHECK_START / tol))
    limit = len(EARLY_CHECKS) + halvings + 1
    nonzero = spy_prox(monkeypatch, method)
    for case in ((6, 4, 0), (4, 6, 1)):
        F = random_gaussian(*case)
        sums = residual_sums(*case, method)
        calls.clear()
        solve_leading_pc(F, method, cfg)
        assert 1 <= len(calls) <= limit
        # a direct call reads out once, for its report, and checks nothing
        calls.clear()
        SOLVERS[method](F, cfg)
        assert len(calls) == 1
        # a check that never closes the gap runs at each scheduled
        # iteration whose prox output Y was nonzero: the early iterations
        # the solve reaches with Y nonzero, and every halving down to tol
        nonzero.clear()
        checked = []
        report = solve(_symmetric_relaxation(F), method, cfg,
                       lambda X, v: (checked.append(len(nonzero)) or -math.inf,
                                     None))
        scheduled = gap_schedule(sums, report.iterations)
        early = [k for k in EARLY_CHECKS
                 if k < report.iterations and nonzero[k - 1]]
        halved = [k for k in scheduled if k not in EARLY_CHECKS]
        assert checked == [k for k in scheduled if nonzero[k - 1]]
        assert len(checked) == len(early) + len(halved)
        assert len(halved) <= halvings


def record_runs(monkeypatch):
    # each run_admm call of a solve: its arguments and the iterations its
    # stop was asked at, counted by the prox calls of the nnp spy
    real = admm.run_admm
    runs = []
    nonzero = spy_prox(monkeypatch, "nnp")

    def run(project, prox, C, Y0, cfg, *, stop=None, early=(), band=None):
        checked = []

        def counted(X, mu_lam):
            checked.append(len(nonzero))
            return stop(X, mu_lam)

        runs.append(((project, prox, C, Y0, cfg), stop, early, checked, band))
        return real(project, prox, C, Y0, cfg, stop=counted, early=early,
                    band=band)

    monkeypatch.setattr(admm, "run_admm", run)
    return runs, nonzero, real


@pytest.mark.parametrize("n, m", [(6, 4), (4, 6), (8, 4), (10, 4)])
def test_nnp_skips_only_checks_at_a_zero_y_that_would_not_close(monkeypatch,
                                                                n, m):
    runs, nonzero, run_admm = record_runs(monkeypatch)
    skips = 0
    for seed in range(4):
        runs.clear()
        nonzero.clear()
        F = random_gaussian(n, m, seed)
        pc, report = solve_leading_pc(F, "nnp")
        ((args, stop, early, checked, band),) = runs
        assert report.termination == "gap" and pc.certified
        # one prox call per iteration that no jump passed over, skipped
        # checks included
        assert len(nonzero) == report.iterations
        assert all(nonzero[k - 1] for k in checked)
        # each early iteration without a check had Y == 0, and the check
        # run on that iterate, rebuilt by the same loop capped there, fails
        for k in early:
            if k >= report.iterations or k in checked:
                continue
            skips += 1
            assert not nonzero[k - 1]
            X, Y, _, _, _, _, mu_lam = run_admm(*args[:4],
                                                replace(args[4], max_iter=k),
                                                band=band)
            assert not Y.any()
            assert not stop(X, mu_lam)
    assert skips >= 4


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_the_prox_runs_once_per_iteration_through_admm(monkeypatch, method):
    # benchmarks/tracer.py counts projection.*.calls at these lookup sites,
    # so a skipped check must neither drop nor repeat a prox call: the
    # prox calls plus the iterations jumped over are the iterations
    nonzero = spy_prox(monkeypatch, method)
    solves = [lambda: solve_leading_pc(random_gaussian(6, 4, 1), method),
              lambda: solve_biquadratic(random_partial_symmetric(4, 6, 10),
                                        method, stop_on_gap=True)]
    for run in solves:
        nonzero.clear()
        _, report = run()
        assert report.termination == "gap"
        jumped = nonzero.count(None)
        calls = len(nonzero) - jumped
        assert calls + jumped == report.iterations
        # nnp jumps over its early checks, where Y == 0, and skips them
        assert (jumped > 0) == (method == "nnp")
        assert (not nonzero[EARLY_CHECKS[0] - 1]) == (method == "nnp")


def spy_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("seed", range(3))
def test_a_gap_stop_reports_from_its_last_check(monkeypatch, method, seed):
    # one eigendecomposition and one SVD read-out per check, none more for
    # the report; the returned value is the form at the returned point and
    # matches the converged solve's
    F = random_gaussian(5, 4, seed)
    G = random_partial_symmetric(4, 6, seed)
    F4 = np.random.default_rng(seed).standard_normal((3, 3, 3, 3))
    converged = (SOLVERS[method](F).extracted_lambda,
                 solve_biquadratic(G, method)[0].lambda_star)
    checks = spy_calls(monkeypatch, admm, "_checked_bound")
    eig = spy_calls(monkeypatch, admm, "_rank_one_eig")
    block_eig = spy_calls(monkeypatch, admm, "_block_eig")
    svd = spy_calls(monkeypatch, admm, "_leading_factors")
    svd_pairs = spy_calls(monkeypatch, extensions, "_leading_factors")
    recover = spy_calls(monkeypatch, admm, "_recover_symmetric")

    pc, report = solve_leading_pc(F, method)
    assert report.termination == "gap" and pc.certified
    assert len(eig) == len(svd) == len(checks) >= 1 and not recover
    assert pc.lambda_star == eval_homogeneous(F, pc.x_star)
    assert pc.lambda_star == pytest.approx(converged[0], rel=1e-10, abs=0)

    for calls in (checks, eig, svd):
        calls.clear()
    comp, report = solve_biquadratic(G, method, stop_on_gap=True)
    assert report.termination == "gap" and comp.certified
    assert len(eig) == len(svd_pairs) == len(checks) >= 1 and not svd
    assert comp.lambda_star == biquadratic_form(G, comp.x_star, comp.y_star)
    assert comp.lambda_star == pytest.approx(converged[1], rel=1e-10, abs=0)

    for calls in (checks, eig, svd_pairs):
        calls.clear()
    _, report = solve_leading_pc(F4, method)
    assert report.termination == "gap"
    assert len(block_eig) == len(svd_pairs) == len(checks) >= 1
    assert not eig
