"""The symmetric pipeline stops its ADMM once the duality gap closes.

`solve_leading_pc` asks `solve_sdp`/`solve_nnp` for `stop_on_gap`: at the
iterations EARLY_CHECKS lists, from rel + primal <= GAP_CHECK_START, and
each time that sum halves, the read-out of the iterate is polished by
safeguarded Newton steps and compared with the dual bound corrected at
it, and the solve stops once it closes the gap.  `extract` returns that
polished read-out.  Direct solver calls keep running to convergence.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorpca import (SolverConfig, eval_homogeneous, random_gaussian,
                       solve_leading_pc, solve_nnp, solve_sdp)
from tensorpca import admm
from tensorpca.admm import (EARLY_CHECKS, GAP_CHECK_START,
                            _symmetric_relaxation, solve)
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

    def never(X):
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


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-2])
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
    for F in (random_gaussian(6, 4, 0), random_gaussian(4, 6, 1)):
        calls.clear()
        solve_leading_pc(F, method, cfg)
        assert 1 <= len(calls) <= limit
        # a direct call reads out once, for its report, and checks nothing
        calls.clear()
        SOLVERS[method](F, cfg)
        assert len(calls) == 1
        # a check that never closes the gap runs at each early iteration
        # the solve reaches and at every halving down to tol
        checks = []
        report = solve(_symmetric_relaxation(F), method, cfg,
                       lambda X: (checks.append(X) or -math.inf, None))
        early = sum(k < report.iterations for k in EARLY_CHECKS)
        assert early <= len(checks) <= limit - 1
