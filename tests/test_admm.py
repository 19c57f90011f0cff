import math

import numpy as np
import pytest

from tensorpca import (SolverConfig, neg_eig_mass, solve_nnp, solve_sdp,
                       SuperSymmetricTensor, rank_one, random_gaussian,
                       eval_homogeneous, matr, project_C)
from tensorpca.admm import (Relaxation, _recover_symmetric,
                            _symmetric_relaxation, run_admm, solve)
from tensorpca.projection import project_psd, shrink_nuclear
from tensorpca.tensors import _class_keys, _class_map


def test_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.rho == 10.0
    assert cfg.mu == 0.5
    assert cfg.tol == 1e-6
    assert cfg.max_iter == 50_000
    assert cfg.rank_tol == 1e-6
    with pytest.raises(ValueError):
        SolverConfig(rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1.5)
    # sigma_2/sigma_1 <= 1, so a rank_tol of 1 or more would certify any X
    for bad in (1.0, 2.0):
        with pytest.raises(ValueError, match="below 1"):
            SolverConfig(rank_tol=bad)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    # a fractional cap would fail inside the loop, and a negative or
    # fractional seed only once a fallback draws its restarts
    for bad in ({"max_iter": 2.5}, {"seed": -1}, {"seed": 1.5}):
        with pytest.raises(ValueError, match="integer"):
            SolverConfig(**bad)
    assert SolverConfig(seed=np.int64(7), max_iter=np.int64(9)).seed == 7
    # nan passes every comparison, so finiteness is checked on its own
    for name in ("rho", "mu", "tol", "rank_tol"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(**{name: bad})


def test_neg_eig_mass_matches_eigenvalues():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5))
    M = 0.5 * (A + A.T)
    w = np.linalg.eigvalsh(M)
    assert neg_eig_mass(M) == pytest.approx(float(-w[w < 0].sum()), rel=1e-12)
    assert neg_eig_mass(np.eye(3)) == 0.0


@pytest.mark.parametrize("solve", [solve_nnp, solve_sdp])
def test_axis_aligned_quartic(solve):
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    F = rank_one(1.0, e1, 4) + rank_one(2.0, e2, 4)
    report = solve(F)
    assert report.termination == "converged"
    assert report.rank_one_ratio <= 1e-6
    assert report.extracted_lambda == pytest.approx(2.0, abs=1e-5)
    assert np.max(np.abs(np.abs(report.extracted_x) - e2)) < 1e-4


@pytest.mark.parametrize("solve", [solve_nnp, solve_sdp])
def test_rank_one_input_recovered(solve):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(4)
    a /= np.linalg.norm(a)
    report = solve(rank_one(1.0, a, 4))
    assert report.rank_one_ratio <= 1e-6
    assert report.extracted_lambda == pytest.approx(1.0, abs=1e-5)
    assert min(np.max(np.abs(report.extracted_x - a)),
               np.max(np.abs(report.extracted_x + a))) < 1e-4


@pytest.mark.parametrize("solve", [solve_nnp, solve_sdp])
def test_report_internal_consistency(solve):
    F = random_gaussian(4, 4, 17)
    cfg = SolverConfig()
    report = solve(F, cfg)
    assert report.termination == "converged"
    # stopping rule satisfied at termination
    assert report.rel_change + report.primal_residual <= cfg.tol
    # trace one ties nuclear norm to the negative mass
    assert report.nuclear_norm == pytest.approx(1.0 + 2.0 * report.neg_eig_mass,
                                                abs=1e-8)
    assert float(np.trace(report.X)) == pytest.approx(1.0, abs=1e-10)
    # extracted value is the form at the extracted point
    assert report.extracted_lambda == pytest.approx(
        eval_homogeneous(F, report.extracted_x), abs=1e-12)
    assert np.linalg.norm(report.extracted_x) == pytest.approx(1.0, abs=1e-12)
    # iteration counts stay in the expected range at these sizes
    assert 10 <= report.iterations <= 20_000


def test_converged_objective_is_the_extracted_value():
    # at a converged rank-one X the relaxation's value is attained by x
    report = solve_sdp(random_gaussian(3, 4, 0))
    assert report.termination == "converged" and report.rank_one
    assert report.extracted_lambda == pytest.approx(report.objective, abs=1e-4)


def test_sdp_objective_upper_bounds_form_maximum():
    # the relaxation's value dominates the form at any unit point
    F = random_gaussian(3, 4, 23)
    report = solve_sdp(F)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        assert eval_homogeneous(F, x) <= report.objective + 1e-8


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_nnp(random_gaussian(3, 3, 0))
    with pytest.raises(ValueError):
        solve_sdp(SuperSymmetricTensor(3, 4))
    with pytest.raises(TypeError):
        solve_nnp(np.zeros((3, 3, 3, 3)))


def test_iter_cap_is_reported():
    F = random_gaussian(4, 4, 2)
    report = solve_sdp(F, SolverConfig(max_iter=3))
    assert report.termination == "iter_cap"
    assert report.iterations == 3


def test_first_change_is_measured_from_the_start_point():
    # the start Y0 is e_p e_p^T at the best coordinate direction, and the
    # first relative change is ||X_1 - Y0||_F / ||Y0||_F with ||Y0||_F = 1
    F = random_gaussian(4, 4, 2)
    best = max(range(4), key=lambda i: F[(i,) * 4])
    p = int(np.ravel_multi_index((best, best), (4, 4)))
    Y0 = np.zeros((16, 16))
    Y0[p, p] = 1.0
    report = solve_sdp(F, SolverConfig(max_iter=1))
    assert report.rel_change == float(np.linalg.norm(report.X - Y0))


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("n, d", [(1, 2), (3, 1), (4, 2), (4, 3), (2, 4)])
def test_moment_solve_equals_dense_solve(n, d, method):
    # the same relaxation run on n**d x n**d matrices with the dense
    # projection: B is an isometry, so only float noise may differ
    F = random_gaussian(n, 2 * d, 11)
    best = max(range(n), key=lambda i: F[(i,) * (2 * d)])
    p = int(np.ravel_multi_index((best,) * d, (n,) * d))
    Y0 = np.zeros((n ** d, n ** d))
    Y0[p, p] = 1.0
    cfg = SolverConfig()
    dense = _recover_symmetric(F, solve(
        Relaxation(matr(F), lambda Z: project_C(Z, n, d), Y0), method, cfg))
    report = {"sdp": solve_sdp, "nnp": solve_nnp}[method](F, cfg)
    assert report.rank_one == dense.rank_one
    assert report.values.shape == (math.comb(n + 2 * d - 1, 2 * d),)
    assert report.X.shape == dense.X.shape
    assert report.extracted_lambda == pytest.approx(dense.extracted_lambda,
                                                    rel=1e-12)
    if method == "sdp":
        assert report.iterations == dense.iterations
        assert float(np.linalg.norm(report.X - dense.X)) <= 1e-10
    else:
        # the accelerated path depends on rounding (the safeguard compares
        # two residuals that can tie), so the two runs may take different
        # paths to the same solution
        assert float(np.linalg.norm(report.X - dense.X)) <= 10 * cfg.tol


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("n, d", [(3, 2), (4, 2), (2, 3)])
def test_plain_step_in_moment_coordinates_is_the_dense_step(n, d, method):
    # the first step of run_admm is always the plain one, and two
    # iterations return the X and Y it produced: in moment coordinates
    # they are the dense ones compressed by B
    F = random_gaussian(n, 2 * d, 5)
    _, counts = _class_keys(n, d)
    cid = _class_map(n, d)
    B = np.zeros((n ** d, len(counts)))
    B[np.arange(n ** d), cid] = 1.0 / np.sqrt(counts[cid])
    moment = _symmetric_relaxation(F)
    Y0 = B @ moment.start @ B.T
    cfg = SolverConfig(max_iter=2)
    prox = {"sdp": project_psd,
            "nnp": lambda Q: shrink_nuclear(Q, cfg.mu * cfg.rho)}[method]
    X, Y, iterations, _, _, _, _ = run_admm(
        moment.project, prox, moment.C, moment.start, cfg)
    X_dense, Y_dense, _, _, _, _, _ = run_admm(
        lambda Z: project_C(Z, n, d), prox, matr(F), Y0, cfg)
    assert iterations == 2
    assert np.max(np.abs(X - B.T @ X_dense @ B)) <= 1e-12
    assert np.max(np.abs(Y - B.T @ Y_dense @ B)) <= 1e-12


@pytest.mark.parametrize("n, method, trial, plain_iterations",
                         [(4, "sdp", 15, 798), (4, "sdp", 21, 638),
                          (5, "nnp", 27, 620)])
def test_safeguard_keeps_hard_instances_converging(n, method, trial,
                                                   plain_iterations):
    # criterion-02 instances among the slowest under acceleration;
    # plain_iterations is the unaccelerated loop's count
    F = random_gaussian(n, 4, 1000 * n + trial)
    report = {"sdp": solve_sdp, "nnp": solve_nnp}[method](F)
    assert report.termination == "converged"
    assert report.rank_one
    assert report.iterations <= 2 * plain_iterations


@pytest.mark.parametrize("solve", [solve_nnp, solve_sdp])
def test_acceleration_keeps_the_start_symmetry(solve):
    # the reflection x2 -> -x2 swaps the peaks (e1 +- e2)/sqrt(2) and fixes
    # the start; extrapolating symmetric iterates keeps them symmetric, so
    # the solve stays on the rank-two face between the peaks
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    report = solve(rank_one(1.0, u, 4) + rank_one(1.0, v, 4))
    assert report.termination == "converged"
    assert report.rank_one_ratio > 1e-6


def test_penalty_bound_holds_at_termination():
    # the penalized objective at the solution dominates the best coordinate
    # direction minus the penalty
    for seed in range(5):
        F = random_gaussian(5, 4, seed)
        cfg = SolverConfig()
        report = solve_nnp(F, cfg)
        best_diag = max(F[(i,) * 4] for i in range(5))
        lhs = report.objective - cfg.rho * report.nuclear_norm
        assert lhs >= best_diag - cfg.rho - 1e-6
