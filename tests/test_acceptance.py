"""End-to-end acceptance gate.

Ten numbered claims about the shipped behaviour, one test each, with the
tolerances pinned in the assertions.  The quartic sweep and the worked
examples are computed once per module and shared by the criteria that
inspect the same solves.
"""

import statistics

import numpy as np
import pytest

from tensorpca import (demo_quartic, poly_quartic, DEMO_QUARTIC_X,
                       POLY_QUARTIC_X, solve_leading_pc, solve_nnp, solve_sdp,
                       solve_biquadratic, sphere_grid_max, multistart_local,
                       kkt_project, project_C, matr, matr_inv, vect_inv,
                       mode_n_unfold, is_super_symmetric, rank_one,
                       rank_one_ratio, random_gaussian, random_uniform,
                       random_partial_symmetric, eval_multilinear,
                       eval_homogeneous, odd_to_even, square_last_mode,
                       stack_multilinear, SuperSymmetricTensor)

RANK_TOL = 1e-6
RHO = 10.0


def pool_map(fn, tasks):
    return list(map(fn, tasks))


def component_error(x, reference):
    x = np.asarray(x)
    return min(float(np.max(np.abs(x - reference))),
               float(np.max(np.abs(x + reference))))


@pytest.fixture(scope="module")
def worked_reports():
    reports = {}
    for name, F in (("demo", demo_quartic()), ("poly", poly_quartic())):
        for method in ("nnp", "sdp"):
            solver = solve_nnp if method == "nnp" else solve_sdp
            reports[name, method] = (F, solver(F))
    return reports


@pytest.fixture(scope="module")
def quartic_sweep():
    """100 seeded Gaussian quartic instances per n in 3..6, both solvers."""
    tasks = [(n, method, trial)
             for n in (3, 4, 5, 6)
             for method in ("nnp", "sdp")
             for trial in range(100)]

    def run(task):
        n, method, trial = task
        F = random_gaussian(n, 4, 1000 * n + trial)
        solver = solve_nnp if method == "nnp" else solve_sdp
        report = solver(F)
        return {
            "n": n,
            "method": method,
            "certified": report.rank_one_ratio <= RANK_TOL,
            "iterations": report.iterations,
            "termination": report.termination,
            "objective": report.objective,
            "nuclear_norm": report.nuclear_norm,
            "max_diag": max(F[(i,) * 4] for i in range(n)),
        }

    return pool_map(run, tasks)


def test_criterion_01_worked_examples_recover_reference(worked_reports):
    references = {"demo": DEMO_QUARTIC_X, "poly": POLY_QUARTIC_X}
    for (name, method), (F, report) in worked_reports.items():
        assert report.rank_one_ratio <= RANK_TOL, (name, method)
        assert component_error(report.extracted_x, references[name]) <= 1e-3, \
            (name, method)


def test_criterion_02_rank_one_frequency_per_size(quartic_sweep):
    for n in (3, 4, 5, 6):
        for method in ("nnp", "sdp"):
            cell = [r for r in quartic_sweep
                    if r["n"] == n and r["method"] == method]
            assert len(cell) == 100
            certified = sum(r["certified"] for r in cell)
            assert certified >= 95, (n, method, certified)


def test_criterion_03_penalized_and_sdp_solutions_agree():
    def run(task):
        n, trial = task
        F = random_gaussian(n, 4, 2000 + 100 * n + trial)
        nnp = solve_nnp(F)
        sdp = solve_sdp(F)
        gap = abs(nnp.objective - sdp.objective)
        rel = (np.linalg.norm(nnp.X - sdp.X)
               / np.linalg.norm(sdp.X))
        return gap, float(rel)

    results = pool_map(run, [(n, t) for n in (6, 7) for t in range(10)])
    assert len(results) == 20
    for gap, rel in results:
        assert gap <= 1e-3
        assert rel <= 1e-2


def test_criterion_04_certified_objectives_match_grid_oracle():
    checked = 0
    for n in (2, 3):
        for trial in range(25):
            F = random_gaussian(n, 4, 3000 + 100 * n + trial)
            report = solve_sdp(F)
            if report.rank_one_ratio > RANK_TOL:
                continue
            checked += 1
            oracle = sphere_grid_max(F)
            assert abs(report.objective - oracle.value) <= 1e-3, (n, trial)
    # the comparison must not pass vacuously
    assert checked >= 45


def test_criterion_05_projection_matches_kkt_reference():
    Z = np.zeros((4, 4))
    Z[0, 0] = 2.0
    np.testing.assert_allclose(project_C(Z, 2, 2), kkt_project(Z, 2, 2),
                               atol=1e-8)

    rng = np.random.default_rng(4000)
    for n in (2, 3):
        for _ in range(50):
            Z = rng.standard_normal((n * n, n * n))
            Z = 0.5 * (Z + Z.T)
            X = project_C(Z, n, 2)
            np.testing.assert_allclose(X, kkt_project(Z, n, 2), atol=1e-8)
            assert abs(float(np.trace(X)) - 1.0) <= 1e-12
            symmetric, violation = is_super_symmetric(matr_inv(X, n, 2),
                                                      tol=1e-12)
            assert symmetric, violation


def test_criterion_06_rank_one_tensors_matricize_to_rank_one():
    rng = np.random.default_rng(5000)
    cases = [(n, 2) for n in (2, 3, 4, 5, 6) for _ in range(32)] \
        + [(n, 3) for n in (2, 3) for _ in range(20)]
    assert len(cases) == 200
    for n, d in cases:
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        lam = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        F = rank_one(lam, x, 2 * d)
        ratio, (top, v) = rank_one_ratio(matr(F))
        assert ratio <= 1e-10
        # rebuild the tensor from the leading eigenpair alone
        factor = vect_inv(v, (n,) * d)
        u, s, vt = np.linalg.svd(mode_n_unfold(factor, 0))
        rebuilt = rank_one(top, u[:, 0], 2 * d)
        assert np.max(np.abs(rebuilt.to_dense() - F.to_dense())) <= 1e-8


def close_rel(lhs, rhs, tol=1e-10):
    return abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))


def test_criterion_07_reduction_identities_hold_on_probes():
    rng = np.random.default_rng(6000)

    F3 = rng.standard_normal((3, 4, 5))
    G3 = square_last_mode(F3)
    for _ in range(100):
        x, y = rng.standard_normal(3), rng.standard_normal(4)
        lhs = eval_multilinear(G3, [x, y, x, y])
        rhs = float(np.linalg.norm(np.einsum("ijk,i,j->k", F3, x, y))) ** 2
        assert close_rel(lhs, rhs)

    for dims in [(2, 3), (2, 3, 4, 2), (2, 1, 2, 1, 2, 1)]:
        F = rng.standard_normal(dims)
        T = stack_multilinear(F)
        d = len(dims) // 2
        for _ in range(100):
            xs = [rng.standard_normal(k) for k in dims]
            us = [np.concatenate([xs[k], xs[k + d]]) for k in range(d)]
            assert close_rel(eval_multilinear(T, us + us),
                             eval_multilinear(F, xs))

    for n, m in [(3, 3), (2, 5)]:
        F = random_gaussian(n, m, 6001)
        G = odd_to_even(F)
        dense = F.to_dense()
        for _ in range(100):
            x = rng.standard_normal(n)
            contracted = dense
            for _ in range(m - 1):
                contracted = np.tensordot(contracted, x, axes=([0], [0]))
            assert close_rel(eval_homogeneous(G, x),
                             float(contracted @ contracted))


def test_criterion_08_biquadratic_rank_one_frequency():
    def run(task):
        n, m, trial = task
        G = random_partial_symmetric(n, m, 7000 + trial)
        _, report = solve_biquadratic(G)
        return (n, m), report.rank_one

    tasks = [(n, m, t) for n, m in ((4, 4), (4, 6)) for t in range(100)]
    results = pool_map(run, tasks)
    for size in ((4, 4), (4, 6)):
        certified = sum(flag for key, flag in results if key == size)
        assert certified >= 95, (size, certified)


def test_criterion_09_third_order_pipeline_attains_oracle():
    def run(task):
        maker, trial = task
        F = maker(4, 3, 8000 + trial)
        pc, _ = solve_leading_pc(F, "sdp")
        lifted = multistart_local(odd_to_even(F), restarts=20, seed=0)
        oracle = float(np.sqrt(max(lifted.value, 0.0)))
        return maker is random_gaussian, pc.lambda_star >= oracle - 1e-3

    tasks = [(random_gaussian, t) for t in range(100)] \
        + [(random_uniform, t) for t in range(100)]
    results = pool_map(run, tasks)
    for family in (True, False):
        attained = sum(ok for flag, ok in results if flag is family)
        assert attained >= 98, (family, attained)


def test_criterion_10_stopping_rule_and_penalty_bound(worked_reports,
                                                      quartic_sweep):
    for (name, method), (F, report) in worked_reports.items():
        assert report.termination == "converged", (name, method)
        if method == "nnp":
            bound = max(F[(i,) * 4] for i in range(F.n)) - RHO - 1e-6
            assert report.objective - RHO * report.nuclear_norm >= bound

    for record in quartic_sweep:
        assert record["termination"] == "converged", record
        if record["method"] == "nnp":
            bound = record["max_diag"] - RHO - 1e-6
            slack = record["objective"] - RHO * record["nuclear_norm"]
            assert slack >= bound, record

    iterations = [r["iterations"] for r in quartic_sweep]
    assert max(iterations) < 20_000
    assert 50 <= statistics.median(iterations) <= 5_000
