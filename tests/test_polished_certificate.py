"""The dual bound corrected at a polished rank-one read-out.

At each gap check `admm.solve` adds to the multiplier Z the least-norm
correction D in L-perp that makes the read-out's rank-one point u an
eigenvector of C + S, and bounds by min(bound at Z, bound at Z + D).  The
bound re-projects onto L-perp, so for any u and any multiplier it lies
above the form's maximum; at the maximum of a tight relaxation it equals
the value up to rounding.  The oracle that checks it (`multistart_local`)
shares no code with the solve path.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorpca import (SolverConfig, main, multistart_local, random_gaussian,
                       random_partial_symmetric, solve_biquadratic,
                       solve_leading_pc, symmetrize, write_tensor)
from tensorpca.admm import (Relaxation, _checked_bound, _correction,
                            _multiplier, _symmetric_relaxation, certifies,
                            closes_gap, newton_refine, polish_biquadratic,
                            solve)
from tensorpca.extensions import biquadratic_form
from tensorpca.matricize import matr_partial
from tensorpca.projection import (moment_point, partial_normal,
                                  project_partial_C)
from tensorpca.tensors import eval_homogeneous


def unit(v):
    return v / np.linalg.norm(v)


def partial_relaxation(G):
    # the one-block bi-quadratic relaxation as `solve_biquadratic` builds it
    n, m = G.shape[:2]
    Gm = matr_partial(G)
    Y0 = np.zeros_like(Gm)
    Y0[0, 0] = 1.0
    return Relaxation(Gm, lambda Z: project_partial_C(Z, (n, m)), Y0,
                      normal=lambda u: partial_normal(u, (n, m)))


def shifted_partial(n, m, seed):
    # G + 2 ||G|| E, E[i, j, k, l] = delta_ik delta_jl: the form plus 2 ||G||
    # on the unit spheres, so its maximum is at least ||G|| > 0
    G = random_partial_symmetric(n, m, seed)
    E = np.einsum("ik,jl->ijkl", np.eye(n), np.eye(m))
    return G + 2.0 * np.linalg.norm(G) * E


def partial_oracle(G):
    # G(x, y, x, y) = H(z, z, z, z) for z = (x; y), H holding G in its
    # (x, y, x, y) block.  Over unit z = (a x; b y) that is a^2 b^2 G(x, y,
    # x, y), so a positive maximum of G is 4 max H over the unit sphere
    n, m = G.shape[:2]
    H = np.zeros((n + m,) * 4)
    H[:n, n:, :n, n:] = G
    result = multistart_local(symmetrize(H), 10, 0)
    z = result.argmax
    return 4.0 * result.value, unit(z[:n]), unit(z[n:])


def any_multiplier(rng, C, scale):
    Z = rng.standard_normal(C.shape)
    return scale * np.linalg.norm(C) * (Z + Z.T)


@st.composite
def symmetric_case(draw):
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    scale = draw(st.sampled_from((0.0, 1e-2, 1.0, 1e2)))
    return n, seed, scale, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(symmetric_case())
def test_corrected_bound_is_above_the_oracle_for_symmetric_forms(case):
    n, seed, scale, at_oracle = case
    F = random_gaussian(n, 4, seed)
    oracle = multistart_local(F, 10, 0)
    rng = np.random.default_rng(seed)
    problem = _symmetric_relaxation(F)
    zero = problem.project(np.zeros_like(problem.C))
    X = problem.project(any_multiplier(rng, problem.C, 1.0))
    x = (newton_refine(F, oracle.argmax) if at_oracle
         else unit(rng.standard_normal(n)))
    bound = _checked_bound(problem, X, any_multiplier(rng, problem.C, scale),
                           moment_point(x, n, 2), zero)
    assert bound >= oracle.value - 1e-9 * max(abs(oracle.value), abs(bound))


@st.composite
def partial_case(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 16))
    scale = draw(st.sampled_from((0.0, 1e-2, 1.0, 1e2)))
    return n, m, seed, scale, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(partial_case())
def test_corrected_bound_is_above_the_oracle_for_partial_forms(case):
    n, m, seed, scale, at_oracle = case
    G = shifted_partial(n, m, seed)
    lower, x, y = partial_oracle(G)
    rng = np.random.default_rng(seed)
    problem = partial_relaxation(G)
    zero = problem.project(np.zeros_like(problem.C))
    X = problem.project(any_multiplier(rng, problem.C, 1.0))
    if at_oracle:
        x, y, _ = polish_biquadratic(G, x, y)
    else:
        x, y = unit(rng.standard_normal(n)), unit(rng.standard_normal(m))
    bound = _checked_bound(problem, X, any_multiplier(rng, problem.C, scale),
                           np.kron(x, y), zero)
    assert bound >= lower - 1e-9 * max(abs(lower), abs(bound))


def symmetric_point(n, seed):
    F = random_gaussian(n, 4, seed)
    x = newton_refine(F, multistart_local(F, 10, 0).argmax)
    return _symmetric_relaxation(F), moment_point(x, n, 2)


def partial_point(n, m, seed):
    G = random_partial_symmetric(n, m, seed)
    _, x, y = partial_oracle(shifted_partial(n, m, seed))
    x, y, _ = polish_biquadratic(G, x, y)
    return partial_relaxation(G), np.kron(x, y)


POINTS = [lambda: symmetric_point(3, 0), lambda: symmetric_point(4, 5),
          lambda: partial_point(3, 3, 1), lambda: partial_point(2, 3, 4)]
POINT_IDS = ["symmetric-3", "symmetric-4", "partial-3x3", "partial-2x3"]


@pytest.mark.parametrize("make", POINTS, ids=POINT_IDS)
def test_closed_form_normal_is_the_projection_applied_column_by_column(make):
    problem, u = make()
    zero = problem.project(np.zeros_like(problem.C))
    columns = []
    for e in np.eye(len(u)):
        M = 0.5 * (np.outer(e, u) + np.outer(u, e))
        columns.append((M - (problem.project(M) - zero)) @ u)
    np.testing.assert_allclose(problem.normal(u), np.array(columns).T,
                               atol=1e-14)


@pytest.mark.parametrize("make", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize("scale", [1e-2, 1.0, 10.0])
def test_corrected_multiplier_lies_in_the_complement_of_L(make, scale):
    problem, u = make()
    C = problem.C
    zero = problem.project(np.zeros_like(C))
    Z = any_multiplier(np.random.default_rng(1), C, scale)
    S0 = _multiplier(problem, Z, zero)
    M = _correction(problem, S0, u)
    assert M is not None
    D = M - (problem.project(M) - zero)
    for S in (D, _multiplier(problem, Z + M, zero)):
        assert (np.linalg.norm(problem.project(S) - zero)
                <= 1e-12 * np.linalg.norm(S))
    # and u, a KKT point of the form, is an eigenvector of C + S0 + D
    r = (C + S0 + D) @ u
    assert (np.linalg.norm(r - (u @ r) * u)
            <= 1e-9 * (np.linalg.norm(C) + np.linalg.norm(S0)))


def local_points(F, starts=60):
    # KKT points of F on the sphere that Newton steps reach from seeded
    # random starts: (value, x) with a gradient residual at rounding
    rng = np.random.default_rng(0)
    points = []
    t = F.to_dense()
    for _ in range(starts):
        x = newton_refine(F, unit(rng.standard_normal(F.n)))
        g = np.tensordot(np.tensordot(np.tensordot(t, x, 1), x, 1), x, 1)
        value = float(g @ x)
        if np.linalg.norm(g - value * x) <= 1e-10 * np.linalg.norm(t):
            points.append((value, x))
    return points


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("seed", [1, 3, 5])
def test_the_gap_never_closes_at_a_non_global_kkt_point(method, seed):
    # seed 3 has a local maximum 5% below the global one
    F = random_gaussian(3, 4, seed)
    best = multistart_local(F, 20, 0).value
    local = [(v, x) for v, x in local_points(F) if v < best - 1e-3]
    assert local, "no non-global KKT point found"
    value, x = min(local, key=lambda p: abs(p[0] - best))
    u = moment_point(x, 3, 2)
    checks = []

    def stuck(X, v):
        checks.append(X)
        return value, u

    report = solve(_symmetric_relaxation(F), method, SolverConfig(), stuck)
    assert checks and report.termination == "converged"
    assert report.bound >= best - 1e-9 * abs(best)


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_the_partial_gap_never_closes_at_a_non_global_kkt_point(method):
    G = random_partial_symmetric(3, 3, 2)
    best, _, _ = partial_oracle(shifted_partial(3, 3, 2))
    best -= 2.0 * np.linalg.norm(G)
    rng = np.random.default_rng(0)
    local = []
    for _ in range(60):
        x, y, value = polish_biquadratic(G, unit(rng.standard_normal(3)),
                                         unit(rng.standard_normal(3)))
        if value < best - 1e-3:
            local.append((value, x, y))
    assert local, "no non-global KKT point found"
    value, x, y = max(local, key=lambda p: p[0])
    report = solve(partial_relaxation(G), method, SolverConfig(),
                   lambda X, v: (value, np.kron(x, y)))
    assert report.termination == "converged"


def test_a_large_norm_nnp_solve_certifies_only_the_unit_scale_value():
    F = random_gaussian(5, 4, 3)
    unit_pc, _ = solve_leading_pc(F, "sdp")
    assert unit_pc.certified
    for method in ("sdp", "nnp"):
        pc, report = solve_leading_pc(1e3 * F, method)
        if pc.certified:
            assert pc.lambda_star / 1e3 == pytest.approx(unit_pc.lambda_star,
                                                         rel=1e-8)


def test_a_bound_below_the_value_closes_nothing():
    assert closes_gap(1.0, 1.0 - 1e-7, 1e-6)
    assert closes_gap(1.0, 1.0 + 1e-13, 1e-6)  # rounding
    assert not closes_gap(1.0, 1.0 + 1e-9, 1e-6)
    assert not closes_gap(-1.0, -0.5, 1e-6)
    assert not closes_gap(float("nan"), 1.0, 1e-6)
    # a gap-stopped report with its bound forged below its value
    F = random_gaussian(6, 4, 0)
    pc, report = solve_leading_pc(F, "sdp")
    assert report.termination == "gap" and certifies(report, 1e-6)
    low = report.extracted_lambda - 1e-9 * abs(report.extracted_lambda)
    assert not certifies(replace(report, bound=low), 1e-6)


def files():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    tied = sum(np.einsum("i,j,k,l->ijkl", *[q[:, j]] * 4) for j in range(2))
    yield "super_symmetric", symmetrize(tied)
    yield "super_symmetric", symmetrize(rng.standard_normal((5, 5, 5)))
    yield "general", rng.standard_normal((4, 4, 4))
    yield "general", rng.standard_normal((3, 3, 3, 3))
    yield "partial_symmetric", random_partial_symmetric(4, 6, 1)


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_every_certified_cli_solve_lies_just_below_its_bound(tmp_path,
                                                            capsys, method):
    for k, (kind, data) in enumerate(files()):
        path = str(tmp_path / f"{k}.tensor")
        write_tensor(path, data, kind)
        code = main(["solve", path, "--json", "--method", method])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["certified"], (kind, out["termination"])
        lam, bound = out["lambda"], out["bound"]
        assert bound * (1 - 1e-6) <= lam <= bound * (1 + 1e-12), kind


def test_a_gap_stop_returns_its_polished_read_out():
    # the symmetric and one-block routes stop at a KKT point of the form
    F = random_gaussian(5, 4, 1)
    pc, report = solve_leading_pc(F, "sdp")
    assert report.termination == "gap"
    assert pc.lambda_star == eval_homogeneous(F, pc.x_star)
    assert eval_homogeneous(F, newton_refine(F, pc.x_star)) == pytest.approx(
        pc.lambda_star, rel=1e-14)
    G = random_partial_symmetric(4, 6, 2)
    comp, report = solve_biquadratic(G, "sdp", stop_on_gap=True)
    assert report.termination == "gap" and comp.certified
    x, y, value = polish_biquadratic(G, comp.x_star, comp.y_star)
    assert value == pytest.approx(comp.lambda_star, rel=1e-14)
    assert comp.lambda_star == biquadratic_form(G, comp.x_star, comp.y_star)
