import itertools

import numpy as np
import pytest

from tensorpca import (partial_symmetrize, is_partial_symmetric,
                       random_partial_symmetric, solve_biquadratic,
                       square_last_mode, stack_multilinear,
                       odd_to_even, solve_multilinear,
                       solve_leading_pc, eval_multilinear, eval_homogeneous,
                       random_gaussian, rank_one, SolverConfig, matr_partial)
from tensorpca.extensions import _mbi_biquadratic, biquadratic_form


def unit(x):
    return np.asarray(x, dtype=float) / np.linalg.norm(x)


def circle(resolution):
    theta = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def sphere(resolution):
    theta = np.linspace(0.0, np.pi, resolution)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * resolution, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return np.column_stack([(np.sin(tt) * np.cos(pp)).ravel(),
                            (np.sin(tt) * np.sin(pp)).ravel(),
                            np.cos(tt).ravel()])


def test_partial_symmetrize_orbit_and_fixed_points():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 3, 4))
    G = partial_symmetrize(t)
    ok, violation = is_partial_symmetric(G, tol=0.0)
    assert ok and violation == 0.0
    np.testing.assert_array_equal(partial_symmetrize(G), G)
    # entry = mean of its 4-element orbit
    for idx in [(0, 1, 2, 3), (1, 0, 1, 0), (2, 2, 0, 1)]:
        i, j, k, l = idx
        orbit = [t[i, j, k, l], t[k, j, i, l], t[i, l, k, j], t[k, l, i, j]]
        assert G[idx] == pytest.approx(np.mean(orbit), rel=1e-14)
    flag, violation = is_partial_symmetric(t)
    assert not flag and violation > 0.1


def test_random_partial_symmetric_is_seeded():
    A = random_partial_symmetric(3, 4, 5)
    B = random_partial_symmetric(3, 4, 5)
    np.testing.assert_array_equal(A, B)
    assert is_partial_symmetric(A, tol=0.0)[0]


def test_square_last_mode_trivial_case():
    F = np.zeros((1, 1, 2))
    F[0, 0, 0], F[0, 0, 1] = 3.0, 4.0
    G = square_last_mode(F)
    assert G.shape == (1, 1, 1, 1)
    assert G[0, 0, 0, 0] == pytest.approx(25.0)


@pytest.mark.parametrize("shape", [(3, 4, 5), (3, 4, 2, 3, 5)],
                         ids=["order-3", "order-5"])
def test_square_last_mode_identity_on_probes(shape):
    rng = np.random.default_rng(1)
    F = rng.standard_normal(shape)
    G = square_last_mode(F)
    assert G.shape == shape[:-1] * 2
    assert is_partial_symmetric(G, tol=1e-12)[0]
    for _ in range(100):
        xs = [rng.standard_normal(n) for n in shape[:-1]]
        lhs = eval_multilinear(G, xs + xs)
        contracted = F
        for x in xs:
            contracted = np.tensordot(x, contracted, axes=([0], [0]))
        rhs = float(contracted @ contracted)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("dims", [(3, 4, 2), (2, 3, 2, 3, 2)],
                         ids=["order-3", "order-5"])
def test_odd_order_rank_one(dims):
    rng = np.random.default_rng(2)
    factors = [rng.standard_normal(n) for n in dims]
    F = factors[0]
    for factor in factors[1:]:
        F = np.multiply.outer(F, factor)
    comp, _ = solve_multilinear(F)
    assert comp.certified
    expected = float(np.prod([np.linalg.norm(f) for f in factors]))
    assert comp.lambda_star == pytest.approx(expected, rel=1e-6)
    for block, factor in zip(comp.xs, factors):
        assert abs(abs(float(block @ unit(factor))) - 1.0) < 1e-6


def test_trilinear_matches_grid_oracle():
    # eliminate y and z: the optimum is max over unit x of the top singular
    # value of the once-contracted matrix; grid the 2-sphere, then polish by
    # alternating exact block maximizations
    rng = np.random.default_rng(3)
    F = rng.standard_normal((3, 3, 3))
    points = sphere(90)
    slices = np.einsum("ijk,pi->pjk", F, points)
    s = np.linalg.svd(slices, compute_uv=False)[:, 0]
    x = points[int(np.argmax(s))]
    value = float(np.max(s))
    for _ in range(200):
        u, sv, vt = np.linalg.svd(np.einsum("ijk,i->jk", F, x))
        y, z = u[:, 0], vt[0]
        g = np.einsum("ijk,j,k->i", F, y, z)
        x = g / np.linalg.norm(g)
        new = float(np.einsum("ijk,i,j,k->", F, x, y, z))
        if abs(new) - value <= 1e-14:
            break
        value = abs(new)
    comp, _ = solve_multilinear(F)
    assert comp.lambda_star == pytest.approx(value, abs=1e-3)


def test_quadrilinear_identity_and_support():
    rng = np.random.default_rng(4)
    F = rng.standard_normal((2, 3, 4, 2))
    T = stack_multilinear(F)
    assert T.shape == (6, 5, 6, 5)
    assert is_partial_symmetric(T, tol=1e-12)[0]
    for _ in range(100):
        x1, x2 = rng.standard_normal(2), rng.standard_normal(3)
        x3, x4 = rng.standard_normal(4), rng.standard_normal(2)
        w = np.concatenate([x1, x3])
        v = np.concatenate([x2, x4])
        lhs = eval_multilinear(T, [w, v, w, v])
        rhs = eval_multilinear(F, [x1, x2, x3, x4])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    # within-block pairs contribute nothing
    w = np.concatenate([rng.standard_normal(2), np.zeros(4)])
    v = rng.standard_normal(5)
    assert eval_multilinear(T, [w, v, w, v]) == pytest.approx(0.0, abs=1e-12)


def test_quadrilinear_scalar_and_rank_one():
    F = np.full((1, 1, 1, 1), -2.5)
    comp, _ = solve_multilinear(F)
    assert comp.lambda_star == pytest.approx(2.5, rel=1e-6)

    rng = np.random.default_rng(5)
    factors = [rng.standard_normal(k) for k in (2, 3, 2, 3)]
    F = np.einsum("i,j,k,l->ijkl", *factors)
    comp, _ = solve_multilinear(F)
    expected = float(np.prod([np.linalg.norm(f) for f in factors]))
    assert comp.lambda_star == pytest.approx(expected, rel=1e-5)
    for block, factor in zip(comp.xs, factors):
        assert abs(abs(float(block @ unit(factor))) - 1.0) < 1e-5


def test_quadrilinear_matches_angle_grid():
    rng = np.random.default_rng(6)
    F = rng.standard_normal((2, 2, 2, 2))
    pts = circle(40)
    grid = np.einsum("ijkl,ai,bj,ck,dl->abcd", F, pts, pts, pts, pts)
    best = np.unravel_index(int(np.argmax(grid)), grid.shape)
    xs = [pts[i] for i in best]
    for _ in range(500):
        previous = eval_multilinear(F, xs)
        for mode in range(4):
            others = [xs[k] for k in range(4) if k != mode]
            g = np.moveaxis(F, mode, 0)
            for other in reversed(others):
                g = np.tensordot(g, other, axes=([g.ndim - 1], [0]))
            xs[mode] = g / np.linalg.norm(g)
        if eval_multilinear(F, xs) - previous <= 1e-14:
            break
    value = eval_multilinear(F, xs)
    comp, _ = solve_multilinear(F)
    assert comp.lambda_star == pytest.approx(value, abs=1e-2)


def test_multilinear_matrix_case_matches_svd():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((3, 4))
    comp, _ = solve_multilinear(A)
    assert comp.certified
    u, s, vt = np.linalg.svd(A)
    assert comp.lambda_star == pytest.approx(float(s[0]), rel=1e-6)
    assert abs(abs(float(comp.xs[0] @ u[:, 0])) - 1.0) < 1e-5
    assert abs(abs(float(comp.xs[1] @ vt[0])) - 1.0) < 1e-5


def ascent_oracle(F, starts=20, seed=0, tol=1e-14, max_sweeps=2000):
    # the best of alternating exact block maximizations from random unit
    # starts: each block in turn becomes F contracted with the others,
    # normalized, and the form's value is that contraction's norm
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(starts):
        xs = [unit(rng.standard_normal(n)) for n in F.shape]
        value = -np.inf
        for _ in range(max_sweeps):
            previous = value
            for mode in range(F.ndim):
                g = np.moveaxis(F, mode, 0)
                for x in reversed(xs[:mode] + xs[mode + 1:]):
                    g = g @ x
                xs[mode] = unit(g)
            value = float(np.linalg.norm(g))
            if value - previous <= tol * value:
                break
        best = max(best, value)
    return best


@pytest.mark.parametrize("shape", [(3, 3, 3, 3, 3), (2, 3, 2, 3, 4)])
def test_order_five_sdp_certificates_match_an_ascent_oracle(shape):
    for s in range(20):
        F = np.random.default_rng(s).standard_normal(shape)
        comp, _ = solve_multilinear(F, "sdp")
        oracle = ascent_oracle(F)
        assert comp.certified, s
        assert comp.lambda_star == pytest.approx(eval_multilinear(F, comp.xs),
                                                 rel=1e-12)
        assert comp.lambda_star >= oracle * (1.0 - 1e-10), s
        assert comp.bound >= oracle * (1.0 - 1e-12), s


@pytest.mark.parametrize("shape, rows", [((2049, 1, 2), 2049), ((2049, 1), 2050)],
                         ids=["squared", "stacked"])
def test_multilinear_refuses_a_relaxation_above_the_row_limit(shape, rows):
    with pytest.raises(ValueError, match=f"N = {rows} rows, above the limit 2048"):
        solve_multilinear(np.ones(shape))


def test_stack_multilinear_input_checks():
    with pytest.raises(ValueError, match="even order"):
        stack_multilinear(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="even order"):
        solve_leading_pc(np.zeros(()))
    with pytest.raises(ValueError, match="odd order"):
        square_last_mode(np.zeros((2, 2, 2, 2)))


def test_odd_to_even_trivial_and_rank_one():
    F = rank_one(2.0, np.ones(1), 3)
    G = odd_to_even(F)
    assert G.m == 4 and G[0, 0, 0, 0] == pytest.approx(4.0)

    rng = np.random.default_rng(11)
    a = unit(rng.standard_normal(3))
    pc, _ = solve_leading_pc(rank_one(1.0, a, 3), "sdp")
    assert pc.lambda_star == pytest.approx(1.0, abs=1e-5)
    assert min(np.max(np.abs(pc.x_star - a)), np.max(np.abs(pc.x_star + a))) < 1e-3
    with pytest.raises(ValueError):
        odd_to_even(random_gaussian(2, 4, 0))


def test_order_one_is_refused_with_its_order():
    # squaring an order-1 form would give order 0, which no solver takes
    F = random_gaussian(3, 1, 0)
    with pytest.raises(ValueError, match="order 1"):
        odd_to_even(F)
    with pytest.raises(ValueError, match="order 1"):
        solve_leading_pc(F)
    with pytest.raises(ValueError, match="order 1"):
        square_last_mode(np.ones(3))
    with pytest.raises(ValueError, match="order 1"):
        solve_leading_pc(np.ones(3))


def test_odd_to_even_identity_on_probes():
    rng = np.random.default_rng(12)
    for n, m in [(3, 3), (2, 5)]:
        F = random_gaussian(n, m, 13)
        G = odd_to_even(F)
        assert G.m == 2 * (m - 1)
        dense = F.to_dense()
        for _ in range(100):
            x = rng.standard_normal(n)
            contracted = dense
            for _ in range(m - 1):
                contracted = np.tensordot(contracted, x, axes=([0], [0]))
            rhs = float(contracted @ contracted)
            assert eval_homogeneous(G, x) == pytest.approx(rhs, rel=1e-10)


def test_solve_biquadratic_rank_one():
    rng = np.random.default_rng(14)
    a, b = unit(rng.standard_normal(3)), unit(rng.standard_normal(4))
    G = np.einsum("i,j,k,l->ijkl", a, b, a, b)
    comp, report = solve_biquadratic(G)
    assert comp.certified
    assert comp.lambda_star == pytest.approx(1.0, abs=1e-6)
    assert abs(abs(float(comp.x_star @ a)) - 1.0) < 1e-5
    assert abs(abs(float(comp.y_star @ b)) - 1.0) < 1e-5
    assert report.termination == "converged"


def test_solve_biquadratic_matches_two_angle_grid():
    for seed in range(3):
        G = random_partial_symmetric(2, 2, seed)
        X = circle(720)
        vals = np.einsum("ijkl,pi,pk,qj,ql->pq", G, X, X, X, X)
        comp, _ = solve_biquadratic(G)
        assert comp.lambda_star == pytest.approx(float(np.max(vals)), abs=1e-3)


def test_solve_biquadratic_report_consistency():
    G = random_partial_symmetric(3, 4, 21)
    comp, report = solve_biquadratic(G)
    assert comp.certified
    assert np.linalg.norm(comp.x_star) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(comp.y_star) == pytest.approx(1.0, abs=1e-12)
    assert comp.lambda_star == pytest.approx(
        eval_multilinear(G, [comp.x_star, comp.y_star, comp.x_star, comp.y_star]),
        abs=1e-12)
    # at the stopping tolerance the relaxation objective and the attained
    # value agree to a few digits beyond the extraction tolerance
    assert report.objective == pytest.approx(comp.lambda_star, abs=1e-4)
    assert float(np.trace(report.X)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("s", [1e-3, 1e3])
def test_biquadratic_ascent_is_scale_invariant(s):
    rng = np.random.default_rng(22)
    G = stack_multilinear(rng.standard_normal((3, 3, 3, 3)))
    x0, y0 = unit(rng.standard_normal(6)), unit(rng.standard_normal(6))
    x, y = _mbi_biquadratic(G, (x0, y0), seed=0)
    xs, ys = _mbi_biquadratic(s * G, (x0, y0), seed=0)
    assert biquadratic_form(s * G, xs, ys) / s == pytest.approx(
        biquadratic_form(G, x, y), rel=1e-12)


def test_solve_biquadratic_input_checks():
    rng = np.random.default_rng(15)
    with pytest.raises(ValueError):
        solve_biquadratic(rng.standard_normal((3, 4, 3, 4)))
    with pytest.raises(ValueError):
        solve_biquadratic(np.zeros((2, 2, 2, 2)))
    bad = random_partial_symmetric(2, 3, 0)
    bad[0, 1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_biquadratic(bad)
