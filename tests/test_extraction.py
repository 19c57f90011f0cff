import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorpca import (PrincipalComponent, NotRankOne, extract, mbi_refine,
                       deflate, solve_leading_pc, SolverConfig,
                       SuperSymmetricTensor, rank_one, random_gaussian,
                       eval_homogeneous, matr, inner, multistart_local, main,
                       solve_sdp, symmetrize, write_tensor)
from tensorpca.admm import _recover_symmetric, _summarize, certifies
from tensorpca.extraction import (_refine_not_rank_one, _spectrum,
                                  solve_even_order)


def unit(x):
    return x / np.linalg.norm(x)


def test_extract_refuses_a_bare_matrix():
    # a feasible rank-one X of a random a has no dual bound, so nothing
    # certifies it, and F(a) is far below F's certified maximum
    rng = np.random.default_rng(0)
    a = unit(rng.standard_normal(3))
    F = random_gaussian(3, 4, 5)
    with pytest.raises(TypeError):
        extract(F, matr(rank_one(1.0, a, 4)))
    pc, _ = solve_leading_pc(F, "sdp")
    assert pc.certified and pc.lambda_star > eval_homogeneous(F, a) + 1.0


def test_read_out_of_an_exact_rank_one_matrix():
    rng = np.random.default_rng(0)
    a = unit(rng.standard_normal(3))
    F = random_gaussian(3, 4, 5)
    X = matr(rank_one(1.0, a, 4))
    report = _recover_symmetric(F, _summarize(X, matr(F), SolverConfig.rank_tol))
    assert report.rank_one and not certifies(report, SolverConfig.rank_tol)
    x = report.extracted_x
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
    assert min(np.max(np.abs(x - a)), np.max(np.abs(x + a))) < 1e-10
    assert report.extracted_lambda == pytest.approx(eval_homogeneous(F, x),
                                                    abs=1e-13)
    # the sign maximizing the form was taken
    assert report.extracted_lambda >= eval_homogeneous(F, -x)


def test_higher_rank_matrix_is_not_rank_one():
    F = random_gaussian(2, 4, 1)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    X = 0.5 * (matr(rank_one(1.0, e1, 4)) + matr(rank_one(1.0, e2, 4)))
    report = _summarize(X, matr(F), SolverConfig.rank_tol)
    assert not report.rank_one
    assert report.rank_one_ratio == pytest.approx(1.0)
    assert _spectrum(report).shape == (4,)


@pytest.mark.parametrize("n, m", [(4, 4), (3, 6)])
def test_not_rank_one_spectrum_is_the_lifted_spectrum(n, m):
    # a capped solve's report misses the certificate; its spectrum comes
    # from the K x K moment matrix plus N - K zeros, N = n**(m/2)
    F = random_gaussian(n, m, 2)
    report = solve_sdp(F, SolverConfig(max_iter=3))
    result = extract(F, report)
    assert isinstance(result, NotRankOne)
    assert result.spectrum.shape == (n ** (m // 2),)
    assert np.abs(result.spectrum - np.linalg.eigvalsh(report.X)).max() <= 1e-12


def test_extract_refuses_matrices_and_odd_orders():
    # any matrix, feasible or not, is refused; so is an odd order
    F = random_gaussian(2, 4, 2)
    a = unit(np.array([1.0, 2.0]))
    X = matr(rank_one(1.0, a, 4))
    bad = X.copy()
    bad[0, 1] += 0.1  # breaks tensor symmetry, keeps trace
    for matrix in (X, 2.0 * X, bad):
        with pytest.raises(TypeError):
            extract(F, matrix)
    with pytest.raises(ValueError):
        extract(random_gaussian(2, 3, 0), solve_sdp(F))


def test_mbi_converges_on_rank_one():
    rng = np.random.default_rng(3)
    a = unit(rng.standard_normal(4))
    F = rank_one(1.0, a, 4)
    starts = [unit(rng.standard_normal(4)) for _ in range(4)]
    result = mbi_refine(F, starts)
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-8)
    assert min(np.max(np.abs(result.x - a)), np.max(np.abs(result.x + a))) < 1e-6


def test_mbi_result_value_is_consistent():
    F = random_gaussian(3, 4, 9)
    for seed in range(5):
        x0 = unit(np.random.default_rng(seed).standard_normal(3))
        result = mbi_refine(F, [x0] * 4)
        assert result.value == pytest.approx(eval_homogeneous(F, result.x),
                                             abs=1e-12)
        assert np.linalg.norm(result.x) == pytest.approx(1.0, abs=1e-12)
        # the reported sign is the better of the two (even order: a tie)
        assert result.value >= eval_homogeneous(F, -result.x) - 1e-12


def test_mbi_guards_inputs():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        mbi_refine(rng.standard_normal((2, 3, 4)), [np.ones(2)] * 3)
    with pytest.raises(ValueError):
        mbi_refine(rng.standard_normal((3, 3, 3)), [np.ones(3)] * 2)
    capped = mbi_refine(random_gaussian(4, 4, 0), [unit(np.ones(4))] * 4,
                        tol=1e-16, max_sweeps=1)
    assert not capped.converged
    assert capped.sweeps == 1


def test_deflate_removes_certified_component():
    rng = np.random.default_rng(6)
    a = unit(rng.standard_normal(3))
    F = rank_one(2.5, a, 4)
    pc = PrincipalComponent(2.5, a, True)
    residual = deflate(F, pc)
    assert residual.norm() < 1e-12
    with pytest.raises(ValueError):
        deflate(F, PrincipalComponent(2.5, a, False))


def test_deflate_reduces_norm_on_random_input():
    F = random_gaussian(3, 4, 8)
    pc, _ = solve_leading_pc(F, "sdp")
    assert pc.certified
    residual = deflate(F, pc)
    # the removed component is exactly lambda * x^(x4)
    back = residual + pc.lambda_star * rank_one(1.0, pc.x_star, 4)
    assert inner(back - F, back - F) < 1e-20


def test_solve_leading_pc_even_and_odd():
    F = random_gaussian(3, 4, 10)
    pc, report = solve_leading_pc(F, "nnp")
    assert pc.certified
    assert pc.lambda_star == pytest.approx(eval_homogeneous(F, pc.x_star), abs=1e-12)

    G = random_gaussian(3, 3, 11)
    pc3, _ = solve_leading_pc(G, "sdp")
    assert pc3.lambda_star >= 0.0
    assert pc3.lambda_star == pytest.approx(eval_homogeneous(G, pc3.x_star),
                                            abs=1e-12)
    # odd route value matches the multistart reference
    oracle = multistart_local(__import__("tensorpca").odd_to_even(G), 20, 0)
    assert pc3.lambda_star == pytest.approx(np.sqrt(max(oracle.value, 0.0)),
                                            abs=1e-3)


def test_solve_leading_pc_routing_errors():
    with pytest.raises(ValueError):
        solve_leading_pc(random_gaussian(3, 4, 0), "cvx")
    with pytest.raises(ValueError, match="unknown method"):
        solve_even_order(random_gaussian(3, 4, 0), "bogus", SolverConfig())
    with pytest.raises(ValueError, match="degenerate"):
        solve_leading_pc(np.zeros((2, 2, 2, 2, 2)))
    bad = np.ones((2, 2, 2, 2))
    bad[0, 1, 0, 1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            solve_leading_pc(bad)


def test_iter_cap_is_never_certified(tmp_path):
    # one iteration leaves X at the rank-one start: a ratio of 0 that
    # certifies nothing, since the solve did not converge
    F = random_gaussian(5, 4, 3)
    cfg = SolverConfig(max_iter=1)
    pc, report = solve_leading_pc(F, "sdp", cfg)
    assert report.termination == "iter_cap"
    assert not report.rank_one
    assert not pc.certified
    # the pipeline report carries the returned x; the fallback started from
    # the read-out, which a direct solve capped at the same iteration keeps
    x = _refine_not_rank_one(F, solve_sdp(F, cfg).extracted_x, seed=cfg.seed)
    assert pc.lambda_star == eval_homogeneous(F, x)
    # the fallback reaches the certified optimum, flagged uncertified
    converged, _ = solve_leading_pc(F, "sdp")
    assert converged.certified
    assert pc.lambda_star == pytest.approx(converged.lambda_star, rel=1e-8)

    path = str(tmp_path / "t.tensor")
    write_tensor(path, F)
    assert main(["solve", path, "--max-iter", "1"]) == 2


def test_uncertified_solve_falls_back_to_ascent():
    # two symmetric peaks produce a rank-two optimal face; the driver must
    # still return a unit point attaining the shared value.  The peaks sit
    # at (e1 +- e2)/sqrt(2), so the reflection x2 -> -x2 swaps them and
    # fixes the start e1 e1^T: every iterate keeps the symmetry, and no
    # splitting can reach either rank-one vertex.  The fallback's value
    # closes the gap to the dual bound, which certifies it
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    v = np.array([1.0, -1.0]) / np.sqrt(2.0)
    F = rank_one(1.0, u, 4) + rank_one(1.0, v, 4)
    pc, report = solve_leading_pc(F, "sdp", SolverConfig(seed=3))
    assert pc.certified
    assert report.bound - pc.lambda_star <= 1e-6 * abs(report.bound)
    assert report.rank_one_ratio > 1e-6
    assert np.linalg.norm(pc.x_star) == pytest.approx(1.0, abs=1e-12)
    assert pc.lambda_star == pytest.approx(1.0, abs=1e-6)


def test_capped_solve_of_a_large_norm_tensor_falls_back():
    # the capped iterate's trace is off by rounding on entries of size 1e8:
    # the report is read as is, not re-checked for feasibility
    F = 1e5 * random_gaussian(5, 4, 3)
    pc, report = solve_leading_pc(F, "nnp", SolverConfig(max_iter=1000))
    assert report.termination == "iter_cap"
    assert not pc.certified
    assert np.linalg.norm(pc.x_star) == pytest.approx(1.0, abs=1e-12)
    assert pc.lambda_star == pytest.approx(eval_homogeneous(F, pc.x_star),
                                           rel=1e-12)


@st.composite
def scaled_case(draw):
    # order 4 up to n = 5 and order 6 up to n = 3; s log-uniform in [1e-3, 1e3]
    m = draw(st.sampled_from((4, 6)))
    n = draw(st.integers(1, 5 if m == 4 else 3))
    seed = draw(st.integers(0, 2**16))
    x0 = unit(np.random.default_rng(seed).standard_normal(n))
    s = 10.0 ** draw(st.floats(-3.0, 3.0))
    return random_gaussian(n, m, seed), x0, s


@settings(max_examples=20, deadline=None, derandomize=True)
@given(scaled_case())
def test_fallback_is_scale_invariant(case):
    F, x0, s = case
    lam = eval_homogeneous(F, _refine_not_rank_one(F, x0, 0))
    sF = s * F
    lam_s = eval_homogeneous(sF, _refine_not_rank_one(sF, x0, 0))
    assert lam_s == pytest.approx(s * lam, rel=1e-12)


@st.composite
def rotated_case(draw):
    # order 4 up to n = 4 and order 6 up to n = 3; Q orthogonal from a QR
    m = draw(st.sampled_from((4, 6)))
    n = draw(st.integers(1, 4 if m == 4 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    t = rng.standard_normal((n,) * m)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rotated = t
    for _ in range(m):  # Q on every mode: rotated(y, ..., y) = t(Qy, ..., Qy)
        rotated = np.tensordot(rotated, Q, axes=([0], [0]))
    method = draw(st.sampled_from(("sdp", "nnp")))
    return symmetrize(t), symmetrize(rotated), method


@settings(max_examples=20, deadline=None, derandomize=True)
@given(rotated_case())
def test_leading_value_is_orthogonally_invariant(case):
    F, G, method = case
    pc, _ = solve_leading_pc(F, method)
    pc_rotated, _ = solve_leading_pc(G, method)
    if pc.certified and pc_rotated.certified:
        assert pc_rotated.lambda_star == pytest.approx(pc.lambda_star, rel=1e-9)


@st.composite
def mildly_scaled_case(draw):
    # order 4 up to n = 4 and order 6 up to n = 3; s uniform in [0.5, 2]
    m = draw(st.sampled_from((4, 6)))
    n = draw(st.integers(1, 4 if m == 4 else 3))
    seed = draw(st.integers(0, 2**16))
    return random_gaussian(n, m, seed), draw(st.floats(0.5, 2.0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(mildly_scaled_case())
def test_leading_value_scales_with_the_tensor(case):
    # sdp on sF runs the ADMM of F with mu scaled by s, so near s = 1 the
    # value scales and the certificate holds; s = 1e+-3 needs the solver to
    # normalise the scale first
    F, s = case
    pc, _ = solve_leading_pc(F, "sdp")
    pc_scaled, _ = solve_leading_pc(s * F, "sdp")
    assert pc_scaled.certified == pc.certified
    assert pc_scaled.lambda_star == pytest.approx(s * pc.lambda_star, rel=1e-9)
