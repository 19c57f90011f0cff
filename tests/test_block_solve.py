"""The quadri-linear relaxation is solved in the two blocks of its sign flip.

Stacking an order-4 form into a bi-quadratic one leaves it fixed by the
flip D that negates x3 and x4, so every ADMM iterate is block-diagonal
over the rows D keeps and the rows it negates.  `solve_biquadratic` with
`odd_rows` runs the ADMM on the stack of those two blocks: the answer is
that of the dense N x N relaxation, the lifted X has exact zeros across
the blocks, and a converged X is rank one in each block, which the report
certifies.  Without `odd_rows` the solve is the one-block relaxation as
`admm.solve` runs it.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from tensorpca import SolverConfig, random_partial_symmetric, solve_biquadratic
from tensorpca.admm import Relaxation, _block_eig, certifies, solve
from tensorpca.extensions import (_mbi_biquadratic, biquadratic_form,
                                  stack_multilinear)
from tensorpca.matricize import _leading_factors, matr_partial
from tensorpca.projection import project_partial_C, stack_blocks

CASES = ([((3, 3, 3, 3), s) for s in range(20)]
         + [(dims, s) for dims in ((2, 3, 4, 2), (1, 2, 1, 1), (1, 1, 1, 1))
            for s in range(5)])
IDS = ["x".join(map(str, dims)) + f"-{s}" for dims, s in CASES]


def flip_mask(n1, n2, n3, n4):
    # the rows (i, j) of the stacked matrix, at i * (n2 + n4) + j, with
    # exactly one index in the block the flip negates
    i, j = np.divmod(np.arange((n1 + n3) * (n2 + n4)), n2 + n4)
    return (i >= n1) != (j >= n2)


def stacked(dims, seed):
    return stack_multilinear(
        np.random.default_rng(seed).standard_normal(dims))


def one_block_solve(G, method, odd):
    # the same relaxation run on the dense N x N matrix, as the route ran
    # before it had blocks: read by the blocks of X, stopped on the gap,
    # polished by one ascent
    cfg = SolverConfig()
    Gm = matr_partial(G)
    n, m = G.shape[:2]
    blocks = (np.flatnonzero(~odd), np.flatnonzero(odd))
    Y0 = np.zeros_like(Gm)
    p = int(np.argmax(np.diag(Gm)))
    Y0[p, p] = 1.0

    def read_out(X):
        return _leading_factors(_block_eig(stack_blocks(X, blocks), blocks)[2],
                                (n, m))

    report = solve(Relaxation(Gm, lambda Z: project_partial_C(Z, (n, m)), Y0),
                   method, cfg,
                   lambda X, v: (biquadratic_form(G, *read_out(X)), None))
    assert report.values.shape == Gm.shape and not report.rank_one
    x, y = _mbi_biquadratic(G, read_out(report.values), cfg.seed,
                            report.bound, cfg.rank_tol)
    value = biquadratic_form(G, x, y)
    return value, certifies(replace(report, extracted_lambda=value),
                            cfg.rank_tol)


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("dims, seed", CASES, ids=IDS)
def test_block_solve_gives_the_one_block_answer(dims, seed, method):
    G, odd = stacked(dims, seed), flip_mask(*dims)
    blocked, report = solve_biquadratic(G, method, stop_on_gap=True,
                                        odd_rows=odd)
    value, certified = one_block_solve(G, method, odd)
    # equal certificates: both certify by the gap alone
    assert blocked.certified == certified
    assert blocked.lambda_star == pytest.approx(value, rel=1e-10, abs=0)
    assert blocked.lambda_star == biquadratic_form(G, blocked.x_star,
                                                   blocked.y_star)


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 4, 2), (1, 2, 1, 1)])
def test_lifted_X_is_zero_across_the_blocks(dims, method):
    odd = flip_mask(*dims)
    _, report = solve_biquadratic(stacked(dims, 0), method, odd_rows=odd)
    X = report.X
    assert X.shape == (odd.size, odd.size)
    assert not X[np.ix_(odd, ~odd)].any() and not X[np.ix_(~odd, odd)].any()
    assert np.trace(X) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(X, X.T)


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_a_converged_block_solve_is_rank_one_certified(method):
    mask = flip_mask(3, 3, 3, 3)
    for seed in range(20):
        _, report = solve_biquadratic(stacked((3, 3, 3, 3), seed), method,
                                      odd_rows=mask)
        assert report.termination == "converged", seed
        assert report.rank_one, (seed, report.rank_one_ratio)
        # and X as a whole is not: its two blocks hold one optimum each
        top = np.linalg.eigvalsh(report.X)[-2:]
        assert top[0] == pytest.approx(top[1], rel=1e-6), seed


def test_block_ratio_is_the_largest_block_ratio():
    blocks = (np.array([0, 2]), np.array([1, 3]))
    X = stack_blocks(np.diag([0.4, 0.3, 0.2, 0.1]), blocks)
    w, ratio, z = _block_eig(X, blocks)
    assert sorted(w) == [0.1, 0.2, 0.3, 0.4]
    assert ratio == max(0.2 / 0.4, 0.1 / 0.3)
    np.testing.assert_allclose(z, np.array([0.4, 0.3, 0.0, 0.0]) ** 0.5
                               / 0.7 ** 0.5, atol=1e-15)
    # a zero block is rank one; an all-zero stack has no ratio
    X[1] = 0.0
    assert _block_eig(X, blocks)[1] == 0.2 / 0.4
    with pytest.raises(ValueError, match="zero matrix"):
        _block_eig(np.zeros_like(X), blocks)


def test_a_form_the_flip_does_not_fix_is_refused():
    G = stacked((2, 2, 2, 2), 0)
    G[0, 0, 0, 2] = G[0, 2, 0, 0] = 1.0  # a cross-block entry of matr_partial
    with pytest.raises(ValueError, match="odd_rows"):
        solve_biquadratic(G, odd_rows=flip_mask(2, 2, 2, 2))


def assert_bitwise_equal(a, b, skip=()):
    for f in fields(a):
        if f.name in skip:
            continue
        left, right = getattr(a, f.name), getattr(b, f.name)
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), f.name
        else:
            assert left == right or (left != left and right != right), f.name


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("G", [stacked((2, 2, 2, 2), 1),
                               random_partial_symmetric(2, 3, 2)],
                         ids=["stacked", "partial"])
def test_without_odd_rows_the_solve_is_the_one_block_relaxation(G, method):
    comp, report = solve_biquadratic(G, method)
    # the relaxation the solver ran before it had blocks, built by hand
    Gm = matr_partial(G)
    n, m = G.shape[:2]
    Y0 = np.zeros_like(Gm)
    p = int(np.argmax(np.diag(Gm)))
    Y0[p, p] = 1.0
    reference = solve(Relaxation(Gm, lambda Z: project_partial_C(Z, (n, m)), Y0),
                      method, SolverConfig())
    assert report.values.shape == Gm.shape
    assert_bitwise_equal(report, reference, skip=("extracted_lambda",))
    assert report.extracted_lambda == comp.lambda_star == biquadratic_form(
        G, comp.x_star, comp.y_star)
