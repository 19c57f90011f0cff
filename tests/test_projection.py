import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tensorpca import (alpha, project_C, project_partial_C, shrink_nuclear,
                       project_psd, matr, matr_inv, rank_one,
                       is_super_symmetric, is_partial_symmetric, kkt_project,
                       enumerate_signatures, identity_power, lift_moment,
                       project_moment_C)
from tensorpca.projection import (_trace_classes, lift_blocks,
                                  partial_block_gathers, stack_blocks)
from tensorpca.tensors import _class_keys, _class_map


def kkt_project_partial(Z, n, m):
    # dense reference: orbit equalities chained within each 4-element class
    # plus the trace row, solved as an equality-constrained least-distance
    size = (n * m) ** 2
    orbits = {}
    for pos, (i, j, k, l) in enumerate(itertools.product(
            range(n), range(m), range(n), range(m))):
        key = min((i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j))
        orbits.setdefault(key, []).append(pos)
    rows, b = [], []
    for members in orbits.values():
        for other in members[1:]:
            row = np.zeros(size)
            row[members[0]], row[other] = 1.0, -1.0
            rows.append(row)
            b.append(0.0)
    trace = np.zeros(size)
    for i, j in itertools.product(range(n), range(m)):
        trace[((i * m + j) * n + i) * m + j] = 1.0
    rows.append(trace)
    b.append(1.0)
    A, b = np.array(rows), np.array(b)
    z = Z.reshape(-1)
    mult, *_ = np.linalg.lstsq(A @ A.T, A @ z - b, rcond=None)
    return (z - A.T @ mult).reshape(n * m, n * m)


def test_alpha_small_cases():
    assert alpha((1,), 1) == 1.0
    assert alpha((0, 1), 1) == 1.0
    assert alpha((2, 0), 2) == 1.0
    assert alpha((1, 1), 2) == pytest.approx(1.0 / 3.0)
    assert alpha((1, 1, 1), 3) == pytest.approx(6.0 / 90.0)


def test_project_C_worked_case():
    # n=2, d=2, Z = 2 * matr(e1^(x4)): the multiplier is -3/4 and the three
    # even-diagonal classes move by alpha/2 times it
    Z = np.zeros((4, 4))
    Z[0, 0] = 2.0
    X = project_C(Z, 2, 2)
    T = matr_inv(X, 2, 2)
    assert T[0, 0, 0, 0] == pytest.approx(13.0 / 8.0, abs=1e-14)
    assert T[0, 0, 1, 1] == pytest.approx(-1.0 / 8.0, abs=1e-14)
    assert T[1, 1, 1, 1] == pytest.approx(-3.0 / 8.0, abs=1e-14)
    assert T[0, 0, 0, 1] == pytest.approx(0.0, abs=1e-14)
    assert T[0, 1, 1, 1] == pytest.approx(0.0, abs=1e-14)
    assert float(np.trace(X)) == pytest.approx(1.0, abs=1e-14)


def test_project_C_output_is_feasible():
    rng = np.random.default_rng(0)
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        for _ in range(10):
            Z = rng.standard_normal((n**d, n**d))
            X = project_C(Z, n, d)
            assert abs(float(np.trace(X)) - 1.0) <= 1e-12
            ok, violation = is_super_symmetric(matr_inv(X, n, d), tol=1e-12)
            assert ok, violation


def test_project_C_fixes_feasible_points():
    F = rank_one(1.0, np.array([0.6, 0.8]), 4)
    X = matr(F)  # trace one, symmetric
    np.testing.assert_allclose(project_C(X, 2, 2), X, atol=1e-14)


def test_project_C_is_orthogonal_projection():
    # the correction Z - P(Z) must be orthogonal to all feasible differences
    rng = np.random.default_rng(1)
    n, d = 3, 2
    Z = rng.standard_normal((9, 9))
    X = project_C(Z, n, d)
    for seed in range(5):
        W = project_C(rng.standard_normal((9, 9)), n, d)
        assert abs(float(np.sum((Z - X) * (W - X)))) < 1e-10


def test_project_C_agrees_with_kkt_reference():
    rng = np.random.default_rng(2)
    for n, d in [(2, 2), (3, 2)]:
        for _ in range(10):
            Z = rng.standard_normal((n**d, n**d))
            np.testing.assert_allclose(project_C(Z, n, d),
                                       kkt_project(Z, n, d), atol=1e-8)


@pytest.mark.parametrize("n, d", [(2, 1), (4, 1), (2, 2), (3, 2), (5, 2),
                                  (3, 3), (4, 3)])
def test_averaged_identity_is_identity_power(n, d):
    # spread over (n,)*2d the cached vector is the tensor of (x.x)**d, and on
    # each even-diagonal class it is the paper's alpha(k, d)
    keys, _ = _class_keys(n, 2 * d)
    diag, ibar, ibar_trace = _trace_classes(n, d)
    size = n ** d
    np.testing.assert_array_equal(ibar[_class_map(n, 2 * d)].reshape(size, size),
                                  matr(identity_power(n, d)))
    even = {}
    for k in enumerate_signatures(n, d):
        key = tuple(j for j in range(n) for _ in range(2 * k[j]))
        even[keys.index(key)] = alpha(k, d)
    assert {c: ibar[c] for c in even} == even
    assert not np.any(np.delete(ibar, list(even)))
    assert ibar_trace == pytest.approx(float(np.trace(matr(identity_power(n, d)))))


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def symmetric_case(draw):
    # d = 1 up to n = 10 and d = 3 up to n = 3; kkt_project refuses n = 4,
    # d = 3, whose dense system has 4096 unknowns
    d = draw(st.sampled_from((1, 3)))
    n = draw(st.integers(1, 10 if d == 1 else 3))
    Z = draw(arrays(float, (n ** d, n ** d), elements=finite))
    return Z, n, d


@st.composite
def partial_case(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return draw(arrays(float, (n * m, n * m), elements=finite)), n, m


@settings(max_examples=40, deadline=None)
@given(symmetric_case())
def test_project_C_property(case):
    Z, n, d = case
    X = project_C(Z, n, d)
    np.testing.assert_allclose(X, kkt_project(Z, n, d), atol=1e-8)
    assert np.max(np.abs(project_C(X, n, d) - X)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(partial_case())
def test_project_partial_C_property(case):
    Z, n, m = case
    X = project_partial_C(Z, (n, m))
    np.testing.assert_allclose(X, kkt_project_partial(Z, n, m), atol=1e-8)
    assert np.max(np.abs(project_partial_C(X, (n, m)) - X)) <= 1e-12


def moment_basis(n, d):
    # dense B: column k is the indicator of d-multiset class k over sqrt(c_k)
    _, counts = _class_keys(n, d)
    cid = _class_map(n, d)
    B = np.zeros((n ** d, len(counts)))
    B[np.arange(n ** d), cid] = 1.0 / np.sqrt(counts[cid])
    return B


# (4, 3) and (3, 4) are shapes kkt_project refuses
@pytest.mark.parametrize("n, d", [(1, 2), (6, 1), (3, 2), (6, 2), (2, 3),
                                  (4, 3), (3, 4), (2, 5)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_project_moment_C_property(n, d, data):
    B = moment_basis(n, d)
    K = B.shape[1]
    np.testing.assert_allclose(B.T @ B, np.eye(K), atol=1e-15)
    A = data.draw(arrays(float, (K, K), elements=finite))
    M = 0.5 * (A + A.T)
    np.testing.assert_allclose(lift_moment(M, n, d), B @ M @ B.T, atol=1e-13)
    P = project_moment_C(M, n, d)
    assert np.max(np.abs(P - B.T @ project_C(B @ M @ B.T, n, d) @ B)) <= 1e-12
    assert np.max(np.abs(project_moment_C(P, n, d) - P)) <= 1e-12


def test_shrink_nuclear_diagonal_example():
    Y = shrink_nuclear(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(Y, np.diag([1.0, 0.0]), atol=1e-14)


def test_shrink_nuclear_matches_svd_reference():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6))
    M = 0.5 * (A + A.T)
    for tau in (0.0, 0.3, 2.0):
        U, s, Vt = np.linalg.svd(M)
        ref = (U * np.maximum(s - tau, 0.0)) @ Vt
        np.testing.assert_allclose(shrink_nuclear(M, tau), ref, atol=1e-12)
    with pytest.raises(ValueError):
        shrink_nuclear(M, -1.0)


def test_shrink_nuclear_is_prox_optimal():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 5))
    M = 0.5 * (A + A.T)
    tau = 0.7

    def objective(Y):
        return tau * np.sum(np.abs(np.linalg.eigvalsh(Y))) \
            + 0.5 * np.linalg.norm(Y - M) ** 2

    Y = shrink_nuclear(M, tau)
    base = objective(Y)
    for _ in range(20):
        B = rng.standard_normal((5, 5))
        assert base <= objective(Y + 1e-3 * 0.5 * (B + B.T)) + 1e-12


def test_project_psd_clips_spectrum():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    M = 0.5 * (A + A.T)
    P = project_psd(M)
    assert np.min(np.linalg.eigvalsh(P)) >= -1e-12
    # variational inequality against random PSD points
    for _ in range(20):
        B = rng.standard_normal((6, 3))
        Q = B @ B.T
        assert float(np.sum((M - P) * (Q - P))) <= 1e-10 * np.linalg.norm(Q)
    C = rng.standard_normal((6, 6))
    PSD = C @ C.T
    np.testing.assert_allclose(project_psd(PSD), PSD, atol=1e-12)


def test_project_partial_C_output_is_feasible():
    rng = np.random.default_rng(6)
    for n, m in [(2, 2), (3, 4)]:
        for _ in range(10):
            Z = rng.standard_normal((n * m, n * m))
            X = project_partial_C(Z, (n, m))
            assert abs(float(np.trace(X)) - 1.0) <= 1e-12
            ok, violation = is_partial_symmetric(X.reshape(n, m, n, m))
            assert ok, violation
            np.testing.assert_array_equal(X, X.T)


def test_project_partial_C_agrees_with_kkt_reference():
    rng = np.random.default_rng(7)
    for n, m in [(2, 2), (2, 3), (3, 4)]:
        for _ in range(10):
            Z = rng.standard_normal((n * m, n * m))
            np.testing.assert_allclose(project_partial_C(Z, (n, m)),
                                       kkt_project_partial(Z, n, m), atol=1e-8)


def test_projection_shape_checks():
    with pytest.raises(ValueError):
        project_C(np.zeros((3, 3)), 2, 2)
    with pytest.raises(ValueError):
        project_partial_C(np.zeros((5, 5)), (2, 3))
    with pytest.raises(ValueError):
        project_moment_C(np.zeros((4, 4)), 2, 2)


def old_project_psd(M):
    # the 2-D operator as it was before it took stacks
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.maximum(w, 0.0)) @ V.T


def old_shrink_nuclear(M, tau):
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    shrunk = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
    return (V * shrunk) @ V.T


@pytest.mark.parametrize("size", [1, 2, 5, 18])
def test_spectral_operators_act_per_matrix_of_a_stack(size):
    rng = np.random.default_rng(size)
    for _ in range(5):
        S = rng.standard_normal((2, size, size))
        psd, shrunk = project_psd(S), shrink_nuclear(S, 0.4)
        assert psd.shape == shrunk.shape == S.shape
        for b in range(2):
            np.testing.assert_allclose(psd[b], project_psd(S[b]),
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(shrunk[b], shrink_nuclear(S[b], 0.4),
                                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("size", [1, 3, 6, 21, 36])
def test_spectral_operators_on_a_matrix_are_unchanged(size):
    rng = np.random.default_rng(10 + size)
    for _ in range(5):
        M = rng.standard_normal((size, size))
        np.testing.assert_array_equal(project_psd(M), old_project_psd(M))
        for tau in (0.0, 0.3):
            np.testing.assert_array_equal(shrink_nuclear(M, tau),
                                          old_shrink_nuclear(M, tau))


def flip_blocks(n1, n2, n3, n4):
    # the rows of the stacked (n1 + n3)(n2 + n4) matrix that the flip of the
    # second block of each factor fixes, and those it negates
    i, j = np.divmod(np.arange((n1 + n3) * (n2 + n4)), n2 + n4)
    odd = (i >= n1) != (j >= n2)
    return np.flatnonzero(~odd), np.flatnonzero(odd)


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 4, 2), (1, 2, 1, 1),
                                  (1, 1, 1, 1)])
def test_block_projection_is_the_dense_projection_of_the_blocks(dims):
    n, m = dims[0] + dims[2], dims[1] + dims[3]
    blocks = flip_blocks(*dims)
    gathers = partial_block_gathers((n, m), blocks)
    rng = np.random.default_rng(sum(dims))
    for _ in range(5):
        # a block-diagonal Z, and its stack with noise in the padding
        Z = lift_blocks(stack_blocks(rng.standard_normal((n * m, n * m)),
                                     blocks), blocks)
        stack = stack_blocks(Z, blocks)
        for b, rows in enumerate(blocks):
            stack[b, len(rows):, :] = stack[b, :, len(rows):] = 1.0
        X = project_partial_C(stack, (n, m), gathers)
        dense = project_partial_C(Z, (n, m))
        np.testing.assert_allclose(lift_blocks(X, blocks), dense,
                                   rtol=0, atol=1e-15)
        for b, rows in enumerate(blocks):
            assert not X[b, len(rows):, :].any() and not X[b, :, len(rows):].any()
            np.testing.assert_array_equal(X[b], X[b].T)


def test_block_projection_refuses_blocks_no_flip_gives():
    with pytest.raises(ValueError, match="swaps"):
        # no sign flip of x and y negates row (1, 1) alone: swapping modes
        # (0, 2) takes entry ((0, 1), (1, 0)) to ((1, 1), (0, 0))
        partial_block_gathers((2, 2), (np.array([0, 1, 2]), np.array([3])))
    with pytest.raises(ValueError, match="every row"):
        partial_block_gathers((2, 2), (np.array([0, 3]), np.array([1])))
    gathers = partial_block_gathers((2, 2), flip_blocks(1, 1, 1, 1))
    with pytest.raises(ValueError, match="stack"):
        project_partial_C(np.zeros((4, 4)), (2, 2), gathers)
