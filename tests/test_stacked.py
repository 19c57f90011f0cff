"""Every dense even-order array is solved by stacking its modes in pairs.

`stack_multilinear` puts an order-2d array F in the corner of a
partial-symmetric order-2d array G over d stacked blocks u_k = (x_k;
x_{k+d}), with G(u_1..u_d, u_1..u_d) = F(x_1..x_2d).  `solve_multilinear`
solves G's relaxation in the 2^(d-1) diagonal blocks of the sign flips
that fix it (one block for a matrix, d = 1).  The order-6 sweep checks
both certificates and the value against a multistart alternating ascent
written here with numpy alone, sharing no code with the package.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorpca import (SuperSymmetricTensor, extensions, solve_biquadratic,
                       solve_leading_pc, stack_multilinear)
from tensorpca.extensions import _best_factors, _flip_classes, _sign_choices
from tensorpca.matricize import matr_partial


def contract(t, xs):
    # t(x_1, ..., x_m), leading mode first
    for x in xs:
        t = np.tensordot(x, t, axes=(0, 0))
    return float(t)


@st.composite
def dense_arrays(draw):
    d = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 3 if d < 3 else 2),
                          min_size=2 * d, max_size=2 * d))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).standard_normal(shape)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dense_arrays())
def test_stack_is_fixed_by_every_swap_and_keeps_the_form(F):
    G = stack_multilinear(F)
    d = F.ndim // 2
    assert G.shape == tuple(F.shape[k] + F.shape[k + d] for k in range(d)) * 2
    for k in range(d):
        np.testing.assert_array_equal(G.swapaxes(k, k + d), G)
    rng = np.random.default_rng(F.size)
    for _ in range(5):
        xs = [rng.standard_normal(n) for n in F.shape]
        us = [np.concatenate([xs[k], xs[k + d]]) for k in range(d)]
        assert contract(G, us + us) == pytest.approx(contract(F, xs),
                                                     rel=1e-10, abs=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.tuples(*[st.integers(1, 3)] * 4), st.integers(0, 2 ** 32 - 1))
def test_order_4_stack_is_the_corner_averaged_by_both_swaps(shape, seed):
    F = np.random.default_rng(seed).standard_normal(shape)
    n1, n2, n3, n4 = shape
    G = np.zeros((n1 + n3, n2 + n4, n1 + n3, n2 + n4))
    G[:n1, :n2, n1:, n2:] = F
    G = 0.5 * (G + G.transpose(2, 1, 0, 3))
    G = 0.5 * (G + G.transpose(0, 3, 2, 1))
    np.testing.assert_array_equal(stack_multilinear(F), G)


@functools.lru_cache(maxsize=None)
def ascent_value(shape, seed, starts=20):
    # the best of `starts` alternating ascents: each vector in turn becomes
    # the normalized contraction of F with all the others, until the value
    # stops rising
    F = np.random.default_rng(seed).standard_normal(shape)
    rng = np.random.default_rng(1000 + seed)
    best = -np.inf
    for _ in range(starts):
        xs = [v / np.linalg.norm(v) for v in map(rng.standard_normal, shape)]
        value = -np.inf
        for _ in range(20_000):
            for j in range(F.ndim):
                g = np.moveaxis(F, j, 0)
                for k in reversed([k for k in range(F.ndim) if k != j]):
                    g = g @ xs[k]
                xs[j] = g / np.linalg.norm(g)
            previous, value = value, float(np.linalg.norm(g))
            if value - previous <= 1e-15 * value:
                break
        best = max(best, value)
    return best


ORDER_6 = [(1, 1, 1, 1, 2, 2), (2, 2, 1, 1, 2, 2), (2, 2, 2, 2, 2, 2)]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("shape", ORDER_6,
                         ids=["x".join(map(str, s)) for s in ORDER_6])
def test_order_6_arrays_certify_and_attain_the_ascent(shape, method, seed):
    F = np.random.default_rng(seed).standard_normal(shape)
    comp, _ = solve_leading_pc(F, method)
    assert comp.certified
    assert comp.lambda_star == pytest.approx(ascent_value(shape, seed),
                                             rel=1e-8)
    assert comp.bound >= comp.lambda_star * (1 - 1e-12)

    # run to convergence, every block of X is rank one
    G, labels = stack_multilinear(F), _flip_classes(F.shape)
    _, report = solve_biquadratic(G, method, odd_rows=labels)
    assert report.termination == "converged" and report.rank_one

    # the read-out z = sum_b +-sqrt(l_b) u_b gives the optimum under every
    # sign choice of the blocks: the route searches the choices flips do
    # not relate, by the form's value
    X, dims = report.X, G.shape[:3]
    parts = []
    for c in np.unique(labels):
        rows = np.flatnonzero(labels == c)
        w, V = np.linalg.eigh(X[np.ix_(rows, rows)])
        parts.append((rows, np.sqrt(w[-1]) * V[:, -1]))
    assert len(parts) == 4
    for signs in itertools.product((1.0, -1.0), repeat=len(parts) - 1):
        z = np.zeros(len(labels))
        for sign, (rows, part) in zip((1.0,) + signs, parts):
            z[rows] = sign * part
        _, us = _best_factors(matr_partial(G), z, dims, _sign_choices(labels))
        halves = [(u[:shape[k]], u[shape[k]:]) for k, u in enumerate(us)]
        xs = [h[0] for h in halves] + [h[1] for h in halves]
        value = abs(contract(F, [x / np.linalg.norm(x) for x in xs]))
        assert value == pytest.approx(comp.lambda_star, rel=1e-8), signs


def test_no_dense_array_reaches_the_symmetric_machinery(monkeypatch):
    # dense arrays of every even order take the stacked relaxation: none is
    # symmetrized or builds a SuperSymmetricTensor
    built = []
    original = SuperSymmetricTensor.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SuperSymmetricTensor, "__init__", spy)
    monkeypatch.setattr(extensions, "symmetrize",
                        lambda t: built.append(np.shape(t)))
    for shape in [(3, 4), (2, 3, 2, 2), (1, 1, 1, 1, 2, 2), (2, 1, 2, 1, 1, 2),
                  (1, 1, 1, 1, 1, 1, 1, 2)]:
        F = np.random.default_rng(0).standard_normal(shape)
        for method in ("sdp", "nnp"):
            assert solve_leading_pc(F, method)[0].certified, (shape, method)
    assert built == []
