"""The block-ascent kernel against the moveaxis/tensordot form it replaces.

`mbi_refine` takes each block gradient on mode unfoldings built once per
call: a symmetric tensor's dense array serves every mode, a general array
is copied once per mode.  The reference below is the earlier kernel, which
moved mode j to the front and let `np.tensordot` copy the whole target for
every gradient; both must give the same ascent, sweep for sweep.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tensorpca import (SuperSymmetricTensor, eval_homogeneous, eval_multilinear,
                       identity_power, random_gaussian, symmetrize)
from tensorpca import extraction
from tensorpca.extraction import (_ascend_with_restarts, _block_gradient,
                                  _refine_not_rank_one, _unfoldings, mbi_refine)
from tensorpca.tensors import _fix_sign, _unit


def reference_block_gradient(t, xs, j):
    out = np.moveaxis(t, j, 0)
    others = [xs[k] for k in range(len(xs)) if k != j]
    for x in reversed(others):
        out = np.tensordot(out, x, axes=([out.ndim - 1], [0]))
    return out


def reference_mbi(t, x0s, tol=1e-10, max_sweeps=1000):
    # (x, value, sweeps) of the earlier mbi_refine on a dense array
    m = t.ndim
    xs = [_unit(x) for x in x0s]
    value = eval_multilinear(t, xs)
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        previous = value
        for j in range(m):
            g = reference_block_gradient(t, xs, j)
            norm_g = float(np.linalg.norm(g))
            if norm_g == 0.0:
                continue
            xs[j] = g / norm_g
            value = norm_g
        if abs(value - previous) <= tol * abs(previous):
            break

    def homogeneous(x):
        return eval_multilinear(t, [x] * m)

    best = _fix_sign(t, max(xs, key=lambda x: max(homogeneous(x), homogeneous(-x))))
    return best, homogeneous(best), sweeps


def reference_fallback(F, x0, seed):
    # the earlier _refine_not_rank_one on the dense target F + c I, and the
    # sweep count of every ascent it ran
    n, m = F.n, F.m
    target = F.to_dense() + (F.norm() / 4.0) * identity_power(n, m // 2).to_dense()
    sweeps = []

    def ascend(x):
        x, _, count = reference_mbi(target, [x] * m)
        sweeps.append(count)
        return eval_homogeneous(F, x), x

    return _fix_sign(F, _ascend_with_restarts(ascend, (x0,), seed)), sweeps


@st.composite
def cubical_case(draw):
    # a symmetric or a general (n,)*m array, orders 2 to 6, n from 1 to 6,
    # and one start block per mode
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    raw = rng.standard_normal((n,) * m)
    t = symmetrize(raw) if draw(st.booleans()) else raw
    return t, [rng.standard_normal(n) for _ in range(m)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cubical_case())
def test_block_gradients_match_the_tensordot_kernel(case):
    t, xs = case
    symmetric = isinstance(t, SuperSymmetricTensor)
    dense = t.to_dense() if symmetric else t
    unfolded = _unfoldings(t, dense)
    for j in range(dense.ndim):
        g = _block_gradient(unfolded[j], xs, j)
        ref = reference_block_gradient(dense, xs, j)
        assert g.shape == ref.shape
        assert np.linalg.norm(g - ref) <= 1e-13 * np.linalg.norm(ref)
        if symmetric:
            assert unfolded[j] is dense  # no copy


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cubical_case())
def test_ascent_matches_the_tensordot_kernel(case):
    # odd orders included: the final pick reads f(-x) = -f(x) from f(x)
    t, xs = case
    dense = t.to_dense() if isinstance(t, SuperSymmetricTensor) else t
    result = mbi_refine(t, xs, max_sweeps=50)
    x, value, sweeps = reference_mbi(dense, xs, max_sweeps=50)
    assert result.sweeps == sweeps
    assert np.abs(result.x - x).max() <= 1e-12
    assert result.value == pytest.approx(value, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("n, m", [(6, 4), (10, 4), (4, 6)])
def test_fallback_matches_the_tensordot_kernel(monkeypatch, n, m):
    sweeps = []

    def recording(*args, **kwargs):
        result = mbi_refine(*args, **kwargs)
        sweeps.append(result.sweeps)
        return result

    monkeypatch.setattr(extraction, "mbi_refine", recording)
    for seed in range(10):
        F = random_gaussian(n, m, seed)
        x0 = _unit(np.random.default_rng(seed + 100).standard_normal(n))
        sweeps.clear()
        x = _refine_not_rank_one(F, x0, 0)
        x_ref, sweeps_ref = reference_fallback(F, x0, 0)
        assert np.abs(x - x_ref).max() <= 1e-12
        assert sweeps == sweeps_ref


def test_a_general_array_is_not_modified():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((4, 4, 4))
    kept = t.copy()
    mbi_refine(t, [rng.standard_normal(4) for _ in range(3)])
    assert np.array_equal(t, kept)
    assert t.flags.writeable


def test_symmetric_fallback_allocates_no_copy_of_its_target():
    # peak allocation inside the fallback: its target F + c I (one dense
    # array), the gradients' n**(m-1) intermediates and small change; a
    # transposed copy of the target per gradient would take it past 2x
    F = random_gaussian(8, 6, 1)
    F.to_dense()  # a solve densifies F before any fallback runs
    x0 = _unit(np.ones(8))
    tracemalloc.start()
    try:
        _refine_not_rank_one(F, x0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * F.to_dense().nbytes
