import itertools
import math
import struct

import numpy as np
import pytest

from tensorpca import (SuperSymmetricTensor, canonical_index, class_size,
                       multinomial, enumerate_signatures, symmetrize,
                       eval_multilinear, eval_homogeneous, rank_one, inner,
                       identity_power, random_gaussian, random_uniform,
                       read_tensor, write_tensor)


def dense_eval(t, xs):
    # independent reference: contract one mode at a time
    out = np.asarray(t, dtype=float)
    for x in xs:
        out = np.tensordot(out, x, axes=([0], [0]))
    return float(out)


def test_canonical_index_sorts_and_checks_range():
    assert canonical_index((2, 0, 1), 3) == (0, 1, 2)
    assert canonical_index((1, 1), 2) == (1, 1)
    with pytest.raises(ValueError):
        canonical_index((0, 3), 3)
    with pytest.raises(ValueError):
        canonical_index((-1, 0), 3)


def test_class_size_matches_permutation_count():
    for idx in [(0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3), (1, 2, 2), (0,)]:
        assert class_size(idx) == len(set(itertools.permutations(idx)))


def test_multinomial_values_and_errors():
    assert multinomial(4, (4, 0, 0)) == 1
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(0, ()) == 1
    with pytest.raises(ValueError):
        multinomial(3, (2, 2))
    with pytest.raises(ValueError):
        multinomial(2, (3, -1))


def test_enumerate_signatures_lexicographic():
    assert enumerate_signatures(2, 2) == [(0, 2), (1, 1), (2, 0)]
    for n, d in [(2, 3), (3, 2), (4, 3)]:
        sigs = enumerate_signatures(n, d)
        assert sigs == sorted(sigs)
        assert all(sum(k) == d and len(k) == n for k in sigs)
        assert len(sigs) == math.comb(n + d - 1, d)
    with pytest.raises(ValueError):
        enumerate_signatures(0, 2)


def test_tensor_getitem_is_permutation_invariant():
    F = SuperSymmetricTensor(3, 3, {(0, 1, 2): 5.0, (0, 0, 1): -2.0})
    for perm in itertools.permutations((0, 1, 2)):
        assert F[perm] == 5.0
    assert F[1, 0, 0] == -2.0
    assert F[2, 2, 2] == 0.0  # absent class reads as zero
    for wrong_length in ((0, 1), (0, 1, 2, 2, 1)):
        with pytest.raises(ValueError):
            F[wrong_length]


def test_items_and_len_count_the_nonzero_classes_in_key_order():
    F = SuperSymmetricTensor(3, 2, {(2, 1): 4.0, (0, 0): 0.0, (1, 0): -1.5})
    assert list(F.items()) == [((0, 1), -1.5), ((1, 2), 4.0)]
    assert all(type(v) is float for _, v in F.items())
    assert len(F) == 2
    assert len(F - F) == 0 and list((F - F).items()) == []


def test_tensor_rejects_bad_entries():
    with pytest.raises(ValueError):
        SuperSymmetricTensor(2, 2, {(0, 1): 1.0, (1, 0): 2.0})
    with pytest.raises(ValueError):
        SuperSymmetricTensor(2, 2, {(0, 2): 1.0})
    with pytest.raises(ValueError):
        SuperSymmetricTensor(2, 2, {(0, 1, 1): 1.0})
    with pytest.raises(ValueError):
        SuperSymmetricTensor(0, 2)
    with pytest.raises(ValueError, match="not finite"):
        SuperSymmetricTensor(2, 2, {(0, 1): float("nan")})


def test_to_dense_is_symmetric_and_read_only():
    F = random_gaussian(3, 4, 11)
    t = F.to_dense()
    assert t.shape == (3, 3, 3, 3)
    for idx in itertools.product(range(3), repeat=4):
        assert t[idx] == F[idx]
    with pytest.raises(ValueError):
        t[0, 0, 0, 0] = 1.0


def test_arithmetic_matches_dense():
    F = random_gaussian(3, 4, 1)
    G = random_gaussian(3, 4, 2)
    np.testing.assert_allclose((F + G).to_dense(), F.to_dense() + G.to_dense())
    np.testing.assert_allclose((F - G).to_dense(), F.to_dense() - G.to_dense())
    np.testing.assert_allclose((2.5 * F).to_dense(), 2.5 * F.to_dense())
    np.testing.assert_allclose((F * 2.5).to_dense(), 2.5 * F.to_dense())
    # each entry adds the same two floats, so the sum is the dense sum bitwise
    assert np.array_equal((F + 0.25 * G).to_dense(),
                          F.to_dense() + 0.25 * G.to_dense())
    big = SuperSymmetricTensor(1, 2, {(0, 0): 1e308})
    with pytest.raises(ValueError, match="not finite"):
        big + big
    with pytest.raises(ValueError, match="not finite"):
        10.0 * big


def test_norm_matches_dense_frobenius():
    F = random_gaussian(4, 3, 5)
    assert F.norm() == pytest.approx(float(np.linalg.norm(F.to_dense())), rel=1e-13)


def test_symmetrize_projects_onto_symmetric_part():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 3, 3))
    S = symmetrize(t)
    dense = S.to_dense()
    for perm in itertools.permutations(range(3)):
        np.testing.assert_allclose(dense, dense.transpose(perm), atol=1e-14)
    # average over all axis permutations, computed directly
    direct = sum(t.transpose(p) for p in itertools.permutations(range(3))) / 6
    np.testing.assert_allclose(dense, direct, atol=1e-14)
    # idempotence
    np.testing.assert_allclose(symmetrize(dense).to_dense(), dense, atol=1e-14)


def test_symmetrize_preserves_homogeneous_values():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 3, 3, 3))
    S = symmetrize(t)
    for _ in range(20):
        x = rng.standard_normal(3)
        assert eval_homogeneous(S, x) == pytest.approx(dense_eval(t, [x] * 4),
                                                       rel=1e-12, abs=1e-12)


def test_eval_multilinear_matches_dense_reference():
    rng = np.random.default_rng(7)
    t = rng.standard_normal((2, 3, 4))
    xs = [rng.standard_normal(k) for k in t.shape]
    assert eval_multilinear(t, xs) == pytest.approx(dense_eval(t, xs), rel=1e-13)
    F = random_gaussian(3, 4, 9)
    ys = [rng.standard_normal(3) for _ in range(4)]
    assert eval_multilinear(F, ys) == pytest.approx(dense_eval(F.to_dense(), ys),
                                                    rel=1e-12)


def test_eval_homogeneous_matches_dense_reference():
    rng = np.random.default_rng(8)
    F = random_gaussian(4, 4, 3)
    for _ in range(20):
        x = rng.standard_normal(4)
        assert eval_homogeneous(F, x) == pytest.approx(
            dense_eval(F.to_dense(), [x] * 4), rel=1e-12, abs=1e-12)


def test_eval_multilinear_checks_arity():
    F = random_gaussian(3, 4, 0)
    with pytest.raises(ValueError):
        eval_multilinear(F, [np.ones(3)] * 3)


def test_rank_one_tensor_evaluates_as_power():
    rng = np.random.default_rng(12)
    a = rng.standard_normal(4)
    F = rank_one(2.0, a, 3)
    for _ in range(10):
        x = rng.standard_normal(4)
        assert eval_homogeneous(F, x) == pytest.approx(2.0 * float(a @ x) ** 3,
                                                       rel=1e-12)


def test_inner_matches_dense_inner_product():
    F = random_gaussian(3, 4, 21)
    G = random_gaussian(3, 4, 22)
    dense = float(np.sum(F.to_dense() * G.to_dense()))
    assert inner(F, G) == pytest.approx(dense, rel=1e-12)
    assert inner(F, F) == pytest.approx(F.norm() ** 2, rel=1e-12)


def test_identity_power_is_norm_power():
    rng = np.random.default_rng(31)
    for n, d in [(2, 1), (3, 2), (2, 3)]:
        S = identity_power(n, d)
        for _ in range(10):
            x = rng.standard_normal(n)
            assert eval_homogeneous(S, x) == pytest.approx(
                float(x @ x) ** d, rel=1e-12)


def test_random_generators_are_seeded_and_symmetric():
    F = random_gaussian(3, 4, 42)
    G = random_gaussian(3, 4, 42)
    assert dict(F.items()) == dict(G.items())
    assert dict(random_gaussian(3, 4, 43).items()) != dict(F.items())
    U = random_uniform(3, 3, 7)
    t = U.to_dense()
    np.testing.assert_allclose(t, t.transpose(1, 0, 2), atol=1e-14)


@pytest.mark.parametrize("maker", [random_gaussian, random_uniform])
@pytest.mark.parametrize("n, m", [(3, 0), (0, 2), (-1, 3)])
def test_random_generators_reject_empty_shapes(maker, n, m):
    with pytest.raises(ValueError, match="at least 1"):
        maker(n, m, 0)


def stored(F):
    # every stored class as (key, value bits, value type), in key order
    return [(k, struct.pack("d", v), type(v)) for k, v in sorted(F.items())]


@pytest.mark.parametrize("n, m", [(1, 2), (3, 4), (4, 3), (5, 2)])
def test_built_tensors_store_canonical_keys_and_python_floats(n, m, tmp_path):
    # symmetrize, rank_one and the reader skip the constructor's key sort;
    # what they store is what the constructor would store from the same rows
    rng = np.random.default_rng(n * m)
    a = rng.standard_normal(n)
    keys = list(itertools.combinations_with_replacement(range(n), m))
    S, R = symmetrize(rng.standard_normal((n,) * m)), rank_one(-1.5, a, m)
    for F in (S, R):
        assert [k for k, _ in sorted(F.items())] == keys
        assert stored(F) == stored(SuperSymmetricTensor(n, m, F.items()))
        assert all(type(v) is float for _, v in F.items())
    assert stored(R) == stored(SuperSymmetricTensor(n, m, {
        k: -1.5 * float(np.prod(a[list(k)])) for k in keys}))
    path = tmp_path / "s.tensor"
    write_tensor(path, S)
    loaded = read_tensor(path).data
    assert stored(loaded) == [row for row in stored(S) if row[1] != bytes(8)]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_built_tensors_refuse_non_finite_values(bad):
    t = np.zeros((2, 2, 2))
    t[0, 1, 1] = bad
    with pytest.raises(ValueError, match="not finite"):
        symmetrize(t)
    with pytest.raises(ValueError, match="not finite"):
        rank_one(bad, np.ones(2), 3)
    with pytest.raises(ValueError, match="not finite"):
        rank_one(1e300, np.full(2, 1e10), 3)
