"""Reshaping maps between tensors, matrices and vectors, plus rank diagnostics.

The square matricization of an even-order cubical tensor splits the 2d
indices into a leading and a trailing half, each enumerated in row-major
order; vectorization enumerates all indices row-major.  Both are therefore
plain C-order reshapes, which the tests cross-check against the explicit
index formulas.

Each symmetry is averaged in one place: over permutation classes with
`tensors._class_map` (as `tensors.symmetrize` and `is_super_symmetric`
do), and over the swaps of modes k and k + d of an order-2d array with
`partial_symmetrize`, next to `is_partial_symmetric` and `matr_partial`.
The trace-one projections in `projection` average with these.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from .tensors import (SuperSymmetricTensor, _canonical_sign, _class_keys,
                      _class_map, _unit)

__all__ = [
    "matr",
    "matr_inv",
    "vect",
    "vect_inv",
    "is_super_symmetric",
    "is_partial_symmetric",
    "partial_symmetrize",
    "rank_one_ratio",
    "matr_partial",
    "mode_n_unfold",
]


def matr(f: SuperSymmetricTensor) -> np.ndarray:
    """Square matricization of an even-order tensor to an n**d x n**d matrix.

    The result is symmetric because f is, and its trace equals the
    multinomial-weighted sum of the even-diagonal entries of f.
    """
    if f.m % 2:
        raise ValueError("square matricization needs an even order")
    d = f.m // 2
    size = f.n ** d
    return np.array(f.to_dense().reshape(size, size))


def matr_inv(X: np.ndarray, n: int, d: int) -> np.ndarray:
    """Inverse of matr: reshape an n**d x n**d matrix to an order-2d array.

    The output is a general dense array; it is symmetric exactly when X
    lies in the image of matr on symmetric tensors (use is_super_symmetric
    to test feasibility).
    """
    X = np.asarray(X, dtype=float)
    size = n ** d
    if X.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {X.shape}")
    return X.reshape((n,) * (2 * d))


def vect(t) -> np.ndarray:
    """Row-major vectorization of a tensor (or SuperSymmetricTensor)."""
    if isinstance(t, SuperSymmetricTensor):
        t = t.to_dense()
    return np.asarray(t, dtype=float).reshape(-1)


def vect_inv(v: np.ndarray, dims: Tuple[int, ...]) -> np.ndarray:
    """Inverse of vect for the given mode sizes."""
    v = np.asarray(v, dtype=float)
    if v.size != int(np.prod(dims)):
        raise ValueError(f"length {v.size} does not factor as {dims}")
    return v.reshape(dims)


def is_super_symmetric(t: np.ndarray, tol: float = 1e-12):
    """Whether a cubical array is permutation-invariant within `tol`.

    Returns (flag, max_violation) where the violation is the largest
    absolute deviation of an entry from its class mean.
    """
    t = np.asarray(t, dtype=float)
    if len(set(t.shape)) != 1:
        raise ValueError(f"cubical array required, got shape {t.shape}")
    n, m = t.shape[0], t.ndim
    _, counts = _class_keys(n, m)
    class_id = _class_map(n, m)
    flat = t.ravel()
    means = np.bincount(class_id, weights=flat, minlength=len(counts)) / counts
    violation = float(np.max(np.abs(flat - means[class_id])))
    return violation <= tol, violation


def _rank_one_eig(X: np.ndarray):
    # rank_one_ratio plus the eigenvalues, from the same eigendecomposition

    X = np.asarray(X, dtype=float)
    w, V = np.linalg.eigh(0.5 * (X + X.T))
    mags = np.abs(w)
    order = np.argsort(mags)[::-1]
    s1 = mags[order[0]]
    if s1 == 0.0:
        raise ValueError("zero matrix has no rank-one ratio")
    s2 = mags[order[1]] if X.shape[0] > 1 else 0.0
    return w, s2 / s1, float(w[order[0]]), _canonical_sign(V[:, order[0]].copy())


def rank_one_ratio(X: np.ndarray):
    """Second-to-first singular value ratio and leading eigenpair of X.

    For a symmetric matrix the singular values are the absolute eigenvalues,
    so one eigendecomposition suffices.  The returned eigenvector has its
    largest-magnitude component positive.
    """
    _, ratio, value, vec = _rank_one_eig(X)
    return ratio, (value, vec)


def _leading_factors(v: np.ndarray, dims):
    # unit factors of a near rank-one v over `dims`, robust to small
    # asymmetry: v's leading left singular vector, then its right one's
    factors = []
    for rows in dims[:-1]:
        u, _, vt = np.linalg.svd(np.reshape(v, (rows, -1)), full_matrices=False)
        factors.append(_unit(u[:, 0]))
        v = vt[0]
    return (*factors, _unit(v))


def _outer(xs) -> np.ndarray:
    # vec(x_1 (x) ... (x) x_d), which `_leading_factors` splits
    return functools.reduce(np.multiply.outer, xs).ravel()


def _partial_order(g: np.ndarray) -> int:
    # d for an (s_1..s_d, s_1..s_d) array
    d = g.ndim // 2
    if g.ndim == 0 or g.ndim % 2 or g.shape[:d] != g.shape[d:]:
        raise ValueError(f"expected an (s_1..s_d, s_1..s_d) array, got {g.shape}")
    return d


def is_partial_symmetric(g: np.ndarray, tol: float = 1e-12):
    """Whether an order-2d g is invariant under each swap of modes (k, k + d)."""
    g = np.asarray(g, dtype=float)
    d = _partial_order(g)
    violation = max(float(np.max(np.abs(g - g.swapaxes(k, k + d))))
                    for k in range(d))
    return violation <= tol, violation


def partial_symmetrize(t: np.ndarray) -> np.ndarray:
    """Average an order-2d array over the 2^d products of the swaps (k, k + d).

    The orthogonal projection onto the partial-symmetric arrays.  Averaged
    one swap at a time so the result is bitwise invariant under every swap
    (float addition commutes even though it does not associate).
    """
    t = np.asarray(t, dtype=float)
    d = _partial_order(t)
    for k in range(d):
        t = 0.5 * (t + t.swapaxes(k, k + d))
    return t


def matr_partial(g: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Square rearrangement of an (s_1..s_d, s_1..s_d) partial-symmetric array.

    A C-order reshape to N x N, N = s_1 ... s_d.  The matrix transpose
    swaps every pair of modes (k, k + d), which partial symmetry leaves
    invariant, so the output is symmetric; inputs violating partial
    symmetry beyond `tol` are rejected.
    """
    g = np.asarray(g, dtype=float)
    ok, violation = is_partial_symmetric(g, tol)
    if not ok:
        raise ValueError(f"partial symmetry violated by {violation:.3e}")
    size = int(np.prod(g.shape[:g.ndim // 2]))
    return g.reshape(size, size)


def mode_n_unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-`mode` unfolding: rows indexed by the mode, columns by the rest.

    Columns enumerate the remaining indices with the first remaining index
    varying fastest.
    """
    t = np.asarray(t, dtype=float)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order {t.ndim}")
    return np.reshape(np.moveaxis(t, mode, 0), (t.shape[mode], -1), order="F")
