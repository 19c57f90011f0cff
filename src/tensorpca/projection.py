"""Closed-form building blocks of the ADMM iterations.

Three operators: projection onto the trace-one symmetric affine set,
singular-value shrinkage, and projection onto the PSD cone.  A fourth
variant projects onto the trace-one partial-symmetric set used by the
bi-quadratic solver.  Both affine projections are one formula: average
over the symmetry, then shift along the averaged identity until the trace
is one.

The symmetric solvers run in moment coordinates: K x K matrices M in the
orthonormal basis B of Sym^d(R^n), K = C(n+d-1, d), whose column k is the
indicator of d-multiset class k divided by sqrt(c_k).  `lift_moment` maps
M to X = B M B^T, and `project_moment_C` is B^T project_C(B M B^T) B
computed on the K^2 entries.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .matricize import partial_symmetrize
from .tensors import _class_table, multinomial

__all__ = [
    "alpha",
    "project_C",
    "project_moment_C",
    "lift_moment",
    "shrink_nuclear",
    "project_psd",
    "project_partial_C",
]


def alpha(k, d: int) -> float:
    """Diagonal-class weight (d!/prod k_j!) / ((2d)!/prod (2k_j)!).

    Strictly positive for every signature k summing to d.
    """
    doubled = tuple(2 * int(v) for v in k)
    return multinomial(d, k) / multinomial(2 * d, doubled)


@lru_cache(maxsize=None)
def _trace_classes(n: int, d: int):
    """(diag, ibar, tr ibar) for project_C at a given (n, d).

    diag[c] counts the diagonal positions of the n**d x n**d matrix in
    class c, and ibar = diag/counts is the identity averaged over each
    class: matr(identity_power(n, d)), alpha(k, d) on the even-diagonal
    classes and zero elsewhere.
    """
    keys, class_id, counts = _class_table(n, 2 * d)
    diag = np.bincount(class_id[::n ** d + 1], minlength=len(keys)).astype(float)
    ibar = diag / counts
    return diag, ibar, float(diag @ ibar)


def project_C(Z: np.ndarray, n: int, d: int) -> np.ndarray:
    """Nearest matrix to Z whose tensor is symmetric with unit trace.

    X = P(Z) + (1 - tr P(Z)) / tr P(I) * P(I), with P the class average
    (the orthogonal projector onto the symmetric tensors) and P(I) the
    averaged identity.  Computed on one value per permutation class.
    """
    Z = np.asarray(Z, dtype=float)
    size = n ** d
    if Z.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {Z.shape}")
    keys, class_id, counts = _class_table(n, 2 * d)
    zbar = np.bincount(class_id, weights=Z.ravel(), minlength=len(keys)) / counts
    diag, ibar, ibar_trace = _trace_classes(n, d)
    xvals = zbar + (1.0 - float(diag @ zbar)) / ibar_trace * ibar
    return xvals[class_id].reshape(size, size)


@lru_cache(maxsize=None)
def _moment_tables(n: int, d: int):
    """(cid, rep, root, pair, w): the moment basis at a given (n, d).

    cid maps each of the n**d rows to its d-multiset class, rep[k] is the
    first row of class k, root[k] = sqrt(c_k), pair[k, l] is the 2d-class
    of the union of classes k and l, and w = outer(root, root).
    """
    _, cid, counts = _class_table(n, d)
    rep = np.unique(cid, return_index=True)[1]
    _, class_id, _ = _class_table(n, 2 * d)
    size = n ** d
    pair = class_id.reshape(size, size)[np.ix_(rep, rep)]
    root = np.sqrt(counts)
    tables = (rep, root, pair, np.outer(root, root))
    for table in tables:
        table.setflags(write=False)  # cached: shared by every caller
    return (cid, *tables)


def moment_class_values(M: np.ndarray, n: int, d: int) -> np.ndarray:
    """The class average of B M B^T: one value per 2d-class.

    zbar_s = sum over k u l = s of M_kl w_kl / count_s, the first step of
    project_moment_C.  On its output xvals[pair] * w this gives back xvals,
    which `xvals[pair] * w` lifts to M and `xvals[class_id]` to B M B^T.
    """
    M = np.asarray(M, dtype=float)
    _, _, _, pair, w = _moment_tables(n, d)
    if M.shape != w.shape:
        raise ValueError(f"expected a {len(w)}x{len(w)} matrix, got {M.shape}")
    _, _, counts = _class_table(n, 2 * d)
    return np.bincount(pair.ravel(), weights=(M * w).ravel(),
                       minlength=len(counts)) / counts


def lift_moment(M: np.ndarray, n: int, d: int) -> np.ndarray:
    """B M B^T for a K x K moment matrix M, or B M for a length-K vector."""
    cid, _, root, _, w = _moment_tables(n, d)
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        return (M / root)[cid]
    return (M / w)[np.ix_(cid, cid)]


def project_moment_C(M: np.ndarray, n: int, d: int) -> np.ndarray:
    """project_C in moment coordinates: B^T project_C(B M B^T, n, d) B.

    project_C's shift applied to the class average `moment_class_values`,
    read back as xvals_s w_kl.  B is an isometry, so distances are those
    of project_C.
    """
    _, _, _, pair, w = _moment_tables(n, d)
    zbar = moment_class_values(M, n, d)
    diag, ibar, ibar_trace = _trace_classes(n, d)
    xvals = zbar + (1.0 - float(diag @ zbar)) / ibar_trace * ibar
    return xvals[pair] * w


def shrink_nuclear(M: np.ndarray, tau: float) -> np.ndarray:
    """Soft-threshold the singular values of a symmetric matrix by tau.

    Unique minimizer of tau*||Y||_* + 0.5*||Y - M||_F^2.  For symmetric M
    the SVD is realized through the eigendecomposition: the singular values
    are |eig| and the sign folds into the left factor.
    """
    if tau < 0:
        raise ValueError("shrinkage threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    shrunk = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
    return (V * shrunk) @ V.T


def project_psd(M: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm.

    Eigendecompose and clip negative eigenvalues at exactly zero.
    """
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    return (V * np.maximum(w, 0.0)) @ V.T


def project_partial_C(Z: np.ndarray, n: int, m: int) -> np.ndarray:
    """Nearest nm x nm matrix whose tensor is partial-symmetric with unit trace.

    The same formula as project_C, X = P(Z) + (1 - tr P(Z)) / tr P(I) * P(I),
    with P = partial_symmetrize.  Every diagonal position (i, j, i, j) is
    fixed by both swaps, so P(I) = I and the shift is uniform: average,
    then move the diagonal by (1 - trace)/(nm).
    """
    Z = np.asarray(Z, dtype=float)
    size = n * m
    if Z.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {Z.shape}")
    X = partial_symmetrize(Z.reshape(n, m, n, m)).reshape(size, size)
    X.flat[::size + 1] += (1.0 - float(np.trace(X))) / size
    return X
