"""Closed-form building blocks of the ADMM iterations.

Three operators: projection onto the trace-one symmetric affine set,
singular-value shrinkage, and projection onto the PSD cone.  A fourth
variant projects onto the trace-one partial-symmetric set of an order-2d
array, fixed by the swaps of modes k and k + d.  Both affine projections
are one formula: average over the symmetry, then shift along the averaged
identity until the trace is one.

A relaxation fixed by a group of sign flips runs on its diagonal blocks: a
(B, s, s) stack, each block's rows padded with zero rows to the largest
size s (`stack_blocks` and `lift_blocks`).  The spectral operators act
on every matrix of a stack, with one batched eigendecomposition, and
`project_partial_C` has a block form.

The symmetric solvers run in moment coordinates: K x K matrices M in the
orthonormal basis B of Sym^d(R^n), K = C(n+d-1, d), whose column k is the
indicator of d-multiset class k divided by sqrt(c_k).  `lift_moment` maps
M to X = B M B^T, and `project_moment_C` is B^T project_C(B M B^T) B
computed on the K^2 entries.

The dual certificate of a rank-one point u u^T needs, for each affine set
with directions L, the normal Gram matrix T(u): the matrix of
y -> P(sym(y u^T)) u, P the orthogonal projection onto the complement of
L.  `moment_normal` and `partial_normal` give it in closed form.
"""

from __future__ import annotations

import functools
from functools import lru_cache
from math import comb

import numpy as np

from .matricize import _leading_factors, partial_symmetrize
from .tensors import _class_keys, _class_map, _class_of, multinomial

__all__ = [
    "alpha",
    "project_C",
    "project_moment_C",
    "lift_moment",
    "moment_point",
    "moment_normal",
    "shrink_nuclear",
    "project_psd",
    "project_partial_C",
    "partial_block_gathers",
    "stack_blocks",
    "lift_blocks",
    "partial_normal",
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
    classes and zero elsewhere.  Built from class keys: the diagonal
    position of row x is in the class of x doubled, pair[k, k] for the
    d-class k of x, so diag[pair[k, k]] = c_k, which is the multinomial
    d!/prod (mult/2)! of a class whose multiplicities mult are all even,
    and every other class has diag 0.
    """
    _, counts = _class_keys(n, 2 * d)
    _, _, pair, _ = _moment_tables(n, d)
    diag = np.zeros(len(counts))
    diag[pair.diagonal()] = _class_keys(n, d)[1]
    ibar = diag / counts
    for table in (diag, ibar):
        table.setflags(write=False)  # cached: shared by every caller
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
    _, counts = _class_keys(n, 2 * d)
    class_id = _class_map(n, 2 * d)
    zbar = np.bincount(class_id, weights=Z.ravel(), minlength=len(counts)) / counts
    diag, ibar, ibar_trace = _trace_classes(n, d)
    xvals = zbar + (1.0 - float(diag @ zbar)) / ibar_trace * ibar
    return xvals[class_id].reshape(size, size)


@lru_cache(maxsize=None)
def _moment_tables(n: int, d: int):
    """(cid, root, pair, w): the moment basis at a given (n, d).

    cid maps each of the n**d rows to its d-multiset class (the (n, d)
    dense class map), root[k] = sqrt(c_k), pair[k, l] is the 2d-class of
    the union of classes k and l, and w = outer(root, root).  Classes are
    in the lexicographic key order of `tensors._class_keys`, and pair
    ranks the K^2 merged keys directly, so no n**(2d) table is built.
    """
    keys, counts = _class_keys(n, d)
    a = np.array(keys).T
    merged = np.concatenate(np.broadcast_arrays(a[:, :, None], a[:, None, :]))
    merged.sort(axis=0)
    pair = _class_of(merged, n)
    root = np.sqrt(counts)
    tables = (root, pair, np.outer(root, root))
    for table in tables:
        table.setflags(write=False)  # cached: shared by every caller
    return (_class_map(n, d), *tables)


@lru_cache(maxsize=None)
def _flat_pair(n: int, d: int) -> np.ndarray:
    # pair.ravel() for np.bincount, which copies a read-only index on every
    # call: so this cached copy stays writable, and no caller writes it
    return _moment_tables(n, d)[2].ravel().copy()


def moment_class_values(M: np.ndarray, n: int, d: int) -> np.ndarray:
    """The class average of B M B^T: one value per 2d-class.

    zbar_s = sum over k u l = s of M_kl w_kl / count_s, the first step of
    project_moment_C.  On its output xvals[pair] * w this gives back xvals,
    which `xvals[pair] * w` lifts to M and `xvals[class_id]` to B M B^T.
    """
    M = np.asarray(M, dtype=float)
    w = _moment_tables(n, d)[3]
    if M.shape != w.shape:
        raise ValueError(f"expected a {len(w)}x{len(w)} matrix, got {M.shape}")
    _, counts = _class_keys(n, 2 * d)
    return np.bincount(_flat_pair(n, d), weights=(M * w).ravel(),
                       minlength=len(counts)) / counts


def lift_moment(M: np.ndarray, n: int, d: int) -> np.ndarray:
    """B M B^T for a K x K moment matrix M, or B M for a length-K vector."""
    cid, root, _, w = _moment_tables(n, d)
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        return (M / root)[cid]
    return (M / w)[np.ix_(cid, cid)]


def moment_point(x: np.ndarray, n: int, d: int) -> np.ndarray:
    """B^T vec(x^(x)d): the rank-one feasible point of a unit x, as a K-vector.

    Entry k is sqrt(c_k) times the monomial of class k, so u u^T is the
    moment matrix of x^(x)d x^(x)d and u^T C_K u = F(x).
    """
    cid, root, _, _ = _moment_tables(n, d)
    power = np.asarray(x, dtype=float)
    for _ in range(d - 1):
        power = np.multiply.outer(power, x)
    return np.bincount(cid, weights=power.ravel(), minlength=len(root)) / root


@lru_cache(maxsize=None)
def _moment_normal_tables(n: int, d: int):
    """(B, J, weights) for `moment_normal` at a given (n, d).

    B is the orthonormal basis as an (n,)*d + (K,) array, J = A(I) / |A(I)|
    the unit averaged identity in moment coordinates, and weights[j] =
    C(d, j)^2 / C(2d, d), the share of the placements of d indices among
    2d slots that put j of them in the last d.
    """
    cid, root, pair, w = _moment_tables(n, d)
    B = np.zeros((n ** d, len(root)))
    B[np.arange(n ** d), cid] = 1.0 / root[cid]
    _, ibar, ibar_trace = _trace_classes(n, d)
    J = ibar[pair] * w / np.sqrt(ibar_trace)
    weights = np.array([comb(d, j) ** 2 for j in range(d + 1)]) / comb(2 * d, d)
    tables = (B.reshape((n,) * d + (len(root),)), J, weights)
    for table in tables:
        table.setflags(write=False)  # cached: shared by every caller
    return tables


def moment_normal(u: np.ndarray, n: int, d: int) -> np.ndarray:
    """T(u) for the moment set at u = B^T vec(x^(x)d), x a unit vector.

    The matrix of y -> P(sym(y u^T)) u, with P(M) = M - A(M) + <M, J> J
    for the class average A and the unit averaged identity J (the
    complement of L is the complement of the symmetric set plus the line
    of J).  Averaging a (x) x^(x)d over the placements of a's d indices
    among 2d slots, then contracting the last d slots with x, leaves
    sum_j weights[j] (a x^j) (x) x^(x)j, j the slots of a among the last
    d.  So A(sym(y u^T)) u = sum_j weights[j] R_j^T R_j y with R_j = B
    contracted with x on j modes (R_0^T R_0 = I, R_d = u^T), and
    T(u) = (I + u u^T)/2 - sum_j weights[j] R_j^T R_j + (J u)(J u)^T.
    x x^T is read off u's lift, whose n x n**(d-1) reshape is x (x) x^(d-1).
    """
    B, J, weights = _moment_normal_tables(n, d)
    K = len(u)
    lifted = lift_moment(u, n, d).reshape(n, -1)
    P = lifted @ lifted.T
    i = int(np.argmax(P.diagonal()))
    x = P[:, i] / np.sqrt(P[i, i])
    Ju = J @ u
    T = np.outer(Ju, Ju) + (0.5 - weights[d]) * np.outer(u, u)
    T.flat[::K + 1] += 0.5 - weights[0]
    R = B
    for j in range(1, d):
        R = x @ R.reshape(n, -1)  # one more mode contracted with x
        R = R.reshape(-1, K)
        T -= weights[j] * (R.T @ R)
    return T


def project_moment_C(M: np.ndarray, n: int, d: int) -> np.ndarray:
    """project_C in moment coordinates: B^T project_C(B M B^T, n, d) B.

    project_C's shift applied to the class average `moment_class_values`,
    read back as xvals_s w_kl.  B is an isometry, so distances are those
    of project_C.
    """
    _, _, pair, w = _moment_tables(n, d)
    zbar = moment_class_values(M, n, d)
    diag, ibar, ibar_trace = _trace_classes(n, d)
    xvals = zbar + (1.0 - float(diag @ zbar)) / ibar_trace * ibar
    return xvals[pair] * w


def shrink_nuclear(M: np.ndarray, tau: float) -> np.ndarray:
    """Soft-threshold the singular values of a symmetric matrix by tau.

    Unique minimizer of tau*||Y||_* + 0.5*||Y - M||_F^2.  For symmetric M
    the SVD is realized through the eigendecomposition: the singular values
    are |eig| and the sign folds into the left factor.  A (B, s, s) stack
    is shrunk matrix by matrix.
    """
    if tau < 0:
        raise ValueError("shrinkage threshold must be nonnegative")
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.swapaxes(-1, -2)))
    shrunk = np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)
    return (V * shrunk[..., None, :]) @ V.swapaxes(-1, -2)


def project_psd(M: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm.

    Eigendecompose and clip negative eigenvalues at exactly zero.  A
    (B, s, s) stack is projected matrix by matrix.
    """
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.swapaxes(-1, -2)))
    return (V * np.maximum(w, 0.0)[..., None, :]) @ V.swapaxes(-1, -2)


def stack_blocks(M: np.ndarray, blocks) -> np.ndarray:
    """The diagonal blocks of M on the rows `blocks` lists, as a stack.

    Block b is M[rows, rows] for rows = blocks[b], in the order given,
    padded with zero rows and columns to the largest block's size.
    """
    M = np.asarray(M, dtype=float)
    size = max(len(rows) for rows in blocks)
    out = np.zeros((len(blocks), size, size))
    for b, rows in enumerate(blocks):
        out[b, :len(rows), :len(rows)] = M[np.ix_(rows, rows)]
    return out


def lift_blocks(S: np.ndarray, blocks) -> np.ndarray:
    """The N x N matrix with the diagonal blocks of stack S, zero elsewhere.

    The inverse of `stack_blocks` on block-diagonal matrices; `blocks`
    partitions the N rows.
    """
    size = sum(len(rows) for rows in blocks)
    out = np.zeros((size, size))
    for b, rows in enumerate(blocks):
        out[np.ix_(rows, rows)] = S[b, :len(rows), :len(rows)]
    return out


def partial_block_gathers(dims, blocks):
    """Flat gathers that run project_partial_C on a stack of diagonal blocks.

    `blocks` splits the N = prod(dims) rows by the signs of sign flips of
    the factors, so each swap of modes (k, k + d) maps an entry of a
    diagonal block into a diagonal block.  Returns (swaps, diagonal,
    padding): per swap the flat stack position of each entry's image (a
    padding entry maps to itself), the N real diagonal entries' positions,
    and the padding's.  ValueError when a swap leaves the blocks.
    """
    size = max(len(rows) for rows in blocks)
    block_of = np.full(int(np.prod(dims)), -1)
    position = np.zeros(block_of.size, dtype=np.intp)
    for b, rows in enumerate(blocks):
        block_of[rows], position[rows] = b, np.arange(len(rows))
    if (block_of < 0).any():
        raise ValueError("blocks must cover every row")
    flat = np.arange(len(blocks) * size * size).reshape(len(blocks), size, size)
    swaps = [flat.copy() for _ in dims]
    real = np.zeros(flat.shape, dtype=bool)
    strides = np.cumprod([1, *dims[:0:-1]])[::-1]
    for b, rows in enumerate(blocks):
        k, r = len(rows), np.asarray(rows)
        for digit, stride, out in zip(np.unravel_index(r, dims), strides, swaps):
            # row and column trade their index in this mode
            step = (digit[None, :] - digit[:, None]) * stride
            row, col = r[:, None] + step, r[None, :] - step
            if (block_of[row] != block_of[col]).any():
                raise ValueError("the blocks are not fixed by the swaps")
            out[b, :k, :k] = flat[block_of[row], position[row], position[col]]
        real[b, :k, :k] = True
    diagonal = np.concatenate([flat[b].diagonal()[:len(rows)]
                               for b, rows in enumerate(blocks)])
    return tuple(s.ravel() for s in swaps), diagonal, flat[~real]


def project_partial_C(Z: np.ndarray, dims, gathers=None) -> np.ndarray:
    """Nearest N x N matrix whose tensor is partial-symmetric with unit trace.

    N = prod(dims).  The formula of project_C, X = P(Z) + (1 - tr P(Z)) /
    tr P(I) * P(I), with P = partial_symmetrize, which fixes I, so the
    shift is uniform: average, then move the diagonal by (1 - trace)/N.
    With the `gathers` of `partial_block_gathers`, Z is the stack of a
    block-diagonal matrix's blocks, and the result is that of the lifted
    Z, stacked, with its padding zero.
    """
    Z = np.asarray(Z, dtype=float)
    size = int(np.prod(dims))
    if gathers is not None:
        swaps, diagonal, padding = gathers
        if Z.size != swaps[0].size:
            raise ValueError(f"expected a stack of {swaps[0].size} entries, "
                             f"got {Z.shape}")
        x = Z.ravel()
        for swap in swaps:
            x = 0.5 * (x + x[swap])
        x[diagonal] += (1.0 - float(x[diagonal].sum())) / size
        x[padding] = 0.0
        return x.reshape(Z.shape)
    if Z.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got {Z.shape}")
    X = partial_symmetrize(Z.reshape(*dims, *dims)).reshape(size, size)
    X.flat[::size + 1] += (1.0 - float(np.trace(X))) / size
    return X


def partial_normal(u: np.ndarray, dims) -> np.ndarray:
    """T(u) for the partial-symmetric set at u = vec(a_1 (x) ... (x) a_d).

    The N x N matrix of y -> P(sym(y u^T)) u, unit a_k, with P(M) = M -
    partial_symmetrize(M) + tr(M) I / N.  Swapping the modes in a set S
    maps y u^T, applied to u, to y with each mode in S projected onto its
    a_k, so averaging over the 2^d sets gives T(u) = (I + u u^T)/2 -
    (x)_k (I + a_k a_k^T)/2 + u u^T / N.  It vanishes on the tangent
    directions of the rank-one points.
    """
    average = functools.reduce(np.kron, [0.5 * (np.eye(len(a)) + np.outer(a, a))
                                         for a in _leading_factors(u, dims)])
    return (0.5 * (np.eye(u.size) + np.outer(u, u)) - average
            + np.outer(u, u) / u.size)
