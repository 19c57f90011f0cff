"""Symmetric tensors stored by permutation class, and the combinatorics around them.

A tensor that is invariant under every permutation of its indices is fully
determined by one value per sorted index tuple.  This module provides that
canonical storage, one array of those values in the tuples' lexicographic
order, the multinomial bookkeeping needed elsewhere, and the basic form
evaluations (multilinear and homogeneous).

Indices are 0-based throughout the in-memory API.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "SuperSymmetricTensor",
    "canonical_index",
    "class_size",
    "multinomial",
    "enumerate_signatures",
    "symmetrize",
    "eval_multilinear",
    "eval_homogeneous",
    "rank_one",
    "inner",
    "identity_power",
    "random_gaussian",
    "random_uniform",
]

Index = Tuple[int, ...]


@lru_cache(maxsize=None)
def _class_keys(n: int, m: int):
    """(keys, counts): the permutation classes of an (n,)*m index space.

    `keys` lists the canonical (sorted) index tuples in lexicographic
    order, as `itertools.combinations_with_replacement` yields them, and
    `counts[c]` is the number of distinct permutations of keys[c], the
    multinomial m!/prod(mult!).  Both have C(n+m-1, m) entries, so a caller
    that reads no dense array needs only these: `rank_one`, `inner`,
    `items` and the moment tables of `projection`.
    """
    keys = list(itertools.combinations_with_replacement(range(n), m))
    a = np.array(keys).T
    # each prefix's multinomial is an integer, so the products stay exact
    counts = run = np.ones(len(keys), dtype=np.intp)
    for j in range(1, m):
        run = np.where(a[j] == a[j - 1], run + 1, 1)
        counts = counts * (j + 1) // run
    counts.setflags(write=False)  # cached: shared by every caller
    return keys, counts


def _class_of(a: np.ndarray, n: int) -> np.ndarray:
    """Position in `_class_keys` order of each sorted index tuple in `a`.

    The tuples run along axis 0, a_0 <= ... <= a_{m-1} < n.  Lexicographic
    order is the reverse colex order of the mirror b_j = n-1-a_{m-1-j},
    and the colex rank of a sorted b is sum_j C(b_j + j, j + 1), the
    combinatorial number system on the strictly increasing b_j + j (Knuth,
    TAOCP 4A, 7.2.1.3): m table lookups per tuple, no sort of the tuples.
    """
    m = len(a)
    rank = np.full(a.shape[1:], math.comb(n + m - 1, m) - 1, dtype=np.intp)
    for j in range(m):
        rank -= np.array([math.comb(n - 1 - v + j, j + 1)
                          for v in range(n)])[a[m - 1 - j]]
    return rank


@lru_cache(maxsize=None)
def _class_map(n: int, m: int) -> np.ndarray:
    """Class of every row-major flat index of a dense (n,)*m array.

    An n**m table, so only the dense paths build it: dense input
    (`symmetrize`, hence `random_gaussian`, `random_uniform` and
    `identity_power`), `SuperSymmetricTensor.to_dense`, `SolveReport.X`
    and the reference paths (`matr`, `project_C`, `is_super_symmetric`).
    """
    a = np.indices((n,) * m, dtype=np.min_scalar_type(n - 1)).reshape(m, -1)
    a.sort(axis=0)
    # cached and shared, yet left writable: np.bincount copies a read-only
    # index array, an n**m copy in every dense average
    return _class_of(a, n)


def canonical_index(idx: Sequence[int], n: int) -> Index:
    """Sort `idx` non-decreasingly after checking every component is in 0..n-1."""
    key = tuple(sorted(int(i) for i in idx))
    if key and (key[0] < 0 or key[-1] >= n):
        raise ValueError(f"index {tuple(idx)} out of range for dimension {n}")
    return key


def class_size(idx: Sequence[int]) -> int:
    """Number of distinct permutations of `idx`: m!/prod(count_j!)."""
    m = len(idx)
    size = math.factorial(m)
    for c in Counter(idx).values():
        size //= math.factorial(c)
    return size


def multinomial(d: int, k: Sequence[int]) -> int:
    """d!/prod(k_j!) for a signature k with sum(k) = d."""
    k = tuple(int(v) for v in k)
    if any(v < 0 for v in k) or sum(k) != d:
        raise ValueError(f"signature {k} does not sum to {d}")
    out = math.factorial(d)
    for v in k:
        out //= math.factorial(v)
    return out


def enumerate_signatures(n: int, d: int) -> list:
    """All n-tuples of non-negative integers summing to d, lexicographically."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    out = []

    def rec(prefix: Index, remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            rec(prefix + (v,), remaining - v, slots - 1)

    rec((), d, n)
    return out


class SuperSymmetricTensor:
    """Order-m, dimension-n tensor invariant under all index permutations.

    Stored as one float64 value per permutation class, a read-only array in
    the key order of `_class_keys`; reading any permuted index returns its
    class's value, 0 for a class no entry names.  Values are immutable after
    construction, so instances may be shared freely across threads.

    Parameters
    ----------
    n : int
        Dimension of every mode.
    m : int
        Tensor order.
    values : mapping or iterable of (index, value), optional
        Entries to store.  Indices are canonicalized; two entries landing in
        the same class, or a nan or inf value, is an error.
    """

    __slots__ = ("n", "m", "_classes", "_dense")

    def __init__(self, n: int, m: int,
                 values: Union[Mapping, Iterable, None] = None):
        if n < 1 or m < 1:
            raise ValueError("dimension and order must be positive")
        self.n = int(n)
        self.m = int(m)
        stored: dict = {}
        if values is not None:
            items = values.items() if isinstance(values, Mapping) else values
            for idx, v in items:
                key = canonical_index(idx, self.n)
                if len(key) != self.m:
                    raise ValueError(f"index {idx} has {len(key)} components, "
                                     f"expected {self.m}")
                if key in stored:
                    raise ValueError(f"duplicate entry for class {key}")
                stored[key] = float(v)
                if not math.isfinite(stored[key]):
                    raise ValueError(f"entry {key} is not finite: {stored[key]}")
        self._classes = _class_array(self.n, self.m, stored.items())
        self._classes.setflags(write=False)
        self._dense = None

    def __getitem__(self, idx) -> float:
        key = canonical_index(idx, self.n)
        if len(key) != self.m:
            raise ValueError(f"index {tuple(idx)} has {len(key)} components, "
                             f"expected {self.m}")
        return float(self._classes[_class_of(np.array(key), self.n)])

    def items(self) -> Iterator:
        """Iterate (canonical index, float) over nonzero classes, in key order."""
        keys, _ = _class_keys(self.n, self.m)
        nonzero = np.flatnonzero(self._classes)
        return zip([keys[c] for c in nonzero], self._classes[nonzero].tolist())

    def __len__(self) -> int:
        """Count the nonzero classes."""
        return int(np.count_nonzero(self._classes))

    def to_dense(self) -> np.ndarray:
        """Dense (n,)*m array; computed once and cached."""
        if self._dense is None:
            self._dense = self._classes[_class_map(self.n, self.m)].reshape(
                (self.n,) * self.m)
            self._dense.setflags(write=False)
        return self._dense

    def norm(self) -> float:
        """Frobenius norm over the full index space."""
        return math.sqrt(inner(self, self))

    def __add__(self, other):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("shape mismatch")
        with np.errstate(over="ignore"):  # an overflow is refused as inf
            return _with_classes(self.n, self.m, self._classes + other._classes)

    def __sub__(self, other):
        return self + -1.0 * other

    def __mul__(self, scalar):
        with np.errstate(over="ignore", invalid="ignore"):
            return _with_classes(self.n, self.m, float(scalar) * self._classes)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (f"SuperSymmetricTensor(n={self.n}, m={self.m}, "
                f"classes={len(self)})")


def _with_classes(n: int, m: int, classes: np.ndarray) -> SuperSymmetricTensor:
    # the (n, m) tensor holding `classes`, a fresh float64 array of one
    # value per class in `_class_keys` order, which it makes read-only:
    # the constructor's finiteness check, on the array
    if not np.isfinite(classes).all():
        c = int(np.argmin(np.isfinite(classes)))
        raise ValueError(f"entry {_class_keys(n, m)[0][c]} is not finite: {classes[c]}")
    classes.setflags(write=False)
    out = SuperSymmetricTensor.__new__(SuperSymmetricTensor)
    out.n, out.m, out._classes, out._dense = n, m, classes, None
    return out


def _class_array(n: int, m: int, rows) -> np.ndarray:
    # one value per class in `_class_keys` order, 0 where no row names it,
    # from (key, value) rows with distinct canonical keys of length m;
    # ranked by `_class_of`, so no table of every class is built
    classes = np.zeros(math.comb(n + m - 1, m))
    if rows:
        keys, values = zip(*rows)
        a = np.fromiter(itertools.chain.from_iterable(keys), np.intp, m * len(keys))
        classes[_class_of(a.reshape(-1, m).T, n)] = values
    return classes


def _from_rows(n: int, m: int, rows) -> SuperSymmetricTensor:
    # the tensor of rows as `io.read_tensor` checks them: canonical,
    # distinct and finite, so no key is sorted again
    return _with_classes(n, m, _class_array(n, m, rows))


def symmetrize(t: np.ndarray) -> SuperSymmetricTensor:
    """Average `t` over each permutation class.

    This is the orthogonal projection onto the symmetric subspace, computed
    with exact class multiplicities rather than by enumerating all m!
    permutations.  Idempotent: symmetrizing an already-symmetric array
    reproduces its values.  Dense input, so it reads the n**m class map
    `_class_map` (one rank per index tuple, no sort of the tuples); the
    class means are the result's class-value array.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim < 1 or len(set(t.shape)) != 1:
        raise ValueError(f"cubical array required, got shape {t.shape}")
    n, m = t.shape[0], t.ndim
    _, counts = _class_keys(n, m)
    means = np.bincount(_class_map(n, m), weights=t.ravel(),
                        minlength=len(counts)) / counts
    return _with_classes(n, m, means)


def _as_dense(f) -> np.ndarray:
    if isinstance(f, SuperSymmetricTensor):
        return f.to_dense()
    return np.asarray(f, dtype=float)


def eval_multilinear(f, xs: Sequence[np.ndarray]) -> float:
    """Contract `f` with one vector per mode.

    `f` may be a SuperSymmetricTensor or any dense array; `xs` must supply
    exactly one vector per mode, with matching lengths.
    """
    t = _as_dense(f)
    if t.ndim != len(xs):
        raise ValueError(f"need {t.ndim} vectors, got {len(xs)}")
    out = t
    for k, x in enumerate(xs):
        x = np.asarray(x, dtype=float)
        if x.shape != (t.shape[k],):
            raise ValueError(f"vector {k} has length {x.size}, "
                             f"expected {t.shape[k]}")
        out = np.tensordot(out, x, axes=([0], [0]))
    return float(out)


def eval_homogeneous(f: SuperSymmetricTensor, x: np.ndarray) -> float:
    """Value of the degree-m form f(x,...,x): eval_multilinear with m copies of x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.n,):
        raise ValueError(f"vector length {x.size} does not match dimension {f.n}")
    return eval_multilinear(f, [x] * f.m)


def _finite_array(t) -> np.ndarray:
    # t as a float array, rejecting nan and inf entries
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("tensor entries must be finite, found nan or inf")
    return t


def _unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise ValueError("zero vector cannot be normalized")
    return x / nrm


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    # x or -x, whichever has its largest-magnitude entry positive
    return -x if x[np.argmax(np.abs(x))] < 0 else x


def _fix_sign(f, x: np.ndarray) -> np.ndarray:
    # sign rule for a symmetric form: the larger of f(x), f(-x) wins, on a tie
    # the largest-magnitude entry is made positive.  Negation is exact, so
    # f(-x) = f(x) at even order (a tie) and f(-x) = -f(x) at odd order
    m = _as_dense(f).ndim
    value = eval_multilinear(f, [x] * m) if m % 2 else 0.0
    if value == 0.0:
        return _canonical_sign(x)
    return -x if value < 0 else x


def _fix_last_sign(f, xs: Sequence[np.ndarray]):
    # sign rule for a multilinear form: flip the last block when f(xs) < 0;
    # returns the blocks as a tuple and the value
    value = eval_multilinear(f, xs)
    if value < 0:
        return (*xs[:-1], -xs[-1]), -value
    return tuple(xs), value


def rank_one(lam: float, a: np.ndarray, m: int) -> SuperSymmetricTensor:
    """The tensor lam * a (x) ... (x) a with m factors."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or m < 1:
        raise ValueError("need a vector and a positive order")
    keys, _ = _class_keys(a.size, m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused as inf or nan
        classes = float(lam) * np.prod(a[np.array(keys)], axis=1)
    return _with_classes(a.size, m, classes)


def inner(f: SuperSymmetricTensor, g: SuperSymmetricTensor) -> float:
    """Inner product over the full index space, via class multiplicities."""
    if (f.n, f.m) != (g.n, g.m):
        raise ValueError("shape mismatch")
    _, counts = _class_keys(f.n, f.m)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, as Python floats give
        return float((counts * f._classes) @ g._classes)


def identity_power(n: int, d: int) -> SuperSymmetricTensor:
    """Symmetric order-2d tensor S with S(x,...,x) = (x.x)**d."""
    if d < 1:
        raise ValueError("need d >= 1")
    t = np.eye(n)
    for _ in range(d - 1):
        t = np.multiply.outer(t, np.eye(n))
    return symmetrize(t)


def _check_random_shape(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"dimension and order must be at least 1, got n={n}, m={m}")


def random_gaussian(n: int, m: int, seed: int) -> SuperSymmetricTensor:
    """Symmetrization of an i.i.d. standard-normal (n,)*m array.

    Uses numpy's default_rng (PCG64); a fixed seed gives identical tensors
    across calls within this implementation.  The draw and the dense class
    map `symmetrize` reads are both n**m arrays, so the build costs O(n**m)
    time and memory; the result keeps C(n+m-1, m) values in lexicographic
    key order.
    """
    _check_random_shape(n, m)
    rng = np.random.default_rng(seed)
    return symmetrize(rng.standard_normal((n,) * m))


def random_uniform(n: int, m: int, seed: int) -> SuperSymmetricTensor:
    """Symmetrization of an i.i.d. uniform(-1, 1) (n,)*m array."""
    _check_random_shape(n, m)
    rng = np.random.default_rng(seed)
    return symmetrize(rng.uniform(-1.0, 1.0, size=(n,) * m))
