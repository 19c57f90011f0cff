"""Symmetric tensors stored by permutation class, and the combinatorics around them.

A tensor that is invariant under every permutation of its indices is fully
determined by one value per sorted index tuple.  This module provides that
canonical storage, the multinomial bookkeeping needed elsewhere, and the
basic form evaluations (multilinear and homogeneous).

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
    that reads no dense array needs only these: `rank_one`, `_class_lookup`
    and the moment tables of `projection`.
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


@lru_cache(maxsize=None)
def _class_lookup(n: int, m: int) -> Mapping[Index, int]:
    keys, _ = _class_keys(n, m)
    return {key: c for c, key in enumerate(keys)}


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

    One value is stored per permutation class, keyed by the sorted index
    tuple; reading any permuted index returns the canonical entry, and
    absent classes read as 0.  Values are immutable after construction, so
    instances may be shared freely across threads.

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

    __slots__ = ("n", "m", "_values", "_dense", "_classes")

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
        self._values = stored
        self._dense = self._classes = None

    def __getitem__(self, idx) -> float:
        key = canonical_index(idx, self.n)
        if len(key) != self.m:
            raise ValueError(f"index {tuple(idx)} has {len(key)} components, "
                             f"expected {self.m}")
        return self._values.get(key, 0.0)

    def items(self) -> Iterator:
        """Iterate (canonical index, value) over stored classes."""
        return iter(self._values.items())

    def __len__(self) -> int:
        return len(self._values)

    def to_dense(self) -> np.ndarray:
        """Dense (n,)*m array; computed once and cached."""
        if self._dense is None:
            class_id = _class_map(self.n, self.m)
            self._dense = self._class_values()[class_id].reshape((self.n,) * self.m)
            self._dense.setflags(write=False)
        return self._dense

    def _class_values(self) -> np.ndarray:
        # one value per class in `_class_keys` order, 0 where none is
        # stored; computed once and cached, like the dense array, and
        # published only when complete, since instances are shared
        if self._classes is None:
            lookup = _class_lookup(self.n, self.m)
            values = np.zeros(len(lookup))
            for key, v in self._values.items():
                values[lookup[key]] = v
            values.setflags(write=False)
            self._classes = values
        return self._classes

    def norm(self) -> float:
        """Frobenius norm over the full index space."""
        return math.sqrt(inner(self, self))

    def _combine(self, other: "SuperSymmetricTensor", sign: float):
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError("shape mismatch")
        keys = set(self._values) | set(other._values)
        vals = {k: self._values.get(k, 0.0) + sign * other._values.get(k, 0.0)
                for k in keys}
        return _with_classes(self.n, self.m, vals)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        scalar = float(scalar)
        return _with_classes(
            self.n, self.m, {k: scalar * v for k, v in self._values.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (f"SuperSymmetricTensor(n={self.n}, m={self.m}, "
                f"classes={len(self._values)})")


def _with_classes(n: int, m: int, values: dict) -> SuperSymmetricTensor:
    # the (n, m) tensor holding `values`, Python floats keyed by distinct
    # canonical (sorted, in-range) class keys of length m: the
    # constructor's finiteness check but not its key canonicalization,
    # which would only sort each key again
    for key, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"entry {key} is not finite: {v}")
    out = SuperSymmetricTensor(n, m)
    out._values = values
    return out


def symmetrize(t: np.ndarray) -> SuperSymmetricTensor:
    """Average `t` over each permutation class.

    This is the orthogonal projection onto the symmetric subspace, computed
    with exact class multiplicities rather than by enumerating all m!
    permutations.  Idempotent: symmetrizing an already-symmetric array
    reproduces its values.  Dense input, so it reads the n**m class map
    `_class_map` (one rank per index tuple, no sort of the tuples) and
    stores the means in the lexicographic key order of `_class_keys`.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim < 1 or len(set(t.shape)) != 1:
        raise ValueError(f"cubical array required, got shape {t.shape}")
    n, m = t.shape[0], t.ndim
    keys, counts = _class_keys(n, m)
    means = np.bincount(_class_map(n, m), weights=t.ravel(),
                        minlength=len(keys)) / counts
    return _with_classes(n, m, dict(zip(keys, means.tolist())))


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
    vals = {k: float(lam) * float(np.prod(a[list(k)])) for k in keys}
    return _with_classes(a.size, m, vals)


def inner(f: SuperSymmetricTensor, g: SuperSymmetricTensor) -> float:
    """Inner product over the full index space, via class multiplicities."""
    if (f.n, f.m) != (g.n, g.m):
        raise ValueError("shape mismatch")
    shared = set(f._values) & set(g._values)
    return float(sum(class_size(k) * f._values[k] * g._values[k]
                     for k in shared))


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
