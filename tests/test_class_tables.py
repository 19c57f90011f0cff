"""The permutation-class tables against a brute-force reference.

The reference enumerates every index tuple with `itertools.product`,
canonicalizes it with `sorted` and counts classes with `Counter`; it
shares no code with the package.  Every table must equal it exactly.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tensorpca import matricize, projection, random_gaussian, solve_sdp
from tensorpca.projection import _moment_tables, _trace_classes
from tensorpca.tensors import _class_keys, _class_map


def reference(n, m):
    """(keys, class_id, counts) by enumerating the n**m tuples row-major."""
    tuples = list(itertools.product(range(n), repeat=m))
    keys = sorted({tuple(sorted(t)) for t in tuples})
    position = {key: c for c, key in enumerate(keys)}
    class_id = [position[tuple(sorted(t))] for t in tuples]
    counts = Counter(class_id)
    return keys, class_id, [counts[c] for c in range(len(keys))]


def moment_reference(n, d):
    """(rep, root, pair, w, diag, ibar) of the moment basis, by enumeration."""
    keys, _, counts = reference(n, d)
    keys2, _, counts2 = reference(n, 2 * d)
    position2 = {key: c for c, key in enumerate(keys2)}
    rows = list(itertools.product(range(n), repeat=d))
    rep = [rows.index(key) for key in keys]
    root = [math.sqrt(c) for c in counts]
    pair = [[position2[tuple(sorted(k + l))] for l in keys] for k in keys]
    w = [[r * s for s in root] for r in root]
    diag = [0.0] * len(keys2)
    for x in rows:
        diag[position2[tuple(sorted(x + x))]] += 1.0
    ibar = [v / c for v, c in zip(diag, counts2)]
    return rep, root, pair, w, diag, ibar


def assert_same(actual, expected):
    np.testing.assert_array_equal(np.asarray(actual), np.asarray(expected))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6))
@example(1, 1)
@example(1, 6)
@example(5, 1)
@example(5, 6)
def test_class_tables_match_enumeration(n, m):
    keys, class_id, counts = reference(n, m)
    actual_keys, actual_counts = _class_keys(n, m)
    assert actual_keys == keys
    assert_same(_class_map(n, m), class_id)
    assert_same(actual_counts, counts)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3))
@example(1, 1)
@example(5, 1)
@example(1, 3)
@example(5, 3)
def test_moment_tables_match_enumeration(n, d):
    rep, root, pair, w, diag, ibar = moment_reference(n, d)
    cid, actual_rep, actual_root, actual_pair, actual_w = _moment_tables(n, d)
    actual_diag, actual_ibar, ibar_trace = _trace_classes(n, d)
    assert_same(cid, reference(n, d)[1])
    for actual, expected in ((actual_rep, rep), (actual_root, root),
                             (actual_pair, pair), (actual_w, w),
                             (actual_diag, diag), (actual_ibar, ibar)):
        assert_same(actual, expected)
    assert ibar_trace == float(np.dot(diag, ibar))


@pytest.mark.parametrize("n, m", [(3, 4), (4, 2)])
def test_tables_are_read_only(n, m):
    tables = (_class_keys(n, m)[1], *_moment_tables(n, m // 2)[1:], *_trace_classes(n, m // 2)[:2])
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0


def test_moment_solve_builds_no_dense_table_of_its_own(monkeypatch):
    # the moment tables rank merged keys: on cleared caches they read no
    # (n, 2d) class map, and the solve matricizes nothing.  Only the form
    # evaluations build F's own dense array.
    n, d = 4, 2
    F = random_gaussian(n, 2 * d, 3)
    maps, matricized = [], []
    real_map = projection._class_map
    monkeypatch.setattr(projection, "_class_map",
                        lambda *shape: maps.append(shape) or real_map(*shape))
    monkeypatch.setattr(matricize, "matr",
                        lambda f: matricized.append(f) or None)
    _moment_tables.cache_clear()
    _trace_classes.cache_clear()
    _moment_tables(n, d)
    _trace_classes(n, d)
    assert maps == [(n, d)]
    assert solve_sdp(F).rank_one
    assert matricized == []
    assert (n, 2 * d) not in maps
