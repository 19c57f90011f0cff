"""Output checks that share no code with tensorpca.

Everything here is plain numpy on dense arrays: the benchmark's own
symmetrization, form evaluation by a `tensordot` chain, and lower bounds on
the maximum from local ascent (SS-HOPM for symmetric forms, block ascent
for multilinear and bi-quadratic ones).  Any unit vector gives a valid
lower bound, so a certified value below one is wrong.
"""

from __future__ import annotations

import itertools

import numpy as np

UNIT_TOL = 1e-8
VALUE_TOL = 1e-8    # |lambda - F(x)|, relative to max(1, |lambda|)
BOUND_TOL = 1e-6    # certified lambda may sit this far below a lower bound
EXACT_TOL = 1e-6    # known optimum, e.g. the tied instances' lambda = 1
# an ADMM objective tr(F X) comes from an iterate stopped at relative
# change plus primal residual <= 1e-6, so it may sit this far (relative)
# below the true maximum
OBJECTIVE_TOL = 1e-4


def symmetrize(t: np.ndarray) -> np.ndarray:
    """Average a cubical array over all m! axis permutations."""
    perms = list(itertools.permutations(range(t.ndim)))
    return sum(np.transpose(t, p) for p in perms) / len(perms)


def partial_symmetrize(t: np.ndarray) -> np.ndarray:
    """Average an (n, m, n, m) array over swapping modes 0<->2 and 1<->3."""
    t = 0.5 * (t + t.transpose(2, 1, 0, 3))
    return 0.5 * (t + t.transpose(0, 3, 2, 1))


def form(t: np.ndarray, vectors) -> float:
    """t(v1, ..., vm) by contracting the leading mode once per vector."""
    out = t
    for v in vectors:
        out = np.tensordot(v, out, axes=([0], [0]))
    return float(out)


def _contract(t: np.ndarray, x: np.ndarray, times: int) -> np.ndarray:
    for _ in range(times):
        t = np.tensordot(x, t, axes=([0], [0]))
    return t


def hopm_lower(t: np.ndarray, starts, sweeps: int = 200) -> float:
    """Best F(x) found by SS-HOPM on a dense symmetric tensor.

    Shifted power step x <- unit(t x^(m-1) + alpha x) with the adaptive
    shift alpha = max(0, -lambda_min((m-1) t x^(m-2))) (Kolda & Mayo), which
    makes the shifted form locally convex so each step ascends.
    """
    m = t.ndim
    best = -np.inf
    for x in starts:
        x = x / np.linalg.norm(x)
        previous = -np.inf
        for _ in range(sweeps):
            h = _contract(t, x, m - 2)
            value = float(x @ h @ x)
            best = max(best, value)
            if value - previous <= 1e-12 * max(1.0, abs(value)):
                break
            previous = value
            alpha = max(0.0, -float(np.linalg.eigvalsh((m - 1) * h)[0]))
            g = h @ x + alpha * x
            x = g / np.linalg.norm(g)
    return best


def multilinear_lower(t: np.ndarray, starts, sweeps: int = 300) -> float:
    """Best t(x1, ..., xm) found by block ascent over the m unit vectors.

    Each start is a list of one vector per mode.
    """
    m = t.ndim
    best = -np.inf
    for xs in starts:
        xs = [x / np.linalg.norm(x) for x in xs]
        value = form(t, xs)
        for _ in range(sweeps):
            previous = value
            for j in range(m):
                g = np.moveaxis(t, j, 0)
                for x in xs[:j] + xs[j + 1:]:
                    g = np.tensordot(g, x, axes=([1], [0]))
                xs[j] = g / np.linalg.norm(g)
            value = form(t, xs)
            if abs(value - previous) <= 1e-13 * max(1.0, abs(value)):
                break
        best = max(best, value)
    return best


def biquadratic_lower(g: np.ndarray, starts, sweeps: int = 300) -> float:
    """Best g(x, y, x, y) over unit x, y by alternating leading eigenvectors.

    Each start is a y vector; with y fixed the form is a quadratic in x.
    """
    best = -np.inf
    for y in starts:
        y = y / np.linalg.norm(y)
        value = -np.inf
        for _ in range(sweeps):
            previous = value
            x = np.linalg.eigh(np.einsum("ijkl,j,l->ik", g, y, y))[1][:, -1]
            y = np.linalg.eigh(np.einsum("ijkl,i,k->jl", g, x, x))[1][:, -1]
            value = form(g, [x, y, x, y])
            if abs(value - previous) <= 1e-13 * max(1.0, abs(value)):
                break
        best = max(best, value)
    return best


def check_component(t, lam, vectors, certified, lower=None, exact=None):
    """Problems with a reported component; an empty list means it passed.

    `vectors` holds one argument per mode of `t` (the same vector repeated
    for a symmetric form); each distinct one must have unit norm and
    `lam` must equal t(vectors).  A certified `lam` must reach `lower`;
    `exact` is the known optimum when there is one.
    """
    problems = []
    seen = []
    for v in vectors:
        if any(v is s for s in seen):
            continue
        seen.append(v)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > UNIT_TOL:
            problems.append(f"vector norm {norm!r} is not 1")
    value = form(t, vectors)
    scale = max(1.0, abs(lam))
    if not abs(lam - value) <= VALUE_TOL * scale:
        problems.append(f"lambda {lam!r} but F(x) = {value!r}")
    if certified and lower is not None and not lam >= lower - BOUND_TOL * scale:
        problems.append(f"certified lambda {lam!r} below lower bound {lower!r}")
    if exact is not None and not abs(lam - exact) <= EXACT_TOL:
        problems.append(f"lambda {lam!r} but the optimum is {exact!r}")
    return problems
