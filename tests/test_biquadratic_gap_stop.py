"""The bi-quadratic routes stop their ADMM once the duality gap closes.

`solve_multilinear` on dense arrays and `tensorpca solve` on partial
files call `solve_biquadratic` with `stop_on_gap`: on `run_admm`'s check
schedule the iterate's read-out is polished and the form there compared
with the dual bound corrected at vec(x y^T), and the stopped read-out is
returned as it is.  The quadri-linear route also passes the rows its sign
flip negates, solves in the two diagonal blocks of that flip and reads z
from them; it compares the unpolished read-out with the uncorrected
bound, and polishes the stopped read-out once.  No certified solve runs
the ascent fallback.  Direct `solve_biquadratic` calls keep running to
convergence.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from tensorpca import (SolverConfig, main, random_partial_symmetric,
                       solve_biquadratic, solve_leading_pc,
                       square_last_mode, write_tensor)
from tensorpca import extensions, extraction
from tensorpca.admm import _block_eig
from tensorpca.extensions import biquadratic_form, stack_multilinear
from tensorpca.matricize import _leading_factors
from tensorpca.projection import stack_blocks

ARRAYS = [(shape, s) for shape in ((4, 4, 4), (3, 3, 3, 3)) for s in range(20)]
PARTIAL = [(n, m, s) for n, m in ((4, 4), (4, 6)) for s in range(10)]


def array(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def run_to_convergence(monkeypatch):
    # the routes as they were before the gap stop: solve_biquadratic run to
    # convergence and read by X's leading eigenvector
    original = extensions.solve_biquadratic
    monkeypatch.setattr(extensions, "solve_biquadratic",
                        lambda G, method, cfg, **_: original(G, method, cfg))


def unit(v):
    return v / np.linalg.norm(v)


def ascent_lower(F, starts=20, sweeps=500):
    # the maximum of F(x1, ..., xd) over unit blocks from below: the best of
    # seeded block ascents, each block set to its normalized gradient
    rng = np.random.default_rng(0)
    best = -np.inf
    for _ in range(starts):
        xs = [unit(rng.standard_normal(k)) for k in F.shape]
        value = -np.inf
        for _ in range(sweeps):
            previous = value
            for j in range(F.ndim):
                g = np.moveaxis(F, j, 0)
                for k in reversed([k for k in range(F.ndim) if k != j]):
                    g = g @ xs[k]
                value = float(np.linalg.norm(g))
                xs[j] = g / value
            if value - previous <= 1e-14 * value:
                break
        best = max(best, value)
    return best


def biquadratic_lower(G, starts=20, sweeps=500):
    # the maximum of G(x, y, x, y) over unit x, y from below: the best of
    # seeded alternating ascents, each block the top eigenvector of the
    # quadratic form the other block leaves
    rng = np.random.default_rng(0)
    best = -np.inf
    for _ in range(starts):
        y, value = unit(rng.standard_normal(G.shape[1])), -np.inf
        for _ in range(sweeps):
            previous = value
            x = np.linalg.eigh(np.einsum("ijkl,j,l->ik", G, y, y))[1][:, -1]
            w, V = np.linalg.eigh(np.einsum("ijkl,i,k->jl", G, x, x))
            y, value = V[:, -1], float(w[-1])
            if value - previous <= 1e-14 * abs(value):
                break
        best = max(best, value)
    return best


def assert_same_answer(stopped, converged, case, lower):
    (comp, report), (reference, full) = stopped, converged
    # the reference runs the old rule: to convergence or to the cap (some
    # 4x4x4 arrays cap under nnp either way)
    assert full.termination != "gap", case
    # the gap stop certifies wherever the reference does, and more often:
    # its bound is corrected at the polished read-out.  No ascent may then
    # beat the certified value by more than the certificate's tolerance
    assert comp.certified or not reference.certified, case
    if comp.certified and not reference.certified:
        assert lower() <= comp.lambda_star + 1e-6 * abs(comp.bound), case
    assert comp.lambda_star == pytest.approx(reference.lambda_star,
                                             rel=1e-10, abs=0), case
    assert report.iterations <= full.iterations, case


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("shape, seed", ARRAYS,
                         ids=[f"{len(s)}way-{k}" for s, k in ARRAYS])
def test_multilinear_routes_keep_the_converged_answer(monkeypatch, shape,
                                                      seed, method):
    F = array(shape, seed)
    stopped = solve_leading_pc(F, method)
    run_to_convergence(monkeypatch)
    assert_same_answer(stopped, solve_leading_pc(F, method),
                       (shape, seed, method), lambda: ascent_lower(F))


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("n, m, seed", PARTIAL)
def test_partial_gap_stop_keeps_the_converged_answer(n, m, seed, method):
    G = random_partial_symmetric(n, m, seed)
    assert_same_answer(solve_biquadratic(G, method, stop_on_gap=True),
                       solve_biquadratic(G, method), (n, m, seed, method),
                       lambda: biquadratic_lower(G))


def assert_bitwise_equal(a, b):
    for f in fields(a):
        left, right = getattr(a, f.name), getattr(b, f.name)
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), f.name
        elif isinstance(left, tuple):  # a component's blocks
            assert len(left) == len(right), f.name
            assert all(map(np.array_equal, left, right)), f.name
        else:
            assert left == right or (left != left and right != right), f.name


@pytest.mark.parametrize("method", ["sdp", "nnp"])
@pytest.mark.parametrize("G", [random_partial_symmetric(3, 4, 0),
                               random_partial_symmetric(4, 6, 3),
                               square_last_mode(array((3, 4, 2), 1))],
                         ids=["partial-3x4", "partial-4x6", "trilinear"])
def test_default_report_is_the_unstopped_report(G, method):
    comp, report = solve_biquadratic(G, method)
    unstopped, full = solve_biquadratic(G, method, SolverConfig(),
                                        stop_on_gap=False)
    assert report.termination == "converged"
    assert_bitwise_equal(report, full)
    assert_bitwise_equal(comp, unstopped)


def count_ascents(monkeypatch):
    # wrap every ascent of the restart policy that _mbi_biquadratic calls
    calls = []
    original = extraction._ascend_with_restarts

    def spy(ascend, *args):
        def counted(*blocks):
            calls.append(blocks)
            return ascend(*blocks)
        return original(counted, *args)

    monkeypatch.setattr(extensions, "_ascend_with_restarts", spy)
    return calls


@pytest.mark.parametrize("method", ["sdp", "nnp"])
def test_a_gap_stopped_solve_runs_no_ascent(monkeypatch, method):
    # a certified gap stop is polished by Newton steps, at its checks or
    # (in blocks) once after the stop; the ascent is only the fallback
    calls = count_ascents(monkeypatch)
    runs = [lambda: solve_leading_pc(array((4, 4, 4), 1), method),
            lambda: solve_leading_pc(array((3, 3, 3, 3), 1), method),
            lambda: solve_leading_pc(array((2, 3, 2, 4), 2), method),
            lambda: solve_biquadratic(random_partial_symmetric(4, 6, 0),
                                      method, stop_on_gap=True)]
    for k, run in enumerate(runs):
        calls.clear()
        comp, report = run()
        assert report.termination == "gap", k
        assert comp.certified and not calls, k


def flip_diagonal(n1, n2, n3, n4):
    # D = diag(1, -1) (x) diag(1, -1) over the stacked blocks (x1; x3) and
    # (x2; x4): the diagonal of the Kronecker product of the two sign flips
    return np.kron(np.r_[np.ones(n1), -np.ones(n3)],
                   np.r_[np.ones(n2), -np.ones(n4)])


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 4, 2), (1, 2, 1, 1)])
def test_parity_read_out_recovers_the_value_at_z(dims):
    rng = np.random.default_rng(sum(dims))
    G = stack_multilinear(rng.standard_normal(dims))
    n1, n2, n3, n4 = dims
    xs = [v / np.linalg.norm(v) for v in map(rng.standard_normal, dims)]
    x = np.r_[xs[0], xs[2]] / math.sqrt(2.0)
    y = np.r_[xs[1], xs[3]] / math.sqrt(2.0)
    z = np.kron(x, y)
    D = flip_diagonal(*dims)
    X = 0.5 * (np.outer(z, z) + np.outer(D * z, D * z))
    blocks = (np.flatnonzero(D > 0), np.flatnonzero(D < 0))
    v = _block_eig(stack_blocks(X, blocks), blocks)[2]
    assert biquadratic_form(G, *_leading_factors(v, (n1 + n3, n2 + n4))) == \
        pytest.approx(biquadratic_form(G, x, y), rel=1e-12, abs=1e-12)


def test_parity_read_out_of_one_block_is_the_leading_eigenvector():
    # a mask with no odd rows declares no flip: z is X's leading eigenpair
    G = random_partial_symmetric(3, 4, 2)
    plain, _ = solve_biquadratic(G)
    masked, _ = solve_biquadratic(G, odd_rows=np.zeros(12, dtype=bool))
    assert masked.lambda_star == pytest.approx(plain.lambda_star, rel=1e-12)
    assert masked.certified == plain.certified


@pytest.mark.parametrize("mask", [np.zeros(11, dtype=bool), np.zeros(12),
                                  np.zeros((3, 4), dtype=bool)],
                         ids=["short", "float", "2d"])
def test_odd_rows_must_be_a_boolean_mask_over_the_rows(mask):
    with pytest.raises(ValueError, match="odd_rows"):
        solve_biquadratic(random_partial_symmetric(3, 4, 0), odd_rows=mask)


def test_routes_call_the_module_attributes_the_tracer_wraps(monkeypatch,
                                                           tmp_path):
    # benchmarks/tracer.py times both routes by replacing these attributes.
    # The fallback runs only on uncertified solves: one iteration leaves
    # every solve capped
    seen = {"solve_biquadratic": [], "_mbi_biquadratic": []}
    for name, calls in seen.items():
        original = getattr(extensions, name)

        def wrapped(*args, _original=original, _calls=calls, **kwargs):
            _calls.append(kwargs)
            return _original(*args, **kwargs)

        monkeypatch.setattr(extensions, name, wrapped)
    dims = (2, 3, 4, 2)
    capped = SolverConfig(max_iter=1)
    solve_leading_pc(array((3, 4, 2), 0), "sdp", capped)
    solve_leading_pc(array(dims, 0), "sdp", capped)
    assert len(seen["solve_biquadratic"]) == 2
    assert len(seen["_mbi_biquadratic"]) == 2
    trilinear, quadrilinear = seen["solve_biquadratic"]
    assert trilinear == {"stop_on_gap": True}
    assert quadrilinear["stop_on_gap"] is True
    assert np.array_equal(quadrilinear["odd_rows"], flip_diagonal(*dims) < 0)

    # and the cli's partial route reaches the fallback through extensions
    path = str(tmp_path / "p.tensor")
    write_tensor(path, random_partial_symmetric(3, 4, 0), "partial_symmetric")
    assert main(["solve", path, "--max-iter", "1"]) == 2
    assert len(seen["_mbi_biquadratic"]) == 3
