"""Tests of the benchmark's own logic: the output checker, the timed loop
and the tracer.

Run from the repository root with ``python3 -m pytest benchmarks/tests``.
"""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import bench  # noqa: E402
import check  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402


def power(a, m):
    t = a
    for _ in range(m - 1):
        t = np.multiply.outer(t, a)
    return t


@pytest.fixture
def two_peaks():
    """2 e1^(x4) + e2^(x4): maximum 2 at e1, a local maximum 1 at e2."""
    e = np.eye(3)
    return 2.0 * power(e[0], 4) + power(e[1], 4), e


def starts(n, count=4, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(count)]


def test_checker_accepts_the_true_component(two_peaks):
    t, e = two_peaks
    lower = check.hopm_lower(t, starts(3))
    assert check.check_component(t, 2.0, [e[0]] * 4, True, lower=lower) == []


def test_checker_rejects_a_perturbed_lambda(two_peaks):
    t, e = two_peaks
    problems = check.check_component(t, 2.0 + 1e-6, [e[0]] * 4, True)
    assert len(problems) == 1 and "F(x)" in problems[0]


def test_checker_rejects_a_non_unit_x(two_peaks):
    t, e = two_peaks
    x = 1.001 * e[0]
    problems = check.check_component(t, check.form(t, [x] * 4), [x] * 4, True)
    assert len(problems) == 1 and "norm" in problems[0]


def test_checker_rejects_a_certified_local_maximum(two_peaks):
    t, e = two_peaks
    lower = check.hopm_lower(t, starts(3))
    assert lower == pytest.approx(2.0)
    assert check.check_component(t, 1.0, [e[1]] * 4, True, lower=lower)
    assert check.check_component(t, 1.0, [e[1]] * 4, False, lower=lower) == []


def test_checker_rejects_a_value_off_the_known_optimum(two_peaks):
    t, e = two_peaks
    assert check.check_component(t, 1.0, [e[1]] * 4, False, exact=2.0)


def test_lower_bounds_reach_the_maximum_of_rank_one_forms():
    rng = np.random.default_rng(3)
    x, y, z = (v / np.linalg.norm(v) for v in rng.standard_normal((3, 4)))
    odd = power(x, 3)
    assert check.hopm_lower(odd, starts(4)) == pytest.approx(1.0)
    general = 3.0 * np.einsum("i,j,k->ijk", x, y, z)
    bound = check.multilinear_lower(general, [starts(4, 3, s) for s in range(2)])
    assert bound == pytest.approx(3.0)
    g = check.partial_symmetrize(np.einsum("i,j,k,l->ijkl", x, y, x, y))
    assert check.biquadratic_lower(g, starts(4)) == pytest.approx(1.0)


def test_symmetrize_is_a_projection():
    t = check.symmetrize(np.random.default_rng(0).standard_normal((3, 3, 3)))
    assert np.allclose(t, t.transpose(1, 0, 2))
    assert np.allclose(check.symmetrize(t), t)


def test_timed_phase_repeats_every_instance_and_keeps_its_best_run():
    ops = [bench.Op(key, lambda key=key: key) for key in "abc"]
    results, _ = bench.timed_phase(ops, seconds=0)
    assert [op.key for op, *_ in results] == list("abc") * bench.MIN_PASSES
    assert all(output == op.key for op, output, _ in results)
    results = [(ops[0], None, 3.0), (ops[1], None, 2.0), (ops[0], None, 1.0),
               (ops[1], None, 4.0), (ops[0], None, 5.0)]
    assert bench.best_runs(results) == {"a": 1.0, "b": 2.0}


def hand_tree():
    """root [0,10] with children a [1,3], b [2,5], c [8,12]; a has d [1.5,2.5]."""
    return [Span(1, "root", None, 0, 0, 0.0, 10.0),
            Span(2, "a", 1, 0, 0, 1.0, 3.0),
            Span(3, "b", 1, 0, 1, 2.0, 5.0),
            Span(4, "c", 1, 0, 1, 8.0, 12.0),
            Span(5, "d", 2, 0, 0, 1.5, 2.5)]


def test_self_time_subtracts_the_union_of_direct_children():
    own = self_times(hand_tree())
    # children cover [1,5] and [8,10] of the root; d belongs to a only
    assert own == {1: pytest.approx(4.0), 2: pytest.approx(1.0),
                   3: pytest.approx(3.0), 4: pytest.approx(4.0),
                   5: pytest.approx(1.0)}


def test_self_time_can_count_only_named_children():
    assert self_times(hand_tree(), child_names=("b",))[1] == pytest.approx(7.0)


def test_layer_metrics_split_a_solve_into_loop_projection_and_post():
    spans = [Span(1, "admm.solve_sdp", None, 0, 0, 0.0, 10.0),
             Span(2, "admm.run_admm", 1, 0, 0, 1.0, 8.0,
                  {"iterations": 5, "converged": True}),
             Span(3, "projection.project_C", 2, 0, 0, 1.0, 2.0),
             Span(4, "projection.project_psd", 2, 0, 0, 2.0, 5.0, {"dim": 4}),
             Span(5, "projection.project_psd", 2, 0, 0, 5.0, 6.0, {"dim": 6})]
    out = layer_metrics(spans)
    assert out["admm.loop_self_s"] == pytest.approx(2.0)
    assert out["admm.post_s"] == pytest.approx(3.0)
    assert out["admm.ms_per_iter"] == pytest.approx(7.0 / 5 * 1e3)
    assert out["admm.iter_cap.count"] == 0
    assert out["projection.project_psd.calls"] == 2
    assert out["projection.project_psd.us_per_call"] == pytest.approx(2e6)
    assert out["projection.spectral_dim_p50"] == 5
    assert out["projection.spectral_n3_sum"] == 4 ** 3 + 6 ** 3


def test_tracer_times_the_solve_path_and_restores_it():
    import tensorpca as tp

    original = tp.admm.project_psd
    F = tp.random_gaussian(3, 4, 0)
    tracer = Tracer()
    tracer.install(tp)
    try:
        assert tp.admm.project_psd is not original
        solve = tracer.wrap("extraction.solve_leading_pc", tp.solve_leading_pc,
                            root=True)
        pc, report = solve(F, "sdp")
    finally:
        tracer.uninstall()
    assert tp.admm.project_psd is original
    by_id = {s.id: s for s in tracer.spans}
    psd = [s for s in tracer.spans if s.name == "projection.project_psd"]
    assert len(psd) == report.iterations
    assert {by_id[s.parent].name for s in psd} == {"admm.run_admm"}
    out = layer_metrics(tracer.spans)
    assert out["admm.iterations.total"] == report.iterations
    assert out["extraction.certified_frac"] == 1.0


def test_spans_on_pool_threads_take_the_operation_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def sweep():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for f in [pool.submit(leaf) for _ in range(4)]:
                f.result()

    tracer.wrap("root", sweep, root=True)()
    root = next(s for s in tracer.spans if s.name == "root")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4 and all(s.parent == root.id for s in leaves)
