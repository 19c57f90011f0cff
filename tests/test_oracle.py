import numpy as np
import pytest

from tensorpca import (sphere_grid_max, kkt_project, multistart_local,
                       SolverConfig,
                       project_C, solve_sdp, eval_homogeneous, rank_one,
                       random_gaussian, matr, SuperSymmetricTensor)


def unit(x):
    return np.asarray(x, dtype=float) / np.linalg.norm(x)


def test_grid_result_is_self_consistent():
    F = random_gaussian(3, 4, 0)
    result = sphere_grid_max(F)
    assert np.linalg.norm(result.argmax) == pytest.approx(1.0, abs=1e-12)
    assert result.value == pytest.approx(eval_homogeneous(F, result.argmax),
                                         abs=1e-12)
    assert result.grid_resolution == 180
    assert result.polished


def test_grid_finds_known_maxima():
    a = unit([1.0, -2.0])
    result = sphere_grid_max(rank_one(1.0, a, 4))
    assert result.value == pytest.approx(1.0, abs=1e-8)
    assert min(np.linalg.norm(result.argmax - a),
               np.linalg.norm(result.argmax + a)) < 1e-4
    assert result.grid_resolution == 720

    F = rank_one(1.0, np.array([1.0, 0.0, 0.0]), 4) \
        + rank_one(2.0, np.array([0.0, 1.0, 0.0]), 4)
    result = sphere_grid_max(F)
    assert result.value == pytest.approx(2.0, abs=1e-8)
    assert min(np.linalg.norm(result.argmax - [0, 1, 0]),
               np.linalg.norm(result.argmax + [0, 1, 0])) < 1e-4


def test_grid_one_dimensional_case():
    result = sphere_grid_max(rank_one(-3.0, np.ones(1), 4))
    assert result.value == pytest.approx(-3.0)
    assert abs(result.argmax[0]) == 1.0


def test_grid_input_checks():
    with pytest.raises(ValueError):
        sphere_grid_max(random_gaussian(4, 4, 0))
    with pytest.raises(ValueError):
        sphere_grid_max(random_gaussian(2, 3, 0))
    with pytest.raises(ValueError):
        sphere_grid_max(random_gaussian(2, 4, 0), resolution=0)
    with pytest.raises(TypeError):
        sphere_grid_max(np.zeros((2, 2, 2, 2)))


def test_kkt_project_fixes_feasible_points():
    X = matr(rank_one(1.0, unit([1.0, 2.0, -1.0]), 4))
    np.testing.assert_allclose(kkt_project(X, 3, 2), X, atol=1e-10)


def test_kkt_project_hand_case():
    Z = 2.0 * matr(rank_one(1.0, np.array([1.0, 0.0]), 4))
    P = kkt_project(Z, 2, 2)
    expected = np.diag([13.0 / 8.0, -1.0 / 8.0, -1.0 / 8.0, -3.0 / 8.0])
    # the class of (0,0,1,1) also fills the anti-diagonal positions
    expected[0, 3] = expected[3, 0] = expected[1, 2] = expected[2, 1] = -1.0 / 8.0
    np.testing.assert_allclose(P, expected, atol=1e-12)
    np.testing.assert_allclose(P, project_C(Z, 2, 2), atol=1e-12)


def test_kkt_project_matches_closed_form():
    rng = np.random.default_rng(1)
    for n in (2, 3):
        for _ in range(20):
            Z = rng.standard_normal((n * n, n * n))
            Z = 0.5 * (Z + Z.T)
            np.testing.assert_allclose(kkt_project(Z, n, 2), project_C(Z, n, 2),
                                       atol=1e-8)


def test_kkt_project_size_guard():
    with pytest.raises(ValueError):
        kkt_project(np.zeros((243, 243)), 3, 5)
    with pytest.raises(ValueError):
        kkt_project(np.zeros((64, 64)), 4, 3)
    with pytest.raises(ValueError):
        kkt_project(np.zeros((4, 5)), 2, 2)


def test_multistart_finds_rank_one_optimum():
    a = unit([2.0, -1.0, 3.0, 0.5])
    F = rank_one(1.0, a, 4)
    result = multistart_local(F)
    assert result.value == pytest.approx(1.0, abs=1e-8)
    assert result.value == pytest.approx(eval_homogeneous(F, result.argmax),
                                         abs=1e-12)
    assert result.grid_resolution == 0


def test_multistart_is_bounded_by_relaxation():
    # the bound only holds once the relaxation is solved well past the
    # comparison tolerance
    F = random_gaussian(6, 4, 3)
    result = multistart_local(F, restarts=20, seed=0)
    report = solve_sdp(F, SolverConfig(tol=1e-10))
    assert result.value <= report.objective + 1e-6


def test_multistart_rejects_odd_order():
    with pytest.raises(ValueError):
        multistart_local(random_gaussian(3, 3, 0))


@pytest.mark.parametrize("restarts", [0, -3])
def test_multistart_rejects_fewer_than_one_restart(restarts):
    with pytest.raises(ValueError, match="restarts"):
        multistart_local(random_gaussian(3, 4, 0), restarts=restarts)
