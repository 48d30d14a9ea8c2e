"""Cyclic tridiagonal solver vs a dense-elimination oracle."""

import numpy as np
import pytest

from curveflow import LinearSolverError, solve_cyclic_tridiagonal


def dense_matrix(sub, diag, sup, corners):
    m = len(diag)
    a = np.zeros((m, m))
    a[np.arange(m), np.arange(m)] = diag
    a[np.arange(1, m), np.arange(m - 1)] = sub
    a[np.arange(m - 1), np.arange(1, m)] = sup
    a[0, -1], a[-1, 0] = corners
    return a


def random_dominant_system(rng, m):
    sub = rng.uniform(-1.0, 1.0, m - 1)
    sup = rng.uniform(-1.0, 1.0, m - 1)
    corners = tuple(rng.uniform(-1.0, 1.0, 2))
    off = np.zeros(m)
    off[0] = abs(sup[0]) + abs(corners[0])
    off[-1] = abs(sub[-1]) + abs(corners[1])
    off[1:-1] = np.abs(sub[:-1]) + np.abs(sup[1:])
    sign = rng.choice([-1.0, 1.0], m)
    diag = sign * (off + rng.uniform(0.5, 1.5, m))
    rhs = rng.uniform(-5.0, 5.0, m)
    return sub, diag, sup, corners, rhs


def test_identity():
    rng = np.random.default_rng(0)
    rhs = rng.uniform(-1, 1, 8)
    x = solve_cyclic_tridiagonal(np.zeros(7), np.ones(8), np.zeros(7), (0.0, 0.0), rhs)
    assert np.allclose(x, rhs, rtol=1e-15)


def test_uniform_system_has_constant_solution():
    # rows sum to 6, so the all-ones rhs maps back from the 1/6 vector
    m = 6
    sub = np.ones(m - 1)
    sup = np.ones(m - 1)
    diag = np.full(m, 4.0)
    x = solve_cyclic_tridiagonal(sub, diag, sup, (1.0, 1.0), np.ones(m))
    assert np.allclose(x, 1.0 / 6.0, atol=1e-14)
    dense = dense_matrix(sub, diag, sup, (1.0, 1.0))
    assert np.allclose(x, np.linalg.solve(dense, np.ones(m)), atol=1e-14)


@pytest.mark.parametrize("m", [6, 64, 200])
def test_matches_dense_oracle(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(5):
        sub, diag, sup, corners, rhs = random_dominant_system(rng, m)
        x = solve_cyclic_tridiagonal(sub, diag, sup, corners, rhs)
        expected = np.linalg.solve(dense_matrix(sub, diag, sup, corners), rhs)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(x - expected)) <= 1e-12 * scale


def test_pure_tridiagonal_corner_free_path():
    rng = np.random.default_rng(42)
    sub, diag, sup, _, rhs = random_dominant_system(rng, 32)
    x = solve_cyclic_tridiagonal(sub, diag, sup, (0.0, 0.0), rhs)
    expected = np.linalg.solve(dense_matrix(sub, diag, sup, (0.0, 0.0)), rhs)
    assert np.allclose(x, expected, rtol=1e-12)


def test_multiple_right_hand_sides_share_factorization():
    rng = np.random.default_rng(5)
    sub, diag, sup, corners, _ = random_dominant_system(rng, 40)
    rhs = rng.uniform(-1, 1, (40, 3))
    stacked = solve_cyclic_tridiagonal(sub, diag, sup, corners, rhs)
    assert stacked.shape == (40, 3)
    for col in range(3):
        single = solve_cyclic_tridiagonal(sub, diag, sup, corners, rhs[:, col])
        assert np.allclose(stacked[:, col], single, rtol=1e-13)


def test_rejects_dominance_violation():
    m = 8
    with pytest.raises(LinearSolverError, match="dominant"):
        solve_cyclic_tridiagonal(
            np.ones(m - 1), np.ones(m), np.ones(m - 1), (1.0, 1.0), np.ones(m)
        )


def test_rejects_non_finite_arithmetic():
    m = 8
    rhs = np.ones(m)
    rhs[3] = np.inf
    with pytest.raises(LinearSolverError, match="non-finite"):
        solve_cyclic_tridiagonal(
            np.zeros(m - 1), np.full(m, 2.0), np.zeros(m - 1), (0.1, 0.1), rhs
        )


def test_rejects_a_singular_rank_one_correction():
    # an infinite first diagonal entry passes the dominance check, but the
    # Sherman-Morrison denominator computes as inf/inf
    m = 8
    diag = np.full(m, 4.0)
    diag[0] = np.inf
    with pytest.raises(LinearSolverError, match="rank-one correction is singular"):
        solve_cyclic_tridiagonal(np.ones(m - 1), diag, np.ones(m - 1), (1.0, 1.0), np.ones(m))


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_cyclic_tridiagonal(np.zeros(2), np.ones(3), np.zeros(2), (0.0, 0.0), np.ones(3))
    with pytest.raises(ValueError):
        solve_cyclic_tridiagonal(np.zeros(5), np.ones(8), np.zeros(7), (0.0, 0.0), np.ones(8))
    with pytest.raises(ValueError):
        solve_cyclic_tridiagonal(np.zeros(7), np.ones(8), np.zeros(7), (0.0, 0.0), np.ones(9))
