"""Cyclic tridiagonal solver vs a dense-elimination oracle."""

import numpy as np
import pytest

from curveflow import LinearSolverError, solve_cyclic_tridiagonal


def dense_matrix(lower, diag, upper):
    # row i holds lower[i] in column i-1 and upper[i] in column i+1, wrapping
    m = len(diag)
    rows = np.arange(m)
    a = np.diag(diag)
    a[rows, rows - 1] = lower
    a[rows, (rows + 1) % m] = upper
    return a


def random_dominant_system(rng, m):
    sub = rng.uniform(-1.0, 1.0, m - 1)
    sup = rng.uniform(-1.0, 1.0, m - 1)
    top_right, bottom_left = rng.uniform(-1.0, 1.0, 2)
    lower = np.concatenate(([top_right], sub))
    upper = np.concatenate((sup, [bottom_left]))
    sign = rng.choice([-1.0, 1.0], m)
    diag = sign * (np.abs(lower) + np.abs(upper) + rng.uniform(0.5, 1.5, m))
    rhs = rng.uniform(-5.0, 5.0, m)
    return lower, diag, upper, rhs


def test_identity():
    rng = np.random.default_rng(0)
    rhs = rng.uniform(-1, 1, 8)
    x = solve_cyclic_tridiagonal(np.zeros(8), np.ones(8), np.zeros(8), rhs)
    assert np.allclose(x, rhs, rtol=1e-15)


def test_uniform_system_has_constant_solution():
    # rows sum to 6, so the all-ones rhs maps back from the 1/6 vector
    m = 6
    lower = np.ones(m)
    upper = np.ones(m)
    diag = np.full(m, 4.0)
    x = solve_cyclic_tridiagonal(lower, diag, upper, np.ones(m))
    assert np.allclose(x, 1.0 / 6.0, atol=1e-14)
    dense = dense_matrix(lower, diag, upper)
    assert np.allclose(x, np.linalg.solve(dense, np.ones(m)), atol=1e-14)


@pytest.mark.parametrize("m", [6, 64, 200])
def test_matches_dense_oracle(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(5):
        lower, diag, upper, rhs = random_dominant_system(rng, m)
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        expected = np.linalg.solve(dense_matrix(lower, diag, upper), rhs)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(x - expected)) <= 1e-12 * scale


def test_pure_tridiagonal_corner_free_path():
    rng = np.random.default_rng(42)
    lower, diag, upper, rhs = random_dominant_system(rng, 32)
    lower[0] = upper[-1] = 0.0
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    expected = np.linalg.solve(dense_matrix(lower, diag, upper), rhs)
    assert np.allclose(x, expected, rtol=1e-12)


def test_multiple_right_hand_sides_share_factorization():
    rng = np.random.default_rng(5)
    lower, diag, upper, _ = random_dominant_system(rng, 40)
    rhs = rng.uniform(-1, 1, (3, 40))  # right-hand sides as rows
    stacked = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    assert stacked.shape == (3, 40)
    for row in range(3):
        single = solve_cyclic_tridiagonal(lower, diag, upper, rhs[row])
        assert np.allclose(stacked[row], single, rtol=1e-13)


def test_rejects_dominance_violation():
    m = 8
    with pytest.raises(LinearSolverError, match="dominant"):
        solve_cyclic_tridiagonal(np.ones(m), np.ones(m), np.ones(m), np.ones(m))


def test_rejects_non_finite_arithmetic():
    m = 8
    corners = np.zeros(m)
    corners[0] = 0.1  # as lower, the top-right corner; reversed, as upper, the bottom-left
    rhs = np.ones(m)
    rhs[3] = np.inf
    with pytest.raises(LinearSolverError, match="non-finite"):
        solve_cyclic_tridiagonal(corners, np.full(m, 2.0), corners[::-1], rhs)


def test_rejects_a_singular_rank_one_correction():
    # an infinite first diagonal entry passes the dominance check, but the
    # Sherman-Morrison denominator computes as inf/inf
    m = 8
    diag = np.full(m, 4.0)
    diag[0] = np.inf
    with pytest.raises(LinearSolverError, match="rank-one correction is singular"):
        solve_cyclic_tridiagonal(np.ones(m), diag, np.ones(m), np.ones(m))


def test_rejects_the_singular_periodic_laplacian():
    # its constant null vector leaves the Sherman-Morrison denominator at
    # 0.125 eps of its terms, roundoff of an exact 0; dividing by it gives ~4e16
    with pytest.raises(LinearSolverError, match="rank-one correction is singular"):
        solve_cyclic_tridiagonal([-1] * 4, [2] * 4, [-1] * 4, [1, 2, 3, 4])


def test_rejects_a_singular_tridiagonal_part():
    # rows 1 and 2 have a dominance margin of exactly 0, which the check lets
    # through, and the tridiagonal part T = A - u v^T is then singular
    with pytest.raises(LinearSolverError, match="tridiagonal part is singular"):
        solve_cyclic_tridiagonal([1, 0, 1, 1], [3, 1, 1, 3], [1, 1, 0, 1], [1, 2, 3, 4])


def test_rejects_bad_shapes():
    bands = np.zeros(8), np.ones(8), np.zeros(8)
    for lower, diag, upper, rhs in [
        (np.zeros(3), np.ones(3), np.zeros(3), np.ones(3)),  # M < 4
        (np.zeros(5), *bands[1:], np.ones(8)),
        (np.zeros(7), *bands[1:], np.ones(8)),  # lower of length M-1
        (*bands[:2], np.zeros(7), np.ones(8)),  # upper of length M-1
        (*bands, np.ones(9)),
        (*bands, np.ones((8, 2))),  # right-hand sides as columns
        (*bands, np.ones((8, 2, 1))),  # a 3-D rhs
        (bands[0], np.ones((8, 1)), bands[2], np.ones(8)),  # a 2-D diag
    ]:
        with pytest.raises(ValueError):
            solve_cyclic_tridiagonal(lower, diag, upper, rhs)
