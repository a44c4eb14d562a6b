import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from otpath import NearSingularJacobianError
from otpath.linsolve import solve_dual_system


@pytest.mark.parametrize("n", [1, 4, 12, 64])
def test_solve_bit_identical_to_lu_factor_lu_solve(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        mat = rng.normal(size=(n, n)) + n * np.eye(n)
        rhs = rng.normal(size=n)
        assert np.array_equal(solve_dual_system(mat, rhs), lu_solve(lu_factor(mat), rhs))
        # the deflated system is the same solve of the shifted matrix
        shifted = mat + (np.trace(mat) / n) * np.ones((n, n))
        assert np.array_equal(
            solve_dual_system(mat, rhs, deflate=True), lu_solve(lu_factor(shifted), rhs)
        )


def test_singular_and_non_finite_systems_are_refused():
    with pytest.raises(NearSingularJacobianError, match="rcond"):
        solve_dual_system(np.ones((3, 3)), np.ones(3), t=0.5)
    with pytest.raises(NearSingularJacobianError, match="rcond"):
        solve_dual_system(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(NearSingularJacobianError, match="non-finite"):
        solve_dual_system(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2))
