import re

import numpy as np
import pytest

from otpath import NearSingularJacobianError
from otpath.linsolve import RCOND_FLOOR, solve_dual_system


def _rcond(mat):
    """The exact 1-norm reciprocal condition number 1 / (||A||_1 ||A^-1||_1)."""
    return 1.0 / (np.linalg.norm(mat, 1) * np.linalg.norm(np.linalg.inv(mat), 1))


@pytest.mark.parametrize("n", [1, 4, 12, 64])
def test_solve_bit_identical_to_numpy_solve(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        mat = rng.normal(size=(n, n)) + n * np.eye(n)
        rhs = rng.normal(size=n)
        assert np.array_equal(solve_dual_system(mat, rhs), np.linalg.solve(mat, rhs))
        # the deflated system is the same solve of the shifted matrix
        shifted = mat + (np.trace(mat) / n) * np.ones((n, n))
        assert np.array_equal(
            solve_dual_system(mat, rhs, deflate=True), np.linalg.solve(shifted, rhs)
        )


def test_refusal_reports_the_exact_rcond():
    rng = np.random.default_rng(3)
    for n in (2, 5, 12):
        for _ in range(3):
            u, _r = np.linalg.qr(rng.normal(size=(n, n)))
            v, _r = np.linalg.qr(rng.normal(size=(n, n)))
            mat = (u * np.geomspace(1.0, 1e-17, n)) @ v
            rcond = _rcond(mat)
            assert rcond < RCOND_FLOOR
            with pytest.raises(NearSingularJacobianError, match=re.escape(f"(rcond={rcond:.3g})")):
                solve_dual_system(mat, np.ones(n))


@pytest.mark.parametrize("factor, refused", [(1 + 1e-3, False), (1 - 1e-3, True)],
                         ids=["just-above", "just-below"])
def test_guard_cuts_at_the_floor(factor, refused):
    # [[1, 1], [0, e]]: ||A||_1 = 1 + e and ||A^-1||_1 = 2 / e, so rcond = e / (2 + 2e)
    e = 2.0 * RCOND_FLOOR * factor
    mat = np.array([[1.0, 1.0], [0.0, e]])
    assert _rcond(mat) == pytest.approx(RCOND_FLOOR * factor, rel=1e-12)
    rhs = np.array([1.0, e])
    if refused:
        with pytest.raises(NearSingularJacobianError, match=re.escape(f"(rcond={_rcond(mat):.3g})")):
            solve_dual_system(mat, rhs, t=0.5)
    else:
        assert np.array_equal(solve_dual_system(mat, rhs), np.linalg.solve(mat, rhs))


def test_singular_and_non_finite_systems_are_refused():
    with pytest.raises(NearSingularJacobianError, match="rcond"):
        solve_dual_system(np.ones((3, 3)), np.ones(3), t=0.5)
    with pytest.raises(NearSingularJacobianError, match="rcond"):
        solve_dual_system(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(NearSingularJacobianError, match="non-finite"):
        solve_dual_system(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2))


def test_non_finite_right_hand_side_is_refused_and_overflow_returned():
    mat = np.array([[2.0, 1.0], [1.0, 3.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NearSingularJacobianError, match="non-finite system"):
            solve_dual_system(mat, np.array([1.0, bad]))
    # a finite, well-conditioned system whose solution overflows comes back as solved
    tiny = 1e-300 * np.eye(2)
    x = solve_dual_system(tiny, np.array([1e10, 1.0]))
    assert np.array_equal(x, np.linalg.solve(tiny, [1e10, 1.0])) and x[0] == np.inf
