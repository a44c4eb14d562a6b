"""Dense linear solves for the stage systems, with a condition guard.

Systems are N x N for N targets.  LU with partial pivoting plus a LAPACK
reciprocal-condition estimate costs O(N^3), small next to a stage's
O(N x nodes) quadrature while N^2 stays below the node count; no limit on N
is enforced.  The Wasserstein-penalty variant's Jacobian is exactly singular
along the all-ones direction (constant shifts of the dual weights change
nothing); `deflate=True` adds a rank-one term on that direction, which pins
the mean of the solution to (essentially) zero without touching the
orthogonal complement.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import NearSingularJacobianError

RCOND_FLOOR = 1e-14  # condition estimate beyond 1e14 is treated as singular
# The LAPACK routines behind scipy's lu_factor / lu_solve, without their
# per-call wrapper overhead: factor, condition estimate, solve.
_GETRF, _GECON, _GETRS = get_lapack_funcs(("getrf", "gecon", "getrs"), (np.zeros((1, 1)),))


def solve_dual_system(mat, rhs, deflate=False, t=None):
    mat = np.asarray(mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = mat.shape[0]
    if deflate:
        shift = np.trace(mat)
        if abs(shift) < 1e-12:
            shift = -1.0
        mat = mat + (shift / n) * np.ones((n, n))
    if not np.all(np.isfinite(mat)) or not np.all(np.isfinite(rhs)):
        raise NearSingularJacobianError(t if t is not None else np.nan, "non-finite system")
    anorm = np.abs(mat).sum(axis=0).max()
    lu, piv, info = _GETRF(mat)  # info > 0: an exactly zero pivot
    rcond, info_con = _GECON(lu, anorm, norm="1")
    if info != 0 or info_con != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise NearSingularJacobianError(
            t if t is not None else np.nan, f"rcond={rcond:.3g}"
        )
    return _GETRS(lu, piv, rhs)[0]
