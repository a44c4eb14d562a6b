"""Dense linear solves for the stage systems, with a condition guard.

Systems are N x N for N targets.  numpy's LAPACK (gesv: LU with partial
pivoting) forms the inverse and, in its own call, the solution, which is not
taken as inverse times right-hand side because that is less accurate.  Both
cost O(N^3), small next to a stage's O(N x nodes) quadrature while N^2 stays
below the node count; no limit on N is enforced.

The guard is the exact 1-norm reciprocal condition number
rcond = 1 / (||A||_1 ||A^-1||_1), refused below RCOND_FLOOR.  LAPACK's gecon
estimates ||A^-1||_1 from below (the estimate is the norm of some A^-1 v with
||v||_1 = 1), so its rcond is never smaller than the exact one: every matrix
the estimate refused is refused here too, and the guard is never looser.

The Wasserstein-penalty variant's Jacobian is exactly singular along the
all-ones direction (constant shifts of the dual weights change nothing);
`deflate=True` adds a rank-one term on that direction, which pins the mean of
the solution to (essentially) zero without touching the orthogonal
complement.
"""

import numpy as np

from .errors import NearSingularJacobianError

RCOND_FLOOR = 1e-14  # condition number beyond 1e14 is treated as singular


def _norm1(a):
    return float(abs(a).sum(axis=0).max())


def solve_dual_system(mat, rhs, deflate=False, t=None):
    mat = np.asarray(mat, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = mat.shape[0]
    if deflate:
        shift = np.trace(mat)
        if abs(shift) < 1e-12:
            shift = -1.0
        mat = mat + shift / n
    try:
        inv = np.linalg.inv(mat)
        x = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:  # an exactly zero pivot, or inf - inf inside LAPACK
        rcond = 0.0
    else:
        rcond = 1.0 / (_norm1(mat) * _norm1(inv))
        # a non-finite entry of rhs reaches x, one of mat the norms
        if rcond >= RCOND_FLOOR and np.isfinite(x).all():
            return x
    where = t if t is not None else np.nan
    if not (np.all(np.isfinite(mat)) and np.all(np.isfinite(rhs))):
        raise NearSingularJacobianError(where, "non-finite system")
    if not rcond >= RCOND_FLOOR:
        raise NearSingularJacobianError(where, f"rcond={rcond:.3g}")
    return x  # a finite, well-conditioned system whose solution overflowed
