"""Newton-type solvers: the plain 1-D baseline on the unregularized dual, a
damped fixed-time solver used as an independent oracle for the trajectory,
and the equal-mass weight solve that seeds the Wasserstein-penalty variant.

The baseline is deliberately undamped so its initialization sensitivity is
reproducible; the other two are damped because downstream code relies on
them converging, and share one damped loop, `_damped_newton`, which reads
the residual and its Jacobian at every trial point as plain arrays.  The
baseline and the equal-mass solve take the cell masses and their Jacobian
at a point from one `measure_jacobian` call.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, SolverError
from .laguerre import GridCells, IntervalCells, measure_jacobian
from .linsolve import solve_dual_system
from .residuals import ResidualSystem

MAX_ITER = 100  # Newton updates before a solver reports non-convergence
TOL_1D = 1e-8  # residual sup-norm at which the 1-D baseline stops
MAX_HALVINGS = 30


@dataclass(frozen=True)
class NewtonReport:
    psi: np.ndarray
    iterations: int
    residual_sup: float
    converged: bool


def newton_1d(problem, psi0=None):
    """Plain Newton iteration on the unregularized 1-D dual.

    Residual: exp(-psi_j) - mu(cell_j(psi)).  The Jacobian is analytic:
    interface points between adjacent nonempty cells contribute
    mu(x_ij) / (2|y_i - y_j|) off-diagonal, and the diagonal collects
    -exp(-psi_i) minus the row's interface terms.  Stops at sup-norm below
    TOL_1D or after MAX_ITER updates; divergence is reported, not raised.
    That is the t = 1 system of p1 and p2 only, so other variants, cubic cost
    and 2-D targets are refused.
    """
    if problem.variant not in ("p1", "p2") or problem.cost.exponent != 2.0:
        raise ConfigError("the Newton baseline needs variant p1 or p2 and quadratic cost")
    cells = IntervalCells(problem.targets, problem.domain, problem.mu)
    psi = np.zeros(problem.n) if psi0 is None else np.asarray(psi0, dtype=float).copy()
    for k in range(MAX_ITER + 1):
        masses, cell_jac = measure_jacobian(psi, cells)
        with np.errstate(over="ignore"):  # divergence shows up as inf, reported below
            decay = np.exp(-psi)
        g = decay - masses
        if not np.all(np.isfinite(g)):
            return NewtonReport(psi=psi, iterations=k, residual_sup=np.inf, converged=False)
        sup = float(np.abs(g).max())
        if sup < TOL_1D or k == MAX_ITER:
            return NewtonReport(psi=psi, iterations=k, residual_sup=sup, converged=sup < TOL_1D)
        try:
            step = solve_dual_system(-np.diag(decay) - cell_jac, g)
        except SolverError:
            return NewtonReport(psi=psi, iterations=k, residual_sup=np.inf, converged=False)
        psi = psi - step
        if not np.all(np.isfinite(psi)) or np.abs(psi).max() > 1e8:
            return NewtonReport(psi=psi, iterations=k + 1, residual_sup=np.inf, converged=False)


def _newton_direction(jac, g, deflate):
    """Newton step, falling back to growing diagonal regularization when the
    Jacobian degenerates (empty cells zero out rows)."""
    try:
        return solve_dual_system(jac, g, deflate=deflate)
    except SolverError:
        pass
    n = jac.shape[0]
    sign = 1.0 if np.trace(jac) >= 0.0 else -1.0
    scale = max(1.0, float(np.abs(jac).max()))
    for lam in (1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        try:
            return solve_dual_system(
                jac + sign * lam * scale * np.eye(n), g, deflate=deflate
            )
        except SolverError:
            continue
    raise SolverError("Jacobian is singular beyond repair")


def _damped_newton(evaluate, psi0, tol, deflate=False, admissible=None):
    """Shared damped iteration: accept the full step if the sup-norm drops
    (and `admissible(g_trial, g_start)` holds, when given), otherwise halve
    it up to MAX_HALVINGS times.  `evaluate(psi)` returns the residual and
    its Jacobian there; it runs once per trial point."""
    psi = np.asarray(psi0, dtype=float).copy()
    g, jac = evaluate(psi)
    g_start = g
    sup = float(np.abs(g).max())
    for k in range(MAX_ITER):
        if sup < tol:
            return NewtonReport(psi=psi, iterations=k, residual_sup=sup, converged=True)
        try:
            step = _newton_direction(jac, g, deflate)
        except SolverError:
            return NewtonReport(psi=psi, iterations=k, residual_sup=sup, converged=False)
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = psi - scale * step
            try:
                g_trial, jac_trial = evaluate(trial)
            except SolverError:
                g_trial = None
            if g_trial is not None and np.all(np.isfinite(g_trial)):
                sup_trial = float(np.abs(g_trial).max())
                if sup_trial < sup and (admissible is None or admissible(g_trial, g_start)):
                    psi, g, jac, sup = trial, g_trial, jac_trial, sup_trial
                    break
            scale *= 0.5
        else:
            return NewtonReport(psi=psi, iterations=k, residual_sup=sup, converged=False)
    return NewtonReport(psi=psi, iterations=MAX_ITER, residual_sup=sup, converged=sup < tol)


def fixed_t_oracle(problem, t, grid, tol=1e-10):
    """Damped Newton on the fixed-t residual; independent of the ODE path.

    It starts from the closed-form initial data extrapolated to time t.
    Each trial point costs one `ResidualSystem.full`, which assembles its
    Jacobian too.
    """
    system = ResidualSystem(problem, grid)
    init = system.initial_state()
    psi0 = init.psi0 if init.dpsi0 is None else init.psi0 + t * init.dpsi0

    def evaluate(psi):
        ev = system.full(psi, t)
        return ev.g, ev.jac

    return _damped_newton(evaluate, psi0, tol, deflate=system.deflate)


def solve_xi_star(cells):
    """Weights whose power cells split the density of `cells` (the operands
    from `laguerre.cell_operands`) into N equal masses, to a residual below
    1e-8 on interval cells and 1e-3 on grid cells, whose label masses are
    quantized at roughly the boundary-node mass.

    Damped Newton on xi -> rho-cells(xi) - 1/N with the measure Jacobian and
    the standard semi-discrete globalization: besides decreasing the residual,
    a step must keep every cell mass above half the smallest mass seen at the
    start (an empty cell zeroes a Jacobian row and stalls the iteration).
    The Jacobian's all-ones kernel is deflated, and the returned weights are
    normalized to mean zero (cell masses are shift-invariant, so the defining
    equation only fixes xi up to a constant).
    """
    n = cells.n

    def evaluate(xi):
        masses, jac = measure_jacobian(xi, cells)
        return masses - 1.0 / n, jac

    def above_floor(g, g_start):
        # masses m = g + 1/N must stay >= min(m_start.min(), 1/N) / 2
        return g.min() >= 0.5 * min(float(g_start.min()), 0.0) - 0.5 / n

    tol = 1e-3 if isinstance(cells, GridCells) else 1e-8
    report = _damped_newton(
        evaluate, np.zeros(n), tol, deflate=True, admissible=above_floor
    )
    return replace(report, psi=report.psi - report.psi.mean())
