"""Dual residuals per variant, their Jacobians, time derivatives, and the
closed-form initial data of each initial-value problem.

Writing g for the transport gradient (the kernel module's `grad`), the four
residuals are

  p1: exp(-psi)        + g(psi, t)
  p2: exp(-psi/t)      + g(psi, t)
  p3: exp(-psi)        + g(psi, t)    with the anchor offsets inside g
  p4: rho-cells(-psi/t) + g(psi, t)

The trajectory psi(t) is the root of the residual at every t; the governing
ODE is jacobian * psi' = -dt.  `ResidualSystem.full` is the one evaluation:
it returns all three blocks at a point as plain arrays, from one kernel sweep
plus the penalty's terms (for p4, the rho-cell masses and their measure
Jacobian from one `measure_jacobian` call); the ODE stages, the Newton oracle
and the acceptance checks all read it.  `ResidualSystem.deflate` tells every
solve with its Jacobian whether to deflate the all-ones direction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValueError
from .kernel import KernelEvaluator
from .laguerre import cell_operands, measure_jacobian


@dataclass(frozen=True)
class InitialData:
    """Start of the homotopy: psi at t=0, and psi'(0) for the variants whose
    ODE is singular at the origin (p2 and p4)."""

    psi0: np.ndarray
    dpsi0: np.ndarray = None


@dataclass(frozen=True)
class ResidualEval:
    """Residual vector `g`, Jacobian `jac` in psi, and time derivative `dt`
    at one (psi, t)."""

    g: np.ndarray
    jac: np.ndarray
    dt: np.ndarray


def _safe_exp(a, what):
    a = np.asarray(a, dtype=float)
    if a.max(initial=-np.inf) > 700.0:
        raise NonFiniteValueError(f"{what} overflows: max exponent {a.max():.3g}")
    return np.exp(a)


class ResidualSystem:
    """Residual evaluations for one (problem, grid) pair.

    Shares one kernel evaluator across calls; `full` shares the softmax
    sweep (and, for p4, the measure Jacobian) between the residual,
    Jacobian, and time derivative.  `deflate` is set for p4 alone, whose
    Jacobian is singular (see `_penalty`).  For p4 the rho cells are the
    operands `cell_operands` builds on `grid`, held apart from the kernel's.
    """

    def __init__(self, problem, grid):
        self.problem = problem
        self.grid = grid
        self.kernel = KernelEvaluator(problem, grid)
        self.rho_cells = None
        self.deflate = problem.variant == "p4"
        if problem.variant == "p4":
            self.rho_cells = cell_operands(problem.targets, problem.rho, grid)

    def _check_time(self, t):
        if self.problem.scales_penalty:
            if not 0.0 < t < 1.0:
                raise ValueError(
                    f"variant {self.problem.variant} needs t in (0, 1), got {t}"
                )
        elif not 0.0 <= t < 1.0:
            raise ValueError(f"t must lie in [0, 1), got {t}")

    def _penalty(self, psi, t):
        """The penalty term's (g, jac, dt) blocks.  For p1-p3 the Jacobian
        is diagonal and given as its diagonal, and dt is None where it is
        zero (p1, p3).

        For p4 the Jacobian is singular along the all-ones direction: both the
        transport term and the cell masses are invariant under constant
        shifts of psi.  That is why `deflate` is set for p4: the ODE stages
        and the Newton oracle deflate that direction when solving.
        """
        p = self.problem
        if p.variant == "p4":
            masses, rho_jac = measure_jacobian(-psi / t, self.rho_cells)
            return masses, -rho_jac / t, rho_jac @ psi / t**2
        if p.variant == "p2":
            e = _safe_exp(-psi / t, "entropy penalty term")
            return e, -e / t, e * psi / t**2
        e = _safe_exp(-psi, "entropy penalty term")
        return e, -e, None

    def full(self, psi, t):
        """Residual, its symmetric negative (semi)definite Jacobian in psi,
        and its time derivative, from one kernel sweep.  The penalty's
        Jacobian is added onto the kernel Hessian in place: a diagonal
        (p1-p3) onto its diagonal alone."""
        self._check_time(t)
        psi = np.asarray(psi, dtype=float)
        ke = self.kernel.evaluate(psi, t)
        g, pen_jac, pen_dt = self._penalty(psi, t)
        jac = ke.hess
        if pen_jac.ndim == 1:
            jac.flat[:: jac.shape[0] + 1] += pen_jac
        else:
            jac += pen_jac
        dt = ke.dt_grad if pen_dt is None else ke.dt_grad + pen_dt
        return ResidualEval(g=g + ke.grad, jac=jac, dt=dt)

    def initial_state(self):
        """Closed-form start of the trajectory for this variant."""
        p = self.problem
        n = p.n
        ones = np.ones(n)
        if p.variant == "p1":
            return InitialData(psi0=np.log(n) * ones)
        if p.variant == "p2":
            return InitialData(psi0=np.zeros(n), dpsi0=np.log(n) * ones)
        if p.variant == "p3":
            half = 0.5 * p.anchor_costs
            m = (-half).max()
            log_total = m + np.log(np.exp(-half - m).sum())
            return InitialData(psi0=half + log_total)
        from .newton import solve_xi_star  # deferred: newton imports this module

        report = solve_xi_star(self.rho_cells)
        if not report.converged:
            raise NonFiniteValueError(
                "equal-mass weight solve for the p4 start did not converge"
            )
        return InitialData(psi0=np.zeros(n), dpsi0=-report.psi)

