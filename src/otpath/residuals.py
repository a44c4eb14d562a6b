"""Dual residuals per variant, their Jacobians, time derivatives, and the
closed-form initial data of each initial-value problem.

Writing g for the transport gradient (the kernel module's `grad`), the four
residuals are

  p1: exp(-psi)        + g(psi, t)
  p2: exp(-psi/t)      + g(psi, t)
  p3: exp(-psi)        + g(psi, t)    with the anchor offsets inside g
  p4: rho-cells(-psi/t) + g(psi, t)

The trajectory psi(t) is the root of the residual at every t; the governing
ODE is jacobian * psi' = -dt.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValueError
from .kernel import KernelEvaluator
from .laguerre import GridCells, measure_jacobian, power_cell_measures


@dataclass(frozen=True)
class InitialData:
    """Start of the homotopy: psi at t=0, and psi'(0) for the variants whose
    ODE is singular at the origin (p2 and p4)."""

    psi0: np.ndarray
    dpsi0: np.ndarray = None


@dataclass(frozen=True)
class ResidualEval:
    """Residual vector, Jacobian in psi, and time derivative at one (psi, t)."""

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

    Shares one kernel evaluator across calls; `full` additionally shares the
    softmax sweep (and, for p4, the measure Jacobian) between the residual,
    Jacobian, and time derivative.  For p4 beyond 1-D the rho cells are grid
    labels; their operands are built here once, reusing the kernel's cost
    matrix when the outer cost is quadratic like the inner one.
    """

    def __init__(self, problem, grid):
        self.problem = problem
        self.grid = grid
        self.kernel = KernelEvaluator(problem, grid)
        self.rho_cells = None
        if problem.variant == "p4" and problem.dim > 1:
            shared = self.kernel.cost if problem.cost.exponent == 2.0 else None
            self.rho_cells = GridCells.build(problem.targets, grid, problem.rho, cost=shared)

    def _check_time(self, t):
        if self.problem.scales_penalty:
            if not 0.0 < t < 1.0:
                raise ValueError(
                    f"variant {self.problem.variant} needs t in (0, 1), got {t}"
                )
        elif not 0.0 <= t < 1.0:
            raise ValueError(f"t must lie in [0, 1), got {t}")

    def _rho_masses(self, xi):
        p = self.problem
        return power_cell_measures(
            xi, p.targets, p.domain, p.rho, grid=self.grid, cells=self.rho_cells
        )

    def _rho_jacobian(self, xi):
        p = self.problem
        return measure_jacobian(
            xi, p.targets, p.domain, p.rho, grid=self.grid, cells=self.rho_cells
        )

    def _penalty_gradient(self, psi, t):
        p = self.problem
        if p.variant == "p2":
            return _safe_exp(-psi / t, "entropy penalty term")
        if p.variant == "p4":
            return self._rho_masses(-psi / t)
        return _safe_exp(-psi, "entropy penalty term")

    def value(self, psi, t):
        self._check_time(t)
        psi = np.asarray(psi, dtype=float)
        return self._penalty_gradient(psi, t) + self.kernel.evaluate(psi, t).grad

    def jacobian(self, psi, t):
        """Symmetric negative (semi)definite Jacobian of the residual in psi.

        For p4 the matrix is singular along the all-ones direction: both the
        transport term and the cell masses are invariant under constant
        shifts of psi.  The ODE layer deflates that direction when solving.
        """
        self._check_time(t)
        psi = np.asarray(psi, dtype=float)
        return self.kernel.evaluate(psi, t).hess + self._penalty_jacobian(psi, t)

    def _penalty_jacobian(self, psi, t):
        p = self.problem
        if p.variant == "p2":
            return np.diag(-_safe_exp(-psi / t, "entropy penalty term") / t)
        if p.variant == "p4":
            return -self._rho_jacobian(-psi / t) / t
        return np.diag(-_safe_exp(-psi, "entropy penalty term"))

    def dt(self, psi, t):
        self._check_time(t)
        psi = np.asarray(psi, dtype=float)
        return self.kernel.evaluate(psi, t).dt_grad + self._penalty_dt(psi, t)

    def _penalty_dt(self, psi, t, rho_jac=None):
        p = self.problem
        if p.variant == "p2":
            return _safe_exp(-psi / t, "entropy penalty term") * psi / t**2
        if p.variant == "p4":
            if rho_jac is None:
                rho_jac = self._rho_jacobian(-psi / t)
            return rho_jac @ psi / t**2
        return np.zeros_like(psi)

    def full(self, psi, t):
        """Residual, Jacobian, and time derivative in one sweep."""
        self._check_time(t)
        psi = np.asarray(psi, dtype=float)
        ke = self.kernel.evaluate(psi, t)
        p = self.problem
        if p.variant == "p4":
            rho_jac = self._rho_jacobian(-psi / t)
            g = self._rho_masses(-psi / t) + ke.grad
            jac = ke.hess - rho_jac / t
            dt = ke.dt_grad + self._penalty_dt(psi, t, rho_jac=rho_jac)
        else:
            g = self._penalty_gradient(psi, t) + ke.grad
            jac = ke.hess + self._penalty_jacobian(psi, t)
            dt = ke.dt_grad + self._penalty_dt(psi, t)
        return ResidualEval(g=g, jac=jac, dt=dt)

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

        # Grid-label masses in 2-D are quantized at roughly the boundary-node
        # mass, so the equal-mass solve cannot go below ~1e-3 there.
        tol = 1e-8 if p.dim == 1 else 1e-3
        report = solve_xi_star(p.targets, p.rho, self.grid, tol=tol)
        if not report.converged:
            raise NonFiniteValueError(
                "equal-mass weight solve for the p4 start did not converge"
            )
        return InitialData(psi0=np.zeros(n), dpsi0=-report.psi)


def residual(problem, psi, t, grid):
    return ResidualSystem(problem, grid).value(psi, t)


def residual_jacobian(problem, psi, t, grid):
    return ResidualSystem(problem, grid).jacobian(psi, t)


def residual_dt(problem, psi, t, grid):
    return ResidualSystem(problem, grid).dt(psi, t)


def initial_state(problem, grid):
    return ResidualSystem(problem, grid).initial_state()
