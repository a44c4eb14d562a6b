"""Explicit third-order Runge-Kutta integration of the dual trajectory.

The trajectory solves jacobian(psi, t) * psi'(t) = -dt(psi, t) from the
closed-form start at t=0 to the unregularized optimum at t=1.  The stage
times of the two-parameter tableau family are (0, alpha, beta) with
alpha, beta < 1, so no stage ever evaluates the kernel at t = 1; variants
whose right-hand side is singular at t=0 instead supply psi'(0) in closed
form, which replaces the first stage of the first step only.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteValueError, SolverError
from .kernel import DualState
from .laguerre import CellField, grid_labels, unregularized_residual
from .linsolve import solve_dual_system
from .quadrature import QuadratureGrid, refine_grid
from .residuals import ResidualSystem

DEFAULT_ALPHA = 0.125
DEFAULT_BETA = 0.25
ORDER_TOL = 1e-12
BOOST_AFTER = 0.9  # stage time from which the stage systems use the boosted grid
BOOST_FACTOR = 2  # panels-per-axis refinement of the stage grid past BOOST_AFTER


@dataclass(frozen=True)
class RKTableau:
    """Three-stage explicit tableau with stage times (0, alpha, beta)."""

    alpha: float
    beta: float
    c: np.ndarray
    a21: float
    a31: float
    a32: float
    b: np.ndarray

    def __post_init__(self):
        self.c.setflags(write=False)
        self.b.setflags(write=False)

    def order_defects(self):
        """Residuals of the four third-order conditions (all should be ~0)."""
        b1, b2, b3 = self.b
        return np.array(
            [
                b1 + b2 + b3 - 1.0,
                b2 * self.alpha + b3 * self.beta - 0.5,
                b2 * self.alpha**2 + b3 * self.beta**2 - 1.0 / 3.0,
                b3 * self.a32 * self.alpha - 1.0 / 6.0,
            ]
        )


def rk3_tableau(alpha, beta):
    """Member (alpha, beta) of the third-order family.

    Requires finite alpha, beta != 0, alpha != beta, and alpha != 2/3; the
    coefficients then satisfy the order conditions identically, which is
    re-checked numerically on construction (a NaN defect fails the check).
    """
    alpha = float(alpha)
    beta = float(beta)
    if not np.isfinite([alpha, beta]).all():
        raise ConfigError(f"tableau parameters must be finite, got ({alpha}, {beta})")
    if alpha == 0.0 or beta == 0.0:
        raise ConfigError("tableau parameters must be nonzero")
    if alpha == beta:
        raise ConfigError("tableau parameters must differ")
    if alpha == 2.0 / 3.0:
        raise ConfigError("alpha = 2/3 is excluded from the tableau family")
    a21 = alpha
    a31 = (beta / alpha) * (beta - 3.0 * alpha * (1.0 - alpha)) / (3.0 * alpha - 2.0)
    a32 = -(beta / alpha) * (beta - alpha) / (3.0 * alpha - 2.0)
    b1 = 1.0 - (3.0 * alpha + 3.0 * beta - 2.0) / (6.0 * alpha * beta)
    b2 = (3.0 * beta - 2.0) / (6.0 * alpha * (beta - alpha))
    b3 = (2.0 - 3.0 * alpha) / (6.0 * beta * (beta - alpha))
    tableau = RKTableau(
        alpha=alpha,
        beta=beta,
        c=np.array([0.0, alpha, beta]),
        a21=a21,
        a31=a31,
        a32=a32,
        b=np.array([b1, b2, b3]),
    )
    defects = np.abs(tableau.order_defects())
    if not defects.max() <= ORDER_TOL:
        raise SolverError(
            f"tableau ({alpha}, {beta}) violates the order conditions: {defects}"
        )
    return tableau


@dataclass(frozen=True)
class TerminalReport:
    """The t=1 state and its unregularized residual, evaluated on `grid`."""

    psi: np.ndarray
    residual: np.ndarray
    error_sup: float
    runtime_seconds: float
    grid: QuadratureGrid


@dataclass
class Trajectory:
    """Computed states on the step lattice plus snapshots and the end report."""

    states: list
    snapshots: list = field(default_factory=list)
    report: TerminalReport = None

    @property
    def times(self):
        return np.array([s.t for s in self.states])

    @property
    def psi_matrix(self):
        return np.stack([s.psi for s in self.states])

    def state_at(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.states[idx].t - t) > 1e-9:
            raise KeyError(f"no stored state at t={t}")
        return self.states[idx]


class _Flow:
    """Right-hand side evaluations with a high-resolution regime near t = 1.

    Near t = 1 the kernel integrands concentrate on cell boundaries; from
    BOOST_AFTER on the stage systems are assembled on a grid refined by
    BOOST_FACTOR to keep quadrature error below the step error.
    """

    def __init__(self, problem, grid):
        self.problem = problem
        self.base = ResidualSystem(problem, grid)
        self.boosted = ResidualSystem(problem, refine_grid(grid, BOOST_FACTOR))
        self.deflate = problem.variant == "p4"

    def rhs(self, psi, t):
        system = self.boosted if t >= BOOST_AFTER else self.base
        ev = system.full(psi, t)
        return solve_dual_system(ev.jac, -ev.dt, deflate=self.deflate, t=t)


def capture_snapshot(system, psi, t):
    """Cell field on the system's grid: hard labels at every t, plus the
    softmax weights for t < 1, both from the kernel's cells."""
    psi = np.asarray(psi, dtype=float)
    kernel = system.kernel
    labels = grid_labels(psi - kernel.offsets, kernel.cells)
    weights = kernel.node_weights(psi, t) if t < 1.0 else None
    return CellField(nodes=system.grid.nodes, labels=labels, weights=weights)


def lattice_steps(dt):
    """Number of steps of size dt from t=0 to t=1, at least 4 whole ones."""
    steps = round(1.0 / dt) if dt > 0.0 else 0
    if steps < 4 or abs(steps * dt - 1.0) > 1e-9:
        raise ConfigError(f"dt={dt} must divide 1 into at least 4 whole steps")
    return steps


def snapshot_steps(snapshot_times, steps):
    """Map lattice index -> snapshot time; every time must be a lattice time."""
    snap_set = {}
    for t_snap in map(float, snapshot_times):
        # round() refuses inf and nan, which are on no lattice either
        k = round(t_snap * steps) if np.isfinite(t_snap) else -1
        if not 0 <= k <= steps or abs(k / steps - t_snap) > 1e-9:
            raise ConfigError(f"snapshot time {t_snap} is not on the step lattice")
        snap_set[k] = t_snap
    return snap_set


def integrate_homotopy(
    problem,
    dt,
    grid,
    tableau=None,
    snapshot_times=(),
):
    """Integrate the dual trajectory from t=0 to t=1 on a uniform lattice.

    Parameters
    ----------
    problem, grid : the instance and its quadrature rule.
    dt : step size; 1/dt must be an integer of at least 4.
    tableau : RKTableau, defaults to the (1/8, 1/4) member.
    snapshot_times : lattice times at which to export cell fields.

    Returns a Trajectory whose report holds the t=1 residual, its sup-norm,
    the grid it was evaluated on (`grid` with 4x panels in 1-D; in 2-D the
    boosted stage grid, 2x panels, whose cells the run already holds; so
    label-based cell masses do not dominate the reported error), and the wall
    time of the integration loop plus terminal evaluation.
    """
    steps = lattice_steps(dt)
    if tableau is None:
        tableau = rk3_tableau(DEFAULT_ALPHA, DEFAULT_BETA)
    if max(tableau.alpha, tableau.beta) >= 1.0:
        raise ConfigError("stage times must stay below 1 so t=1 is never evaluated")

    snap_set = snapshot_steps(snapshot_times, steps)

    start = time.perf_counter()
    flow = _Flow(problem, grid)
    init = flow.base.initial_state()
    psi = init.psi0.copy()
    states = [DualState(t=0.0, psi=psi.copy())]
    snapshots = []
    if 0 in snap_set:
        snapshots.append((0.0, capture_snapshot(flow.base, psi, 0.0)))

    b1, b2, b3 = tableau.b
    for k in range(steps):
        t0 = k / steps
        t1 = (k + 1) / steps
        h = t1 - t0
        if k == 0 and init.dpsi0 is not None:
            k1 = init.dpsi0
        else:
            k1 = flow.rhs(psi, t0)
        k2 = flow.rhs(psi + h * tableau.a21 * k1, t0 + tableau.alpha * h)
        k3 = flow.rhs(
            psi + h * (tableau.a31 * k1 + tableau.a32 * k2), t0 + tableau.beta * h
        )
        psi = psi + h * (b1 * k1 + b2 * k2 + b3 * k3)
        if not np.all(np.isfinite(psi)):
            raise NonFiniteValueError(f"state became non-finite at t={t1:.6g}")
        states.append(DualState(t=t1, psi=psi.copy()))
        if k + 1 in snap_set:
            snapshots.append((t1, capture_snapshot(flow.base, psi, t1)))

    if problem.dim == 1:
        report_grid = refine_grid(grid, 4)
        residual = unregularized_residual(problem, psi, report_grid)
    else:  # the boosted grid is the report grid: its cells are built already
        boosted = flow.boosted
        report_grid = boosted.grid
        residual = unregularized_residual(
            problem, psi, report_grid, boosted.kernel.cells, boosted.rho_cells
        )
    report = TerminalReport(
        psi=psi,
        residual=residual,
        error_sup=float(np.abs(residual).max()),
        runtime_seconds=time.perf_counter() - start,
        grid=report_grid,
    )
    return Trajectory(states=states, snapshots=snapshots, report=report)
