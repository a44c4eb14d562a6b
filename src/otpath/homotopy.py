"""Explicit third-order Runge-Kutta integration of the dual trajectory.

The trajectory solves jacobian(psi, t) * psi'(t) = -dt(psi, t) from the
closed-form start at t=0 to the unregularized optimum at t=1.  The stage
times of the two-parameter tableau family are (0, alpha, beta) with
alpha, beta in (0, 1), so no stage ever evaluates the kernel at t = 1;
variants whose right-hand side is singular at t=0 instead supply psi'(0) in
closed form, which replaces the first stage of the first step only.

The trajectory is the lattice times and the (steps + 1, N) states, row k
at t = k / steps, allocated before the first stage and read-only after the
last.  A dt whose trajectory cannot be allocated is refused there with a
`ConfigError`; `otpath run` makes the same check before it writes a file.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteValueError, SolverError
from .kernel import DualState
from .laguerre import CellField, unregularized_residual
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
    """Lattice times and states, row k at t = k / steps, plus snapshots and the end report."""

    times: np.ndarray
    psi_matrix: np.ndarray
    snapshots: list = field(default_factory=list)
    report: TerminalReport = None

    @property
    def states(self):
        """A `DualState` view of every row."""
        return [DualState(t=t, psi=psi) for t, psi in zip(self.times.tolist(), self.psi_matrix)]

    def state_at(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9:
            raise KeyError(f"no stored state at t={t}")
        return DualState(t=float(self.times[idx]), psi=self.psi_matrix[idx])


class _Flow:
    """Right-hand side evaluations with a high-resolution regime near t = 1.

    Near t = 1 the kernel integrands concentrate on cell boundaries; from
    BOOST_AFTER on the stage systems are assembled on a grid refined by
    BOOST_FACTOR to keep quadrature error below the step error.  The
    boosted system also serves the terminal residual.
    """

    def __init__(self, problem, grid):
        self.base = ResidualSystem(problem, grid)
        self.boosted = ResidualSystem(problem, refine_grid(grid, BOOST_FACTOR))

    def rhs(self, psi, t):
        system = self.boosted if t >= BOOST_AFTER else self.base
        ev = system.full(psi, t)
        return solve_dual_system(ev.jac, -ev.dt, deflate=system.deflate, t=t)


def capture_snapshot(system, psi, t):
    """Cell field of the system's kernel at (psi, t): the labels at every t,
    plus the softmax weights for t < 1, formed from the kernel's grid and
    cells when read (see `CellField`)."""
    return CellField(kernel=system.kernel, psi=psi, t=float(t))


def lattice_steps(dt):
    """Number of steps of size dt from t=0 to t=1, at least 4 whole ones."""
    steps = round(1.0 / dt) if dt > 0.0 else 0
    if steps < 4 or abs(steps * dt - 1.0) > 1e-9:
        raise ConfigError(f"dt={dt} must divide 1 into at least 4 whole steps")
    return steps


def _lattice(dt, n):
    """Unwritten times and (steps + 1, n) states of the lattice of dt, or a refusal."""
    steps = lattice_steps(dt)
    try:
        return np.empty(steps + 1), np.empty((steps + 1, n))
    except (ValueError, MemoryError):
        raise ConfigError(
            f"dt={dt!r} takes too many steps for its trajectory to fit in memory; raise dt"
        ) from None


def snapshot_steps(snapshot_times, steps):
    """Sorted lattice indices of the snapshot times; each must be a lattice time."""
    indices = set()
    for t_snap in map(float, snapshot_times):
        # round() refuses inf and nan, which are on no lattice either
        k = round(t_snap * steps) if np.isfinite(t_snap) else -1
        if not 0 <= k <= steps or abs(k / steps - t_snap) > 1e-9:
            raise ConfigError(f"snapshot time {t_snap} is not on the step lattice")
        indices.add(k)
    return sorted(indices)


def _check_stage_times(tableau):
    """Refuse stage times alpha, beta outside (0, 1): no stage lies before
    t = 0, and none evaluates t = 1."""
    alpha, beta = tableau.alpha, tableau.beta
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise ConfigError(
            f"stage times alpha and beta must lie in (0, 1), got alpha = {alpha}, beta = {beta}"
        )


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
    dt : step size; 1/dt must be an integer of at least 4 (and fit in memory).
    tableau : RKTableau, defaults to the (1/8, 1/4) member.
    snapshot_times : lattice times at which to export cell fields.

    Returns a Trajectory whose report holds the t=1 residual, its sup-norm,
    the grid it was evaluated on (the boosted stage grid, BOOST_FACTOR x the
    panels of `grid`, whose cell operands the run already holds; 1-D cells
    under quadratic cost are exact intervals that read only its box), and
    the wall time of the integration loop plus terminal evaluation.
    """
    times, psi_matrix = _lattice(dt, problem.n)
    steps = times.size - 1
    if tableau is None:
        tableau = rk3_tableau(DEFAULT_ALPHA, DEFAULT_BETA)
    _check_stage_times(tableau)

    snap_steps = snapshot_steps(snapshot_times, steps)

    start = time.perf_counter()
    flow = _Flow(problem, grid)
    init = flow.base.initial_state()
    psi = init.psi0
    times[0], psi_matrix[0] = 0.0, psi

    b1, b2, b3 = tableau.b
    for k in range(steps):
        t0, t1 = k / steps, (k + 1) / steps
        h = t1 - t0
        k1 = init.dpsi0 if k == 0 and init.dpsi0 is not None else flow.rhs(psi, t0)
        k2 = flow.rhs(psi + h * tableau.a21 * k1, t0 + tableau.alpha * h)
        k3 = flow.rhs(psi + h * (tableau.a31 * k1 + tableau.a32 * k2), t0 + tableau.beta * h)
        psi = psi + h * (b1 * k1 + b2 * k2 + b3 * k3)
        if not np.all(np.isfinite(psi)):
            raise NonFiniteValueError(f"state became non-finite at t={t1:.6g}")
        times[k + 1], psi_matrix[k + 1] = t1, psi
    times.setflags(write=False)
    psi_matrix.setflags(write=False)
    snapshots = [(k / steps, capture_snapshot(flow.base, psi_matrix[k], k / steps)) for k in snap_steps]

    boosted = flow.boosted  # the report grid: its cells are built already
    residual = unregularized_residual(
        problem, psi, boosted.grid, boosted.kernel.cells, boosted.rho_cells
    )
    report = TerminalReport(
        psi=psi,
        residual=residual,
        error_sup=float(np.abs(residual).max()),
        runtime_seconds=time.perf_counter() - start,
        grid=boosted.grid,
    )
    return Trajectory(times=times, psi_matrix=psi_matrix, snapshots=snapshots, report=report)
